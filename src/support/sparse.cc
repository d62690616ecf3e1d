#include "support/sparse.h"

#include <algorithm>
#include <cmath>

#include "support/error.h"
#include "support/faultinject.h"
#include "support/logging.h"

namespace ark::support {

namespace {

constexpr std::size_t kNoPivot = static_cast<std::size_t>(-1);
constexpr double kPivotFloor = 1e-300;

/**
 * Refactor-time pivot adequacy: a reused pivot must stay within this
 * factor of its column's magnitude, or the replay reports failure so
 * the caller can fall back to a fresh pivot search. Guards against
 * silently accepting a pivot order that is fine for the leader's
 * values but numerically degenerate for a member's.
 */
constexpr double kRefactorPivotTol = 1e-3;

} // namespace

SparseMatrix::SparseMatrix(std::size_t rows, std::size_t cols)
    : rows_(rows), cols_(cols), rowPtr_(rows + 1, 0)
{
}

SparseMatrix
SparseMatrix::fromTriplets(std::size_t rows, std::size_t cols,
                           std::vector<Triplet> triplets)
{
    for (const Triplet &t : triplets) {
        panicIf(t.row >= rows || t.col >= cols,
                "SparseMatrix::fromTriplets: triplet out of range");
    }
    std::sort(triplets.begin(), triplets.end(),
              [](const Triplet &a, const Triplet &b) {
                  return a.row != b.row ? a.row < b.row : a.col < b.col;
              });
    SparseMatrix m(rows, cols);
    m.col_.reserve(triplets.size());
    m.values_.reserve(triplets.size());
    std::size_t nextRow = 0; // first row whose pointer is still unset
    for (const Triplet &t : triplets) {
        while (nextRow <= t.row)
            m.rowPtr_[nextRow++] = m.col_.size();
        if (m.col_.size() > m.rowPtr_[t.row] && m.col_.back() == t.col) {
            m.values_.back() += t.value; // duplicate position: sum
        } else {
            m.col_.push_back(t.col);
            m.values_.push_back(t.value);
        }
    }
    while (nextRow <= rows)
        m.rowPtr_[nextRow++] = m.col_.size();
    return m;
}

double
SparseMatrix::at(std::size_t r, std::size_t c) const
{
    panicIf(r >= rows_ || c >= cols_, "SparseMatrix::at out of range");
    for (std::size_t i = rowPtr_[r]; i < rowPtr_[r + 1]; ++i)
        if (col_[i] == c)
            return values_[i];
    return 0.0;
}

void
SparseMatrix::applyInto(const double *x, double *y) const
{
    for (std::size_t r = 0; r < rows_; ++r) {
        double acc = 0.0;
        for (std::size_t i = rowPtr_[r]; i < rowPtr_[r + 1]; ++i)
            acc += values_[i] * x[col_[i]];
        y[r] = acc;
    }
}

std::vector<double>
SparseMatrix::apply(const std::vector<double> &x) const
{
    panicIf(x.size() != cols_, "SparseMatrix::apply dimension mismatch");
    std::vector<double> y(rows_);
    applyInto(x.data(), y.data());
    return y;
}

bool
SparseMatrix::samePattern(const SparseMatrix &other) const
{
    return rows_ == other.rows_ && cols_ == other.cols_ &&
           rowPtr_ == other.rowPtr_ && col_ == other.col_;
}

bool
SparseMatrix::sameValues(const SparseMatrix &other) const
{
    return samePattern(other) && values_ == other.values_;
}

Matrix
SparseMatrix::toDense() const
{
    Matrix dense(rows_, cols_);
    for (std::size_t r = 0; r < rows_; ++r)
        for (std::size_t i = rowPtr_[r]; i < rowPtr_[r + 1]; ++i)
            dense(r, col_[i]) += values_[i];
    return dense;
}

SparseLu::SparseLu(const SparseMatrix &a)
    : n_(a.rows()), aRowPtr_(a.rowPtr()), aCol_(a.colIndex())
{
    panicIf(a.rows() != a.cols(), "SparseLu requires a square matrix");

    // Deterministic fault injection: present as the singular-pivot
    // failure a numerically degenerate matrix would raise, so tests
    // can drive a sweep's structured SingularMatrix path on demand.
    if (FaultInjector::shouldFire(FaultSite::SparseLuPivot))
        throw ArkError(ErrorKind::Sim,
                       "fault injection: forced pivot failure");

    // CSC view of A keeping each entry's CSR value index, so refactor
    // can scatter a new instance's values without re-walking the CSR.
    std::vector<std::size_t> colCount(n_, 0);
    for (std::size_t c : aCol_)
        ++colCount[c];
    std::vector<std::size_t> cscPtr(n_ + 1, 0);
    for (std::size_t c = 0; c < n_; ++c)
        cscPtr[c + 1] = cscPtr[c] + colCount[c];
    std::vector<std::size_t> cscRow(aCol_.size());
    std::vector<std::size_t> cscCsr(aCol_.size());
    {
        std::vector<std::size_t> next(cscPtr.begin(), cscPtr.end() - 1);
        for (std::size_t r = 0; r < n_; ++r) {
            for (std::size_t i = aRowPtr_[r]; i < aRowPtr_[r + 1]; ++i) {
                std::size_t slot = next[aCol_[i]]++;
                cscRow[slot] = r;
                cscCsr[slot] = i;
            }
        }
    }

    // Left-looking factorization in original row space; lCols/uCols
    // collect the growing factors per column and are flattened into
    // CSC arrays (rows renumbered into pivot space) afterwards.
    const std::vector<double> &aVal = a.values();
    std::vector<std::size_t> pinv(n_, kNoPivot);
    rowOfPivot_.assign(n_, kNoPivot);
    std::vector<std::vector<std::pair<std::size_t, double>>> lCols(n_);
    std::vector<std::vector<std::pair<std::size_t, double>>> uCols(n_);
    uDiag_.assign(n_, 0.0);

    std::vector<double> x(n_, 0.0);
    std::vector<char> visited(n_, 0);
    std::vector<std::size_t> reach, stack, pivoted, unpivoted;

    for (std::size_t j = 0; j < n_; ++j) {
        // Structural reach of A(:,j) through the graph of L.
        reach.clear();
        stack.clear();
        for (std::size_t i = cscPtr[j]; i < cscPtr[j + 1]; ++i) {
            if (!visited[cscRow[i]]) {
                visited[cscRow[i]] = 1;
                stack.push_back(cscRow[i]);
            }
        }
        while (!stack.empty()) {
            std::size_t node = stack.back();
            stack.pop_back();
            reach.push_back(node);
            if (pinv[node] == kNoPivot)
                continue;
            for (const auto &[row, value] : lCols[pinv[node]]) {
                (void)value;
                if (!visited[row]) {
                    visited[row] = 1;
                    stack.push_back(row);
                }
            }
        }

        pivoted.clear();
        unpivoted.clear();
        for (std::size_t node : reach) {
            (pinv[node] == kNoPivot ? unpivoted : pivoted)
                .push_back(node);
        }
        std::sort(pivoted.begin(), pivoted.end(),
                  [&](std::size_t lhs, std::size_t rhs) {
                      return pinv[lhs] < pinv[rhs];
                  });

        // Numeric sparse triangular solve x = L \ A(:,j).
        for (std::size_t i = cscPtr[j]; i < cscPtr[j + 1]; ++i)
            x[cscRow[i]] = aVal[cscCsr[i]];
        for (std::size_t node : pivoted) {
            std::size_t k = pinv[node];
            double xk = x[node];
            uCols[j].emplace_back(k, xk);
            for (const auto &[row, value] : lCols[k])
                x[row] -= value * xk;
        }

        // Partial pivot: largest magnitude among unpivoted rows.
        std::size_t pivotRow = kNoPivot;
        double best = -1.0;
        for (std::size_t node : unpivoted) {
            double mag = std::fabs(x[node]);
            if (mag > best) {
                best = mag;
                pivotRow = node;
            }
        }
        if (pivotRow == kNoPivot || best < kPivotFloor) {
            throw ArkError(ErrorKind::Sim,
                           cat("singular matrix in sparse LU "
                               "factorization (column ", j, ")"));
        }
        double pivot = x[pivotRow];
        uDiag_[j] = pivot;
        pinv[pivotRow] = j;
        rowOfPivot_[j] = pivotRow;
        for (std::size_t node : unpivoted) {
            if (node != pivotRow)
                lCols[j].emplace_back(node, x[node] / pivot);
        }

        for (std::size_t node : reach) {
            x[node] = 0.0;
            visited[node] = 0;
        }
    }

    // Flatten L and U into CSC with rows in pivot space.
    lColPtr_.assign(n_ + 1, 0);
    uColPtr_.assign(n_ + 1, 0);
    for (std::size_t j = 0; j < n_; ++j) {
        lColPtr_[j + 1] = lColPtr_[j] + lCols[j].size();
        uColPtr_[j + 1] = uColPtr_[j] + uCols[j].size();
    }
    lRow_.reserve(lColPtr_[n_]);
    lVal_.reserve(lColPtr_[n_]);
    uRow_.reserve(uColPtr_[n_]);
    uVal_.reserve(uColPtr_[n_]);
    for (std::size_t j = 0; j < n_; ++j) {
        std::sort(lCols[j].begin(), lCols[j].end(),
                  [&](const auto &lhs, const auto &rhs) {
                      return pinv[lhs.first] < pinv[rhs.first];
                  });
        for (const auto &[row, value] : lCols[j]) {
            lRow_.push_back(pinv[row]);
            lVal_.push_back(value);
        }
        // uCols entries were appended in ascending pivot order.
        for (const auto &[row, value] : uCols[j]) {
            uRow_.push_back(row);
            uVal_.push_back(value);
        }
    }

    // A's entries in pivot space, per column, for refactor scatter.
    aEntryPtr_.assign(n_ + 1, 0);
    for (std::size_t j = 0; j < n_; ++j)
        aEntryPtr_[j + 1] = aEntryPtr_[j] + (cscPtr[j + 1] - cscPtr[j]);
    aEntryRow_.resize(aCol_.size());
    aEntryCsr_.resize(aCol_.size());
    for (std::size_t j = 0; j < n_; ++j) {
        std::size_t out = aEntryPtr_[j];
        for (std::size_t i = cscPtr[j]; i < cscPtr[j + 1]; ++i) {
            aEntryRow_[out] = pinv[cscRow[i]];
            aEntryCsr_[out] = cscCsr[i];
            ++out;
        }
    }
}

void
SparseLu::refactor(const SparseMatrix &a)
{
    if (a.rows() != n_ || a.cols() != n_ || a.rowPtr() != aRowPtr_ ||
        a.colIndex() != aCol_) {
        throw ArkError(ErrorKind::Sim,
                       "SparseLu::refactor: matrix pattern differs from "
                       "the factored structure");
    }
    if (FaultInjector::shouldFire(FaultSite::SparseLuPivot))
        throw ArkError(ErrorKind::Sim,
                       "fault injection: forced pivot failure");
    const std::vector<double> &aVal = a.values();
    std::vector<double> w(n_, 0.0);
    for (std::size_t j = 0; j < n_; ++j) {
        for (std::size_t i = aEntryPtr_[j]; i < aEntryPtr_[j + 1]; ++i)
            w[aEntryRow_[i]] += aVal[aEntryCsr_[i]];
        for (std::size_t i = uColPtr_[j]; i < uColPtr_[j + 1]; ++i) {
            std::size_t k = uRow_[i];
            double ukj = w[k];
            uVal_[i] = ukj;
            for (std::size_t li = lColPtr_[k]; li < lColPtr_[k + 1];
                 ++li) {
                w[lRow_[li]] -= lVal_[li] * ukj;
            }
        }
        double pivot = w[j];
        // Pivot adequacy, not just nonzero: the recorded order was
        // chosen for the originally factored values; on new values
        // the same position may be dwarfed by its column, which
        // would amplify rounding by colMax/|pivot|.
        double colMax = std::fabs(pivot);
        for (std::size_t li = lColPtr_[j]; li < lColPtr_[j + 1]; ++li)
            colMax = std::max(colMax, std::fabs(w[lRow_[li]]));
        if (std::fabs(pivot) < kPivotFloor ||
            std::fabs(pivot) < kRefactorPivotTol * colMax) {
            throw ArkError(ErrorKind::Sim,
                           cat("sparse LU refactor: reused pivot ", j,
                               " collapsed on the new values; the "
                               "matrix needs its own pivot order"));
        }
        uDiag_[j] = pivot;
        for (std::size_t li = lColPtr_[j]; li < lColPtr_[j + 1]; ++li)
            lVal_[li] = w[lRow_[li]] / pivot;

        // The touched workspace is exactly this column's fill pattern.
        for (std::size_t i = uColPtr_[j]; i < uColPtr_[j + 1]; ++i)
            w[uRow_[i]] = 0.0;
        for (std::size_t li = lColPtr_[j]; li < lColPtr_[j + 1]; ++li)
            w[lRow_[li]] = 0.0;
        w[j] = 0.0;
    }
}

void
SparseLu::solveInto(const double *b, double *x) const
{
    // Forward: x <- L^{-1} P b (unit diagonal), in pivot space.
    for (std::size_t k = 0; k < n_; ++k)
        x[k] = b[rowOfPivot_[k]];
    for (std::size_t j = 0; j < n_; ++j) {
        double xj = x[j];
        if (xj == 0.0)
            continue;
        for (std::size_t i = lColPtr_[j]; i < lColPtr_[j + 1]; ++i)
            x[lRow_[i]] -= lVal_[i] * xj;
    }
    // Backward: x <- U^{-1} x; solution lands in natural column order.
    for (std::size_t jj = n_; jj-- > 0;) {
        double xj = x[jj] / uDiag_[jj];
        x[jj] = xj;
        if (xj == 0.0)
            continue;
        for (std::size_t i = uColPtr_[jj]; i < uColPtr_[jj + 1]; ++i)
            x[uRow_[i]] -= uVal_[i] * xj;
    }
}

std::vector<double>
SparseLu::solve(const std::vector<double> &b) const
{
    panicIf(b.size() != n_, "SparseLu::solve dimension mismatch");
    std::vector<double> x(n_);
    solveInto(b.data(), x.data());
    return x;
}

} // namespace ark::support
