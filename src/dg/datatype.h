#ifndef ARK_DG_DATATYPE_H
#define ARK_DG_DATATYPE_H

/**
 * @file
 * Ark datatypes (the grammar's SigT / SigTProg).
 *
 * Attributes, initial values, and function arguments are typed with
 * bounded reals (optionally mismatch-annotated), bounded integers, or
 * lambda types. Constness (SigT const) marks hardware-fixed,
 * non-programmable quantities.
 */

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "expr/value.h"

namespace ark::dg {

/**
 * Process-variation annotation `mm(s0, s1)`: writing nominal value x
 * stores a sample from N(x, s0 + s1*|x|).
 *
 * Note on the paper: §4.3 states N(x, x*s0 + s1), but every listing
 * (Vm.c mm(0,0.1) described as "10% mismatch"; Cpl_ofs.offset
 * mm(0.02,0) producing non-zero offsets around a nominal 0) is only
 * consistent with s0 = absolute sigma and s1 = relative sigma, so
 * that is the semantics implemented here.
 */
struct Mismatch
{
    double s0 = 0.0; ///< Absolute standard deviation.
    double s1 = 0.0; ///< Relative standard-deviation coefficient.

    bool operator==(const Mismatch &) const = default;
};

/** Discriminates DataType alternatives. */
enum class TypeKind : std::uint8_t { Real, Int, Function };

/**
 * A SigT: bounded real (with optional mismatch), bounded int, or
 * lambda type, plus the SigTProg constness flag.
 */
class DataType
{
  public:
    /** real[lo, hi]; use +/-infinity for unbounded ends. */
    static DataType real(double lo, double hi);

    /** real[lo, hi] mm(s0, s1). */
    static DataType realMm(double lo, double hi, Mismatch mm);

    /** int[lo, hi]. */
    static DataType integer(std::int64_t lo, std::int64_t hi);

    /** lambd(params...). */
    static DataType function(std::vector<std::string> params);

    TypeKind kind() const { return kind_; }
    bool isReal() const { return kind_ == TypeKind::Real; }
    bool isInt() const { return kind_ == TypeKind::Int; }
    bool isFunction() const { return kind_ == TypeKind::Function; }

    double realLo() const { return realLo_; }
    double realHi() const { return realHi_; }
    std::int64_t intLo() const { return intLo_; }
    std::int64_t intHi() const { return intHi_; }
    const std::vector<std::string> &params() const { return params_; }
    int arity() const { return static_cast<int>(params_.size()); }

    const std::optional<Mismatch> &mismatch() const { return mismatch_; }
    bool hasMismatch() const { return mismatch_.has_value(); }

    bool isConst() const { return const_; }
    /** Returns a copy with the const flag set. */
    DataType asConst() const;

    /**
     * True if `v` belongs to this type: numeric widening of Int
     * literals into Real types is allowed; Real values never narrow to
     * Int; lambdas must match the declared arity; numerics must lie
     * within the declared range.
     */
    bool contains(const expr::Value &v) const;

    /**
     * Inheritance compatibility (paper §4.1.1): same kind and a value
     * range contained in the parent's range. Lambda types must agree
     * on arity. Mismatch annotations may differ (that is the point of
     * hardware extensions).
     */
    bool narrowerOrEqual(const DataType &parent) const;

    /** Source-like rendering, e.g.\ "real[0,inf] mm(0,0.1)". */
    std::string str() const;

    bool operator==(const DataType &other) const;

  private:
    TypeKind kind_ = TypeKind::Real;
    double realLo_ = 0.0;
    double realHi_ = 0.0;
    std::int64_t intLo_ = 0;
    std::int64_t intHi_ = 0;
    std::vector<std::string> params_;
    std::optional<Mismatch> mismatch_;
    bool const_ = false;
};

} // namespace ark::dg

#endif // ARK_DG_DATATYPE_H
