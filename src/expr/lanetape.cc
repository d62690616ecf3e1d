#include "expr/lanetape.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <cmath>

#include "expr/builtins.h"
#include "expr/fusedtape.h"
#include "support/logging.h"

namespace ark::expr {

namespace {

std::size_t
widthFor(std::size_t lanes)
{
    support::panicIf(lanes == 0 || lanes > LaneTape::kMaxLanes,
                     "LaneTape: lane count out of range");
    if (lanes <= 1)
        return 1;
    if (lanes <= 2)
        return 2;
    if (lanes <= 4)
        return 4;
    return 8;
}

// Each PURE row of ARK_TAPE_OPS as a function of its operands: the
// lane loops evaluate these, and a fused form composes them, so no
// opcode is defined twice.
struct Row
{
#define ARK_LANE_ROW_FN(Name, Arity, Expr)                              \
    static double Name(double A, [[maybe_unused]] double B = 0.0,       \
                       [[maybe_unused]] double C = 0.0)                 \
    {                                                                   \
        return Expr;                                                    \
    }
    ARK_TAPE_OPS(ARK_TAPE_SKIP, ARK_LANE_ROW_FN)
#undef ARK_LANE_ROW_FN
};

} // namespace

bool
LaneTape::compatible(const FusedTape &a, const FusedTape &b)
{
    return a.shape() == b.shape();
}

std::optional<LaneTape>
LaneTape::merge(const std::vector<const FusedTape *> &tapes)
{
    support::panicIf(tapes.empty() || tapes.size() > kMaxLanes,
                     "LaneTape::merge: lane count out of range");
    const FusedTape &leader = *tapes.front();
    for (const FusedTape *tape : tapes) {
        support::panicIf(tape == nullptr, "LaneTape::merge: null tape");
        if (!compatible(leader, *tape))
            return std::nullopt;
    }

    LaneTape lane;
    lane.lanes_ = tapes.size();
    lane.width_ = widthFor(tapes.size());
    lane.numRegs_ = leader.numRegs();
    lane.numOutputs_ = leader.numOutputs();
    lane.ops_ = leader.ops();

    // Lift Const immediates into the per-lane table; padding lanes
    // replicate lane 0 so their arithmetic stays finite.
    std::size_t slots = 0;
    for (const TapeOp &op : lane.ops_)
        if (op.op == OpCode::Const)
            ++slots;
    lane.constants_.resize(slots * lane.width_);
    std::size_t slot = 0;
    for (std::size_t i = 0; i < lane.ops_.size(); ++i) {
        if (lane.ops_[i].op != OpCode::Const)
            continue;
        double *row = lane.constants_.data() + slot * lane.width_;
        for (std::size_t l = 0; l < lane.width_; ++l) {
            const FusedTape &src =
                *tapes[l < lane.lanes_ ? l : 0];
            row[l] = src.ops()[i].imm;
        }
        lane.ops_[i].a = static_cast<std::int32_t>(slot);
        ++slot;
    }
    lane.deriveStream();
    return lane;
}

void
LaneTape::deriveStream()
{
    const auto constRow = static_cast<std::int32_t>(numRegs_);
    stateRow_ = static_cast<std::size_t>(numRegs_) +
                constants_.size() / width_;
    stateRows_ = 0;
    for (const TapeOp &op : ops_)
        if (op.op == OpCode::LoadState)
            stateRows_ = std::max(stateRows_,
                                  static_cast<std::size_t>(op.a) + 1);
    fileRows_ = stateRow_ + stateRows_;

    // rowOf[r]: the file row holding register r's current value. A
    // load only redirects its register; every later read of it, up to
    // the register's next write, reads the loaded row instead.
    std::vector<std::int32_t> rowOf(static_cast<std::size_t>(numRegs_));
    for (std::size_t r = 0; r < rowOf.size(); ++r)
        rowOf[r] = static_cast<std::int32_t>(r);
    auto row = [&rowOf](std::int32_t reg) {
        return reg < 0 ? reg : rowOf[static_cast<std::size_t>(reg)];
    };
    static_assert(static_cast<int>(LaneOp::WriteOutput) ==
                      static_cast<int>(OpCode::WriteOutput),
                  "LaneOp must number the ARK_TAPE_OPS rows as OpCode does");
    stream_.clear();
    stream_.reserve(ops_.size());
    for (const TapeOp &op : ops_) {
        const auto code = static_cast<LaneOp>(op.op);
        switch (op.op) {
          case OpCode::Const:
            rowOf[static_cast<std::size_t>(op.dst)] = constRow + op.a;
            break;
          case OpCode::LoadState:
            rowOf[static_cast<std::size_t>(op.dst)] =
                static_cast<std::int32_t>(stateRow_) + op.a;
            break;
          case OpCode::WriteOutput:
            stream_.push_back(
                {code, op.builtin, true, op.dst, row(op.a), -1, -1, -1});
            break;
          default:
            // Operands are remapped before dst is redirected: an
            // instruction may overwrite the register it reads.
            stream_.push_back({code, op.builtin, false, op.dst, row(op.a),
                               row(op.b), row(op.c), -1});
            rowOf[static_cast<std::size_t>(op.dst)] = op.dst;
            break;
        }
    }
    fuseStream();
}

void
LaneTape::fuseStream()
{
    std::vector<FileOp> &s = stream_;
    const auto n = static_cast<std::int32_t>(s.size());
    auto at = [&s](std::int32_t i) -> FileOp & {
        return s[static_cast<std::size_t>(i)];
    };
    auto operands = [](const FileOp &op) {
        return std::array<std::int32_t, 4>{op.a, op.b, op.c, op.e};
    };
    // writer[x]: the last instruction so far that wrote row x, or -1
    // (constant and state rows are never written). It keeps counting
    // the writes of instructions fused away, which only ever blocks a
    // fusion.
    std::vector<std::int32_t> writer(fileRows_, -1);
    auto lastWriter = [&writer](std::int32_t x) {
        return x < 0 ? -1 : writer[static_cast<std::size_t>(x)];
    };
    auto write = [&](std::int32_t i) {
        if (!at(i).toOutput)
            writer[static_cast<std::size_t>(at(i).dst)] = i;
    };

    // reads[i]: how often instruction i's result is read before its
    // row is written again.
    std::vector<std::int32_t> reads(s.size(), 0);
    for (std::int32_t i = 0; i < n; ++i) {
        for (std::int32_t x : operands(at(i)))
            if (const std::int32_t p = lastWriter(x); p >= 0)
                ++reads[static_cast<std::size_t>(p)];
        write(i);
    }

    // The producer of row x when the current instruction is its only
    // reader, else -1.
    auto soleProducer = [&](std::int32_t x) {
        const std::int32_t p = lastWriter(x);
        return p >= 0 && reads[static_cast<std::size_t>(p)] == 1 ? p : -1;
    };
    // soleProducer(x) when it computes `form` and no instruction since
    // wrote a row it reads (its own write, which fusing removes,
    // aside), so it may run in its reader's place; else -1.
    auto movable = [&](std::int32_t x, LaneOp form) {
        const std::int32_t p = soleProducer(x);
        if (p < 0 || at(p).op != form)
            return -1;
        for (std::int32_t y : operands(at(p)))
            if (lastWriter(y) > p)
                return -1;
        return p;
    };
    std::vector<char> gone(s.size(), 0);
    std::fill(writer.begin(), writer.end(), -1);
    for (std::int32_t q = 0; q < n; ++q) {
        FileOp &op = at(q);
        if (op.op == LaneOp::WriteOutput) {
            // The producer stores the output itself, in its own place,
            // so nothing it reads has changed.
            if (const std::int32_t p = soleProducer(op.a); p >= 0) {
                at(p).toOutput = true;
                at(p).dst = op.dst;
                gone[static_cast<std::size_t>(q)] = 1;
            }
            continue;
        }
        std::int32_t p = -1;
        if (op.op == LaneOp::Div &&
            (p = movable(op.a, LaneOp::Mul)) >= 0) {
            const FileOp &mul = at(p);
            op = {LaneOp::MulDiv, op.builtin, false, op.dst,
                  mul.a,          mul.b,      op.b,  -1};
        } else if (op.op == LaneOp::Add &&
                   (p = movable(op.a, LaneOp::MulDiv)) >= 0) {
            const FileOp &term = at(p);
            op = {LaneOp::MulDivAdd, op.builtin, false,  op.dst,
                  op.b,              term.a,     term.b, term.c};
        } else if (op.op == LaneOp::Add &&
                   (p = movable(op.b, LaneOp::MulDiv)) >= 0) {
            const FileOp &term = at(p);
            op = {LaneOp::AddMulDiv, op.builtin, false,  op.dst,
                  op.a,              term.a,     term.b, term.c};
        }
        if (p >= 0)
            gone[static_cast<std::size_t>(p)] = 1;
        write(q);
    }
    std::size_t kept = 0;
    for (std::size_t i = 0; i < s.size(); ++i)
        if (!gone[i])
            s[kept++] = s[i];
    s.resize(kept);
}

LaneTape
LaneTape::broadcast(const FusedTape &tape, std::size_t lanes)
{
    std::vector<const FusedTape *> same(lanes, &tape);
    std::optional<LaneTape> merged = merge(same);
    // A tape is always structurally compatible with itself.
    support::panicIf(!merged.has_value(),
                     "LaneTape::broadcast: self-merge failed");
    return *std::move(merged);
}

// dst = Expr once per lane over the first Arity operand rows A, B, C
// and E: load every operand lane, compute every lane, then store (see
// the file header). An operand slot the form does not read holds -1,
// so it reads A's row instead and no pointer is formed from -1.
#define ARK_LANE_LOOP(Arity, Expr)                                      \
    {                                                                   \
        const double *pa = row(op.a);                                   \
        const double *pb = Arity > 1 ? row(op.b) : pa;                  \
        const double *pc = Arity > 2 ? row(op.c) : pa;                  \
        const double *pe = Arity > 3 ? row(op.e) : pa;                  \
        double va[W], vb[W], vc[W], ve[W], vd[W];                       \
        for (int l = 0; l < W; ++l) {                                   \
            va[l] = pa[l];                                              \
            vb[l] = pb[l];                                              \
            vc[l] = pc[l];                                              \
            ve[l] = pe[l];                                              \
        }                                                               \
        for (int l = 0; l < W; ++l) {                                   \
            [[maybe_unused]] const double A = va[l], B = vb[l],         \
                                          C = vc[l], E = ve[l];         \
            vd[l] = Expr;                                               \
        }                                                               \
        double *d = dest(op);                                           \
        for (int l = 0; l < W; ++l)                                     \
            d[l] = vd[l];                                               \
        break;                                                          \
    }

// One case per PURE row of the op table, one per fused form, and one
// per row of the builtin table (CallB packs a builtin's operands from
// slot a).
#define ARK_LANE_ROW(Name, Arity, Expr)                                 \
    case LaneOp::Name: ARK_LANE_LOOP(Arity, Row::Name(A, B, C))
#define ARK_LANE_BUILTIN(Id, Name, Arity, Par, CName, Expr)             \
    case Builtin::Id: ARK_LANE_LOOP(Arity, Expr)

template <int W>
void
LaneTape::evalIntoT(const double *state, double t, double *out,
                    double *file) const
{
    // Two block copies refill the constant and state rows; every
    // register row is written before the stream reads it.
    std::copy(constants_.begin(), constants_.end(),
              file + static_cast<std::size_t>(numRegs_) * W);
    std::copy_n(state, stateRows_ * W, file + stateRow_ * W);
    auto row = [file](std::int32_t i) {
        return file + static_cast<std::size_t>(i) * W;
    };
    auto dest = [file, out](const FileOp &op) {
        return (op.toOutput ? out : file) +
               static_cast<std::size_t>(op.dst) * W;
    };
    for (const FileOp &op : stream_) {
        switch (op.op) {
          case LaneOp::WriteOutput: ARK_LANE_LOOP(1, A)
          case LaneOp::LoadTime:
            std::fill_n(dest(op), W, t);
            break;
          case LaneOp::CallB:
            // One builtin dispatch per instruction, then its row's
            // expression once per lane (libm calls stay scalar).
            switch (op.builtin) {
              ARK_BUILTINS(ARK_LANE_BUILTIN)
            }
            break;
          case LaneOp::Const:
          case LaneOp::LoadState:
            break; // never in the stream: deriveStream() folds loads
          ARK_TAPE_OPS(ARK_TAPE_SKIP, ARK_LANE_ROW)
          case LaneOp::MulDiv:
            ARK_LANE_LOOP(3, Row::Div(Row::Mul(A, B), C))
          case LaneOp::AddMulDiv:
            ARK_LANE_LOOP(4, Row::Add(A, Row::Div(Row::Mul(B, C), E)))
          case LaneOp::MulDivAdd:
            ARK_LANE_LOOP(4, Row::Add(Row::Div(Row::Mul(B, C), E), A))
        }
    }
}

#undef ARK_LANE_ROW
#undef ARK_LANE_BUILTIN
#undef ARK_LANE_LOOP

void
LaneTape::evalInto(const double *state, double t, double *out,
                   double *regs) const
{
    assert(out != nullptr || numOutputs_ == 0);
    assert(regs != nullptr || fileRows_ == 0);
    switch (width_) {
      case 1:
        evalIntoT<1>(state, t, out, regs);
        break;
      case 2:
        evalIntoT<2>(state, t, out, regs);
        break;
      case 4:
        evalIntoT<4>(state, t, out, regs);
        break;
      case 8:
        evalIntoT<8>(state, t, out, regs);
        break;
      default:
        support::panic("LaneTape: bad width");
    }
}

} // namespace ark::expr
