#include "expr/lanetape.h"

#include <algorithm>
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
    stream_.clear();
    stream_.reserve(ops_.size());
    for (const TapeOp &op : ops_) {
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
                {op.op, op.builtin, op.dst, row(op.a), -1, -1});
            break;
          default:
            // Operands are remapped before dst is redirected: an
            // instruction may overwrite the register it reads.
            stream_.push_back({op.op, op.builtin, op.dst, row(op.a),
                               row(op.b), row(op.c)});
            rowOf[static_cast<std::size_t>(op.dst)] = op.dst;
            break;
        }
    }
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

// dst = Expr once per lane, reading the first Arity operand rows. An
// operand slot the row does not read holds -1, so it reads A's row
// instead and no pointer is formed from -1.
#define ARK_LANE_LOOP(Arity, Expr)                                      \
    {                                                                   \
        double *d = row(op.dst);                                        \
        const double *a = row(op.a);                                    \
        const double *b = Arity > 1 ? row(op.b) : a;                    \
        const double *c = Arity > 2 ? row(op.c) : a;                    \
        for (int l = 0; l < W; ++l) {                                   \
            [[maybe_unused]] const double A = a[l], B = b[l], C = c[l]; \
            d[l] = Expr;                                                \
        }                                                               \
        break;                                                          \
    }

// One case per PURE row of the op table, and one per row of the
// builtin table (CallB packs a builtin's operands from slot a).
#define ARK_LANE_ROW(Name, Arity, Expr)                                 \
    case OpCode::Name: ARK_LANE_LOOP(Arity, Expr)
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
    using std::fma; // spelled bare in the FusedMulAdd row
    for (const FileOp &op : stream_) {
        switch (op.op) {
          case OpCode::WriteOutput: {
            double *o = out + static_cast<std::size_t>(op.dst) * W;
            const double *s = row(op.a);
            for (int l = 0; l < W; ++l)
                o[l] = s[l];
            break;
          }
          case OpCode::LoadTime: {
            double *d = row(op.dst);
            for (int l = 0; l < W; ++l)
                d[l] = t;
            break;
          }
          case OpCode::CallB:
            // One builtin dispatch per instruction, then its row's
            // expression once per lane (libm calls stay scalar).
            switch (op.builtin) {
              ARK_BUILTINS(ARK_LANE_BUILTIN)
            }
            break;
          case OpCode::Const:
          case OpCode::LoadState:
            break; // never in the stream: deriveStream() folds loads
          ARK_TAPE_OPS(ARK_TAPE_SKIP, ARK_LANE_ROW)
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
