#include "expr/fusedtape.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <limits>
#include <unordered_map>

#include "support/error.h"
#include "support/logging.h"

namespace ark::expr {

using support::cat;
using support::CompileError;

namespace {

// One case per PURE row of the table. An operand slot the row does
// not read holds -1, so it reads A's register instead.
#define ARK_SCALAR_ROW(Name, Arity, Expr)                               \
      case OpCode::Name: {                                              \
        [[maybe_unused]] const double A = r[op.a],                      \
                                      B = r[Arity > 1 ? op.b : op.a],   \
                                      C = r[Arity > 2 ? op.c : op.a];   \
        return Expr;                                                    \
      }

/**
 * Executes one compute instruction against registers `r`, returning
 * the produced value: the scalar oracle and the constant folder.
 * `WriteOutput` is not a compute instruction and must be handled by
 * the caller's loop.
 */
double
execCompute(const TapeOp &op, const double *state, double t,
            const double *r)
{
    switch (op.op) {
      case OpCode::Const:
        return op.imm;
      case OpCode::LoadTime:
        return t;
      case OpCode::LoadState:
        return state[op.a];
      case OpCode::CallB: {
        double argv[3];
        int n = 0;
        for (std::int32_t operand : {op.a, op.b, op.c})
            if (operand >= 0)
                argv[n++] = r[operand];
        return evalBuiltin(op.builtin, argv, n);
      }
      case OpCode::WriteOutput:
        break;
      ARK_TAPE_OPS(ARK_TAPE_SKIP, ARK_SCALAR_ROW)
    }
    support::panic("tape exec: bad opcode");
}

#undef ARK_SCALAR_ROW

/** splitmix64 finalizer: the per-word diffusion step. */
std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/**
 * The shape key: output and register counts, length, and per
 * instruction everything but a Const's immediate (a builtin only
 * where CallB reads it) — exactly what LaneTape::merge needs lanes
 * to share.
 */
TapeShape
shapeOf(const std::vector<TapeOp> &ops, std::size_t outputs, int regs)
{
    std::uint64_t a = 0x9e3779b97f4a7c15ull, b = 0x6a09e667f3bcc909ull;
    auto word = [&a, &b](std::uint64_t x) {
        a = mix64(a ^ x);
        b = mix64(b + std::rotl(x, 29) + 0xff51afd7ed558ccdull);
    };
    auto index = [](std::int32_t i) {
        return static_cast<std::uint64_t>(static_cast<std::uint32_t>(i));
    };
    word(outputs);
    word(index(regs));
    word(ops.size());
    for (const TapeOp &op : ops) {
        word(static_cast<std::uint64_t>(op.op) |
             (op.op == OpCode::CallB
                  ? static_cast<std::uint64_t>(op.builtin) << 8
                  : 0));
        word(index(op.dst));
        if (op.op != OpCode::Const) {
            word(index(op.a));
            word(index(op.b));
            word(index(op.c));
        }
    }
    return TapeShape{mix64(a ^ std::rotl(b, 32)), mix64(b ^ a)};
}

/** Structural identity of an SSA value (operands are value ids). */
struct ValKey
{
    OpCode op;
    Builtin builtin;
    int a, b, c;
    std::uint64_t immBits; ///< Const payload, bit-exact (-0.0 != 0.0).
    int slot;              ///< Template slot of a Const, or -1.

    bool operator==(const ValKey &) const = default;
};

struct ValKeyHash
{
    std::size_t
    operator()(const ValKey &k) const
    {
        std::uint64_t h = 1469598103934665603ull;
        auto mix = [&h](std::uint64_t v) {
            h ^= v;
            h *= 1099511628211ull;
        };
        mix(static_cast<std::uint64_t>(k.op));
        mix(static_cast<std::uint64_t>(k.builtin));
        mix(static_cast<std::uint64_t>(static_cast<std::int64_t>(k.a)));
        mix(static_cast<std::uint64_t>(static_cast<std::int64_t>(k.b)));
        mix(static_cast<std::uint64_t>(static_cast<std::int64_t>(k.c)));
        mix(k.immBits);
        mix(static_cast<std::uint64_t>(static_cast<std::int64_t>(k.slot)));
        return static_cast<std::size_t>(h);
    }
};

OpCode
binOpCode(BinOp op)
{
    switch (op) {
      case BinOp::Add: return OpCode::Add;
      case BinOp::Sub: return OpCode::Sub;
      case BinOp::Mul: return OpCode::Mul;
      case BinOp::Div: return OpCode::Div;
      case BinOp::Lt: return OpCode::Lt;
      case BinOp::Le: return OpCode::Le;
      case BinOp::Gt: return OpCode::Gt;
      case BinOp::Ge: return OpCode::Ge;
      case BinOp::Eq: return OpCode::EqOp;
      case BinOp::Ne: return OpCode::NeOp;
      case BinOp::And: return OpCode::AndOp;
      case BinOp::Or: return OpCode::OrOp;
      case BinOp::Pow:
        break; // lowered to CallB(Pow)
    }
    support::panic("binOpCode: unhandled operator");
}

bool
isCommutative(OpCode op)
{
    return op == OpCode::Add || op == OpCode::Mul ||
           op == OpCode::EqOp || op == OpCode::NeOp ||
           op == OpCode::AndOp || op == OpCode::OrOp;
}

/**
 * Builds the value-numbered SSA graph for all outputs, then schedules
 * it into a register program with liveness-based register reuse.
 */
class Fuser
{
  public:
    /** One SSA value; a/b/c reference earlier value ids. */
    struct Val
    {
        OpCode op;
        Builtin builtin;
        int a, b, c;   ///< Value-id operands (LoadState: a = state slot).
        double imm;
        int slot = -1; ///< Template slot of a Const (imm is a placeholder).
        bool constFree = false; ///< Reads no Const, even through operands.
    };

    explicit Fuser(const std::vector<ExprPtr> &slots)
    {
        for (std::size_t j = 0; j < slots.size(); ++j)
            slotOf_.emplace(slots[j].get(), static_cast<int>(j));
    }

    std::vector<Val> vals;
    std::vector<int> outputVals; ///< Value id producing each output.
    std::size_t hits = 0;        ///< CSE hits + folds + identities.
    int maxStateIndex = -1;

    int
    lower(const ExprPtr &e)
    {
        auto memoIt = memo_.find(e.get());
        if (memoIt != memo_.end()) {
            ++hits;
            return memoIt->second;
        }
        int id = lowerUncached(e);
        memo_.emplace(e.get(), id);
        return id;
    }

  private:
    std::unordered_map<const Expr *, int> memo_;
    std::unordered_map<ValKey, int, ValKeyHash> interned_;
    std::unordered_map<const Expr *, int> slotOf_;

    /** True for a literal Const; a slot's value is unknown here. */
    bool
    isConst(int id, double *value = nullptr) const
    {
        const Val &v = vals[static_cast<std::size_t>(id)];
        if (v.op != OpCode::Const || v.slot >= 0)
            return false;
        if (value)
            *value = v.imm;
        return true;
    }

    /**
     * Interns a value, folding constants and exact identities, then
     * applying the sign and parity identities. A template slot
     * (`slot` >= 0) is a Const keyed by its index alone.
     */
    int
    intern(OpCode op, Builtin builtin, int a, int b, int c, double imm,
           int slot = -1)
    {
        if (isCommutative(op) && a > b)
            std::swap(a, b);

        if (int folded = tryFold(op, builtin, a, b, c); folded >= 0) {
            ++hits;
            return folded;
        }
        if (int canonical = trySign(op, builtin, a, b); canonical >= 0)
            return canonical;

        ValKey key{op, builtin, a, b, c,
                   op == OpCode::Const && slot < 0
                       ? std::bit_cast<std::uint64_t>(imm)
                       : 0,
                   slot};
        auto it = interned_.find(key);
        if (it != interned_.end()) {
            ++hits;
            return it->second;
        }
        bool constFree = op != OpCode::Const;
        if (op != OpCode::LoadTime && op != OpCode::LoadState)
            for (int operand : {a, b, c})
                if (operand >= 0)
                    constFree = constFree && val(operand).constFree;
        int id = static_cast<int>(vals.size());
        vals.push_back(Val{op, builtin, a, b, c, imm, slot, constFree});
        interned_.emplace(key, id);
        return id;
    }

    const Val &val(int id) const
    {
        return vals[static_cast<std::size_t>(id)];
    }

    /** The operand of a Neg value, or -1 for any other value. */
    int
    negated(int id) const
    {
        return val(id).op == OpCode::Neg ? val(id).a : -1;
    }

    /**
     * Returns the id of the value the sign and parity identities (see
     * the file header of fusedtape.h) rewrite the operation to, or -1
     * when none applies. A Neg moves out of every operand it can leave
     * exactly, so a term and its mirror lower to one value and a Neg.
     */
    int
    trySign(OpCode op, Builtin builtin, int a, int b)
    {
        switch (op) {
          case OpCode::Neg:
            return negated(a);
          case OpCode::Add:
            if (int y = negated(b); y >= 0)
                return intern(OpCode::Sub, Builtin::Sin, a, y, -1, 0.0);
            if (int y = negated(a); y >= 0)
                return intern(OpCode::Sub, Builtin::Sin, b, y, -1, 0.0);
            return -1;
          case OpCode::Sub:
            if (int y = negated(b); y >= 0)
                return intern(OpCode::Add, Builtin::Sin, a, y, -1, 0.0);
            return -1;
          case OpCode::Mul:
          case OpCode::Div: {
            int x = negated(a), y = negated(b);
            if (x < 0 && y < 0)
                return -1;
            int plain = intern(op, Builtin::Sin, x >= 0 ? x : a,
                               y >= 0 ? y : b, -1, 0.0);
            return x >= 0 && y >= 0
                       ? plain
                       : intern(OpCode::Neg, Builtin::Sin, plain, -1, -1,
                                0.0);
          }
          case OpCode::CallB:
            break;
          default:
            return -1;
        }
        const Parity parity = builtinInfo(builtin).parity;
        if (parity == Parity::None)
            return -1;
        int x = negated(a);
        if (x < 0) {
            const Val &diff = val(a);
            if (diff.op != OpCode::Sub || diff.a <= diff.b ||
                !val(diff.a).constFree || !val(diff.b).constFree)
                return -1;
            x = intern(OpCode::Sub, Builtin::Sin, diff.b, diff.a, -1, 0.0);
        }
        int call = intern(OpCode::CallB, builtin, x, -1, -1, 0.0);
        return parity == Parity::Odd
                   ? intern(OpCode::Neg, Builtin::Sin, call, -1, -1, 0.0)
                   : call;
    }

    /**
     * Returns the id of a replacement value when the operation folds
     * to a constant or an existing operand, -1 otherwise. Only exact
     * rewrites are applied; x*0 is kept because it differs on
     * non-finite x, and x+0 only rewrites when x's sign of zero
     * cannot be observed (the operand is a non-Const value the
     * interpreter would compute identically).
     */
    int
    tryFold(OpCode op, Builtin builtin, int a, int b, int c)
    {
        switch (op) {
          case OpCode::Const:
          case OpCode::LoadTime:
          case OpCode::LoadState:
          case OpCode::WriteOutput:
            return -1;
          default:
            break;
        }

        // Identity rewrites on one constant operand.
        double cv;
        if (op == OpCode::Add && isConst(b, &cv) && cv == 0.0)
            return a; // x + 0 (or x + -0): exact except -0.0 + 0.0
        if (op == OpCode::Add && isConst(a, &cv) && cv == 0.0)
            return b;
        if (op == OpCode::Sub && isConst(b, &cv) && cv == 0.0 &&
            std::bit_cast<std::uint64_t>(cv) == 0)
            return a; // x - (+0) is exact for every x
        if (op == OpCode::Mul && isConst(b, &cv) && cv == 1.0)
            return a;
        if (op == OpCode::Mul && isConst(a, &cv) && cv == 1.0)
            return b;
        if (op == OpCode::Div && isConst(b, &cv) && cv == 1.0)
            return a;

        // Full constant folding: every operand is a literal.
        double operands[3];
        TapeOp probe{op, builtin, 0, -1, -1, -1, 0.0};
        int n = 0;
        for (int src : {a, b, c}) {
            if (src < 0)
                continue;
            if (!isConst(src, &operands[n]))
                return -1;
            ++n;
        }
        if (n > 0)
            probe.a = 0;
        if (n > 1)
            probe.b = 1;
        if (n > 2)
            probe.c = 2;
        // Select reads (a, b, c) positionally rather than packed.
        if (op == OpCode::Select)
            probe = TapeOp{op, builtin, 0, 0, 1, 2, 0.0};
        double value = execCompute(probe, nullptr, 0.0, operands);
        return intern(OpCode::Const, Builtin::Sin, -1, -1, -1, value);
    }

    int
    lowerUncached(const ExprPtr &e)
    {
        if (auto slot = slotOf_.find(e.get()); slot != slotOf_.end())
            return intern(OpCode::Const, Builtin::Sin, -1, -1, -1,
                          std::numeric_limits<double>::quiet_NaN(),
                          slot->second);
        switch (e->kind()) {
          case ExprKind::Literal: {
            const Value &v = e->literalValue();
            double imm;
            if (v.isBool())
                imm = v.asBool() ? 1.0 : 0.0;
            else
                imm = v.asReal(); // throws TypeError for lambdas
            return intern(OpCode::Const, Builtin::Sin, -1, -1, -1, imm);
          }
          case ExprKind::Time:
            return intern(OpCode::LoadTime, Builtin::Sin, -1, -1, -1,
                          0.0);
          case ExprKind::StateVar:
            maxStateIndex = std::max(maxStateIndex, e->stateIndex());
            return intern(OpCode::LoadState, Builtin::Sin,
                          e->stateIndex(), -1, -1, 0.0);
          case ExprKind::Unary: {
            int a = lower(e->operand());
            OpCode op = e->unOp() == UnOp::Neg ? OpCode::Neg
                                               : OpCode::NotOp;
            return intern(op, Builtin::Sin, a, -1, -1, 0.0);
          }
          case ExprKind::Binary: {
            int a = lower(e->lhs());
            int b = lower(e->rhs());
            if (e->binOp() == BinOp::Pow)
                return intern(OpCode::CallB, Builtin::Pow, a, b, -1,
                              0.0);
            return intern(binOpCode(e->binOp()), Builtin::Sin, a, b, -1,
                          0.0);
          }
          case ExprKind::Call: {
            if (e->calleeExpr()) {
                throw CompileError(
                    cat("cannot compile unresolved lambda call ",
                        e->str(), " to a tape"));
            }
            const BuiltinInfo *info = findBuiltin(e->callee());
            if (!info) {
                throw CompileError(
                    cat("cannot compile unknown function '", e->callee(),
                        "' to a tape"));
            }
            if (static_cast<int>(e->args().size()) != info->arity) {
                throw CompileError(
                    cat("function '", e->callee(),
                        "' arity mismatch in tape compile"));
            }
            int ids[3] = {-1, -1, -1};
            for (std::size_t i = 0; i < e->args().size(); ++i)
                ids[i] = lower(e->args()[i]);
            return intern(OpCode::CallB, info->id, ids[0], ids[1],
                          ids[2], 0.0);
          }
          case ExprKind::If: {
            int c = lower(e->cond());
            int a = lower(e->thenBranch());
            int b = lower(e->elseBranch());
            return intern(OpCode::Select, Builtin::Sin, a, b, c, 0.0);
          }
          case ExprKind::Var:
            throw CompileError(cat("cannot compile free variable '",
                                   e->varName(), "' to a tape"));
          case ExprKind::Attr:
            throw CompileError(cat("cannot compile unresolved attribute '",
                                   e->attrBase(), ".", e->attrName(),
                                   "' to a tape"));
          case ExprKind::NodeVar:
            throw CompileError(cat("cannot compile unresolved var(",
                                   e->nodeName(), ") to a tape"));
          case ExprKind::Param:
            throw CompileError(cat("cannot compile unbound parameter ",
                                   e->str(), " to a tape"));
        }
        throw CompileError("unreachable expression kind in tape compile");
    }
};

} // namespace

FusedTape
FusedTape::compile(const std::vector<ExprPtr> &outputs,
                   const std::vector<ExprPtr> &slots)
{
    Fuser fuser(slots);
    fuser.outputVals.reserve(outputs.size());
    for (const ExprPtr &e : outputs)
        fuser.outputVals.push_back(fuser.lower(e));

    const auto numVals = fuser.vals.size();

    // Reachability: folding can orphan already-interned operand values;
    // only live values get scheduled.
    std::vector<char> live(numVals, 0);
    {
        std::vector<int> stack(fuser.outputVals.begin(),
                               fuser.outputVals.end());
        while (!stack.empty()) {
            int id = stack.back();
            stack.pop_back();
            auto idx = static_cast<std::size_t>(id);
            if (live[idx])
                continue;
            live[idx] = 1;
            const Fuser::Val &v = fuser.vals[idx];
            if (v.op == OpCode::Const || v.op == OpCode::LoadTime ||
                v.op == OpCode::LoadState)
                continue;
            for (int operand : {v.a, v.b, v.c})
                if (operand >= 0)
                    stack.push_back(operand);
        }
    }

    // Schedule: values in dependency (id) order; each output is
    // written as soon as its value is computed, so its register can be
    // retired immediately when nothing else reads it.
    std::vector<std::vector<int>> outputsOfVal(numVals);
    for (std::size_t k = 0; k < fuser.outputVals.size(); ++k) {
        outputsOfVal[static_cast<std::size_t>(fuser.outputVals[k])]
            .push_back(static_cast<int>(k));
    }

    // Scheduled program with value ids still in the operand slots.
    std::vector<TapeOp> scheduled;
    scheduled.reserve(numVals + fuser.outputVals.size());
    for (std::size_t id = 0; id < numVals; ++id) {
        if (!live[id])
            continue;
        const Fuser::Val &v = fuser.vals[id];
        scheduled.push_back(TapeOp{v.op, v.builtin,
                                   static_cast<std::int32_t>(id), v.a,
                                   v.b, v.c, v.imm});
        for (int slot : outputsOfVal[id]) {
            scheduled.push_back(TapeOp{OpCode::WriteOutput, Builtin::Sin,
                                       slot, static_cast<std::int32_t>(id),
                                       -1, -1, 0.0});
        }
    }

    // Liveness: last instruction index reading each value.
    std::vector<std::ptrdiff_t> lastUse(numVals, -1);
    for (std::size_t i = 0; i < scheduled.size(); ++i) {
        const TapeOp &op = scheduled[i];
        bool loads = op.op == OpCode::Const || op.op == OpCode::LoadTime ||
                     op.op == OpCode::LoadState;
        if (op.op == OpCode::WriteOutput) {
            lastUse[static_cast<std::size_t>(op.a)] =
                static_cast<std::ptrdiff_t>(i);
        } else if (!loads) {
            for (std::int32_t operand : {op.a, op.b, op.c})
                if (operand >= 0)
                    lastUse[static_cast<std::size_t>(operand)] =
                        static_cast<std::ptrdiff_t>(i);
        }
    }

    // Linear-scan register allocation over the schedule.
    FusedTape fused;
    fused.numOutputs_ = outputs.size();
    fused.maxStateIndex_ = fuser.maxStateIndex;
    fused.ops_.reserve(scheduled.size());
    fused.slotRows_.assign(slots.size(), -1);
    std::vector<int> regOfVal(numVals, -1);
    // FIFO recycling: freed registers go to the back of the queue and
    // the oldest free register is reused first. LIFO reuse puts the
    // same few registers back-to-back in consecutive instructions,
    // manufacturing false dependencies that serialize the evaluation
    // loop on out-of-order cores; FIFO maximizes reuse distance at
    // identical register count.
    std::vector<int> freeRegs;
    std::size_t freeHead = 0;
    int nextReg = 0;

    auto release = [&](std::int32_t valId, std::size_t pos) {
        if (valId >= 0 &&
            lastUse[static_cast<std::size_t>(valId)] ==
                static_cast<std::ptrdiff_t>(pos))
            freeRegs.push_back(regOfVal[static_cast<std::size_t>(valId)]);
    };

    for (std::size_t i = 0; i < scheduled.size(); ++i) {
        TapeOp op = scheduled[i];
        if (op.op == OpCode::WriteOutput) {
            std::int32_t srcVal = op.a;
            op.a = regOfVal[static_cast<std::size_t>(srcVal)];
            release(srcVal, i);
            fused.ops_.push_back(op);
            continue;
        }
        std::int32_t dstVal = op.dst;
        bool loads = op.op == OpCode::Const || op.op == OpCode::LoadTime ||
                     op.op == OpCode::LoadState;
        if (!loads) {
            std::int32_t va = op.a, vb = op.b, vc = op.c;
            if (va >= 0)
                op.a = regOfVal[static_cast<std::size_t>(va)];
            if (vb >= 0)
                op.b = regOfVal[static_cast<std::size_t>(vb)];
            if (vc >= 0)
                op.c = regOfVal[static_cast<std::size_t>(vc)];
            // Free operand registers first so the destination can
            // reuse one in place (execCompute reads before the write).
            release(va, i);
            if (vb != va)
                release(vb, i);
            if (vc != va && vc != vb)
                release(vc, i);
        }
        int reg;
        if (freeHead < freeRegs.size()) {
            reg = freeRegs[freeHead++];
        } else {
            reg = nextReg++;
        }
        regOfVal[static_cast<std::size_t>(dstVal)] = reg;
        op.dst = reg;
        if (int slot = fuser.vals[static_cast<std::size_t>(dstVal)].slot;
            slot >= 0)
            fused.slotRows_[static_cast<std::size_t>(slot)] =
                static_cast<std::int32_t>(fused.ops_.size());
        // A value nothing reads (an output written and retired by the
        // WriteOutput that follows) keeps its register until then.
        fused.ops_.push_back(op);
        if (lastUse[static_cast<std::size_t>(dstVal)] < 0)
            freeRegs.push_back(reg);
    }
    fused.numRegs_ = nextReg;
    fused.fusionSavings_ = fuser.hits;
    fused.shape_ = shapeOf(fused.ops_, fused.numOutputs_, fused.numRegs_);
    return fused;
}

FusedTape
FusedTape::bind(const std::vector<double> &values) const
{
    support::panicIf(values.size() != slotRows_.size(),
                     "FusedTape::bind: one value per slot expected");
    FusedTape bound = *this;
    for (std::size_t j = 0; j < values.size(); ++j)
        if (slotRows_[j] >= 0)
            bound.ops_[static_cast<std::size_t>(slotRows_[j])].imm =
                values[j];
    return bound;
}

void
FusedTape::evalInto(const double *state, double t, double *out,
                    double *regs) const
{
    assert(out != nullptr || numOutputs_ == 0);
    assert(regs != nullptr || numRegs_ == 0);
    for (const TapeOp &op : ops_) {
        if (op.op == OpCode::WriteOutput) {
            out[op.dst] = regs[op.a];
            continue;
        }
        regs[op.dst] = execCompute(op, state, t, regs);
    }
}

std::vector<double>
FusedTape::evalAlloc(const std::vector<double> &state, double t) const
{
    std::vector<double> out(numOutputs_);
    std::vector<double> regs(static_cast<std::size_t>(numRegs_));
    evalInto(state.data(), t, out.data(), regs.data());
    return out;
}

} // namespace ark::expr
