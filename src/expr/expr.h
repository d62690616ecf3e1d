#ifndef ARK_EXPR_EXPR_H
#define ARK_EXPR_EXPR_H

/**
 * @file
 * Immutable, hash-consed expression IR for Ark math and boolean
 * expressions.
 *
 * Expressions appear in production rules (node dynamics terms), in
 * lambda attribute bodies, and in set-switch conditions. Nodes are
 * immutable and shared; rewriting (variable substitution, node-variable
 * resolution, lambda inlining) builds new trees.
 *
 * Grammar coverage (Figure 6): literals, variables v, simulation time,
 * attribute references v.v', unary/binary math, comparisons, logical
 * and/or/not, if-then-else, calls to builtin functions and to
 * lambda-valued variables/attributes, and var(n) node-state references.
 * StateVar is a post-compilation form: an index into the flattened
 * simulation state vector. Param is the compiler's template form of a
 * parameter: an index into a per-instance value table that binding
 * fills in (compiler/compiler.h).
 *
 * ## Hash-consing
 *
 * Every factory interns the node it would build in a process-wide
 * table keyed by a memoized 128-bit structural digest, so
 * **structurally equal live subtrees are one pointer**. That single
 * invariant is what the layers above build on:
 *
 *  - structural equality is pointer equality (`equals()` keeps a deep
 *    fallback for robustness, but live interned nodes never need it);
 *  - cross-equation CSE in expr::FusedTape's value numbering becomes
 *    a pointer-keyed memo hit instead of a structural re-hash;
 *  - `engine::Hasher::absorb(Expr)` is O(1): it absorbs the memoized
 *    digest instead of re-walking the tree, so graph fingerprints stop
 *    paying a full serialization per compile;
 *  - `id()` is a process-unique, monotonically assigned node id
 *    (never reused, even after table purges), usable as a memo key
 *    that can't suffer ABA.
 *
 * Interning compares literals **bit-exactly** (`-0.0` and `0.0` are
 * distinct nodes; two NaN literals with equal payloads are the same
 * node), matching the engine's bit-identical cache contracts. The
 * table holds strong references and sweeps entries whose only owner
 * is the table itself when a high-water mark is crossed, so the
 * sharing invariant above always holds for nodes a caller can still
 * reach.
 *
 * ## Rewrite-soundness contract
 *
 * Passes over this IR are staged by rounding behavior:
 *
 *  - **Exact, always-on** (expr/fold.h, run by the compiler on every
 *    lowering): constant folding and field identities (x+0, x*1,
 *    -(-x), literal branch pruning). These never change the IEEE
 *    value of any result and shrink every execution tier.
 *  - **Rounding-changing, opt-in only** (expr/rewrite.h): the
 *    RoundingMode::Reassoc reassociation/reciprocal rewrites and the
 *    FMA contraction of RoundingMode::Fma, selected by
 *    sim::SimOptions::rounding or the ARK_ROUNDING override. They
 *    stay within tolerance but are not bit-identical to the tree.
 *    Never applied under the default Exact mode; lane-vs-scalar bit
 *    identity still holds in every mode because every tier executes
 *    the same program.
 *
 * Factories themselves never simplify (`(0 * x)` prints as written —
 * parser and golden tests rely on source-shaped trees); all rewriting
 * lives in the passes.
 */

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "expr/value.h"

namespace ark::expr {

/** Binary operators (math, comparison, logical). */
enum class BinOp : std::uint8_t {
    Add, Sub, Mul, Div, Pow,
    Lt, Le, Gt, Ge, Eq, Ne,
    And, Or,
};

/** Unary operators. */
enum class UnOp : std::uint8_t { Neg, Not };

/** Operator spellings ("+", "<=", "and", ...). */
const char *binOpName(BinOp op);
const char *unOpName(UnOp op);

/** True for Lt..Ne. */
bool isComparison(BinOp op);
/** True for And/Or. */
bool isLogical(BinOp op);
/** True for Add..Pow. */
bool isArithmetic(BinOp op);

/** Discriminates Expr alternatives. */
enum class ExprKind : std::uint8_t {
    Literal,  ///< A Value constant.
    Var,      ///< Named variable (function arg or rule binding).
    Attr,     ///< base.attr reference.
    Time,     ///< Simulation time.
    Unary,    ///< UnOp applied to one operand.
    Binary,   ///< BinOp applied to two operands.
    Call,     ///< Builtin or lambda call.
    If,       ///< if b then e else e'.
    NodeVar,  ///< var(n): state variable of a graph node, by name.
    StateVar, ///< Resolved state-vector slot (post-compilation).
    Param,    ///< Parameter-vector slot (compiler templates).
};

class Expr;
using ExprPtr = std::shared_ptr<const Expr>;

/**
 * One interned expression node. Construct through the static
 * factories (each returns the canonical node for its structure);
 * fields not applicable to the node's kind are empty/zero.
 */
class Expr : public std::enable_shared_from_this<Expr>
{
  public:
    static ExprPtr literal(Value v);
    static ExprPtr real(double v);
    static ExprPtr integer(std::int64_t v);
    static ExprPtr boolean(bool v);
    static ExprPtr var(std::string name);
    static ExprPtr attr(std::string base, std::string name);
    static ExprPtr time();
    static ExprPtr unary(UnOp op, ExprPtr operand);
    static ExprPtr binary(BinOp op, ExprPtr lhs, ExprPtr rhs);
    /** Call of a builtin by name. */
    static ExprPtr call(std::string callee, std::vector<ExprPtr> args);
    /** Call of a lambda-valued expression (variable or attribute). */
    static ExprPtr callExpr(ExprPtr callee, std::vector<ExprPtr> args);
    static ExprPtr ifThenElse(ExprPtr cond, ExprPtr then, ExprPtr other);
    static ExprPtr nodeVar(std::string node);
    static ExprPtr stateVar(int index);
    static ExprPtr param(int index);

    ExprKind kind() const { return kind_; }

    /**
     * Process-unique node id, assigned monotonically at intern time
     * and never reused (table purges retire ids permanently). Two
     * live nodes have equal ids iff they are the same pointer, so ids
     * are safe memo/cache keys.
     */
    std::uint64_t id() const { return id_; }

    /** @name Memoized 128-bit structural digest.
     * Computed bottom-up at intern time (O(1) per node — children are
     * already interned). Equal digests ⇔ equal structure with
     * bit-exact literals; engine fingerprints absorb these words
     * instead of re-walking the tree.
     */
    /// @{
    std::uint64_t digestHi() const { return digestHi_; }
    std::uint64_t digestLo() const { return digestLo_; }
    /// @}

    /** @name Kind-specific accessors (panic on kind mismatch). */
    /// @{
    const Value &literalValue() const;
    const std::string &varName() const;
    const std::string &attrBase() const;
    const std::string &attrName() const;
    UnOp unOp() const;
    BinOp binOp() const;
    const ExprPtr &lhs() const;
    const ExprPtr &rhs() const;
    const ExprPtr &operand() const;
    const std::string &callee() const;
    const ExprPtr &calleeExpr() const;
    const std::vector<ExprPtr> &args() const;
    const ExprPtr &cond() const;
    const ExprPtr &thenBranch() const;
    const ExprPtr &elseBranch() const;
    const std::string &nodeName() const;
    int stateIndex() const;
    int paramIndex() const;
    /// @}

    /** Parenthesized source-like rendering. */
    std::string str() const;

    /**
     * Structural equality with bit-exact literals. Live interned
     * nodes make this pointer equality; the deep walk remains as a
     * documented fallback.
     */
    bool equals(const Expr &other) const;

    /** Applies fn to every node in the tree (preorder). */
    void visit(const std::function<void(const Expr &)> &fn) const;

    /** Lists free variable names (Var nodes), deduplicated. */
    std::vector<std::string> freeVars() const;

    /** Lists node names referenced via var(.), deduplicated. */
    std::vector<std::string> nodeVars() const;

  protected:
    Expr() = default;

  private:
    /** Shared intern path for the two Call factory forms. */
    static ExprPtr internCall(std::string callee, ExprPtr calleeExpr,
                              std::vector<ExprPtr> args);

    /** Stamps intern-time identity onto a freshly built node. */
    static void stamp(Expr &e, std::uint64_t id, std::uint64_t hi,
                      std::uint64_t lo)
    {
        e.id_ = id;
        e.digestHi_ = hi;
        e.digestLo_ = lo;
    }

    ExprKind kind_ = ExprKind::Literal;
    Value value_;
    std::string name_;       // Var name, Attr base, Call builtin, NodeVar
    std::string attr_;       // Attr attribute name
    UnOp unOp_ = UnOp::Neg;
    BinOp binOp_ = BinOp::Add;
    ExprPtr a_, b_, c_;      // operands / cond-then-else
    ExprPtr calleeExpr_;
    std::vector<ExprPtr> args_;
    int index_ = -1;         // StateVar / Param slot
    std::uint64_t id_ = 0;
    std::uint64_t digestHi_ = 0;
    std::uint64_t digestLo_ = 0;
};

/** @name Intern-table introspection (arkc --ir-stats, tests). */
/// @{

/** Counters of the process-wide intern table. */
struct InternStats
{
    std::uint64_t liveNodes = 0;   ///< Entries currently in the table.
    std::uint64_t internedTotal = 0; ///< Nodes ever interned (= max id).
    std::uint64_t hits = 0;        ///< Factory calls answered by an
                                   ///< existing node.
    std::uint64_t purged = 0;      ///< Entries swept at high-water marks.
};

/** Snapshot of the intern-table counters. */
InternStats internStats();

/**
 * Sweeps table entries whose only remaining owner is the table
 * itself (normally triggered automatically at a high-water mark).
 * Returns the number of entries dropped. Nodes still reachable by
 * callers always survive, preserving the one-pointer invariant.
 */
std::size_t internPurge();

/// @}

/** @name Rewriting
 * Each returns a new tree sharing unmodified subtrees.
 */
/// @{

/** Replaces Var nodes by name. Unmapped variables stay untouched. */
ExprPtr substituteVars(
    const ExprPtr &e,
    const std::function<ExprPtr(const std::string &)> &lookup);

/** Replaces NodeVar nodes by node name. */
ExprPtr substituteNodeVars(
    const ExprPtr &e,
    const std::function<ExprPtr(const std::string &)> &lookup);

/**
 * Replaces Attr nodes via (base, attr) lookup. Returning nullptr keeps
 * the reference unchanged.
 */
ExprPtr substituteAttrs(
    const ExprPtr &e,
    const std::function<ExprPtr(const std::string &, const std::string &)>
        &lookup);

/**
 * Renames the base of attribute references and variables; used when
 * instantiating a production rule for concrete graph elements.
 */
ExprPtr renameBindings(
    const ExprPtr &e,
    const std::function<std::string(const std::string &)> &rename);

/**
 * Beta-reduces a lambda applied to argument expressions.
 * @throws ark::support::TypeError on arity mismatch.
 */
ExprPtr applyLambda(const Lambda &lambda, const std::vector<ExprPtr> &args);

/// @}

} // namespace ark::expr

#endif // ARK_EXPR_EXPR_H
