#include "expr/expr.h"

#include <algorithm>
#include <bit>
#include <mutex>
#include <unordered_map>
#include <unordered_set>

#include "support/error.h"
#include "support/logging.h"
#include "support/strings.h"
#include "support/telemetry.h"

namespace ark::expr {

using support::cat;
using support::panicIf;
using support::TypeError;

const char *
binOpName(BinOp op)
{
    switch (op) {
      case BinOp::Add: return "+";
      case BinOp::Sub: return "-";
      case BinOp::Mul: return "*";
      case BinOp::Div: return "/";
      case BinOp::Pow: return "^";
      case BinOp::Lt: return "<";
      case BinOp::Le: return "<=";
      case BinOp::Gt: return ">";
      case BinOp::Ge: return ">=";
      case BinOp::Eq: return "==";
      case BinOp::Ne: return "!=";
      case BinOp::And: return "and";
      case BinOp::Or: return "or";
    }
    return "?";
}

const char *
unOpName(UnOp op)
{
    switch (op) {
      case UnOp::Neg: return "-";
      case UnOp::Not: return "not";
    }
    return "?";
}

bool
isComparison(BinOp op)
{
    return op >= BinOp::Lt && op <= BinOp::Ne;
}

bool
isLogical(BinOp op)
{
    return op == BinOp::And || op == BinOp::Or;
}

bool
isArithmetic(BinOp op)
{
    return op >= BinOp::Add && op <= BinOp::Pow;
}

namespace {

std::shared_ptr<Expr>
makeNode()
{
    // Expr's constructor is private; this helper is a friend by way of
    // being inside the class's own translation unit using a derived
    // accessor trick kept simple: allocate via new.
    struct Access : Expr {};
    return std::make_shared<Access>();
}

/** splitmix64 finalizer (same diffusion step the engine hasher uses). */
std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/**
 * Incremental 128-bit digest accumulator for intern keys. Children
 * contribute their memoized digests, so absorbing a node is O(size of
 * its immediate fields), not O(subtree).
 */
struct Digester
{
    std::uint64_t a = 0x9e3779b97f4a7c15ull;
    std::uint64_t b = 0x6a09e667f3bcc909ull;

    void word(std::uint64_t x)
    {
        a = mix64(a ^ x);
        b = mix64(b + std::rotl(x, 29) + 0xff51afd7ed558ccdull);
    }

    void str(const std::string &s)
    {
        word(s.size());
        std::uint64_t w = 0;
        int inWord = 0;
        for (unsigned char c : s) {
            w = (w << 8) | c;
            if (++inWord == 8) {
                word(w);
                w = 0;
                inWord = 0;
            }
        }
        if (inWord > 0)
            word(w);
    }

    void child(const ExprPtr &e)
    {
        word(e->digestHi());
        word(e->digestLo());
    }

    void value(const Value &v)
    {
        word(static_cast<std::uint64_t>(v.kind()));
        switch (v.kind()) {
          case ValueKind::Real:
            // Bit-exact: -0.0 != 0.0, NaN payloads distinguish.
            word(std::bit_cast<std::uint64_t>(v.asReal()));
            break;
          case ValueKind::Int:
            word(static_cast<std::uint64_t>(v.asInt()));
            break;
          case ValueKind::Bool:
            word(v.asBool() ? 1 : 2);
            break;
          case ValueKind::Function: {
            const Lambda &fn = v.asFunction();
            word(fn.params.size());
            for (const std::string &p : fn.params)
                str(p);
            panicIf(!fn.body, "intern: lambda without body");
            child(fn.body);
            break;
          }
        }
    }

    std::pair<std::uint64_t, std::uint64_t> finish() const
    {
        return {mix64(a ^ std::rotl(b, 32)), mix64(b ^ a)};
    }
};

/**
 * Bit-exact literal equality for interning. Value::operator== is the
 * wrong relation here: it treats -0.0 == 0.0 and NaN != NaN, either
 * of which would break the "equal digest ⇒ one pointer" invariant.
 * Lambda bodies are themselves interned, so pointer comparison is
 * exact for them.
 */
bool
literalEq(const Value &x, const Value &y)
{
    if (x.kind() != y.kind())
        return false;
    switch (x.kind()) {
      case ValueKind::Real:
        return std::bit_cast<std::uint64_t>(x.asReal()) ==
               std::bit_cast<std::uint64_t>(y.asReal());
      case ValueKind::Int:
        return x.asInt() == y.asInt();
      case ValueKind::Bool:
        return x.asBool() == y.asBool();
      case ValueKind::Function: {
        const Lambda &fx = x.asFunction();
        const Lambda &fy = y.asFunction();
        return fx.params == fy.params && fx.body == fy.body;
      }
    }
    return false;
}

struct InternKey
{
    std::uint64_t hi = 0;
    std::uint64_t lo = 0;
    bool operator==(const InternKey &) const = default;
};

struct InternKeyHash
{
    std::size_t operator()(const InternKey &k) const
    {
        return static_cast<std::size_t>(
            k.hi ^ (k.lo * 0x9e3779b97f4a7c15ull));
    }
};

/**
 * The process-wide intern table. Digest-keyed buckets hold short
 * chains (a chain longer than one means a 128-bit collision — the
 * shallow verification below keeps even that case correct). Entries
 * are strong references; crossing the high-water mark sweeps nodes
 * whose only owner is the table, cascading so dead subtrees drain
 * fully. A single mutex guards everything: interning sits on the
 * compile path, not the integration hot loop.
 */
class InternTable
{
  public:
    static InternTable &instance()
    {
        static InternTable table;
        return table;
    }

    /**
     * `verify(e)` is the shallow structural check against a chain
     * entry; `build(id)` constructs and fully stamps a new node
     * (the build lambdas live inside Expr's factories, which is what
     * grants them access to the private fields).
     */
    template <typename Verify, typename Build>
    ExprPtr intern(std::uint64_t hi, std::uint64_t lo,
                   const Verify &verify, const Build &build)
    {
        static telemetry::Counter &internHits =
            telemetry::Registry::shared().counter(
                "ark.compile.intern_hits");
        static telemetry::Counter &internNodes =
            telemetry::Registry::shared().counter(
                "ark.compile.intern_nodes");

        std::lock_guard<std::mutex> lock(mu_);
        auto [it, inserted] =
            map_.try_emplace(InternKey{hi, lo});
        if (!inserted) {
            for (const ExprPtr &e : it->second) {
                if (verify(*e)) {
                    ++hits_;
                    internHits.add();
                    return e;
                }
            }
        }
        ExprPtr canonical = build(nextId_++);
        it->second.push_back(canonical);
        ++liveEntries_;
        internNodes.add();
        if (liveEntries_ >= purgeThreshold_)
            purgeLocked();
        return canonical;
    }

    InternStats stats()
    {
        std::lock_guard<std::mutex> lock(mu_);
        InternStats out;
        out.liveNodes = liveEntries_;
        out.internedTotal = nextId_ - 1;
        out.hits = hits_;
        out.purged = purged_;
        return out;
    }

    std::size_t purge()
    {
        std::lock_guard<std::mutex> lock(mu_);
        return purgeLocked();
    }

  private:
    /** Sweeps table-only entries to a fixpoint (parents release their
     *  children's table refs as they drop, so one pass isn't enough). */
    std::size_t purgeLocked()
    {
        std::size_t dropped = 0;
        std::size_t droppedThisRound;
        do {
            droppedThisRound = 0;
            for (auto it = map_.begin(); it != map_.end();) {
                auto &chain = it->second;
                std::erase_if(chain, [&](const ExprPtr &e) {
                    if (e.use_count() == 1) {
                        ++droppedThisRound;
                        return true;
                    }
                    return false;
                });
                if (chain.empty())
                    it = map_.erase(it);
                else
                    ++it;
            }
            dropped += droppedThisRound;
        } while (droppedThisRound > 0);
        liveEntries_ -= dropped;
        purged_ += dropped;
        purgeThreshold_ =
            std::max<std::size_t>(kMinPurgeThreshold, liveEntries_ * 2);
        return dropped;
    }

    static constexpr std::size_t kMinPurgeThreshold = 1u << 17;

    std::mutex mu_;
    std::unordered_map<InternKey, std::vector<ExprPtr>, InternKeyHash>
        map_;
    std::uint64_t nextId_ = 1;
    std::uint64_t hits_ = 0;
    std::uint64_t purged_ = 0;
    std::size_t liveEntries_ = 0;
    std::size_t purgeThreshold_ = kMinPurgeThreshold;
};

/** Digest seed per kind; every node digest starts with its kind tag. */
Digester
kindDigester(ExprKind kind)
{
    Digester d;
    d.word(static_cast<std::uint64_t>(kind));
    return d;
}

} // namespace

InternStats
internStats()
{
    return InternTable::instance().stats();
}

std::size_t
internPurge()
{
    return InternTable::instance().purge();
}

ExprPtr
Expr::literal(Value v)
{
    Digester d = kindDigester(ExprKind::Literal);
    d.value(v);
    auto [hi, lo] = d.finish();
    return InternTable::instance().intern(
        hi, lo,
        [&](const Expr &e) {
            return e.kind_ == ExprKind::Literal &&
                   literalEq(e.value_, v);
        },
        [&](std::uint64_t id) {
            auto n = makeNode();
            n->kind_ = ExprKind::Literal;
            n->value_ = std::move(v);
            stamp(*n, id, hi, lo);
            return n;
        });
}

ExprPtr
Expr::real(double v)
{
    return literal(Value::real(v));
}

ExprPtr
Expr::integer(std::int64_t v)
{
    return literal(Value::integer(v));
}

ExprPtr
Expr::boolean(bool v)
{
    return literal(Value::boolean(v));
}

ExprPtr
Expr::var(std::string name)
{
    Digester d = kindDigester(ExprKind::Var);
    d.str(name);
    auto [hi, lo] = d.finish();
    return InternTable::instance().intern(
        hi, lo,
        [&](const Expr &e) {
            return e.kind_ == ExprKind::Var && e.name_ == name;
        },
        [&](std::uint64_t id) {
            auto n = makeNode();
            n->kind_ = ExprKind::Var;
            n->name_ = std::move(name);
            stamp(*n, id, hi, lo);
            return n;
        });
}

ExprPtr
Expr::attr(std::string base, std::string name)
{
    Digester d = kindDigester(ExprKind::Attr);
    d.str(base);
    d.str(name);
    auto [hi, lo] = d.finish();
    return InternTable::instance().intern(
        hi, lo,
        [&](const Expr &e) {
            return e.kind_ == ExprKind::Attr && e.name_ == base &&
                   e.attr_ == name;
        },
        [&](std::uint64_t id) {
            auto n = makeNode();
            n->kind_ = ExprKind::Attr;
            n->name_ = std::move(base);
            n->attr_ = std::move(name);
            stamp(*n, id, hi, lo);
            return n;
        });
}

ExprPtr
Expr::time()
{
    auto [hi, lo] = kindDigester(ExprKind::Time).finish();
    return InternTable::instance().intern(
        hi, lo,
        [&](const Expr &e) { return e.kind_ == ExprKind::Time; },
        [&](std::uint64_t id) {
            auto n = makeNode();
            n->kind_ = ExprKind::Time;
            stamp(*n, id, hi, lo);
            return n;
        });
}

ExprPtr
Expr::unary(UnOp op, ExprPtr operand)
{
    panicIf(!operand, "unary with null operand");
    Digester d = kindDigester(ExprKind::Unary);
    d.word(static_cast<std::uint64_t>(op));
    d.child(operand);
    auto [hi, lo] = d.finish();
    return InternTable::instance().intern(
        hi, lo,
        [&](const Expr &e) {
            return e.kind_ == ExprKind::Unary && e.unOp_ == op &&
                   e.a_ == operand;
        },
        [&](std::uint64_t id) {
            auto n = makeNode();
            n->kind_ = ExprKind::Unary;
            n->unOp_ = op;
            n->a_ = std::move(operand);
            stamp(*n, id, hi, lo);
            return n;
        });
}

ExprPtr
Expr::binary(BinOp op, ExprPtr lhs, ExprPtr rhs)
{
    panicIf(!lhs || !rhs, "binary with null operand");
    Digester d = kindDigester(ExprKind::Binary);
    d.word(static_cast<std::uint64_t>(op));
    d.child(lhs);
    d.child(rhs);
    auto [hi, lo] = d.finish();
    return InternTable::instance().intern(
        hi, lo,
        [&](const Expr &e) {
            return e.kind_ == ExprKind::Binary && e.binOp_ == op &&
                   e.a_ == lhs && e.b_ == rhs;
        },
        [&](std::uint64_t id) {
            auto n = makeNode();
            n->kind_ = ExprKind::Binary;
            n->binOp_ = op;
            n->a_ = std::move(lhs);
            n->b_ = std::move(rhs);
            stamp(*n, id, hi, lo);
            return n;
        });
}

namespace {

/** Shared shallow check for the two Call factory forms. */
bool
callMatches(const Expr &e, const std::string &name,
            const ExprPtr &calleeExpr, const std::vector<ExprPtr> &args)
{
    if (e.kind() != ExprKind::Call || e.callee() != name ||
        e.calleeExpr() != calleeExpr ||
        e.args().size() != args.size()) {
        return false;
    }
    for (std::size_t i = 0; i < args.size(); ++i)
        if (e.args()[i] != args[i])
            return false;
    return true;
}

} // namespace

ExprPtr
Expr::internCall(std::string name, ExprPtr calleeExpr,
                 std::vector<ExprPtr> args)
{
    Digester d = kindDigester(ExprKind::Call);
    d.str(name);
    if (calleeExpr) {
        d.word(1);
        d.child(calleeExpr);
    } else {
        d.word(0);
    }
    d.word(args.size());
    for (const ExprPtr &a : args)
        d.child(a);
    auto [hi, lo] = d.finish();
    return InternTable::instance().intern(
        hi, lo,
        [&](const Expr &e) {
            return callMatches(e, name, calleeExpr, args);
        },
        [&](std::uint64_t id) {
            auto n = makeNode();
            n->kind_ = ExprKind::Call;
            n->name_ = std::move(name);
            n->calleeExpr_ = std::move(calleeExpr);
            n->args_ = std::move(args);
            stamp(*n, id, hi, lo);
            return n;
        });
}

ExprPtr
Expr::call(std::string callee, std::vector<ExprPtr> args)
{
    for (const auto &a : args)
        panicIf(!a, "call with null argument");
    return internCall(std::move(callee), nullptr, std::move(args));
}

ExprPtr
Expr::callExpr(ExprPtr callee, std::vector<ExprPtr> args)
{
    panicIf(!callee, "callExpr with null callee");
    for (const auto &a : args)
        panicIf(!a, "callExpr with null argument");
    return internCall(std::string(), std::move(callee), std::move(args));
}

ExprPtr
Expr::ifThenElse(ExprPtr cond, ExprPtr then, ExprPtr other)
{
    panicIf(!cond || !then || !other, "if with null operand");
    Digester d = kindDigester(ExprKind::If);
    d.child(cond);
    d.child(then);
    d.child(other);
    auto [hi, lo] = d.finish();
    return InternTable::instance().intern(
        hi, lo,
        [&](const Expr &e) {
            return e.kind_ == ExprKind::If && e.c_ == cond &&
                   e.a_ == then && e.b_ == other;
        },
        [&](std::uint64_t id) {
            auto n = makeNode();
            n->kind_ = ExprKind::If;
            n->c_ = std::move(cond);
            n->a_ = std::move(then);
            n->b_ = std::move(other);
            stamp(*n, id, hi, lo);
            return n;
        });
}

ExprPtr
Expr::nodeVar(std::string node)
{
    Digester d = kindDigester(ExprKind::NodeVar);
    d.str(node);
    auto [hi, lo] = d.finish();
    return InternTable::instance().intern(
        hi, lo,
        [&](const Expr &e) {
            return e.kind_ == ExprKind::NodeVar && e.name_ == node;
        },
        [&](std::uint64_t id) {
            auto n = makeNode();
            n->kind_ = ExprKind::NodeVar;
            n->name_ = std::move(node);
            stamp(*n, id, hi, lo);
            return n;
        });
}

ExprPtr
Expr::stateVar(int index)
{
    panicIf(index < 0, "stateVar with negative index");
    Digester d = kindDigester(ExprKind::StateVar);
    d.word(static_cast<std::uint64_t>(index));
    auto [hi, lo] = d.finish();
    return InternTable::instance().intern(
        hi, lo,
        [&](const Expr &e) {
            return e.kind_ == ExprKind::StateVar &&
                   e.index_ == index;
        },
        [&](std::uint64_t id) {
            auto n = makeNode();
            n->kind_ = ExprKind::StateVar;
            n->index_ = index;
            stamp(*n, id, hi, lo);
            return n;
        });
}

ExprPtr
Expr::param(int index)
{
    panicIf(index < 0, "param with negative index");
    Digester d = kindDigester(ExprKind::Param);
    d.word(static_cast<std::uint64_t>(index));
    auto [hi, lo] = d.finish();
    return InternTable::instance().intern(
        hi, lo,
        [&](const Expr &e) {
            return e.kind_ == ExprKind::Param &&
                   e.index_ == index;
        },
        [&](std::uint64_t id) {
            auto n = makeNode();
            n->kind_ = ExprKind::Param;
            n->index_ = index;
            stamp(*n, id, hi, lo);
            return n;
        });
}

const Value &
Expr::literalValue() const
{
    panicIf(kind_ != ExprKind::Literal, "literalValue on non-literal");
    return value_;
}

const std::string &
Expr::varName() const
{
    panicIf(kind_ != ExprKind::Var, "varName on non-var");
    return name_;
}

const std::string &
Expr::attrBase() const
{
    panicIf(kind_ != ExprKind::Attr, "attrBase on non-attr");
    return name_;
}

const std::string &
Expr::attrName() const
{
    panicIf(kind_ != ExprKind::Attr, "attrName on non-attr");
    return attr_;
}

UnOp
Expr::unOp() const
{
    panicIf(kind_ != ExprKind::Unary, "unOp on non-unary");
    return unOp_;
}

BinOp
Expr::binOp() const
{
    panicIf(kind_ != ExprKind::Binary, "binOp on non-binary");
    return binOp_;
}

const ExprPtr &
Expr::lhs() const
{
    panicIf(kind_ != ExprKind::Binary, "lhs on non-binary");
    return a_;
}

const ExprPtr &
Expr::rhs() const
{
    panicIf(kind_ != ExprKind::Binary, "rhs on non-binary");
    return b_;
}

const ExprPtr &
Expr::operand() const
{
    panicIf(kind_ != ExprKind::Unary, "operand on non-unary");
    return a_;
}

const std::string &
Expr::callee() const
{
    panicIf(kind_ != ExprKind::Call, "callee on non-call");
    return name_;
}

const ExprPtr &
Expr::calleeExpr() const
{
    panicIf(kind_ != ExprKind::Call, "calleeExpr on non-call");
    return calleeExpr_;
}

const std::vector<ExprPtr> &
Expr::args() const
{
    panicIf(kind_ != ExprKind::Call, "args on non-call");
    return args_;
}

const ExprPtr &
Expr::cond() const
{
    panicIf(kind_ != ExprKind::If, "cond on non-if");
    return c_;
}

const ExprPtr &
Expr::thenBranch() const
{
    panicIf(kind_ != ExprKind::If, "thenBranch on non-if");
    return a_;
}

const ExprPtr &
Expr::elseBranch() const
{
    panicIf(kind_ != ExprKind::If, "elseBranch on non-if");
    return b_;
}

const std::string &
Expr::nodeName() const
{
    panicIf(kind_ != ExprKind::NodeVar, "nodeName on non-nodevar");
    return name_;
}

int
Expr::stateIndex() const
{
    panicIf(kind_ != ExprKind::StateVar, "stateIndex on non-statevar");
    return index_;
}

int
Expr::paramIndex() const
{
    panicIf(kind_ != ExprKind::Param, "paramIndex on non-param");
    return index_;
}

std::string
Expr::str() const
{
    switch (kind_) {
      case ExprKind::Literal:
        return value_.str();
      case ExprKind::Var:
        return name_;
      case ExprKind::Attr:
        return name_ + "." + attr_;
      case ExprKind::Time:
        return "time";
      case ExprKind::Unary:
        if (unOp_ == UnOp::Not)
            return cat("(not ", a_->str(), ")");
        return cat("(-", a_->str(), ")");
      case ExprKind::Binary:
        return cat("(", a_->str(), " ", binOpName(binOp_), " ",
                   b_->str(), ")");
      case ExprKind::Call: {
        std::string out =
            calleeExpr_ ? cat("(", calleeExpr_->str(), ")") : name_;
        out += "(";
        for (std::size_t i = 0; i < args_.size(); ++i) {
            if (i > 0)
                out += ",";
            out += args_[i]->str();
        }
        out += ")";
        return out;
      }
      case ExprKind::If:
        return cat("(if ", c_->str(), " then ", a_->str(), " else ",
                   b_->str(), ")");
      case ExprKind::NodeVar:
        return cat("var(", name_, ")");
      case ExprKind::StateVar:
        return cat("q[", index_, "]");
      case ExprKind::Param:
        return cat("p[", index_, "]");
    }
    return "<?>";
}

bool
Expr::equals(const Expr &other) const
{
    // Interned: live structurally-equal nodes are one pointer. The
    // deep walk below (bit-exact literals, matching the intern
    // relation) is kept as a fallback so the predicate stays total
    // and self-evident.
    if (this == &other)
        return true;
    if (kind_ != other.kind_)
        return false;
    switch (kind_) {
      case ExprKind::Literal:
        return literalEq(value_, other.value_);
      case ExprKind::Var:
      case ExprKind::NodeVar:
        return name_ == other.name_;
      case ExprKind::Attr:
        return name_ == other.name_ && attr_ == other.attr_;
      case ExprKind::Time:
        return true;
      case ExprKind::Unary:
        return unOp_ == other.unOp_ && a_->equals(*other.a_);
      case ExprKind::Binary:
        return binOp_ == other.binOp_ && a_->equals(*other.a_) &&
               b_->equals(*other.b_);
      case ExprKind::Call: {
        if (name_ != other.name_ || args_.size() != other.args_.size())
            return false;
        if (static_cast<bool>(calleeExpr_) !=
            static_cast<bool>(other.calleeExpr_)) {
            return false;
        }
        if (calleeExpr_ && !calleeExpr_->equals(*other.calleeExpr_))
            return false;
        for (std::size_t i = 0; i < args_.size(); ++i)
            if (!args_[i]->equals(*other.args_[i]))
                return false;
        return true;
      }
      case ExprKind::If:
        return c_->equals(*other.c_) && a_->equals(*other.a_) &&
               b_->equals(*other.b_);
      case ExprKind::StateVar:
      case ExprKind::Param:
        return index_ == other.index_;
    }
    return false;
}

void
Expr::visit(const std::function<void(const Expr &)> &fn) const
{
    fn(*this);
    if (a_)
        a_->visit(fn);
    if (b_)
        b_->visit(fn);
    if (c_)
        c_->visit(fn);
    if (calleeExpr_)
        calleeExpr_->visit(fn);
    for (const auto &arg : args_)
        arg->visit(fn);
}

std::vector<std::string>
Expr::freeVars() const
{
    std::vector<std::string> out;
    std::unordered_set<std::string> seen;
    visit([&](const Expr &e) {
        if (e.kind() == ExprKind::Var && seen.insert(e.varName()).second)
            out.push_back(e.varName());
    });
    return out;
}

std::vector<std::string>
Expr::nodeVars() const
{
    std::vector<std::string> out;
    std::unordered_set<std::string> seen;
    visit([&](const Expr &e) {
        if (e.kind() == ExprKind::NodeVar &&
            seen.insert(e.nodeName()).second) {
            out.push_back(e.nodeName());
        }
    });
    return out;
}

namespace {

/**
 * Generic bottom-up rewriter: `leaf` maps an expression node to its
 * replacement (or nullptr to keep it); children are rewritten first.
 */
ExprPtr
rewrite(const ExprPtr &e,
        const std::function<ExprPtr(const ExprPtr &)> &leaf)
{
    switch (e->kind()) {
      case ExprKind::Literal:
      case ExprKind::Time:
      case ExprKind::StateVar:
      case ExprKind::Param:
        return e;
      case ExprKind::Var:
      case ExprKind::Attr:
      case ExprKind::NodeVar: {
        ExprPtr repl = leaf(e);
        return repl ? repl : e;
      }
      case ExprKind::Unary: {
        ExprPtr a = rewrite(e->operand(), leaf);
        if (a == e->operand())
            return e;
        return Expr::unary(e->unOp(), a);
      }
      case ExprKind::Binary: {
        ExprPtr a = rewrite(e->lhs(), leaf);
        ExprPtr b = rewrite(e->rhs(), leaf);
        if (a == e->lhs() && b == e->rhs())
            return e;
        return Expr::binary(e->binOp(), a, b);
      }
      case ExprKind::Call: {
        bool changed = false;
        ExprPtr callee = e->calleeExpr();
        if (callee) {
            ExprPtr nc = rewrite(callee, leaf);
            changed |= (nc != callee);
            callee = nc;
        }
        std::vector<ExprPtr> args;
        args.reserve(e->args().size());
        for (const auto &arg : e->args()) {
            ExprPtr na = rewrite(arg, leaf);
            changed |= (na != arg);
            args.push_back(na);
        }
        if (!changed)
            return e;
        if (callee)
            return Expr::callExpr(callee, std::move(args));
        return Expr::call(e->callee(), std::move(args));
      }
      case ExprKind::If: {
        ExprPtr c = rewrite(e->cond(), leaf);
        ExprPtr a = rewrite(e->thenBranch(), leaf);
        ExprPtr b = rewrite(e->elseBranch(), leaf);
        if (c == e->cond() && a == e->thenBranch() &&
            b == e->elseBranch()) {
            return e;
        }
        return Expr::ifThenElse(c, a, b);
      }
    }
    return e;
}

} // namespace

ExprPtr
substituteVars(const ExprPtr &e,
               const std::function<ExprPtr(const std::string &)> &lookup)
{
    return rewrite(e, [&](const ExprPtr &leaf) -> ExprPtr {
        if (leaf->kind() == ExprKind::Var)
            return lookup(leaf->varName());
        return nullptr;
    });
}

ExprPtr
substituteNodeVars(const ExprPtr &e,
                   const std::function<ExprPtr(const std::string &)> &lookup)
{
    return rewrite(e, [&](const ExprPtr &leaf) -> ExprPtr {
        if (leaf->kind() == ExprKind::NodeVar)
            return lookup(leaf->nodeName());
        return nullptr;
    });
}

ExprPtr
substituteAttrs(
    const ExprPtr &e,
    const std::function<ExprPtr(const std::string &, const std::string &)>
        &lookup)
{
    return rewrite(e, [&](const ExprPtr &leaf) -> ExprPtr {
        if (leaf->kind() == ExprKind::Attr)
            return lookup(leaf->attrBase(), leaf->attrName());
        return nullptr;
    });
}

ExprPtr
renameBindings(const ExprPtr &e,
               const std::function<std::string(const std::string &)> &rename)
{
    return rewrite(e, [&](const ExprPtr &leaf) -> ExprPtr {
        switch (leaf->kind()) {
          case ExprKind::Var: {
            std::string renamed = rename(leaf->varName());
            if (renamed == leaf->varName())
                return nullptr;
            return Expr::var(renamed);
          }
          case ExprKind::Attr: {
            std::string renamed = rename(leaf->attrBase());
            if (renamed == leaf->attrBase())
                return nullptr;
            return Expr::attr(renamed, leaf->attrName());
          }
          case ExprKind::NodeVar: {
            std::string renamed = rename(leaf->nodeName());
            if (renamed == leaf->nodeName())
                return nullptr;
            return Expr::nodeVar(renamed);
          }
          default:
            return nullptr;
        }
    });
}

ExprPtr
applyLambda(const Lambda &lambda, const std::vector<ExprPtr> &args)
{
    if (lambda.params.size() != args.size()) {
        throw TypeError(cat("lambda expects ", lambda.params.size(),
                            " argument(s), got ", args.size()));
    }
    std::unordered_map<std::string, ExprPtr> binding;
    for (std::size_t i = 0; i < args.size(); ++i)
        binding[lambda.params[i]] = args[i];
    return substituteVars(lambda.body,
                          [&](const std::string &name) -> ExprPtr {
                              auto it = binding.find(name);
                              return it == binding.end() ? nullptr
                                                         : it->second;
                          });
}

} // namespace ark::expr
