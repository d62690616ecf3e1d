#include "compiler/compiler.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <optional>
#include <unordered_map>
#include <unordered_set>

#include "expr/builtins.h"
#include "expr/eval.h"
#include "expr/fold.h"
#include "support/error.h"
#include "support/logging.h"
#include "support/telemetry.h"

namespace ark::compiler {

using expr::Expr;
using expr::ExprKind;
using expr::ExprPtr;
using lang::ProdRule;
using support::cat;
using support::CompileError;

RealClass
classifyReal(double x)
{
    if (x == 0.0)
        return std::signbit(x) ? RealClass::NegZero : RealClass::PosZero;
    if (x == 1.0)
        return RealClass::PosOne;
    if (x == -1.0)
        return RealClass::NegOne;
    return RealClass::Param;
}

namespace {

/**
 * `e` with each ordinary real literal occurrence, in preorder, replaced
 * by a Param leaf indexing the value's position in `params`.
 */
ExprPtr
liftLiterals(const ExprPtr &e, std::vector<double> &params)
{
    auto lift = [&params](const ExprPtr &child) {
        return liftLiterals(child, params);
    };
    switch (e->kind()) {
      case ExprKind::Literal: {
        const expr::Value &v = e->literalValue();
        if (!v.isReal() || classifyReal(v.asReal()) != RealClass::Param)
            return e;
        params.push_back(v.asReal());
        return Expr::param(static_cast<int>(params.size() - 1));
      }
      case ExprKind::Var:
      case ExprKind::Attr:
      case ExprKind::Time:
      case ExprKind::NodeVar:
      case ExprKind::StateVar:
      case ExprKind::Param:
        return e;
      case ExprKind::Unary:
        return Expr::unary(e->unOp(), lift(e->operand()));
      case ExprKind::Binary: {
        ExprPtr a = lift(e->lhs());
        return Expr::binary(e->binOp(), a, lift(e->rhs()));
      }
      case ExprKind::Call: {
        ExprPtr callee = e->calleeExpr() ? lift(e->calleeExpr()) : nullptr;
        std::vector<ExprPtr> args;
        args.reserve(e->args().size());
        for (const ExprPtr &arg : e->args())
            args.push_back(lift(arg));
        return callee ? Expr::callExpr(callee, std::move(args))
                      : Expr::call(e->callee(), std::move(args));
      }
      case ExprKind::If: {
        ExprPtr c = lift(e->cond());
        ExprPtr a = lift(e->thenBranch());
        return Expr::ifThenElse(c, a, lift(e->elseBranch()));
      }
    }
    return e;
}

} // namespace

void
forEachAttr(const dg::Graph &graph, std::vector<double> &params,
            const std::function<void(const std::string &,
                                     const expr::Value &,
                                     const expr::Lambda *)> &visit)
{
    using Entry = std::pair<const std::string, dg::AttrValue>;
    std::vector<const Entry *> sorted;
    auto element = [&](const std::unordered_map<std::string, dg::AttrValue>
                           &attrs) {
        sorted.clear();
        for (const Entry &entry : attrs)
            sorted.push_back(&entry);
        std::sort(sorted.begin(), sorted.end(),
                  [](const Entry *x, const Entry *y) {
                      return x->first < y->first;
                  });
        for (const Entry *entry : sorted) {
            const expr::Value &value = entry->second.effective;
            std::optional<expr::Lambda> lifted;
            if (value.isFunction()) {
                const expr::Lambda &fn = value.asFunction();
                lifted = expr::Lambda{fn.params,
                                      liftLiterals(fn.body, params)};
            } else if (value.isReal() &&
                       classifyReal(value.asReal()) == RealClass::Param) {
                params.push_back(value.asReal());
            }
            if (visit)
                visit(entry->first, value, lifted ? &*lifted : nullptr);
        }
    };
    for (std::size_t i = 0; i < graph.numNodes(); ++i)
        element(graph.node(dg::NodeId{static_cast<std::int32_t>(i)}).attrs);
    for (std::size_t i = 0; i < graph.numEdges(); ++i)
        element(graph.edge(dg::EdgeId{static_cast<std::int32_t>(i)}).attrs);
}

std::vector<double>
parameterVector(const dg::Graph &graph)
{
    std::vector<double> params;
    forEachAttr(graph, params);
    return params;
}

namespace {

/** The initial state in state-vector order (order-0 nodes own none). */
std::vector<double>
initialState(const dg::Graph &graph)
{
    std::vector<double> initial;
    for (std::size_t idx = 0; idx < graph.numNodes(); ++idx) {
        dg::NodeId id{static_cast<std::int32_t>(idx)};
        for (int d = 0; d < graph.nodeTypeOf(id).order; ++d)
            initial.push_back(graph.initValue(id, d).asReal());
    }
    return initial;
}

/** Bit-exact value equality (-0.0 != 0.0; equal NaN payloads match). */
bool
sameBits(const expr::Value &x, const expr::Value &y)
{
    if (x.kind() != y.kind())
        return false;
    if (x.isReal())
        return std::bit_cast<std::uint64_t>(x.asReal()) ==
               std::bit_cast<std::uint64_t>(y.asReal());
    if (x.isInt())
        return x.asInt() == y.asInt();
    return x.isBool() && x.asBool() == y.asBool();
}

/**
 * One compilation session over a (graph, language) pair, lowering a
 * template (see compiler.h): attribute values that carry parameters
 * resolve to their Param form, nodes over literals and
 * parameter-only subtrees are built unevaluated, and where such a
 * subtree meets the rest of the tree it becomes a slot or a pin.
 */
class Compilation
{
  public:
    Compilation(const dg::Graph &graph, const lang::Language &lang)
        : graph_(graph), lang_(lang)
    {
        allocateState();
        forEachAttr(graph_, params_,
                    [this](const std::string &, const expr::Value &value,
                           const expr::Lambda *lifted) {
                        if (lifted)
                            templateAttr_[&value] = Expr::literal(
                                expr::Value::function(*lifted));
                        else if (value.isReal() &&
                                 classifyReal(value.asReal()) ==
                                     RealClass::Param)
                            templateAttr_[&value] = Expr::param(
                                static_cast<int>(params_.size() - 1));
                    });
        paramCtx_.lookupParam = [this](int i) {
            return params_[static_cast<std::size_t>(i)];
        };
    }

    const std::vector<StateVar> &vars() const { return vars_; }
    const std::vector<double> &params() const { return params_; }
    const std::vector<Pin> &pins() const { return pins_; }

    std::vector<ExprPtr> rhs()
    {
        std::vector<ExprPtr> rhs(vars_.size());
        for (std::size_t idx = 0; idx < graph_.numNodes(); ++idx) {
            dg::NodeId id{static_cast<std::int32_t>(idx)};
            const dg::NodeTypeDef &type = graph_.nodeTypeOf(id);
            if (type.order == 0)
                continue;
            const std::string &name = graph_.node(id).name;
            // LowOrdEqs: dq_i/dt = q_{i+1} for i < p-1.
            for (int d = 0; d + 1 < type.order; ++d) {
                rhs[static_cast<std::size_t>(stateIndex(name, d))] =
                    Expr::stateVar(stateIndex(name, d + 1));
            }
            rhs[static_cast<std::size_t>(stateIndex(name, type.order - 1))] =
                seal(nodeDynamics(id), false);
        }
        return rhs;
    }

    /**
     * A template's slots: the maximal parameter-only subtrees of
     * `rhs`, each once, in first-visit order.
     */
    std::vector<ExprPtr> slotsOf(const std::vector<ExprPtr> &rhs)
    {
        std::vector<ExprPtr> slots;
        std::unordered_set<const Expr *> seen;
        std::function<void(const ExprPtr &)> walk = [&](const ExprPtr &e) {
            if (!seen.insert(e.get()).second)
                return;
            if (paramOnly(e.get())) {
                slots.push_back(e);
                return;
            }
            switch (e->kind()) {
              case ExprKind::Unary:
                walk(e->operand());
                break;
              case ExprKind::Binary:
                walk(e->lhs());
                walk(e->rhs());
                break;
              case ExprKind::Call:
                if (e->calleeExpr())
                    walk(e->calleeExpr());
                for (const ExprPtr &arg : e->args())
                    walk(arg);
                break;
              case ExprKind::If:
                walk(e->cond());
                walk(e->thenBranch());
                walk(e->elseBranch());
                break;
              default:
                break;
            }
        };
        for (const ExprPtr &e : rhs)
            walk(e);
        return slots;
    }

    /** var(node): state slot or inlined order-0 expression. */
    ExprPtr valueOf(dg::NodeId id)
    {
        const dg::Node &node = graph_.node(id);
        const dg::NodeTypeDef &type = graph_.nodeTypeOf(id);
        if (type.order > 0)
            return Expr::stateVar(stateIndex(node.name, 0));

        auto it = order0Cache_.find(node.name);
        if (it != order0Cache_.end())
            return it->second;
        if (!inProgress_.insert(node.name).second) {
            throw CompileError(cat("order-0 node '", node.name,
                                   "' participates in a pure-function "
                                   "cycle"));
        }
        ExprPtr value = nodeDynamics(id);
        inProgress_.erase(node.name);
        order0Cache_.emplace(node.name, value);
        return value;
    }

  private:
    const dg::Graph &graph_;
    const lang::Language &lang_;
    std::vector<StateVar> vars_;
    std::unordered_map<std::string, int> indexByKey_;
    std::unordered_map<std::string, ExprPtr> order0Cache_;
    std::unordered_set<std::string> inProgress_;
    /** The graph's parameter vector, and the Param form of each
     *  attribute value that carries parameters. */
    std::vector<double> params_;
    std::unordered_map<const expr::Value *, ExprPtr> templateAttr_;
    expr::EvalContext paramCtx_;
    /** paramOnly() memo by Expr::id(): a node built and dropped during
     *  lowering may be purged and its address reused; ids are not. */
    std::unordered_map<std::uint64_t, bool> paramOnly_;
    std::vector<Pin> pins_;
    std::unordered_set<const Expr *> pinned_;

    static std::string key(const std::string &node, int derivative)
    {
        return node + "#" + std::to_string(derivative);
    }

    void allocateState()
    {
        for (std::size_t idx = 0; idx < graph_.numNodes(); ++idx) {
            dg::NodeId id{static_cast<std::int32_t>(idx)};
            const dg::Node &node = graph_.node(id);
            const dg::NodeTypeDef &type = graph_.nodeTypeOf(id);
            for (int d = 0; d < type.order; ++d) {
                indexByKey_[key(node.name, d)] =
                    static_cast<int>(vars_.size());
                vars_.push_back(StateVar{node.name, d});
            }
        }
    }

    int stateIndex(const std::string &node, int derivative) const
    {
        auto it = indexByKey_.find(key(node, derivative));
        support::panicIf(it == indexByKey_.end(),
                         "compiler: missing state variable");
        return it->second;
    }

    /**
     * Aggregated production terms for a node (the pth derivative of
     * order-p nodes; the value of order-0 nodes).
     */
    ExprPtr nodeDynamics(dg::NodeId id)
    {
        const dg::NodeTypeDef &type = graph_.nodeTypeOf(id);
        std::vector<ExprPtr> terms;
        for (dg::EdgeId edgeId : graph_.allEdgesOf(id)) {
            const dg::Edge &edge = graph_.edge(edgeId);
            bool off = !edge.enabled;
            bool self = edge.isSelf();
            ProdRule::Target target =
                (self || edge.src == id) ? ProdRule::Target::Src
                                         : ProdRule::Target::Dst;
            const std::string &srcType = graph_.node(edge.src).type;
            const std::string &dstType = graph_.node(edge.dst).type;
            const ProdRule *rule = lang_.lookupRule(
                edge.type, srcType, dstType, self, target, off);
            if (!rule)
                continue;
            terms.push_back(instantiate(*rule, edgeId));
        }
        if (terms.empty()) {
            return type.reduction == dg::Reduction::Sum
                       ? Expr::real(0.0)
                       : Expr::real(1.0);
        }
        // Terms arrive folded from instantiate(); folding each chain
        // link as it is built keeps the whole dynamics expression
        // folded without a second walk over the tree.
        ExprPtr acc = terms.front();
        for (std::size_t i = 1; i < terms.size(); ++i) {
            acc = binaryOf(type.reduction == dg::Reduction::Sum
                               ? expr::BinOp::Add
                               : expr::BinOp::Mul,
                           acc, terms[i]);
        }
        return acc;
    }

    /**
     * True for a parameter-only subtree: a Param leaf, or a node the
     * folder would evaluate (unary, binary, if, known builtin call)
     * whose children are literals or parameter-only, at least one of
     * them parameter-only. Memoized per interned node.
     */
    bool paramOnly(const Expr *e)
    {
        switch (e->kind()) {
          case ExprKind::Param:
            return true;
          case ExprKind::Unary:
          case ExprKind::Binary:
          case ExprKind::If:
          case ExprKind::Call:
            break;
          default:
            return false;
        }
        if (auto it = paramOnly_.find(e->id()); it != paramOnly_.end())
            return it->second;
        bool result;
        switch (e->kind()) {
          case ExprKind::Unary:
            result = deferred({e->operand().get()});
            break;
          case ExprKind::Binary:
            result = deferred({e->lhs().get(), e->rhs().get()});
            break;
          case ExprKind::If:
            result = deferred({e->cond().get(), e->thenBranch().get(),
                               e->elseBranch().get()});
            break;
          default:
            result = !e->calleeExpr() && expr::findBuiltin(e->callee()) &&
                     deferred(e->args());
            break;
        }
        paramOnly_.emplace(e->id(), result);
        return result;
    }

    /**
     * True when a node over `children` is parameter-only: every child
     * is a literal or parameter-only, and one is parameter-only. The
     * template keeps such a node unevaluated (never identity-folded)
     * for bind to evaluate, as the folder would have.
     */
    template <typename Children>
    bool deferred(const Children &children)
    {
        bool param = false;
        for (const auto &child : children) {
            if (paramOnly(&*child))
                param = true;
            else if (child->kind() != ExprKind::Literal)
                return false;
        }
        return param;
    }

    bool deferred(std::initializer_list<const Expr *> children)
    {
        return deferred<std::initializer_list<const Expr *>>(children);
    }

    /**
     * A child about to join a node the folder builds: a parameter-only
     * `e` whose value (under this graph's parameters) the folder
     * would act on — ±0, ±1 or a non-real anywhere, any value where it
     * `decides` a branch (an If condition, an And/Or operand) —
     * becomes that literal and a pin; any other stays, as a slot.
     */
    ExprPtr seal(const ExprPtr &e, bool decides)
    {
        if (!paramOnly(e.get()))
            return e;
        expr::Value v = expr::eval(e, paramCtx_);
        if (!decides && v.isReal() &&
            classifyReal(v.asReal()) == RealClass::Param)
            return e;
        if (pinned_.insert(e.get()).second)
            pins_.push_back(Pin{e, v});
        return Expr::literal(std::move(v));
    }

    /** @name The folding constructors over sealed children. */
    /// @{
    ExprPtr unaryOf(expr::UnOp op, const ExprPtr &a)
    {
        // A unary node over a non-literal child is never deferred and
        // that child is not parameter-only: nothing to seal.
        return deferred({a.get()}) ? Expr::unary(op, a)
                                   : expr::foldUnaryOf(op, a);
    }

    ExprPtr binaryOf(expr::BinOp op, const ExprPtr &a, const ExprPtr &b)
    {
        if (deferred({a.get(), b.get()}))
            return Expr::binary(op, a, b);
        bool decides = expr::isLogical(op);
        ExprPtr sa = seal(a, decides);
        return expr::foldBinaryOf(op, sa, seal(b, decides));
    }

    ExprPtr ifOf(const ExprPtr &c, const ExprPtr &a, const ExprPtr &b)
    {
        if (deferred({c.get(), a.get(), b.get()}))
            return Expr::ifThenElse(c, a, b);
        ExprPtr sc = seal(c, true);
        ExprPtr sa = seal(a, false);
        return expr::foldIfOf(sc, sa, seal(b, false));
    }

    ExprPtr callOf(const std::string &callee, std::vector<ExprPtr> args)
    {
        if (expr::findBuiltin(callee) && deferred(args))
            return Expr::call(callee, std::move(args));
        for (ExprPtr &arg : args)
            arg = seal(arg, false);
        return expr::foldCallOf(callee, std::move(args));
    }
    /// @}

    /**
     * The paper's Rewrite: rule expression onto concrete elements.
     * One bottom-up walk substitutes attribute values, resolves
     * var(s)/var(t), beta-reduces lambda calls, and constant-folds as
     * it rebuilds — the fused equivalent of the former
     * substituteAttrs → substituteNodeVars → inlineLambdaCalls →
     * fold pipeline (4 tree walks), producing the identical
     * (interned) result.
     */
    ExprPtr instantiate(const ProdRule &rule, dg::EdgeId edgeId)
    {
        return substFold(rule.expr, rule, edgeId, graph_.edge(edgeId));
    }

    ExprPtr substFold(const ExprPtr &e, const ProdRule &rule,
                      dg::EdgeId edgeId, const dg::Edge &edge)
    {
        switch (e->kind()) {
          case ExprKind::Literal:
          case ExprKind::Time:
          case ExprKind::StateVar:
          case ExprKind::Var:
          case ExprKind::Param:
            return e;
          case ExprKind::Attr: {
            // e.x / s.x / t.x -> attribute values.
            const std::string &base = e->attrBase();
            if (base == rule.edgeVar)
                return attrValue(graph_.edgeAttr(edgeId, e->attrName()));
            if (base == rule.srcVar)
                return attrValue(graph_.nodeAttr(edge.src, e->attrName()));
            if (base == rule.dstVar)
                return attrValue(graph_.nodeAttr(edge.dst, e->attrName()));
            throw CompileError(cat("production rule references "
                                   "unbound name '", base, "'"));
          }
          case ExprKind::NodeVar: {
            // var(s) / var(t): state or inlined function value
            // (valueOf returns folded expressions).
            const std::string &name = e->nodeName();
            if (name == rule.srcVar)
                return valueOf(edge.src);
            if (name == rule.dstVar)
                return valueOf(edge.dst);
            throw CompileError(cat("var(", name,
                                   ") references an unbound rule "
                                   "name"));
          }
          case ExprKind::Unary:
            return unaryOf(e->unOp(),
                           substFold(e->operand(), rule, edgeId, edge));
          case ExprKind::Binary: {
            ExprPtr a = substFold(e->lhs(), rule, edgeId, edge);
            return binaryOf(e->binOp(), a,
                            substFold(e->rhs(), rule, edgeId, edge));
          }
          case ExprKind::If: {
            ExprPtr c = substFold(e->cond(), rule, edgeId, edge);
            ExprPtr a = substFold(e->thenBranch(), rule, edgeId, edge);
            ExprPtr b = substFold(e->elseBranch(), rule, edgeId, edge);
            return ifOf(c, a, b);
          }
          case ExprKind::Call: {
            std::vector<ExprPtr> args;
            args.reserve(e->args().size());
            for (const auto &arg : e->args())
                args.push_back(substFold(arg, rule, edgeId, edge));
            if (e->calleeExpr()) {
                ExprPtr callee =
                    substFold(e->calleeExpr(), rule, edgeId, edge);
                if (callee->kind() == ExprKind::Literal &&
                    callee->literalValue().isFunction()) {
                    // Beta-reduce and keep walking: the body may
                    // contain further lambda calls; the substituted
                    // argument subtrees are already processed, so
                    // revisiting them is a no-op.
                    ExprPtr body = expr::applyLambda(
                        callee->literalValue().asFunction(), args);
                    return substFold(body, rule, edgeId, edge);
                }
                return Expr::callExpr(callee, std::move(args));
            }
            return callOf(e->callee(), std::move(args));
          }
        }
        return e;
    }

    /** An attribute value as the lowering sees it: its template form
     *  when it carries parameters, otherwise the literal. */
    ExprPtr attrValue(const expr::Value &value)
    {
        auto it = templateAttr_.find(&value);
        return it != templateAttr_.end() ? it->second
                                         : Expr::literal(value);
    }
};

/**
 * `tmpl` bound to `graph`, or nullopt when the graph's values do not
 * fit the template: a pin evaluates to other bits than the template's
 * lowering graph gave it, or a slot to a value the folder would act
 * on (or to a non-real, or throws).
 */
std::optional<OdeSystem>
tryBind(const TemplatePtr &tmpl, const dg::Graph &graph)
{
    std::vector<double> params = parameterVector(graph);
    std::vector<double> initial = initialState(graph);
    if (params.size() != tmpl->numParams() ||
        initial.size() != tmpl->vars().size())
        return std::nullopt;
    expr::EvalContext ctx;
    ctx.lookupParam = [&params](int i) {
        return params[static_cast<std::size_t>(i)];
    };
    std::vector<double> values;
    values.reserve(tmpl->slots().size());
    try {
        for (const Pin &pin : tmpl->pins())
            if (!sameBits(expr::eval(pin.expr, ctx), pin.value))
                return std::nullopt;
        for (const ExprPtr &slot : tmpl->slots()) {
            expr::Value v = expr::eval(slot, ctx);
            if (!v.isReal() || classifyReal(v.asReal()) != RealClass::Param)
                return std::nullopt;
            values.push_back(v.asReal());
        }
    } catch (const support::ArkError &) {
        return std::nullopt;
    }
    // The aliasing pointer keeps the template alive for the lazily
    // built rhsExprs().
    return OdeSystem(tmpl->vars(), std::move(initial),
                     tmpl->tape().bind(values),
                     std::shared_ptr<const std::vector<ExprPtr>>(
                         tmpl, &tmpl->rhs()),
                     std::move(params));
}

} // namespace

TemplatePtr
lowerTemplate(const dg::Graph &graph, const lang::Language &lang)
{
    static telemetry::Counter &systems =
        telemetry::Registry::shared().counter("ark.compile.systems");
    static telemetry::Histogram &lowerNs =
        telemetry::Registry::shared().histogram("ark.compile.lower_ns");
    telemetry::ScopedSpan span("ark.compile.lower", graph.numNodes());
    telemetry::ScopedTimer timer(lowerNs);
    systems.add();

    Compilation session(graph, lang);
    auto tmpl = std::make_shared<SystemTemplate>();
    tmpl->vars_ = session.vars();
    tmpl->rhs_ = session.rhs();
    tmpl->pins_ = session.pins();
    tmpl->slots_ = session.slotsOf(tmpl->rhs_);
    tmpl->numParams_ = session.params().size();
    tmpl->tape_ = compileRhsTape(tmpl->rhs_, tmpl->slots_);
    return tmpl;
}

OdeSystem
bind(const TemplatePtr &tmpl, const dg::Graph &graph,
     const lang::Language &lang)
{
    static telemetry::Counter &fallbacks =
        telemetry::Registry::shared().counter(
            "ark.compile.bind_fallbacks");
    {
        // Span arg: 1 = bound, 0 = fell back to lowering the graph.
        telemetry::ScopedSpan span("ark.compile.bind", 1);
        if (std::optional<OdeSystem> bound = tryBind(tmpl, graph))
            return *std::move(bound);
        span.setArg(0);
    }
    fallbacks.add();
    std::optional<OdeSystem> own = tryBind(lowerTemplate(graph, lang), graph);
    support::panicIf(!own, "compiler::bind: a graph must bind its own "
                           "template");
    return *std::move(own);
}

OdeSystem
compile(const dg::Graph &graph, const lang::Language &lang)
{
    return compiler::bind(lowerTemplate(graph, lang), graph, lang);
}

expr::ExprPtr
nodeValueExpr(const dg::Graph &graph, const lang::Language &lang,
              const std::string &nodeName)
{
    auto id = graph.findNode(nodeName);
    if (!id)
        throw CompileError(cat("unknown node '", nodeName, "'"));
    Compilation session(graph, lang);
    // valueOf returns folded template expressions; binding the
    // parameters folds them to the literal-valued tree.
    return expr::bindParams({session.valueOf(*id)}, session.params())
        .front();
}

} // namespace ark::compiler
