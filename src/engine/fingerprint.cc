#include "engine/fingerprint.h"

#include <array>
#include <bit>

#include "compiler/compiler.h"
#include "expr/expr.h"
#include "expr/lanetape.h"
#include "expr/tape.h"
#include "support/logging.h"

namespace ark::engine {

namespace {

/** splitmix64 finalizer: the per-word diffusion step. */
std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

} // namespace

std::string
Fingerprint::str() const
{
    static const char *digits = "0123456789abcdef";
    std::string out;
    out.reserve(32);
    for (int half = 0; half < 2; ++half) {
        std::uint64_t word = half == 0 ? hi : lo;
        for (int nibble = 15; nibble >= 0; --nibble)
            out += digits[(word >> (4 * nibble)) & 0xf];
    }
    return out;
}

void
Hasher::absorb(std::uint64_t x)
{
    // Two independently mixed lanes: word position enters through the
    // running state, so permuted serializations hash differently.
    a_ = mix64(a_ ^ x);
    b_ = mix64(b_ + std::rotl(x, 29) + 0xff51afd7ed558ccdull);
}

void
Hasher::absorb(double x)
{
    // Bit-exact: distinguishes -0.0 from 0.0 and every NaN payload,
    // matching the "bit-identical results" cache contract.
    absorb(std::bit_cast<std::uint64_t>(x));
}

void
Hasher::absorb(const std::string &s)
{
    absorb(static_cast<std::uint64_t>(s.size()));
    std::uint64_t word = 0;
    int inWord = 0;
    for (unsigned char c : s) {
        word = (word << 8) | c;
        if (++inWord == 8) {
            absorb(word);
            word = 0;
            inWord = 0;
        }
    }
    if (inWord > 0)
        absorb(word);
}

void
Hasher::absorb(const expr::Value &v)
{
    absorb(static_cast<std::uint64_t>(v.kind()));
    switch (v.kind()) {
    case expr::ValueKind::Real:
        absorb(v.asReal());
        break;
    case expr::ValueKind::Int:
        absorb(static_cast<std::uint64_t>(v.asInt()));
        break;
    case expr::ValueKind::Bool:
        absorb(v.asBool());
        break;
    case expr::ValueKind::Function: {
        const expr::Lambda &fn = v.asFunction();
        absorb(static_cast<std::uint64_t>(fn.params.size()));
        for (const std::string &param : fn.params)
            absorb(param);
        support::panicIf(!fn.body, "fingerprint: lambda without body");
        absorb(*fn.body);
        break;
    }
    }
}

void
Hasher::absorb(const expr::Expr &e)
{
    // Expressions are hash-consed (expr/expr.h): every node carries
    // the 128-bit structural digest of its subtree (bit-exact
    // literals), computed once at intern time. Absorbing the two
    // digest words is equivalent to the structural walk this used to
    // do — structurally equal subtrees have equal digests — at O(1)
    // instead of O(subtree).
    absorb(e.digestHi());
    absorb(e.digestLo());
}

Fingerprint
Hasher::finish() const
{
    // One extra avalanche so absorb order near the tail still
    // diffuses into both words.
    return Fingerprint{mix64(a_ ^ std::rotl(b_, 32)), mix64(b_ ^ a_)};
}

namespace {

/**
 * The structure-lane word of one attribute value: its kind, plus what
 * of it a template is specialised on — a real's RealClass, an int's or
 * bool's value, a lambda's template form (its ordinary literals
 * lifted to parameters).
 */
void
absorbAttr(Hasher &structure, const std::string &name,
           const expr::Value &value, const expr::Lambda *lifted)
{
    structure.absorb(name);
    structure.absorb(static_cast<std::uint64_t>(value.kind()));
    if (lifted) {
        structure.absorb(static_cast<std::uint64_t>(lifted->params.size()));
        for (const std::string &param : lifted->params)
            structure.absorb(param);
        structure.absorb(*lifted->body);
    } else if (value.isReal()) {
        structure.absorb(static_cast<std::uint64_t>(
            compiler::classifyReal(value.asReal())));
    } else {
        structure.absorb(value);
    }
}

void
absorbDataType(Hasher &h, const dg::DataType &type)
{
    h.absorb(static_cast<std::uint64_t>(type.kind()));
    h.absorb(type.isConst());
    switch (type.kind()) {
    case dg::TypeKind::Real:
        h.absorb(type.realLo());
        h.absorb(type.realHi());
        break;
    case dg::TypeKind::Int:
        h.absorb(static_cast<std::uint64_t>(type.intLo()));
        h.absorb(static_cast<std::uint64_t>(type.intHi()));
        break;
    case dg::TypeKind::Function:
        h.absorb(static_cast<std::uint64_t>(type.params().size()));
        for (const std::string &param : type.params())
            h.absorb(param);
        break;
    }
    h.absorb(type.hasMismatch());
    if (type.hasMismatch()) {
        h.absorb(type.mismatch()->s0);
        h.absorb(type.mismatch()->s1);
    }
}

void
absorbAttrDef(Hasher &h, const dg::AttrDef &attr)
{
    h.absorb(attr.name);
    absorbDataType(h, attr.type);
    h.absorb(attr.fixedValue.has_value());
    if (attr.fixedValue.has_value())
        h.absorb(*attr.fixedValue);
}

void
absorbPatterns(Hasher &h, const std::vector<lang::Pattern> &patterns)
{
    h.absorb(static_cast<std::uint64_t>(patterns.size()));
    for (const lang::Pattern &pattern : patterns) {
        h.absorb(static_cast<std::uint64_t>(pattern.clauses.size()));
        for (const lang::MatchClause &clause : pattern.clauses) {
            h.absorb(static_cast<std::uint64_t>(clause.dir));
            h.absorb(static_cast<std::uint64_t>(clause.lo));
            h.absorb(static_cast<std::uint64_t>(clause.hi));
            h.absorb(clause.edgeType);
            h.absorb(static_cast<std::uint64_t>(clause.nodeTypes.size()));
            for (const std::string &nodeType : clause.nodeTypes)
                h.absorb(nodeType);
            h.absorb(clause.targetName);
        }
    }
}

/**
 * The language content compilation and validation depend on: the type
 * table (state layout, reductions, defaults, mismatch specs), every
 * production rule (the dynamics), every constraint (a cache hit skips
 * re-validation, so validity must be part of the address), and the
 * extern-func bindings. Hashing only the language *name* would let
 * two same-named languages with different rules alias one cache
 * entry.
 */
void
absorbLanguage(Hasher &h, const lang::Language &lang)
{
    h.absorb(lang.name());

    const dg::TypeTable &types = lang.types();
    h.absorb(static_cast<std::uint64_t>(types.nodeTypes().size()));
    for (const dg::NodeTypeDef &type : types.nodeTypes()) {
        h.absorb(type.name);
        h.absorb(static_cast<std::uint64_t>(type.order));
        h.absorb(static_cast<std::uint64_t>(type.reduction));
        h.absorb(type.parent);
        h.absorb(static_cast<std::uint64_t>(type.attrs.size()));
        for (const dg::AttrDef &attr : type.attrs)
            absorbAttrDef(h, attr);
        h.absorb(static_cast<std::uint64_t>(type.inits.size()));
        for (const dg::InitDef &init : type.inits) {
            h.absorb(static_cast<std::uint64_t>(init.derivative));
            absorbDataType(h, init.type);
            h.absorb(init.fixedValue.has_value());
            if (init.fixedValue.has_value())
                h.absorb(*init.fixedValue);
        }
    }
    h.absorb(static_cast<std::uint64_t>(types.edgeTypes().size()));
    for (const dg::EdgeTypeDef &type : types.edgeTypes()) {
        h.absorb(type.name);
        h.absorb(type.fixed);
        h.absorb(type.parent);
        h.absorb(static_cast<std::uint64_t>(type.attrs.size()));
        for (const dg::AttrDef &attr : type.attrs)
            absorbAttrDef(h, attr);
    }

    h.absorb(static_cast<std::uint64_t>(lang.prodRules().size()));
    for (const lang::ProdRule &rule : lang.prodRules()) {
        h.absorb(rule.edgeType);
        h.absorb(rule.srcType);
        h.absorb(rule.dstType);
        h.absorb(rule.self);
        h.absorb(static_cast<std::uint64_t>(rule.target));
        h.absorb(rule.edgeVar);
        h.absorb(rule.srcVar);
        h.absorb(rule.dstVar);
        support::panicIf(!rule.expr, "fingerprint: rule without expr");
        h.absorb(*rule.expr);
        h.absorb(rule.off);
        h.absorb(rule.definedIn);
    }

    h.absorb(static_cast<std::uint64_t>(lang.cstrs().size()));
    for (const lang::Cstr &cstr : lang.cstrs()) {
        h.absorb(cstr.nodeType);
        absorbPatterns(h, cstr.accepts);
        absorbPatterns(h, cstr.rejects);
    }

    h.absorb(static_cast<std::uint64_t>(lang.externFuncs().size()));
    for (const std::string &fn : lang.externFuncs())
        h.absorb(fn);
}

} // namespace

GraphFingerprint
fingerprintGraph(const dg::Graph &graph, const lang::Language &lang)
{
    Hasher structure;
    Hasher values;
    // The language digest is memoized on the (immutable,
    // registry-owned) Language itself, so repeated-evaluation
    // workloads hash its rules and types once per process, not once
    // per compiled graph.
    std::array<std::uint64_t, 2> langDigest =
        lang.memoizedDigest([&lang] {
            Hasher h;
            absorbLanguage(h, lang);
            Fingerprint fp = h.finish();
            return std::array<std::uint64_t, 2>{fp.hi, fp.lo};
        });
    structure.absorb(langDigest[0]);
    structure.absorb(langDigest[1]);
    structure.absorb(graph.langName());

    structure.absorb(static_cast<std::uint64_t>(graph.numNodes()));
    for (std::size_t i = 0; i < graph.numNodes(); ++i) {
        const dg::Node &node =
            graph.node(dg::NodeId{static_cast<std::int32_t>(i)});
        structure.absorb(node.name);
        structure.absorb(node.type);
        structure.absorb(static_cast<std::uint64_t>(node.attrs.size()));
        structure.absorb(static_cast<std::uint64_t>(node.inits.size()));
        for (const std::optional<expr::Value> &init : node.inits)
            structure.absorb(init.has_value());
    }

    structure.absorb(static_cast<std::uint64_t>(graph.numEdges()));
    for (std::size_t i = 0; i < graph.numEdges(); ++i) {
        const dg::Edge &edge =
            graph.edge(dg::EdgeId{static_cast<std::int32_t>(i)});
        structure.absorb(edge.name);
        structure.absorb(edge.type);
        structure.absorb(static_cast<std::uint64_t>(edge.src.index));
        structure.absorb(static_cast<std::uint64_t>(edge.dst.index));
        structure.absorb(edge.enabled);
        structure.absorb(edge.switchable);
        structure.absorb(static_cast<std::uint64_t>(edge.attrs.size()));
    }

    // Attribute values split between the lanes in the compiler's
    // canonical order: the values lane is the parameter vector, then
    // the initial values.
    std::vector<double> params;
    compiler::forEachAttr(
        graph, params,
        [&structure](const std::string &name, const expr::Value &value,
                     const expr::Lambda *lifted) {
            absorbAttr(structure, name, value, lifted);
        });
    for (double param : params)
        values.absorb(param);
    for (std::size_t i = 0; i < graph.numNodes(); ++i) {
        const dg::Node &node =
            graph.node(dg::NodeId{static_cast<std::int32_t>(i)});
        for (const std::optional<expr::Value> &init : node.inits)
            if (init.has_value())
                values.absorb(*init);
    }

    GraphFingerprint fp;
    fp.structure = structure.finish();
    fp.values = values.finish();
    Hasher combined;
    combined.absorb(fp.structure.hi);
    combined.absorb(fp.structure.lo);
    combined.absorb(fp.values.hi);
    combined.absorb(fp.values.lo);
    fp.combined = combined.finish();
    return fp;
}

namespace {

void
absorbPattern(Hasher &h, const support::SparseMatrix &m)
{
    h.absorb(static_cast<std::uint64_t>(m.rows()));
    h.absorb(static_cast<std::uint64_t>(m.cols()));
    for (std::size_t p : m.rowPtr())
        h.absorb(static_cast<std::uint64_t>(p));
    for (std::size_t c : m.colIndex())
        h.absorb(static_cast<std::uint64_t>(c));
}

} // namespace

MnaFingerprint
fingerprintMna(const spice::SparseMnaSystem &system)
{
    MnaFingerprint fp;

    Hasher pattern;
    pattern.absorb(static_cast<std::uint64_t>(system.size()));
    pattern.absorb(static_cast<std::uint64_t>(system.numNodeUnknowns()));
    absorbPattern(pattern, system.massMatrix());
    absorbPattern(pattern, system.stiffnessMatrix());
    for (std::size_t r = 0; r < system.size(); ++r)
        pattern.absorb(system.rowIsDynamic(r));
    // Source placement mirrors sharesStructure: rows and signs matter
    // for grouping; dc levels and waveforms are RHS-only.
    const auto &sources = system.sources();
    pattern.absorb(static_cast<std::uint64_t>(sources.size()));
    for (const spice::detail::SourceEntry &entry : sources) {
        pattern.absorb(static_cast<std::uint64_t>(entry.row));
        pattern.absorb(entry.sign);
    }
    fp.pattern = pattern.finish();

    Hasher values;
    for (double v : system.massMatrix().values())
        values.absorb(v);
    for (double v : system.stiffnessMatrix().values())
        values.absorb(v);
    fp.values = values.finish();
    return fp;
}

Fingerprint
stepperKey(const MnaFingerprint &pattern,
           const Fingerprint &pivotSourceValues,
           const Fingerprint &boundValues, double dt, double finalH)
{
    Hasher h;
    h.absorb(pattern.pattern.hi);
    h.absorb(pattern.pattern.lo);
    h.absorb(pivotSourceValues.hi);
    h.absorb(pivotSourceValues.lo);
    h.absorb(boundValues.hi);
    h.absorb(boundValues.lo);
    h.absorb(dt);
    h.absorb(finalH);
    return h.finish();
}

Fingerprint
kernelKey(const expr::LaneTape &tape)
{
    // Bump on any change to the emitted C (expr::emitKernelC, an
    // ARK_TAPE_OPS row, a builtin's C name or helper), the kernel
    // ABI, or the compile flags: the version is hashed into every
    // key, so old disk-cache entries become unreachable rather than
    // stale.
    constexpr std::uint64_t kEmitterVersion = 3;

    const auto index = [](std::int32_t i) {
        return static_cast<std::uint64_t>(static_cast<std::uint32_t>(i));
    };
    Hasher h;
    h.absorb(kEmitterVersion);
    h.absorb(static_cast<std::uint64_t>(tape.width()));
    h.absorb(static_cast<std::uint64_t>(tape.numOutputs()));
    h.absorb(index(tape.numRegs()));
    h.absorb(static_cast<std::uint64_t>(tape.size()));
    for (const expr::TapeOp &op : tape.ops()) {
        h.absorb(static_cast<std::uint64_t>(op.op));
        h.absorb(static_cast<std::uint64_t>(
            op.op == expr::OpCode::CallB ? op.builtin
                                         : expr::Builtin::Sin));
        h.absorb(index(op.dst));
        h.absorb(index(op.a));
        h.absorb(index(op.b));
        h.absorb(index(op.c));
        // op.imm is call-time data (the per-lane constant table) and
        // is deliberately not hashed.
    }
    return h.finish();
}

} // namespace ark::engine
