#ifndef ARK_ENGINE_FINGERPRINT_H
#define ARK_ENGINE_FINGERPRINT_H

/**
 * @file
 * Content-addressed fingerprints for compiled artifacts.
 *
 * Ark's repeated-evaluation workloads (PUF challenge batteries,
 * max-cut restarts, cross-validation sweeps) evaluate a small set of
 * *structures* under thousands of parameter draws. The engine layer
 * shares the expensive per-structure work — ILP validation, compiler
 * lowering, sparse companion factorization — by addressing every
 * artifact with a canonical content hash of its inputs:
 *
 *  - a dynamical graph (plus the language it is written in) hashes to
 *    a GraphFingerprint, split the way compiler templates split a
 *    graph (compiler/compiler.h). The *structure* lane covers what a
 *    template is lowered from: the language, node/edge names, types,
 *    wiring, switch states, attribute names and kinds, the
 *    compiler::RealClass of every real attribute (ordinary, or one of
 *    ±0, ±1, which fold identities rewrite on), int and bool values,
 *    and lambda shapes (bodies with their ordinary real literals
 *    lifted to parameters). The *values* lane is the graph's
 *    parameter vector (compiler::parameterVector: the ordinary real
 *    attribute values and lambda literals, in canonical order)
 *    followed by the initial values, bit-exact.
 *
 *    Graphs with equal structure lanes compile to programs that
 *    differ only in Const immediates (one template, bound per
 *    instance) — unless a parameter-only subexpression takes a value
 *    the folder acts on (±0, ±1, a branch decision) in one graph and
 *    not in the other, which makes compiler::bind fall back to a
 *    template of the graph's own. Graphs with equal *combined*
 *    fingerprints compile to bit-identical OdeSystems (equal
 *    equations, tapes, and initial states), which is the
 *    ArtifactCache key contract, property-tested in engine_test.
 *
 *  - an assembled SparseMnaSystem hashes to an MnaFingerprint: a
 *    *pattern* lane covering what SparseMnaSystem::sharesStructure
 *    compares (size, M/K sparsity patterns, dynamic-row mask, source
 *    placement) and a *values* lane covering the bit-exact M/K
 *    entries. (pattern, values) determines the trapezoidal companion
 *    factorization for a given step size, so TransientStepper
 *    factorizations are cached under stepperKey(pattern, pivot
 *    source, values, dt, finalH) — the pivot-source lane records
 *    which instance's values chose the pivot order, keeping cached
 *    factors bit-identical to the uncached leader/rebind path.
 *
 * Fingerprints are 128-bit mixes of a byte-level canonical
 * serialization; equality is treated as content equality (collision
 * probability ~2^-64 per pair, negligible against the workload sizes
 * here; sweeps group instances with sharesStructure itself and use
 * MNA fingerprints only as stepper-cache keys).
 */

#include <cstdint>
#include <string>

#include "dg/graph.h"
#include "lang/language.h"
#include "spice/mna.h"

namespace ark::expr {
class LaneTape;
}

namespace ark::engine {

/** A 128-bit content hash. Value type; equality is content equality. */
struct Fingerprint
{
    std::uint64_t hi = 0;
    std::uint64_t lo = 0;

    bool operator==(const Fingerprint &) const = default;

    /** 32-hex-digit rendering (diagnostics, cache dumps). */
    std::string str() const;
};

/** Hash functor for unordered containers keyed by Fingerprint. */
struct FingerprintHash
{
    std::size_t operator()(const Fingerprint &fp) const
    {
        return static_cast<std::size_t>(fp.hi ^ (fp.lo * 0x9e3779b97f4a7c15ull));
    }
};

/**
 * Incremental 128-bit hasher over canonical serializations. Not
 * cryptographic — built to make accidental collisions between
 * distinct artifacts vanishingly unlikely, nothing more.
 */
class Hasher
{
  public:
    void absorb(std::uint64_t x);
    void absorb(double x);
    void absorb(bool x) { absorb(static_cast<std::uint64_t>(x ? 1 : 2)); }
    void absorb(const std::string &s);
    /** Absorbs an expression tree: O(1) via the node's interned
     *  structural digest (bit-exact literals; see expr/expr.h). */
    void absorb(const expr::Expr &e);
    /** Absorbs a runtime value (kind tag + bit-exact payload). */
    void absorb(const expr::Value &v);

    Fingerprint finish() const;

  private:
    std::uint64_t a_ = 0x9e3779b97f4a7c15ull;
    std::uint64_t b_ = 0x6a09e667f3bcc909ull;
};

/** Canonical hash of a dynamical graph bound to a language. */
struct GraphFingerprint
{
    /** Language + topology + switch states + attribute names/kinds +
     *  real classes, int/bool values and lambda shapes: the template
     *  (compiler::lowerTemplate) key. */
    Fingerprint structure;
    /** The parameter vector, then every initial value, bit-exact. */
    Fingerprint values;
    /** Mix of the two lanes: the compiled-artifact cache key. */
    Fingerprint combined;
};

/**
 * Fingerprints `graph` as written in `lang`. Deterministic in the
 * graph contents alone (node/edge insertion order is semantically
 * significant: it fixes the state-vector layout). Effective
 * (post-mismatch-sampling) attribute values are hashed — they are
 * what the compiler lowers.
 */
GraphFingerprint fingerprintGraph(const dg::Graph &graph,
                                  const lang::Language &lang);

/** Canonical hash of an assembled sparse MNA system. */
struct MnaFingerprint
{
    /** What sharesStructure compares: size, M/K patterns, dynamic-row
     *  mask, source placement (rows/signs). Equal patterns share one
     *  symbolic factorization. */
    Fingerprint pattern;
    /** Bit-exact M/K entry values: equal (pattern, values) pairs have
     *  bit-identical companion matrices at any step size. */
    Fingerprint values;
};

MnaFingerprint fingerprintMna(const spice::SparseMnaSystem &system);

/**
 * Cache key for a TransientStepper factorization: the matrix pattern,
 * the values of the instance whose factorization chose the pivot
 * order (the group leader — a stepper built standalone is its own
 * pivot source), the values the factors are bound to, and the exact
 * step sizes (main dt and prepared fractional final step, bit-exact).
 */
Fingerprint stepperKey(const MnaFingerprint &pattern,
                       const Fingerprint &pivotSourceValues,
                       const Fingerprint &boundValues, double dt,
                       double finalH);

/**
 * Cache key for a JIT kernel: the lane tape's structure —
 * opcode stream (operands, destinations, builtins), lane width, and
 * register/output counts — plus the emitter version, so a codegen
 * change invalidates every cached kernel (in memory and on disk).
 * Const immediates are deliberately excluded: they are call-time data
 * (the per-lane constant table), which is what lets one kernel serve
 * every parameter draw of a structure class. FMA needs no separate
 * flag — contracted tapes carry FusedMulAdd opcodes, so their streams
 * already differ.
 */
Fingerprint kernelKey(const expr::LaneTape &tape);

} // namespace ark::engine

#endif // ARK_ENGINE_FINGERPRINT_H
