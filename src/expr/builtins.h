#ifndef ARK_EXPR_BUILTINS_H
#define ARK_EXPR_BUILTINS_H

/**
 * @file
 * Builtin math functions available inside Ark expressions.
 *
 * The set covers the operators the paper's languages use (sin for the
 * Kuramoto model, sat/sat_ni for CNN nonlinearities, pulse for TLN
 * inputs) plus the usual scalar math toolbox. Builtins are pure
 * real->real (or reals->real) functions; they evaluate identically in
 * the tree-walking interpreter and the compiled tape.
 */

#include <cstdint>
#include <string>
#include <vector>

/**
 * ARK_BUILTINS is the single declaration of the builtins; the
 * descriptor table, evalBuiltin() and the lane interpreter's CallB
 * each expand it. A row is
 *
 *   ROW(Id, name, Arity, Parity, cName, Expr)
 *
 * Id is the Builtin enumerator, `name` the spelling in Ark source,
 * Arity the argument count, Parity the row's Parity enumerator (see
 * below), `cName` the C function a JIT kernel calls (math.h or an
 * emitted ark_* helper) with the arguments in order, and Expr the
 * value over the arguments A, B and C (the first Arity are read),
 * spelled with the <cmath> functions (a file expanding Expr includes
 * <cmath>) and the helpers declared below.
 *
 * Row order is the Builtin numbering, which the JIT kernel cache key
 * (engine::kernelKey) hashes through CallB's payload; moving a row or
 * changing a cName re-keys kernels and needs a kEmitterVersion bump.
 * Expr must compute what the cName function computes, bit for bit
 * (jit_test checks every builtin).
 *
 * Parity is Odd when f(-x) is -f(x) and Even when f(-x) is f(x), for
 * every non-NaN x and bit for bit, in both Expr and the cName function
 * on the host's libm; None claims nothing. The tape compiler rewrites
 * on it (expr/fusedtape.h), so marking a row Odd or Even is a claim
 * about the host libm that TapeIsaTest.ParityRowsAreBitwiseSymmetric
 * (jit_test) checks through every evaluator; on a libm where it fails,
 * set the row it names to None. sat is None although it is odd in
 * real arithmetic (|x+1| and |x-1| round asymmetrically), and sgn is
 * None because it maps -0 to +0.
 *
 *   sat     standard CNN saturation, 0.5*(|x+1| - |x-1|);
 *   sat_ni  non-ideal saturation, tanh(1.2 x)/tanh(1.2);
 *   pulse   pulse(t, t0, w), a trapezoidal pulse of unit amplitude.
 */
#define ARK_BUILTINS(ROW)                                              \
    ROW(Sin, "sin", 1, Odd, "sin", std::sin(A))                        \
    ROW(Cos, "cos", 1, Even, "cos", std::cos(A))                       \
    ROW(Tan, "tan", 1, Odd, "tan", std::tan(A))                        \
    ROW(Exp, "exp", 1, None, "exp", std::exp(A))                       \
    ROW(Log, "log", 1, None, "log", std::log(A))                       \
    ROW(Sqrt, "sqrt", 1, None, "sqrt", std::sqrt(A))                   \
    ROW(Abs, "abs", 1, Even, "fabs", std::fabs(A))                     \
    ROW(Tanh, "tanh", 1, Odd, "tanh", std::tanh(A))                    \
    ROW(Sgn, "sgn", 1, None, "ark_sgn",                                \
        A > 0.0 ? 1.0 : (A < 0.0 ? -1.0 : 0.0))                        \
    ROW(Min, "min", 2, None, "ark_min", minFn(A, B))                   \
    ROW(Max, "max", 2, None, "ark_max", maxFn(A, B))                   \
    ROW(Pow, "pow", 2, None, "pow", std::pow(A, B))                    \
    ROW(Sat, "sat", 1, None, "ark_sat", satFn(A))                      \
    ROW(SatNi, "sat_ni", 1, Odd, "ark_sat_ni", satNiFn(A))             \
    ROW(Pulse, "pulse", 3, None, "ark_pulse", pulseFn(A, B, C))

namespace ark::expr {

/** Identifies a builtin; doubles as the tape opcode payload. */
enum class Builtin : std::uint8_t {
#define ARK_BUILTIN_ENUMERATOR(Id, ...) Id,
    ARK_BUILTINS(ARK_BUILTIN_ENUMERATOR)
#undef ARK_BUILTIN_ENUMERATOR
};

/** A builtin's symmetry under negating its argument (the Parity
 *  column of ARK_BUILTINS). */
enum class Parity : std::uint8_t { None, Odd, Even };

/** Descriptor for one builtin function. */
struct BuiltinInfo
{
    Builtin id;
    const char *name;
    int arity;
    Parity parity;
    /** The C function a JIT kernel calls (math.h or an emitted
     *  ark_* helper), with the builtin's arguments in order. */
    const char *cName;
};

/** Looks up a builtin by name; returns nullptr if unknown. */
const BuiltinInfo *findBuiltin(const std::string &name);

/** The descriptor of a builtin id. */
const BuiltinInfo &builtinInfo(Builtin id);

/** All registered builtins (for error hints and fuzz tests). */
const std::vector<BuiltinInfo> &allBuiltins();

/** Evaluates a builtin on already-computed arguments. */
double evalBuiltin(Builtin id, const double *args, int count);

/** Convenience wrappers used directly by analysis code. */
double satFn(double x);
double satNiFn(double x);
double pulseFn(double t, double start, double width);

/**
 * min and max, spelled out rather than fmin/fmax: those may return
 * either operand of a (+0, -0) tie, and compilers treat them as
 * commutative, so the sign of a tie would depend on how each call
 * site compiled. These return x on a tie and the other operand when
 * one is NaN; the JIT emits the same bodies as ark_min/ark_max.
 */
double minFn(double x, double y);
double maxFn(double x, double y);

} // namespace ark::expr

#endif // ARK_EXPR_BUILTINS_H
