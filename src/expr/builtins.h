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

namespace ark::expr {

/** Identifies a builtin; doubles as the tape opcode payload. */
enum class Builtin : std::uint8_t {
    Sin, Cos, Tan, Exp, Log, Sqrt, Abs, Tanh, Sgn,
    Min, Max, Pow,
    Sat,    ///< Standard CNN saturation: 0.5*(|x+1| - |x-1|).
    SatNi,  ///< Non-ideal saturation: tanh(1.2 x)/tanh(1.2).
    Pulse,  ///< pulse(t, t0, w): trapezoidal pulse, unit amplitude.
};

/** Descriptor for one builtin function. */
struct BuiltinInfo
{
    Builtin id;
    const char *name;
    int arity;
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

} // namespace ark::expr

#endif // ARK_EXPR_BUILTINS_H
