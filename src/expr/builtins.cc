#include "expr/builtins.h"

#include <cmath>

#include "support/logging.h"

namespace ark::expr {

namespace {

/** In Builtin order, so builtinInfo() indexes it by id. */
const std::vector<BuiltinInfo> builtinTable = {
    {Builtin::Sin, "sin", 1, "sin"},
    {Builtin::Cos, "cos", 1, "cos"},
    {Builtin::Tan, "tan", 1, "tan"},
    {Builtin::Exp, "exp", 1, "exp"},
    {Builtin::Log, "log", 1, "log"},
    {Builtin::Sqrt, "sqrt", 1, "sqrt"},
    {Builtin::Abs, "abs", 1, "fabs"},
    {Builtin::Tanh, "tanh", 1, "tanh"},
    {Builtin::Sgn, "sgn", 1, "ark_sgn"},
    {Builtin::Min, "min", 2, "ark_min"},
    {Builtin::Max, "max", 2, "ark_max"},
    {Builtin::Pow, "pow", 2, "pow"},
    {Builtin::Sat, "sat", 1, "ark_sat"},
    {Builtin::SatNi, "sat_ni", 1, "ark_sat_ni"},
    {Builtin::Pulse, "pulse", 3, "ark_pulse"},
};

// min and max are spelled out rather than fmin/fmax: those may return
// either operand of a (+0, -0) tie, and compilers treat them as
// commutative, so the sign of a tie would depend on how each call
// site compiled. These return x on a tie and the other operand when
// one is NaN; the JIT emits the same bodies as ark_min/ark_max.

double
minFn(double x, double y)
{
    return (y < x || std::isnan(x)) ? y : x;
}

double
maxFn(double x, double y)
{
    return (y > x || std::isnan(x)) ? y : x;
}

} // namespace

const BuiltinInfo *
findBuiltin(const std::string &name)
{
    for (const auto &info : builtinTable)
        if (name == info.name)
            return &info;
    return nullptr;
}

const BuiltinInfo &
builtinInfo(Builtin id)
{
    const auto index = static_cast<std::size_t>(id);
    if (index >= builtinTable.size() || builtinTable[index].id != id)
        support::panic(support::cat("unknown builtin id ", index));
    return builtinTable[index];
}

const std::vector<BuiltinInfo> &
allBuiltins()
{
    return builtinTable;
}

double
satFn(double x)
{
    // Chua-Yang piecewise-linear saturation, the classic CNN f(x).
    return 0.5 * (std::fabs(x + 1.0) - std::fabs(x - 1.0));
}

double
satNiFn(double x)
{
    // MOS differential-pair-like soft saturation: smooth knees, unit
    // endpoints (sat_ni(1) == 1), steeper small-signal gain (~1.44).
    static const double scale = std::tanh(1.2);
    return std::tanh(1.2 * x) / scale;
}

double
pulseFn(double t, double start, double width)
{
    // Trapezoidal pulse of unit amplitude: linear rise/fall over 5% of
    // the width, flat top in between. Zero outside [start, start+width].
    if (width <= 0.0)
        return 0.0;
    double ramp = 0.05 * width;
    double rel = t - start;
    if (rel <= 0.0 || rel >= width)
        return 0.0;
    if (rel < ramp)
        return rel / ramp;
    if (rel > width - ramp)
        return (width - rel) / ramp;
    return 1.0;
}

double
evalBuiltin(Builtin id, const double *args, int count)
{
    switch (id) {
      case Builtin::Sin:
        return std::sin(args[0]);
      case Builtin::Cos:
        return std::cos(args[0]);
      case Builtin::Tan:
        return std::tan(args[0]);
      case Builtin::Exp:
        return std::exp(args[0]);
      case Builtin::Log:
        return std::log(args[0]);
      case Builtin::Sqrt:
        return std::sqrt(args[0]);
      case Builtin::Abs:
        return std::fabs(args[0]);
      case Builtin::Tanh:
        return std::tanh(args[0]);
      case Builtin::Sgn:
        return args[0] > 0.0 ? 1.0 : (args[0] < 0.0 ? -1.0 : 0.0);
      case Builtin::Min:
        return minFn(args[0], args[1]);
      case Builtin::Max:
        return maxFn(args[0], args[1]);
      case Builtin::Pow:
        return std::pow(args[0], args[1]);
      case Builtin::Sat:
        return satFn(args[0]);
      case Builtin::SatNi:
        return satNiFn(args[0]);
      case Builtin::Pulse:
        return pulseFn(args[0], args[1], args[2]);
    }
    support::panic(support::cat("unknown builtin id ",
                                static_cast<int>(id), " count ", count));
}

} // namespace ark::expr
