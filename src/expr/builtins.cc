#include "expr/builtins.h"

#include <cmath>

#include "support/logging.h"

namespace ark::expr {

namespace {

/** In Builtin order, so builtinInfo() indexes it by id. */
const std::vector<BuiltinInfo> builtinTable = {
#define ARK_BUILTIN_INFO(Id, Name, Arity, Par, CName, Expr)             \
    {Builtin::Id, Name, Arity, Parity::Par, CName},
    ARK_BUILTINS(ARK_BUILTIN_INFO)
#undef ARK_BUILTIN_INFO
};

} // namespace

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
    // An operand slot past the row's arity reads A, never args[1..2].
    switch (id) {
#define ARK_BUILTIN_EVAL(Id, Name, Arity, Par, CName, Expr)             \
      case Builtin::Id: {                                               \
        [[maybe_unused]] const double A = args[0];                      \
        [[maybe_unused]] const double B = Arity > 1 ? args[1] : A;      \
        [[maybe_unused]] const double C = Arity > 2 ? args[2] : A;      \
        return Expr;                                                    \
      }
        ARK_BUILTINS(ARK_BUILTIN_EVAL)
#undef ARK_BUILTIN_EVAL
    }
    support::panic(support::cat("unknown builtin id ",
                                static_cast<int>(id), " count ", count));
}

} // namespace ark::expr
