/**
 * @file
 * Tests for JIT native kernel execution (expr/cjit.h +
 * engine/jit.h): the C emitter, every tape opcode and builtin on
 * special values through the oracle, the lane interpreter and the
 * kernel, the bitwise symmetry of the builtins marked odd or even,
 * the kernel-vs-interpreter bit-identity
 * property across random TLN/OBC/CNN programs at every lane width
 * (with and without FMA contraction), per-lane constant delivery
 * through merged tapes, ensemble-level bit-identity with the JIT on
 * and off under both integrators, ledger tier provenance, the
 * structure-only cache key, the bounded on-disk object cache
 * (persistence, warm loads, corruption healing), and the graceful
 * interpreted-tier fallback when compilation is forced to fail
 * through FaultSite::JitCompile.
 *
 * Tolerance note: a kernel executes the LaneTape instruction stream
 * as straight-line C compiled with -fno-fast-math -ffp-contract=off,
 * one IEEE operation per instruction in stream order, so outputs are
 * asserted bit-identical (tolerance zero) — the same contract
 * lanetape_test.cc holds the interpreter to.
 *
 * Every test that needs a kernel skips when the host has no working C
 * toolchain; the suite still proves the emitter and the fallback path
 * on such hosts.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <numbers>
#include <string>
#include <vector>

#include "compiler/compiler.h"
#include "engine/cache.h"
#include "engine/fingerprint.h"
#include "engine/jit.h"
#include "expr/cjit.h"
#include "expr/fusedtape.h"
#include "expr/lanetape.h"
#include "paradigms/cnn.h"
#include "paradigms/obc.h"
#include "paradigms/standard.h"
#include "paradigms/tln.h"
#include "sim/sim.h"
#include "support/dl.h"
#include "support/faultinject.h"
#include "support/ledger.h"
#include "support/rng.h"
#include "support/telemetry.h"

namespace {

using namespace ark;
using expr::BinOp;
using expr::Expr;
using expr::ExprPtr;
using expr::FusedTape;
using expr::LaneTape;

/** dq0 = sin(q0 - q1) * q1, dq1 = q0 / (q1 + 3) + t. */
FusedTape
sampleTape()
{
    std::vector<ExprPtr> outputs{
        Expr::binary(BinOp::Mul,
                     Expr::call("sin",
                                {Expr::binary(BinOp::Sub,
                                              Expr::stateVar(0),
                                              Expr::stateVar(1))}),
                     Expr::stateVar(1)),
        Expr::binary(BinOp::Add,
                     Expr::binary(BinOp::Div, Expr::stateVar(0),
                                  Expr::binary(BinOp::Add,
                                               Expr::stateVar(1),
                                               Expr::real(3.0))),
                     Expr::time()),
    };
    return FusedTape::compile(outputs);
}

/**
 * Compiles `tape`'s kernel (bypassing every cache) and checks it
 * against the interpreter bit-for-bit on a random state block.
 */
void
expectKernelMatchesTape(const LaneTape &tape, support::Rng &rng, double t)
{
    expr::JitKernelPtr kernel = expr::compileKernel(tape, "");
    ASSERT_NE(kernel, nullptr);
    EXPECT_EQ(kernel->width(), tape.width());
    EXPECT_EQ(kernel->numOutputs(), tape.numOutputs());

    const std::size_t n = tape.numOutputs();
    const std::size_t w = tape.width();
    std::vector<double> state(n * w);
    for (double &v : state)
        v = rng.uniform(-2.0, 2.0);
    std::vector<double> expected(n * w), actual(n * w);
    std::vector<double> regs(tape.scratchSize());
    tape.evalInto(state.data(), t, expected.data(), regs.data());
    kernel->call(state.data(), t, actual.data(),
                 tape.constants().data());
    for (std::size_t i = 0; i < n * w; ++i)
        EXPECT_EQ(actual[i], expected[i]) << "slot " << i;
}

/** Base fixture: skip without a toolchain, keep the disk cache out of
 *  the picture unless a test opts back in, disarm any faults. */
class JitTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        if (!expr::jitToolchainAvailable())
            GTEST_SKIP() << "no host C toolchain";
        // Hermetic by default: an empty value disables the on-disk
        // object cache (re-read per compile, so tests can retarget).
        setenv("ARK_JIT_CACHE_DIR", "", 1);
    }

    void TearDown() override
    {
        unsetenv("ARK_JIT_CACHE_DIR");
        support::FaultInjector::disarmAll();
    }
};

TEST(JitEmitterTest, EmitsDeterministicKernelSource)
{
    // The emitter needs no toolchain: it is a pure function of the
    // tape, so two calls must produce byte-identical C.
    FusedTape fused = sampleTape();
    LaneTape tape = LaneTape::broadcast(fused, 3);
    const std::string src = expr::emitKernelC(tape);
    EXPECT_NE(src.find("#include <math.h>"), std::string::npos);
    EXPECT_NE(src.find("void ark_kernel"), std::string::npos);
    EXPECT_NE(src.find("sin("), std::string::npos);
    EXPECT_EQ(src, expr::emitKernelC(tape));
}

TEST(JitKeyTest, KeyIsStructureOnly)
{
    // Same structure, different Const immediates: one kernel serves
    // both (constants arrive at call time), so the keys must match.
    auto makeTape = [](double k, double c) {
        return FusedTape::compile({Expr::binary(
            BinOp::Add,
            Expr::binary(BinOp::Mul, Expr::real(-k), Expr::stateVar(0)),
            Expr::real(c))});
    };
    FusedTape a = makeTape(2.0, 0.5);
    FusedTape b = makeTape(3.5, -1.25);
    EXPECT_EQ(engine::kernelKey(LaneTape::broadcast(a, 4)),
              engine::kernelKey(LaneTape::broadcast(b, 4)));
    // Width is part of the key: a W=4 kernel cannot serve W=8 blocks.
    EXPECT_NE(engine::kernelKey(LaneTape::broadcast(a, 4)),
              engine::kernelKey(LaneTape::broadcast(a, 8)));
    // A structurally different program keys differently.
    FusedTape other = sampleTape();
    EXPECT_NE(engine::kernelKey(LaneTape::broadcast(a, 4)),
              engine::kernelKey(LaneTape::broadcast(other, 4)));
}

TEST(JitKeyTest, SampleProgramKeyIsPinned)
{
    // On-disk kernels are named by this key. A change to the LaneTape
    // program the emitter reads (ops(), constants(), register count)
    // must bump kEmitterVersion, never silently re-key old entries.
    FusedTape fused = sampleTape();
    EXPECT_EQ(engine::kernelKey(LaneTape::broadcast(fused, 1)).str(),
              "221f0de6ee2e2ed36baefdeec3e7ff6b");
    EXPECT_EQ(engine::kernelKey(LaneTape::broadcast(fused, 8)).str(),
              "2017e7e48be8dc7623af8413da558388");
}

TEST_F(JitTest, KernelMatchesInterpreterOnSampleProgram)
{
    FusedTape fused = sampleTape();
    support::Rng rng(11);
    for (std::size_t lanes : {1u, 2u, 3u, 4u, 6u, 8u})
        expectKernelMatchesTape(LaneTape::broadcast(fused, lanes), rng,
                                0.75);
}

TEST_F(JitTest, MergedConstantsTravelThroughConstsArgument)
{
    // The PUF-mismatch shape in miniature: one structure, per-lane
    // parameters — the kernel must read them from the consts table.
    auto makeTape = [](double k, double c) {
        return FusedTape::compile({Expr::binary(
            BinOp::Add,
            Expr::binary(BinOp::Mul, Expr::real(-k), Expr::stateVar(0)),
            Expr::real(c))});
    };
    FusedTape a = makeTape(2.0, 0.5);
    FusedTape b = makeTape(3.5, -1.25);
    FusedTape c = makeTape(0.125, 7.0);
    std::optional<LaneTape> lane = LaneTape::merge({&a, &b, &c});
    ASSERT_TRUE(lane.has_value());
    support::Rng rng(23);
    expectKernelMatchesTape(*lane, rng, 0.0);
}

/** One row of the tape ISA, listed from the table itself. */
struct IsaRow
{
    expr::OpCode op;
    const char *name;
};

#define ARK_TEST_ISA_ROW(Name, ...) {expr::OpCode::Name, #Name},
const std::vector<IsaRow> kIsaRows = {
    ARK_TAPE_OPS(ARK_TEST_ISA_ROW, ARK_TEST_ISA_ROW)};
#undef ARK_TEST_ISA_ROW

/**
 * One output per operator and per builtin over x = q0, y = q1,
 * z = q2 and t. The product y*z feeds only one Add, so the
 * fuseMulAdd compile contracts it into a FusedMulAdd.
 */
std::vector<ExprPtr>
everyOpProgram()
{
    const ExprPtr x = Expr::stateVar(0), y = Expr::stateVar(1),
                  z = Expr::stateVar(2);
    std::vector<ExprPtr> outputs{
        Expr::unary(expr::UnOp::Neg, x),
        Expr::unary(expr::UnOp::Not, x),
        Expr::ifThenElse(z, x, y),
        Expr::binary(BinOp::Add, Expr::binary(BinOp::Mul, y, z), x),
        Expr::binary(BinOp::Mul, Expr::time(), Expr::real(0.5)),
    };
    for (BinOp op : {BinOp::Add, BinOp::Sub, BinOp::Mul, BinOp::Div,
                     BinOp::Pow, BinOp::Lt, BinOp::Le, BinOp::Gt,
                     BinOp::Ge, BinOp::Eq, BinOp::Ne, BinOp::And,
                     BinOp::Or})
        outputs.push_back(Expr::binary(op, x, y));
    for (const expr::BuiltinInfo &info : expr::allBuiltins()) {
        std::vector<ExprPtr> args{x, y, z};
        args.resize(static_cast<std::size_t>(info.arity));
        outputs.push_back(Expr::call(info.name, args));
    }
    return outputs;
}

/** Bitwise equality, except that any NaN matches any NaN. */
bool
sameBits(double a, double b)
{
    return (std::isnan(a) && std::isnan(b)) ||
           std::bit_cast<std::uint64_t>(a) ==
               std::bit_cast<std::uint64_t>(b);
}

TEST(TapeIsaTest, EveryOpcodeAndBuiltinAgreesOnSpecialValues)
{
    // Every opcode and builtin, on every evaluator — the FusedTape
    // oracle, the LaneTape interpreter and (given a toolchain) the JIT
    // kernel at W = 1, 2, 4, 8 — over every (x, y, z) triple of a
    // grid of special values, where min/max ties, signed zeros,
    // infinities, NaNs and subnormals live.
    const double inf = std::numeric_limits<double>::infinity();
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double tiny = std::numeric_limits<double>::denorm_min();
    const std::vector<double> grid{0.0,  -0.0,  1.0,   -1.0, 0.5,
                                   -2.5, inf,   -inf,  nan,  -nan,
                                   tiny, -tiny, 1e-320, 1e300, -1e300};
    const std::size_t g = grid.size();
    const std::size_t points = g * g * g;
    // Point p: x, y, z index the grid in base g; t is shared by each
    // aligned group of 8 points, so every lane block sees one time.
    auto input = [&](std::size_t p, std::size_t var) {
        for (std::size_t i = 0; i < var; ++i)
            p /= g;
        return grid[p % g];
    };
    auto timeOf = [&](std::size_t p) { return grid[(p / 8) % g]; };

    const std::vector<ExprPtr> outputs = everyOpProgram();
    std::vector<bool> opSeen(kIsaRows.size(), false);
    std::vector<bool> builtinSeen(expr::allBuiltins().size(), false);
    for (bool fma : {false, true}) {
        const FusedTape fused = FusedTape::compile(outputs, fma);
        for (const expr::TapeOp &op : fused.ops()) {
            opSeen[static_cast<std::size_t>(op.op)] = true;
            if (op.op == expr::OpCode::CallB)
                builtinSeen[static_cast<std::size_t>(op.builtin)] = true;
        }
        const std::size_t n = fused.numOutputs();

        // The oracle, one point at a time.
        std::vector<double> expected(points * n);
        for (std::size_t p = 0; p < points; ++p) {
            const std::vector<double> state{input(p, 0), input(p, 1),
                                            input(p, 2)};
            const std::vector<double> out =
                fused.evalAlloc(state, timeOf(p));
            std::copy(out.begin(), out.end(), expected.begin() + p * n);
        }

        std::size_t mismatches = 0;
        for (std::size_t lanes : {1u, 2u, 4u, 8u}) {
            const LaneTape tape = LaneTape::broadcast(fused, lanes);
            expr::JitKernelPtr kernel;
            if (expr::jitToolchainAvailable()) {
                kernel = expr::compileKernel(tape, "");
                ASSERT_NE(kernel, nullptr) << "width " << lanes;
            }
            std::vector<double> state(3 * lanes), out(n * lanes),
                regs(tape.scratchSize());
            auto check = [&](const char *tier, std::size_t first) {
                for (std::size_t l = 0; l < lanes && first + l < points;
                     ++l)
                    for (std::size_t k = 0; k < n; ++k) {
                        const double want = expected[(first + l) * n + k];
                        const double got = out[k * lanes + l];
                        if (sameBits(want, got) || ++mismatches > 10)
                            continue;
                        ADD_FAILURE()
                            << tier << " W=" << lanes << " fma=" << fma
                            << " " << outputs[k]->str() << " at x="
                            << input(first + l, 0) << " y="
                            << input(first + l, 1) << " z="
                            << input(first + l, 2)
                            << " t=" << timeOf(first)
                            << ": oracle " << want << ", got " << got;
                    }
            };
            for (std::size_t first = 0; first < points; first += lanes) {
                // The last block's padding lanes repeat its first point.
                for (std::size_t l = 0; l < lanes; ++l)
                    for (std::size_t var = 0; var < 3; ++var)
                        state[var * lanes + l] = input(
                            first + l < points ? first + l : first, var);
                tape.evalInto(state.data(), timeOf(first), out.data(),
                              regs.data());
                check("interpreter", first);
                if (kernel == nullptr)
                    continue;
                kernel->call(state.data(), timeOf(first), out.data(),
                             tape.constants().data());
                check("kernel", first);
            }
        }
        EXPECT_EQ(mismatches, 0u) << "fma=" << fma;
    }
    // A new ARK_TAPE_OPS row or builtin fails here until the program
    // above exercises it.
    for (const IsaRow &row : kIsaRows)
        EXPECT_TRUE(opSeen[static_cast<std::size_t>(row.op)])
            << row.name << " is not exercised";
    for (const expr::BuiltinInfo &info : expr::allBuiltins())
        EXPECT_TRUE(builtinSeen[static_cast<std::size_t>(info.id)])
            << info.name << " is not exercised";
}

/**
 * Arguments for the parity check: the special-value grid, 32 ulps
 * either side of glibc's argument-range boundaries for sin/cos and
 * tanh, huge and subnormal magnitudes, ordinary reals and random bit
 * patterns.
 */
std::vector<double>
parityInputs()
{
    const double inf = std::numeric_limits<double>::infinity();
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double tiny = std::numeric_limits<double>::denorm_min();
    std::vector<double> inputs{0.0,  -0.0,  1.0,    -1.0,  0.5,
                               -2.5, inf,   -inf,   nan,   -nan,
                               tiny, -tiny, 1e-320, 1e300, -1e300,
                               std::numeric_limits<double>::max(),
                               std::numeric_limits<double>::min(),
                               1e22, 0x1p63, 0x1p1023};
    // High words of 2^-27, 2^-26, 0.855469, 2.426265 and 105414350
    // (sin/cos), and of 2^-55, 1 and 22 (tanh).
    for (std::uint64_t high : {0x3e400000ull, 0x3e500000ull, 0x3feb6000ull,
                               0x400368fdull, 0x419921fbull, 0x3c800000ull,
                               0x3ff00000ull, 0x40360000ull})
        for (std::int64_t ulps = -32; ulps <= 32; ++ulps)
            inputs.push_back(std::bit_cast<double>(
                (high << 32) + static_cast<std::uint64_t>(ulps)));
    support::Rng rng(2309);
    for (int i = 0; i < 2000; ++i) {
        const auto exponent = static_cast<int>(rng.uniformInt(27, 1023));
        inputs.push_back(std::ldexp(rng.uniform(1.0, 2.0), exponent));
        inputs.push_back(std::bit_cast<double>(
            rng.nextU64() & ((std::uint64_t{1} << 52) - 1)));
        inputs.push_back(rng.uniform(-8.0, 8.0));
    }
    for (int i = 0; i < 20000; ++i)
        inputs.push_back(std::bit_cast<double>(rng.nextU64()));
    return inputs;
}

TEST(TapeIsaTest, ParityRowsAreBitwiseSymmetric)
{
    // A row marked Odd or Even lets the tape compiler rewrite f(-x) as
    // -f(x) or f(x) (expr/builtins.h). That is a claim about the host
    // libm, checked here through every evaluator: the oracle, the lane
    // interpreter at W = 1 and W = 8 and, given a toolchain, the JIT
    // kernel. A failure names the row; on such a libm, set the row's
    // Parity to None.
    std::vector<const expr::BuiltinInfo *> rows;
    std::vector<ExprPtr> outputs;
    for (const expr::BuiltinInfo &info : expr::allBuiltins()) {
        if (info.parity == expr::Parity::None)
            continue;
        ASSERT_EQ(info.arity, 1) << info.name;
        rows.push_back(&info);
        outputs.push_back(Expr::call(info.name, {Expr::stateVar(0)}));
    }
    ASSERT_FALSE(rows.empty());
    const std::vector<double> inputs = parityInputs();

    std::vector<std::size_t> failures(rows.size(), 0);
    auto expectSymmetric = [&](const char *tier, std::size_t r, double x,
                               double fx, double fnx) {
        const double want =
            rows[r]->parity == expr::Parity::Odd ? -fx : fx;
        if (sameBits(fnx, want) || ++failures[r] > 5)
            return;
        ADD_FAILURE() << rows[r]->name << " is not bitwise "
                      << (rows[r]->parity == expr::Parity::Odd ? "odd"
                                                               : "even")
                      << " in the " << tier << " at x=" << std::hexfloat
                      << x << ": f(x)=" << fx << ", f(-x)=" << fnx;
    };

    for (std::size_t r = 0; r < rows.size(); ++r)
        for (double x : inputs) {
            const double nx = -x;
            expectSymmetric("oracle", r, x,
                            expr::evalBuiltin(rows[r]->id, &x, 1),
                            expr::evalBuiltin(rows[r]->id, &nx, 1));
        }

    const FusedTape fused = FusedTape::compile(outputs);
    const std::size_t n = outputs.size();
    for (std::size_t lanes : {1u, 8u}) {
        const LaneTape tape = LaneTape::broadcast(fused, lanes);
        expr::JitKernelPtr kernel;
        if (expr::jitToolchainAvailable()) {
            kernel = expr::compileKernel(tape, "");
            ASSERT_NE(kernel, nullptr) << "width " << lanes;
        }
        std::vector<double> x(lanes), nx(lanes), fx(n * lanes),
            fnx(n * lanes), regs(tape.scratchSize());
        auto check = [&](const char *tier, std::size_t first) {
            for (std::size_t r = 0; r < n; ++r)
                for (std::size_t l = 0;
                     l < lanes && first + l < inputs.size(); ++l)
                    expectSymmetric(tier, r, x[l], fx[r * lanes + l],
                                    fnx[r * lanes + l]);
        };
        for (std::size_t first = 0; first < inputs.size();
             first += lanes) {
            for (std::size_t l = 0; l < lanes; ++l) {
                x[l] = inputs[first + l < inputs.size() ? first + l
                                                        : first];
                nx[l] = -x[l];
            }
            tape.evalInto(x.data(), 0.0, fx.data(), regs.data());
            tape.evalInto(nx.data(), 0.0, fnx.data(), regs.data());
            check(lanes == 1 ? "interpreter W=1" : "interpreter W=8",
                  first);
            if (kernel == nullptr)
                continue;
            kernel->call(x.data(), 0.0, fx.data(),
                         tape.constants().data());
            kernel->call(nx.data(), 0.0, fnx.data(),
                         tape.constants().data());
            check(lanes == 1 ? "kernel W=1" : "kernel W=8", first);
        }
    }
    for (std::size_t r = 0; r < rows.size(); ++r)
        EXPECT_EQ(failures[r], 0u)
            << rows[r]->name << ": set its Parity to None on this libm";
}

/**
 * Property: on real compiled systems, the kernel reproduces the
 * interpreter bit-for-bit at widths 1/2/4/8, on both the plain and
 * the FMA-contracted program.
 */
class JitEquivalence : public ::testing::TestWithParam<int>
{
  protected:
    static void SetUpTestSuite()
    {
        registry_ = new lang::LanguageRegistry(
            paradigms::makeStandardRegistry());
    }
    static void TearDownTestSuite()
    {
        delete registry_;
        registry_ = nullptr;
    }

    void SetUp() override
    {
        if (!expr::jitToolchainAvailable())
            GTEST_SKIP() << "no host C toolchain";
        setenv("ARK_JIT_CACHE_DIR", "", 1);
    }
    void TearDown() override { unsetenv("ARK_JIT_CACHE_DIR"); }

    static lang::LanguageRegistry *registry_;
};

lang::LanguageRegistry *JitEquivalence::registry_ = nullptr;

void
expectJitAgreement(const compiler::OdeSystem &system, support::Rng &rng)
{
    for (bool fma : {false, true}) {
        const FusedTape &fused = system.rhsTape(
            fma ? expr::RoundingMode::Fma : expr::RoundingMode::Exact);
        for (std::size_t lanes : {1u, 2u, 4u, 8u}) {
            expectKernelMatchesTape(LaneTape::broadcast(fused, lanes),
                                    rng, rng.uniform(0.0, 1e-7));
        }
    }
}

TEST_P(JitEquivalence, RandomTlnSystem)
{
    support::Rng rng(1000 + static_cast<std::uint64_t>(GetParam()));
    paradigms::tln::LineSpec spec;
    spec.sections = static_cast<int>(rng.uniformInt(3, 24));
    spec.inductance = rng.uniform(0.5e-9, 2e-9);
    spec.capacitance = rng.uniform(0.5e-9, 2e-9);
    const lang::Language &tln = registry_->language("tln");
    compiler::OdeSystem system =
        compiler::compile(paradigms::tln::buildLine(tln, spec), tln);
    expectJitAgreement(system, rng);
}

TEST_P(JitEquivalence, RandomObcSystem)
{
    support::Rng rng(2000 + static_cast<std::uint64_t>(GetParam()));
    paradigms::obc::MaxcutInstance instance;
    instance.numVertices = static_cast<int>(rng.uniformInt(3, 6));
    for (int a = 0; a < instance.numVertices; ++a)
        for (int b = a + 1; b < instance.numVertices; ++b)
            if (rng.bernoulli(0.6))
                instance.edges.emplace_back(a, b);
    paradigms::obc::MaxcutSpec spec;
    for (int v = 0; v < instance.numVertices; ++v)
        spec.initPhases.push_back(
            rng.uniform(0.0, 2.0 * std::numbers::pi));
    const lang::Language &obc = registry_->language("obc");
    compiler::OdeSystem system = compiler::compile(
        paradigms::obc::buildMaxcut(obc, instance, spec), obc);
    expectJitAgreement(system, rng);
}

TEST_P(JitEquivalence, RandomCnnSystem)
{
    support::Rng rng(3000 + static_cast<std::uint64_t>(GetParam()));
    paradigms::cnn::CnnSpec spec;
    spec.width = static_cast<int>(rng.uniformInt(3, 6));
    spec.height = static_cast<int>(rng.uniformInt(3, 6));
    std::vector<double> input;
    for (int i = 0; i < spec.width * spec.height; ++i)
        input.push_back(rng.bernoulli(0.5) ? 1.0 : -1.0);
    const lang::Language &cnn = registry_->language("cnn");
    compiler::OdeSystem system = compiler::compile(
        paradigms::cnn::buildCnn(cnn, spec, input), cnn);
    expectJitAgreement(system, rng);
}

INSTANTIATE_TEST_SUITE_P(Seeds, JitEquivalence, ::testing::Range(0, 4));

/** Mismatched-but-compatible TLN lines for ensemble-level tests. */
std::vector<compiler::OdeSystem>
mismatchedLines(const lang::LanguageRegistry &registry, int sections,
                std::size_t count)
{
    const lang::Language &gmc = registry.language("gmc-tln");
    std::vector<compiler::OdeSystem> systems;
    for (std::uint64_t seed = 1; seed <= count; ++seed) {
        paradigms::tln::LineSpec spec;
        spec.sections = sections;
        spec.mismatchC = true;
        spec.mismatchGm = true;
        spec.seed = seed;
        systems.push_back(
            compiler::compile(paradigms::tln::buildLine(gmc, spec), gmc));
    }
    return systems;
}

void
expectResultsBitIdentical(const std::vector<sim::SimResult> &a,
                          const std::vector<sim::SimResult> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t r = 0; r < a.size(); ++r) {
        EXPECT_EQ(a[r].ok(), b[r].ok()) << "instance " << r;
        EXPECT_EQ(a[r].steps, b[r].steps) << "instance " << r;
        ASSERT_EQ(a[r].trajectory.size(), b[r].trajectory.size())
            << "instance " << r;
        for (std::size_t s = 0; s < a[r].trajectory.size(); ++s) {
            EXPECT_EQ(a[r].trajectory.time(s), b[r].trajectory.time(s));
            const auto &sa = a[r].trajectory.state(s);
            const auto &sb = b[r].trajectory.state(s);
            ASSERT_EQ(sa.size(), sb.size());
            for (std::size_t i = 0; i < sa.size(); ++i)
                EXPECT_EQ(sa[i], sb[i])
                    << "instance " << r << " sample " << s << " var "
                    << i;
        }
    }
}

TEST_F(JitTest, EnsembleBitIdenticalWithJitOnAndOff)
{
    // Lane blocks (6 instances -> W=8), both integrators: the jitted
    // battery must reproduce the interpreted one bit for bit, width-1
    // compactions and step votes included.
    lang::LanguageRegistry registry = paradigms::makeStandardRegistry();
    std::vector<compiler::OdeSystem> systems =
        mismatchedLines(registry, 8, 6);
    std::vector<const compiler::OdeSystem *> pointers;
    for (const compiler::OdeSystem &system : systems)
        pointers.push_back(&system);

    for (sim::Method method : {sim::Method::Rk4, sim::Method::Dopri5}) {
        sim::EnsembleOptions off;
        off.sim.method = method;
        off.sim.recordDt = 1e-10;
        off.sim.jit = false;
        sim::EnsembleOptions on = off;
        on.sim.jit = true;
        std::vector<sim::SimResult> interpreted =
            sim::simulateEnsemble(pointers, 0.0, 1e-9, off);
        std::vector<sim::SimResult> jitted =
            sim::simulateEnsemble(pointers, 0.0, 1e-9, on);
        expectResultsBitIdentical(interpreted, jitted);
    }
}

TEST_F(JitTest, ScalarPathBitIdenticalWithJitOnAndOff)
{
    // laneBatching off forces the serial driver — sim.cc's width-1
    // evaluator — for both integrators.
    lang::LanguageRegistry registry = paradigms::makeStandardRegistry();
    std::vector<compiler::OdeSystem> systems =
        mismatchedLines(registry, 6, 2);
    std::vector<const compiler::OdeSystem *> pointers;
    for (const compiler::OdeSystem &system : systems)
        pointers.push_back(&system);

    for (sim::Method method : {sim::Method::Rk4, sim::Method::Dopri5}) {
        sim::EnsembleOptions off;
        off.sim.method = method;
        off.sim.recordDt = 1e-10;
        off.laneBatching = false;
        sim::EnsembleOptions on = off;
        on.sim.jit = true;
        std::vector<sim::SimResult> interpreted =
            sim::simulateEnsemble(pointers, 0.0, 1e-9, off);
        std::vector<sim::SimResult> jitted =
            sim::simulateEnsemble(pointers, 0.0, 1e-9, on);
        expectResultsBitIdentical(interpreted, jitted);
    }
}

TEST_F(JitTest, LedgerRecordsJitTierProvenance)
{
    if (!expr::jitEnabled(true))
        GTEST_SKIP() << "JIT force-disabled in this environment";
    lang::LanguageRegistry registry = paradigms::makeStandardRegistry();
    std::vector<compiler::OdeSystem> systems =
        mismatchedLines(registry, 8, 6);
    std::vector<const compiler::OdeSystem *> pointers;
    for (const compiler::OdeSystem &system : systems)
        pointers.push_back(&system);

    telemetry::RunLedger ledger;
    sim::EnsembleOptions options;
    options.sim.recordDt = 1e-10;
    options.sim.jit = true;
    options.ledger = &ledger;
    sim::simulateEnsemble(pointers, 0.0, 1e-9, options);

    std::vector<telemetry::RunLedger::Record> records = ledger.records();
    ASSERT_EQ(records.size(), pointers.size());
    for (const telemetry::RunLedger::Record &record : records)
        EXPECT_EQ(record.tier, telemetry::RunLedger::Tier::Jit);
}

TEST_F(JitTest, CompileFailureFallsBackAndHeals)
{
    // A private cache so the armed fault actually reaches the build
    // (the process-wide cache may already hold this structure).
    engine::ArtifactCache cache;
    LaneTape tape = LaneTape::broadcast(sampleTape(), 4);

    support::FaultInjector::arm(support::FaultSite::JitCompile);
    expr::JitKernelPtr kernel = engine::jitKernel(tape, &cache);
    EXPECT_EQ(kernel, nullptr);
    EXPECT_EQ(
        support::FaultInjector::fired(support::FaultSite::JitCompile),
        1u);
    support::FaultInjector::disarmAll();

    // Failure is not cached: once the fault clears, the same cache
    // serves a real kernel.
    kernel = engine::jitKernel(tape, &cache);
    ASSERT_NE(kernel, nullptr);
}

TEST_F(JitTest, EnsembleFallsBackBitIdenticalUnderForcedFailure)
{
    // Every compile attempt fails for the whole batch: results must
    // be bit-identical to an interpreted run, and the fault must have
    // actually fired (a fallback test that never reached its fault
    // proves nothing). Distinct section count keeps this structure
    // out of the process-wide kernel cache.
    if (!expr::jitEnabled(true))
        GTEST_SKIP() << "JIT force-disabled in this environment";
    lang::LanguageRegistry registry = paradigms::makeStandardRegistry();
    std::vector<compiler::OdeSystem> systems =
        mismatchedLines(registry, 5, 6);
    std::vector<const compiler::OdeSystem *> pointers;
    for (const compiler::OdeSystem &system : systems)
        pointers.push_back(&system);

    // The armed run goes first: this structure is not in the shared
    // kernel cache yet, so the batch must attempt a compile and hit
    // the fault (a later run — or ARK_JIT_FORCE=1 turning the
    // baseline jitted — would warm the cache and starve it).
    sim::EnsembleOptions on;
    on.sim.recordDt = 1e-10;
    on.sim.jit = true;
    support::FaultInjector::arm(support::FaultSite::JitCompile, 0, 64);
    std::vector<sim::SimResult> fallback =
        sim::simulateEnsemble(pointers, 0.0, 1e-9, on);
    const std::uint64_t fired =
        support::FaultInjector::fired(support::FaultSite::JitCompile);
    support::FaultInjector::disarmAll();
    EXPECT_GE(fired, 1u);

    sim::EnsembleOptions off = on;
    off.sim.jit = false;
    std::vector<sim::SimResult> interpreted =
        sim::simulateEnsemble(pointers, 0.0, 1e-9, off);
    expectResultsBitIdentical(interpreted, fallback);
}

TEST_F(JitTest, DiskCachePersistsWarmLoadsAndHealsCorruption)
{
    support::TempDir dir = support::TempDir::create("ark-jit-test-");
    ASSERT_TRUE(dir.ok());
    setenv("ARK_JIT_CACHE_DIR", dir.path().c_str(), 1);
    telemetry::setMetricsEnabled(true);
    telemetry::Counter &diskHits =
        telemetry::Registry::shared().counter("ark.compile.jit_disk_hits");
    telemetry::Counter &compiles =
        telemetry::Registry::shared().counter("ark.compile.jit_compiles");

    LaneTape tape = LaneTape::broadcast(sampleTape(), 2);
    const std::string key = engine::kernelKey(tape).str();
    const std::string so = dir.path() + "/" + key + ".so";

    // Cold: compiles and publishes the object.
    const std::uint64_t compiles0 = compiles.value();
    expr::JitKernelPtr first = expr::compileKernel(tape, key);
    ASSERT_NE(first, nullptr);
    EXPECT_EQ(compiles.value(), compiles0 + 1);
    EXPECT_TRUE(std::filesystem::exists(so));

    // Warm: served from disk, no second compile.
    const std::uint64_t hits0 = diskHits.value();
    expr::JitKernelPtr second = expr::compileKernel(tape, key);
    ASSERT_NE(second, nullptr);
    EXPECT_EQ(diskHits.value(), hits0 + 1);
    EXPECT_EQ(compiles.value(), compiles0 + 1);

    // Corrupt entry (torn write, foreign file): ignored, replaced by
    // a fresh compile, and the healed kernel still computes right.
    // Drop the live handles first — truncating an ELF another dlopen
    // still maps invalidates its pages (SIGBUS on the later dlclose).
    first.reset();
    second.reset();
    {
        std::ofstream out(so, std::ios::trunc);
        out << "not an object file";
    }
    expr::JitKernelPtr third = expr::compileKernel(tape, key);
    ASSERT_NE(third, nullptr);
    EXPECT_EQ(compiles.value(), compiles0 + 2);

    support::Rng rng(99);
    const std::size_t m = tape.numOutputs() * tape.width();
    std::vector<double> state(m);
    for (double &v : state)
        v = rng.uniform(-2.0, 2.0);
    std::vector<double> expected(m), actual(m);
    std::vector<double> regs(tape.scratchSize());
    tape.evalInto(state.data(), 0.5, expected.data(), regs.data());
    third->call(state.data(), 0.5, actual.data(),
                tape.constants().data());
    for (std::size_t i = 0; i < m; ++i)
        EXPECT_EQ(actual[i], expected[i]) << "slot " << i;
}

} // namespace
