#include "expr/cjit.h"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <system_error>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "expr/builtins.h"
#include "expr/tape.h"
#include "support/faultinject.h"
#include "support/telemetry.h"

namespace ark::expr {

namespace fs = std::filesystem;

namespace {

/** Compiled objects kept in the on-disk cache (entries, not bytes). */
constexpr std::size_t kMaxDiskEntries = 256;

/** The exported kernel symbol every emitted translation unit defines. */
constexpr const char *kKernelSymbol = "ark_kernel";

telemetry::Counter &
compilesCounter()
{
    static telemetry::Counter &counter =
        telemetry::Registry::shared().counter("ark.compile.jit_compiles");
    return counter;
}

telemetry::Counter &
failuresCounter()
{
    static telemetry::Counter &counter =
        telemetry::Registry::shared().counter("ark.compile.jit_failures");
    return counter;
}

telemetry::Counter &
diskHitsCounter()
{
    static telemetry::Counter &counter =
        telemetry::Registry::shared().counter(
            "ark.compile.jit_disk_hits");
    return counter;
}

telemetry::Histogram &
compileNsHistogram()
{
    static telemetry::Histogram &hist =
        telemetry::Registry::shared().histogram(
            "ark.compile.jit_compile_ns");
    return hist;
}

/** Exact double literal: hexfloats round-trip bit-for-bit through any
 *  conforming C compiler, so emitted constants never re-round. */
std::string
hexLiteral(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%a", v);
    return buf;
}

/** Single-quoted POSIX shell word; empty when unquotable. */
std::string
shellQuote(const std::string &s)
{
    if (s.find('\'') != std::string::npos)
        return {};
    return "'" + s + "'";
}

/** Runs a shell command, discarding its output; true on exit 0. */
bool
runCommand(const std::string &cmd)
{
    const int status =
        std::system((cmd + " >/dev/null 2>&1").c_str());
    return status != -1 && WIFEXITED(status) &&
           WEXITSTATUS(status) == 0;
}

/**
 * Compile flags shared by the probe and every kernel. -O2 removes the
 * interpreter's dispatch overhead; -fno-fast-math -ffp-contract=off
 * pin IEEE semantics — no reassociation, no value-changing
 * transforms, and no contraction of the emitted a*b+c statements into
 * hardware FMA (FusedMulAdd lowers to an explicit fma() call instead,
 * matching the interpreter's std::fma). -ftree-vectorize,
 * -funroll-loops, and -march=native are value-preserving here: every
 * emitted lane loop is element-wise (no reductions, no cross-lane
 * flow), so vector, unrolled, and wider-ISA code performs the
 * identical IEEE operation per element — targeting the running host
 * is the point of compiling at runtime, and the equivalence suite in
 * tests/jit_test.cc holds the kernels to bit-identity either way.
 * (Hosts whose cc rejects -march=native fail the toolchain probe and
 * stay on the interpreted tiers.)
 *
 * -fno-tree-slp-vectorize: GCC 12's straight-line (SLP) vectorizer
 * packs an alternating pair of statements a*b + c and d*e - f into one
 * vfmsubadd even under -ffp-contract=off, rounding each product into
 * its sum once where the tape rounds twice. Four-vertex obc max-cut
 * programs hit it at W=1 (ObcTest.MaxcutProgramsCarryOneSinPerEdge);
 * the lane loops still vectorize.
 */
constexpr const char *kCompileFlags =
    "-O2 -march=native -ftree-vectorize -fno-tree-slp-vectorize "
    "-funroll-loops -fPIC -shared -fno-fast-math -ffp-contract=off";

/** True when `compiler` can produce a loadable kernel end to end. */
bool
probeCompiler(const std::string &compiler)
{
    support::TempDir dir = support::TempDir::create("ark-jit-probe-");
    if (!dir.ok())
        return false;
    const std::string src = dir.path() + "/probe.c";
    const std::string so = dir.path() + "/probe.so";
    {
        std::ofstream out(src);
        if (!out)
            return false;
        out << "double ark_probe(double x) { return x + 1.0; }\n";
    }
    const std::string qcc = shellQuote(compiler);
    const std::string qso = shellQuote(so);
    const std::string qsrc = shellQuote(src);
    if (qcc.empty() || qso.empty() || qsrc.empty())
        return false;
    if (!runCommand(qcc + " " + kCompileFlags + " -o " + qso + " " +
                    qsrc + " -lm"))
        return false;
    support::DynamicLibrary lib = support::DynamicLibrary::open(so);
    return lib.ok() && lib.symbol("ark_probe") != nullptr;
}

/** The working C compiler, probed once per process; empty when none. */
const std::string &
jitCompilerPath()
{
    static const std::string compiler = [] {
        std::vector<std::string> candidates;
        if (const char *env = std::getenv("ARK_CC");
            env != nullptr && env[0] != '\0')
            candidates.emplace_back(env);
        candidates.emplace_back("cc");
        candidates.emplace_back("gcc");
        candidates.emplace_back("clang");
        for (const std::string &candidate : candidates)
            if (probeCompiler(candidate))
                return candidate;
        return std::string{};
    }();
    return compiler;
}

/**
 * The on-disk kernel cache directory (created on demand), or empty
 * when disabled. ARK_JIT_CACHE_DIR overrides (empty value disables);
 * the default follows the XDG cache convention. Re-read per call so
 * tests can point successive compilations at fresh directories.
 */
std::string
diskCacheDir()
{
    std::string dir;
    if (const char *env = std::getenv("ARK_JIT_CACHE_DIR")) {
        if (env[0] == '\0')
            return {};
        dir = env;
    } else if (const char *xdg = std::getenv("XDG_CACHE_HOME");
               xdg != nullptr && xdg[0] != '\0') {
        dir = std::string(xdg) + "/ark/jit";
    } else if (const char *home = std::getenv("HOME");
               home != nullptr && home[0] != '\0') {
        dir = std::string(home) + "/.cache/ark/jit";
    } else {
        return {};
    }
    std::error_code ec;
    fs::create_directories(dir, ec);
    if (ec)
        return {};
    return dir;
}

/**
 * Bounds the disk cache: oldest-mtime entries beyond kMaxDiskEntries
 * are removed. Best-effort — races with concurrent processes only
 * over-trim, and a trimmed entry just recompiles.
 */
void
pruneDiskCache(const std::string &dir)
{
    std::error_code ec;
    std::vector<std::pair<fs::file_time_type, fs::path>> entries;
    for (const auto &entry : fs::directory_iterator(dir, ec)) {
        if (entry.path().extension() != ".so")
            continue;
        const auto mtime = fs::last_write_time(entry.path(), ec);
        if (!ec)
            entries.emplace_back(mtime, entry.path());
    }
    if (entries.size() <= kMaxDiskEntries)
        return;
    std::sort(entries.begin(), entries.end());
    const std::size_t excess = entries.size() - kMaxDiskEntries;
    for (std::size_t i = 0; i < excess; ++i)
        fs::remove(entries[i].second, ec);
}

/** Loads a compiled object and resolves its kernel; null on failure. */
JitKernelPtr
loadKernel(const std::string &path, const LaneTape &tape)
{
    support::DynamicLibrary lib = support::DynamicLibrary::open(path);
    if (!lib.ok())
        return nullptr;
    void *sym = lib.symbol(kKernelSymbol);
    if (sym == nullptr)
        return nullptr;
    return std::make_shared<const JitKernel>(
        std::move(lib), reinterpret_cast<JitKernelFn>(sym),
        tape.width(), tape.numOutputs());
}

/** The C spelling of register `index` in a kernel's register file. */
std::string
regC(std::int32_t index)
{
    return "r[" + std::to_string(index) + "]";
}

/**
 * A PURE row's stringified expression with its operand names A, B
 * and C spelled as the registers `op` reads.
 */
std::string
rowC(const char *expr, const TapeOp &op)
{
    auto identChar = [](char ch) {
        return std::isalnum(static_cast<unsigned char>(ch)) || ch == '_';
    };
    std::string out;
    for (const char *p = expr; *p != '\0'; ++p) {
        const bool operand = (*p == 'A' || *p == 'B' || *p == 'C') &&
                             (p == expr || !identChar(p[-1])) &&
                             !identChar(p[1]);
        if (!operand)
            out += *p;
        else
            out += regC(*p == 'A' ? op.a : *p == 'B' ? op.b : op.c);
    }
    return out;
}

} // namespace

bool
jitEnabled(bool optionValue)
{
    // -1 = no override, 0/1 = forced. Memoized: the environment is
    // process state, and the CI job that forces the tier on sets it
    // before launch.
    static const int forced = [] {
        const char *env = std::getenv("ARK_JIT_FORCE");
        if (env == nullptr)
            return -1;
        const std::string v(env);
        if (v == "1" || v == "on" || v == "true")
            return 1;
        if (v == "0" || v == "off" || v == "false")
            return 0;
        return -1;
    }();
    if (forced >= 0)
        return forced == 1;
    return optionValue;
}

bool
jitToolchainAvailable()
{
    return !jitCompilerPath().empty();
}

// One case per PURE row of the table: the row's expression as C.
#define ARK_EMIT_ROW(Name, Arity, Expr)                                 \
          case OpCode::Name:                                            \
            stmt = regC(op.dst) + " = " + rowC(#Expr, op);              \
            break;

std::string
emitKernelC(const LaneTape &tape)
{
    const std::size_t w = tape.width();
    std::string src;
    src.reserve(256 + tape.size() * 64);

    // Each builtin's C function is its BuiltinInfo::cName; the ark_*
    // helpers below carry the bodies of their expr/builtins.cc
    // definitions line for line. The sat_ni scale is the
    // host-computed std::tanh(1.2) emitted exactly, so the division
    // matches the interpreter's cached divisor bit-for-bit (a
    // compile-time tanh() fold could round differently).
    src += "/* ark tier-5 kernel: width ";
    src += std::to_string(w);
    src += ", ";
    src += std::to_string(tape.size());
    src += " ops */\n";
    src += "#include <math.h>\n\n";
    src += "static double ark_sgn(double x)\n"
           "{ return x > 0.0 ? 1.0 : (x < 0.0 ? -1.0 : 0.0); }\n\n";
    src += "static double ark_min(double x, double y)\n"
           "{ return (y < x || isnan(x)) ? y : x; }\n\n";
    src += "static double ark_max(double x, double y)\n"
           "{ return (y > x || isnan(x)) ? y : x; }\n\n";
    src += "static double ark_sat(double x)\n"
           "{ return 0.5 * (fabs(x + 1.0) - fabs(x - 1.0)); }\n\n";
    src += "static double ark_sat_ni(double x)\n{ return tanh(1.2 * x)"
           " / " + hexLiteral(std::tanh(1.2)) + "; }\n\n";
    src += "static double ark_pulse(double t, double start, "
           "double width)\n"
           "{\n"
           "    if (width <= 0.0)\n"
           "        return 0.0;\n"
           "    double ramp = 0.05 * width;\n"
           "    double rel = t - start;\n"
           "    if (rel <= 0.0 || rel >= width)\n"
           "        return 0.0;\n"
           "    if (rel < ramp)\n"
           "        return rel / ramp;\n"
           "    if (rel > width - ramp)\n"
           "        return (width - rel) / ramp;\n"
           "    return 1.0;\n"
           "}\n\n";

    src += "void " + std::string(kKernelSymbol) +
           "(const double *restrict state, double t,\n"
           "                double *restrict out, "
           "const double *restrict consts)\n{\n";
    src += "    (void)state; (void)t; (void)consts;\n";

    // Lane-major: one outer loop over lanes, with the whole program —
    // one statement per tape op, in stream order — as its body over a
    // per-lane scalar register file. Lanes are independent, so per
    // lane this performs exactly the IEEE operation sequence
    // LaneTape::evalIntoT interprets (bit-identical outputs); keeping
    // the registers as loop-local scalars lets the compiler hold the
    // dataflow in CPU registers instead of round-tripping a
    // width-strided spill array between per-op loops.
    src += "    for (int l = 0; l < " + std::to_string(w) + "; ++l) {\n";
    const std::size_t regDoubles = std::max<std::size_t>(
        static_cast<std::size_t>(tape.numRegs()), 1);
    src += "        double r[" + std::to_string(regDoubles) + "];\n";

    auto slot = [&](const char *base, std::int32_t index) {
        return std::string(base) + "[" +
               std::to_string(static_cast<std::size_t>(index) * w) +
               " + l]";
    };
    for (const TapeOp &op : tape.ops()) {
        std::string stmt;
        switch (op.op) {
          case OpCode::Const:
            stmt = regC(op.dst) + " = " + slot("consts", op.a);
            break;
          case OpCode::LoadTime:
            stmt = regC(op.dst) + " = t";
            break;
          case OpCode::LoadState:
            stmt = regC(op.dst) + " = " + slot("state", op.a);
            break;
          case OpCode::CallB: {
            const BuiltinInfo &info = builtinInfo(op.builtin);
            stmt = regC(op.dst) + " = " + info.cName + "(";
            const char *sep = "";
            for (std::int32_t operand : {op.a, op.b, op.c}) {
                if (operand < 0)
                    continue;
                stmt += sep + regC(operand);
                sep = ", ";
            }
            stmt += ")";
            break;
          }
          case OpCode::WriteOutput:
            stmt = slot("out", op.dst) + " = " + regC(op.a);
            break;
          ARK_TAPE_OPS(ARK_TAPE_SKIP, ARK_EMIT_ROW)
        }
        src += "        " + stmt + ";\n";
    }
    src += "    }\n}\n";
    return src;
}

#undef ARK_EMIT_ROW

JitKernelPtr
compileKernel(const LaneTape &tape, const std::string &cacheKey)
{
    const std::string cacheDir =
        cacheKey.empty() ? std::string{} : diskCacheDir();
    const std::string cachedSo =
        cacheDir.empty() ? std::string{}
                         : cacheDir + "/" + cacheKey + ".so";

    // Warm start: a prior process already compiled this structure.
    if (!cachedSo.empty()) {
        std::error_code ec;
        if (fs::exists(cachedSo, ec)) {
            if (JitKernelPtr kernel = loadKernel(cachedSo, tape)) {
                diskHitsCounter().add();
                return kernel;
            }
            // Corrupt entry (torn write, foreign file): drop it and
            // fall through to a fresh compile. Stale-by-construction
            // is impossible — the emitter version is in the key.
            fs::remove(cachedSo, ec);
        }
    }

    // Deterministic fault injection: a forced compile failure proves
    // the interpreted-tier fallback, which no real host exercises
    // until its toolchain breaks.
    if (support::FaultInjector::shouldFire(
            support::FaultSite::JitCompile)) {
        failuresCounter().add();
        return nullptr;
    }

    const std::string &cc = jitCompilerPath();
    if (cc.empty())
        return nullptr;

    telemetry::ScopedSpan span("ark.compile.jit_compile",
                               static_cast<std::uint64_t>(tape.size()));
    telemetry::ScopedTimer timer(compileNsHistogram());

    support::TempDir work = support::TempDir::create("ark-jit-");
    if (!work.ok()) {
        failuresCounter().add();
        return nullptr;
    }
    const std::string src = work.path() + "/kernel.c";
    {
        std::ofstream out(src);
        if (!out) {
            failuresCounter().add();
            return nullptr;
        }
        out << emitKernelC(tape);
    }
    const std::string so = work.path() + "/kernel.so";
    const std::string qcc = shellQuote(cc);
    const std::string qso = shellQuote(so);
    const std::string qsrc = shellQuote(src);
    if (qcc.empty() || qso.empty() || qsrc.empty() ||
        !runCommand(qcc + " " + kCompileFlags + " -o " + qso + " " +
                    qsrc + " -lm")) {
        failuresCounter().add();
        return nullptr;
    }
    compilesCounter().add();

    // Publish into the disk cache via a unique sibling + rename so
    // concurrent processes never observe a half-written object; the
    // temp-dir object stays the load source if publication fails
    // (e.g. a read-only or cross-device cache path).
    std::string loadPath = so;
    if (!cachedSo.empty()) {
        static std::atomic<std::uint64_t> unique{0};
        const std::string staging =
            cacheDir + "/.tmp-" + std::to_string(::getpid()) + "-" +
            std::to_string(unique.fetch_add(1)) + "-" + cacheKey;
        std::error_code ec;
        fs::copy_file(so, staging,
                      fs::copy_options::overwrite_existing, ec);
        if (!ec) {
            fs::rename(staging, cachedSo, ec);
            if (!ec)
                loadPath = cachedSo;
            else
                fs::remove(staging, ec);
        }
        pruneDiskCache(cacheDir);
    }

    JitKernelPtr kernel = loadKernel(loadPath, tape);
    if (kernel == nullptr)
        failuresCounter().add();
    return kernel;
}

} // namespace ark::expr
