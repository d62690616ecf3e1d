/**
 * @file
 * Unit tests for the support library: errors, RNG determinism and
 * statistics, string helpers, tables, and dense linear algebra.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <sstream>
#include <string>
#include <string_view>

#include "support/error.h"
#include "support/linalg.h"
#include "support/logging.h"
#include "support/rng.h"
#include "support/strings.h"
#include "support/table.h"

namespace {

using namespace ark::support;

// --- errors -----------------------------------------------------------

TEST(ErrorTest, WhatIncludesKindAndMessage)
{
    ParseError err("unexpected token", SourceLoc{3, 14});
    std::string what = err.what();
    EXPECT_NE(what.find("parse error"), std::string::npos);
    EXPECT_NE(what.find("3:14"), std::string::npos);
    EXPECT_NE(what.find("unexpected token"), std::string::npos);
    EXPECT_EQ(err.kind(), ErrorKind::Parse);
    EXPECT_EQ(err.message(), "unexpected token");
}

TEST(ErrorTest, LocationlessErrorOmitsPosition)
{
    TypeError err("bad type");
    std::string what = err.what();
    EXPECT_EQ(what.find(" at "), std::string::npos);
    EXPECT_FALSE(err.loc().valid());
}

TEST(ErrorTest, EveryKindHasName)
{
    for (auto kind : {ErrorKind::Lex, ErrorKind::Parse, ErrorKind::Sema,
                      ErrorKind::Type, ErrorKind::Validation,
                      ErrorKind::Compile, ErrorKind::Sim, ErrorKind::Io}) {
        EXPECT_NE(std::string(errorKindName(kind)), "");
    }
}

TEST(ErrorTest, SubclassesCatchAsArkError)
{
    try {
        throw ValidationError("nope");
    } catch (const ArkError &err) {
        EXPECT_EQ(err.kind(), ErrorKind::Validation);
        return;
    }
    FAIL() << "not caught";
}

// --- rng ---------------------------------------------------------------

TEST(RngTest, DeterministicAcrossInstances)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.nextU64(), b.nextU64());
}

TEST(RngTest, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a.nextU64() == b.nextU64();
    EXPECT_LT(same, 2);
}

TEST(RngTest, UniformInRange)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i) {
        double v = rng.uniform(2.0, 5.0);
        EXPECT_GE(v, 2.0);
        EXPECT_LT(v, 5.0);
    }
}

TEST(RngTest, UniformIntCoversRangeUniformly)
{
    Rng rng(11);
    std::vector<int> counts(6, 0);
    const int draws = 60000;
    for (int i = 0; i < draws; ++i)
        ++counts[static_cast<std::size_t>(rng.uniformInt(0, 5))];
    for (int count : counts) {
        EXPECT_GT(count, draws / 6 - 600);
        EXPECT_LT(count, draws / 6 + 600);
    }
}

TEST(RngTest, GaussianMomentsMatch)
{
    Rng rng(99);
    const int n = 100000;
    double sum = 0.0, sumSq = 0.0;
    for (int i = 0; i < n; ++i) {
        double v = rng.gaussian(3.0, 2.0);
        sum += v;
        sumSq += v * v;
    }
    double mean = sum / n;
    double var = sumSq / n - mean * mean;
    EXPECT_NEAR(mean, 3.0, 0.05);
    EXPECT_NEAR(std::sqrt(var), 2.0, 0.05);
}

TEST(RngTest, BernoulliFrequency)
{
    Rng rng(5);
    int hits = 0;
    const int n = 50000;
    for (int i = 0; i < n; ++i)
        hits += rng.bernoulli(0.3);
    EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(RngTest, ShuffleIsPermutation)
{
    Rng rng(17);
    std::vector<int> items{1, 2, 3, 4, 5, 6, 7, 8};
    std::vector<int> shuffled = items;
    rng.shuffle(shuffled);
    std::sort(shuffled.begin(), shuffled.end());
    EXPECT_EQ(shuffled, items);
}

TEST(RngTest, DeriveSeedAdvancesState)
{
    Rng rng(1);
    EXPECT_NE(rng.deriveSeed(), rng.deriveSeed());
}

// --- strings -----------------------------------------------------------

TEST(StringsTest, SplitAndJoin)
{
    auto parts = split("a,b,,c", ',');
    ASSERT_EQ(parts.size(), 4u);
    EXPECT_EQ(parts[2], "");
    EXPECT_EQ(join(parts, "-"), "a-b--c");
}

TEST(StringsTest, SplitNoDelimiter)
{
    auto parts = split("abc", ',');
    ASSERT_EQ(parts.size(), 1u);
    EXPECT_EQ(parts[0], "abc");
}

TEST(StringsTest, Trim)
{
    EXPECT_EQ(trim("  hi \t\n"), "hi");
    EXPECT_EQ(trim(""), "");
    EXPECT_EQ(trim("   "), "");
    EXPECT_EQ(trim("x"), "x");
}

TEST(StringsTest, StartsEndsWith)
{
    EXPECT_TRUE(startsWith("ark-lang", "ark"));
    EXPECT_FALSE(startsWith("ark", "ark-lang"));
    EXPECT_TRUE(endsWith("file.cc", ".cc"));
    EXPECT_FALSE(endsWith(".cc", "file.cc"));
}

TEST(StringsTest, FormatDoubleRoundTrips)
{
    for (double v : {1.5, -0.25, 1e-9, 3.14159265358979, 0.0}) {
        EXPECT_EQ(std::stod(formatDouble(v)), v);
    }
}

TEST(StringsTest, EditDistance)
{
    EXPECT_EQ(editDistance("kitten", "sitting"), 3u);
    EXPECT_EQ(editDistance("", "abc"), 3u);
    EXPECT_EQ(editDistance("same", "same"), 0u);
}

TEST(StringsTest, ClosestMatchSuggests)
{
    std::vector<std::string> candidates{"InpI", "InpV", "V", "I"};
    EXPECT_EQ(closestMatch("InpU", candidates), "InpI");
    EXPECT_EQ(closestMatch("zzzzzz", candidates), "");
}

/** What an std::ostringstream prints for the pieces, in order. */
template <typename... Args>
std::string
streamed(const Args &...args)
{
    std::ostringstream oss;
    (oss << ... << args);
    return oss.str();
}

TEST(StringsTest, CatMatchesStreamFormatting)
{
    // cat() appends text and integer pieces without a stream; every
    // other piece goes through one. Either way the bytes must be the
    // stream's, for each piece alone and mixed.
    const std::string text = "CPL_";
    const std::string_view view = "OSC_";
    const char *literal = "V_";
    const int intMin = std::numeric_limits<int>::min();
    const std::size_t size = std::numeric_limits<std::size_t>::max();
    const std::int64_t wide = std::numeric_limits<std::int64_t>::min();
    const char ch = 'k';
    const signed char sch = 'x';
    const unsigned char uch = 'y';
    const double real = 4.5;

    EXPECT_EQ(cat(), "");
    EXPECT_EQ(cat(text), streamed(text));
    EXPECT_EQ(cat("literal"), streamed("literal"));
    EXPECT_EQ(cat(view), streamed(view));
    EXPECT_EQ(cat(literal), streamed(literal));
    EXPECT_EQ(cat(ch), streamed(ch));
    EXPECT_EQ(cat(sch), streamed(sch));
    EXPECT_EQ(cat(uch), streamed(uch));
    EXPECT_EQ(cat(true), streamed(true));
    EXPECT_EQ(cat(false), streamed(false));
    for (int value : {0, 7, -7, 1000000, intMin,
                      std::numeric_limits<int>::max()})
        EXPECT_EQ(cat(value), streamed(value));
    EXPECT_EQ(cat(size), streamed(size));
    EXPECT_EQ(cat(std::size_t{0}), streamed(std::size_t{0}));
    EXPECT_EQ(cat(wide), streamed(wide));
    EXPECT_EQ(cat(std::int64_t{-42}), streamed(std::int64_t{-42}));
    EXPECT_EQ(cat(real), streamed(real));
    EXPECT_EQ(cat(0.1), streamed(0.1));
    EXPECT_EQ(cat(1e-300), streamed(1e-300));

    // Mixed: all text and integers (the stream-free path), then with a
    // character, a bool or a double among them (the stream path).
    EXPECT_EQ(cat(text, 3, view, intMin, "'", size, literal, wide),
              streamed(text, 3, view, intMin, "'", size, literal, wide));
    EXPECT_EQ(cat("attribute '", text, ".", ch, "'"),
              streamed("attribute '", text, ".", ch, "'"));
    EXPECT_EQ(cat(view, sch, uch, 12, true),
              streamed(view, sch, uch, 12, true));
    EXPECT_EQ(cat("x=", 3, " y=", real), "x=3 y=4.5");
    EXPECT_EQ(cat("x=", 3, " y=", real), streamed("x=", 3, " y=", real));
}

// --- table -------------------------------------------------------------

TEST(TableTest, AlignsColumns)
{
    Table table({"name", "value"});
    table.addRow({"x", "1"});
    table.addRow({"longer", "2"});
    std::ostringstream oss;
    table.print(oss);
    std::string out = oss.str();
    EXPECT_NE(out.find("name"), std::string::npos);
    EXPECT_NE(out.find("longer"), std::string::npos);
    EXPECT_NE(out.find("----"), std::string::npos);
}

TEST(TableTest, CsvEscaping)
{
    std::ostringstream oss;
    CsvWriter csv(oss);
    csv.writeRow(std::vector<std::string>{"a,b", "quote\"inside",
                                          "plain"});
    EXPECT_EQ(oss.str(), "\"a,b\",\"quote\"\"inside\",plain\n");
}

TEST(TableTest, NumericRows)
{
    std::ostringstream oss;
    CsvWriter csv(oss);
    csv.writeRow(std::vector<double>{1.0, 2.5});
    EXPECT_EQ(oss.str(), "1,2.5\n");
}

// --- linalg ------------------------------------------------------------

TEST(LinalgTest, LuSolvesKnownSystem)
{
    Matrix a(2, 2);
    a(0, 0) = 2;
    a(0, 1) = 1;
    a(1, 0) = 1;
    a(1, 1) = 3;
    LuSolver solver(a);
    auto x = solver.solve({5, 10});
    EXPECT_NEAR(x[0], 1.0, 1e-12);
    EXPECT_NEAR(x[1], 3.0, 1e-12);
}

TEST(LinalgTest, LuHandlesPivoting)
{
    // Leading zero forces a row swap.
    Matrix a(2, 2);
    a(0, 0) = 0;
    a(0, 1) = 1;
    a(1, 0) = 1;
    a(1, 1) = 0;
    LuSolver solver(a);
    auto x = solver.solve({2, 3});
    EXPECT_NEAR(x[0], 3.0, 1e-12);
    EXPECT_NEAR(x[1], 2.0, 1e-12);
}

TEST(LinalgTest, SingularMatrixThrows)
{
    Matrix a(2, 2);
    a(0, 0) = 1;
    a(0, 1) = 2;
    a(1, 0) = 2;
    a(1, 1) = 4;
    EXPECT_THROW(LuSolver{a}, ArkError);
}

TEST(LinalgTest, RandomSystemsRoundTrip)
{
    Rng rng(3);
    for (int trial = 0; trial < 20; ++trial) {
        const std::size_t n = 8;
        Matrix a(n, n);
        std::vector<double> xTrue(n);
        for (std::size_t i = 0; i < n; ++i) {
            xTrue[i] = rng.uniform(-5, 5);
            for (std::size_t j = 0; j < n; ++j)
                a(i, j) = rng.uniform(-1, 1);
            a(i, i) += 4.0; // diagonally dominant => nonsingular
        }
        std::vector<double> b = a.apply(xTrue);
        LuSolver solver(a);
        auto x = solver.solve(b);
        for (std::size_t i = 0; i < n; ++i)
            EXPECT_NEAR(x[i], xTrue[i], 1e-9);
    }
}

TEST(LinalgTest, MatrixOps)
{
    Matrix id = Matrix::identity(3);
    EXPECT_EQ(id(1, 1), 1.0);
    EXPECT_EQ(id(0, 1), 0.0);
    Matrix scaled = id.scaled(2.0);
    EXPECT_EQ(scaled(2, 2), 2.0);
    Matrix sum = id.plus(scaled);
    EXPECT_EQ(sum(0, 0), 3.0);
}

TEST(LinalgTest, RmseAndRelativeRmse)
{
    std::vector<double> a{1, 2, 3};
    std::vector<double> b{1, 2, 4};
    EXPECT_NEAR(rmse(a, b), std::sqrt(1.0 / 3.0), 1e-12);
    EXPECT_NEAR(relativeRmse(a, a), 0.0, 1e-15);
    EXPECT_THROW(rmse(a, {1.0}), ArkError);
}

TEST(LinalgTest, Norm2)
{
    EXPECT_NEAR(norm2({3, 4}), 5.0, 1e-12);
    EXPECT_EQ(norm2({}), 0.0);
}

} // namespace
