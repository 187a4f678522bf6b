/**
 * @file
 * Unit tests for the base utilities: logging helpers, RNG,
 * statistics, histograms, the table printer, and the host timer.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <vector>

#include "base/histogram.hh"
#include "base/host_timer.hh"
#include "base/logging.hh"
#include "base/rng.hh"
#include "base/stats.hh"
#include "base/table.hh"
#include "base/types.hh"

namespace distill
{
namespace
{

// ----- logging -----------------------------------------------------

TEST(Logging, StrprintfFormats)
{
    EXPECT_EQ(strprintf("x=%d", 42), "x=42");
    EXPECT_EQ(strprintf("%s-%s", "a", "b"), "a-b");
    EXPECT_EQ(strprintf("%.2f", 1.5), "1.50");
}

TEST(Logging, StrprintfLongStrings)
{
    std::string big(5000, 'y');
    EXPECT_EQ(strprintf("%s", big.c_str()).size(), 5000u);
}

TEST(Logging, AssertDoesNotFireOnTrue)
{
    distill_assert(1 + 1 == 2, "math still works");
    SUCCEED();
}

TEST(LoggingDeath, PanicAborts)
{
    EXPECT_DEATH(panic("boom %d", 7), "boom 7");
}

TEST(LoggingDeath, AssertAborts)
{
    EXPECT_DEATH(distill_assert(false, "ctx %d", 3), "ctx 3");
}

// ----- types -------------------------------------------------------

TEST(Types, RoundUp)
{
    EXPECT_EQ(roundUp(0, 16), 0u);
    EXPECT_EQ(roundUp(1, 16), 16u);
    EXPECT_EQ(roundUp(16, 16), 16u);
    EXPECT_EQ(roundUp(17, 16), 32u);
    EXPECT_EQ(roundUp(31, 8), 32u);
}

TEST(Types, IsPowerOf2)
{
    EXPECT_FALSE(isPowerOf2(0));
    EXPECT_TRUE(isPowerOf2(1));
    EXPECT_TRUE(isPowerOf2(2));
    EXPECT_FALSE(isPowerOf2(3));
    EXPECT_TRUE(isPowerOf2(1ULL << 40));
    EXPECT_FALSE(isPowerOf2((1ULL << 40) + 1));
}

// ----- rng ---------------------------------------------------------

TEST(Rng, Deterministic)
{
    Rng a(123);
    Rng b(123);
    for (int i = 0; i < 1000; ++i)
        ASSERT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1);
    Rng b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 3);
}

TEST(Rng, SplitIndependent)
{
    Rng parent(42);
    Rng child = parent.split();
    // Child and parent should not produce the same stream.
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += parent.next() == child.next();
    EXPECT_LT(same, 3);
}

class RngBoundTest : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(RngBoundTest, BelowStaysInBounds)
{
    Rng rng(7);
    std::uint64_t bound = GetParam();
    for (int i = 0; i < 2000; ++i)
        ASSERT_LT(rng.below(bound), bound);
}

TEST_P(RngBoundTest, BelowCoversRange)
{
    Rng rng(11);
    std::uint64_t bound = GetParam();
    if (bound > 64)
        return; // coverage check only for small bounds
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 5000; ++i)
        seen.insert(rng.below(bound));
    EXPECT_EQ(seen.size(), bound);
}

INSTANTIATE_TEST_SUITE_P(Bounds, RngBoundTest,
                         ::testing::Values(1, 2, 3, 7, 10, 64, 1000,
                                           1ULL << 32, 1ULL << 63));

TEST(Rng, RealInUnitInterval)
{
    Rng rng(5);
    for (int i = 0; i < 5000; ++i) {
        double r = rng.real();
        ASSERT_GE(r, 0.0);
        ASSERT_LT(r, 1.0);
    }
}

TEST(Rng, RealRoughlyUniform)
{
    Rng rng(17);
    double sum = 0.0;
    constexpr int n = 100000;
    for (int i = 0; i < n; ++i)
        sum += rng.real();
    EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, ChanceExtremes)
{
    Rng rng(3);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(rng.chance(0.0));
        EXPECT_TRUE(rng.chance(1.0));
    }
}

TEST(Rng, ChanceFrequency)
{
    Rng rng(9);
    int hits = 0;
    constexpr int n = 100000;
    for (int i = 0; i < n; ++i)
        hits += rng.chance(0.25);
    EXPECT_NEAR(static_cast<double>(hits) / n, 0.25, 0.01);
}

TEST(Rng, ExponentialMean)
{
    Rng rng(21);
    double sum = 0.0;
    constexpr int n = 100000;
    for (int i = 0; i < n; ++i)
        sum += rng.exponential(10.0);
    EXPECT_NEAR(sum / n, 10.0, 0.3);
}

TEST(Rng, RangeInclusive)
{
    Rng rng(33);
    bool saw_lo = false;
    bool saw_hi = false;
    for (int i = 0; i < 5000; ++i) {
        std::uint64_t v = rng.range(3, 6);
        ASSERT_GE(v, 3u);
        ASSERT_LE(v, 6u);
        saw_lo |= v == 3;
        saw_hi |= v == 6;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, SplitMixDeterministic)
{
    std::uint64_t s1 = 99;
    std::uint64_t s2 = 99;
    EXPECT_EQ(splitMix64(s1), splitMix64(s2));
    EXPECT_EQ(s1, s2);
}

// ----- stats -------------------------------------------------------

TEST(Stats, EmptyRunningStat)
{
    RunningStat s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_EQ(s.mean(), 0.0);
    EXPECT_EQ(s.variance(), 0.0);
    EXPECT_EQ(s.ci95(), 0.0);
}

TEST(Stats, SingleSample)
{
    RunningStat s;
    s.add(5.0);
    EXPECT_EQ(s.mean(), 5.0);
    EXPECT_EQ(s.variance(), 0.0);
    EXPECT_EQ(s.min(), 5.0);
    EXPECT_EQ(s.max(), 5.0);
}

TEST(Stats, MeanAndVariance)
{
    RunningStat s;
    for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        s.add(v);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
}

TEST(Stats, MinMaxTracked)
{
    RunningStat s;
    s.add(3.0);
    s.add(-2.0);
    s.add(10.0);
    EXPECT_EQ(s.min(), -2.0);
    EXPECT_EQ(s.max(), 10.0);
}

TEST(Stats, CiShrinksWithSamples)
{
    Rng rng(4);
    RunningStat small;
    RunningStat large;
    for (int i = 0; i < 5; ++i)
        small.add(rng.real());
    Rng rng2(4);
    for (int i = 0; i < 500; ++i)
        large.add(rng2.real());
    EXPECT_GT(small.ci95(), large.ci95());
}

TEST(Stats, CiMatchesKnownValue)
{
    // Two samples 0 and 2: mean 1, sd sqrt(2), sem 1, t(1)=12.706.
    RunningStat s;
    s.add(0.0);
    s.add(2.0);
    EXPECT_NEAR(s.ci95(), 12.706, 1e-9);
}

TEST(Stats, Geomean)
{
    EXPECT_DOUBLE_EQ(geomean({4.0, 9.0}), 6.0);
    EXPECT_DOUBLE_EQ(geomean({1.0, 1.0, 1.0}), 1.0);
    EXPECT_EQ(geomean({}), 0.0);
    EXPECT_NEAR(geomean({2.0, 8.0}), 4.0, 1e-12);
}

TEST(Stats, ArithmeticMean)
{
    EXPECT_DOUBLE_EQ(mean({1.0, 2.0, 3.0}), 2.0);
    EXPECT_EQ(mean({}), 0.0);
}

TEST(Stats, TQuantileTable)
{
    EXPECT_NEAR(tQuantile975(1), 12.706, 1e-6);
    EXPECT_NEAR(tQuantile975(10), 2.228, 1e-6);
    EXPECT_NEAR(tQuantile975(1000), 1.96, 1e-6);
    EXPECT_EQ(tQuantile975(0), 0.0);
}

// ----- histogram ---------------------------------------------------

TEST(Histogram, EmptyBehaves)
{
    Histogram h;
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.percentile(50), 0u);
    EXPECT_EQ(h.max(), 0u);
    EXPECT_EQ(h.meanValue(), 0.0);
}

TEST(Histogram, SingleValue)
{
    Histogram h;
    h.record(1000);
    EXPECT_EQ(h.count(), 1u);
    EXPECT_EQ(h.min(), 1000u);
    // Representative value must be within bucket error of the input.
    EXPECT_NEAR(static_cast<double>(h.percentile(50)), 1000.0, 1000.0 * 0.02);
}

TEST(Histogram, SmallValuesExact)
{
    Histogram h;
    for (std::uint64_t v = 0; v < 64; ++v)
        h.record(v);
    // Values below the sub-bucket count are stored exactly.
    EXPECT_EQ(h.percentile(0), 0u);
    EXPECT_EQ(h.percentile(100), 63u);
}

TEST(Histogram, PercentileMonotonic)
{
    Histogram h;
    Rng rng(8);
    for (int i = 0; i < 10000; ++i)
        h.record(rng.below(1000000));
    std::uint64_t last = 0;
    for (double p : {1.0, 10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 99.9}) {
        std::uint64_t v = h.percentile(p);
        EXPECT_GE(v, last) << "at p=" << p;
        last = v;
    }
}

class HistogramErrorTest : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(HistogramErrorTest, BoundedRelativeError)
{
    Histogram h;
    std::uint64_t v = GetParam();
    h.record(v);
    double got = static_cast<double>(h.percentile(50));
    double expect = static_cast<double>(v);
    // Worst-case quantization error for 64 sub-buckets is ~1.6 %.
    EXPECT_LE(std::abs(got - expect) / std::max(expect, 1.0), 0.02)
        << "value " << v;
}

INSTANTIATE_TEST_SUITE_P(
    Magnitudes, HistogramErrorTest,
    ::testing::Values(1, 63, 64, 65, 100, 1000, 4097, 65536, 1000000,
                      123456789, 1ULL << 40, (1ULL << 40) + 12345));

TEST(Histogram, UniformMedian)
{
    Histogram h;
    for (std::uint64_t v = 1; v <= 10000; ++v)
        h.record(v);
    double p50 = static_cast<double>(h.percentile(50));
    EXPECT_NEAR(p50, 5000.0, 5000.0 * 0.03);
}

TEST(Histogram, WeightedRecord)
{
    Histogram h;
    h.record(10, 99);
    h.record(1000000, 1);
    EXPECT_EQ(h.count(), 100u);
    EXPECT_EQ(h.percentile(50), 10u);
    EXPECT_GT(h.percentile(99.9), 900000u);
}

TEST(Histogram, Merge)
{
    Histogram a;
    Histogram b;
    a.record(10);
    b.record(1000);
    a.merge(b);
    EXPECT_EQ(a.count(), 2u);
    EXPECT_EQ(a.min(), 10u);
    EXPECT_GE(a.max(), 1000u);
}

TEST(Histogram, MergeIntoEmpty)
{
    Histogram a;
    Histogram b;
    b.record(7);
    a.merge(b);
    EXPECT_EQ(a.count(), 1u);
    EXPECT_EQ(a.min(), 7u);
}

TEST(Histogram, Reset)
{
    Histogram h;
    h.record(5);
    h.reset();
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.percentile(99), 0u);
}

TEST(Histogram, WeightedRecordSurvivesOverflowBoundary)
{
    // Regression: value * weight products past 2^64 used to wrap the
    // weighted-total accumulator, poisoning meanValue(). 2^62 * 8 =
    // 2^65 overflows uint64; the 128-bit accumulator must not.
    Histogram h;
    std::uint64_t v = 1ULL << 62;
    h.record(v, 8);
    EXPECT_EQ(h.count(), 8u);
    EXPECT_NEAR(h.meanValue(), static_cast<double>(v),
                static_cast<double>(v) * 1e-9);

    // And across merge(), which sums two near-boundary accumulators.
    Histogram other;
    other.record(v, 8);
    h.merge(other);
    EXPECT_EQ(h.count(), 16u);
    EXPECT_NEAR(h.meanValue(), static_cast<double>(v),
                static_cast<double>(v) * 1e-9);
}

namespace
{

/**
 * Exact percentile over the raw sample stream, mirroring
 * Histogram::percentile's rank convention (ceiling rank, minimum 1).
 */
std::uint64_t
exactPercentile(std::vector<std::uint64_t> values, double p)
{
    std::sort(values.begin(), values.end());
    std::uint64_t rank = static_cast<std::uint64_t>(
        std::ceil(p / 100.0 * static_cast<double>(values.size())));
    if (rank == 0)
        rank = 1;
    return values[rank - 1];
}

/** Assert the histogram tracks the exact stream at every percentile. */
void
expectMatchesExact(const Histogram &h,
                   const std::vector<std::uint64_t> &values,
                   const char *label)
{
    for (double p : {1.0, 10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 99.9,
                     99.99, 100.0}) {
        double got = static_cast<double>(h.percentile(p));
        double expect = static_cast<double>(exactPercentile(values, p));
        // The representative is the bucket upper bound: one part in 64
        // of quantization, plus a grain of absolute slack for tiny
        // values stored exactly.
        EXPECT_LE(std::abs(got - expect), expect / 64.0 + 1.0)
            << label << " at p=" << p;
    }
}

} // namespace

TEST(Histogram, DifferentialPercentilesUniform)
{
    Histogram h;
    std::vector<std::uint64_t> values;
    Rng rng(0xD1FF1);
    for (int i = 0; i < 20000; ++i) {
        std::uint64_t v = rng.below(50'000'000);
        h.record(v);
        values.push_back(v);
    }
    expectMatchesExact(h, values, "uniform");
}

TEST(Histogram, DifferentialPercentilesLogUniform)
{
    // Spans ~12 orders of magnitude, like pause-vs-latency data.
    Histogram h;
    std::vector<std::uint64_t> values;
    Rng rng(0xD1FF2);
    for (int i = 0; i < 20000; ++i) {
        std::uint64_t v = static_cast<std::uint64_t>(
            std::pow(2.0, rng.real() * 40.0));
        h.record(v);
        values.push_back(v);
    }
    expectMatchesExact(h, values, "log-uniform");
}

TEST(Histogram, DifferentialPercentilesHeavyTailed)
{
    // 97% fast ops with a sparse 1000x tail — the shape where a rank
    // bug would silently misreport p99.9 while p50 still looks sane.
    Histogram h;
    std::vector<std::uint64_t> values;
    Rng rng(0xD1FF3);
    for (int i = 0; i < 20000; ++i) {
        std::uint64_t v = rng.chance(0.03)
            ? 1'000'000 + rng.below(1'000'000'000)
            : 1'000 + rng.below(50'000);
        h.record(v);
        values.push_back(v);
    }
    expectMatchesExact(h, values, "heavy-tailed");
}

TEST(Histogram, DifferentialPercentilesAfterMerge)
{
    // Percentiles of a merged histogram must match the exact
    // percentiles of the concatenated stream.
    Histogram a;
    Histogram b;
    std::vector<std::uint64_t> values;
    Rng rng(0xD1FF4);
    for (int i = 0; i < 10000; ++i) {
        std::uint64_t small = rng.below(100'000);
        std::uint64_t large = 1'000'000 + rng.below(100'000'000);
        a.record(small);
        b.record(large);
        values.push_back(small);
        values.push_back(large);
    }
    a.merge(b);
    EXPECT_EQ(a.count(), values.size());
    expectMatchesExact(a, values, "merged");
}

TEST(Histogram, MeanValue)
{
    Histogram h;
    h.record(10);
    h.record(20);
    h.record(30);
    EXPECT_DOUBLE_EQ(h.meanValue(), 20.0);
}

// ----- table -------------------------------------------------------

TEST(Table, RendersHeaderAndRows)
{
    TextTable t({"a", "bb"});
    t.addRow({"1", "2"});
    std::string out = t.str();
    EXPECT_NE(out.find("a"), std::string::npos);
    EXPECT_NE(out.find("bb"), std::string::npos);
    EXPECT_NE(out.find("1"), std::string::npos);
    EXPECT_NE(out.find("---"), std::string::npos);
}

TEST(Table, CellByCell)
{
    TextTable t({"x", "y", "z"});
    t.beginRow();
    t.cell("foo");
    t.cell(3.14159, 2);
    t.blank();
    std::string out = t.str();
    EXPECT_NE(out.find("foo"), std::string::npos);
    EXPECT_NE(out.find("3.14"), std::string::npos);
}

TEST(Table, ColumnsAligned)
{
    TextTable t({"name", "v"});
    t.addRow({"short", "1"});
    t.addRow({"muchlongername", "2"});
    std::string out = t.str();
    // Find the column of '1' and '2': both values must align.
    auto line_of = [&](char c) {
        std::size_t pos = out.find(c);
        std::size_t line_start = out.rfind('\n', pos);
        return pos - (line_start == std::string::npos ? 0 : line_start);
    };
    EXPECT_EQ(line_of('1'), line_of('2'));
}

TEST(TableDeath, RowWidthMismatch)
{
    TextTable t({"a", "b"});
    EXPECT_DEATH(t.addRow({"only-one"}), "row width");
}

// ----- host timer ----------------------------------------------------

TEST(HostTimerStats, MedianHandComputed)
{
    EXPECT_DOUBLE_EQ(medianOf({}), 0.0);
    EXPECT_DOUBLE_EQ(medianOf({7.0}), 7.0);
    EXPECT_DOUBLE_EQ(medianOf({3.0, 1.0, 2.0}), 2.0);
    EXPECT_DOUBLE_EQ(medianOf({4.0, 1.0, 3.0, 2.0}), 2.5);
    // Robustness: one wild outlier must not move the median.
    EXPECT_DOUBLE_EQ(medianOf({5.0, 5.0, 5.0, 5.0, 1e9}), 5.0);
}

TEST(HostTimer, MeasuresMonotonically)
{
    HostTimer t;
    std::uint64_t a = t.elapsedNs();
    std::uint64_t b = t.elapsedNs();
    EXPECT_GE(b, a);
    t.restart();
    // After restart the clock still advances and stays non-negative.
    EXPECT_GE(t.elapsedSec(), 0.0);
}

} // namespace
} // namespace distill
