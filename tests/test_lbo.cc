/**
 * @file
 * Tests for the LBO methodology layer: record serialization, the
 * analyzer's math (reproducing the paper's Tables II-V walkthrough
 * numerically), attribution modes, and the sweep runner's cache.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "lbo/analyzer.hh"
#include "lbo/record.hh"
#include "lbo/sweep.hh"
#include "heap/layout.hh"
#include "test_util.hh"
#include "wl/suite.hh"

namespace distill::lbo
{
namespace
{

RunRecord
makeRecord(const std::string &bench, const std::string &collector,
           double factor, double total_cycles, double stw_cycles,
           double gc_thread_cycles, double wall = 1e9,
           double stw_wall = 1e7)
{
    RunRecord r;
    r.bench = bench;
    r.collector = collector;
    r.heapFactor = factor;
    r.heapBytes = 32 * MiB;
    r.completed = true;
    r.cycles = total_cycles;
    r.stwCycles = stw_cycles;
    r.gcThreadCycles = gc_thread_cycles;
    r.wallNs = wall;
    r.stwWallNs = stw_wall;
    return r;
}

// ----- record CSV ----------------------------------------------------

TEST(Record, CsvRoundTrip)
{
    RunRecord r;
    r.bench = "h2";
    r.collector = "Shenandoah";
    r.heapFactor = 3.0;
    r.heapBytes = 123456;
    r.seed = 42;
    r.invocation = 7;
    r.completed = true;
    r.oom = false;
    r.wallNs = 1.5e9;
    r.cycles = 2.5e9;
    r.stwWallNs = 1e6;
    r.stwCycles = 2e6;
    r.gcThreadCycles = 3e8;
    r.mutatorCycles = 2.2e9;
    r.pauses = 12;
    r.pauseP9999Ns = 777;
    r.meteredP99Ns = 888;
    r.allocStallNs = 999;
    r.degeneratedGcs = 3;
    r.bytesAllocated = 1 << 30;

    RunRecord back;
    ASSERT_TRUE(RunRecord::fromCsv(r.toCsv(), back));
    EXPECT_EQ(back.bench, r.bench);
    EXPECT_EQ(back.collector, r.collector);
    EXPECT_EQ(back.heapFactor, r.heapFactor);
    EXPECT_EQ(back.heapBytes, r.heapBytes);
    EXPECT_EQ(back.seed, r.seed);
    EXPECT_EQ(back.invocation, r.invocation);
    EXPECT_EQ(back.completed, r.completed);
    EXPECT_EQ(back.wallNs, r.wallNs);
    EXPECT_EQ(back.cycles, r.cycles);
    EXPECT_EQ(back.gcThreadCycles, r.gcThreadCycles);
    EXPECT_EQ(back.pauses, r.pauses);
    EXPECT_EQ(back.pauseP9999Ns, r.pauseP9999Ns);
    EXPECT_EQ(back.meteredP99Ns, r.meteredP99Ns);
    EXPECT_EQ(back.allocStallNs, r.allocStallNs);
    EXPECT_EQ(back.degeneratedGcs, r.degeneratedGcs);
    EXPECT_EQ(back.bytesAllocated, r.bytesAllocated);
}

TEST(Record, MalformedCsvRejected)
{
    RunRecord r;
    EXPECT_FALSE(RunRecord::fromCsv("not,a,record", r));
    EXPECT_FALSE(RunRecord::fromCsv("", r));
}

TEST(Record, MalformedFieldsRejected)
{
    // Each field must be exactly what toCsv() writes: no sign on an
    // unsigned column, no whitespace or trailing junk, nothing out of
    // the column's range, and bools spelled 0 or 1.
    RunRecord good;
    good.bench = "h2";
    good.collector = "G1";
    const std::string line = good.toCsv();
    // line with the field under (inner) column @p column set to @p text
    auto with = [&line](const std::string &column, const std::string &text) {
        std::string header = RunRecord::csvHeader();
        auto at = header.begin() + header.find("," + column + ",");
        std::size_t index = std::count(header.begin(), at, ',') + 1;
        return test::csvPrefix(line, index) + "," + text +
            line.substr(test::csvPrefix(line, index + 1).size());
    };
    RunRecord back;
    ASSERT_TRUE(RunRecord::fromCsv(with("heapBytes", "7"), back));
    EXPECT_EQ(back.heapBytes, 7u);
    const std::pair<const char *, const char *> malformed[] = {
        {"heapBytes", "-1"},          {"heapBytes", "+1"},
        {"heapBytes", "12abc"},       {"heapBytes", " 7"},
        {"heapBytes", "7 "},          {"heapBytes", ""},
        {"heapBytes", "18446744073709551616"},
        {"invocation", "4294967297"}, {"cycles", "2.5e9junk"},
        {"cycles", " 2.5"},           {"cycles", "1e999"},
        {"completed", "yes"},         {"completed", "2"},
        {"sizingGrows", "0x10"},
    };
    for (const auto &[column, text] : malformed) {
        EXPECT_FALSE(RunRecord::fromCsv(with(column, text), back))
            << column << "='" << text << "'";
    }

    // Only layout boundaries are widths: one column past the legacy
    // layout is neither it nor the failure layout.
    EXPECT_FALSE(RunRecord::fromCsv(
        test::csvPrefix(line, RunRecord::csvWidth(
                                  RunRecord::CsvLayout::Legacy) + 1),
        back));
    EXPECT_FALSE(RunRecord::fromCsv(line + ",0", back));
}

TEST(Record, EveryLayoutParsesItsPrefixAndDefaultsTheRest)
{
    // For every accepted width, the columns the layout has round-trip
    // and every other column keeps its RunRecord{} default.
    RunRecord r;
    r.bench = "xalan";
    r.collector = "Shenandoah";
    r.heapFactor = 1.4;
    r.heapBytes = 123456;
    r.seed = 42;
    r.invocation = 3;
    r.cycles = 2.5e9;
    r.status = "error";
    r.failReason = "boom";
    r.faultSeed = 16;
    r.schedSeed = 7;
    r.signature = "SIGSEGV@mark";
    r.sidecar = "x.report";
    r.notes = "slow-teardown";
    r.markCycles = 11;
    r.serveIssued = 5;
    r.serveLost = 1;
    r.stealHits = 9;
    r.sizingPolicy = "adaptive";
    r.sizingGrows = 2;
    const std::string full = r.toCsv();
    const std::string defaults = RunRecord{}.toCsv();
    for (std::size_t width : RunRecord::csvWidths()) {
        RunRecord back;
        ASSERT_TRUE(RunRecord::fromCsv(test::csvPrefix(full, width), back))
            << "width " << width;
        if (width == RunRecord::csvWidth(RunRecord::CsvLayout::Legacy))
            back.status = RunRecord{}.status; // derived: see below
        std::string line = back.toCsv();
        std::string kept = test::csvPrefix(line, width);
        EXPECT_EQ(kept, test::csvPrefix(full, width)) << "width " << width;
        EXPECT_EQ(line.substr(kept.size()),
                  defaults.substr(test::csvPrefix(defaults, width).size()))
            << "width " << width;
    }
}

TEST(Record, CsvRoundTripFailureColumns)
{
    RunRecord r;
    r.bench = "xalan";
    r.collector = "ZGC";
    r.heapBytes = 4 * MiB;
    r.completed = false;
    r.oom = true;
    r.status = "oom";
    r.failReason = "ZGC: allocation failure, with commas\nand a newline";
    r.faultSeed = 16;
    r.schedSeed = 7;

    RunRecord back;
    ASSERT_TRUE(RunRecord::fromCsv(r.toCsv(), back));
    EXPECT_EQ(back.status, "oom");
    // CSV-hostile characters come back sanitized, not as extra fields.
    EXPECT_EQ(back.failReason,
              "ZGC: allocation failure; with commas;and a newline");
    EXPECT_EQ(back.faultSeed, 16u);
    EXPECT_EQ(back.schedSeed, 7u);
    EXPECT_TRUE(back.failed());
    EXPECT_FALSE(back.completed);
    EXPECT_TRUE(back.oom);
}

TEST(Record, StatusForClassifiesOutcomes)
{
    EXPECT_STREQ(RunRecord::statusFor(true, false, ""), "ok");
    EXPECT_STREQ(RunRecord::statusFor(false, true,
                                      "G1: allocation failure (OOM)"),
                 "oom");
    EXPECT_STREQ(RunRecord::statusFor(false, false,
                                      "virtual-time limit exceeded"),
                 "timeout");
    EXPECT_STREQ(RunRecord::statusFor(
                     false, false, "oracle: GC #3 broke graph isomorphism"),
                 "oracle");
    EXPECT_STREQ(RunRecord::statusFor(false, false, "anything else"),
                 "error");
}

TEST(Record, LegacyCsvWithoutFailureColumnsParses)
{
    // Rows written before the status/failReason/faultSeed/schedSeed
    // columns existed (distill_runs_v3.csv) must keep parsing, with
    // the structured outcome derived from the completed/oom flags.
    RunRecord r;
    r.bench = "h2";
    r.collector = "Serial";
    r.completed = false;
    r.oom = true;
    r.cycles = 1.25e9;
    r.status = "oom";
    r.faultSeed = 99;
    r.schedSeed = 55;
    RunRecord ok = r;
    ok.completed = true;
    ok.oom = false;
    ok.status = "ok";
    const std::size_t legacy =
        RunRecord::csvWidth(RunRecord::CsvLayout::Legacy);
    for (std::size_t width : RunRecord::csvWidths()) {
        RunRecord back;
        ASSERT_TRUE(RunRecord::fromCsv(test::csvPrefix(r.toCsv(), width),
                                       back));
        EXPECT_EQ(back.bench, "h2");
        EXPECT_EQ(back.cycles, 1.25e9);
        EXPECT_EQ(back.status, "oom"); // derived at the legacy width
        EXPECT_TRUE(back.failReason.empty());
        EXPECT_EQ(back.faultSeed, width == legacy ? 0u : 99u);
        EXPECT_EQ(back.schedSeed, width == legacy ? 0u : 55u);

        ASSERT_TRUE(RunRecord::fromCsv(test::csvPrefix(ok.toCsv(), width),
                                       back));
        EXPECT_EQ(back.status, "ok");
        EXPECT_FALSE(back.failed());
    }
}

TEST(Record, PreForensicsCsvParses)
{
    // Rows written before the signature/sidecar columns existed keep
    // their stored failure columns and get empty forensics columns.
    RunRecord r;
    r.bench = "h2";
    r.collector = "ZGC";
    r.completed = false;
    r.status = "timeout";
    r.failReason = "virtual-time limit exceeded";
    r.faultSeed = 16;
    r.schedSeed = 3;
    r.signature = "SIGSEGV@evacuate";
    r.sidecar = "x.report";
    for (std::size_t width : RunRecord::csvWidths()) {
        if (width < RunRecord::csvWidth(RunRecord::CsvLayout::Failure))
            continue;
        RunRecord back;
        ASSERT_TRUE(RunRecord::fromCsv(test::csvPrefix(r.toCsv(), width),
                                       back));
        EXPECT_EQ(back.status, "timeout");
        EXPECT_EQ(back.failReason, "virtual-time limit exceeded");
        EXPECT_EQ(back.faultSeed, 16u);
        bool forensics =
            width >= RunRecord::csvWidth(RunRecord::CsvLayout::Forensics);
        EXPECT_EQ(back.signature, forensics ? r.signature : "");
        EXPECT_EQ(back.sidecar, forensics ? r.sidecar : "");
    }
}

TEST(Record, CsvRoundTripForensicsColumns)
{
    RunRecord r;
    r.bench = "jme";
    r.collector = "Serial";
    r.completed = false;
    r.status = "hang";
    r.failReason = "wallclock-timeout after 3000ms";
    r.signature = "SIGTERM@fault-livelock";
    r.sidecar = "./distill-crash-jme-Serial-1-2-0.report";

    RunRecord back;
    ASSERT_TRUE(RunRecord::fromCsv(r.toCsv(), back));
    EXPECT_EQ(back.status, "hang");
    EXPECT_EQ(back.signature, "SIGTERM@fault-livelock");
    EXPECT_EQ(back.sidecar, r.sidecar);

    // 39-field rows from clean runs ended ",," (empty forensics and
    // notes), and getline swallows the final empty field; parsing
    // must restore it. The current layout ends with numeric phase
    // columns, so only trimmed-back legacy lines hit this path.
    RunRecord clean;
    clean.bench = "jme";
    clean.collector = "Serial";
    clean.completed = true;
    std::string line = test::csvPrefix(
        clean.toCsv(), RunRecord::csvWidth(RunRecord::CsvLayout::Notes));
    ASSERT_EQ(line.back(), ',');
    ASSERT_TRUE(RunRecord::fromCsv(line, back));
    EXPECT_EQ(back.status, "ok");
    EXPECT_TRUE(back.signature.empty());
    EXPECT_TRUE(back.sidecar.empty());
}

TEST(Record, PhaseColumnsRoundTrip)
{
    RunRecord r;
    r.bench = "h2";
    r.collector = "ZGC";
    r.completed = true;
    r.gcThreadCycles = 8e8;
    r.markCycles = 3e8;
    r.evacCycles = 0;
    r.updateRefsCycles = 1e8;
    r.remsetRefineCycles = 0;
    r.relocateCycles = 3.5e8;
    r.sweepCycles = 0;
    r.compactCycles = 0;
    r.gcGlueCycles = 0.5e8;

    RunRecord back;
    ASSERT_TRUE(RunRecord::fromCsv(r.toCsv(), back));
    EXPECT_EQ(back.markCycles, r.markCycles);
    EXPECT_EQ(back.evacCycles, r.evacCycles);
    EXPECT_EQ(back.updateRefsCycles, r.updateRefsCycles);
    EXPECT_EQ(back.remsetRefineCycles, r.remsetRefineCycles);
    EXPECT_EQ(back.relocateCycles, r.relocateCycles);
    EXPECT_EQ(back.sweepCycles, r.sweepCycles);
    EXPECT_EQ(back.compactCycles, r.compactCycles);
    EXPECT_EQ(back.gcGlueCycles, r.gcGlueCycles);
    // The round-tripped row preserves the conservation identity.
    EXPECT_EQ(back.markCycles + back.evacCycles + back.updateRefsCycles +
                  back.remsetRefineCycles + back.relocateCycles +
                  back.sweepCycles + back.compactCycles +
                  back.gcGlueCycles,
              back.gcThreadCycles);
}

TEST(Record, PrePhaseCsvParses)
{
    // Rows written before the attribution columns existed must keep
    // parsing, with every phase column defaulting to zero.
    RunRecord r;
    r.bench = "h2";
    r.collector = "G1";
    r.completed = true;
    r.gcThreadCycles = 5e8;
    r.markCycles = 1e8;
    r.gcGlueCycles = 4e8;
    r.notes = "slow-teardown";
    for (std::size_t width : RunRecord::csvWidths()) {
        RunRecord back;
        ASSERT_TRUE(RunRecord::fromCsv(test::csvPrefix(r.toCsv(), width),
                                       back));
        EXPECT_EQ(back.gcThreadCycles, 5e8);
        bool notes =
            width >= RunRecord::csvWidth(RunRecord::CsvLayout::Notes);
        EXPECT_EQ(back.notes, notes ? "slow-teardown" : "");
        bool phases =
            width >= RunRecord::csvWidth(RunRecord::CsvLayout::Phase);
        EXPECT_EQ(back.markCycles, phases ? 1e8 : 0.0);
        EXPECT_EQ(back.gcGlueCycles, phases ? 4e8 : 0.0);
    }
}

TEST(Sweep, ResumeSkipsTruncatedTrailingLine)
{
    // A sweep killed mid-append leaves a final line without its
    // newline; the resume loader must drop it (the partial row could
    // parse "successfully" with corrupt values) and load the rest.
    namespace fs = std::filesystem;
    std::string path =
        (fs::temp_directory_path() / "distill_resume_truncated.csv")
            .string();
    RunRecord full;
    full.bench = "jme";
    full.collector = "Serial";
    full.heapBytes = 4 * MiB;
    full.seed = 42;
    full.completed = true;
    {
        std::ofstream out(path, std::ios::trunc);
        out << RunRecord::csvHeader() << '\n';
        out << full.toCsv() << '\n';
        RunRecord partial = full;
        partial.seed = 43;
        std::string cut = partial.toCsv();
        out << cut.substr(0, cut.size() / 2); // no trailing newline
    }
    SweepRunner runner;
    EXPECT_EQ(runner.loadResumeFile(path), 1u);
    std::remove(path.c_str());
}

// ----- analyzer: the paper's Tables II-V walkthrough -----------------

class PaperWalkthrough : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        // Table III of the paper (billions of cycles, h2 at 3.0x):
        //   Parallel:   STW 4.46, other 103.87, total 108.33
        //   Serial:     STW 2.75, other 105.37, total 108.12
        //   Shenandoah: STW 0.03, other 218.69, total 218.72
        std::vector<RunRecord> records;
        records.push_back(makeRecord("h2", "Parallel", 3.0, 108.33e9,
                                     4.46e9, 4.46e9));
        records.push_back(makeRecord("h2", "Serial", 3.0, 108.12e9,
                                     2.75e9, 2.75e9));
        records.push_back(makeRecord("h2", "Shenandoah", 3.0, 218.72e9,
                                     0.03e9, 0.03e9));
        analyzer_ = std::make_unique<LboAnalyzer>(std::move(records));
    }

    std::unique_ptr<LboAnalyzer> analyzer_;
};

TEST_F(PaperWalkthrough, IdealEstimateIsTightestOther)
{
    // Table III: min other cycles = Parallel's 103.87e9.
    double ideal = analyzer_->idealEstimate("h2", metrics::Metric::Cycles,
                                            Attribution::PausesOnly);
    EXPECT_NEAR(ideal, 103.87e9, 1e6);
}

TEST_F(PaperWalkthrough, LboValuesMatchTableIV)
{
    auto lbo = [&](const char *name) {
        return analyzer_->lbo("h2", name, 3.0, metrics::Metric::Cycles,
                              Attribution::PausesOnly)
            .mean;
    };
    EXPECT_NEAR(lbo("Parallel"), 1.043, 0.001);
    EXPECT_NEAR(lbo("Serial"), 1.041, 0.001);
    EXPECT_NEAR(lbo("Shenandoah"), 2.106, 0.001);
}

TEST_F(PaperWalkthrough, TighterBoundRaisesLbo)
{
    // Table V: adding a hypothetical collector with other = 100.00e9
    // tightens the bound and raises every LBO.
    std::vector<RunRecord> records;
    records.push_back(makeRecord("h2", "Parallel", 3.0, 108.33e9,
                                 4.46e9, 4.46e9));
    records.push_back(makeRecord("h2", "Serial", 3.0, 108.12e9, 2.75e9,
                                 2.75e9));
    records.push_back(makeRecord("h2", "Shenandoah", 3.0, 218.72e9,
                                 0.03e9, 0.03e9));
    records.push_back(makeRecord("h2", "Hypothetical", 3.0, 109.50e9,
                                 9.5e9, 9.5e9));
    LboAnalyzer tighter(std::move(records));

    auto lbo = [&](const char *name) {
        return tighter.lbo("h2", name, 3.0, metrics::Metric::Cycles,
                           Attribution::PausesOnly)
            .mean;
    };
    EXPECT_NEAR(lbo("Parallel"), 1.083, 0.001);
    EXPECT_NEAR(lbo("Serial"), 1.081, 0.001);
    EXPECT_NEAR(lbo("Shenandoah"), 2.187, 0.001);
    EXPECT_NEAR(lbo("Hypothetical"), 1.095, 0.001);
}

TEST_F(PaperWalkthrough, LboAtLeastOne)
{
    for (const char *name : {"Parallel", "Serial", "Shenandoah"}) {
        EXPECT_GE(analyzer_->lbo("h2", name, 3.0,
                                 metrics::Metric::Cycles,
                                 Attribution::PausesOnly)
                      .mean,
                  1.0);
    }
}

// ----- analyzer: attribution and edge cases ---------------------------

TEST(Analyzer, RefinedAttributionTightensConcurrentGcBound)
{
    // A concurrent collector hides most GC cycles outside pauses;
    // attributing GC-thread cycles yields a larger estimated GC cost
    // and thus a smaller ideal estimate from that collector.
    std::vector<RunRecord> records;
    records.push_back(makeRecord("w", "Conc", 2.0, 200e9, 0.1e9,
                                 80e9));
    LboAnalyzer analyzer(std::move(records));
    double naive = analyzer.idealEstimate("w", metrics::Metric::Cycles,
                                          Attribution::PausesOnly);
    double refined = analyzer.idealEstimate("w", metrics::Metric::Cycles,
                                            Attribution::GcThreads);
    EXPECT_NEAR(naive, 199.9e9, 1e6);
    EXPECT_NEAR(refined, 120e9, 1e6);
    EXPECT_LT(refined, naive);
}

TEST(Analyzer, WallTimeUsesPausesForBothAttributions)
{
    std::vector<RunRecord> records;
    records.push_back(makeRecord("w", "A", 2.0, 100e9, 1e9, 50e9,
                                 2e9, 0.5e9));
    LboAnalyzer analyzer(std::move(records));
    EXPECT_EQ(analyzer.idealEstimate("w", metrics::Metric::WallTime,
                                     Attribution::PausesOnly),
              analyzer.idealEstimate("w", metrics::Metric::WallTime,
                                     Attribution::GcThreads));
}

TEST(Analyzer, IncompleteConfigInvalid)
{
    std::vector<RunRecord> records;
    RunRecord bad = makeRecord("w", "A", 2.0, 1e9, 1e8, 1e8);
    bad.completed = false;
    bad.oom = true;
    records.push_back(bad);
    records.push_back(makeRecord("w", "B", 2.0, 2e9, 1e8, 1e8));
    LboAnalyzer analyzer(std::move(records));
    EXPECT_FALSE(analyzer.ran("w", "A", 2.0));
    EXPECT_TRUE(analyzer.ran("w", "B", 2.0));
    EXPECT_FALSE(analyzer
                     .lbo("w", "A", 2.0, metrics::Metric::Cycles,
                          Attribution::PausesOnly)
                     .valid);
}

TEST(Analyzer, PartiallyFailedConfigInvalid)
{
    std::vector<RunRecord> records;
    records.push_back(makeRecord("w", "A", 2.0, 1e9, 1e8, 1e8));
    RunRecord bad = makeRecord("w", "A", 2.0, 1e9, 1e8, 1e8);
    bad.completed = false;
    records.push_back(bad);
    LboAnalyzer analyzer(std::move(records));
    // Paper convention: a collector must run all invocations.
    EXPECT_FALSE(analyzer.ran("w", "A", 2.0));
}

TEST(Analyzer, MeanAndCiOverInvocations)
{
    std::vector<RunRecord> records;
    for (double total : {100e9, 110e9, 120e9}) {
        RunRecord r = makeRecord("w", "A", 2.0, total, 10e9, 10e9);
        r.invocation = static_cast<unsigned>(total / 1e9);
        records.push_back(r);
    }
    LboAnalyzer analyzer(std::move(records));
    auto v = analyzer.total("w", "A", 2.0, metrics::Metric::Cycles);
    ASSERT_TRUE(v.valid);
    EXPECT_NEAR(v.mean, 110e9, 1);
    EXPECT_GT(v.ci, 0.0);
}

TEST(Analyzer, StwPercent)
{
    std::vector<RunRecord> records;
    records.push_back(makeRecord("w", "A", 2.0, 100e9, 5e9, 5e9,
                                 1e9, 0.02e9));
    LboAnalyzer analyzer(std::move(records));
    EXPECT_NEAR(analyzer.stwPercent("w", "A", 2.0,
                                    metrics::Metric::Cycles)
                    .mean,
                5.0, 1e-9);
    EXPECT_NEAR(analyzer.stwPercent("w", "A", 2.0,
                                    metrics::Metric::WallTime)
                    .mean,
                2.0, 1e-9);
}

TEST(Analyzer, EpsilonTightensTimeBound)
{
    // Epsilon (no GC) typically provides the best wall-time bound.
    std::vector<RunRecord> records;
    records.push_back(makeRecord("w", "Serial", 2.0, 0, 0, 0, 1.2e9,
                                 0.1e9));
    RunRecord eps = makeRecord("w", "Epsilon", 0.0, 0, 0, 0, 1.0e9, 0);
    records.push_back(eps);
    LboAnalyzer analyzer(std::move(records));
    EXPECT_NEAR(analyzer.idealEstimate("w", metrics::Metric::WallTime,
                                       Attribution::PausesOnly),
                1.0e9, 1);
    EXPECT_NEAR(analyzer
                    .lbo("w", "Serial", 2.0, metrics::Metric::WallTime,
                         Attribution::PausesOnly)
                    .mean,
                1.2, 1e-9);
}

TEST(Analyzer, EnergyMetricComputes)
{
    std::vector<RunRecord> records;
    records.push_back(makeRecord("w", "A", 2.0, 100e9, 5e9, 5e9));
    LboAnalyzer analyzer(std::move(records));
    EXPECT_TRUE(analyzer.lbo("w", "A", 2.0, metrics::Metric::Energy,
                             Attribution::GcThreads)
                    .valid);
}

// ----- sweep runner -------------------------------------------------------

TEST(Sweep, PaperHeapFactors)
{
    const auto &factors = paperHeapFactors();
    ASSERT_EQ(factors.size(), 8u);
    EXPECT_EQ(factors.front(), 1.4);
    EXPECT_EQ(factors.back(), 6.0);
    for (std::size_t i = 1; i < factors.size(); ++i)
        EXPECT_GT(factors[i], factors[i - 1]);
}

TEST(Sweep, InvocationSeedStableAndDistinct)
{
    EXPECT_EQ(invocationSeed(1, "h2", 0), invocationSeed(1, "h2", 0));
    EXPECT_NE(invocationSeed(1, "h2", 0), invocationSeed(1, "h2", 1));
    EXPECT_NE(invocationSeed(1, "h2", 0), invocationSeed(1, "fop", 0));
    EXPECT_NE(invocationSeed(1, "h2", 0), invocationSeed(2, "h2", 0));
}

TEST(Sweep, InvocationsFromEnv)
{
    unsetenv("DISTILL_INVOCATIONS");
    EXPECT_EQ(invocationsFromEnv(5), 5u);
    setenv("DISTILL_INVOCATIONS", "9", 1);
    EXPECT_EQ(invocationsFromEnv(5), 9u);
    setenv("DISTILL_INVOCATIONS", "bogus", 1);
    EXPECT_EQ(invocationsFromEnv(5), 5u);
    unsetenv("DISTILL_INVOCATIONS");
}

class SweepCacheTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        // One directory per test: the fixture's tests share a process
        // but may also run as separate ctest jobs in parallel, and a
        // shared path races remove_all against a sibling's iteration.
        const ::testing::TestInfo *info =
            ::testing::UnitTest::GetInstance()->current_test_info();
        dir_ = std::filesystem::temp_directory_path() /
            (std::string("distill_sweep_test_") + info->name());
        std::filesystem::remove_all(dir_);
        std::filesystem::create_directories(dir_);
        setenv("DISTILL_CACHE_DIR", dir_.c_str(), 1);
        unsetenv("DISTILL_NO_CACHE");
    }

    void
    TearDown() override
    {
        unsetenv("DISTILL_CACHE_DIR");
        std::filesystem::remove_all(dir_);
    }

    SweepConfig
    tinyConfig()
    {
        SweepConfig config;
        wl::WorkloadSpec spec = wl::findSpec("jme");
        spec.allocBytesPerThread = 256 * KiB;
        spec.minHeapBytes = 8 * heap::regionSize; // skip min-heap search
        config.benchmarks = {spec};
        config.heapFactors = {2.0};
        config.collectors = {gc::CollectorKind::Serial,
                             gc::CollectorKind::G1};
        config.includeEpsilon = true;
        config.invocations = 2;
        return config;
    }

    std::filesystem::path dir_;
};

TEST_F(SweepCacheTest, RunsGridAndCaches)
{
    SweepRunner runner;
    auto records = runner.run(tinyConfig());
    // 2 invocations x (epsilon + 2 collectors x 1 factor) = 6 runs.
    ASSERT_EQ(records.size(), 6u);
    for (const RunRecord &r : records)
        EXPECT_TRUE(r.completed) << r.collector;

    // A fresh runner must serve the same grid from the cache file.
    SweepRunner cached;
    auto again = cached.run(tinyConfig());
    ASSERT_EQ(again.size(), records.size());
    for (std::size_t i = 0; i < records.size(); ++i) {
        EXPECT_EQ(again[i].cycles, records[i].cycles);
        EXPECT_EQ(again[i].wallNs, records[i].wallNs);
    }
}

TEST_F(SweepCacheTest, NoCacheEnvDisables)
{
    setenv("DISTILL_NO_CACHE", "1", 1);
    SweepRunner runner;
    runner.run(tinyConfig());
    bool any_csv = false;
    for (auto &entry : std::filesystem::directory_iterator(dir_))
        any_csv |= entry.path().extension() == ".csv";
    EXPECT_FALSE(any_csv);
    unsetenv("DISTILL_NO_CACHE");
}

TEST_F(SweepCacheTest, MinHeapFoundAndCached)
{
    SweepRunner runner;
    wl::WorkloadSpec spec = wl::findSpec("jme");
    spec.allocBytesPerThread = 256 * KiB;
    Environment env;
    std::uint64_t min_heap = runner.minHeap(spec, env);
    EXPECT_GT(min_heap, 0u);
    EXPECT_EQ(min_heap % heap::regionSize, 0u);
    // Cached lookup returns the identical answer.
    EXPECT_EQ(runner.minHeap(spec, env), min_heap);
    SweepRunner second;
    EXPECT_EQ(second.minHeap(spec, env), min_heap);
}

TEST_F(SweepCacheTest, MinHeapIsMinimal)
{
    SweepRunner runner;
    wl::WorkloadSpec spec = wl::findSpec("jme");
    spec.allocBytesPerThread = 256 * KiB;
    Environment env;
    std::uint64_t min_heap = runner.minHeap(spec, env);
    // One region less must fail (that is what "minimum" means).
    RunRecord below = runOne(spec, gc::CollectorKind::G1,
                             min_heap - heap::regionSize, 1.0,
                             invocationSeed(0xF00D, spec.name, 0), 0, env);
    EXPECT_FALSE(below.completed);
    RunRecord at = runOne(spec, gc::CollectorKind::G1, min_heap, 1.0,
                          invocationSeed(0xF00D, spec.name, 0), 0, env);
    EXPECT_TRUE(at.completed);
}

} // namespace
} // namespace distill::lbo
