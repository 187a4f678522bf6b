/**
 * @file
 * End-to-end integration tests: the paper's qualitative findings must
 * emerge from real runs of the suite workloads under the real
 * collectors. These are the "shape" checks the reproduction is
 * calibrated against (see EXPERIMENTS.md).
 */

#include <gtest/gtest.h>

#include "lbo/analyzer.hh"
#include "lbo/run.hh"
#include "heap/layout.hh"
#include "lbo/sweep.hh"
#include "wl/suite.hh"

namespace distill
{
namespace
{

using gc::CollectorKind;
using lbo::Attribution;
using lbo::Environment;
using lbo::LboAnalyzer;
using lbo::RunRecord;
using lbo::runOne;
using metrics::Metric;

/** Shrink a suite benchmark for test runtimes. */
wl::WorkloadSpec
shrink(const char *name, std::uint64_t alloc_mib, std::uint64_t heap_regions)
{
    wl::WorkloadSpec spec = wl::findSpec(name);
    spec.allocBytesPerThread = alloc_mib * MiB;
    spec.minHeapBytes = heap_regions * heap::regionSize;
    return spec;
}

/** Run one invocation at a heap multiplier of the spec's min heap. */
RunRecord
at(const wl::WorkloadSpec &spec, CollectorKind kind, double factor,
   std::uint64_t seed = 0xBEEF)
{
    std::uint64_t heap = lbo::heapBytesAt(spec, factor);
    return runOne(spec, kind, heap, factor, seed, 0);
}

TEST(Integration, AllCollectorsCompleteH2AtGenerousHeap)
{
    wl::WorkloadSpec spec = shrink("h2", 4, 52);
    for (CollectorKind kind : gc::productionCollectors()) {
        RunRecord r = at(spec, kind, 3.0);
        EXPECT_TRUE(r.completed)
            << gc::collectorName(kind) << " failed";
    }
}

TEST(Integration, SerialBestCyclesParallelBestTime)
{
    // Paper §IV-C(b): Parallel beats Serial on wall-clock, Serial
    // beats Parallel on cycles.
    wl::WorkloadSpec spec = shrink("h2", 4, 52);
    RunRecord serial = at(spec, CollectorKind::Serial, 2.0);
    RunRecord parallel = at(spec, CollectorKind::Parallel, 2.0);
    ASSERT_TRUE(serial.completed);
    ASSERT_TRUE(parallel.completed);
    EXPECT_LT(parallel.wallNs, serial.wallNs);
    EXPECT_LT(serial.cycles, parallel.cycles);
}

TEST(Integration, ConcurrentCopyingCostsMoreCycles)
{
    // Paper §IV-C(c): Shenandoah/ZGC are significantly more cycle-
    // hungry than G1, which exceeds the STW collectors.
    wl::WorkloadSpec spec = shrink("lusearch", 2, 28);
    RunRecord serial = at(spec, CollectorKind::Serial, 3.0);
    RunRecord g1 = at(spec, CollectorKind::G1, 3.0);
    RunRecord shen = at(spec, CollectorKind::Shenandoah, 3.0);
    ASSERT_TRUE(serial.completed);
    ASSERT_TRUE(g1.completed);
    ASSERT_TRUE(shen.completed);
    EXPECT_LT(serial.cycles, g1.cycles);
    EXPECT_LT(g1.cycles, shen.cycles);
}

TEST(Integration, LowPauseCollectorsHaveTinyStwShare)
{
    // Tables X/XI: concurrent copying collectors spend a negligible
    // share of cost inside pauses even while their total cost is high.
    wl::WorkloadSpec spec = shrink("h2", 4, 52);
    RunRecord serial = at(spec, CollectorKind::Serial, 2.4);
    RunRecord zgc = at(spec, CollectorKind::Zgc, 2.4);
    ASSERT_TRUE(serial.completed);
    ASSERT_TRUE(zgc.completed);
    double serial_stw_pct = serial.stwCycles / serial.cycles;
    double zgc_stw_pct = zgc.stwCycles / zgc.cycles;
    EXPECT_LT(zgc_stw_pct, serial_stw_pct);
    EXPECT_LT(zgc_stw_pct, 0.05);
}

TEST(Integration, PauseDurationsOrdered)
{
    // Fig. 3: low-pause collectors deliver (much) shorter pauses.
    wl::WorkloadSpec spec = shrink("lusearch", 2, 28);
    RunRecord serial = at(spec, CollectorKind::Serial, 3.0);
    RunRecord zgc = at(spec, CollectorKind::Zgc, 3.0);
    ASSERT_TRUE(serial.completed);
    ASSERT_TRUE(zgc.completed);
    EXPECT_LT(zgc.pauseP99Ns, serial.pauseP99Ns);
}

TEST(Integration, LowPauseDoesNotMeanLowLatency)
{
    // Fig. 2/4: despite shorter pauses, Shenandoah's metered tail
    // latency is worse than Parallel's on lusearch (throttling and
    // concurrent interference stretch processing).
    wl::WorkloadSpec spec = shrink("lusearch", 2, 28);
    RunRecord parallel = at(spec, CollectorKind::Parallel, 3.0);
    RunRecord shen = at(spec, CollectorKind::Shenandoah, 3.0);
    ASSERT_TRUE(parallel.completed);
    ASSERT_TRUE(shen.completed);
    EXPECT_LT(shen.pauseP90Ns, parallel.pauseP90Ns); // pauses better...
    EXPECT_GT(shen.meteredP9999Ns, parallel.meteredP9999Ns); // ...latency worse
}

TEST(Integration, ShenandoahTimeCycleGapOnXalan)
{
    // §IV-C(d): pacing burns wall-clock but no cycles, so xalan's
    // time overhead far exceeds its cycle overhead.
    wl::WorkloadSpec spec = shrink("xalan", 6, 33);
    RunRecord shen = at(spec, CollectorKind::Shenandoah, 3.0);
    RunRecord parallel = at(spec, CollectorKind::Parallel, 3.0);
    ASSERT_TRUE(shen.completed) << "shenandoah should survive xalan";
    ASSERT_TRUE(parallel.completed);
    double time_ratio = shen.wallNs / parallel.wallNs;
    double cycle_ratio = shen.cycles / parallel.cycles;
    EXPECT_GT(time_ratio, cycle_ratio);
    EXPECT_GT(shen.allocStallNs, 0.0);
}

TEST(Integration, ZgcFailsXalanAtModestHeap)
{
    // Table VIII: "ZGC simply failed to run xalan with OOM errors."
    wl::WorkloadSpec spec = shrink("xalan", 6, 33);
    RunRecord zgc = at(spec, CollectorKind::Zgc, 3.0);
    EXPECT_FALSE(zgc.completed);
    EXPECT_TRUE(zgc.oom);
}

TEST(Integration, TimeSpaceTradeoff)
{
    // Table VI: total cost falls as the heap grows (fewer GCs).
    wl::WorkloadSpec spec = shrink("h2", 4, 52);
    RunRecord tight = at(spec, CollectorKind::Serial, 1.4);
    RunRecord modest = at(spec, CollectorKind::Serial, 2.4);
    RunRecord generous = at(spec, CollectorKind::Serial, 6.0);
    ASSERT_TRUE(tight.completed);
    ASSERT_TRUE(modest.completed);
    ASSERT_TRUE(generous.completed);
    EXPECT_GT(tight.cycles, modest.cycles);
    EXPECT_GE(modest.cycles, generous.cycles);
}

TEST(Integration, LboEndToEnd)
{
    // Full pipeline: run a small grid, analyze, and check LBO
    // invariants: every LBO >= 1, best collector's LBO close to its
    // own cost ratio, refined attribution never below pauses-only.
    wl::WorkloadSpec spec = shrink("h2", 4, 52);
    std::vector<RunRecord> records;
    for (CollectorKind kind :
         {CollectorKind::Epsilon, CollectorKind::Serial,
          CollectorKind::Parallel, CollectorKind::Shenandoah}) {
        for (unsigned inv = 0; inv < 2; ++inv) {
            RunRecord r = at(spec, kind, 3.0,
                             lbo::invocationSeed(9, spec.name, inv));
            r.invocation = inv;
            records.push_back(r);
        }
    }
    LboAnalyzer analyzer(std::move(records));

    for (const char *name : {"Serial", "Parallel", "Shenandoah"}) {
        for (Metric metric : {Metric::WallTime, Metric::Cycles}) {
            auto naive = analyzer.lbo(spec.name, name, 3.0, metric,
                                      Attribution::PausesOnly);
            auto refined = analyzer.lbo(spec.name, name, 3.0, metric,
                                        Attribution::GcThreads);
            ASSERT_TRUE(naive.valid) << name;
            ASSERT_TRUE(refined.valid) << name;
            EXPECT_GE(naive.mean, 1.0) << name;
            // Refined attribution gives a tighter (>=) lower bound.
            EXPECT_GE(refined.mean, naive.mean - 1e-9) << name;
        }
    }

    // The concurrent copying collector's refined cycle LBO must
    // exceed the STW collectors' (the paper's headline finding).
    double shen = analyzer
                      .lbo(spec.name, "Shenandoah", 3.0, Metric::Cycles,
                           Attribution::GcThreads)
                      .mean;
    double serial = analyzer
                        .lbo(spec.name, "Serial", 3.0, Metric::Cycles,
                             Attribution::GcThreads)
                        .mean;
    EXPECT_GT(shen, serial);
}

TEST(Integration, ConcurrencyMasksCycles)
{
    // §IV-D(b): pauses-only attribution wildly underestimates
    // concurrent collectors' GC cost; the refined attribution reveals
    // it (LBO gap much larger for Shenandoah than Serial).
    wl::WorkloadSpec spec = shrink("h2", 4, 52);
    std::vector<RunRecord> records;
    for (CollectorKind kind :
         {CollectorKind::Serial, CollectorKind::Shenandoah}) {
        RunRecord r = at(spec, kind, 2.4);
        records.push_back(r);
    }
    LboAnalyzer analyzer(std::move(records));
    auto gap = [&](const char *name) {
        double naive = analyzer.gcCost(spec.name, name, 2.4,
                                       Metric::Cycles,
                                       Attribution::PausesOnly)
                           .mean;
        double refined = analyzer.gcCost(spec.name, name, 2.4,
                                         Metric::Cycles,
                                         Attribution::GcThreads)
                             .mean;
        return refined / std::max(naive, 1.0);
    };
    EXPECT_GT(gap("Shenandoah"), gap("Serial"));
}

TEST(Integration, EpsilonProvidesTimeBound)
{
    wl::WorkloadSpec spec = shrink("jme", 1, 10);
    RunRecord epsilon = at(spec, CollectorKind::Epsilon, 0.0);
    RunRecord serial = at(spec, CollectorKind::Serial, 3.0);
    ASSERT_TRUE(epsilon.completed);
    ASSERT_TRUE(serial.completed);
    double epsilon_wall = epsilon.wallNs;
    LboAnalyzer analyzer({epsilon, serial});
    double ideal = analyzer.idealEstimate(spec.name, Metric::WallTime,
                                          Attribution::PausesOnly);
    EXPECT_GT(ideal, 0.0);
    // The bound can be no larger than Epsilon's whole-run time.
    EXPECT_LE(ideal, epsilon_wall);
}

} // namespace
} // namespace distill
