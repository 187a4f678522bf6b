/**
 * @file
 * Property-style parameterized sweeps: invariants that must hold for
 * every (collector, heap size) combination and across configuration
 * axes (machine cores, TLAB size, worker counts).
 */

#include <gtest/gtest.h>

#include "heap/layout.hh"
#include "lbo/run.hh"
#include "rt/validate.hh"
#include "test_util.hh"
#include "wl/suite.hh"
#include "wl/workload.hh"

namespace distill
{
namespace
{

using gc::CollectorKind;

/** (collector, heap regions) grid point. */
using GridPoint = std::tuple<CollectorKind, unsigned>;

class GcGridTest : public ::testing::TestWithParam<GridPoint>
{
};

TEST_P(GcGridTest, CompletesAndStaysConsistent)
{
    auto [kind, regions] = GetParam();
    rt::RunConfig config;
    config.heapBytes = regions * heap::regionSize;
    config.seed = 7;
    rt::WorkloadInstance w;
    for (int i = 0; i < 2; ++i)
        w.programs.push_back(std::make_unique<test::AllocProgram>(
            40000, 64, true, 2, 80));
    rt::Runtime runtime(config, gc::makeCollector(kind), std::move(w));
    runtime.execute();
    const metrics::RunMetrics &m = runtime.agent().metrics();

    ASSERT_TRUE(m.completed)
        << gc::collectorName(kind) << " at " << regions << " regions: "
        << m.failureReason;

    // Metric invariants.
    EXPECT_LE(m.stw.wallNs, m.total.wallNs);
    EXPECT_LE(m.stw.cycles, m.total.cycles);
    EXPECT_EQ(m.mutatorCycles + m.gcThreadCycles, m.total.cycles);
    EXPECT_GE(m.total.wallNs * 8 / 1000,
              m.total.cycles / 3600); // wall >= cycles/(cores*freq)

    // Structural invariants.
    bool marked_only = kind == CollectorKind::Zgc ||
        kind == CollectorKind::Shenandoah;
    rt::validateHeap(runtime, "grid", marked_only);

    // No region leak: every region is either free or owned.
    auto &rm = runtime.heap().regions;
    EXPECT_EQ(rm.freeCount() + rm.usedCount(), rm.regionCount());
}

INSTANTIATE_TEST_SUITE_P(
    Grid, GcGridTest,
    ::testing::Combine(
        ::testing::ValuesIn(gc::productionCollectors()),
        ::testing::Values(14u, 20u, 32u, 64u)),
    [](const ::testing::TestParamInfo<GridPoint> &info) {
        return std::string(gc::collectorName(std::get<0>(info.param))) +
            "_" + std::to_string(std::get<1>(info.param));
    });

class CoreCountTest : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(CoreCountTest, ParallelWorkloadScalesWithCores)
{
    sim::MachineConfig machine;
    machine.cores = GetParam();
    rt::RunConfig config;
    config.machine = machine;
    config.heapBytes = 48 * heap::regionSize;
    rt::WorkloadInstance w;
    for (int i = 0; i < 8; ++i)
        w.programs.push_back(std::make_unique<test::AllocProgram>(
            10000, 32, true));
    rt::Runtime runtime(config,
                        gc::makeCollector(CollectorKind::Epsilon),
                        std::move(w));
    runtime.execute();
    ASSERT_TRUE(runtime.agent().metrics().completed);
    // 8 threads of equal work: wall ~ cycles / (min(8, cores) * freq).
    double wall = static_cast<double>(
        runtime.agent().metrics().total.wallNs);
    double cycles = static_cast<double>(
        runtime.agent().metrics().total.cycles);
    double expect = cycles / (std::min(8u, GetParam()) * 3.6);
    EXPECT_NEAR(wall, expect, expect * 0.15);
}

INSTANTIATE_TEST_SUITE_P(Cores, CoreCountTest,
                         ::testing::Values(1u, 2u, 4u, 8u, 16u));

class TlabSizeTest : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(TlabSizeTest, AnyTlabSizeWorks)
{
    gc::GcOptions opts;
    opts.tlabBytes = GetParam();
    rt::RunConfig config;
    config.heapBytes = 24 * heap::regionSize;
    rt::Runtime runtime(
        config, gc::makeCollector(CollectorKind::Serial, opts),
        test::singleProgram(std::make_unique<test::AllocProgram>(
            50000, 32, true)));
    runtime.execute();
    EXPECT_TRUE(runtime.agent().metrics().completed);
    rt::validateHeap(runtime, "tlab-size");
}

INSTANTIATE_TEST_SUITE_P(Sizes, TlabSizeTest,
                         ::testing::Values(1 * KiB, 4 * KiB, 16 * KiB,
                                           64 * KiB));

TEST(Property, CyclesFallAsHeapGrows)
{
    // The fundamental time-space tradeoff (paper Tables VI/VII):
    // across a growing heap, total cycles must trend downward for a
    // GC-bound workload (allow small local non-monotonicity).
    wl::WorkloadSpec spec = wl::findSpec("jython");
    spec.allocBytesPerThread = 2 * MiB;
    spec.minHeapBytes = 24 * heap::regionSize;
    lbo::Environment env;
    double first = 0.0;
    double last = 0.0;
    for (double factor : {1.4, 2.4, 4.4}) {
        std::uint64_t heap = lbo::heapBytesAt(spec, factor);
        lbo::RunRecord r = lbo::runOne(spec, CollectorKind::Serial, heap,
                                       factor, 99, 0, env);
        ASSERT_TRUE(r.completed);
        if (first == 0.0)
            first = r.cycles;
        last = r.cycles;
    }
    EXPECT_LT(last, first);
}

TEST(Property, ContentionRaisesMutatorCost)
{
    // The same workload under a concurrent collector must show higher
    // mutator cycles when concurrent GC threads share the machine
    // than under Epsilon (barriers + contention dilation).
    rt::RunConfig config;
    config.heapBytes = 20 * heap::regionSize;
    auto run_mutator_cycles = [&](CollectorKind kind) {
        rt::Runtime runtime(
            config, gc::makeCollector(kind),
            test::singleProgram(std::make_unique<test::AllocProgram>(
                60000, 64, true)));
        runtime.execute();
        EXPECT_TRUE(runtime.agent().metrics().completed);
        return runtime.agent().metrics().mutatorCycles;
    };
    Cycles epsilon = run_mutator_cycles(CollectorKind::Epsilon);
    Cycles shen = run_mutator_cycles(CollectorKind::Shenandoah);
    EXPECT_GT(shen, epsilon);
}

TEST(Property, SeedsChangeLatencyButNotVolume)
{
    wl::WorkloadSpec spec = wl::findSpec("tomcat");
    spec.allocBytesPerThread = 512 * KiB;
    auto a = test::runWith(CollectorKind::Parallel, 48,
                           wl::makeWorkload(spec), 1);
    auto b = test::runWith(CollectorKind::Parallel, 48,
                           wl::makeWorkload(spec), 2);
    ASSERT_TRUE(a.completed);
    ASSERT_TRUE(b.completed);
    // Allocation volume is budget-driven (stable); latency details
    // differ with the seed.
    EXPECT_NEAR(static_cast<double>(a.bytesAllocated),
                static_cast<double>(b.bytesAllocated),
                0.02 * static_cast<double>(a.bytesAllocated));
}

TEST(Property, AllCollectorsAgreeOnAllocationVolume)
{
    // The workload is collector-independent: every collector must
    // observe (essentially) the same allocated bytes for the same
    // seed. Blocked allocations re-roll object shapes on retry, so
    // the streams may diverge by a few objects around GC points.
    wl::WorkloadSpec spec = wl::findSpec("fop");
    spec.allocBytesPerThread = 512 * KiB;
    std::uint64_t expect = 0;
    for (CollectorKind kind : gc::productionCollectors()) {
        auto m = test::runWith(kind, 64, wl::makeWorkload(spec), 11);
        ASSERT_TRUE(m.completed) << gc::collectorName(kind);
        if (expect == 0)
            expect = m.bytesAllocated;
        EXPECT_NEAR(static_cast<double>(m.bytesAllocated),
                    static_cast<double>(expect),
                    0.01 * static_cast<double>(expect))
            << gc::collectorName(kind);
    }
}

} // namespace
} // namespace distill
