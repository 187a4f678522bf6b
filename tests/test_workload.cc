/**
 * @file
 * Workload-layer tests: the suite specs, the request clock, the
 * shared store, and end-to-end behavior of TransactionPrograms under
 * a real runtime.
 */

#include <ostream>

#include <gtest/gtest.h>

#include "test_util.hh"
#include "wl/suite.hh"
#include "wl/workload.hh"

namespace distill::wl
{

/**
 * Print a spec as its benchmark name. Without this, GoogleTest prints
 * the raw bytes, which start with the name's heap pointer, so the
 * discovered test names changed with every build.
 */
void
PrintTo(const WorkloadSpec &spec, std::ostream *os)
{
    *os << spec.name;
}

namespace
{

TEST(Suite, HasEighteenBenchmarks)
{
    EXPECT_EQ(dacapoSuite().size(), 18u);
}

TEST(Suite, GeomeanSetExcludesEclipseAndXalan)
{
    auto set = geomeanSet();
    EXPECT_EQ(set.size(), 16u);
    for (const auto &spec : set) {
        EXPECT_NE(spec.name, "eclipse");
        EXPECT_NE(spec.name, "xalan");
    }
}

TEST(Suite, NamesUniqueAndSorted)
{
    const auto &suite = dacapoSuite();
    for (std::size_t i = 1; i < suite.size(); ++i)
        EXPECT_LT(suite[i - 1].name, suite[i].name);
}

TEST(Suite, FindSpecByName)
{
    EXPECT_EQ(findSpec("h2").name, "h2");
    EXPECT_EQ(findSpec("xalan").threads, 8u);
}

TEST(SuiteDeath, FindUnknownFatal)
{
    EXPECT_EXIT(findSpec("nope"), ::testing::ExitedWithCode(1),
                "unknown benchmark");
}

class SuiteSpecTest : public ::testing::TestWithParam<WorkloadSpec>
{
};

TEST_P(SuiteSpecTest, ParametersSane)
{
    const WorkloadSpec &spec = GetParam();
    EXPECT_GT(spec.threads, 0u);
    EXPECT_LE(spec.threads, 8u);
    EXPECT_GT(spec.allocBytesPerThread, 0u);
    EXPECT_GE(spec.minRefs, 1u);
    EXPECT_LE(spec.maxRefs, 8u);
    EXPECT_GT(spec.maxPayload, spec.minPayload);
    EXPECT_LT(spec.survivalFraction, 0.5);
    EXPECT_GT(spec.storeSlots, 0u);
    EXPECT_GT(spec.nurserySlots, 0u);
    // Keep backward-edge density sub-critical (bounded cohorts).
    double refs = (spec.minRefs + spec.maxRefs) / 2.0;
    EXPECT_LT(refs * spec.recentRefProb, 1.0);
    if (spec.latencySensitive) {
        EXPECT_GT(spec.requestsPerSec, 0.0);
        EXPECT_GT(spec.txnsPerRequest, 0u);
    }
}

TEST_P(SuiteSpecTest, EstimateTxnCyclesPositive)
{
    EXPECT_GT(estimateTxnCycles(GetParam()), 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    AllSpecs, SuiteSpecTest, ::testing::ValuesIn(dacapoSuite()),
    [](const ::testing::TestParamInfo<WorkloadSpec> &info) {
        return info.param.name;
    });

TEST(RequestClock, ArrivalsEvenlySpaced)
{
    RequestClock clock(1e6); // 1 us interval
    EXPECT_EQ(clock.nextArrival(), 0u);
    EXPECT_EQ(clock.nextArrival(), 1000u);
    EXPECT_EQ(clock.nextArrival(), 2000u);
}

TEST(RequestClock, MeteredIncludesQueueing)
{
    RequestClock clock(1e6);
    // Request arrived at 0, started processing at 5000, done at 6000.
    clock.recordCompletion(0, 5000, 6000);
    EXPECT_EQ(clock.metered().percentile(50), 6000u);
    EXPECT_EQ(clock.simple().percentile(50), 1000u);
}

TEST(RequestClock, MeteredClampsWhenAheadOfSchedule)
{
    RequestClock clock(1e6);
    // Arrival at 5000 but processed 0-100 (run ahead of schedule).
    clock.recordCompletion(5000, 0, 100);
    EXPECT_EQ(clock.metered().percentile(50),
              clock.simple().percentile(50));
}

TEST(SharedStore, RootsVisitAllSlots)
{
    SharedStore store(10);
    int count = 0;
    store.forEachRootSlot([&](Addr &) { ++count; });
    EXPECT_EQ(count, 10);
}

TEST(SharedStore, PutAndReplace)
{
    SharedStore store(4);
    store.put(2, 0x123);
    Rng rng(1);
    bool found = false;
    for (int i = 0; i < 100 && !found; ++i)
        found = store.pickRandom(rng) == 0x123;
    EXPECT_TRUE(found);
}

TEST(Workload, MakeWorkloadShape)
{
    const WorkloadSpec &spec = findSpec("h2");
    rt::WorkloadInstance instance = makeWorkload(spec);
    EXPECT_EQ(instance.programs.size(), spec.threads);
    EXPECT_EQ(instance.sharedRoots.size(), 1u);
    EXPECT_TRUE(instance.exportStats != nullptr);
}

TEST(Workload, RunsUnderEpsilon)
{
    WorkloadSpec spec = findSpec("jme");
    spec.allocBytesPerThread = 256 * KiB; // shrink for test speed
    auto metrics = test::runWith(gc::CollectorKind::Epsilon, 64,
                                 makeWorkload(spec));
    EXPECT_TRUE(metrics.completed) << metrics.failureReason;
    EXPECT_GE(metrics.bytesAllocated,
              spec.threads * spec.allocBytesPerThread);
}

TEST(Workload, LatencyHistogramsPopulated)
{
    WorkloadSpec spec = findSpec("lusearch");
    spec.allocBytesPerThread = 512 * KiB;
    auto metrics = test::runWith(gc::CollectorKind::Parallel, 48,
                                 makeWorkload(spec));
    ASSERT_TRUE(metrics.completed) << metrics.failureReason;
    EXPECT_GT(metrics.meteredLatencyNs.count(), 0u);
    EXPECT_GT(metrics.simpleLatencyNs.count(), 0u);
    EXPECT_EQ(metrics.meteredLatencyNs.count(),
              metrics.simpleLatencyNs.count());
}

TEST(Workload, MeteredAtLeastSimple)
{
    WorkloadSpec spec = findSpec("tomcat");
    spec.allocBytesPerThread = 512 * KiB;
    auto metrics = test::runWith(gc::CollectorKind::Serial, 48,
                                 makeWorkload(spec));
    ASSERT_TRUE(metrics.completed);
    for (double p : {50.0, 90.0, 99.0}) {
        EXPECT_GE(metrics.meteredLatencyNs.percentile(p),
                  metrics.simpleLatencyNs.percentile(p))
            << "p" << p;
    }
}

TEST(Workload, NonLatencyBenchmarksRecordNoLatency)
{
    WorkloadSpec spec = findSpec("h2");
    spec.allocBytesPerThread = 512 * KiB;
    auto metrics = test::runWith(gc::CollectorKind::Serial, 64,
                                 makeWorkload(spec));
    ASSERT_TRUE(metrics.completed);
    EXPECT_EQ(metrics.meteredLatencyNs.count(), 0u);
}

TEST(Workload, BarrierTrafficGenerated)
{
    WorkloadSpec spec = findSpec("h2");
    spec.allocBytesPerThread = 512 * KiB;
    auto metrics = test::runWith(gc::CollectorKind::Serial, 64,
                                 makeWorkload(spec));
    EXPECT_GT(metrics.refLoads, 0u);
    EXPECT_GT(metrics.refStores, 0u);
}

TEST(Workload, LiveSetBoundedByDesign)
{
    // Run a benchmark whose total allocation is many times the heap
    // under a real collector: completion proves the object graph's
    // live set stays bounded (no unbounded backward chains).
    WorkloadSpec spec = findSpec("jython");
    spec.allocBytesPerThread = 2 * MiB;
    auto metrics = test::runWith(gc::CollectorKind::G1, 32,
                                 makeWorkload(spec));
    EXPECT_TRUE(metrics.completed) << metrics.failureReason;
}

TEST(Workload, DeterministicUnderSameSeed)
{
    WorkloadSpec spec = findSpec("fop");
    spec.allocBytesPerThread = 512 * KiB;
    auto a = test::runWith(gc::CollectorKind::G1, 32,
                           makeWorkload(spec), 5);
    auto b = test::runWith(gc::CollectorKind::G1, 32,
                           makeWorkload(spec), 5);
    EXPECT_EQ(a.total.cycles, b.total.cycles);
    EXPECT_EQ(a.bytesAllocated, b.bytesAllocated);
}

TEST(Workload, SeedChangesExecution)
{
    WorkloadSpec spec = findSpec("fop");
    spec.allocBytesPerThread = 512 * KiB;
    auto a = test::runWith(gc::CollectorKind::G1, 32,
                           makeWorkload(spec), 5);
    auto b = test::runWith(gc::CollectorKind::G1, 32,
                           makeWorkload(spec), 6);
    EXPECT_NE(a.total.cycles, b.total.cycles);
}

} // namespace
} // namespace distill::wl
