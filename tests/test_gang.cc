/**
 * @file
 * Tests for the work-stealing parallel tracer: determinism of the
 * seeded steal schedule, phase-ledger conservation including the
 * steal/spin/termination sub-phases, worker-count scaling bounds, and
 * the serial no-steal guarantee (see gc/gang.hh).
 */

#include <gtest/gtest.h>

#include "gc/collectors.hh"
#include "heap/layout.hh"
#include "lbo/run.hh"
#include "wl/suite.hh"

namespace distill
{
namespace
{

using gc::CollectorKind;
using lbo::Environment;
using lbo::RunRecord;
using lbo::runOne;

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
   const Environment &env, std::uint64_t seed = 0xFEED)
{
    std::uint64_t heap = lbo::heapBytesAt(spec, factor);
    return runOne(spec, kind, heap, factor, seed, 0, env);
}

/** Sum of every phase-attribution column, steal sub-phases included. */
double
phaseColumnSum(const RunRecord &r)
{
    return r.markCycles + r.evacCycles + r.updateRefsCycles +
        r.remsetRefineCycles + r.relocateCycles + r.sweepCycles +
        r.compactCycles + r.gcGlueCycles + r.stealCycles +
        r.stealSpinCycles + r.terminationSpinCycles;
}

TEST(GangDeterminism, IdenticalRunsProduceIdenticalRecords)
{
    // The steal schedule is a pure function of (seed, gang identity,
    // dispatch epoch, worker count); two identical runs must produce
    // byte-identical records, steal counters included.
    wl::WorkloadSpec spec = shrink("h2", 4, 52);
    Environment env;
    for (CollectorKind kind :
         {CollectorKind::Parallel, CollectorKind::G1}) {
        RunRecord a = at(spec, kind, 1.6, env);
        RunRecord b = at(spec, kind, 1.6, env);
        EXPECT_EQ(a.toCsv(), b.toCsv()) << gc::collectorName(kind);
    }
}

TEST(GangDeterminism, ConservationHoldsAcrossSeeds)
{
    // However the seed shapes the packet trees and victim choices,
    // the phase columns (steal sub-phases included) must decompose
    // gcThreadCycles exactly. All counts are integers < 2^53, so the
    // double sum is exact.
    wl::WorkloadSpec spec = shrink("h2", 4, 52);
    Environment env;
    for (std::uint64_t seed : {1ULL, 0xBEEFULL, 0x5EEDULL}) {
        for (CollectorKind kind :
             {CollectorKind::Parallel, CollectorKind::Shenandoah}) {
            RunRecord r = at(spec, kind, 1.6, env, seed);
            ASSERT_TRUE(r.completed)
                << gc::collectorName(kind) << " seed " << seed;
            EXPECT_EQ(phaseColumnSum(r), r.gcThreadCycles)
                << gc::collectorName(kind) << " seed " << seed;
        }
    }
}

TEST(GangLedger, StealMachineryVisibleForParallel)
{
    // A tight-heap Parallel run pays for real termination protocols
    // and steal probing; the ledger must surface them.
    wl::WorkloadSpec spec = shrink("h2", 4, 52);
    Environment env;
    RunRecord r = at(spec, CollectorKind::Parallel, 1.4, env);
    ASSERT_TRUE(r.completed);
    EXPECT_GT(r.terminationSpinCycles, 0.0);
    EXPECT_GT(r.stealAttempts, 0u);
    EXPECT_GE(r.stealAttempts, r.stealHits);
}

TEST(GangLedger, SerialRunsHaveNoStealMachinery)
{
    // Serial (one GC thread, no gang) and Epsilon (no GC at all) must
    // show zero steal traffic: the whole point of the sub-phases is
    // to isolate the parallel tracer's coordination premium.
    wl::WorkloadSpec spec = shrink("h2", 4, 52);
    Environment env;
    for (CollectorKind kind :
         {CollectorKind::Serial, CollectorKind::Epsilon}) {
        RunRecord r = at(spec, kind, 1.6, env);
        ASSERT_TRUE(r.completed) << gc::collectorName(kind);
        EXPECT_EQ(r.stealCycles, 0.0) << gc::collectorName(kind);
        EXPECT_EQ(r.stealSpinCycles, 0.0) << gc::collectorName(kind);
        EXPECT_EQ(r.terminationSpinCycles, 0.0)
            << gc::collectorName(kind);
        EXPECT_EQ(r.stealAttempts, 0u) << gc::collectorName(kind);
        EXPECT_EQ(r.stealHits, 0u) << gc::collectorName(kind);
    }
}

TEST(GangScaling, WorkerCountBounds)
{
    // Sweeping Parallel's gang width: more workers must burn more GC
    // cycles (per-worker rendezvous/termination plus steal traffic)
    // while shrinking STW wall-clock sub-linearly, and a one-worker
    // gang can have no steal traffic at all.
    wl::WorkloadSpec spec = shrink("h2", 4, 52);
    std::vector<RunRecord> runs;
    for (unsigned workers : {1u, 2u, 4u, 8u}) {
        Environment env;
        env.gcOptions.parallelWorkers = workers;
        runs.push_back(at(spec, CollectorKind::Parallel, 1.6, env));
        ASSERT_TRUE(runs.back().completed) << workers << " workers";
    }
    const RunRecord &w1 = runs.front();
    const RunRecord &w8 = runs.back();
    EXPECT_EQ(w1.stealAttempts, 0u);
    EXPECT_EQ(w1.stealCycles + w1.stealSpinCycles, 0.0);
    EXPECT_LT(w8.stwWallNs, w1.stwWallNs);
    for (std::size_t i = 1; i < runs.size(); ++i) {
        EXPECT_GT(runs[i].gcThreadCycles, runs[i - 1].gcThreadCycles)
            << "width step " << i;
    }
    // Coordination share (steal + spin + termination of all GC
    // cycles) rises with the gang width.
    auto coord = [](const RunRecord &r) {
        return (r.stealCycles + r.stealSpinCycles +
                r.terminationSpinCycles) / r.gcThreadCycles;
    };
    EXPECT_GT(coord(w8), coord(w1));
}

} // namespace
} // namespace distill
