/**
 * @file
 * Tests for the heap-sizing subsystem: the HeapController policies,
 * the region manager's committed-limit bookkeeping (and its
 * coexistence with fault-plan squeezes), the Epsilon / missing
 * min-heap no-op guarantee, and the RunRecord sizing columns
 * (including every historical CSV width).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "heap/layout.hh"
#include "heap/region.hh"
#include "heap/sizing.hh"
#include "lbo/run.hh"
#include "rt/runtime.hh"
#include "test_util.hh"
#include "wl/suite.hh"
#include "wl/workload.hh"

namespace distill
{
namespace
{

using heap::HeapController;
using heap::SizingConfig;
using heap::SizingPolicy;

// ----- policy names --------------------------------------------------

TEST(SizingPolicyName, RoundTripsAndRejectsUnknown)
{
    for (SizingPolicy policy :
         {SizingPolicy::Fixed, SizingPolicy::Adaptive,
          SizingPolicy::MemBalancer}) {
        SizingPolicy back;
        ASSERT_TRUE(
            heap::sizingPolicyFromName(heap::sizingPolicyName(policy),
                                       back));
        EXPECT_EQ(back, policy);
    }
    SizingPolicy out = SizingPolicy::MemBalancer;
    EXPECT_FALSE(heap::sizingPolicyFromName("balanced", out));
    EXPECT_FALSE(heap::sizingPolicyFromName("", out));
    EXPECT_EQ(out, SizingPolicy::MemBalancer); // untouched on failure
}

// ----- controller ----------------------------------------------------

heap::CycleSample
sample(Ticks now_ns, std::uint64_t live, std::uint64_t allocated,
       Ticks gc_ns)
{
    heap::CycleSample s;
    s.nowNs = now_ns;
    s.liveBytes = live;
    s.allocatedBytes = allocated;
    s.gcNs = gc_ns;
    return s;
}

TEST(HeapController, FixedPolicyIsInert)
{
    SizingConfig config;
    config.policy = SizingPolicy::Fixed;
    config.minHeapBytes = 4 * heap::regionSize;
    config.maxHeapBytes = 16 * heap::regionSize;
    HeapController controller(config);
    EXPECT_FALSE(controller.active());
    controller.onCycleEnd(sample(1000, MiB, 2 * MiB, 900));
    controller.onCycleEnd(sample(2000, MiB, 4 * MiB, 1800));
    EXPECT_EQ(controller.limitBytes(), config.maxHeapBytes);
    EXPECT_EQ(controller.grows(), 0u);
    EXPECT_EQ(controller.shrinks(), 0u);
}

TEST(HeapController, ZeroMinHeapDisablesEveryPolicy)
{
    // The Epsilon / --heap-bytes-replay guarantee at the unit level: a
    // controller without a min-heap anchor must be a no-op, not a
    // divide-by-zero or a walk toward a zero floor.
    for (SizingPolicy policy :
         {SizingPolicy::Adaptive, SizingPolicy::MemBalancer}) {
        SizingConfig config;
        config.policy = policy;
        config.minHeapBytes = 0;
        config.maxHeapBytes = 16 * heap::regionSize;
        HeapController controller(config);
        EXPECT_FALSE(controller.active());
        // Samples that would otherwise force decisions in both
        // directions.
        controller.onCycleEnd(sample(1000, MiB, MiB, 0));
        controller.onCycleEnd(sample(2000, MiB, 2 * MiB, 999));
        controller.onCycleEnd(sample(3000, MiB, 3 * MiB, 999));
        EXPECT_EQ(controller.limitBytes(), config.maxHeapBytes);
        EXPECT_EQ(controller.grows() + controller.shrinks(), 0u);
    }
}

TEST(HeapController, DegenerateRangeDisables)
{
    SizingConfig config;
    config.policy = SizingPolicy::Adaptive;
    config.minHeapBytes = 8 * heap::regionSize;
    config.maxHeapBytes = 8 * heap::regionSize; // max == min: no range
    HeapController controller(config);
    EXPECT_FALSE(controller.active());
}

TEST(HeapController, AdaptiveShrinksWhenGcIdleAndGrowsUnderPressure)
{
    SizingConfig config;
    config.policy = SizingPolicy::Adaptive;
    config.minHeapBytes = 4 * heap::regionSize;
    config.maxHeapBytes = 40 * heap::regionSize;
    HeapController controller(config);
    ASSERT_TRUE(controller.active());
    EXPECT_EQ(controller.limitBytes(), config.maxHeapBytes);

    controller.onCycleEnd(sample(0, MiB, 0, 0)); // baseline only
    EXPECT_EQ(controller.limitBytes(), config.maxHeapBytes);

    // GC fraction 0.1 % — far below target/4 (1 %): shrink by x0.9,
    // rounded up to a whole region.
    controller.onCycleEnd(sample(1000000, MiB, MiB, 1000));
    const std::uint64_t shrunk = controller.limitBytes();
    EXPECT_LT(shrunk, config.maxHeapBytes);
    EXPECT_GE(shrunk, config.minHeapBytes);
    EXPECT_EQ(shrunk % heap::regionSize, 0u);
    EXPECT_EQ(controller.shrinks(), 1u);

    // GC fraction 10 % — above the 4 % target: grow by x1.25.
    controller.onCycleEnd(sample(2000000, MiB, 2 * MiB, 101000));
    EXPECT_GT(controller.limitBytes(), shrunk);
    EXPECT_EQ(controller.grows(), 1u);
}

TEST(HeapController, AdaptiveNeverLeavesClamp)
{
    SizingConfig config;
    config.policy = SizingPolicy::Adaptive;
    config.minHeapBytes = 4 * heap::regionSize;
    config.maxHeapBytes = 8 * heap::regionSize;
    HeapController controller(config);
    controller.onCycleEnd(sample(0, MiB, 0, 0));
    // Forty idle windows walk the limit to the floor, never below.
    for (int i = 1; i <= 40; ++i)
        controller.onCycleEnd(
            sample(static_cast<Ticks>(i) * 1000000, MiB,
                   static_cast<std::uint64_t>(i) * MiB, 0));
    EXPECT_EQ(controller.limitBytes(), config.minHeapBytes);
    // Forty pressured windows walk it back to the ceiling, never above.
    for (int i = 41; i <= 80; ++i)
        controller.onCycleEnd(
            sample(static_cast<Ticks>(i) * 1000000, MiB,
                   static_cast<std::uint64_t>(i) * MiB,
                   static_cast<Ticks>(i - 40) * 200000));
    EXPECT_EQ(controller.limitBytes(), config.maxHeapBytes);
}

TEST(HeapController, MemBalancerFollowsSquareRootRule)
{
    SizingConfig config;
    config.policy = SizingPolicy::MemBalancer;
    config.minHeapBytes = 2 * heap::regionSize;
    config.maxHeapBytes = 1024 * heap::regionSize;
    config.membalancerC = 0.01;
    HeapController controller(config);
    controller.onCycleEnd(sample(0, 0, 0, 0)); // baseline

    const std::uint64_t live = 8 * MiB;
    const std::uint64_t allocated = 16 * MiB;
    const Ticks window = 1000000;
    const Ticks gc_ns = 50000;
    controller.onCycleEnd(sample(window, live, allocated, gc_ns));

    const double rate = static_cast<double>(allocated) / window;
    const double extra = std::sqrt(
        static_cast<double>(live) * rate * static_cast<double>(gc_ns) /
        config.membalancerC);
    // The first decision moves down from the wide-open start, so the
    // region rounding goes toward the shrink (down).
    const std::uint64_t raw = live + static_cast<std::uint64_t>(extra);
    const std::uint64_t expected =
        raw / heap::regionSize * heap::regionSize;
    ASSERT_LT(raw, config.maxHeapBytes);
    EXPECT_EQ(controller.limitBytes(), expected);
    EXPECT_EQ(controller.shrinks(), 1u);
}

// ----- region manager bookkeeping ------------------------------------

TEST(RegionSizing, UncommitAndSqueezeKeepSeparateLedgers)
{
    heap::RegionManager regions(16 * heap::regionSize);
    ASSERT_EQ(regions.regionCount(), 16u);

    // Commit four regions, squeeze three, uncommit five.
    for (int i = 0; i < 4; ++i)
        ASSERT_NE(regions.allocRegion(heap::RegionState::Old), nullptr);
    EXPECT_EQ(regions.holdFreeRegions(3), 3u);
    EXPECT_EQ(regions.uncommitFreeRegions(5), 5u);

    EXPECT_EQ(regions.committedCount(), 4u);
    EXPECT_EQ(regions.heldCount(), 3u);
    EXPECT_EQ(regions.uncommittedCount(), 5u);
    EXPECT_EQ(regions.freeCount(), 4u);
    // The conservation identity every round re-establishes.
    EXPECT_EQ(regions.committedCount() + regions.heldCount() +
                  regions.uncommittedCount() + regions.freeCount(),
              regions.regionCount());

    // Neither mechanism can take or give back the other's regions:
    // asking for more than the free list holds caps at the free list.
    EXPECT_EQ(regions.holdFreeRegions(100), 4u);
    EXPECT_EQ(regions.freeCount(), 0u);
    EXPECT_EQ(regions.uncommitFreeRegions(100), 0u);
    // Releasing a squeeze never touches the uncommitted ledger.
    EXPECT_EQ(regions.releaseHeldRegions(100), 7u);
    EXPECT_EQ(regions.uncommittedCount(), 5u);
    EXPECT_EQ(regions.recommitRegions(100), 5u);
    EXPECT_EQ(regions.uncommittedCount(), 0u);
    EXPECT_EQ(regions.freeCount(), 12u);
    EXPECT_EQ(regions.committedCount() + regions.heldCount() +
                  regions.uncommittedCount() + regions.freeCount(),
              regions.regionCount());
}

TEST(RegionSizing, PeakFootprintTracksHighWater)
{
    heap::RegionManager regions(8 * heap::regionSize);
    heap::Region *a = regions.allocRegion(heap::RegionState::Eden);
    heap::Region *b = regions.allocRegion(heap::RegionState::Eden);
    ASSERT_NE(a, nullptr);
    ASSERT_NE(b, nullptr);
    EXPECT_EQ(regions.committedBytes(), 2 * heap::regionSize);
    EXPECT_EQ(regions.peakCommittedBytes(), 2 * heap::regionSize);
    regions.freeRegion(*a);
    regions.freeRegion(*b);
    EXPECT_EQ(regions.committedBytes(), 0u);
    // The high-water mark survives the release.
    EXPECT_EQ(regions.peakCommittedBytes(), 2 * heap::regionSize);
}

// ----- end-to-end: controller + squeeze (the satellite-1 regression) --

wl::WorkloadSpec
smallJme()
{
    wl::WorkloadSpec spec = wl::findSpec("jme");
    spec.minHeapBytes = 12 * heap::regionSize;
    return spec;
}

TEST(SizingRun, SqueezePlusShrunkControllerNeitherDeadlocksNorLeaks)
{
    // Fault plan 16 mixes heap squeezes with denied GC progress; a
    // membalancer controller shrinks the committed limit at the same
    // time. The two withholding mechanisms must coexist: the run ends
    // (completed or structured failure, never a virtual-time hang
    // from doubly-withheld regions), the region ledgers balance, and
    // the whole thing replays bit-identically.
    wl::WorkloadSpec spec = smallJme();
    rt::RunConfig config;
    config.heapBytes = 42 * heap::regionSize;
    config.faultSeed = 16;
    config.sizingPolicy = SizingPolicy::MemBalancer;
    config.minHeapBytes = spec.minHeapBytes;

    rt::Runtime runtime(config,
                        gc::makeCollector(gc::CollectorKind::Shenandoah,
                                          gc::GcOptions{}),
                        wl::makeWorkload(spec));
    runtime.execute();
    const metrics::RunMetrics &m = runtime.agent().metrics();

    // Not a virtual-time timeout: whatever the outcome, the run made
    // a decision rather than spinning on an impossible allocation.
    EXPECT_NE(m.failureReason, "virtual-time limit exceeded");

    heap::RegionManager &regions = runtime.heap().regions;
    EXPECT_EQ(regions.committedCount() + regions.heldCount() +
                  regions.uncommittedCount() + regions.freeCount(),
              regions.regionCount());
    // The controller's limit stayed inside its clamp, and the
    // committed footprint never exceeded the configured heap.
    EXPECT_GE(m.heapLimitBytes, config.minHeapBytes);
    EXPECT_LE(m.heapLimitBytes, config.heapBytes);
    EXPECT_LE(m.peakCommittedBytes, config.heapBytes);
    EXPECT_GT(m.peakCommittedBytes, 0u);
}

TEST(SizingRun, SqueezePlusControllerIsDeterministic)
{
    wl::WorkloadSpec spec = smallJme();
    lbo::Environment env;
    env.faultSeed = 16;
    env.sizingPolicy = SizingPolicy::MemBalancer;
    lbo::RunRecord first =
        lbo::runOne(spec, gc::CollectorKind::Shenandoah,
                    42 * heap::regionSize, 3.5, 42, 0, env);
    lbo::RunRecord second =
        lbo::runOne(spec, gc::CollectorKind::Shenandoah,
                    42 * heap::regionSize, 3.5, 42, 0, env);
    EXPECT_EQ(first.toCsv(), second.toCsv());
    EXPECT_EQ(first.sizingPolicy, "membalancer");
}

// ----- the Epsilon / missing-min-heap no-op guarantee ----------------

TEST(SizingRun, EpsilonForcesFixedByteIdentically)
{
    wl::WorkloadSpec spec = smallJme();
    lbo::Environment fixed_env;
    lbo::RunRecord baseline =
        lbo::runOne(spec, gc::CollectorKind::Epsilon,
                    fixed_env.machine.memoryBudget, 0.0, 42, 0,
                    fixed_env);
    for (SizingPolicy policy :
         {SizingPolicy::Adaptive, SizingPolicy::MemBalancer}) {
        lbo::Environment env;
        env.sizingPolicy = policy;
        lbo::RunRecord r =
            lbo::runOne(spec, gc::CollectorKind::Epsilon,
                        env.machine.memoryBudget, 0.0, 42, 0, env);
        EXPECT_EQ(r.toCsv(), baseline.toCsv());
        EXPECT_EQ(r.sizingPolicy, "fixed"); // the *effective* policy
    }
}

TEST(SizingRun, MissingMinHeapForcesFixedByteIdentically)
{
    // A --heap-bytes replay of a spec whose min heap was never
    // measured (minHeapBytes == 0) must run the controller as a no-op
    // instead of steering against a zero floor.
    wl::WorkloadSpec spec = wl::findSpec("jme");
    spec.minHeapBytes = 0;
    lbo::Environment fixed_env;
    lbo::RunRecord baseline =
        lbo::runOne(spec, gc::CollectorKind::Serial,
                    24 * heap::regionSize, 0.0, 42, 0, fixed_env);
    for (SizingPolicy policy :
         {SizingPolicy::Adaptive, SizingPolicy::MemBalancer}) {
        lbo::Environment env;
        env.sizingPolicy = policy;
        lbo::RunRecord r =
            lbo::runOne(spec, gc::CollectorKind::Serial,
                        24 * heap::regionSize, 0.0, 42, 0, env);
        EXPECT_EQ(r.toCsv(), baseline.toCsv());
        EXPECT_EQ(r.sizingPolicy, "fixed");
    }
}

TEST(SizingRun, NonFixedPolicyRecordsItsColumns)
{
    wl::WorkloadSpec spec = smallJme();
    lbo::Environment env;
    env.sizingPolicy = SizingPolicy::Adaptive;
    lbo::RunRecord r =
        lbo::runOne(spec, gc::CollectorKind::Serial,
                    42 * heap::regionSize, 3.5, 42, 0, env);
    ASSERT_TRUE(r.completed);
    EXPECT_EQ(r.sizingPolicy, "adaptive");
    EXPECT_GE(r.heapLimitBytes, spec.minHeapBytes);
    EXPECT_LE(r.heapLimitBytes, 42 * heap::regionSize);
    EXPECT_GT(r.peakCommittedBytes, 0u);
    EXPECT_GT(r.avgCommittedBytes, 0.0);
    EXPECT_LE(r.peakCommittedBytes, 42 * heap::regionSize);
}

// ----- RunRecord sizing columns --------------------------------------

TEST(Record, SizingColumnsRoundTrip)
{
    lbo::RunRecord r;
    r.bench = "jme";
    r.collector = "G1";
    r.completed = true;
    r.sizingPolicy = "membalancer";
    r.heapLimitBytes = 21 * MiB;
    r.peakCommittedBytes = 18 * MiB;
    r.avgCommittedBytes = 12.5 * MiB;
    r.sizingGrows = 7;
    r.sizingShrinks = 11;

    lbo::RunRecord back;
    ASSERT_TRUE(lbo::RunRecord::fromCsv(r.toCsv(), back));
    EXPECT_EQ(back.sizingPolicy, "membalancer");
    EXPECT_EQ(back.heapLimitBytes, 21 * MiB);
    EXPECT_EQ(back.peakCommittedBytes, 18 * MiB);
    EXPECT_EQ(back.avgCommittedBytes, 12.5 * MiB);
    EXPECT_EQ(back.sizingGrows, 7u);
    EXPECT_EQ(back.sizingShrinks, 11u);
}

TEST(Record, EveryLegacyWidthDefaultsSizingColumns)
{
    // Every pre-sizing width must keep parsing, with the sizing
    // columns defaulting to fixed/zero (pre-sizing rows never moved
    // their limit).
    lbo::RunRecord r;
    r.bench = "h2";
    r.collector = "ZGC";
    r.completed = true;
    r.cycles = 2.5e9;
    r.sizingPolicy = "membalancer"; // stripped below
    r.heapLimitBytes = 99;
    r.sizingGrows = 3;
    const std::string full = r.toCsv();

    for (std::size_t width : lbo::RunRecord::csvWidths()) {
        if (width >= lbo::RunRecord::csvWidth(
                         lbo::RunRecord::CsvLayout::Sizing))
            continue;
        lbo::RunRecord back;
        ASSERT_TRUE(
            lbo::RunRecord::fromCsv(test::csvPrefix(full, width), back))
            << "width " << width;
        EXPECT_EQ(back.bench, "h2") << "width " << width;
        EXPECT_EQ(back.cycles, 2.5e9) << "width " << width;
        EXPECT_EQ(back.sizingPolicy, "fixed") << "width " << width;
        EXPECT_EQ(back.heapLimitBytes, 0u) << "width " << width;
        EXPECT_EQ(back.peakCommittedBytes, 0u) << "width " << width;
        EXPECT_EQ(back.avgCommittedBytes, 0.0) << "width " << width;
        EXPECT_EQ(back.sizingGrows, 0u) << "width " << width;
        EXPECT_EQ(back.sizingShrinks, 0u) << "width " << width;
    }
}

} // namespace
} // namespace distill
