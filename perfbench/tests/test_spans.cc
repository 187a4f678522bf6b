/**
 * @file
 * The benchmark's own arithmetic: self time, zero-base ratios, the
 * pool drain tail, host-speed calibration, and Runtime-life tracing
 * through the observer factory.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "lbo/run.hh"
#include "calibrate.hh"
#include "spans.hh"
#include "wl/suite.hh"

using perfbench::drainTail;
using perfbench::Interval;
using perfbench::ratio;
using perfbench::selfTime;

TEST(SelfTime, NoChildrenIsWholeSpan)
{
    EXPECT_DOUBLE_EQ(selfTime({1, 4}, {}), 3.0);
}

TEST(SelfTime, DisjointChildrenSubtract)
{
    EXPECT_DOUBLE_EQ(selfTime({0, 10}, {{1, 2}, {5, 8}}), 6.0);
}

TEST(SelfTime, OverlappingChildrenCountOnce)
{
    // [1,4) and [3,6) cover [1,6): 5 of the 10 seconds.
    EXPECT_DOUBLE_EQ(selfTime({0, 10}, {{3, 6}, {1, 4}}), 5.0);
    // A child nested inside another adds nothing.
    EXPECT_DOUBLE_EQ(selfTime({0, 10}, {{2, 8}, {3, 4}}), 4.0);
}

TEST(SelfTime, ChildrenClippedToSpan)
{
    EXPECT_DOUBLE_EQ(selfTime({2, 6}, {{0, 3}, {5, 9}, {10, 12}}), 2.0);
    EXPECT_DOUBLE_EQ(selfTime({2, 6}, {{0, 9}}), 0.0);
}

TEST(Ratio, ZeroBaseIsZero)
{
    EXPECT_DOUBLE_EQ(ratio(5, 0), 0.0);
    EXPECT_DOUBLE_EQ(ratio(0, 0), 0.0);
    EXPECT_DOUBLE_EQ(ratio(3, 4), 0.75);
}

TEST(DrainTail, FromNMinusJobsPlusOneToLast)
{
    // Sorted: 1 2 3 5 8 13; n=6, jobs=4 -> 3rd (3) to last (13).
    EXPECT_DOUBLE_EQ(drainTail({13, 1, 8, 2, 5, 3}, 4), 10.0);
    // jobs 1: the last completion alone, no tail.
    EXPECT_DOUBLE_EQ(drainTail({1, 2, 3}, 1), 0.0);
}

TEST(DrainTail, FewerCellsThanJobsSpansAll)
{
    EXPECT_DOUBLE_EQ(drainTail({4, 1, 2}, 4), 3.0);
    EXPECT_DOUBLE_EQ(drainTail({}, 4), 0.0);
}

TEST(Calibration, RescalesByTheMeanKernelTime)
{
    using perfbench::referenceKernelSeconds;
    using perfbench::toReferenceSeconds;
    // A host running the kernel at reference speed reads unchanged.
    EXPECT_DOUBLE_EQ(toReferenceSeconds(3, referenceKernelSeconds,
                                        referenceKernelSeconds),
                     3.0);
    // Kernel 1.5x slow on average (1x before, 2x after): 3 s -> 2 s.
    EXPECT_DOUBLE_EQ(toReferenceSeconds(3, referenceKernelSeconds,
                                        2 * referenceKernelSeconds),
                     2.0);
}

TEST(Calibration, ZeroKernelTimeIsNan)
{
    EXPECT_TRUE(std::isnan(perfbench::toReferenceSeconds(1, 0, 1)));
    EXPECT_TRUE(std::isnan(perfbench::toReferenceSeconds(1, 1, 0)));
}

TEST(Calibration, ClockLeavesKernelTimeOut)
{
    perfbench::CalibratedClock clock;
    EXPECT_DOUBLE_EQ(clock.raw(), 0.0);
    clock.lap();
    clock.lap();
    EXPECT_GE(clock.raw(), 0.0);
    // Two empty units take far less than the two kernel runs.
    EXPECT_LT(clock.raw(), perfbench::calibrationKernelSeconds());
    EXPECT_GT(perfbench::calibrationKernelSeconds(), 0.0);
    EXPECT_TRUE(std::isfinite(clock.reference()));
}

TEST(Tracer, ObservesEveryRuntimeLife)
{
    distill::wl::WorkloadSpec spec = distill::wl::findSpec("jme");
    spec.allocBytesPerThread /= 4;
    perfbench::Tracer tracer;
    Interval at = tracer.span("two-runs", [&] {
        for (unsigned i = 0; i < 2; ++i)
            distill::lbo::runOne(spec, distill::gc::CollectorKind::Serial,
                                 2 * distill::MiB, 0, 1 + i, i);
    });
    ASSERT_EQ(tracer.lives().size(), 2u);
    for (const perfbench::Life &life : tracer.lives()) {
        EXPECT_GE(life.span.begin, at.begin);
        EXPECT_LE(life.span.end, at.end);
        EXPECT_LE(life.stwSec, life.span.end - life.span.begin);
        EXPECT_GT(life.objectsAllocated, 0u);
        EXPECT_GT(life.dispatches, 0u);
        EXPECT_GT(life.pauses, 0u);
    }
    EXPECT_EQ(perfbench::livesWithin(tracer.lives(), at).size(), 2u);
    EXPECT_EQ(perfbench::livesWithin(tracer.lives(), {at.end + 1, at.end + 2})
                  .size(),
              0u);
}
