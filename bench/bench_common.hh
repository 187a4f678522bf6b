/**
 * @file
 * Shared setup for the table/figure bench binaries.
 *
 * Every bench uses the same environment (machine, cost model,
 * collector options), the same per-benchmark measured min heaps, and
 * the same on-disk run cache, so the binaries can share one sweep's
 * runs. Invocation count defaults to 5 (the paper uses 20); raise it
 * with DISTILL_INVOCATIONS for tighter confidence intervals.
 *
 * Virtual vs wall-clock time: every number these binaries print is
 * *virtual* time — simulated nanoseconds advanced by sim::Scheduler,
 * deterministic for a given seed and identical on any host. None of
 * them may consult a host clock for results. Host-side (wall-clock)
 * timing of the simulator itself is the exclusive business of
 * src/base/host_timer.hh, used by perfbench; keep the two kinds of
 * time in separate binaries so a reader can never mistake host
 * throughput for a simulated result (or vice versa).
 */

#ifndef DISTILL_BENCH_BENCH_COMMON_HH
#define DISTILL_BENCH_BENCH_COMMON_HH

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "base/logging.hh"
#include "base/stats.hh"
#include "base/table.hh"
#include "gc/collectors.hh"
#include "heap/sizing.hh"
#include "lbo/analyzer.hh"
#include "lbo/report.hh"
#include "lbo/sweep.hh"
#include "wl/suite.hh"

namespace distill::bench
{

/** The five production collectors, in the paper's row order. */
inline const std::vector<gc::CollectorKind> &
paperCollectors()
{
    return gc::productionCollectors();
}

/** Standard sweep over the paper's grid for @p benchmarks. */
inline std::vector<lbo::RunRecord>
runGrid(lbo::SweepRunner &runner,
        const std::vector<wl::WorkloadSpec> &benchmarks,
        const std::vector<double> &factors,
        const std::vector<gc::CollectorKind> &collectors)
{
    lbo::SweepConfig config;
    config.benchmarks = benchmarks;
    config.heapFactors = factors;
    config.collectors = collectors;
    config.invocations = lbo::invocationsFromEnv(5);
    return runner.run(config);
}

/** The three heap-sizing policies, fixed first (the baseline row). */
inline const std::vector<heap::SizingPolicy> &
sizingPolicies()
{
    static const std::vector<heap::SizingPolicy> policies = {
        heap::SizingPolicy::Fixed,
        heap::SizingPolicy::Adaptive,
        heap::SizingPolicy::MemBalancer,
    };
    return policies;
}

/** runGrid with the sizing-policy dimension opened up. */
inline std::vector<lbo::RunRecord>
runSizingGrid(lbo::SweepRunner &runner,
              const std::vector<wl::WorkloadSpec> &benchmarks,
              const std::vector<double> &factors,
              const std::vector<gc::CollectorKind> &collectors,
              const std::vector<heap::SizingPolicy> &policies)
{
    lbo::SweepConfig config;
    config.benchmarks = benchmarks;
    config.heapFactors = factors;
    config.collectors = collectors;
    // Epsilon stays in the grid: sizing is forced to a no-op there,
    // but its (total - gc) bound keeps the ideal estimate tight.
    config.sizingPolicies = policies;
    config.invocations = lbo::invocationsFromEnv(5);
    return runner.run(config);
}

/** Aggregate a per-invocation field of one configuration. */
inline RunningStat
statOf(const lbo::LboAnalyzer &analyzer, const std::string &bench,
       const std::string &collector, double factor,
       double lbo::RunRecord::*field)
{
    RunningStat stat;
    for (const lbo::RunRecord *r :
         analyzer.configRecords(bench, collector, factor)) {
        stat.add(r->*field);
    }
    return stat;
}

} // namespace distill::bench

#endif // DISTILL_BENCH_BENCH_COMMON_HH
