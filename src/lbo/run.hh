/**
 * @file
 * Single-invocation run driver.
 */

#ifndef DISTILL_LBO_RUN_HH
#define DISTILL_LBO_RUN_HH

#include "gc/collectors.hh"
#include "gc/options.hh"
#include "heap/sizing.hh"
#include "lbo/record.hh"
#include "metrics/agent.hh"
#include "rt/cost_model.hh"
#include "rt/runtime.hh"
#include "sim/machine.hh"
#include "wl/spec.hh"

namespace distill::lbo
{

/**
 * Fixed environment for a set of runs: the machine, the cost model,
 * and collector options. Defaults model the paper's testbed.
 */
struct Environment
{
    sim::MachineConfig machine;
    rt::CostModel costs;
    gc::GcOptions gcOptions;

    /**
     * Schedule-perturbation seed applied to every run (0 = vanilla
     * deterministic round-robin; see sim::SchedulePerturb::fromSeed).
     */
    std::uint64_t schedSeed = 0;

    /**
     * Fault-plan seed applied to every run (0 = no faults; see
     * fault::FaultPlan::fromSeed). Faulted runs are cached and
     * resumed under a distinct key, so clean grids are unaffected.
     */
    std::uint64_t faultSeed = 0;

    /**
     * Heap-limit policy (heap/sizing.hh); makeRunConfig() forces it
     * to Fixed where no controller can run. Non-fixed
     * runs cache under a distinct key, so clean grids are unaffected.
     */
    heap::SizingPolicy sizingPolicy = heap::SizingPolicy::Fixed;
};

/**
 * The configured heap at @p factor times @p spec's measured min heap,
 * rounded up to whole regions: the heap of a sweep grid cell and of a
 * single run given --heap-factor.
 */
std::uint64_t heapBytesAt(const wl::WorkloadSpec &spec, double factor);

/**
 * The rt::RunConfig for one invocation of @p spec under @p collector.
 * Every run path builds its configuration here, because two rules
 * must hold for all of them (and for the sweep's cache keys, which
 * read the result):
 *  - Epsilon never collects, so it runs on the machine-memory heap
 *    whatever @p heap_bytes says;
 *  - a heap-sizing controller is armed only when there is a measured
 *    [min-heap, configured-heap] range to steer within, so
 *    env.sizingPolicy is forced to Fixed for Epsilon (no cycle
 *    boundaries to consult at) and for specs without a measured
 *    min-heap (heap-bytes replay overrides would hand the adaptive
 *    shrink a zero floor).
 */
rt::RunConfig makeRunConfig(const wl::WorkloadSpec &spec,
                            gc::CollectorKind collector,
                            std::uint64_t heap_bytes, std::uint64_t seed,
                            const Environment &env);

/**
 * A record carrying only the identity columns of the run @p config
 * (from makeRunConfig) describes: bench, collector, heap (factor 0
 * for Epsilon), seeds, invocation and the effective sizing policy.
 * Run paths fill the measured columns; paths that lose a run (a
 * crashed child) keep it as the failure row.
 */
RunRecord identityRecord(const wl::WorkloadSpec &spec,
                         gc::CollectorKind collector,
                         const rt::RunConfig &config, double heap_factor,
                         unsigned invocation);

/**
 * Execute one invocation of @p spec under @p collector with a heap of
 * @p heap_bytes (ignored for Epsilon, which gets the machine memory
 * budget) and return its flattened measurements.
 *
 * @param seed Workload seed; runs with the same seed replay the same
 *        allocation/mutation sequence under every collector.
 */
RunRecord runOne(const wl::WorkloadSpec &spec, gc::CollectorKind collector,
                 std::uint64_t heap_bytes, double heap_factor,
                 std::uint64_t seed, unsigned invocation,
                 const Environment &env = {});

/**
 * Fill @p r's outcome, cost, pause/latency, and phase-attribution
 * columns from finalized metrics @p m. Identity columns come from
 * identityRecord(); serve columns are the caller's. Shared by runOne and
 * serve::runServe so both row flavors stay column-for-column
 * consistent.
 */
void fillMetrics(RunRecord &r, const metrics::RunMetrics &m);

} // namespace distill::lbo

#endif // DISTILL_LBO_RUN_HH
