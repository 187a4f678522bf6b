#include "lbo/run.hh"

#include "heap/layout.hh"
#include "wl/workload.hh"

namespace distill::lbo
{

void
fillMetrics(RunRecord &r, const metrics::RunMetrics &m)
{
    r.completed = m.completed;
    r.oom = m.oom;
    r.status = RunRecord::statusFor(m.completed, m.oom, m.failureReason);
    r.failReason = RunRecord::sanitizeReason(m.failureReason);
    r.wallNs = static_cast<double>(m.total.wallNs);
    r.cycles = static_cast<double>(m.total.cycles);
    r.stwWallNs = static_cast<double>(m.stw.wallNs);
    r.stwCycles = static_cast<double>(m.stw.cycles);
    r.gcThreadCycles = static_cast<double>(m.gcThreadCycles);
    r.mutatorCycles = static_cast<double>(m.mutatorCycles);
    r.pauses = m.pauseNs.count();
    r.pauseMeanNs = m.pauseNs.meanValue();
    r.pauseP50Ns = static_cast<double>(m.pauseNs.percentile(50));
    r.pauseP90Ns = static_cast<double>(m.pauseNs.percentile(90));
    r.pauseP99Ns = static_cast<double>(m.pauseNs.percentile(99));
    r.pauseP9999Ns = static_cast<double>(m.pauseNs.percentile(99.99));
    r.pauseMaxNs = static_cast<double>(m.pauseNs.max());
    r.meteredP50Ns = static_cast<double>(m.meteredLatencyNs.percentile(50));
    r.meteredP90Ns = static_cast<double>(m.meteredLatencyNs.percentile(90));
    r.meteredP99Ns = static_cast<double>(m.meteredLatencyNs.percentile(99));
    r.meteredP9999Ns =
        static_cast<double>(m.meteredLatencyNs.percentile(99.99));
    r.meteredMaxNs = static_cast<double>(m.meteredLatencyNs.max());
    r.simpleP50Ns = static_cast<double>(m.simpleLatencyNs.percentile(50));
    r.simpleP99Ns = static_cast<double>(m.simpleLatencyNs.percentile(99));
    r.simpleP9999Ns =
        static_cast<double>(m.simpleLatencyNs.percentile(99.99));
    r.allocStallNs = static_cast<double>(m.allocStallNs);
    r.degeneratedGcs = m.degeneratedGcs;
    r.bytesAllocated = m.bytesAllocated;
    auto phase_cycles = [&m](metrics::GcPhase p) {
        return static_cast<double>(
            m.gcPhase[static_cast<std::size_t>(p)].cycles);
    };
    r.markCycles = phase_cycles(metrics::GcPhase::Mark);
    r.evacCycles = phase_cycles(metrics::GcPhase::Evacuate);
    r.updateRefsCycles = phase_cycles(metrics::GcPhase::UpdateRefs);
    r.remsetRefineCycles = phase_cycles(metrics::GcPhase::RemsetRefine);
    r.relocateCycles = phase_cycles(metrics::GcPhase::Relocate);
    r.sweepCycles = phase_cycles(metrics::GcPhase::Sweep);
    r.compactCycles = phase_cycles(metrics::GcPhase::Compact);
    r.gcGlueCycles = phase_cycles(metrics::GcPhase::None);
    r.stealCycles = phase_cycles(metrics::GcPhase::Steal);
    r.stealSpinCycles = phase_cycles(metrics::GcPhase::StealSpin);
    r.terminationSpinCycles = phase_cycles(metrics::GcPhase::Termination);
    r.stealAttempts = m.stealAttempts;
    r.stealHits = m.stealHits;
    r.heapLimitBytes = m.heapLimitBytes;
    r.peakCommittedBytes = m.peakCommittedBytes;
    r.avgCommittedBytes = m.avgCommittedBytes;
    r.sizingGrows = m.sizingGrows;
    r.sizingShrinks = m.sizingShrinks;
}

std::uint64_t
heapBytesAt(const wl::WorkloadSpec &spec, double factor)
{
    return roundUp(static_cast<std::uint64_t>(
                       factor * static_cast<double>(spec.minHeapBytes)),
                   heap::regionSize);
}

rt::RunConfig
makeRunConfig(const wl::WorkloadSpec &spec, gc::CollectorKind collector,
              std::uint64_t heap_bytes, std::uint64_t seed,
              const Environment &env)
{
    bool epsilon = collector == gc::CollectorKind::Epsilon;
    rt::RunConfig config;
    config.machine = env.machine;
    config.costs = env.costs;
    config.seed = seed;
    config.schedSeed = env.schedSeed;
    config.faultSeed = env.faultSeed;
    config.heapBytes = epsilon ? env.machine.memoryBudget : heap_bytes;
    config.sizingPolicy = epsilon || spec.minHeapBytes == 0
        ? heap::SizingPolicy::Fixed
        : env.sizingPolicy;
    config.minHeapBytes = spec.minHeapBytes;
    return config;
}

RunRecord
identityRecord(const wl::WorkloadSpec &spec, gc::CollectorKind collector,
               const rt::RunConfig &config, double heap_factor,
               unsigned invocation)
{
    RunRecord r;
    r.bench = spec.name;
    r.collector = gc::collectorName(collector);
    r.heapFactor = collector == gc::CollectorKind::Epsilon ? 0.0
                                                           : heap_factor;
    r.heapBytes = config.heapBytes;
    r.seed = config.seed;
    r.invocation = invocation;
    r.faultSeed = config.faultSeed;
    r.schedSeed = config.schedSeed;
    r.sizingPolicy = heap::sizingPolicyName(config.sizingPolicy);
    return r;
}

RunRecord
runOne(const wl::WorkloadSpec &spec, gc::CollectorKind collector,
       std::uint64_t heap_bytes, double heap_factor, std::uint64_t seed,
       unsigned invocation, const Environment &env)
{
    rt::RunConfig config =
        makeRunConfig(spec, collector, heap_bytes, seed, env);
    rt::Runtime runtime(config, gc::makeCollector(collector, env.gcOptions),
                        wl::makeWorkload(spec));
    runtime.execute();
    RunRecord r =
        identityRecord(spec, collector, config, heap_factor, invocation);
    fillMetrics(r, runtime.agent().metrics());
    return r;
}

} // namespace distill::lbo
