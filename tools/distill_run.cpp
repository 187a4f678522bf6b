/**
 * @file
 * Command-line driver: run one (benchmark, collector, heap) tuple and
 * report the full metric set, optionally with the GC event log — the
 * workflow the paper uses when diagnosing a collector's behavior on a
 * specific workload (e.g. reading Shenandoah's logs on xalan,
 * §IV-C(d)).
 *
 * Usage:
 *   distill_run --bench h2 --gc Shenandoah [run flags] [--log]
 *               [--log-limit 40]
 *
 * The run flags are RunSpec's (tools/run_spec.hh; `distill_run
 * --help` lists them), the same ones every REPRO line carries.
 *
 * --heap-bytes overrides --heap-mib overrides --heap-factor; with
 * none, 3.0x of the measured min heap is used. --sched-seed,
 * --fault-plan and --max-virtual-time accept the values printed in a
 * sweep's REPRO lines, replaying a failed cell bit-identically.
 *
 * --sizing selects the heap-limit controller (default fixed). Under
 * Epsilon the controller is always a guaranteed no-op (the run is a
 * replay of allocation against the full memory budget), so --sizing
 * tokens pasted from a sweep REPRO line are accepted but inert there.
 *
 * --watchdog-ms arms a wall-clock watchdog (src/diag/): when a hang
 * cell is replayed (e.g. a livelock fault plan), the process prints
 * "status=hang" with a sidecar report path and exits with code 124
 * instead of hanging the shell. Crash handlers are armed with it, so
 * replayed crashes also leave a sidecar report (distill-run-crash.report
 * in the working directory).
 */

#include <cstdio>
#include <cstdlib>
#include <string>

#include "base/logging.hh"
#include "base/table.hh"
#include "check/oracle.hh"
#include "fault/plan.hh"
#include "heap/layout.hh"
#include "heap/sizing.hh"
#include "lbo/record.hh"
#include "lbo/sweep.hh"
#include "metrics/agent.hh"
#include "rt/runtime.hh"
#include "run_spec.hh"
#include "wl/suite.hh"
#include "wl/workload.hh"

using namespace distill;

namespace
{

void
usage()
{
    std::fprintf(stderr,
                 "usage: distill_run\n%s"
                 "    [--log] [--log-limit N]\n",
                 cli::RunSpec::usage().c_str());
    std::fprintf(stderr,
                 "collectors: Epsilon Serial Parallel G1 Shenandoah ZGC\n"
                 "benchmarks: ");
    for (const wl::WorkloadSpec &spec : wl::dacapoSuite())
        std::fprintf(stderr, "%s ", spec.name.c_str());
    std::fprintf(stderr, "\n");
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    check::enableEnvOracle(); // DISTILL_ORACLE=1 checks every pause
    cli::RunSpec run;
    bool show_log = false;
    std::size_t log_limit = 40;

    cli::Args args(argc, argv, usage);
    while (!args.done()) {
        if (run.parse(args))
            continue;
        if (args.option("--log-limit"))
            log_limit = cli::parseU64("--log-limit", args.value());
        else if (args.flag("--log"))
            show_log = true;
        else
            usage();
    }

    lbo::Environment env = run.environment();
    lbo::SweepRunner runner;
    wl::WorkloadSpec spec =
        runner.withMinHeap(wl::findSpec(run.bench), env);
    gc::CollectorKind kind = gc::collectorFromName(run.collector);
    rt::RunConfig config = lbo::makeRunConfig(
        spec, kind, run.resolveHeapBytes(spec), run.seed, env);

    if (run.faultPlan != 0)
        std::printf("fault plan %llu: %s\n",
                    static_cast<unsigned long long>(run.faultPlan),
                    fault::FaultPlan::fromSeed(run.faultPlan)
                        .describe()
                        .c_str());

    run.armWatchdog("distill-run-crash.report");

    rt::Runtime runtime(config, gc::makeCollector(kind, env.gcOptions),
                        wl::makeWorkload(spec));
    runtime.execute();
    const metrics::RunMetrics &m = runtime.agent().metrics();

    std::printf("%s under %s, heap %.1f MiB (min %.1f MiB), seed %llu\n",
                run.bench.c_str(), run.collector.c_str(),
                static_cast<double>(config.heapBytes) / (1 << 20),
                static_cast<double>(spec.minHeapBytes) / (1 << 20),
                static_cast<unsigned long long>(run.seed));
    std::printf("outcome: %s%s (status=%s%s%s)\n\n",
                m.completed ? "completed" : "FAILED",
                m.oom ? " (OOM)" : "",
                lbo::RunRecord::statusFor(m.completed, m.oom,
                                          m.failureReason),
                m.failureReason.empty() ? "" : ": ",
                m.failureReason.c_str());

    TextTable table({"metric", "value"});
    auto row = [&](const char *name, std::string value) {
        table.beginRow();
        table.cell(name);
        table.cell(std::move(value));
    };
    row("wall time", strprintf("%.3f ms", m.total.wallNs / 1e6));
    row("cycles", strprintf("%.1f Mcycles", m.total.cycles / 1e6));
    row("mutator cycles", strprintf("%.1f Mcycles",
                                    m.mutatorCycles / 1e6));
    row("GC-thread cycles", strprintf("%.1f Mcycles",
                                      m.gcThreadCycles / 1e6));
    row("STW time", strprintf("%.3f ms (%.1f%%)", m.stw.wallNs / 1e6,
                              m.total.wallNs
                                  ? 100.0 * m.stw.wallNs / m.total.wallNs
                                  : 0.0));
    row("STW cycles", strprintf("%.1f Mcycles (%.1f%%)",
                                m.stw.cycles / 1e6,
                                m.total.cycles
                                    ? 100.0 * m.stw.cycles /
                                        m.total.cycles
                                    : 0.0));
    row("pauses",
        strprintf("%llu (young %llu, full %llu, concurrent %llu)",
                  static_cast<unsigned long long>(m.pauseNs.count()),
                  static_cast<unsigned long long>(m.youngPauses),
                  static_cast<unsigned long long>(m.fullPauses),
                  static_cast<unsigned long long>(m.concurrentPauses)));
    row("pause p50/p99/max",
        strprintf("%.0f / %.0f / %.0f us",
                  m.pauseNs.percentile(50) / 1e3,
                  m.pauseNs.percentile(99) / 1e3, m.pauseNs.max() / 1e3));
    row("concurrent cycles",
        strprintf("%llu", static_cast<unsigned long long>(
                              m.concurrentCycles)));
    row("degenerated GCs",
        strprintf("%llu", static_cast<unsigned long long>(
                              m.degeneratedGcs)));
    row("alloc stalls",
        strprintf("%llu (%.2f ms total)",
                  static_cast<unsigned long long>(m.allocStalls),
                  m.allocStallNs / 1e6));
    row("allocated", strprintf("%.1f MiB",
                               static_cast<double>(m.bytesAllocated) /
                                   (1 << 20)));
    row("sizing policy", heap::sizingPolicyName(config.sizingPolicy));
    row("heap limit", strprintf("%.1f MiB",
                                static_cast<double>(m.heapLimitBytes) /
                                    (1 << 20)));
    row("peak committed", strprintf(
                              "%.1f MiB",
                              static_cast<double>(m.peakCommittedBytes) /
                                  (1 << 20)));
    row("avg committed",
        strprintf("%.1f MiB", m.avgCommittedBytes / (1 << 20)));
    if (config.sizingPolicy != heap::SizingPolicy::Fixed)
        row("sizing decisions",
            strprintf("%llu grows, %llu shrinks",
                      static_cast<unsigned long long>(m.sizingGrows),
                      static_cast<unsigned long long>(m.sizingShrinks)));
    row("energy estimate", strprintf("%.3f J", m.total.energyNj() / 1e9));
    if (spec.latencySensitive && m.meteredLatencyNs.count() > 0) {
        row("metered latency p50/p99/p99.99",
            strprintf("%.0f / %.0f / %.0f us",
                      m.meteredLatencyNs.percentile(50) / 1e3,
                      m.meteredLatencyNs.percentile(99) / 1e3,
                      m.meteredLatencyNs.percentile(99.99) / 1e3));
        row("simple latency p99",
            strprintf("%.0f us", m.simpleLatencyNs.percentile(99) / 1e3));
    }
    table.print();

    if (m.gcThreadCycles > 0) {
        std::printf("\nGC cost attribution (%.1f Mcycles GC-thread "
                    "total)\n",
                    m.gcThreadCycles / 1e6);
        TextTable phases(
            {"phase", "cycles (M)", "share", "STW (M)", "wall (ms)",
             "spans"});
        for (std::size_t p = 0; p < metrics::gcPhaseCount; ++p) {
            const metrics::GcPhaseStats &s = m.gcPhase[p];
            if (s.cycles == 0 && s.spans == 0)
                continue;
            phases.beginRow();
            phases.cell(metrics::gcPhaseName(
                static_cast<metrics::GcPhase>(p)));
            phases.cell(strprintf("%.2f", s.cycles / 1e6));
            phases.cell(strprintf("%.1f%%",
                                  100.0 * s.cycles / m.gcThreadCycles));
            phases.cell(strprintf("%.2f", s.stwCycles / 1e6));
            if (s.spans > 0)
                phases.cell(strprintf("%.3f", s.wallNs / 1e6));
            else
                phases.blank();
            phases.cell(strprintf(
                "%llu", static_cast<unsigned long long>(s.spans)));
        }
        phases.print();
    }

    if (show_log) {
        std::printf("\nGC event log (%zu events%s, showing last %zu)\n",
                    m.gcLog.size(),
                    m.gcLogDropped
                        ? strprintf(", %llu dropped",
                                    static_cast<unsigned long long>(
                                        m.gcLogDropped))
                              .c_str()
                        : "",
                    std::min(log_limit, m.gcLog.size()));
        TextTable log({"t (ms)", "event", "duration (us)"});
        std::size_t start = m.gcLog.size() > log_limit
            ? m.gcLog.size() - log_limit
            : 0;
        for (std::size_t i = start; i < m.gcLog.size(); ++i) {
            const metrics::GcLogEvent &e = m.gcLog[i];
            log.beginRow();
            log.cell(strprintf("%.3f", e.startNs / 1e6));
            log.cell(e.what);
            if (e.durationNs > 0)
                log.cell(strprintf("%.1f", e.durationNs / 1e3));
            else
                log.blank();
        }
        log.print();
    }
    if (!m.completed) {
        std::printf("%s\n",
                    cli::runRepro(lbo::identityRecord(spec, kind, config,
                                                      0.0, 0),
                                  run)
                        .c_str());
    }
    return m.completed ? 0 : 1;
}
