/**
 * @file
 * Chrome trace-event exporter: run one (benchmark, collector, heap)
 * tuple — accepting the same replay flags as distill_run, so a
 * sweep's REPRO line converts straight into a timeline — and write
 * the run's GC event log plus phase spans as trace JSON loadable in
 * chrome://tracing or Perfetto.
 *
 * Usage:
 *   distill_trace <distill_run's run flags> [--out trace.json]
 *   distill_trace --validate trace.json
 *
 * The run flags (tools/run_spec.hh) include --watchdog-ms, which arms
 * the same wall-clock watchdog as distill_run: a hang REPRO line
 * replays here too, printing "status=hang" and exiting 124 (sidecar
 * report distill-trace-crash.report).
 *
 * The export lays events out on four lanes of one process:
 *   tid 0  STW pauses         (pause-kind events)
 *   tid 1  concurrent cycles  (concurrent-cycle / degenerated-cycle)
 *   tid 2  phases             (phase:* spans from the ledger)
 *   tid 3  alloc stalls
 *
 * After writing, the tool re-reads the file through the same
 * validator --validate uses and cross-checks the attribution ledger's
 * conservation invariant, printing "trace-ok events=N" on success —
 * the line the CI smoke tests match. A failed run still exports its
 * (partial) trace: replaying failures is the point of the tool.
 */

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "base/logging.hh"
#include "lbo/record.hh"
#include "lbo/sweep.hh"
#include "metrics/agent.hh"
#include "rt/runtime.hh"
#include "run_spec.hh"
#include "trace_json.hh"
#include "wl/suite.hh"
#include "wl/workload.hh"

using namespace distill;

namespace
{

void
usage()
{
    std::fprintf(stderr,
                 "usage: distill_trace\n%s"
                 "    [--out trace.json]\n"
                 "       distill_trace --validate <trace.json>\n",
                 cli::RunSpec::usage().c_str());
    std::exit(2);
}

/** Validate @p path, print the verdict; returns the process status. */
int
validateFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in) {
        std::fprintf(stderr, "distill_trace: cannot read %s\n",
                     path.c_str());
        return 1;
    }
    std::ostringstream text;
    text << in.rdbuf();
    trace::TraceCheck check = trace::checkTrace(text.str());
    if (!check.ok) {
        std::printf("trace-invalid %s: %s\n", path.c_str(),
                    check.error.c_str());
        return 1;
    }
    std::printf("trace-ok events=%zu\n", check.events);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    cli::RunSpec run;
    std::string out_path = "distill-trace.json";
    std::string validate_path;

    cli::Args args(argc, argv, usage);
    while (!args.done()) {
        if (run.parse(args))
            continue;
        if (args.option("--out"))
            out_path = args.value();
        else if (args.option("--validate"))
            validate_path = args.value();
        else
            usage();
    }

    if (!validate_path.empty())
        return validateFile(validate_path);

    lbo::Environment env = run.environment();
    lbo::SweepRunner runner;
    wl::WorkloadSpec spec =
        runner.withMinHeap(wl::findSpec(run.bench), env);
    gc::CollectorKind kind = gc::collectorFromName(run.collector);
    rt::RunConfig config = lbo::makeRunConfig(
        spec, kind, run.resolveHeapBytes(spec), run.seed, env);

    run.armWatchdog("distill-trace-crash.report");

    rt::Runtime runtime(config, gc::makeCollector(kind, env.gcOptions),
                        wl::makeWorkload(spec));
    runtime.execute();
    const metrics::RunMetrics &m = runtime.agent().metrics();

    std::printf("%s under %s: %s (status=%s), %zu log events%s\n",
                run.bench.c_str(), run.collector.c_str(),
                m.completed ? "completed" : "FAILED",
                lbo::RunRecord::statusFor(m.completed, m.oom,
                                          m.failureReason),
                m.gcLog.size(),
                m.gcLogDropped
                    ? strprintf(" (%llu dropped)",
                                static_cast<unsigned long long>(
                                    m.gcLogDropped))
                          .c_str()
                    : "");

    // Conservation cross-check: the ledger's rows (glue included)
    // must cover every GC-thread cycle. finalize() already asserts
    // this inside the run; re-checking from the outside keeps the
    // smoke test independent of the assert machinery.
    Cycles attributed = m.gcGlueCycles() + m.gcAttributedCycles();
    std::printf("conservation: attributed=%llu gcThreadCycles=%llu %s\n",
                static_cast<unsigned long long>(attributed),
                static_cast<unsigned long long>(m.gcThreadCycles),
                attributed == m.gcThreadCycles ? "ok" : "LEAK");
    if (attributed != m.gcThreadCycles)
        return 1;

    std::string json =
        trace::renderGcLogTrace(run.bench + " / " + run.collector, m.gcLog);

    std::ofstream out(out_path);
    if (!out) {
        std::fprintf(stderr, "distill_trace: cannot write %s\n",
                     out_path.c_str());
        return 1;
    }
    out << json;
    out.close();

    // Self-check: validate what actually landed on disk.
    std::printf("wrote %s\n", out_path.c_str());
    return validateFile(out_path);
}
