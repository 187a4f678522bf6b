/**
 * @file
 * Command-line sweep driver: run an arbitrary (benchmarks x heap
 * multipliers x collectors x invocations) grid and export the raw
 * per-invocation records as CSV — the starting point for any custom
 * analysis or plotting outside the bundled bench binaries.
 *
 * Usage:
 *   distill_sweep [--benchmarks a,b,...] [--factors 1.4,3.0,...]
 *                 [--collectors Serial,G1,...] [--invocations N]
 *                 [--sizing fixed,adaptive,membalancer|all]
 *                 [--no-epsilon] [--csv out.csv] [--resume out.csv]
 *                 [--fault-plan SEED] [--sched-seed SEED]
 *                 [--retries N] [--isolate] [--jobs N]
 *                 [--watchdog-ms MS] [--max-virtual-time NS]
 *
 * Defaults: the 16-benchmark geomean set, the paper's eight heap
 * multipliers, all five production collectors plus Epsilon, 5
 * invocations, CSV to stdout.
 *
 * The sizing dimension:
 *   --sizing a,b,...   run every cell under each named heap-sizing
 *                      policy (fixed, adaptive, membalancer; "all"
 *                      expands to all three). Non-fixed policies let
 *                      the runtime's HeapController move the committed
 *                      region limit at GC cycle boundaries; Epsilon
 *                      and benchmarks without a measured min-heap
 *                      anchor always run fixed (the controller would
 *                      have no [min, max] range to steer inside).
 *
 * Robustness features:
 *   --fault-plan SEED  inject the deterministic fault plan derived
 *                      from SEED into every run (heap squeezes, alloc
 *                      bursts, mutator kills, denied GC progress; see
 *                      fault::FaultPlan::fromSeed). Failed cells stay
 *                      in the grid as status=oom/timeout/... rows.
 *   --sched-seed SEED  perturb thread scheduling (sim::SchedulePerturb).
 *   --retries N        re-run failed perturbed cells up to N times
 *                      under re-derived schedule seeds.
 *   --isolate          fork per invocation; a crash becomes a
 *                      status=crash row instead of killing the sweep,
 *                      and the dying child leaves a flight-recorder
 *                      sidecar report whose path and failure
 *                      signature land in the row's forensics columns.
 *   --watchdog-ms MS   wall-clock hang watchdog per isolated cell: an
 *                      unresponsive child is SIGTERMed (dumping a
 *                      status=hang sidecar) then SIGKILLed, and the
 *                      cell records as status=hang. Requires
 *                      --isolate; distinct from --max-virtual-time,
 *                      which a livelocked child never reaches.
 *   --jobs N           keep up to N isolated children in flight at
 *                      once (implies --isolate). The output CSV is
 *                      byte-identical to --jobs 1 on the same grid:
 *                      rows are streamed in completion order as a
 *                      crash checkpoint, then the file is rewritten
 *                      in canonical grid order when the sweep
 *                      completes. Each child keeps its own
 *                      --watchdog-ms deadline.
 *   --resume out.csv   checkpoint/resume: cells already recorded in
 *                      out.csv are skipped, fresh rows are appended as
 *                      they complete; a truncated trailing line (sweep
 *                      killed mid-append) is skipped with a warning.
 *   --max-virtual-time NS  lower the virtual-time safety limit; runs
 *                      that hit it become status=timeout rows.
 *
 * Every failed cell prints a REPRO line replaying that single run:
 *   REPRO: distill_run --bench h2 --gc ZGC --heap-bytes N --seed S ...
 * and `distill_triage out.csv` groups the failures by signature.
 */

#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "base/logging.hh"
#include "check/oracle.hh"
#include "fault/plan.hh"
#include "heap/sizing.hh"
#include "lbo/sweep.hh"
#include "run_spec.hh"
#include "wl/suite.hh"

using namespace distill;

namespace
{

/** The run flags that apply to every cell of a sweep. */
constexpr unsigned sweepFlags = cli::RunSpec::Seeds |
    cli::RunSpec::VirtualTime | cli::RunSpec::Watchdog;

void
usage()
{
    std::fprintf(
        stderr,
        "usage: distill_sweep\n"
        "    [--benchmarks a,b,...] [--factors 1.4,3.0]\n"
        "    [--collectors Serial,G1,...] [--invocations N]\n"
        "    [--sizing fixed,adaptive,membalancer|all] [--no-epsilon]\n"
        "    [--csv out.csv] [--resume out.csv]\n"
        "    [--retries N] [--isolate] [--jobs N]\n%s",
        cli::RunSpec::usage(sweepFlags).c_str());
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    check::enableEnvOracle(); // DISTILL_ORACLE=1 checks every pause
    std::vector<std::string> benchmarks;
    std::vector<double> factors;
    std::vector<std::string> collectors;
    std::vector<heap::SizingPolicy> sizing_policies;
    unsigned invocations = lbo::invocationsFromEnv(5);
    bool include_epsilon = true;
    std::string csv_path;
    std::string resume_path;
    cli::RunSpec run; // the sweep-wide replay flags
    unsigned retries = 0;
    bool isolate = false;
    unsigned jobs = 1;

    cli::Args args(argc, argv, usage);
    while (!args.done()) {
        if (run.parse(args, sweepFlags))
            continue;
        if (args.option("--benchmarks")) {
            benchmarks = cli::splitList(args.value());
        } else if (args.option("--factors")) {
            for (const std::string &f : cli::splitList(args.value()))
                factors.push_back(cli::parsePositiveDouble("--factors", f));
        } else if (args.option("--invocations")) {
            invocations = static_cast<unsigned>(
                cli::parseCount("--invocations", args.value()));
        } else if (args.option("--collectors")) {
            collectors = cli::splitList(args.value());
        } else if (args.option("--sizing")) {
            for (const std::string &name : cli::splitList(args.value())) {
                if (name == "all") {
                    sizing_policies = {heap::SizingPolicy::Fixed,
                                       heap::SizingPolicy::Adaptive,
                                       heap::SizingPolicy::MemBalancer};
                    break;
                }
                heap::SizingPolicy policy;
                if (!heap::sizingPolicyFromName(name, policy))
                    fatal("unknown --sizing policy: %s (expected fixed, "
                          "adaptive, membalancer, or all)",
                          name.c_str());
                sizing_policies.push_back(policy);
            }
        } else if (args.option("--csv")) {
            csv_path = args.value();
        } else if (args.option("--resume")) {
            resume_path = args.value();
        } else if (args.option("--retries")) {
            retries = static_cast<unsigned>(
                cli::parseU64("--retries", args.value()));
        } else if (args.option("--jobs")) {
            jobs = cli::parseJobs("--jobs", args.value());
        } else if (args.flag("--isolate")) {
            isolate = true;
        } else if (args.flag("--no-epsilon")) {
            include_epsilon = false;
        } else {
            usage();
        }
    }

    lbo::SweepConfig config;
    config.env = run.environment();
    config.invocations = invocations;
    config.includeEpsilon = include_epsilon;
    config.retries = retries;
    if (jobs > 1)
        isolate = true; // every pooled cell is a forked child
    config.isolateInvocations = isolate;
    config.jobs = jobs;
    if (run.watchdogMs > 0 && !isolate)
        fatal("--watchdog-ms requires --isolate (the watchdog kills "
              "and post-mortems a forked child)");
    config.watchdogMs = run.watchdogMs;
    config.heapFactors =
        factors.empty() ? lbo::paperHeapFactors() : factors;
    if (!sizing_policies.empty())
        config.sizingPolicies = sizing_policies;

    lbo::SweepRunner runner;
    if (!resume_path.empty()) {
        if (csv_path.empty())
            csv_path = resume_path;
        if (csv_path != resume_path)
            fatal("--resume must name the --csv output file (append "
                  "checkpointing): %s vs %s",
                  resume_path.c_str(), csv_path.c_str());
        std::size_t loaded = runner.loadResumeFile(resume_path);
        inform("resume: loaded %zu completed cells from %s", loaded,
               resume_path.c_str());
    }
    if (run.faultPlan != 0)
        inform("fault plan %llu: %s",
               static_cast<unsigned long long>(run.faultPlan),
               fault::FaultPlan::fromSeed(run.faultPlan).describe().c_str());

    // With --jobs > 1 the min-heap anchors are measured inside run()
    // through the same process pool (one probe child per benchmark);
    // measuring them here would serialize that work.
    auto prepared = [&](const wl::WorkloadSpec &spec) {
        return config.jobs > 1 ? spec
                               : runner.withMinHeap(spec, config.env);
    };
    if (benchmarks.empty()) {
        for (const wl::WorkloadSpec &spec : wl::geomeanSet())
            config.benchmarks.push_back(prepared(spec));
    } else {
        for (const std::string &name : benchmarks)
            config.benchmarks.push_back(prepared(wl::findSpec(name)));
    }

    if (collectors.empty()) {
        config.collectors = gc::productionCollectors();
    } else {
        for (const std::string &name : collectors)
            config.collectors.push_back(gc::collectorFromName(name));
    }

    // Stream rows to the output file as they complete, so a killed
    // sweep can be resumed from whatever it managed to finish.
    std::ofstream file;
    if (!csv_path.empty()) {
        bool append = !resume_path.empty() &&
            std::ifstream(csv_path).good();
        file.open(csv_path, append ? std::ios::app : std::ios::trunc);
        if (!file)
            fatal("cannot open %s for writing", csv_path.c_str());
        if (!append)
            file << lbo::RunRecord::csvHeader() << '\n';
        config.onRecord = [&file](const lbo::RunRecord &r) {
            file << r.toCsv() << '\n';
            file.flush();
        };
    }

    std::vector<lbo::RunRecord> records = runner.run(config);

    if (csv_path.empty()) {
        std::cout << lbo::RunRecord::csvHeader() << '\n';
        for (const lbo::RunRecord &r : records)
            std::cout << r.toCsv() << '\n';
    } else if (config.jobs > 1) {
        // Pooled rows streamed in completion order (and any rows
        // inherited from a resume file) served as the crash
        // checkpoint; now that every cell is in hand, rewrite the file
        // in canonical grid order so the output is byte-identical to a
        // --jobs 1 sweep of the same grid.
        file.close();
        std::ofstream canonical(csv_path, std::ios::trunc);
        if (!canonical)
            fatal("cannot rewrite %s in canonical order",
                  csv_path.c_str());
        canonical << lbo::RunRecord::csvHeader() << '\n';
        for (const lbo::RunRecord &r : records)
            canonical << r.toCsv() << '\n';
    }

    unsigned failed = 0;
    for (const lbo::RunRecord &r : records) {
        if (!r.failed())
            continue;
        ++failed;
        std::fprintf(stderr, "FAIL %s/%s heap=%llu inv=%u: %s (%s)%s%s\n",
                     r.bench.c_str(), r.collector.c_str(),
                     static_cast<unsigned long long>(r.heapBytes),
                     r.invocation, r.status.c_str(),
                     r.failReason.c_str(),
                     r.sidecar.empty() ? "" : " report: ",
                     r.sidecar.c_str());
        std::fprintf(stderr, "%s\n", cli::runRepro(r, run).c_str());
    }
    if (!csv_path.empty())
        inform("wrote %zu records to %s", records.size(),
               csv_path.c_str());
    if (failed > 0 || runner.retriesAttempted() > 0)
        inform("sweep: %u/%zu cells failed, %u retries", failed,
               records.size(), runner.retriesAttempted());
    return 0;
}
