/**
 * @file
 * Schedule-fuzzing driver: sweeps (collector x seed x schedule)
 * matrices under the heap-graph oracle, and/or runs cross-collector
 * differential comparisons against the Epsilon reference.
 *
 * Every failure prints a REPRO line that replays it bit-identically:
 *
 *   REPRO: distill_fuzz --collector=G1 --seed=303 --sched-seed=7
 *          --heap=3670016 --ops=8000 --threads=2
 *
 * Usage:
 *   distill_fuzz [--mode oracle|diff|both]
 *                [--collector NAME | --collectors A,B,... | all]
 *                [--seed S | --seeds N] [--sched-seed S | --sched-seeds N]
 *                [--fault-plan P | --fault-plans N]
 *                [--heap BYTES] [--ref-heap BYTES]
 *                [--ops N] [--threads N] [--max-virtual-time NS]
 *                [--inject-fault PAUSE] [--fault-seed S] [--expect-fault]
 *
 * Sweeps default to the production collectors, 4 seeds, and 4 schedule
 * seeds (0 = vanilla round-robin; nonzero seeds enable jitter /
 * permutation / preemption per sim::SchedulePerturb::fromSeed).
 *
 * --fault-plans N adds a fourth sweep dimension (collector x seed x
 * schedule x fault plan): plans 0..N-1, where plan 0 is fault-free and
 * nonzero plans expand to deterministic heap squeezes / allocation
 * bursts / mutator kills / denied GC progress via
 * fault::FaultPlan::fromSeed. Fault plans apply to oracle mode only
 * (differential comparisons would diverge spuriously, since fault
 * windows are keyed to virtual time and collectors run on different
 * clocks); a faulted run passes when the oracle stays clean and the
 * run either completes or fails *cleanly* (oom/timeout through
 * Runtime::fail, never a crash or heap-graph break).
 *
 * --expect-fault inverts the exit status: the run succeeds only if the
 * oracle caught at least one failure (used to verify the fault hook).
 * Note --fault-seed seeds the oracle's edge-corruption hook
 * (--inject-fault), not the fault-plan dimension.
 */

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "base/logging.hh"
#include "check/differential.hh"
#include "check/oracle.hh"
#include "check/program.hh"
#include "gc/collectors.hh"
#include "heap/layout.hh"
#include "lbo/record.hh"
#include "run_spec.hh"
#include "rt/runtime.hh"

using namespace distill;

namespace
{

void
usage()
{
    std::fprintf(
        stderr,
        "usage: distill_fuzz [--mode oracle|diff|both]\n"
        "                    [--collector NAME | --collectors A,B|all]\n"
        "                    [--seed S | --seeds N]\n"
        "                    [--sched-seed S | --sched-seeds N]\n"
        "                    [--fault-plan P | --fault-plans N]\n"
        "                    [--heap BYTES] [--ref-heap BYTES]\n"
        "                    [--ops N] [--threads N]\n"
        "                    [--max-virtual-time NS]\n"
        "                    [--inject-fault PAUSE] [--fault-seed S]\n"
        "                    [--expect-fault]\n");
    std::exit(2);
}

struct FuzzSettings
{
    std::vector<gc::CollectorKind> collectors =
        gc::productionCollectors();
    std::vector<std::uint64_t> seeds;
    std::vector<std::uint64_t> schedSeeds;
    std::vector<std::uint64_t> faultPlans = {0};
    std::uint64_t heapBytes = 14 * heap::regionSize;
    std::uint64_t refHeapBytes = 96 * heap::regionSize;
    std::size_t ops = 8000;
    unsigned threads = 2;
    std::uint64_t maxVirtualTime = 0; //!< 0 = machine default
    bool runOracle = true;
    bool runDiff = false;
    bool faultArmed = false;
    check::FaultPlan fault;
    bool expectFault = false;
};

/** One oracle-checked run; @return true when it passed. */
bool
oracleRun(const FuzzSettings &settings, gc::CollectorKind kind,
          std::uint64_t seed, std::uint64_t sched_seed,
          std::uint64_t fault_plan)
{
    rt::RunConfig config;
    // Epsilon never collects; give it the reference heap so sweeps
    // that include it measure the workload, not an artificial OOM.
    config.heapBytes = kind == gc::CollectorKind::Epsilon
        ? settings.refHeapBytes
        : settings.heapBytes;
    config.seed = seed;
    config.schedSeed = sched_seed;
    config.faultSeed = fault_plan;
    if (settings.maxVirtualTime > 0)
        config.machine.maxVirtualTime = settings.maxVirtualTime;

    rt::Runtime runtime(config, gc::makeCollector(kind),
                        check::fuzzWorkload(settings.ops, settings.threads,
                                            seed));
    check::HeapOracle oracle;
    if (settings.faultArmed)
        oracle.armFault(settings.fault);
    runtime.setHeapObserver(&oracle);
    runtime.execute();

    const metrics::RunMetrics &m = runtime.agent().metrics();
    // A faulted run may legitimately fail — the whole point is to
    // drive collectors into their degraded paths — but it must fail
    // *cleanly*: through Runtime::fail (oom/timeout/error records)
    // with the heap graph intact, never by breaking the oracle.
    std::string status =
        lbo::RunRecord::statusFor(m.completed, m.oom, m.failureReason);
    bool clean_failure =
        status == "oom" || status == "timeout" || status == "error";
    bool ok = oracle.failures() == 0 &&
        (m.completed || (fault_plan != 0 && clean_failure));
    std::printf("%-6s %-10s seed=%-6llu sched-seed=%-4llu "
                "fault-plan=%-4llu pauses=%-4u status=%s%s%s\n",
                ok ? "PASS" : "FAIL", gc::collectorName(kind),
                static_cast<unsigned long long>(seed),
                static_cast<unsigned long long>(sched_seed),
                static_cast<unsigned long long>(fault_plan),
                oracle.pausesChecked(), status.c_str(),
                m.failureReason.empty() ? "" : " ",
                m.failureReason.c_str());
    if (!ok) {
        std::string extra;
        if (settings.faultArmed) {
            extra = strprintf(" --inject-fault=%u --fault-seed=%llu",
                              settings.fault.pauseIndex,
                              static_cast<unsigned long long>(
                                  settings.fault.seed));
        }
        // A tightened virtual-time limit changes where a run ends;
        // without it on the line the replay would not be identical.
        cli::appendFlag(extra, "--max-virtual-time",
                        settings.maxVirtualTime);
        std::printf("REPRO: distill_fuzz %s --ops=%zu --threads=%u%s\n",
                    check::reproLine(runtime).c_str(), settings.ops,
                    settings.threads, extra.c_str());
    }
    return ok;
}

/** One differential comparison; @return true when it passed. */
bool
diffRun(const FuzzSettings &settings, std::uint64_t seed,
        std::uint64_t sched_seed)
{
    check::DifferentialConfig config;
    config.seed = seed;
    config.schedSeed = sched_seed;
    config.heapRegions =
        static_cast<std::size_t>(settings.heapBytes / heap::regionSize);
    config.referenceHeapRegions = static_cast<std::size_t>(
        settings.refHeapBytes / heap::regionSize);
    config.ops = settings.ops;
    config.threads = settings.threads;

    check::DifferentialResult result = check::runDifferential(config);
    std::printf("%-6s differential seed=%-6llu sched-seed=%-4llu "
                "(%u collectors)\n",
                result.ok ? "PASS" : "FAIL",
                static_cast<unsigned long long>(seed),
                static_cast<unsigned long long>(sched_seed),
                result.collectorsCompared);
    if (!result.ok) {
        std::printf("%s\n", result.report.c_str());
        std::string line = strprintf(
            "REPRO: distill_fuzz --mode=diff --seed=%llu "
            "--sched-seed=%llu --heap=%llu --ref-heap=%llu "
            "--ops=%zu --threads=%u",
            static_cast<unsigned long long>(seed),
            static_cast<unsigned long long>(sched_seed),
            static_cast<unsigned long long>(settings.heapBytes),
            static_cast<unsigned long long>(settings.refHeapBytes),
            settings.ops, settings.threads);
        cli::appendFlag(line, "--max-virtual-time",
                        settings.maxVirtualTime);
        std::printf("%s\n", line.c_str());
    }
    return result.ok;
}

} // namespace

int
main(int argc, char **argv)
{
    check::enableEnvOracle();

    FuzzSettings settings;
    std::size_t seed_count = 4;
    std::size_t sched_count = 4;
    bool single_seed = false;
    bool single_sched = false;

    cli::Args args(argc, argv, usage);
    while (!args.done()) {
        if (args.option("--mode")) {
            std::string mode = args.value();
            settings.runOracle = mode == "oracle" || mode == "both";
            settings.runDiff = mode == "diff" || mode == "both";
            if (!settings.runOracle && !settings.runDiff)
                usage();
        } else if (args.option("--collector") ||
                   args.option("--collectors")) {
            std::string list = args.value();
            if (list == "all") {
                settings.collectors = gc::allCollectors();
            } else {
                settings.collectors.clear();
                for (const std::string &name : cli::splitList(list))
                    settings.collectors.push_back(
                        gc::collectorFromName(name));
            }
        } else if (args.option("--seed")) {
            settings.seeds = {cli::parseU64("--seed", args.value())};
            single_seed = true;
        } else if (args.option("--seeds")) {
            seed_count = cli::parseCount("--seeds", args.value());
        } else if (args.option("--sched-seed")) {
            settings.schedSeeds = {
                cli::parseU64("--sched-seed", args.value())};
            single_sched = true;
        } else if (args.option("--sched-seeds")) {
            sched_count = cli::parseCount("--sched-seeds", args.value());
        } else if (args.option("--fault-plan")) {
            settings.faultPlans = {
                cli::parseU64("--fault-plan", args.value())};
        } else if (args.option("--fault-plans")) {
            std::uint64_t n =
                cli::parseCount("--fault-plans", args.value());
            settings.faultPlans.clear();
            for (std::uint64_t p = 0; p < n; ++p)
                settings.faultPlans.push_back(p);
        } else if (args.option("--heap")) {
            settings.heapBytes = cli::parseCount("--heap", args.value());
        } else if (args.option("--ref-heap")) {
            settings.refHeapBytes =
                cli::parseCount("--ref-heap", args.value());
        } else if (args.option("--ops")) {
            settings.ops = cli::parseCount("--ops", args.value());
        } else if (args.option("--threads")) {
            settings.threads = static_cast<unsigned>(
                cli::parseCount("--threads", args.value()));
        } else if (args.option("--max-virtual-time")) {
            settings.maxVirtualTime =
                cli::parseCount("--max-virtual-time", args.value());
        } else if (args.option("--inject-fault")) {
            settings.faultArmed = true;
            settings.fault.enabled = true;
            settings.fault.pauseIndex = static_cast<unsigned>(
                cli::parseU64("--inject-fault", args.value()));
        } else if (args.option("--fault-seed")) {
            settings.fault.seed =
                cli::parseU64("--fault-seed", args.value());
        } else if (args.flag("--expect-fault")) {
            settings.expectFault = true;
        } else {
            usage();
        }
    }

    if (settings.runDiff &&
        (settings.faultPlans.size() > 1 || settings.faultPlans[0] != 0)) {
        warn("fault plans apply to oracle mode only; differential "
             "comparisons run fault-free (fault windows are keyed to "
             "virtual time, which differs per collector)");
    }

    if (!single_seed) {
        for (std::size_t i = 0; i < seed_count; ++i)
            settings.seeds.push_back(101 * (i + 1));
    }
    if (!single_sched) {
        for (std::size_t i = 0; i < sched_count; ++i)
            settings.schedSeeds.push_back(i);
    }

    unsigned runs = 0;
    unsigned failures = 0;
    if (settings.runOracle) {
        for (gc::CollectorKind kind : settings.collectors) {
            for (std::uint64_t seed : settings.seeds) {
                for (std::uint64_t ss : settings.schedSeeds) {
                    for (std::uint64_t plan : settings.faultPlans) {
                        ++runs;
                        if (!oracleRun(settings, kind, seed, ss, plan))
                            ++failures;
                    }
                }
            }
        }
    }
    if (settings.runDiff) {
        for (std::uint64_t seed : settings.seeds) {
            for (std::uint64_t ss : settings.schedSeeds) {
                ++runs;
                if (!diffRun(settings, seed, ss))
                    ++failures;
            }
        }
    }

    std::printf("%u/%u runs passed\n", runs - failures, runs);
    if (settings.expectFault)
        return failures > 0 ? 0 : 1;
    return failures > 0 ? 1 : 0;
}
