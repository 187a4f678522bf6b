/**
 * @file
 * Overload-resilient serving driver: run one benchmark as an
 * open-loop metered server under one or more collectors, with the
 * robustness policy layer (admission control, deadlines, retries,
 * GC-aware shedding) on or off, optionally as a fleet of N instances
 * behind a blind / GC-aware / JSQ / power-of-two-choices balancer,
 * with optional chaos (supervised instance crashes and stalls).
 *
 * Usage:
 *   distill_serve --bench lusearch --gc ZGC [run flags but --sizing]
 *                 [--load 1.5] [--requests N]
 *                 [--queue-cap N] [--deadline-us N] [--retries N]
 *                 [--backoff-us N] [--gc-aware]
 *                 [--protect | --no-protection] [--serve-seed S]
 *                 [--fleet N [--balancer POLICY] [--jobs J]]
 *                 [--chaos] [--hedge-us N] [--restart-budget N]
 *                 [--breaker N] [--no-failover]
 *                 [--csv out.csv] [--trace out.json]
 *   distill_serve --collectors G1,ZGC,Shenandoah --compare ...
 *
 * Every run prints the broker's attempt-conservation line
 * ("serve-conservation: ... ok") — the line CI's serve-smoke job
 * matches — plus goodput, shed rate, retry amplification, latency
 * percentiles, and the degradation-ladder escalation counts.
 * --compare runs each collector both unprotected and protected and
 * prints the Fig. 4-style companion table.
 *
 * --chaos turns on the fleet supervisor (defaulting --fleet to 4 and
 * the fault plan to the canonical chaos seed): InstanceCrash and
 * InstanceStall events are planned into restarts, failover, hedging,
 * and breaker ejections, the fleet-availability ledger is printed,
 * and failed instances get per-signature REPRO lines. In fleet mode
 * --trace exports the instance-lifetime lanes instead of a GC log.
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "base/logging.hh"
#include "fault/plan.hh"
#include "heap/layout.hh"
#include "lbo/sweep.hh"
#include "run_spec.hh"
#include "serve/fleet.hh"
#include "serve/run.hh"
#include "trace_json.hh"
#include "wl/suite.hh"

using namespace distill;

namespace
{

/**
 * Every run flag but --sizing: serving runs on a fixed heap. Its
 * --watchdog-ms is the fleet pool's per-child deadline.
 */
constexpr unsigned servedFlags =
    cli::RunSpec::AllGroups & ~cli::RunSpec::Sizing;

void
usage()
{
    std::fprintf(
        stderr,
        "usage: distill_serve\n%s"
        "    [--collectors A,B,...] [--compare]\n"
        "    [--load L] [--requests N] [--diurnal A]\n"
        "    [--queue-cap N] [--deadline-us N]\n"
        "    [--retries N] [--backoff-us N] [--gc-aware]\n"
        "    [--protect | --no-protection] [--serve-seed S]\n"
        "    [--fleet N] [--balancer blind|aware|jsq|p2c|both|all]\n"
        "    [--jobs J] [--chaos] [--hedge-us N] [--restart-budget N]\n"
        "    [--breaker N] [--no-failover]\n"
        "    [--csv out.csv] [--trace out.json]\n",
        cli::RunSpec::usage(servedFlags).c_str());
    std::exit(2);
}

/** The issue's default protection preset, scaled to the workload. */
serve::ServePolicy
protectPreset(const wl::WorkloadSpec &spec)
{
    serve::ServePolicy policy;
    policy.queueCap = 16 * spec.threads;
    double txn_ns = wl::estimateTxnCycles(spec) / 3.6;
    auto req_ns = static_cast<Ticks>(
        txn_ns * std::max(1u, spec.txnsPerRequest));
    policy.deadlineNs = std::max<Ticks>(200'000, 32 * req_ns);
    policy.maxRetries = 3;
    return policy;
}

void
printResultSummary(const char *label, const serve::ServeCounters &c,
                   const Histogram &metered, const Histogram &simple,
                   double goodput, double shed_rate, double retry_amp)
{
    std::printf(
        "serve-conservation: issued=%llu completed=%llu shed=%llu "
        "deadline-expired=%llu lost=%llu hedge-cancelled=%llu %s\n",
        static_cast<unsigned long long>(c.issued),
        static_cast<unsigned long long>(c.completed),
        static_cast<unsigned long long>(c.shedTotal()),
        static_cast<unsigned long long>(c.deadlineTotal()),
        static_cast<unsigned long long>(c.lost),
        static_cast<unsigned long long>(c.hedgeCancelled),
        c.conserves() ? "ok" : "LEAK");
    std::printf("%s: goodput=%.0f req/s shed-rate=%.2f%% "
                "retry-amplification=%.3f max-queue=%llu\n",
                label, goodput, shed_rate * 100.0, retry_amp,
                static_cast<unsigned long long>(c.maxQueueDepth));
    std::printf("%s: metered p50=%llu p90=%llu p99=%llu p99.99=%llu "
                "max=%llu ns\n",
                label,
                static_cast<unsigned long long>(metered.percentile(50)),
                static_cast<unsigned long long>(metered.percentile(90)),
                static_cast<unsigned long long>(metered.percentile(99)),
                static_cast<unsigned long long>(
                    metered.percentile(99.99)),
                static_cast<unsigned long long>(metered.max()));
    std::printf("%s: simple p50=%llu p99=%llu ns\n", label,
                static_cast<unsigned long long>(simple.percentile(50)),
                static_cast<unsigned long long>(simple.percentile(99)));
}

} // namespace

int
main(int argc, char **argv)
{
    cli::RunSpec run;
    run.bench = "lusearch";
    std::vector<std::string> collectors;
    bool compare = false;
    double load = 1.0;
    std::uint64_t requests = 0;
    double diurnal = 0.0;
    std::uint64_t diurnal_period_us = 20'000;
    serve::ServePolicy policy;
    bool protect = false;
    bool no_protection = false;
    std::uint64_t serve_seed = 1;
    unsigned fleet = 0;
    std::string balancer = "blind";
    unsigned jobs = 1;
    bool chaos = false;
    std::uint64_t hedge_us = 0;
    serve::SupervisorConfig supervisor;
    std::string csv_path;
    std::string trace_path;

    cli::Args args(argc, argv, usage);
    while (!args.done()) {
        if (run.parse(args, servedFlags))
            continue;
        if (args.option("--collectors")) {
            collectors = cli::splitList(args.value());
        } else if (args.flag("--compare")) {
            compare = true;
        } else if (args.option("--load")) {
            load = cli::parsePositiveDouble("--load", args.value());
        } else if (args.option("--requests")) {
            requests = cli::parseCount("--requests", args.value());
        } else if (args.option("--diurnal")) {
            diurnal = cli::parseDouble("--diurnal", args.value());
        } else if (args.option("--diurnal-period-us")) {
            diurnal_period_us =
                cli::parseCount("--diurnal-period-us", args.value());
        } else if (args.option("--queue-cap")) {
            policy.queueCap = cli::parseCount("--queue-cap", args.value());
        } else if (args.option("--deadline-us")) {
            policy.deadlineNs =
                cli::parseCount("--deadline-us", args.value()) * 1000;
        } else if (args.option("--retries")) {
            policy.maxRetries = static_cast<unsigned>(
                cli::parseU64("--retries", args.value()));
        } else if (args.option("--backoff-us")) {
            policy.backoffBaseNs =
                cli::parseCount("--backoff-us", args.value()) * 1000;
        } else if (args.flag("--gc-aware")) {
            policy.gcAware = true;
        } else if (args.flag("--protect")) {
            protect = true;
        } else if (args.flag("--no-protection")) {
            no_protection = true;
        } else if (args.option("--serve-seed")) {
            serve_seed = cli::parseU64("--serve-seed", args.value());
        } else if (args.option("--fleet")) {
            fleet = static_cast<unsigned>(
                cli::parseCount("--fleet", args.value()));
        } else if (args.option("--balancer")) {
            balancer = args.value();
            serve::Balancer parsed;
            if (!serve::balancerFromName(balancer, parsed) &&
                balancer != "both" && balancer != "all")
                usage();
        } else if (args.option("--jobs")) {
            jobs = cli::parseJobs("--jobs", args.value());
        } else if (args.flag("--chaos")) {
            chaos = true;
        } else if (args.option("--hedge-us")) {
            hedge_us = cli::parseCount("--hedge-us", args.value());
        } else if (args.option("--restart-budget")) {
            supervisor.restartBudget = static_cast<unsigned>(
                cli::parseU64("--restart-budget", args.value()));
        } else if (args.option("--breaker")) {
            supervisor.breakerThreshold = static_cast<unsigned>(
                cli::parseU64("--breaker", args.value()));
        } else if (args.flag("--no-failover")) {
            supervisor.failover = false;
        } else if (args.option("--csv")) {
            csv_path = args.value();
        } else if (args.option("--trace")) {
            trace_path = args.value();
        } else {
            usage();
        }
    }
    if (collectors.empty()) // --collectors overrides --gc
        collectors = {run.collector};
    if (protect && no_protection)
        fatal("--protect and --no-protection are mutually exclusive");

    if (chaos) {
        // Chaos mode: a supervised fleet under the canonical
        // instance-failure plan, unless the user pinned their own.
        if (fleet == 0)
            fleet = 4;
        if (run.faultPlan == 0)
            run.faultPlan = fault::FaultPlan::chaosSeed(0);
        supervisor.hedgeDelayNs = hedge_us * 1000;
    }

    lbo::Environment env = run.environment();
    lbo::SweepRunner runner;
    wl::WorkloadSpec spec =
        runner.withMinHeap(wl::findSpec(run.bench), env);
    std::uint64_t heap_bytes = run.resolveHeapBytes(spec);

    if (protect)
        policy = protectPreset(spec);
    if (no_protection)
        policy = serve::ServePolicy{};
    if (policy.gcAware && policy.queueCap == 0) {
        // GC-aware shedding needs a cap to tighten.
        policy.queueCap = 16 * spec.threads;
    }

    serve::ServeConfig base;
    base.spec = spec;
    base.heapBytes = heap_bytes;
    base.heapFactor =
        run.heapBytes > 0 || run.heapMib > 0 ? 0.0 : run.heapFactor;
    base.seed = run.seed;
    base.serveSeed = serve_seed;
    base.arrival.loadFactor = load;
    base.arrival.requests = requests;
    base.arrival.diurnalAmplitude = diurnal;
    base.arrival.diurnalPeriodNs = diurnal_period_us * 1000;
    base.policy = policy;
    base.env = env;

    std::ofstream csv;
    if (!csv_path.empty()) {
        csv.open(csv_path, std::ios::trunc);
        if (!csv)
            fatal("cannot write %s", csv_path.c_str());
        csv << lbo::RunRecord::csvHeader() << '\n';
    }

    int status = 0;

    if (fleet > 0) {
        // ----- Fleet-lite mode -------------------------------------
        if (collectors.size() != 1)
            fatal("--fleet runs one collector; use --gc");
        base.collector = gc::collectorFromName(collectors[0]);
        serve::FleetConfig fc;
        fc.base = base;
        fc.instances = fleet;
        fc.jobs = jobs;
        fc.watchdogMs = run.watchdogMs;
        fc.supervised = chaos;
        fc.supervisor = supervisor;

        std::vector<serve::Balancer> modes;
        if (balancer == "both") {
            modes = {serve::Balancer::Blind, serve::Balancer::Aware};
        } else if (balancer == "all") {
            modes = {serve::Balancer::Blind, serve::Balancer::Aware,
                     serve::Balancer::Jsq, serve::Balancer::P2c};
        } else {
            serve::Balancer one;
            if (!serve::balancerFromName(balancer, one))
                usage();
            modes = {one};
        }

        std::vector<serve::BusyWindows> blind_adverts;
        for (serve::Balancer mode : modes) {
            const char *name = serve::balancerName(mode);
            fc.balancer = mode;
            // Multi-policy runs reuse the blind pass's adverts for
            // the aware pass instead of re-running the preview fleet.
            fc.adverts = mode == serve::Balancer::Aware
                ? blind_adverts
                : std::vector<serve::BusyWindows>{};
            serve::FleetResult fr = serve::runFleet(fc);
            if (mode == serve::Balancer::Blind) {
                blind_adverts.clear();
                for (const serve::ServeResult &inst : fr.instances)
                    blind_adverts.push_back(inst.busyWindows);
            }
            std::printf("fleet[%s]: %s x%u under %s heap=%llu MiB%s\n",
                        name, run.bench.c_str(), fleet,
                        collectors[0].c_str(),
                        static_cast<unsigned long long>(heap_bytes /
                                                        MiB),
                        fc.supervised ? " supervised" : "");
            std::string label = std::string("fleet[") + name + "]";
            printResultSummary(label.c_str(), fr.counters, fr.metered,
                               fr.simple, fr.goodput(), fr.shedRate(),
                               fr.retryAmplification());
            if (fc.supervised)
                std::printf("%s\n", fr.ledger.describe().c_str());
            for (const serve::ServeResult &inst : fr.instances) {
                // Under supervision, "lost"/"hedge-cancelled" are the
                // *planned* consequences of injected chaos — reported,
                // but not a tool failure. Anything else still is.
                bool expected = fc.supervised &&
                    (inst.record.status == "lost" ||
                     inst.record.status == "hedge-cancelled");
                if (inst.record.failed() && !expected)
                    status = 1;
                if (csv.is_open())
                    csv << inst.record.toCsv() << '\n';
            }
            // One REPRO per distinct failure signature, mirroring the
            // sweep tools, so a chaos failure pastes straight back.
            std::vector<std::string> seen;
            for (const serve::ServeResult &inst : fr.instances) {
                const lbo::RunRecord &r = inst.record;
                if (!r.failed() || r.signature.empty())
                    continue;
                if (std::find(seen.begin(), seen.end(), r.signature) !=
                    seen.end())
                    continue;
                seen.push_back(r.signature);
                std::printf("signature: %s\n%s\n", r.signature.c_str(),
                            cli::serveRepro(r).c_str());
            }
            if (!trace_path.empty() && fc.supervised &&
                modes.size() == 1) {
                std::ofstream out(trace_path);
                if (!out)
                    fatal("cannot write %s", trace_path.c_str());
                out << trace::renderFleetTimelineTrace(
                    run.bench + " / " + collectors[0] + " (fleet " + name +
                        ")",
                    fr.timelines, fr.horizonNs);
                std::printf("wrote %s\n", trace_path.c_str());
            }
        }
    } else {
        // ----- Single-instance mode --------------------------------
        struct Cell
        {
            std::string collector;
            bool protectionOn;
            serve::ServeResult result;
        };
        std::vector<Cell> cells;
        for (const std::string &name : collectors) {
            base.collector = gc::collectorFromName(name);
            std::vector<std::pair<bool, serve::ServePolicy>> variants;
            if (compare) {
                variants.emplace_back(false, serve::ServePolicy{});
                variants.emplace_back(true, protect || policy.protectionEnabled()
                                                ? policy
                                                : protectPreset(spec));
            } else {
                variants.emplace_back(policy.protectionEnabled(), policy);
            }
            for (const auto &[prot, pol] : variants) {
                base.policy = pol;
                serve::ServeResult r = serve::runServe(base);
                std::printf(
                    "serve: %s under %s heap=%llu MiB load=%.2f "
                    "protection=%s status=%s\n",
                    run.bench.c_str(), name.c_str(),
                    static_cast<unsigned long long>(heap_bytes / MiB),
                    load, prot ? "on" : "off",
                    r.record.status.c_str());
                printResultSummary("serve", r.counters, r.metered,
                                   r.simple, r.goodput(), r.shedRate(),
                                   r.retryAmplification());
                std::printf(
                    "ladder: concurrent=%llu degenerated=%llu "
                    "full=%llu alloc-stall=%llu\n",
                    static_cast<unsigned long long>(
                        r.escalations[serve::GcLadder::Concurrent]),
                    static_cast<unsigned long long>(
                        r.escalations[serve::GcLadder::Degenerated]),
                    static_cast<unsigned long long>(
                        r.escalations[serve::GcLadder::Full]),
                    static_cast<unsigned long long>(
                        r.escalations[serve::GcLadder::AllocStall]));
                if (!r.counters.conserves() ||
                    (!r.record.completed && r.record.failed()))
                    status = 1;
                if (csv.is_open())
                    csv << r.record.toCsv() << '\n';
                if (!trace_path.empty() && !compare && fleet == 0 &&
                    collectors.size() == 1) {
                    std::ofstream out(trace_path);
                    if (!out)
                        fatal("cannot write %s", trace_path.c_str());
                    // The serve trace reuses distill_trace's exact
                    // writer; ladder escalations ride the phase lane.
                    out << trace::renderGcLogTrace(
                        run.bench + " / " + name + " (serve)",
                        r.gcLog);
                }
                cells.push_back({name, prot, std::move(r)});
            }
        }
        if (compare) {
            std::printf("\n%-11s %-10s %12s %12s %10s %10s %8s\n",
                        "collector", "protection", "metered-p99",
                        "p99.99", "goodput", "shed-rate", "retry-x");
            for (const Cell &cell : cells) {
                const serve::ServeResult &r = cell.result;
                std::printf("%-11s %-10s %12llu %12llu %10.0f %9.2f%% "
                            "%8.3f\n",
                            cell.collector.c_str(),
                            cell.protectionOn ? "on" : "off",
                            static_cast<unsigned long long>(
                                r.metered.percentile(99)),
                            static_cast<unsigned long long>(
                                r.metered.percentile(99.99)),
                            r.goodput(), r.shedRate() * 100.0,
                            r.retryAmplification());
            }
        }
    }

    if (csv.is_open()) {
        csv.close();
        std::printf("wrote %s\n", csv_path.c_str());
    }
    return status;
}
