#include "serve/run.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string_view>

#include "heap/object.hh"
#include "rt/runtime.hh"
#include "serve/program.hh"
#include "wl/suite.hh"
#include "wl/workload.hh"

namespace distill::serve
{

ArrivalSpec
resolveArrival(const ServeConfig &config)
{
    const wl::WorkloadSpec &spec = config.spec;
    ArrivalSpec arrival = config.arrival;
    arrival.seed = config.serveSeed;

    if (arrival.ratePerSec <= 0.0) {
        if (spec.requestsPerSec > 0.0) {
            arrival.ratePerSec = spec.requestsPerSec;
        } else {
            // Non-latency benchmark pressed into serving: target the
            // same ~75 % of ideal capacity wl's metered mode uses.
            double txn_ns = wl::estimateTxnCycles(spec) / 3.6;
            double req_ns =
                txn_ns * std::max(1u, spec.txnsPerRequest);
            arrival.ratePerSec = 0.75 * 1e9 * spec.threads / req_ns;
        }
    }

    if (arrival.requests == 0) {
        // Match the closed-loop run's total work: the allocation
        // budget divided by the expected bytes one request allocates.
        double avg_refs = (spec.minRefs + spec.maxRefs) / 2.0;
        double payload = std::sqrt(static_cast<double>(spec.minPayload) *
                                   static_cast<double>(spec.maxPayload));
        std::uint64_t txn_bytes = heap::objectSize(
            static_cast<std::uint32_t>(avg_refs),
            static_cast<std::uint64_t>(payload));
        std::uint64_t req_bytes =
            txn_bytes * std::max(1u, spec.txnsPerRequest);
        std::uint64_t budget =
            spec.allocBytesPerThread * spec.threads;
        arrival.requests = std::max<std::uint64_t>(64,
            budget / std::max<std::uint64_t>(1, req_bytes));
    }
    return arrival;
}

void
classifyServeStatus(lbo::RunRecord &record, const ServeCounters &counters,
                    const ServePolicy &policy)
{
    if (record.status != "ok" || counters.issued == 0)
        return; // real failures (oom/timeout/...) take precedence
    double issued = static_cast<double>(counters.issued);
    double shed_rate = static_cast<double>(counters.shedTotal()) / issued;
    double deadline_rate =
        static_cast<double>(counters.deadlineTotal()) / issued;
    double exhausted_rate = counters.uniqueRequests == 0 ? 0.0
        : static_cast<double>(counters.retryExhausted) /
              static_cast<double>(counters.uniqueRequests);

    double lost_rate = static_cast<double>(counters.lost) / issued;
    double cancelled_rate =
        static_cast<double>(counters.hedgeCancelled) / issued;

    const char *status = nullptr;
    double rate = 0.0;
    const char *what = nullptr;
    if (lost_rate >= 0.10) {
        // Lost-at-crash outranks the overload statuses: the requests
        // did not degrade, they vanished with the instance.
        status = "lost";
        rate = lost_rate;
        what = "attempts lost at instance crash";
    } else if (policy.maxRetries > 0 && exhausted_rate > 0.10) {
        status = "retry-exhausted";
        rate = exhausted_rate;
        what = "requests exhausted retries";
    } else if (shed_rate >= 0.25 && shed_rate >= deadline_rate) {
        status = "shed";
        rate = shed_rate;
        what = "attempts shed";
    } else if (deadline_rate >= 0.25) {
        status = "deadline";
        rate = deadline_rate;
        what = "attempts past deadline";
    } else if (cancelled_rate >= 0.25) {
        // Lowest priority: hedge cancellation is the supervisor
        // working as designed, surfaced only when it dominates.
        status = "hedge-cancelled";
        rate = cancelled_rate;
        what = "attempts cancelled by winning hedges";
    }
    if (status == nullptr)
        return;
    record.status = status;
    char reason[96];
    std::snprintf(reason, sizeof(reason), "overload: %.1f%% %s",
                  rate * 100.0, what);
    record.failReason = lbo::RunRecord::sanitizeReason(reason);
}

BusyWindows
busyWindowsFromLog(const metrics::RunMetrics &metrics, Ticks pad_ns)
{
    // Labels that mean "this instance was not serving at full
    // capacity": every STW pause kind, the whole degenerated cycle,
    // and allocation stalls.
    static constexpr std::string_view busyLabels[] = {
        "young", "full", "initial-mark", "final-mark", "evacuation",
        "phase-flip", "degenerated", "degenerated-cycle", "alloc-stall",
    };
    BusyWindows windows;
    for (const metrics::GcLogEvent &e : metrics.gcLog) {
        std::string_view what(e.what);
        bool busy = false;
        for (std::string_view label : busyLabels) {
            if (what == label) {
                busy = true;
                break;
            }
        }
        if (!busy)
            continue;
        Ticks begin = e.startNs > pad_ns ? e.startNs - pad_ns : 0;
        Ticks end = e.startNs + e.durationNs + pad_ns;
        windows.emplace_back(begin, end);
    }
    std::sort(windows.begin(), windows.end());
    BusyWindows merged;
    for (const auto &w : windows) {
        if (!merged.empty() && w.first <= merged.back().second)
            merged.back().second = std::max(merged.back().second, w.second);
        else
            merged.push_back(w);
    }
    return merged;
}

ServeResult
runServe(const ServeConfig &config)
{
    const wl::WorkloadSpec &spec = config.spec;

    fault::FaultPlan plan =
        fault::FaultPlan::fromSeed(config.env.faultSeed);

    std::vector<Ticks> arrivals = config.explicitArrivals;
    if (arrivals.empty() && !config.arrivalsExplicit)
        arrivals = generateArrivals(resolveArrival(config), plan);

    rt::RunConfig run_config = lbo::makeRunConfig(
        spec, config.collector, config.heapBytes, config.seed, config.env);

    auto store = std::make_unique<wl::SharedStore>(spec.storeSlots);
    auto broker = std::make_shared<RequestBroker>(
        std::move(arrivals), config.policy, config.serveSeed);
    auto ladder = std::make_shared<GcLadder>();

    InstanceHazards hazards;
    hazards.crashAtNs = config.crashAtNs;
    hazards.stallWindows = config.stallWindows;

    rt::WorkloadInstance instance;
    for (unsigned t = 0; t < spec.threads; ++t) {
        instance.programs.push_back(std::make_unique<ServeProgram>(
            spec, t, *store, broker, ladder, hazards));
    }
    instance.sharedRoots.push_back(std::move(store));
    bool crashed = config.crashAtNs != 0;
    instance.exportStats = [broker, crashed](metrics::RunMetrics &m) {
        // A failed/timed-out run leaves work pending; drain it into
        // the shed-drain bucket so attempt conservation holds exactly.
        // A crashed instance loses that work instead: nothing unserved
        // survives the crash, including never-ingested arrivals.
        if (crashed)
            broker->drainLost();
        else
            broker->drainRemaining();
        m.meteredLatencyNs.merge(broker->metered());
        m.simpleLatencyNs.merge(broker->simple());
    };

    ServeResult result;
    {
        rt::Runtime runtime(run_config,
                            gc::makeCollector(config.collector,
                                              config.env.gcOptions),
                            std::move(instance));
        runtime.execute();
        const metrics::RunMetrics &m = runtime.agent().metrics();

        lbo::RunRecord &r = result.record;
        r = lbo::identityRecord(spec, config.collector, run_config,
                                config.heapFactor, config.invocation);
        lbo::fillMetrics(r, m);

        const ServeCounters &c = broker->counters();
        r.serveSeed = config.serveSeed;
        r.serveIssued = c.issued;
        r.serveCompleted = c.completed;
        r.serveShed = c.shedTotal();
        r.serveDeadline = c.deadlineTotal();
        r.serveRetries = c.retriesScheduled;
        r.serveRetryExhausted = c.retryExhausted;
        r.serveLost = c.lost;
        r.serveHedgeCancelled = c.hedgeCancelled;
        if (crashed && c.lost > 0 && r.signature.empty()) {
            // Deduplicatable signature so triage groups crashed
            // instances the way it groups forensic crash cells.
            r.signature = "instance-crash@serve";
        }
        classifyServeStatus(r, c, config.policy);

        result.counters = c;
        result.escalations = ladder->escalations();
        result.metered = broker->metered();
        result.simple = broker->simple();
        result.horizonNs = broker->horizonNs();
        result.busyWindows = busyWindowsFromLog(m);
        result.gcLog = m.gcLog;
    }
    return result;
}

} // namespace distill::serve
