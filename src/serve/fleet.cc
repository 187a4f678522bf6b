#include "serve/fleet.hh"

#include <algorithm>
#include <sstream>

#include "base/logging.hh"
#include "base/rng.hh"
#include "lbo/pool.hh"

namespace distill::serve
{

namespace
{

/** Whether @p status is one the serving classifier may assign. */
bool
isServeStatus(const std::string &status)
{
    return status == "ok" || status == "shed" || status == "deadline" ||
        status == "retry-exhausted" || status == "lost" ||
        status == "hedge-cancelled";
}

/**
 * Execute one ServeConfig per entry, pooled when configured, shipping
 * every result through the payload codec on both paths so --jobs 1
 * and --jobs N aggregate from exactly the same bytes. A child that
 * dies, hangs, or truncates its payload is re-run in-process
 * (childFallback, the default) or replaced by a synthesized crash
 * record so the loss stays visible in the fleet accounting.
 */
std::vector<ServeResult>
executeConfigs(const std::vector<ServeConfig> &configs,
               const FleetConfig &fleet)
{
    std::size_t n = configs.size();
    std::vector<ServeResult> results(n);
    bool pooled = fleet.jobs > 1 && lbo::ProcessPool::available();
    if (!pooled) {
        for (std::size_t i = 0; i < n; ++i) {
            std::string payload = encodeServeResult(runServe(configs[i]));
            if (!decodeServeResult(payload, results[i]))
                fatal("fleet: serve payload codec self-mismatch");
        }
        return results;
    }

    lbo::ProcessPool pool(
        std::min<unsigned>(fleet.jobs, static_cast<unsigned>(n)));
    for (std::size_t i = 0; i < n; ++i) {
        lbo::PoolJob job;
        job.tag = static_cast<std::uint64_t>(i);
        job.watchdogMs = fleet.watchdogMs;
        ServeConfig inst = configs[i];
        job.work = [inst]() { return encodeServeResult(runServe(inst)); };
        job.payloadComplete = [](const std::string &payload) {
            return payload.size() >= 4 &&
                payload.compare(payload.size() - 4, 4, "END\n") == 0;
        };
        pool.submit(std::move(job));
    }
    std::vector<bool> done(n, false);
    std::vector<std::string> cause(n, "child-died");
    pool.run([&](lbo::PoolResult result) {
        std::size_t i = static_cast<std::size_t>(result.tag);
        if (result.spawned && decodeServeResult(result.payload, results[i]))
            done[i] = true;
        else if (!result.spawned)
            cause[i] = "spawn-failed";
        else if (result.hung)
            cause[i] = "child-hung";
    });
    for (std::size_t i = 0; i < n; ++i) {
        if (done[i])
            continue;
        if (fleet.childFallback) {
            // Slower but complete, and byte-identical because the
            // codec round-trip is the same.
            warn("fleet: instance job %zu failed (%s); rerunning "
                 "in-process", i, cause[i].c_str());
            std::string payload = encodeServeResult(runServe(configs[i]));
            if (!decodeServeResult(payload, results[i]))
                fatal("fleet: serve payload codec self-mismatch");
        } else {
            warn("fleet: instance job %zu failed (%s); synthesizing "
                 "crash record", i, cause[i].c_str());
            results[i] = synthesizeCrashResult(configs[i], cause[i]);
        }
    }
    return results;
}

/** Sort-and-coalesce busy windows merged from several incarnations. */
BusyWindows
mergeBusyWindows(BusyWindows windows)
{
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

} // namespace

std::string
encodeServeResult(const ServeResult &result)
{
    std::ostringstream out;
    out << "CSV " << result.record.toCsv() << '\n';
    const ServeCounters &c = result.counters;
    out << "COUNTERS " << c.issued << ' ' << c.completed << ' '
        << c.shedQueueFull << ' ' << c.shedGcPressure << ' '
        << c.shedDrain << ' ' << c.deadlineQueue << ' '
        << c.deadlineInflight << ' ' << c.retriesScheduled << ' '
        << c.retryExhausted << ' ' << c.uniqueRequests << ' '
        << c.maxQueueDepth << ' ' << c.lost << ' ' << c.hedgeCancelled
        << '\n';
    out << "ESCAL";
    for (std::uint64_t e : result.escalations)
        out << ' ' << e;
    out << '\n';
    out << "HORIZON " << result.horizonNs << '\n';
    out << "HISTM";
    for (const auto &[value, count] : result.metered.exportBuckets())
        out << ' ' << value << ':' << count;
    out << '\n';
    out << "HISTS";
    for (const auto &[value, count] : result.simple.exportBuckets())
        out << ' ' << value << ':' << count;
    out << '\n';
    out << "BUSY";
    for (const auto &[begin, end] : result.busyWindows)
        out << ' ' << begin << ':' << end;
    out << '\n';
    out << "END\n";
    return out.str();
}

bool
decodeServeResult(const std::string &payload, ServeResult &out)
{
    out = ServeResult{};
    // A child that died mid-write hands the parent a prefix; requiring
    // the newline-terminated END sentinel up front rejects every
    // proper prefix, including one cut inside the final line (getline
    // would otherwise accept a bare "END" with its newline sheared).
    if (payload.size() < 4 ||
        payload.compare(payload.size() - 4, 4, "END\n") != 0) {
        return false;
    }
    std::istringstream in(payload);
    std::string line;
    bool have_csv = false;
    bool have_counters = false;
    bool have_end = false;
    auto parse_pairs = [](std::istringstream &rest,
                          auto &&consume) -> bool {
        std::string tok;
        while (rest >> tok) {
            std::size_t colon = tok.find(':');
            if (colon == std::string::npos)
                return false;
            try {
                consume(std::stoull(tok.substr(0, colon)),
                        std::stoull(tok.substr(colon + 1)));
            } catch (const std::exception &) {
                return false;
            }
        }
        return true;
    };
    while (std::getline(in, line)) {
        if (line == "END") {
            have_end = true;
            continue;
        }
        std::size_t space = line.find(' ');
        std::string key = line.substr(0, space);
        std::istringstream rest(
            space == std::string::npos ? "" : line.substr(space + 1));
        if (key == "CSV") {
            if (!lbo::RunRecord::fromCsv(rest.str(), out.record))
                return false;
            have_csv = true;
        } else if (key == "COUNTERS") {
            ServeCounters &c = out.counters;
            if (!(rest >> c.issued >> c.completed >> c.shedQueueFull >>
                  c.shedGcPressure >> c.shedDrain >> c.deadlineQueue >>
                  c.deadlineInflight >> c.retriesScheduled >>
                  c.retryExhausted >> c.uniqueRequests >>
                  c.maxQueueDepth >> c.lost >> c.hedgeCancelled)) {
                return false;
            }
            have_counters = true;
        } else if (key == "ESCAL") {
            for (std::uint64_t &e : out.escalations) {
                if (!(rest >> e))
                    return false;
            }
        } else if (key == "HORIZON") {
            if (!(rest >> out.horizonNs))
                return false;
        } else if (key == "HISTM") {
            if (!parse_pairs(rest, [&](std::uint64_t v, std::uint64_t n) {
                    out.metered.record(v, n);
                })) {
                return false;
            }
        } else if (key == "HISTS") {
            if (!parse_pairs(rest, [&](std::uint64_t v, std::uint64_t n) {
                    out.simple.record(v, n);
                })) {
                return false;
            }
        } else if (key == "BUSY") {
            if (!parse_pairs(rest, [&](std::uint64_t a, std::uint64_t b) {
                    out.busyWindows.emplace_back(a, b);
                })) {
                return false;
            }
        }
        // Unknown keys are skipped (forward compatibility).
    }
    return have_csv && have_counters && have_end;
}

ServeResult
synthesizeCrashResult(const ServeConfig &config, const std::string &cause)
{
    ServeResult out;
    lbo::RunRecord &r = out.record;
    r = lbo::identityRecord(
        config.spec, config.collector,
        lbo::makeRunConfig(config.spec, config.collector, config.heapBytes,
                           config.seed, config.env),
        config.heapFactor, config.invocation);
    r.status = "crash";
    r.failReason = lbo::RunRecord::sanitizeReason(cause);
    r.signature = lbo::RunRecord::sanitizeReason(cause) + "@fleet-child";

    // Every arrival routed to the vanished child is issued-and-lost,
    // so issued == lost keeps the extended conservation identity
    // closed over the loss.
    std::uint64_t lost = config.explicitArrivals.size();
    out.counters.issued = lost;
    out.counters.uniqueRequests = lost;
    out.counters.lost = lost;
    r.serveSeed = config.serveSeed;
    r.serveIssued = lost;
    r.serveLost = lost;
    out.horizonNs =
        config.explicitArrivals.empty() ? 0 : config.explicitArrivals.back();
    distill_assert(out.counters.conserves(),
                   "synthesized crash record must conserve");
    return out;
}

FleetResult
runFleet(const FleetConfig &config)
{
    unsigned n = std::max(1u, config.instances);

    // Fleet-wide open-loop schedule: N instances' worth of traffic.
    ServeConfig scaled = config.base;
    ArrivalSpec arrival = resolveArrival(scaled);
    arrival.ratePerSec *= n;
    arrival.requests *= n;
    fault::FaultPlan plan =
        fault::FaultPlan::fromSeed(scaled.env.faultSeed);
    std::vector<Ticks> fleet_schedule = generateArrivals(arrival, plan);

    // GC-aware routing needs adverts; produce them from a blind pass
    // of the identical instances (real adverts are always stale — the
    // balancer sees where pauses *were*, not where they will be; with
    // split seeds held fixed the blind pass is a faithful preview).
    FleetConfig effective = config;
    if (config.balancer == Balancer::Aware && config.adverts.empty()) {
        FleetConfig blind = config;
        blind.balancer = Balancer::Blind;
        blind.adverts.clear();
        FleetResult preview = runFleet(blind);
        effective.adverts.reserve(preview.instances.size());
        for (const ServeResult &inst : preview.instances)
            effective.adverts.push_back(inst.busyWindows);
    }

    // Per-instance configs with split seeds: same derivation order on
    // every path so --jobs 1 and --jobs N agree byte for byte. A
    // supervisor restart reuses its instance's split seeds — the
    // replacement is the same service, not a new tenant.
    std::vector<ServeConfig> configs;
    configs.reserve(n);
    std::uint64_t wstate = config.base.seed;
    std::uint64_t sstate = config.base.serveSeed;
    for (unsigned i = 0; i < n; ++i) {
        ServeConfig inst = config.base;
        inst.seed = splitMix64(wstate);
        inst.serveSeed = splitMix64(sstate);
        inst.invocation = i;
        inst.arrivalsExplicit = true;
        configs.push_back(std::move(inst));
    }

    FleetResult out;

    if (!config.supervised) {
        std::vector<std::vector<Ticks>> routed =
            routeArrivals(effective, fleet_schedule);
        for (unsigned i = 0; i < n; ++i)
            configs[i].explicitArrivals = std::move(routed[i]);
        out.instances = executeConfigs(configs, config);
    } else {
        FleetSupervisor supervisor(effective);
        FleetPlan fplan = supervisor.plan(fleet_schedule);

        // Flatten incarnations into the job list. Restart
        // incarnations that attracted no arrivals are skipped — they
        // would produce an all-zero row — but incarnation 0 always
        // runs so every instance yields a record.
        struct JobRef
        {
            unsigned instance;
            std::size_t resultSlot;
        };
        std::vector<JobRef> refs;
        std::vector<ServeConfig> jobs;
        for (unsigned i = 0; i < n; ++i) {
            for (const IncarnationPlan &inc : fplan.incarnations[i]) {
                if (inc.incarnation > 0 && inc.arrivals.empty())
                    continue;
                ServeConfig job = configs[i];
                job.explicitArrivals = inc.arrivals;
                job.crashAtNs = inc.crashAtNs;
                job.stallWindows = inc.stallWindows;
                refs.push_back({i, jobs.size()});
                jobs.push_back(std::move(job));
            }
        }
        std::vector<ServeResult> raw = executeConfigs(jobs, config);

        // Merge incarnations per instance: counters, histograms, and
        // escalations sum; the record keeps incarnation 0's metric
        // columns and gets its serve columns rewritten from the
        // merged counters plus the supervisor's plan.
        std::vector<ServeResult> merged(n);
        std::vector<bool> seeded(n, false);
        for (const JobRef &ref : refs) {
            ServeResult &r = raw[ref.resultSlot];
            ServeResult &m = merged[ref.instance];
            if (!seeded[ref.instance]) {
                m = std::move(r);
                seeded[ref.instance] = true;
                continue;
            }
            m.counters.add(r.counters);
            m.metered.merge(r.metered);
            m.simple.merge(r.simple);
            m.horizonNs = std::max(m.horizonNs, r.horizonNs);
            for (std::size_t l = 0; l < m.escalations.size(); ++l)
                m.escalations[l] += r.escalations[l];
            m.busyWindows.insert(m.busyWindows.end(),
                                 r.busyWindows.begin(),
                                 r.busyWindows.end());
            if (m.record.signature.empty())
                m.record.signature = r.record.signature;
        }
        for (unsigned i = 0; i < n; ++i) {
            ServeResult &m = merged[i];
            m.busyWindows = mergeBusyWindows(std::move(m.busyWindows));

            // Hedged-away attempts were notionally issued to this
            // (doomed) instance and cancelled when the peer won.
            m.counters.issued += fplan.hedgeExtra[i];
            m.counters.hedgeCancelled += fplan.hedgeExtra[i];

            lbo::RunRecord &r = m.record;
            const ServeCounters &c = m.counters;
            r.serveIssued = c.issued;
            r.serveCompleted = c.completed;
            r.serveShed = c.shedTotal();
            r.serveDeadline = c.deadlineTotal();
            r.serveRetries = c.retriesScheduled;
            r.serveRetryExhausted = c.retryExhausted;
            r.serveLost = c.lost;
            r.serveHedgeCancelled = c.hedgeCancelled;
            r.serveRestarts = fplan.restartsOf[i];
            r.serveFailovers = fplan.failoversOut[i];

            // Reclassify overload over the whole instance lifetime:
            // incarnation 0's verdict alone would overstate a crash
            // the supervisor recovered from. Real failure statuses
            // (oom/crash/...) stand.
            if (isServeStatus(r.status)) {
                r.status = "ok";
                r.failReason.clear();
                classifyServeStatus(r, c, config.base.policy);
            }
        }
        out.instances = std::move(merged);
        out.ledger = fplan.ledger;
        out.timelines = std::move(fplan.timelines);
        for (const ServeResult &inst : out.instances)
            out.ledger.lostAtCrash += inst.counters.lost;
    }

    for (const ServeResult &inst : out.instances) {
        out.counters.add(inst.counters);
        out.metered.merge(inst.metered);
        out.simple.merge(inst.simple);
        out.horizonNs = std::max(out.horizonNs, inst.horizonNs);
    }
    distill_assert(out.counters.conserves(),
                   "fleet attempt conservation violated");
    return out;
}

} // namespace distill::serve
