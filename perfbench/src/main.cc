/**
 * @file
 * perfbench: the benchmark of record for distill's host cost.
 *
 *   perfbench --workload grid-roomy|grid-tight|serve-fleet --seed N
 *             --seconds S --trace 0|1 [--smoke] [--describe TEXT]
 *             [--trace-file PATH]
 *
 * Drives the public library API the way distill_sweep and
 * distill_serve do: cold min-heap probing (the set-up), then timed
 * in-process rounds of a grid sweep plus LBO analysis, or of
 * supervised chaos fleets, with host times rescaled to reference
 * speed (calibrate.hh). Every round repeats the same seeded inputs, so
 * rows must match round to round byte for byte. --trace 0 reports the
 * end-to-end metrics; --trace 1 runs one pooled round, then one round
 * in-process under outside-in spans (spans.hh), and reports per-layer
 * metrics. The last stdout line is one JSON object; README.md explains
 * every number.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "base/host_timer.hh"
#include "base/logging.hh"
#include "base/rng.hh"
#include "calibrate.hh"
#include "fault/plan.hh"
#include "heap/layout.hh"
#include "lbo/analyzer.hh"
#include "lbo/cache_io.hh"
#include "lbo/report.hh"
#include "lbo/sweep.hh"
#include "serve/fleet.hh"
#include "spans.hh"
#include "wl/suite.hh"

extern char **environ;

namespace perfbench
{

namespace
{

using namespace distill;

/** Cold set-ups per untraced run; setup_s is their median. */
constexpr unsigned setupRepeats = 5;

/** Timed rounds per run, at least; the metrics are their medians. */
constexpr unsigned minRounds = 3;

/**
 * Kernel runs per calibration point (median) around units of a second
 * or so: set-up benchmarks and fleets. Grid cells take milliseconds
 * and calibrate with one run between them.
 */
constexpr unsigned longUnitSamples = 5;

/** Per-cell wall-clock watchdog: a hung cell fails, not the run. */
constexpr std::uint64_t cellWatchdogMs = 60'000;

/** Statuses that make an operation fail (OOM is a paper result). */
bool
failedStatus(const std::string &status)
{
    return status == "crash" || status == "hang" || status == "timeout" ||
        status == "oracle" || status == "error";
}

struct Options
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 0;
    bool trace = false;
    bool smoke = false;
    std::string describe = "unknown";
    std::string traceFile;
};

/** One benchmark workload: a grid sweep, or supervised fleets. */
struct Workload
{
    std::string name;
    std::vector<wl::WorkloadSpec> specs;
    std::vector<double> factors;
    std::vector<gc::CollectorKind> collectors = gc::productionCollectors();
    std::vector<heap::SizingPolicy> sizing = {heap::SizingPolicy::Fixed};
    bool fleet = false;
};

/** Fleet shape: distill_serve --chaos with the p2c balancer. */
constexpr unsigned fleetInstances = 4;

/**
 * Suite spec @p name allocating 1/@p divisor of its usual volume, so a
 * grid round takes seconds, not minutes. The divisor is part of the
 * workload definition; changing it redefines the benchmark.
 */
wl::WorkloadSpec
scaled(const char *name, unsigned divisor)
{
    wl::WorkloadSpec spec = wl::findSpec(name);
    spec.allocBytesPerThread /= divisor;
    return spec;
}

bool
makeWorkload(const std::string &name, bool smoke, Workload &w)
{
    unsigned shrink = smoke ? 16 : 1;
    w.name = name;
    if (name == "grid-roomy") {
        for (const char *bench :
             {"avrora", "jme", "h2", "pmd", "sunflow", "tomcat"})
            w.specs.push_back(scaled(bench, 8 * shrink));
        w.factors = {3.0, 4.4, 6.0};
    } else if (name == "grid-tight") {
        for (const char *bench : {"xalan", "lusearch", "h2"})
            w.specs.push_back(scaled(bench, 16 * shrink));
        w.factors = {1.4, 1.9};
        w.sizing = {heap::SizingPolicy::Fixed, heap::SizingPolicy::Adaptive,
                    heap::SizingPolicy::MemBalancer};
    } else if (name == "serve-fleet") {
        w.specs.push_back(scaled("lusearch", 4 * shrink));
        w.factors = {4.4};
        w.collectors = {gc::CollectorKind::G1, gc::CollectorKind::Shenandoah,
                        gc::CollectorKind::Zgc};
        w.fleet = true;
    } else {
        return false;
    }
    return true;
}

/** Seed stream @p stream of the benchmark seed (never 0). */
std::uint64_t
derivedSeed(std::uint64_t seed, std::uint64_t stream)
{
    std::uint64_t state = seed ^ (stream * 0x9e3779b97f4a7c15ULL);
    std::uint64_t out = splitMix64(state);
    return out == 0 ? 1 : out;
}

/** A row as compared across runs: notes are host-timing metadata. */
std::string
canonicalRow(const lbo::RunRecord &row)
{
    lbo::RunRecord copy = row;
    copy.notes.clear();
    return copy.toCsv();
}

/** toCsv -> fromCsv -> toCsv must reproduce the row. */
bool
roundTrips(const lbo::RunRecord &row)
{
    std::string line = row.toCsv();
    lbo::RunRecord parsed;
    return lbo::RunRecord::fromCsv(line, parsed) && parsed.toCsv() == line;
}

/** Run @p fn inside a span when tracing, else plainly. */
void
within(Tracer *tracer, const char *name, const std::function<void()> &fn)
{
    if (tracer != nullptr)
        tracer->span(name, fn);
    else
        fn();
}

/**
 * Cold min-heap measurement of every spec (the set-up users pay on a
 * cold cache), @p jobs at a time as SweepRunner::runPooled does.
 */
std::vector<wl::WorkloadSpec>
measureMinHeaps(const Workload &w, unsigned jobs)
{
    lbo::MinHeapFinder finder;
    lbo::Environment env;
    finder.measureAll(w.specs, env, jobs);
    std::vector<wl::WorkloadSpec> out;
    for (const wl::WorkloadSpec &spec : w.specs) {
        wl::WorkloadSpec copy = spec;
        copy.minHeapBytes = finder.minHeap(spec, env);
        out.push_back(copy);
    }
    return out;
}

/**
 * Cold min-heap probing one spec at a time, in-process, with a fresh
 * finder, calibrating between specs; @p seconds gets the set-up's
 * reference seconds.
 */
std::vector<wl::WorkloadSpec>
probeMinHeaps(const Workload &w, double &seconds)
{
    lbo::MinHeapFinder finder;
    lbo::Environment env;
    std::vector<wl::WorkloadSpec> out;
    CalibratedClock clock(longUnitSamples);
    for (const wl::WorkloadSpec &spec : w.specs) {
        wl::WorkloadSpec copy = spec;
        copy.minHeapBytes = finder.minHeap(spec, env);
        clock.lap();
        out.push_back(copy);
    }
    seconds = clock.reference();
    return out;
}

/** What one round produced. */
struct Round
{
    std::vector<lbo::RunRecord> rows;
    std::size_t rowsPerOp = 1;     //!< grid: a cell; fleet: instances
    std::vector<bool> opFailed;    //!< status/conservation verdicts
    double seconds = 0;            //!< whole round, host
    double workSeconds = 0;        //!< sweep or fleets only
    double raw = 0;                //!< calibrated rounds: work, host s
    double reference = 0;          //!< the same in reference seconds
    std::vector<double> completions; //!< onRecord times (grid)
    std::uint64_t resolved = 0;    //!< serve requests resolved
    std::uint64_t issued = 0;
    std::uint64_t completed = 0;
    std::uint64_t lost = 0;
    std::uint64_t failovers = 0;
    std::uint64_t restarts = 0;
    bool analysisOk = true;
};

/**
 * Table VI/VII-style LBO analysis (plus the sizing Pareto view when
 * the grid sweeps policies). Checks the LBO invariants: every
 * benchmark has a positive ideal-cost estimate, and every
 * configuration that ran has LBO >= 1 (it bounds the ideal from
 * above by construction).
 */
bool
analyze(const Workload &w, const std::vector<wl::WorkloadSpec> &specs,
        const std::vector<lbo::RunRecord> &rows)
{
    lbo::LboAnalyzer analyzer(rows);
    const metrics::Metric metricsUsed[] = {metrics::Metric::WallTime,
                                           metrics::Metric::Cycles};
    for (metrics::Metric metric : metricsUsed) {
        lbo::printHeapSweepTable(
            analyzer, specs, w.factors, w.collectors, metric,
            lbo::Attribution::GcThreads,
            std::string(w.name) + ": LBO " +
                (metric == metrics::Metric::WallTime ? "time" : "cycles"),
            /*stw_percent=*/false);
    }
    if (w.sizing.size() > 1) {
        std::vector<std::string> policies;
        for (heap::SizingPolicy policy : w.sizing)
            policies.push_back(heap::sizingPolicyName(policy));
        for (double factor : w.factors) {
            lbo::printSizingParetoTable(
                analyzer, specs, factor, w.collectors, policies,
                w.name + ": sizing Pareto view");
        }
    }
    bool ok = true;
    for (const wl::WorkloadSpec &spec : specs) {
        for (metrics::Metric metric : metricsUsed) {
            if (!(analyzer.idealEstimate(spec.name, metric,
                                         lbo::Attribution::GcThreads) > 0))
                ok = false;
            for (gc::CollectorKind collector : w.collectors) {
                for (double factor : w.factors) {
                    for (heap::SizingPolicy policy : w.sizing) {
                        const char *sizing = heap::sizingPolicyName(policy);
                        const char *gc = gc::collectorName(collector);
                        if (!analyzer.ran(spec.name, gc, factor, sizing))
                            continue;
                        lbo::LboAnalyzer::Value v = analyzer.lbo(
                            spec.name, gc, factor, metric,
                            lbo::Attribution::GcThreads, sizing);
                        if (!v.valid || !(v.mean >= 1.0 - 1e-9))
                            ok = false;
                    }
                }
            }
        }
    }
    return ok;
}

/**
 * A calibrated round times each unit of work apart (a grid cell, from
 * the end of the previous one; the analysis; a fleet) and calibrates
 * between units; only in-process rounds are calibrated.
 */
Round
runGridRound(const Workload &w, const std::vector<wl::WorkloadSpec> &specs,
             std::uint64_t seed, unsigned jobs, Tracer *tracer,
             bool calibrate)
{
    Round round;
    lbo::SweepConfig config;
    config.benchmarks = specs;
    config.heapFactors = w.factors;
    config.collectors = w.collectors;
    config.sizingPolicies = w.sizing;
    config.includeEpsilon = true;
    config.invocations = 1;
    config.baseSeed = derivedSeed(seed, 1);
    config.jobs = jobs;
    config.watchdogMs = jobs > 1 ? cellWatchdogMs : 0;
    std::optional<CalibratedClock> units;
    if (calibrate)
        units.emplace();
    HostTimer clock;
    config.onRecord = [&](const lbo::RunRecord &) {
        round.completions.push_back(clock.elapsedSec());
        if (units)
            units->lap();
    };
    lbo::SweepRunner runner;
    within(tracer, "lbo.sweep", [&] { round.rows = runner.run(config); });
    round.workSeconds = clock.elapsedSec();
    within(tracer, "lbo.analyze",
           [&] { round.analysisOk = analyze(w, specs, round.rows); });
    std::fflush(stdout);
    if (units) {
        units->lap();
        round.raw = units->raw();
        round.reference = units->reference();
    }
    round.seconds = clock.elapsedSec();
    for (const lbo::RunRecord &row : round.rows)
        round.opFailed.push_back(failedStatus(row.status));
    return round;
}

Round
runFleetRound(const Workload &w, const std::vector<wl::WorkloadSpec> &specs,
              std::uint64_t seed, Tracer *tracer, bool calibrate)
{
    Round round;
    round.rowsPerOp = fleetInstances;
    const wl::WorkloadSpec &spec = specs.front();
    double factor = w.factors.front();
    std::optional<CalibratedClock> units;
    if (calibrate)
        units.emplace(longUnitSamples);
    HostTimer clock;
    for (gc::CollectorKind collector : w.collectors) {
        serve::FleetConfig fc;
        fc.base.spec = spec;
        fc.base.collector = collector;
        fc.base.heapFactor = factor;
        fc.base.heapBytes = roundUp(
            static_cast<std::uint64_t>(
                factor * static_cast<double>(spec.minHeapBytes)),
            heap::regionSize);
        fc.base.seed = derivedSeed(seed, 2);
        fc.base.serveSeed = derivedSeed(seed, 3);
        // The canonical chaos plan of distill_serve --chaos: entropy 0
        // selects the crash + stall mix.
        fc.base.env.faultSeed = fault::FaultPlan::chaosSeed(0);
        fc.instances = fleetInstances;
        fc.balancer = serve::Balancer::P2c;
        fc.jobs = 1;
        fc.supervised = true;
        serve::FleetResult fr;
        within(tracer, "serve.fleet", [&] { fr = serve::runFleet(fc); });
        if (units)
            units->lap();
        const serve::ServeCounters &c = fr.counters;
        bool failed = !c.conserves();
        for (const serve::ServeResult &inst : fr.instances) {
            round.rows.push_back(inst.record);
            failed = failed || failedStatus(inst.record.status) ||
                !inst.counters.conserves();
        }
        round.opFailed.push_back(failed);
        round.resolved += c.completed + c.shedTotal() + c.deadlineTotal() +
            c.lost + c.hedgeCancelled;
        round.issued += c.issued;
        round.completed += c.completed;
        round.lost += c.lost;
        round.failovers += fr.ledger.failovers;
        round.restarts += fr.ledger.restarts;
    }
    round.workSeconds = clock.elapsedSec();
    round.seconds = round.workSeconds;
    if (units) {
        round.raw = units->raw();
        round.reference = units->reference();
    }
    return round;
}

Round
runRound(const Workload &w, const std::vector<wl::WorkloadSpec> &specs,
         std::uint64_t seed, unsigned jobs, Tracer *tracer,
         bool calibrate = false)
{
    return w.fleet ? runFleetRound(w, specs, seed, tracer, calibrate)
                   : runGridRound(w, specs, seed, jobs, tracer, calibrate);
}

/** Operation accounting over every round of a run. */
struct Tally
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    /**
     * Count @p round's operations; an operation fails on its own
     * verdict, a CSV round-trip mismatch, or a row that differs from
     * @p reference (the first round's canonical rows).
     */
    void
    add(const Round &round, const std::vector<std::string> &reference)
    {
        bool sameShape = round.rows.size() == reference.size();
        for (std::size_t op = 0; op < round.opFailed.size(); ++op) {
            bool bad = round.opFailed[op] || !sameShape;
            for (std::size_t i = op * round.rowsPerOp;
                 sameShape && i < (op + 1) * round.rowsPerOp; ++i) {
                const lbo::RunRecord &row = round.rows[i];
                bad = bad || !roundTrips(row) ||
                    canonicalRow(row) != reference[i];
            }
            ++attempted;
            if (bad)
                ++failed;
        }
    }
};

std::vector<std::string>
canonicalRows(const Round &round)
{
    std::vector<std::string> out;
    for (const lbo::RunRecord &row : round.rows)
        out.push_back(canonicalRow(row));
    return out;
}

double
simGcycles(const Round &round)
{
    double cycles = 0;
    for (const lbo::RunRecord &row : round.rows)
        cycles += row.cycles;
    return cycles * 1e-9;
}

/** Peak RSS of this process and of its largest reaped child, MiB. */
double
peakRssMib()
{
    rusage self{};
    rusage children{};
    getrusage(RUSAGE_SELF, &self);
    getrusage(RUSAGE_CHILDREN, &children);
    return static_cast<double>(std::max(self.ru_maxrss, children.ru_maxrss)) /
        1024.0;
}

/** The metrics object, in declaration order. */
class MetricSet
{
  public:
    void
    add(const std::string &name, double value, const char *unit)
    {
        // JSON has no NaN/inf; a non-finite value is a benchmark bug.
        if (!std::isfinite(value)) {
            warn("metric %s is not finite", name.c_str());
            finite_ = false;
            value = 0;
        }
        entries_.push_back({name, value, unit});
    }

    bool finite() const { return finite_; }

    std::string
    json() const
    {
        std::string out = "{";
        for (std::size_t i = 0; i < entries_.size(); ++i) {
            const Entry &e = entries_[i];
            out += strprintf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                             i == 0 ? "" : ", ", e.name.c_str(), e.value,
                             e.unit);
        }
        return out + "}";
    }

    void
    print() const
    {
        for (const Entry &e : entries_)
            std::printf("perfbench: %-32s %.6g %s\n", e.name.c_str(), e.value,
                        e.unit);
    }

  private:
    struct Entry
    {
        std::string name;
        double value;
        const char *unit;
    };
    std::vector<Entry> entries_;
    bool finite_ = true;
};

/** Per-layer metrics from a traced round and its untraced twins. */
void
layerMetrics(const Workload &w, unsigned jobs, const Tracer &tracer,
             Interval setup, Interval traced, const Round &tracedRound,
             const Round &pooled, const Round &sameJobs, MetricSet &out)
{
    std::vector<const Life *> probes = livesWithin(tracer.lives(), setup);
    std::vector<const Life *> lives = livesWithin(tracer.lives(), traced);
    double life = 0;
    double stw = 0;
    std::uint64_t pauses = 0;
    std::uint64_t objects = 0;
    std::uint64_t dispatches = 0;
    std::uint64_t satb = 0;
    std::uint64_t lvbSlow = 0;
    std::vector<Interval> lifeSpans;
    for (const Life *l : lives) {
        life += l->span.end - l->span.begin;
        stw += l->stwSec;
        pauses += l->pauses;
        objects += l->objectsAllocated;
        dispatches += l->dispatches;
        satb += l->satbEnqueues;
        lvbSlow += l->loadBarrierSlowPaths;
        lifeSpans.push_back(l->span);
    }
    double sweep = 0;
    double betweenCells = 0;
    double analyzeSec = 0;
    double fleet = 0;
    double fleetSelf = 0;
    for (const Span &span : tracer.spans()) {
        if (span.at.begin < traced.begin || span.at.end > traced.end)
            continue;
        double len = span.at.end - span.at.begin;
        if (span.name == "lbo.sweep") {
            sweep += len;
            betweenCells += selfTime(span.at, lifeSpans);
        } else if (span.name == "lbo.analyze") {
            analyzeSec += len;
        } else if (span.name == "serve.fleet") {
            fleet += len;
            fleetSelf += selfTime(span.at, lifeSpans);
        }
    }

    HostTimer roundtripClock;
    lbo::RunRecord parsed;
    for (const lbo::RunRecord &row : tracedRound.rows)
        lbo::RunRecord::fromCsv(row.toCsv(), parsed);
    double roundtrip = roundtripClock.elapsedSec();

    double mark = 0, evac = 0, updateRefs = 0, relocate = 0, compact = 0,
           stealSpin = 0, stallNs = 0, allocBytes = 0, degenerated = 0,
           decisions = 0, attempts = 0, hits = 0, peak = 0;
    for (const lbo::RunRecord &r : tracedRound.rows) {
        mark += r.markCycles;
        evac += r.evacCycles;
        updateRefs += r.updateRefsCycles;
        relocate += r.relocateCycles;
        compact += r.compactCycles;
        stealSpin += r.stealSpinCycles;
        stallNs += r.allocStallNs;
        allocBytes += static_cast<double>(r.bytesAllocated);
        degenerated += static_cast<double>(r.degeneratedGcs);
        decisions += static_cast<double>(r.sizingGrows + r.sizingShrinks);
        attempts += static_cast<double>(r.stealAttempts);
        hits += static_cast<double>(r.stealHits);
        peak = std::max(peak, static_cast<double>(r.peakCommittedBytes));
    }

    out.add("lbo.min_heap.s", setup.end - setup.begin, "s");
    out.add("lbo.min_heap.probes", static_cast<double>(probes.size()),
            "count");
    out.add("lbo.sweep.between_cells.s", betweenCells, "s");
    // The pool ratios have no meaning where the pool is bypassed.
    out.add("lbo.pool.jobs", w.fleet ? 0 : jobs, "count");
    out.add("lbo.pool.speedup", w.fleet ? 0 : ratio(sweep, pooled.workSeconds),
            "ratio");
    out.add("lbo.pool.drain.s",
            w.fleet ? 0 : drainTail(pooled.completions, jobs), "s");
    out.add("lbo.record.roundtrip.s", roundtrip, "s");
    out.add("lbo.analyze.s", analyzeSec, "s");
    out.add("rt.runtimes", static_cast<double>(lives.size()), "count");
    out.add("rt.life.s", life, "s");
    out.add("rt.mutator.s", life - stw, "s");
    out.add("rt.mutator.ns_per_alloc",
            ratio((life - stw) * 1e9, static_cast<double>(objects)), "ns");
    out.add("sim.dispatches", static_cast<double>(dispatches), "count");
    out.add("sim.host_ns_per_dispatch",
            ratio(life * 1e9, static_cast<double>(dispatches)), "ns");
    out.add("gc.stw.s", stw, "s");
    out.add("gc.stw.share", ratio(stw, life), "ratio");
    out.add("gc.pauses", static_cast<double>(pauses), "count");
    out.add("gc.stw.ns_per_pause",
            ratio(stw * 1e9, static_cast<double>(pauses)), "ns");
    out.add("gc.phase.mark.gcycles", mark * 1e-9, "Gcycles");
    out.add("gc.phase.evacuate.gcycles", evac * 1e-9, "Gcycles");
    out.add("gc.phase.update_refs.gcycles", updateRefs * 1e-9, "Gcycles");
    out.add("gc.phase.relocate.gcycles", relocate * 1e-9, "Gcycles");
    out.add("gc.phase.compact.gcycles", compact * 1e-9, "Gcycles");
    out.add("gc.phase.steal_spin.gcycles", stealSpin * 1e-9, "Gcycles");
    out.add("gc.steal.attempts", attempts, "count");
    out.add("gc.steal.hit_ratio", ratio(hits, attempts), "ratio");
    out.add("gc.degenerated", degenerated, "count");
    out.add("gc.satb_enqueues", static_cast<double>(satb), "count");
    out.add("gc.load_barrier_slow_paths", static_cast<double>(lvbSlow),
            "count");
    out.add("heap.sizing.decisions", decisions, "count");
    out.add("heap.peak_committed.mib", peak / static_cast<double>(MiB),
            "MiB");
    out.add("heap.alloc_stall.ms", stallNs * 1e-6, "ms");
    out.add("wl.objects_allocated", static_cast<double>(objects), "count");
    out.add("wl.alloc.gib", allocBytes / static_cast<double>(GiB), "GiB");
    out.add("serve.issued", static_cast<double>(tracedRound.issued), "count");
    out.add("serve.completed_ratio",
            ratio(static_cast<double>(tracedRound.completed),
                  static_cast<double>(tracedRound.issued)),
            "ratio");
    out.add("serve.lost", static_cast<double>(tracedRound.lost), "count");
    out.add("serve.failovers", static_cast<double>(tracedRound.failovers),
            "count");
    out.add("serve.restarts", static_cast<double>(tracedRound.restarts),
            "count");
    out.add("serve.fleet.s", fleet, "s");
    out.add("serve.fleet.self.s", fleetSelf, "s");
    out.add("serve.reqs_per_s",
            ratio(static_cast<double>(sameJobs.resolved), sameJobs.seconds),
            "1/s");
    out.add("trace.overhead_frac",
            ratio(tracedRound.seconds, sameJobs.seconds) - 1.0,
            "ratio");
}

/** Names of cache files a hermetic run must never see. */
bool
cacheFilesPresent()
{
    std::error_code ec;
    for (const auto &entry :
         std::filesystem::directory_iterator(lbo::detail::cacheDir(), ec)) {
        std::string name = entry.path().filename().string();
        if (name.rfind("distill_runs_v", 0) == 0 ||
            name.rfind("distill_minheap_v", 0) == 0)
            return true;
    }
    return false;
}

/**
 * Hermetic environment: caching off, no oracle/validator/fault hooks,
 * no invocation override, no debug watches.
 */
void
hermeticEnvironment()
{
    std::vector<std::string> drop = {"DISTILL_ORACLE", "DISTILL_VALIDATE",
                                     "DISTILL_FAULT_PAUSE",
                                     "DISTILL_INVOCATIONS"};
    for (char **e = environ; *e != nullptr; ++e) {
        std::string entry = *e;
        if (entry.rfind("DISTILL_WATCH", 0) == 0)
            drop.push_back(entry.substr(0, entry.find('=')));
    }
    for (const std::string &name : drop)
        unsetenv(name.c_str());
    setenv("DISTILL_NO_CACHE", "1", 1);
}

[[noreturn]] void
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench --workload grid-roomy|grid-tight|"
                 "serve-fleet --seed N --seconds S --trace 0|1\n"
                 "                 [--smoke] [--describe TEXT] "
                 "[--trace-file PATH]\n");
    std::exit(2);
}

Options
parseOptions(int argc, char **argv)
{
    Options o;
    bool haveSeed = false;
    bool haveSeconds = false;
    bool haveTrace = false;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage();
            return argv[++i];
        };
        char *end = nullptr;
        if (a == "--workload") {
            o.workload = value();
        } else if (a == "--seed") {
            std::string v = value();
            o.seed = std::strtoull(v.c_str(), &end, 10);
            haveSeed = !v.empty() && *end == '\0';
        } else if (a == "--seconds") {
            std::string v = value();
            o.seconds = std::strtod(v.c_str(), &end);
            haveSeconds = !v.empty() && *end == '\0' && o.seconds > 0 &&
                o.seconds <= 600;
        } else if (a == "--trace") {
            std::string v = value();
            haveTrace = v == "0" || v == "1";
            o.trace = v == "1";
        } else if (a == "--smoke") {
            o.smoke = true;
        } else if (a == "--describe") {
            o.describe = value();
        } else if (a == "--trace-file") {
            o.traceFile = value();
        } else {
            usage();
        }
    }
    if (o.workload.empty() || !haveSeed || !haveSeconds || !haveTrace)
        usage();
    return o;
}

std::string
provenance(const Options &o, unsigned jobs)
{
    return strprintf(
        "{\"describe\": \"%s\", \"compiler\": \"%s\", \"build_type\": "
        "\"%s\", \"flags\": \"%s\", \"nproc\": %u, \"jobs\": %u, "
        "\"workload\": \"%s\", \"seed\": %llu, \"cache_epoch\": %d, "
        "\"smoke\": %s}",
        o.describe.c_str(), PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE,
        PERFBENCH_FLAGS, std::thread::hardware_concurrency(), jobs,
        o.workload.c_str(), static_cast<unsigned long long>(o.seed),
        lbo::detail::cacheEpoch, o.smoke ? "true" : "false");
}

int
run(int argc, char **argv)
{
    Options o = parseOptions(argc, argv);
    Workload w;
    if (!makeWorkload(o.workload, o.smoke, w)) {
        std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                     o.workload.c_str());
        return 2;
    }
    hermeticEnvironment();
    setVerbose(false);
    if (lbo::detail::cacheEnabledFromEnv() || cacheFilesPresent()) {
        std::fprintf(stderr,
                     "perfbench: cache dir %s holds distill caches or "
                     "caching is on; refusing to measure a warm cache\n",
                     lbo::detail::cacheDir().c_str());
        return 3;
    }
    unsigned hw = std::max(1u, std::thread::hardware_concurrency());
    unsigned jobs = w.fleet ? 1 : std::min(4u, hw);
    // Untraced runs are one process; only the traced run's pool round
    // uses jobs > 1.
    std::printf("perfbench: provenance %s\n",
                provenance(o, o.trace ? jobs : 1).c_str());

    MetricSet metrics;
    Tally tally;
    bool correct = true;
    std::vector<wl::WorkloadSpec> specs;
    if (!o.trace) {
        std::vector<double> setups;
        for (unsigned i = 0; i < setupRepeats; ++i) {
            setups.emplace_back();
            std::vector<wl::WorkloadSpec> measured =
                probeMinHeaps(w, setups.back());
            for (std::size_t s = 0; s < measured.size() && i > 0; ++s)
                correct = correct &&
                    measured[s].minHeapBytes == specs[s].minHeapBytes;
            specs = measured;
        }
        std::vector<Round> rounds;
        std::vector<std::string> reference;
        HostTimer timed;
        while (rounds.size() < minRounds || timed.elapsedSec() < o.seconds) {
            rounds.push_back(runRound(w, specs, o.seed, 1, nullptr, true));
            if (reference.empty())
                reference = canonicalRows(rounds.back());
            tally.add(rounds.back(), reference);
            correct = correct && rounds.back().analysisOk;
        }
        // Every round does the same work: the rates divide it by the
        // median round time, in reference seconds (calibrate.hh).
        const Round &first = rounds.front();
        std::vector<double> refs, raws;
        for (const Round &r : rounds) {
            refs.push_back(r.reference);
            raws.push_back(r.raw);
        }
        double perRound = medianOf(refs);
        std::printf("perfbench: %zu rounds of %zu rows in %.2f s; median "
                    "round %.4g reference s, %.4g host s; reference s per "
                    "round:",
                    rounds.size(), first.rows.size(), timed.elapsedSec(),
                    perRound, medianOf(raws));
        for (double t : refs)
            std::printf(" %.4g", t);
        std::printf("\n");
        if (w.fleet)
            std::printf("perfbench: serve_reqs_per_s %.6g 1/s\n",
                        static_cast<double>(first.resolved) / perRound);
        metrics.add("cells_per_s",
                    static_cast<double>(first.rows.size()) / perRound, "1/s");
        metrics.add("sim_gcycles_per_s", simGcycles(first) / perRound,
                    "Gcycles/s");
        metrics.add("setup_s", medianOf(setups), "s");
        metrics.add("peak_rss_mib", peakRssMib(), "MiB");
    } else {
        specs = measureMinHeaps(w, jobs);
        // Untraced twins: the pooled round is the row reference and the
        // pool baseline; the jobs-1 round is the overhead baseline.
        Round pooled = runRound(w, specs, o.seed, jobs, nullptr);
        std::vector<std::string> reference = canonicalRows(pooled);
        tally.add(pooled, reference);
        Round sameJobs = pooled;
        if (jobs > 1) {
            sameJobs = runRound(w, specs, o.seed, 1, nullptr);
            tally.add(sameJobs, reference);
        }
        Tracer tracer;
        std::vector<wl::WorkloadSpec> probed;
        Interval setup = tracer.span(
            "lbo.min_heap", [&] { probed = measureMinHeaps(w, 1); });
        for (std::size_t s = 0; s < probed.size(); ++s)
            correct = correct && probed[s].minHeapBytes == specs[s].minHeapBytes;
        Round traced;
        Interval tracedAt = tracer.span("round", [&] {
            traced = runRound(w, specs, o.seed, 1, &tracer);
        });
        tally.add(traced, reference);
        correct = correct && pooled.analysisOk && sameJobs.analysisOk &&
            traced.analysisOk;
        layerMetrics(w, jobs, tracer, setup, tracedAt, traced, pooled,
                     sameJobs, metrics);
        if (!o.traceFile.empty()) {
            std::ofstream out(o.traceFile);
            out << tracer.chromeTrace();
            if (!out)
                warn("cannot write %s", o.traceFile.c_str());
        }
    }
    if (cacheFilesPresent()) {
        std::fprintf(stderr, "perfbench: a distill cache appeared in %s\n",
                     lbo::detail::cacheDir().c_str());
        return 3;
    }
    correct = correct && tally.failed == 0 && metrics.finite();
    metrics.print();
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": %s}\n",
                correct ? "true" : "false",
                static_cast<unsigned long long>(tally.attempted),
                static_cast<unsigned long long>(tally.failed),
                metrics.json().c_str());
    return 0;
}

} // namespace

} // namespace perfbench

int
main(int argc, char **argv)
{
    return perfbench::run(argc, argv);
}
