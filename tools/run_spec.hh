/**
 * @file
 * One definition of a single run on the command line, shared by the
 * tools: the "--key value" / "--key=value" tokenizer, the flags that
 * name and replay one run (RunSpec), the one-line REPRO command that
 * emits them, and the wall-clock watchdog a replay arms.
 *
 * A REPRO line is RunSpec::flags() behind a binary name, and every
 * single-run tool parses it back through RunSpec::parse(), so a new
 * replay-relevant knob is one field here and appears on every REPRO
 * line and in every tool that accepts the flag group.
 */

#ifndef DISTILL_TOOLS_RUN_SPEC_HH
#define DISTILL_TOOLS_RUN_SPEC_HH

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "base/logging.hh"
#include "cli_parse.hh"
#include "diag/crash_handler.hh"
#include "heap/sizing.hh"
#include "lbo/record.hh"
#include "lbo/run.hh"
#include "wl/spec.hh"

namespace distill::cli
{

/**
 * A tokenized command line. "--key=value" splits into "--key"
 * "value", so printed REPRO lines paste back in either form.
 */
class Args
{
  public:
    /** @param usage Prints usage and exits; called on a missing value. */
    Args(int argc, char **argv, void (*usage)()) : usage_(usage)
    {
        for (int i = 1; i < argc; ++i) {
            std::string a = argv[i];
            std::size_t eq = a.find('=');
            if (a.size() > 2 && a[0] == '-' && a[1] == '-' &&
                eq != std::string::npos) {
                tokens_.push_back(a.substr(0, eq));
                tokens_.push_back(a.substr(eq + 1));
            } else {
                tokens_.push_back(a);
            }
        }
    }

    bool done() const { return pos_ >= tokens_.size(); }

    /** The next token, unconsumed (a positional argument). */
    const std::string &peek() const { return tokens_[pos_]; }

    /** Consume and return the next token. */
    std::string next() { return tokens_[pos_++]; }

    /** Consume the bare switch @p name if it is next. */
    bool
    flag(const char *name)
    {
        if (done() || tokens_[pos_] != name)
            return false;
        ++pos_;
        return true;
    }

    /**
     * Consume "@p name value" if @p name is next, keeping the value
     * for value(); usage() when the value is missing.
     */
    bool
    option(const char *name)
    {
        if (done() || tokens_[pos_] != name)
            return false;
        if (pos_ + 1 >= tokens_.size())
            usage_();
        value_ = tokens_[pos_ + 1];
        pos_ += 2;
        return true;
    }

    /** The value of the last option() matched. */
    const std::string &value() const { return value_; }

  private:
    std::vector<std::string> tokens_;
    std::size_t pos_ = 0;
    std::string value_;
    void (*usage_)();
};

/** Split a comma-separated flag value, dropping empty items. */
inline std::vector<std::string>
splitList(const std::string &text)
{
    std::vector<std::string> out;
    std::size_t start = 0;
    while (start <= text.size()) {
        std::size_t comma = text.find(',', start);
        if (comma == std::string::npos)
            comma = text.size();
        if (comma > start)
            out.push_back(text.substr(start, comma - start));
        start = comma + 1;
    }
    return out;
}

/** Append " --flag value" when @p value differs from @p skip_if. */
inline void
appendFlag(std::string &line, const char *flag, std::uint64_t value,
           std::uint64_t skip_if = 0)
{
    if (value != skip_if) {
        line += strprintf(" %s %llu", flag,
                          static_cast<unsigned long long>(value));
    }
}

/**
 * The flags that identify and replay one run. Defaults are the
 * single-run tools' defaults; zero means "not given" for the heap
 * overrides, seeds, virtual-time limit and watchdog.
 */
struct RunSpec
{
    /** Flag groups; a tool accepts the groups it can honour. */
    enum Group : unsigned
    {
        /** --bench --gc|--collector --heap-factor --heap-mib
         *  --heap-bytes|--heap --seed */
        Identity = 1u << 0,
        Sizing = 1u << 1,         //!< --sizing
        Seeds = 1u << 2,          //!< --sched-seed --fault-plan
        VirtualTime = 1u << 3,    //!< --max-virtual-time
        Watchdog = 1u << 4,       //!< --watchdog-ms
        AllGroups = (1u << 5) - 1,
    };

    std::string bench = "h2";
    std::string collector = "G1";
    double heapFactor = 3.0;
    std::uint64_t heapMib = 0;
    std::uint64_t heapBytes = 0;
    std::uint64_t seed = 0xD15711;
    heap::SizingPolicy sizing = heap::SizingPolicy::Fixed;
    std::uint64_t schedSeed = 0;
    std::uint64_t faultPlan = 0;
    std::uint64_t maxVirtualTime = 0; //!< 0 = the machine default
    std::uint64_t watchdogMs = 0;

    bool operator==(const RunSpec &) const = default;

    /** Usage lines for the flags in @p groups, one group a line. */
    static std::string
    usage(unsigned groups = AllGroups)
    {
        std::string text;
        if (groups & Identity)
            text += "    --bench <name> --gc <collector> [--seed S]\n"
                    "    [--heap-factor F | --heap-mib N | --heap-bytes N]\n";
        if (groups & Sizing)
            text += "    [--sizing fixed|adaptive|membalancer]\n";
        if (groups & Seeds)
            text += "    [--sched-seed S] [--fault-plan P]\n";
        if (groups & VirtualTime)
            text += "    [--max-virtual-time NS]\n";
        if (groups & Watchdog)
            text += "    [--watchdog-ms MS]\n";
        return text;
    }

    /**
     * Consume the next flag of @p args if it belongs to one of the
     * @p groups; malformed values are fatal at the flag.
     */
    bool
    parse(Args &args, unsigned groups = AllGroups)
    {
        auto in = [groups](Group g) { return (groups & g) != 0; };
        bool id = in(Identity);
        if (id && args.option("--bench")) {
            bench = args.value();
        } else if (id &&
                   (args.option("--gc") || args.option("--collector"))) {
            collector = args.value();
        } else if (id && args.option("--heap-factor")) {
            heapFactor = parsePositiveDouble("--heap-factor", args.value());
        } else if (id && args.option("--heap-mib")) {
            heapMib = parseCount("--heap-mib", args.value());
        } else if (id &&
                   (args.option("--heap-bytes") || args.option("--heap"))) {
            heapBytes = parseCount("--heap-bytes", args.value());
        } else if (id && args.option("--seed")) {
            seed = parseU64("--seed", args.value());
        } else if (in(Sizing) && args.option("--sizing")) {
            if (!heap::sizingPolicyFromName(args.value(), sizing))
                fatal("unknown --sizing policy: %s (expected fixed, "
                      "adaptive, or membalancer)",
                      args.value().c_str());
        } else if (in(Seeds) && args.option("--sched-seed")) {
            schedSeed = parseU64("--sched-seed", args.value());
        } else if (in(Seeds) && args.option("--fault-plan")) {
            faultPlan = parseU64("--fault-plan", args.value());
        } else if (in(VirtualTime) && args.option("--max-virtual-time")) {
            maxVirtualTime = parseCount("--max-virtual-time", args.value());
        } else if (in(Watchdog) && args.option("--watchdog-ms")) {
            watchdogMs = parseCount("--watchdog-ms", args.value());
        } else {
            return false;
        }
        return true;
    }

    /**
     * The flags that replay this spec, "--key value" each. Bench,
     * collector and seed are always written; every other flag only
     * when it differs from its default, so parse(flags()) == *this.
     */
    std::string
    flags() const
    {
        std::string line = strprintf("--bench %s --gc %s", bench.c_str(),
                                     collector.c_str());
        if (heapFactor != RunSpec{}.heapFactor)
            line += strprintf(" --heap-factor %.17g", heapFactor);
        appendFlag(line, "--heap-mib", heapMib);
        appendFlag(line, "--heap-bytes", heapBytes);
        line += strprintf(" --seed %llu",
                          static_cast<unsigned long long>(seed));
        appendFlag(line, "--sched-seed", schedSeed);
        appendFlag(line, "--fault-plan", faultPlan);
        if (sizing != heap::SizingPolicy::Fixed)
            line += strprintf(" --sizing %s",
                              heap::sizingPolicyName(sizing));
        appendFlag(line, "--max-virtual-time", maxVirtualTime);
        appendFlag(line, "--watchdog-ms", watchdogMs);
        return line;
    }

    /** The run environment the seeds, limit and sizing select. */
    lbo::Environment
    environment() const
    {
        lbo::Environment env;
        env.schedSeed = schedSeed;
        env.faultSeed = faultPlan;
        env.sizingPolicy = sizing;
        if (maxVirtualTime > 0)
            env.machine.maxVirtualTime = maxVirtualTime;
        return env;
    }

    /**
     * The configured heap: --heap-bytes, else --heap-mib, else
     * --heap-factor times @p spec's measured min heap.
     */
    std::uint64_t
    resolveHeapBytes(const wl::WorkloadSpec &spec) const
    {
        if (heapBytes > 0)
            return heapBytes;
        if (heapMib > 0)
            return heapMib * MiB;
        return lbo::heapBytesAt(spec, heapFactor);
    }

    /**
     * With --watchdog-ms, arm forensics for a replayed hang or crash:
     * the run dies with a sidecar report at @p sidecar and
     * "status=hang" on stdout (exit 124) instead of taking the shell
     * hostage.
     */
    void
    armWatchdog(const char *sidecar) const
    {
        if (watchdogMs == 0)
            return;
        std::fflush(stdout);
        diag::setSidecarPath(sidecar);
        diag::installCrashHandlers();
        diag::armWallClockWatchdog(watchdogMs);
    }
};

/**
 * The spec that replays sweep row @p r: its identity and seeds from
 * the row, the virtual-time limit and watchdog (sweep-wide, not
 * recorded per cell) from @p sweep.
 */
inline RunSpec
replaySpec(const lbo::RunRecord &r, const RunSpec &sweep)
{
    RunSpec spec;
    spec.bench = r.bench;
    spec.collector = r.collector;
    spec.heapBytes = r.heapBytes;
    spec.seed = r.seed;
    spec.schedSeed = r.schedSeed;
    spec.faultPlan = r.faultSeed;
    heap::sizingPolicyFromName(r.sizingPolicy, spec.sizing);
    spec.maxVirtualTime = sweep.maxVirtualTime;
    spec.watchdogMs = sweep.watchdogMs;
    return spec;
}

/**
 * The canonical one-line replay command for a sweep cell:
 *   REPRO: distill_run --bench B --gc C --heap-bytes N --seed S [...]
 */
inline std::string
runRepro(const lbo::RunRecord &r, const RunSpec &sweep = {})
{
    return "REPRO: distill_run " + replaySpec(r, sweep).flags();
}

/**
 * Replay command for a serving row (serveIssued > 0): the same flags
 * through distill_serve plus the serve seed, so the whole arrival
 * schedule and every shed/retry decision replays.
 */
inline std::string
serveRepro(const lbo::RunRecord &r, const RunSpec &sweep = {})
{
    RunSpec spec = replaySpec(r, sweep);
    spec.watchdogMs = 0; // distill_serve's --watchdog-ms is the pool's
    std::string line = "REPRO: distill_serve " + spec.flags();
    line += strprintf(" --serve-seed %llu",
                      static_cast<unsigned long long>(r.serveSeed));
    if (r.serveLost + r.serveHedgeCancelled + r.serveRestarts +
            r.serveFailovers > 0) {
        // Recovery columns only populate under a supervised fleet;
        // --chaos re-enables supervision (and its default fleet size)
        // so the restart/failover machinery replays. The fleet size
        // and balancer are not in the record — stock chaos runs use
        // the defaults this flag restores.
        line += " --chaos";
    }
    return line;
}

} // namespace distill::cli

#endif // DISTILL_TOOLS_RUN_SPEC_HH
