/**
 * @file
 * Failure triage: group a sweep CSV's failed cells by signature.
 *
 * A large faulted/fuzzed sweep can fail hundreds of cells for a
 * handful of underlying causes. Rather than eyeballing hundreds of
 * FAIL lines, this tool buckets the failures by their deduplicatable
 * signature — for crash/hang cells the "SIGNAME@dominant-event" line
 * from the child's flight-recorder sidecar report, otherwise the
 * status plus a digit-stripped failure reason — and prints one group
 * per underlying cause, largest first, each with a representative
 * REPRO line to replay and the sidecar report to read.
 *
 * Serving rows (distill_serve CSVs) ride the same taxonomy: the
 * overload statuses shed / deadline / retry-exhausted and the
 * fleet-recovery statuses lost / hedge-cancelled group by their
 * digit-folded reasons (or forensic signature, e.g.
 * "instance-crash@serve"), each group aggregates the attempt ledger
 * including lost / hedge-cancelled attempts and supervisor
 * restart/failover counts, and the representative REPRO line goes
 * through distill_serve --serve-seed (plus --chaos for rows with
 * recovery activity) so the whole arrival schedule replays.
 *
 * Usage:
 *   distill_triage sweep.csv [--max-virtual-time NS] [--watchdog-ms MS]
 *
 * The two optional flags reproduce sweep-wide settings that are not
 * recorded per cell, so the printed REPRO lines match the original
 * sweep invocation.
 */

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "base/logging.hh"
#include "lbo/record.hh"
#include "run_spec.hh"

using namespace distill;

namespace
{

/** The sweep-wide replay flags a sweep CSV does not record per cell. */
constexpr unsigned sweepFlags =
    cli::RunSpec::VirtualTime | cli::RunSpec::Watchdog;

void
usage()
{
    std::fprintf(stderr, "usage: distill_triage <sweep.csv>\n%s",
                 cli::RunSpec::usage(sweepFlags).c_str());
    std::exit(2);
}

/**
 * Triage key for a failed record. Prefer the forensic signature; the
 * fallback folds cells that differ only in numbers (heap sizes,
 * virtual times, region counts embedded in failure reasons) into one
 * group, so "oom;heap 12 regions" and "oom;heap 17 regions" dedupe.
 */
std::string
signatureFor(const lbo::RunRecord &r)
{
    if (!r.signature.empty())
        return r.signature;
    std::string folded;
    for (char c : r.failReason) {
        if (c >= '0' && c <= '9') {
            if (!folded.empty() && folded.back() == '#')
                continue;
            folded.push_back('#');
        } else {
            folded.push_back(c);
        }
    }
    return r.status + "@" + (folded.empty() ? "no-reason" : folded);
}

struct Group
{
    std::vector<lbo::RunRecord> records;
};

} // namespace

int
main(int argc, char **argv)
{
    std::string csv_path;
    cli::RunSpec sweep; // the sweep-wide replay flags
    cli::Args args(argc, argv, usage);
    while (!args.done()) {
        if (sweep.parse(args, sweepFlags))
            continue;
        if (args.peek()[0] == '-' || !csv_path.empty())
            usage();
        csv_path = args.next();
    }
    if (csv_path.empty())
        usage();

    std::ifstream in(csv_path);
    if (!in)
        fatal("cannot open %s", csv_path.c_str());

    std::size_t total = 0;
    std::size_t failures = 0;
    // std::map: deterministic group order for equal counts.
    std::map<std::string, Group> groups;
    std::string line;
    while (std::getline(in, line)) {
        lbo::RunRecord r;
        if (!lbo::RunRecord::fromCsv(line, r))
            continue; // header or garbage
        ++total;
        if (!r.failed())
            continue;
        ++failures;
        groups[signatureFor(r)].records.push_back(std::move(r));
    }

    std::printf("%zu records, %zu failed, %zu distinct signatures\n",
                total, failures, groups.size());
    if (groups.empty())
        return 0;

    std::vector<const std::pair<const std::string, Group> *> order;
    for (const auto &entry : groups)
        order.push_back(&entry);
    std::sort(order.begin(), order.end(),
              [](const auto *a, const auto *b) {
                  if (a->second.records.size() != b->second.records.size())
                      return a->second.records.size() >
                          b->second.records.size();
                  return a->first < b->first;
              });

    for (const auto *entry : order) {
        const std::string &sig = entry->first;
        const std::vector<lbo::RunRecord> &rs = entry->second.records;
        const lbo::RunRecord &rep = rs.front();
        std::printf("\nsignature: %s\n", sig.c_str());
        std::printf("  count: %zu (status=%s)\n", rs.size(),
                    rep.status.c_str());
        // The affected corner of the grid, compactly.
        std::map<std::string, unsigned> cells;
        for (const lbo::RunRecord &r : rs)
            ++cells[r.bench + "/" + r.collector];
        std::string where;
        for (const auto &[cell, n] : cells) {
            if (!where.empty())
                where += ", ";
            where += n > 1 ? strprintf("%s x%u", cell.c_str(), n) : cell;
        }
        std::printf("  cells: %s\n", where.c_str());
        std::printf("  reason: %s\n", rep.failReason.c_str());
        if (rep.serveIssued > 0) {
            // Overload groups (status shed/deadline/retry-exhausted,
            // or any serving row that failed outright): aggregate the
            // attempt ledger so the group line quantifies the overload
            // without opening each row.
            std::uint64_t issued = 0, completed = 0, shed = 0,
                          deadline = 0, exhausted = 0, lost = 0,
                          cancelled = 0, restarts = 0, failovers = 0;
            for (const lbo::RunRecord &r : rs) {
                issued += r.serveIssued;
                completed += r.serveCompleted;
                shed += r.serveShed;
                deadline += r.serveDeadline;
                exhausted += r.serveRetryExhausted;
                lost += r.serveLost;
                cancelled += r.serveHedgeCancelled;
                restarts += r.serveRestarts;
                failovers += r.serveFailovers;
            }
            std::printf("  overload: issued=%llu completed=%llu "
                        "shed=%llu deadline-expired=%llu "
                        "retry-exhausted=%llu lost=%llu "
                        "hedge-cancelled=%llu restarts=%llu "
                        "failovers=%llu\n",
                        static_cast<unsigned long long>(issued),
                        static_cast<unsigned long long>(completed),
                        static_cast<unsigned long long>(shed),
                        static_cast<unsigned long long>(deadline),
                        static_cast<unsigned long long>(exhausted),
                        static_cast<unsigned long long>(lost),
                        static_cast<unsigned long long>(cancelled),
                        static_cast<unsigned long long>(restarts),
                        static_cast<unsigned long long>(failovers));
        }
        if (!rep.sidecar.empty())
            std::printf("  report: %s\n", rep.sidecar.c_str());
        std::printf("  %s\n",
                    rep.serveIssued > 0
                        ? cli::serveRepro(rep, sweep).c_str()
                        : cli::runRepro(rep, sweep).c_str());
    }
    return 0;
}
