#include "lbo/record.hh"

#include <algorithm>
#include <array>
#include <charconv>
#include <string_view>
#include <variant>

namespace distill::lbo
{

namespace
{

using Layout = RunRecord::CsvLayout;

/** The RunRecord member a CSV column reads and writes. */
using Member =
    std::variant<std::string RunRecord::*, double RunRecord::*,
                 std::uint64_t RunRecord::*, unsigned RunRecord::*,
                 bool RunRecord::*>;

struct Column
{
    const char *name;
    Member member;
    Layout since; //!< the first layout that has this column
};

/**
 * The CSV schema: one row per column, in file order. A new column is
 * one row here under a new CsvLayout, appended at the end, plus a
 * detail::cacheEpoch bump.
 */
constexpr Column columns[] = {
    {"bench", &RunRecord::bench, Layout::Legacy},
    {"collector", &RunRecord::collector, Layout::Legacy},
    {"heapFactor", &RunRecord::heapFactor, Layout::Legacy},
    {"heapBytes", &RunRecord::heapBytes, Layout::Legacy},
    {"seed", &RunRecord::seed, Layout::Legacy},
    {"invocation", &RunRecord::invocation, Layout::Legacy},
    {"completed", &RunRecord::completed, Layout::Legacy},
    {"oom", &RunRecord::oom, Layout::Legacy},
    {"wallNs", &RunRecord::wallNs, Layout::Legacy},
    {"cycles", &RunRecord::cycles, Layout::Legacy},
    {"stwWallNs", &RunRecord::stwWallNs, Layout::Legacy},
    {"stwCycles", &RunRecord::stwCycles, Layout::Legacy},
    {"gcThreadCycles", &RunRecord::gcThreadCycles, Layout::Legacy},
    {"mutatorCycles", &RunRecord::mutatorCycles, Layout::Legacy},
    {"pauses", &RunRecord::pauses, Layout::Legacy},
    {"pauseMeanNs", &RunRecord::pauseMeanNs, Layout::Legacy},
    {"pauseP50Ns", &RunRecord::pauseP50Ns, Layout::Legacy},
    {"pauseP90Ns", &RunRecord::pauseP90Ns, Layout::Legacy},
    {"pauseP99Ns", &RunRecord::pauseP99Ns, Layout::Legacy},
    {"pauseP9999Ns", &RunRecord::pauseP9999Ns, Layout::Legacy},
    {"pauseMaxNs", &RunRecord::pauseMaxNs, Layout::Legacy},
    {"meteredP50Ns", &RunRecord::meteredP50Ns, Layout::Legacy},
    {"meteredP90Ns", &RunRecord::meteredP90Ns, Layout::Legacy},
    {"meteredP99Ns", &RunRecord::meteredP99Ns, Layout::Legacy},
    {"meteredP9999Ns", &RunRecord::meteredP9999Ns, Layout::Legacy},
    {"meteredMaxNs", &RunRecord::meteredMaxNs, Layout::Legacy},
    {"simpleP50Ns", &RunRecord::simpleP50Ns, Layout::Legacy},
    {"simpleP99Ns", &RunRecord::simpleP99Ns, Layout::Legacy},
    {"simpleP9999Ns", &RunRecord::simpleP9999Ns, Layout::Legacy},
    {"allocStallNs", &RunRecord::allocStallNs, Layout::Legacy},
    {"degeneratedGcs", &RunRecord::degeneratedGcs, Layout::Legacy},
    {"bytesAllocated", &RunRecord::bytesAllocated, Layout::Legacy},
    {"status", &RunRecord::status, Layout::Failure},
    {"failReason", &RunRecord::failReason, Layout::Failure},
    {"faultSeed", &RunRecord::faultSeed, Layout::Failure},
    {"schedSeed", &RunRecord::schedSeed, Layout::Failure},
    {"signature", &RunRecord::signature, Layout::Forensics},
    {"sidecar", &RunRecord::sidecar, Layout::Forensics},
    {"notes", &RunRecord::notes, Layout::Notes},
    {"markCycles", &RunRecord::markCycles, Layout::Phase},
    {"evacCycles", &RunRecord::evacCycles, Layout::Phase},
    {"updateRefsCycles", &RunRecord::updateRefsCycles, Layout::Phase},
    {"remsetRefineCycles", &RunRecord::remsetRefineCycles, Layout::Phase},
    {"relocateCycles", &RunRecord::relocateCycles, Layout::Phase},
    {"sweepCycles", &RunRecord::sweepCycles, Layout::Phase},
    {"compactCycles", &RunRecord::compactCycles, Layout::Phase},
    {"gcGlueCycles", &RunRecord::gcGlueCycles, Layout::Phase},
    {"serveSeed", &RunRecord::serveSeed, Layout::Serve},
    {"serveIssued", &RunRecord::serveIssued, Layout::Serve},
    {"serveCompleted", &RunRecord::serveCompleted, Layout::Serve},
    {"serveShed", &RunRecord::serveShed, Layout::Serve},
    {"serveDeadline", &RunRecord::serveDeadline, Layout::Serve},
    {"serveRetries", &RunRecord::serveRetries, Layout::Serve},
    {"serveRetryExhausted", &RunRecord::serveRetryExhausted, Layout::Serve},
    {"serveLost", &RunRecord::serveLost, Layout::Recovery},
    {"serveHedgeCancelled", &RunRecord::serveHedgeCancelled,
     Layout::Recovery},
    {"serveRestarts", &RunRecord::serveRestarts, Layout::Recovery},
    {"serveFailovers", &RunRecord::serveFailovers, Layout::Recovery},
    {"stealCycles", &RunRecord::stealCycles, Layout::Steal},
    {"stealSpinCycles", &RunRecord::stealSpinCycles, Layout::Steal},
    {"terminationSpinCycles", &RunRecord::terminationSpinCycles,
     Layout::Steal},
    {"stealAttempts", &RunRecord::stealAttempts, Layout::Steal},
    {"stealHits", &RunRecord::stealHits, Layout::Steal},
    {"sizingPolicy", &RunRecord::sizingPolicy, Layout::Sizing},
    {"heapLimitBytes", &RunRecord::heapLimitBytes, Layout::Sizing},
    {"peakCommittedBytes", &RunRecord::peakCommittedBytes, Layout::Sizing},
    {"avgCommittedBytes", &RunRecord::avgCommittedBytes, Layout::Sizing},
    {"sizingGrows", &RunRecord::sizingGrows, Layout::Sizing},
    {"sizingShrinks", &RunRecord::sizingShrinks, Layout::Sizing},
};

constexpr std::size_t columnCount = std::size(columns);

constexpr bool
layoutsArePrefixes()
{
    for (std::size_t i = 1; i < columnCount; ++i)
        if (columns[i].since < columns[i - 1].since)
            return false;
    return true;
}
static_assert(layoutsArePrefixes(),
              "columns must be grouped by layout, oldest first, so every "
              "historical row is a prefix of the current one");

void
appendField(std::string &out, const std::string &v)
{
    out += RunRecord::sanitizeReason(v);
}

void
appendField(std::string &out, double v)
{
    // %.17g, as the std::ostream precision(17) writer always printed.
    char buf[32];
    auto res = std::to_chars(buf, buf + sizeof(buf), v,
                             std::chars_format::general, 17);
    out.append(buf, res.ptr);
}

template <typename U>
void
appendField(std::string &out, U v)
{
    char buf[24];
    auto res = std::to_chars(buf, buf + sizeof(buf), v);
    out.append(buf, res.ptr);
}

void
appendField(std::string &out, bool v)
{
    out += v ? '1' : '0';
}

bool
parseField(std::string_view text, std::string &v)
{
    v.assign(text);
    return true;
}

/**
 * Integers and doubles must fill the whole field: from_chars rejects
 * leading whitespace and '+', unsigned targets reject '-', and an
 * out-of-range value is an error rather than a wrap or a truncation.
 */
template <typename T>
bool
parseField(std::string_view text, T &v)
{
    const char *end = text.data() + text.size();
    auto [ptr, ec] = std::from_chars(text.data(), end, v);
    return ec == std::errc{} && ptr == end;
}

bool
parseField(std::string_view text, bool &v)
{
    if (text != "0" && text != "1")
        return false;
    v = text == "1";
    return true;
}

} // namespace

std::size_t
RunRecord::csvWidth(CsvLayout layout)
{
    std::size_t n = 0;
    while (n < columnCount && columns[n].since <= layout)
        ++n;
    return n;
}

const std::vector<std::size_t> &
RunRecord::csvWidths()
{
    static const std::vector<std::size_t> widths = [] {
        std::vector<std::size_t> out;
        for (const Column &c : columns)
            if (csvWidth(c.since) != (out.empty() ? 0 : out.back()))
                out.push_back(csvWidth(c.since));
        return out;
    }();
    return widths;
}

const char *
RunRecord::csvHeader()
{
    static const std::string header = [] {
        std::string out;
        for (const Column &c : columns) {
            if (!out.empty())
                out += ',';
            out += c.name;
        }
        return out;
    }();
    return header.c_str();
}

const char *
RunRecord::statusFor(bool completed, bool oom,
                     const std::string &failure_reason)
{
    if (completed)
        return "ok";
    if (oom)
        return "oom";
    if (failure_reason.find("virtual-time limit") != std::string::npos)
        return "timeout";
    if (failure_reason.rfind("oracle:", 0) == 0)
        return "oracle";
    return "error";
}

std::string
RunRecord::sanitizeReason(const std::string &reason)
{
    std::string out = reason;
    for (char &c : out) {
        if (c == ',' || c == '\n' || c == '\r')
            c = ';';
    }
    return out;
}

std::string
RunRecord::toCsv() const
{
    std::string out;
    out.reserve(640);
    for (const Column &c : columns) {
        if (&c != columns)
            out += ',';
        std::visit([&](auto member) { appendField(out, this->*member); },
                   c.member);
    }
    return out;
}

bool
RunRecord::fromCsv(const std::string &line, RunRecord &out)
{
    // Split on every ','; a line ending in ',' has an empty last field.
    std::array<std::string_view, columnCount> fields;
    std::size_t n = 0;
    std::size_t start = 0;
    while (true) {
        std::size_t comma = line.find(',', start);
        if (n == columnCount)
            return false;
        fields[n++] = std::string_view(line).substr(
            start, comma == std::string::npos ? std::string::npos
                                              : comma - start);
        if (comma == std::string::npos)
            break;
        start = comma + 1;
    }
    const std::vector<std::size_t> &widths = csvWidths();
    if (std::find(widths.begin(), widths.end(), n) == widths.end())
        return false;

    RunRecord r;
    for (std::size_t i = 0; i < n; ++i) {
        bool ok = std::visit(
            [&](auto member) { return parseField(fields[i], r.*member); },
            columns[i].member);
        if (!ok)
            return false;
    }
    if (n == csvWidth(CsvLayout::Legacy)) {
        // Legacy rows predate the status column: derive it.
        r.status = statusFor(r.completed, r.oom, "");
    }
    out = std::move(r);
    return true;
}

} // namespace distill::lbo
