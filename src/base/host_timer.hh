/**
 * @file
 * Host-side wall-clock timing and robust summary statistics.
 *
 * Everything else in the repository measures *virtual* time — the
 * simulated nanoseconds advanced by sim::Scheduler. This header is
 * the one place that measures *host* time: how fast the simulator
 * itself executes on the machine running it. perfbench and any bench
 * binary that reports host-side throughput must use these helpers
 * rather than rolling their own clock so the two kinds of time can
 * never be conflated (see the virtual-vs-wall-clock note in
 * bench/bench_common.hh).
 *
 * Repetition summaries use the median instead of the mean: a rep hit
 * by an unrelated host hiccup (page cache flush, scheduler migration)
 * should not drag the reported throughput.
 */

#ifndef DISTILL_BASE_HOST_TIMER_HH
#define DISTILL_BASE_HOST_TIMER_HH

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <vector>

namespace distill
{

/**
 * Monotonic host stopwatch. Construction starts it; elapsed*() reads
 * without stopping, restart() re-arms.
 */
class HostTimer
{
  public:
    HostTimer() : start_(Clock::now()) {}

    void restart() { start_ = Clock::now(); }

    /** Nanoseconds of host time since construction/restart. */
    std::uint64_t
    elapsedNs() const
    {
        return static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                Clock::now() - start_)
                .count());
    }

    /** Seconds of host time since construction/restart. */
    double
    elapsedSec() const
    {
        return static_cast<double>(elapsedNs()) * 1e-9;
    }

  private:
    using Clock = std::chrono::steady_clock;
    Clock::time_point start_;
};

/**
 * Median of @p samples (does not require sorted input; copies).
 * Returns 0 for an empty vector. Even-sized inputs return the mean
 * of the two central order statistics.
 */
inline double
medianOf(std::vector<double> samples)
{
    if (samples.empty())
        return 0.0;
    std::size_t mid = samples.size() / 2;
    std::nth_element(samples.begin(), samples.begin() + mid,
                     samples.end());
    double hi = samples[mid];
    if (samples.size() % 2 != 0)
        return hi;
    double lo =
        *std::max_element(samples.begin(), samples.begin() + mid);
    return (lo + hi) / 2.0;
}

} // namespace distill

#endif // DISTILL_BASE_HOST_TIMER_HH
