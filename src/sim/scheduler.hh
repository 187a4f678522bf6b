/**
 * @file
 * Quantum-based core scheduler and virtual clock.
 *
 * Each scheduling round picks up to MachineConfig::cores runnable
 * threads (round-robin for fairness), runs each for up to one quantum
 * of cycles, and advances the wall clock by the largest cycle count
 * any selected thread consumed (they execute in parallel on distinct
 * cores). Threads that block mid-quantum therefore end rounds early,
 * giving sub-quantum wall-clock precision for short GC pauses.
 *
 * The scheduler also maintains the contention model: when GC-kind and
 * mutator-kind threads are co-scheduled in a round, mutators observe a
 * dilation factor > 1 and must inflate their per-operation cycle costs
 * by it (see rt::Mutator). This reproduces the paper's observation
 * that concurrent GC overhead comes from resource contention as well
 * as from barriers (§IV-D(b)).
 */

#ifndef DISTILL_SIM_SCHEDULER_HH
#define DISTILL_SIM_SCHEDULER_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "base/rng.hh"
#include "base/types.hh"
#include "sim/machine.hh"
#include "sim/thread.hh"

namespace distill::sim
{

/**
 * Seeded schedule perturbation for fuzzing. All randomness is drawn
 * from a dedicated Rng so a (seed, perturbation) pair replays
 * bit-identically; the workload seed is untouched.
 *
 * Three independent knobs model the interleaving variance a real OS
 * scheduler would produce:
 *  - @c jitter   shrinks each selected thread's quantum by a random
 *                fraction, moving every preemption point.
 *  - @c permute  shuffles the runnable set before core assignment,
 *                breaking the deterministic round-robin order.
 *  - @c preempt  randomly defers runnable threads for a round, forcing
 *                late safepoint arrival (handshake-point preemption).
 */
struct SchedulePerturb
{
    std::uint64_t seed = 0;
    bool jitter = false;
    bool permute = false;
    bool preempt = false;
    double jitterFraction = 0.5; //!< max fraction of the quantum shaved off
    double preemptProb = 0.15;   //!< chance a runnable thread sits out

    bool enabled() const { return jitter || permute || preempt; }

    /**
     * Canonical mapping from a single `--sched-seed` value to a full
     * perturbation, so one integer on a repro line pins the schedule.
     * Seed 0 is the vanilla deterministic round-robin schedule; for a
     * nonzero seed the low two bits select which knobs are active
     * (0: jitter, 1: permute, 2: preempt, 3: all).
     */
    static SchedulePerturb fromSeed(std::uint64_t sched_seed);
};

/**
 * Aggregate cycle counters, split by thread kind. The metrics agent
 * snapshots these at pause boundaries to attribute cost.
 */
struct CycleTotals
{
    Cycles mutator = 0;
    Cycles gc = 0;

    /**
     * GC cycles split by the running thread's phase tag (see
     * SimThread::phaseTag). Entries sum to @c gc exactly: every GC
     * cycle accrues under precisely one tag, so per-phase attribution
     * is conservation-checked rather than sampled.
     */
    std::array<Cycles, SimThread::maxPhaseTags> gcByTag{};

    Cycles total() const { return mutator + gc; }
};

/**
 * The discrete-event scheduler; owns the virtual clock.
 */
class Scheduler
{
  public:
    explicit Scheduler(const MachineConfig &config);

    /** Register a thread. Threads must outlive the scheduler run. */
    void addThread(SimThread *thread);

    /** Current virtual wall-clock time in nanoseconds. */
    Ticks now() const { return now_; }

    /** Machine description this scheduler simulates. */
    const MachineConfig &machine() const { return config_; }

    /**
     * Mutator cycle-cost dilation for the current round, >= 1.0.
     * Valid only while inside SimThread::run().
     */
    double mutatorDilation() const { return mutatorDilation_; }

    /** Aggregate cycles executed so far, by thread kind. */
    const CycleTotals &cycleTotals() const { return cycleTotals_; }

    /** Thread dispatches (SimThread::run invocations) so far. */
    std::uint64_t dispatches() const { return dispatches_; }

    /** Every registered thread (crash-forensics thread summaries). */
    const std::vector<SimThread *> &threads() const { return threads_; }

    /**
     * Run scheduling rounds until @p done returns true (checked at
     * round boundaries), all threads finish, or the virtual-time
     * safety limit trips.
     *
     * @return true on normal completion, false if the safety limit
     *         aborted the run.
     */
    bool run(const std::function<bool()> &done);

    /**
     * Hook invoked at every round boundary after time advances; used
     * by the runtime for safepoint bookkeeping and watchdogs.
     */
    void setRoundHook(std::function<void()> hook);

    /**
     * Install a seeded schedule perturbation (see SchedulePerturb).
     * Must be called before run(); replays are deterministic for a
     * given perturbation.
     */
    void setPerturbation(const SchedulePerturb &perturb);

    /** The active perturbation (disabled by default). */
    const SchedulePerturb &perturbation() const { return perturb_; }

  private:
    // SimThread state transitions maintain sleepingCount_ so the
    // per-round sleeper wakeup scan can be skipped entirely in the
    // common no-sleepers case.
    friend class SimThread;

    /** Wake sleepers whose deadline has passed. */
    void wakeSleepers();

    /** @return the earliest wakeup among sleeping threads, or 0. */
    bool nextWakeup(Ticks &deadline) const;

    MachineConfig config_;
    std::vector<SimThread *> threads_;
    std::vector<SimThread *> selected_;
    std::vector<SimThread *> runnable_;
    SchedulePerturb perturb_;
    Rng perturbRng_{0};
    std::size_t rrCursor_ = 0;
    Ticks now_ = 0;
    double mutatorDilation_ = 1.0;
    CycleTotals cycleTotals_;
    std::uint64_t dispatches_ = 0;
    std::size_t sleepingCount_ = 0;
    std::function<void()> roundHook_;
};

} // namespace distill::sim

#endif // DISTILL_SIM_SCHEDULER_HH
