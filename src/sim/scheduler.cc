#include "sim/scheduler.hh"

#include <algorithm>

#include "base/logging.hh"

namespace distill::sim
{

SchedulePerturb
SchedulePerturb::fromSeed(std::uint64_t sched_seed)
{
    SchedulePerturb p;
    if (sched_seed == 0)
        return p;
    p.seed = sched_seed;
    switch (sched_seed & 3) {
      case 0: p.jitter = true; break;
      case 1: p.permute = true; break;
      case 2: p.preempt = true; break;
      default: p.jitter = p.permute = p.preempt = true; break;
    }
    return p;
}

Scheduler::Scheduler(const MachineConfig &config)
    : config_(config)
{
    distill_assert(config_.cores > 0, "machine needs at least one core");
    distill_assert(config_.quantumCycles > 0, "zero quantum");
}

void
Scheduler::setPerturbation(const SchedulePerturb &perturb)
{
    perturb_ = perturb;
    perturbRng_ = Rng(perturb.seed);
}

void
Scheduler::addThread(SimThread *thread)
{
    distill_assert(thread != nullptr, "null thread");
    distill_assert(thread->scheduler_ == nullptr,
                   "thread %s registered twice", thread->name().c_str());
    thread->scheduler_ = this;
    threads_.push_back(thread);
}

void
Scheduler::setRoundHook(std::function<void()> hook)
{
    roundHook_ = std::move(hook);
}

void
Scheduler::wakeSleepers()
{
    if (sleepingCount_ == 0)
        return;
    for (SimThread *t : threads_) {
        if (t->state() == SimThread::State::Sleeping &&
            t->wakeupTime() <= now_) {
            t->makeRunnable();
        }
    }
}

bool
Scheduler::nextWakeup(Ticks &deadline) const
{
    bool found = false;
    for (SimThread *t : threads_) {
        if (t->state() == SimThread::State::Sleeping) {
            if (!found || t->wakeupTime() < deadline) {
                deadline = t->wakeupTime();
                found = true;
            }
        }
    }
    return found;
}

bool
Scheduler::run(const std::function<bool()> &done)
{
    while (true) {
        if (done && done())
            return true;
        if (now_ > config_.maxVirtualTime) {
            warn("virtual-time safety limit (%llu ns) exceeded",
                 static_cast<unsigned long long>(config_.maxVirtualTime));
            return false;
        }

        wakeSleepers();

        // Round-robin selection of up to `cores` runnable threads.
        // Perturbations reorder or defer candidates but never turn a
        // non-empty runnable set into an empty selection.
        selected_.clear();
        runnable_.clear();
        std::size_t n = threads_.size();
        if (n == 0)
            return true;
        for (std::size_t i = 0; i < n; ++i) {
            SimThread *t = threads_[(rrCursor_ + i) % n];
            if (t->state() == SimThread::State::Runnable)
                runnable_.push_back(t);
        }
        rrCursor_ = (rrCursor_ + 1) % n;
        if (perturb_.permute && runnable_.size() > 1) {
            for (std::size_t i = runnable_.size() - 1; i > 0; --i) {
                std::size_t j = perturbRng_.below(i + 1);
                std::swap(runnable_[i], runnable_[j]);
            }
        }
        for (SimThread *t : runnable_) {
            if (selected_.size() >= config_.cores)
                break;
            // Deferring a runnable thread models an OS-level preemption
            // right before a handshake point; keep at least one thread
            // so the round always makes progress.
            if (perturb_.preempt && !selected_.empty() &&
                perturbRng_.chance(perturb_.preemptProb)) {
                continue;
            }
            selected_.push_back(t);
        }
        if (selected_.empty() && !runnable_.empty())
            selected_.push_back(runnable_.front());

        if (selected_.empty()) {
            Ticks deadline = 0;
            if (nextWakeup(deadline)) {
                // Nothing runnable; jump to the next sleeper deadline.
                now_ = std::max(now_ + 1, deadline);
                if (roundHook_)
                    roundHook_();
                continue;
            }
            bool all_finished = std::all_of(
                threads_.begin(), threads_.end(), [](SimThread *t) {
                    return t->state() == SimThread::State::Finished;
                });
            if (all_finished)
                return true;
            // Blocked threads with no sleeper and no done(): give the
            // round hook one chance to unblock (e.g. safepoint
            // bookkeeping); if the picture does not change, this is a
            // deadlock in the runtime model.
            if (roundHook_) {
                roundHook_();
                bool any_runnable = std::any_of(
                    threads_.begin(), threads_.end(), [](SimThread *t) {
                        return t->state() == SimThread::State::Runnable;
                    });
                if (any_runnable)
                    continue;
            }
            panic("scheduler deadlock: all threads blocked at t=%llu",
                  static_cast<unsigned long long>(now_));
        }

        // Contention model: concurrent GC threads dilate mutator work.
        unsigned gc_threads = 0;
        unsigned mutator_threads = 0;
        for (SimThread *t : selected_) {
            if (t->kind() == SimThread::Kind::Gc)
                ++gc_threads;
            else
                ++mutator_threads;
        }
        if (gc_threads > 0 && mutator_threads > 0) {
            mutatorDilation_ = 1.0 +
                std::min(config_.maxContention,
                         config_.gcContentionPerThread * gc_threads);
        } else {
            mutatorDilation_ = 1.0;
        }

        dispatches_ += selected_.size();
        Cycles max_used = 0;
        for (SimThread *t : selected_) {
            Cycles budget = config_.quantumCycles;
            if (perturb_.jitter) {
                Cycles shave = static_cast<Cycles>(
                    static_cast<double>(budget) * perturb_.jitterFraction *
                    perturbRng_.real());
                budget = std::max<Cycles>(budget - shave, 1);
            }
            Cycles used = t->run(budget);
            distill_assert(used <= budget,
                           "thread %s overran its budget",
                           t->name().c_str());
            if (used == 0 && t->state() == SimThread::State::Runnable) {
                panic("thread %s made no progress while runnable",
                      t->name().c_str());
            }
            t->cyclesConsumed_ += used;
            if (t->kind() == SimThread::Kind::Gc) {
                distill_assert(t->phaseTag() < SimThread::maxPhaseTags,
                               "thread %s has phase tag %u out of range",
                               t->name().c_str(),
                               static_cast<unsigned>(t->phaseTag()));
                cycleTotals_.gc += used;
                cycleTotals_.gcByTag[t->phaseTag()] += used;
            } else {
                distill_assert(t->phaseTag() == 0,
                               "mutator thread %s carries GC phase tag %u",
                               t->name().c_str(),
                               static_cast<unsigned>(t->phaseTag()));
                cycleTotals_.mutator += used;
            }
            max_used = std::max(max_used, used);
        }

        now_ += config_.cyclesToTicks(std::max<Cycles>(max_used, 1));
        if (roundHook_)
            roundHook_();
    }
}

} // namespace distill::sim
