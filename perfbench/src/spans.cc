#include "spans.hh"

#include <algorithm>
#include <cstdio>
#include <memory>

#include "rt/runtime.hh"

namespace perfbench
{

namespace
{

/** Brackets one Runtime's life and pauses for a Tracer. */
class LifeObserver : public distill::rt::HeapObserver
{
  public:
    LifeObserver(Tracer &tracer, distill::rt::Runtime &runtime)
        : tracer_(tracer), runtime_(runtime)
    {
        life_.span.begin = tracer_.now();
    }

    ~LifeObserver() override
    {
        // Runs inside ~Runtime, before its agent and scheduler are
        // destroyed, so the run's counters are still readable.
        const distill::metrics::RunMetrics &m =
            runtime_.agent().metrics();
        life_.objectsAllocated = m.objectsAllocated;
        life_.satbEnqueues = m.satbEnqueues;
        life_.loadBarrierSlowPaths = m.loadBarrierSlowPaths;
        life_.dispatches = runtime_.scheduler().dispatches();
        life_.span.end = tracer_.now();
        tracer_.addLife(life_);
    }

    void
    onWorldStopped(distill::rt::Runtime &) override
    {
        stoppedAt_ = tracer_.now();
    }

    void
    onWorldResuming(distill::rt::Runtime &) override
    {
        life_.stwSec += tracer_.now() - stoppedAt_;
        ++life_.pauses;
    }

  private:
    Tracer &tracer_;
    distill::rt::Runtime &runtime_;
    Life life_;
    double stoppedAt_ = 0;
};

} // namespace

double
selfTime(Interval span, std::vector<Interval> children)
{
    std::sort(children.begin(), children.end(),
              [](const Interval &a, const Interval &b) {
                  return a.begin < b.begin;
              });
    double covered = 0;
    double reach = span.begin; // end of the union swept so far
    for (const Interval &child : children) {
        double begin = std::max(child.begin, reach);
        double end = std::min(child.end, span.end);
        if (end > begin) {
            covered += end - begin;
            reach = end;
        }
    }
    return (span.end - span.begin) - covered;
}

double
ratio(double num, double base)
{
    return base == 0 ? 0.0 : num / base;
}

double
drainTail(std::vector<double> completions, unsigned jobs)
{
    if (completions.empty())
        return 0.0;
    std::sort(completions.begin(), completions.end());
    std::size_t n = completions.size();
    std::size_t first = n > jobs ? n - jobs : 0; // 0-based (n-jobs+1)-th
    return completions.back() - completions[first];
}

Tracer::Tracer() : epoch_(std::chrono::steady_clock::now())
{
    distill::rt::setHeapObserverFactory(
        [this](distill::rt::Runtime &runtime)
            -> std::unique_ptr<distill::rt::HeapObserver> {
            return std::make_unique<LifeObserver>(*this, runtime);
        });
}

Tracer::~Tracer()
{
    distill::rt::setHeapObserverFactory(nullptr);
}

double
Tracer::now() const
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         epoch_)
        .count();
}

std::string
Tracer::chromeTrace() const
{
    std::string out = "{\"traceEvents\": [\n";
    char line[256];
    bool first = true;
    auto event = [&](const char *name, int tid, Interval at) {
        std::snprintf(line, sizeof line,
                      "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                      "\"tid\": %d, \"ts\": %.3f, \"dur\": %.3f}",
                      first ? "" : ",\n", name, tid, at.begin * 1e6,
                      (at.end - at.begin) * 1e6);
        out += line;
        first = false;
    };
    for (const Span &span : spans_)
        event(span.name.c_str(), 1, span.at);
    for (const Life &life : lives_)
        event("rt.life", 2, life.span);
    out += "\n]}\n";
    return out;
}

std::vector<const Life *>
livesWithin(const std::vector<Life> &lives, Interval window)
{
    std::vector<const Life *> out;
    for (const Life &life : lives) {
        if (life.span.begin >= window.begin &&
            life.span.begin <= window.end)
            out.push_back(&life);
    }
    return out;
}

} // namespace perfbench
