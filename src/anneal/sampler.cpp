#include "anneal/sampler.h"

#include <algorithm>

#include "anneal/async_sampler.h"
#include "embed/hyqsat_embedder.h"
#include "util/logging.h"
#include "util/timer.h"

namespace hyqsat::anneal {

namespace {

/** The slot riding on the request's cached embed result, if any. */
const embed::CompiledSlot *
requestSlot(const SampleRequest &request)
{
    return request.embedded ? &request.embedded->compiled : nullptr;
}

} // namespace

AnnealMetrics
AnnealMetrics::resolve(MetricsRegistry *registry)
{
    AnnealMetrics m;
    if (!registry)
        return m;
    m.sweeps = registry->counter("anneal.sweeps");
    m.flips_attempted = registry->counter("anneal.flips.attempted");
    m.flips_accepted = registry->counter("anneal.flips.accepted");
    m.reads = registry->counter("anneal.reads");
    m.read_groups = registry->counter("anneal.read_groups");
    m.sample_timer = registry->timer("anneal.sample");
    return m;
}

AnnealSample
Sampler::sampleNow(SampleRequest request)
{
    const std::uint64_t ticket = submit(std::move(request));
    std::vector<SampleCompletion> done;
    for (;;) {
        wait(done);
        for (auto &c : done) {
            if (c.ticket == ticket)
                return std::move(c.sample);
        }
        if (done.empty() && inFlight() == 0)
            panic("sampleNow: ticket %llu never completed",
                  static_cast<unsigned long long>(ticket));
        done.clear();
    }
}

std::uint64_t
SyncSampler::submit(SampleRequest request)
{
    Timer timer;
    SampleCompletion completion;
    completion.ticket = next_ticket_++;
    completion.sample = compute(request);
    completion.host_seconds = timer.seconds();
    done_.push_back(std::move(completion));
    return done_.back().ticket;
}

void
SyncSampler::poll(std::vector<SampleCompletion> &out)
{
    for (auto &c : done_)
        out.push_back(std::move(c));
    done_.clear();
}

void
SyncSampler::wait(std::vector<SampleCompletion> &out)
{
    poll(out);
}

QaSampler::QaSampler(const chimera::ChimeraGraph &graph,
                     QuantumAnnealer::Options opts, std::string name,
                     bool force_logical, MetricsRegistry *metrics)
    : annealer_(graph, opts), name_(std::move(name)),
      force_logical_(force_logical),
      metrics_(AnnealMetrics::resolve(metrics))
{
}

AnnealSample
QaSampler::compute(const SampleRequest &request)
{
    MetricTimer::Scope scope(metrics_.sample_timer);
    const embed::CompiledSlot *slot = requestSlot(request);
    AnnealSample out;
    if (force_logical_ || !request.use_embedding)
        out = annealer_.sampleLogical(*request.problem, slot);
    else
        out = annealer_.sample(*request.problem, *request.embedding,
                               slot);
    metrics_.record(annealer_.lastRunStats());
    return out;
}

const std::vector<std::string> &
samplerNames()
{
    static const std::vector<std::string> names = {
        "sync", "logical", "sa", "async",
    };
    return names;
}

bool
isSamplerName(std::string_view name)
{
    constexpr std::string_view kAsync = "async:";
    if (name.substr(0, kAsync.size()) == kAsync) {
        name.remove_prefix(kAsync.size());
        if (name == "async")
            return false;
    }
    const auto &names = samplerNames();
    return std::find(names.begin(), names.end(), name) != names.end();
}

std::unique_ptr<Sampler>
makeSampler(const SamplerSpec &spec, const chimera::ChimeraGraph &graph)
{
    const std::string &name = spec.name;
    if (!isSamplerName(name))
        fatal("unknown sampler backend '%s' (known: sync, logical, sa, "
              "async, async:<non-async backend>)",
              name.c_str());
    if (name.rfind("async", 0) != 0) {
        // One device model behind every synchronous name; "sa" is the
        // logical device with its noise and retries stripped.
        QuantumAnnealer::Options opts = spec.annealer;
        if (name == "sa") {
            opts.noise.coefficient_sigma = 0.0;
            opts.noise.readout_flip_prob = 0.0;
            opts.attempts = 1;
        }
        return std::make_unique<QaSampler>(graph, opts, name,
                                           /*force_logical=*/name != "sync",
                                           spec.metrics);
    }
    // The only names left are "async" and "async:<inner>".
    SamplerSpec inner_spec = spec;
    inner_spec.name =
        name == "async" ? "sync" : name.substr(std::string("async:").size());
    AsyncSampler::Options opts;
    opts.depth = spec.pipeline_depth;
    opts.stop = spec.stop;
    return std::make_unique<AsyncSampler>(makeSampler(inner_spec, graph),
                                          opts);
}

} // namespace hyqsat::anneal
