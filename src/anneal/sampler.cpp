#include "anneal/sampler.h"

#include <algorithm>

#include "anneal/async_sampler.h"
#include "embed/hyqsat_embedder.h"
#include "util/logging.h"
#include "util/timer.h"

namespace hyqsat::anneal {

namespace {

/**
 * CompiledSlot tag under which SaDirectSampler memoizes its compiled
 * logical model (distinct from the QuantumAnnealer's tags, which mix
 * graph identity and chain strength).
 */
constexpr std::uint64_t kSaDirectTag = 0x5ad17ec7c0de0001ull;

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
                     QuantumAnnealer::Options opts, bool force_logical,
                     MetricsRegistry *metrics)
    : annealer_(graph, opts), force_logical_(force_logical),
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

SaDirectSampler::SaDirectSampler(Options opts, MetricsRegistry *metrics)
    : opts_(opts), rng_(opts.seed),
      metrics_(AnnealMetrics::resolve(metrics))
{
}

AnnealSample
SaDirectSampler::compute(const SampleRequest &request)
{
    MetricTimer::Scope scope(metrics_.sample_timer);
    AnnealSample out;
    out.device_time_us = opts_.timing.sampleTimeUs(1);
    const qubo::EncodedProblem &problem = *request.problem;
    const int num_nodes = problem.numNodes();
    out.node_bits.assign(num_nodes, false);
    if (num_nodes == 0)
        return out;

    // include_zero=false reproduces the legacy adjacency exactly
    // (no coefficient replay happens on this backend).
    const embed::CompiledSlot *slot = requestSlot(request);
    std::shared_ptr<const SaCompiled> compiled;
    if (slot) {
        compiled = std::static_pointer_cast<const SaCompiled>(
            slot->get(kSaDirectTag));
    }
    if (!compiled) {
        compiled = std::make_shared<const SaCompiled>(SaCompiled::build(
            quboToIsing(problem.normalized), /*include_zero=*/false));
        if (slot)
            slot->set(kSaDirectTag, compiled);
    }

    SaSampler sampler(std::move(compiled));
    const SaResult result = sampler.sample(opts_.sa, rng_);
    metrics_.record(result.stats);
    out.physical_energy = result.energy;
    for (int n = 0; n < num_nodes; ++n)
        out.node_bits[n] = result.spins[n] > 0;
    out.clause_energy = problem.clauseSpaceEnergy(out.node_bits);
    out.weighted_energy = problem.objective.energy(out.node_bits);
    return out;
}

const std::vector<std::string> &
samplerNames()
{
    static const std::vector<std::string> names = {
        "sync", "qa", "logical", "sa", "async",
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
        fatal("unknown sampler backend '%s' (known: sync, qa, logical, "
              "sa, async, async:<non-async backend>)",
              name.c_str());
    if (name == "sync" || name == "qa") {
        return std::make_unique<QaSampler>(graph, spec.annealer,
                                           /*force_logical=*/false,
                                           spec.metrics);
    }
    if (name == "logical") {
        return std::make_unique<QaSampler>(graph, spec.annealer,
                                           /*force_logical=*/true,
                                           spec.metrics);
    }
    if (name == "sa") {
        SaDirectSampler::Options opts;
        opts.sa.sweeps = spec.annealer.noise.sweeps;
        opts.sa.beta_end = spec.annealer.noise.beta_final;
        opts.sa.greedy_finish = spec.annealer.greedy_finish;
        opts.sa.num_reads = spec.annealer.num_reads;
        opts.sa.reads_groups = spec.annealer.reads_groups;
        opts.timing = spec.annealer.timing;
        opts.seed = spec.annealer.seed;
        return std::make_unique<SaDirectSampler>(opts, spec.metrics);
    }
    // The only names left are "async" and "async:<inner>".
    SamplerSpec inner_spec = spec;
    inner_spec.name =
        name == "async" ? "qa" : name.substr(std::string("async:").size());
    AsyncSampler::Options opts;
    opts.depth = spec.pipeline_depth;
    opts.rtt_us = spec.rtt_us;
    opts.stop = spec.stop;
    return std::make_unique<AsyncSampler>(makeSampler(inner_spec, graph),
                                          opts);
}

} // namespace hyqsat::anneal
