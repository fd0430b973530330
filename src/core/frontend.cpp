#include "core/frontend.h"

#include <algorithm>

#include "util/metrics.h"
#include "util/timer.h"

namespace hyqsat::core {

Frontend::Frontend(const chimera::ChimeraGraph &graph,
                   const FrontendOptions &opts,
                   MetricsRegistry *metrics)
    : graph_(graph), opts_(opts)
{
    if (metrics) {
        runs_ = metrics->counter("frontend.runs");
        cache_hits_ = metrics->counter("frontend.cache.hits");
        cache_misses_ = metrics->counter("frontend.cache.misses");
        cache_evictions_ =
            metrics->counter("frontend.cache.evictions");
        cache_s_ = metrics->timer("frontend.cache");
    }
}

FrontendResult
Frontend::run(const sat::Solver &solver, Rng &rng) const
{
    FrontendWorkspace ws;
    return run(solver, rng, ws);
}

FrontendResult
Frontend::run(const sat::Solver &solver, Rng &rng,
              FrontendWorkspace &ws) const
{
    Timer timer;
    FrontendResult result;
    metricInc(runs_);

    generateClauseQueue(solver, opts_.queue, rng, ws.queue,
                        result.queue);
    if (result.queue.empty()) {
        // Invariant for the metrics contract: every run records
        // exactly one of hits/misses (an empty queue is a miss).
        metricInc(cache_misses_);
        result.embedded = std::make_shared<embed::QueueEmbedResult>();
        result.seconds = timer.seconds();
        return result;
    }

    ws.clauses.clear();
    for (int ci : result.queue)
        ws.clauses.push_back(solver.originalClause(ci));

    std::shared_ptr<const embed::QueueEmbedResult> embedded;
    if (opts_.cache_embeddings) {
        const MetricTimer::Scope scope(cache_s_);
        ws.cache.setCapacity(static_cast<std::size_t>(
            std::max(opts_.cache_capacity, 1)));
        embedded = ws.cache.find(ws.clauses);
    }

    if (embedded) {
        metricInc(cache_hits_);
    } else {
        metricInc(cache_misses_);
        embed::HyQsatEmbedder embedder(graph_, opts_.embedder);
        embedded = std::make_shared<embed::QueueEmbedResult>(
            embedder.embedQueue(ws.clauses, ws.embedder));
        if (opts_.cache_embeddings) {
            const MetricTimer::Scope scope(cache_s_);
            if (ws.cache.insert(ws.clauses, embedded))
                metricInc(cache_evictions_);
        }
    }
    result.embedded = std::move(embedded);

    result.embedded_clauses.assign(
        result.queue.begin(),
        result.queue.begin() + result.embedded->embedded_clauses);

    // The queue workspace's unsat set was computed against this very
    // trail during queue generation; reusing its size here removes
    // what used to be a second full clause rescan.
    result.covers_all_unsatisfied =
        result.embedded->all_embedded &&
        result.queue.size() == ws.queue.unsat.size();

    result.seconds = timer.seconds();
    return result;
}

} // namespace hyqsat::core
