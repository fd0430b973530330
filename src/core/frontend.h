/**
 * @file
 * HyQSAT frontend (§IV): clause-queue generation, QUBO encoding with
 * coefficient adjustment, and linear-time hardware embedding. One
 * run produces everything the annealer needs for one sample.
 *
 * Fast path: a FrontendWorkspace owns every per-iteration buffer
 * (queue BFS marks, clause copies, embedder scratch, the embedding
 * cache), so steady-state runs are allocation-free; the
 * (embedding, encoding) pair is memoized by clause content, turning
 * the common identical-queue iteration into an O(hash) hit.
 */

#ifndef HYQSAT_CORE_FRONTEND_H
#define HYQSAT_CORE_FRONTEND_H

#include <memory>
#include <vector>

#include "chimera/chimera.h"
#include "core/clause_queue.h"
#include "embed/embed_cache.h"
#include "embed/hyqsat_embedder.h"
#include "sat/solver.h"
#include "util/rng.h"

namespace hyqsat {
class Counter;
class MetricTimer;
class MetricsRegistry;
} // namespace hyqsat

namespace hyqsat::core {

/** Frontend configuration. */
struct FrontendOptions
{
    ClauseQueueOptions queue;
    embed::HyQsatEmbedderOptions embedder;

    /**
     * Memoize (embedding, encoding) pairs by clause-queue content.
     * A cache hit shares the stored result (no recompute, no deep
     * copy); results are bit-identical either way since the embedder
     * and encoder are deterministic in the clause literals. Off =
     * ablation/bypass knob.
     */
    bool cache_embeddings = true;

    /** LRU entries kept per workspace cache. */
    int cache_capacity = 32;
};

/** Output of one frontend pass. */
struct FrontendResult
{
    /** Queue of original-clause indices. */
    std::vector<int> queue;

    /**
     * Embedding + encoding of the embedded queue prefix. Shared:
     * cache hits alias the stored entry, so consumers must treat it
     * as immutable. Frontend::run never returns null (an empty queue
     * yields a default-constructed QueueEmbedResult), but a
     * default-constructed FrontendResult holds null.
     */
    std::shared_ptr<const embed::QueueEmbedResult> embedded;

    /** Original-clause indices actually embedded. */
    std::vector<int> embedded_clauses;

    /**
     * True when every currently-unsatisfied original clause was
     * queued and embedded: a zero-energy sample then satisfies the
     * whole remaining formula (strategy 1 precondition).
     */
    bool covers_all_unsatisfied = false;

    /** Host CPU seconds for queue + encode + embed. */
    double seconds = 0.0;
};

/**
 * Per-caller buffers for Frontend::run. Owns the clause-queue
 * scratch, the clause-literal staging vector, the embedder scratch
 * and the embedding cache; reusing one workspace across iterations
 * makes the steady state allocation-free and enables cache hits.
 * Not thread-safe; one workspace per caller.
 */
struct FrontendWorkspace
{
    ClauseQueueWorkspace queue;
    std::vector<sat::LitVec> clauses;
    embed::EmbedderScratch embedder;
    embed::QueueEmbedCache cache;
};

/** The frontend pipeline. */
class Frontend
{
  public:
    /**
     * @param metrics optional registry: resolves frontend.runs,
     *        frontend.cache.{hits,misses,evictions} counters and
     *        the frontend.cache timer eagerly (so the keys exist in any
     *        dump even before the first run).
     */
    Frontend(const chimera::ChimeraGraph &graph,
             const FrontendOptions &opts,
             MetricsRegistry *metrics = nullptr);

    /**
     * Run one pass against the solver's current search state using a
     * one-shot workspace (every buffer allocated fresh; the cache
     * cannot carry across calls). Prefer the workspace overload on
     * any hot path.
     */
    FrontendResult run(const sat::Solver &solver, Rng &rng) const;

    /**
     * Workspace overload: identical output and RNG consumption, with
     * all scratch (and the embedding cache) living in @p ws.
     */
    FrontendResult run(const sat::Solver &solver, Rng &rng,
                       FrontendWorkspace &ws) const;

  private:
    const chimera::ChimeraGraph &graph_;
    FrontendOptions opts_;

    // Null when no registry was given (one branch per record site).
    Counter *runs_ = nullptr;
    Counter *cache_hits_ = nullptr;
    Counter *cache_misses_ = nullptr;
    Counter *cache_evictions_ = nullptr;
    MetricTimer *cache_s_ = nullptr;
};

} // namespace hyqsat::core

#endif // HYQSAT_CORE_FRONTEND_H
