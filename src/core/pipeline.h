/**
 * @file
 * The sampling pipeline between the CDCL iteration hook and a
 * Sampler backend. Owns the cached FrontendResult (the clause
 * queue's activity basis only changes at conflicts, so the frontend
 * pass is reused across conflict-free decision stretches) and the
 * in-flight bookkeeping that lets an asynchronous backend overlap
 * device latency with CDCL search.
 *
 * Epochs and staleness: every submission is tagged with the solver's
 * conflict count (its "epoch"). A conflict rebuilds the clause queue,
 * so a sample harvested at a later epoch answers a question the
 * search is no longer asking — it is discarded as stale rather than
 * applied. The depth-1 synchronous configuration submits and
 * harvests within one hook call, so no sample can ever go stale and
 * the loop is bit-for-bit the classic blocking behavior.
 */

#ifndef HYQSAT_CORE_PIPELINE_H
#define HYQSAT_CORE_PIPELINE_H

#include <cstdint>
#include <memory>
#include <vector>

#include "anneal/sampler.h"
#include "core/frontend.h"
#include "sat/solver.h"
#include "util/metrics.h"
#include "util/rng.h"
#include "util/timer.h"

namespace hyqsat::core {

/**
 * Pipeline counters folded into HybridResult after a solve. This is
 * a *view* snapshotted from the metrics registry (stats()): the
 * registry is the single source of truth, the struct just gives the
 * hybrid loop and the tests a stable typed window onto it.
 */
struct PipelineStats
{
    int submitted = 0;       ///< jobs handed to the sampler
    int harvested = 0;       ///< completions received back
    int stale_discarded = 0; ///< harvested at a newer epoch
    int stopped_discarded = 0; ///< anneal cut short by the stop token
    int stalls = 0;          ///< submit wanted, pipeline full

    double frontend_s = 0.0;    ///< queue + encode + embed host time
    double host_sample_s = 0.0; ///< device-simulation host time
    double device_s = 0.0;      ///< modeled device time, all samples
    double inflight_s = 0.0;    ///< wall time jobs spent in flight
    double blocking_s = 0.0;    ///< device time NOT hidden by overlap
    int chain_breaks = 0;
};

/** A fresh completion ready for backend interpretation. */
struct ReadySample
{
    /** Frontend pass the job was built from (same epoch). */
    std::shared_ptr<const FrontendResult> frontend;
    anneal::AnnealSample sample;
};

/** The iteration-hook state machine. */
class SamplePipeline
{
  public:
    /**
     * @param metrics registry receiving the pipeline's counters,
     *        phase timers, in-flight occupancy histogram and stall
     *        spans; nullptr uses a private registry so stats() is
     *        always available (single source of truth either way).
     */
    SamplePipeline(const Frontend &frontend, anneal::Sampler &sampler,
                   Rng &rng, bool use_embedding,
                   MetricsRegistry *metrics = nullptr);

    /**
     * One pipeline advance at a decision iteration: refresh the
     * frontend cache when @p epoch moved, submit a job if the
     * sampler has capacity (a full pipeline counts a stall), then
     * harvest. Fresh completions are appended to @p ready; stale
     * ones are discarded and counted, and so are stopped ones
     * (AnnealSample::stopped: a half-annealed state the backend
     * must never see).
     */
    void step(const sat::Solver &solver, std::uint64_t epoch,
              std::vector<ReadySample> &ready);

    /**
     * Completion-notification point, invoked from the solver's
     * conflict hook: every in-flight job predates the conflict and
     * is now stale, so harvest (and discard) whatever already
     * finished to free pipeline slots before the next decision.
     */
    void notifyConflict(std::uint64_t epoch);

    /** True when the backend overlaps sampling with search. */
    bool asynchronous() const { return sampler_.capacity() > 1; }

    /** Snapshot of the registry's pipeline.* metrics. */
    PipelineStats stats() const;

  private:
    struct InFlight
    {
        std::uint64_t ticket;
        std::uint64_t epoch;
        std::shared_ptr<const FrontendResult> frontend;
        Timer since_submit; ///< started after submit() returned
    };

    void refreshCache(const sat::Solver &solver, std::uint64_t epoch);
    void harvest(std::uint64_t epoch, std::vector<ReadySample> *ready);

    const Frontend &frontend_;
    anneal::Sampler &sampler_;
    Rng &rng_;
    bool use_embedding_;

    std::shared_ptr<const FrontendResult> cache_;
    std::uint64_t cache_epoch_ = ~0ull;
    std::vector<InFlight> inflight_;

    /**
     * Frontend fast-path buffers + embedding cache, reused across
     * every refresh this pipeline performs. Mutable state of the
     * pipeline, not of the (shared, const) Frontend.
     */
    FrontendWorkspace workspace_;

    /** Private fallback registry when the caller supplies none. */
    std::unique_ptr<MetricsRegistry> own_metrics_;

    // Resolved record handles (always non-null: the pipeline records
    // unconditionally; the one-branch contract applies to *callers*
    // that never construct a pipeline).
    Counter *m_submitted_;
    Counter *m_harvested_;
    Counter *m_stale_;
    Counter *m_stopped_;
    Counter *m_stalls_;
    Counter *m_chain_breaks_;
    MetricTimer *m_frontend_s_;
    MetricTimer *m_host_sample_s_;
    MetricTimer *m_device_s_;
    MetricTimer *m_inflight_s_;
    MetricTimer *m_blocking_s_;
    MetricTimer *m_stall_span_s_;
    LatencyHistogram *m_occupancy_;
    TraceSink *trace_;

    /** Open stall span: set while consecutive steps find us full. */
    bool in_stall_ = false;
    Timer stall_timer_;
};

} // namespace hyqsat::core

#endif // HYQSAT_CORE_PIPELINE_H
