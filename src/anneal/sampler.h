/**
 * @file
 * Pluggable sampler interface: the contract between the hybrid loop
 * and whatever device (real or simulated) produces annealing samples.
 *
 * The interface is future-style: submit() enqueues an embedded (or
 * logical) problem and returns a ticket; poll()/wait() harvest
 * completed samples. Every synchronous backend ("sync", "logical",
 * "sa") is the one QuantumAnnealer device model (QaSampler) with a
 * different device choice or noise setting; each backend has exactly
 * one name. Synchronous backends compute eagerly inside submit(), so
 * a depth-1 caller behaves exactly like a blocking call.
 * Asynchronous backends (AsyncSampler's worker strand, a future
 * remote QPU client) return from submit() immediately and complete
 * in the background; the caller keeps doing CDCL work while a sample
 * is in flight.
 *
 * Contract (see DESIGN.md "Sampler backends & async pipeline"):
 *  - Tickets are issued in strictly increasing order per sampler and
 *    completions are delivered in submission (FIFO) order.
 *  - submit() beyond capacity() is allowed but may block or queue;
 *    callers that must not stall should track in-flight counts and
 *    stay within capacity().
 *  - submit()/poll()/wait() must be called from one thread (the
 *    hybrid loop); implementations handle their own internal
 *    threading. Each sampler owns its Rng — Rng itself is NOT
 *    thread-safe and must never be shared across threads.
 */

#ifndef HYQSAT_ANNEAL_SAMPLER_H
#define HYQSAT_ANNEAL_SAMPLER_H

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "anneal/annealer.h"
#include "chimera/chimera.h"
#include "embed/embedding.h"
#include "qubo/encoder.h"
#include "util/cancel.h"
#include "util/metrics.h"
#include "util/rng.h"

namespace hyqsat::embed {
struct QueueEmbedResult;
}

namespace hyqsat::anneal {

/**
 * Resolved handles for the anneal.* metrics. All null when no
 * registry is attached (the one-branch-when-disabled contract);
 * resolve() binds them once at sampler construction.
 */
struct AnnealMetrics
{
    Counter *sweeps = nullptr;
    Counter *flips_attempted = nullptr;
    Counter *flips_accepted = nullptr;
    Counter *reads = nullptr;
    Counter *read_groups = nullptr; ///< parallel lockstep groups

    /** Host seconds spent producing samples ("anneal.sample"). */
    MetricTimer *sample_timer = nullptr;

    static AnnealMetrics resolve(MetricsRegistry *registry);

    /** Record one sample's work counters. */
    void
    record(const SaStats &stats) const
    {
        metricInc(sweeps, stats.sweeps);
        metricInc(flips_attempted, stats.flips_attempted);
        metricInc(flips_accepted, stats.flips_accepted);
        metricInc(reads, stats.reads);
        metricInc(read_groups, stats.read_groups);
    }
};

/**
 * One sampling job. The request holds shared (non-null) references to
 * the problem and embedding so the submitter may rebuild its clause
 * queue (after a conflict) while the job is still in flight, without
 * deep-copying the encoded problem into every submission — the hybrid
 * loop aliases its cached frontend result.
 */
struct SampleRequest
{
    std::shared_ptr<const qubo::EncodedProblem> problem;
    std::shared_ptr<const embed::Embedding> embedding;

    /** Sample through the embedding (false = ideal logical device). */
    bool use_embedding = true;

    /**
     * The cached embed result that owns @p problem / @p embedding,
     * when the submitter has one (the hybrid pipeline's
     * QueueEmbedCache entry). Carries the CompiledSlot where
     * samplers memoize the compiled sampling form, so a frontend
     * cache hit also skips the annealer's model rebuild. Optional —
     * samplers must work (just compile per call) when null.
     */
    std::shared_ptr<const embed::QueueEmbedResult> embedded;
};

/** A finished job, correlated to its submission by ticket. */
struct SampleCompletion
{
    std::uint64_t ticket = 0;
    AnnealSample sample;

    /**
     * Host CPU cost of simulating the device for this job (the
     * analogue of TimeBreakdown::qa_host_s; excluded from modeled
     * end-to-end time).
     */
    double host_seconds = 0.0;
};

/** Abstract sampling backend. */
class Sampler
{
  public:
    virtual ~Sampler() = default;

    /** Stable backend name (the --sampler= spelling). */
    virtual const char *name() const = 0;

    /**
     * Maximum useful number of in-flight submissions: 1 for
     * synchronous backends, the pipeline depth for async ones.
     */
    virtual int capacity() const { return 1; }

    /** Enqueue a job; returns its ticket. */
    virtual std::uint64_t submit(SampleRequest request) = 0;

    /** Harvest completed jobs without blocking (appends to @p out). */
    virtual void poll(std::vector<SampleCompletion> &out) = 0;

    /**
     * Block until at least one job completes, then harvest every
     * completed job. Returns immediately when nothing is in flight.
     */
    virtual void wait(std::vector<SampleCompletion> &out) = 0;

    /** Jobs submitted but not yet harvested. */
    virtual int inFlight() const = 0;

    /** Convenience: submit one job and block for its sample. */
    AnnealSample sampleNow(SampleRequest request);
};

/**
 * Base for synchronous backends: compute() runs eagerly inside
 * submit() and the completion is harvested by the next poll().
 */
class SyncSampler : public Sampler
{
  public:
    std::uint64_t submit(SampleRequest request) final;
    void poll(std::vector<SampleCompletion> &out) final;
    void wait(std::vector<SampleCompletion> &out) final;
    int inFlight() const final
    {
        return static_cast<int>(done_.size());
    }

  protected:
    /** One blocking sample. */
    virtual AnnealSample compute(const SampleRequest &request) = 0;

  private:
    std::vector<SampleCompletion> done_;
    std::uint64_t next_ticket_ = 1;
};

/**
 * The QuantumAnnealer device model behind the Sampler interface —
 * every synchronous named backend is one of these. @p name is the
 * --sampler spelling it reports: "sync" samples through the
 * request's embedding (or the logical device when the request asks
 * for it); force_logical pins the ideal all-to-all device regardless
 * of the request ("logical", and "sa": the same device with its
 * noise stripped).
 */
class QaSampler : public SyncSampler
{
  public:
    QaSampler(const chimera::ChimeraGraph &graph,
              QuantumAnnealer::Options opts, std::string name = "sync",
              bool force_logical = false,
              MetricsRegistry *metrics = nullptr);

    const char *name() const override { return name_.c_str(); }

  protected:
    AnnealSample compute(const SampleRequest &request) override;

  private:
    QuantumAnnealer annealer_;
    std::string name_;
    bool force_logical_;
    AnnealMetrics metrics_;
};

/**
 * Everything makeSampler() needs to build a backend by name:
 *   "sync"       QuantumAnnealer device model (depth 1)
 *   "logical"    ideal all-to-all device (no embedding)
 *   "sa"         the logical device noise-free: plain SA over the
 *                logical Ising model (no control noise, no readout
 *                error, one attempt)
 *   "async"      AsyncSampler-wrapped "sync" (depth >= 2)
 *   "async:<x>"  AsyncSampler wrapping non-async backend <x>
 * Best-of-N is annealer.num_reads on any of them, not a backend.
 */
struct SamplerSpec
{
    std::string name = "sync";
    QuantumAnnealer::Options annealer;

    /** In-flight depth for async backends (clamped to >= 2). */
    int pipeline_depth = 2;

    /**
     * Cooperative stop token observed by async backends' blocking
     * wait() (see AsyncSampler::Options::stop); nullptr = none.
     */
    const StopToken *stop = nullptr;

    /**
     * Registry receiving the anneal.* counters and the anneal.sample
     * timer (not owned; must outlive the sampler). nullptr disables
     * recording at one branch per site.
     */
    MetricsRegistry *metrics = nullptr;
};

/** Build a backend by name; fatal() unless isSamplerName(name). */
std::unique_ptr<Sampler> makeSampler(const SamplerSpec &spec,
                                     const chimera::ChimeraGraph &graph);

/** Known backend names (for --help strings). */
const std::vector<std::string> &samplerNames();

/**
 * Whether makeSampler() builds @p name: one of samplerNames(), or
 * "async:" followed by one that is not "async" (wrappers do not nest).
 */
bool isSamplerName(std::string_view name);

} // namespace hyqsat::anneal

#endif // HYQSAT_ANNEAL_SAMPLER_H
