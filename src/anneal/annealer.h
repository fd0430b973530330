/**
 * @file
 * Quantum-annealer facade: the component that plays the role of the
 * D-Wave 2000Q in this reproduction. It programs an embedded (or
 * logical) Ising problem and draws one sample through a single
 * annealing loop — compile (memoized per problem), control-noise
 * replay, SA anneal, readout flips, chain de-embedding by majority
 * vote, best of `attempts` — and reports the clause-space energy
 * that the HyQSAT backend interprets, together with modeled device
 * time. The embedded and logical devices differ only in what they
 * compile; with zero noise and one attempt the logical device is
 * plain simulated annealing over the logical Ising model (the `sa`
 * backend).
 */

#ifndef HYQSAT_ANNEAL_ANNEALER_H
#define HYQSAT_ANNEAL_ANNEALER_H

#include <cstdint>
#include <memory>
#include <vector>

#include "anneal/noise.h"
#include "anneal/sa_sampler.h"
#include "anneal/timing.h"
#include "chimera/chimera.h"
#include "embed/compiled_slot.h"
#include "embed/embedding.h"
#include "qubo/encoder.h"
#include "util/cancel.h"
#include "util/rng.h"

namespace hyqsat::anneal {

/**
 * Everything about a programmed problem that survives between
 * samples: the compiled flat Ising form (CSR + chain groups) and the
 * ordered control-noise replay schedule. Built once per problem and
 * memoized in the embed result's CompiledSlot; defined in
 * annealer.cpp.
 */
struct AnnealCompiled;

/** One annealer sample, already interpreted to logical space. */
struct AnnealSample
{
    /** Assignment of every problem node (variables + auxiliaries). */
    std::vector<bool> node_bits;

    /**
     * Clause-space energy: the unit objective (alpha = 1) value of
     * the de-embedded assignment. Zero iff every embedded clause is
     * satisfied with consistent auxiliaries; the backend's
     * confidence intervals live on this axis.
     */
    double clause_energy = 0.0;

    /**
     * Device-reported energy: the alpha-weighted (coefficient-
     * adjusted) objective at the de-embedded assignment. This is
     * the axis the coefficient adjustment lifts (Fig. 15); equal to
     * clause_energy when the adjustment is disabled.
     */
    double weighted_energy = 0.0;

    /** Energy of the physical (or logical) Ising problem sampled. */
    double physical_energy = 0.0;

    /** Chains whose qubits disagreed before majority vote. */
    int chain_breaks = 0;

    /** Modeled device wall-clock for this sample (microseconds). */
    double device_time_us = 0.0;

    /**
     * The stop token tripped mid-anneal (QuantumAnnealer::
     * setStopToken). The bits are NOT a sample — the default
     * clause_energy 0.0 would read as "all satisfied" — so consumers
     * must drop it (SamplePipeline counts it as stopped_discarded).
     */
    bool stopped = false;
};

/** Simulated quantum annealer. */
class QuantumAnnealer
{
  public:
    struct Options
    {
        NoiseModel noise = NoiseModel::dwave2000q();
        TimingModel timing;

        /**
         * Ferromagnetic intra-chain coupling strength, in units of
         * the hardware J range (applied as -chain_strength).
         */
        double chain_strength = 1.0;

        /**
         * Zero-temperature descent after the anneal. On for the
         * noise-free simulator, off for noisy device emulation.
         */
        bool greedy_finish = false;

        /**
         * Internal anneal repetitions per sample; the lowest
         * clause-space energy wins. The noise-free simulator uses a
         * few attempts (the paper's simulator runs "with a long
         * timeout"); a noisy device models one shot.
         */
        int attempts = 1;

        /**
         * Independent annealing reads per internal anneal (the
         * device analogue of requesting num_reads samples and
         * keeping the best). 1 reproduces the single-chain annealer
         * exactly, including its RNG stream; more reads run as
         * lockstep SIMD groups (SaOptions::num_reads), which have
         * their own determinism contract.
         */
        int num_reads = 1;

        std::uint64_t seed = 0x5eed0f2a;
    };

    QuantumAnnealer(const chimera::ChimeraGraph &graph, Options opts);

    /**
     * Program the embedded problem onto the hardware graph and draw
     * one sample (the HyQSAT flow: one sample per CDCL iteration).
     * When @p slot is given — the CompiledSlot of the cached
     * QueueEmbedResult that owns @p problem / @p embedding — the
     * compiled sampling form is fetched from (or parked in) it, so
     * repeat samples of a cached embedding skip the model rebuild;
     * the result is identical either way.
     */
    AnnealSample sample(const qubo::EncodedProblem &problem,
                        const embed::Embedding &embedding,
                        const embed::CompiledSlot *slot = nullptr);

    /**
     * Sample the logical problem directly (ideal all-to-all device:
     * every node is its own one-qubit chain, so nothing breaks and
     * no vote ties). Used by the `logical` and `sa` backends;
     * @p slot as in sample().
     */
    AnnealSample sampleLogical(const qubo::EncodedProblem &problem,
                               const embed::CompiledSlot *slot = nullptr);

    /**
     * Cooperative stop token (nullptr = none; not owned), polled once
     * per SA sweep and greedy pass. The first stopped attempt ends
     * the sample with AnnealSample::stopped set. An untripped token
     * leaves bits and the RNG stream unchanged.
     */
    void setStopToken(const StopToken *stop) { stop_ = stop; }

    /** Access the RNG (e.g. to reseed between experiments). */
    Rng &rng() { return rng_; }

    const Options &options() const { return opts_; }

    /**
     * Annealing work counters of the most recent sample() /
     * sampleLogical() call (summed over attempts and reads). Feeds
     * the anneal.* metrics.
     */
    const SaStats &lastRunStats() const { return run_stats_; }

  private:
    /**
     * The annealing loop behind both entry points: noise replay,
     * then per attempt anneal -> readout flips -> de-embed over
     * cp->spin_node; the lowest clause-space energy wins. @p cp is
     * null exactly for an empty problem (no draws, empty sample).
     */
    AnnealSample run(const qubo::EncodedProblem &problem,
                     std::shared_ptr<const AnnealCompiled> cp);

    /** Gaussian control noise on a programmed coefficient. */
    double perturb(double value, double range);

    /** Compile (or fetch from @p slot) the embedded physical form. */
    std::shared_ptr<const AnnealCompiled>
    compiledEmbedded(const qubo::EncodedProblem &problem,
                     const embed::Embedding &embedding,
                     const embed::CompiledSlot *slot);

    /** Compile (or fetch from @p slot) the logical form. */
    std::shared_ptr<const AnnealCompiled>
    compiledLogical(const qubo::EncodedProblem &problem,
                    const embed::CompiledSlot *slot);

    /**
     * Re-draw the control noise for one sample by replaying the
     * compiled schedule into the member buffers and pointing
     * @p sampler at them (no-op when coefficient_sigma is zero —
     * the seed-identical RNG stream depends on drawing nothing).
     */
    void applyNoise(const AnnealCompiled &cp, SaSampler &sampler);

    const chimera::ChimeraGraph &graph_;
    Options opts_;
    Rng rng_;
    SaStats run_stats_;
    const StopToken *stop_ = nullptr;

    /** Per-sample noisy coefficient buffers (capacity reused). */
    std::vector<double> noisy_h_;
    std::vector<double> noisy_w_;
};

} // namespace hyqsat::anneal

#endif // HYQSAT_ANNEAL_ANNEALER_H
