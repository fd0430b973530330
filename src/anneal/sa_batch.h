/**
 * @file
 * Lockstep multi-read simulated annealing: N decorrelated reads
 * advance through ONE instruction stream over an SoA spin/local-field
 * layout, so num_reads pays for itself on a single core. This is the
 * only multi-read path: SaSampler::sampleAll runs every num_reads > 1
 * sample here.
 *
 * Layout: spin i of read r lives at [i * lanes + r] as a double
 * (+1.0 / -1.0); the cached local fields use the same stride. Every
 * proposal computes all lanes' dE with one vectorized pass, decides
 * each lane with a shared per-lane rule, then applies the accepted
 * lanes with masked updates — the rejected lanes see bitwise no-ops.
 *
 * Randomness: a counter-based splitmix64 generator (BlockRng) fills
 * uniforms in cache-sized blocks instead of one draw per uphill
 * move, and the Metropolis accept test is a table compare
 * (precomputed exp(-x) cutoffs) with an exact exp() fallback only in
 * the rare ambiguous band between the table's bounds.
 *
 * Two-level parallel scheduler (PR 10): num_reads is partitioned
 * into lockstep groups (SaOptions::reads_groups; auto = groups of up
 * to 8 lanes) and the groups fan out across the shared WorkPool, so
 * total throughput is roughly (vector speedup) x (core count). Each
 * group is an independent lockstep run over its own SoA buffers and
 * its own decorrelated BlockRng base derived purely from (seed,
 * group index); groups write disjoint result slots, so no merge
 * contention exists by construction.
 *
 * Determinism contract (the batched path's own golden, distinct from
 * the frozen scalar sa_reference.h contract): results are a pure
 * function of (base seed, model, groups, options) and are
 * bit-identical across ISAs — the AVX2/AVX-512/NEON kernels mirror
 * the scalar fallback's per-lane operation order exactly and are
 * built without FMA contraction — AND across thread counts: the
 * group partition and per-group seeds never depend on the pool size,
 * core count or scheduling interleaving, only on the options. Golden
 * tables in tests/anneal pin the BlockRng stream and the sampled
 * spins per seed.
 */

#ifndef HYQSAT_ANNEAL_SA_BATCH_H
#define HYQSAT_ANNEAL_SA_BATCH_H

#include <cstddef>
#include <cstdint>
#include <vector>

#include "anneal/sa_sampler.h"
#include "util/simd.h"

namespace hyqsat::anneal {

class WorkPool;

/**
 * Counter-based splitmix64 uniform stream with block refill. Word k
 * of seed s is splitmix64_mix(s + (k+1) * golden); the sequential
 * take() interface serves them from a cache-sized buffer refilled in
 * one tight (auto-vectorizable) loop. Counter addressing keeps the
 * stream random-access for golden tests and makes the draw order
 * independent of block boundaries.
 */
class BlockRng
{
  public:
    static constexpr std::size_t kBlock = 1024;

    explicit BlockRng(std::uint64_t seed) : seed_(seed) {}

    /** Raw 64-bit word at stream position @p index. */
    std::uint64_t
    wordAt(std::uint64_t index) const
    {
        std::uint64_t z = seed_ + (index + 1) * 0x9e3779b97f4a7c15ull;
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        return z ^ (z >> 31);
    }

    /** Uniform in [0, 1) at stream position @p index. */
    double
    uniformAt(std::uint64_t index) const
    {
        return static_cast<double>(wordAt(index) >> 11) * 0x1.0p-53;
    }

    /**
     * Copy the next @p count uniforms of the sequential stream into
     * @p out, refilling the block buffer as needed. count must be
     * <= kBlock. (Defined out of line in the portable TU so the
     * AVX2/NEON kernel TUs never emit their own — ISA-specialized —
     * copy of the refill loop; see sa_batch_kernels.h.)
     */
    void take(double *out, std::size_t count);

    /** Stream position of the next sequential draw. */
    std::uint64_t cursor() const { return base_ + pos_; }

  private:
    void refill();

    std::uint64_t seed_;
    std::uint64_t base_ = 0; ///< stream index of buf_[0]
    std::size_t filled_ = 0;
    std::size_t pos_ = 0;
    double buf_[kBlock];
};

/**
 * Number of parallel lockstep groups a batched run of @p reads reads
 * uses under @p reads_groups (SaOptions::reads_groups). Pure in its
 * arguments: auto (<= 0) means groups of up to 8 lanes, an explicit
 * request is clamped to [1, reads]. The machine's core count, pool
 * size and ISA never enter — that is the cross-thread-count half of
 * the determinism contract.
 */
inline int
lockstepGroupCount(int reads, int reads_groups)
{
    if (reads < 1)
        reads = 1;
    int g = reads_groups > 0 ? reads_groups : (reads + 7) / 8;
    return g < 1 ? 1 : (g > reads ? reads : g);
}

/**
 * Decorrelated BlockRng base of lockstep group @p group under run
 * seed @p base. Group 0 keeps @p base verbatim (a single-group run
 * is bit-identical to the pre-scheduler path); later groups get a
 * full splitmix64 finalizer over a distinct odd stride — a plain
 * golden-ratio offset would land inside the lane-init seed family
 * (BlockRng streams whose seeds differ by k * golden are the same
 * stream shifted by k words).
 */
inline std::uint64_t
lockstepGroupSeed(std::uint64_t base, int group)
{
    if (group == 0)
        return base;
    std::uint64_t z =
        base + static_cast<std::uint64_t>(group) * 0xd1342543de82ef95ull;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

/**
 * Run all reads of @p opts in lockstep over the compiled model and
 * return them in read order (not sorted), each with its own per-read
 * stats (reads=1; flips_attempted counts every proposal each lane of
 * its group saw). @p h / @p w are the coefficient views (never
 * null); @p base seeds group 0's shared Metropolis stream and
 * per-lane init streams (lane r of a group draws its initial spins
 * from BlockRng(group_seed + (r+1) * golden)); further groups use
 * lockstepGroupSeed(base, g). @p isa picks the kernel; an ISA this
 * binary or host cannot run silently degrades to the scalar
 * fallback, which is bit-identical by contract.
 *
 * With more than one group (lockstepGroupCount) the groups fan out
 * across @p pool (nullptr = the shared process pool), each writing
 * its own disjoint slice of the result vector; the pool only decides
 * WHERE a group runs, never what it computes, so results are
 * bit-identical for any pool size including a dedicated
 * WorkPool(0).
 */
std::vector<SaResult> sampleLockstep(const SaCompiled &compiled,
                                     const double *h, const double *w,
                                     const SaOptions &opts,
                                     std::uint64_t base, simd::Isa isa,
                                     WorkPool *pool = nullptr);

} // namespace hyqsat::anneal

#endif // HYQSAT_ANNEAL_SA_BATCH_H
