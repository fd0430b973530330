/**
 * @file
 * Internal interface between the lockstep orchestrator
 * (sa_batch.cpp) and its per-ISA kernels. The vector kernels live in
 * separate translation units compiled with the matching -m flags
 * (and -ffp-contract=off, like the scalar TU: FMA contraction would
 * break the cross-ISA bit-equality contract); everything ISA-neutral
 * that both sides must agree on bit for bit — the accept rule, the
 * uniform-consumption rule, the counters — lives here as shared
 * code so the kernels cannot drift apart.
 *
 * The shared helpers are `static`, not `inline`: an inline (comdat)
 * function compiled inside the -mavx2 TU could win the linker's
 * deduplication and leak AVX2 instructions into the portable call
 * sites. Internal linkage gives every TU its own copy, compiled
 * with that TU's own flags — same semantics, no ISA leak.
 */

#ifndef HYQSAT_ANNEAL_SA_BATCH_KERNELS_H
#define HYQSAT_ANNEAL_SA_BATCH_KERNELS_H

#include <bit>
#include <cmath>
#include <cstdint>

#include "anneal/sa_batch.h"
#include "anneal/sa_sampler.h"
#include "util/cancel.h"

namespace hyqsat::anneal::detail {

/** v with its bits ANDed against an accept mask (0 or ~0). */
static inline double
maskBits(double v, std::uint64_t m)
{
    return std::bit_cast<double>(std::bit_cast<std::uint64_t>(v) & m);
}

/** Spin negated where the mask accepts (sign-bit xor). */
static inline double
flipSignMasked(double s, std::uint64_t m)
{
    return std::bit_cast<double>(std::bit_cast<std::uint64_t>(s) ^
                                 (m & 0x8000000000000000ull));
}

/** Lane padding quantum (one AVX2 register of doubles). */
inline constexpr int kLaneQuantum = 4;

/**
 * Accept-threshold table resolution: exp(-x) sampled every 1/64 up
 * to x = 32 (beyond which the bound pair degenerates to
 * [0, exp(-32)) and almost every uniform rejects on the compare).
 */
inline constexpr int kAcceptTableN = 2048;
inline constexpr double kAcceptTableStep = 64.0;

/**
 * exp(-j / 64) for j in [0, kAcceptTableN], plus a trailing 0.0 so
 * the clamped index always has a valid lower bound. Built once,
 * shared by every kernel TU (single definition in sa_batch.cpp).
 */
const double *acceptTable();

/**
 * Metropolis accept decision for an uphill proposal: bracket
 * exp(-x) between adjacent table entries; only a uniform landing
 * between the bounds pays for an exact exp(). x = beta * dE >= 0.
 * (Reference form of the rule; the kernels' decideLanes below
 * implements the same decision branch-free.)
 */
static inline bool
acceptUphill(double x, double u)
{
    const double scaled = x * kAcceptTableStep;
    const int j = scaled >= static_cast<double>(kAcceptTableN)
                      ? kAcceptTableN
                      : static_cast<int>(scaled);
    const double *table = acceptTable();
    if (u >= table[j])
        return false; // at/above the upper bound
    if (u < table[j + 1])
        return true; // below the lower bound
    return u < std::exp(-x);
}

/** Working state of one lockstep run (buffers owned by the caller). */
struct BatchCtx
{
    const SaCompiled *c = nullptr;
    const double *h = nullptr;
    const double *w = nullptr;

    int n = 0;     ///< spins
    int reads = 0; ///< real lanes
    int lanes = 0; ///< padded to a multiple of kLaneQuantum

    double *spins = nullptr;  ///< n * lanes SoA, +1.0 / -1.0
    double *fields = nullptr; ///< n * lanes SoA cached local fields

    const double *betas = nullptr; ///< per-sweep schedule
    int sweeps = 0;
    bool greedy = false;

    BlockRng *rng = nullptr; ///< shared Metropolis stream

    /** Polled once per sweep and greedy pass; nullptr = none. */
    const StopToken *stop = nullptr;

    // Per-lane scratch, all `lanes` wide.
    double *delta = nullptr;
    double *uniforms = nullptr;
    double *tmp = nullptr;         ///< masked-update term buffer
    std::uint64_t *mask = nullptr; ///< ~0ull accept / 0ull reject

    // Outputs.
    double *accepted = nullptr;  ///< per-lane acceptance counts
    std::uint64_t attempts = 0;  ///< proposals seen (per lane; equal
                                 ///< across lanes by lockstep)
    int sweeps_done = 0;         ///< sweeps run (< sweeps if stopped)
    bool stopped = false;        ///< the stop token ended the run
};

/**
 * Cancellation point of every kernel, polled before each sweep
 * (@p sweep = sweeps completed so far) and before each greedy pass
 * (@p sweep = ctx.sweeps): one relaxed load when a token is set,
 * nothing drawn. On a trip it latches ctx.stopped and the sweep
 * count, and the kernel returns with its state half-annealed.
 */
static inline bool
stopAt(BatchCtx &ctx, int sweep)
{
    if (ctx.stop == nullptr || !ctx.stop->stopRequested())
        return false;
    ctx.stopped = true;
    ctx.sweeps_done = sweep;
    return true;
}

/**
 * Exact-exp fixup for the rare lanes whose uniform landed BETWEEN
 * the accept table's bracket bounds (pass 1 left their mask 0).
 * Recomputes the band test per lane — the rare path pays a few
 * redundant compares so the hot pass-1 loops (scalar and vector
 * alike) only have to track ONE "some lane is ambiguous" flag
 * instead of a per-lane bitmask that would cap the lane count at
 * the word width. Returns ~0 if any lane flipped to accept, 0
 * otherwise. Decisions identical to acceptUphill(), lane by lane.
 */
static inline std::uint64_t
resolveAmbiguousLanes(BatchCtx &ctx, double beta)
{
    const double *table = acceptTable();
    std::uint64_t flipped = 0;
    for (int r = 0; r < ctx.reads; ++r) {
        if (ctx.mask[r] != 0)
            continue;
        const double d = ctx.delta[r];
        if (!(d > 0.0))
            continue; // downhill lanes were decided in pass 1
        const double u = ctx.uniforms[r];
        const double scaled = (beta * d) * kAcceptTableStep;
        const int j =
            scaled >= static_cast<double>(kAcceptTableN)
                ? kAcceptTableN
                : static_cast<int>(scaled);
        if (u < table[j] && u >= table[j + 1] &&
            u < std::exp(-beta * d)) {
            ctx.mask[r] = ~0ull;
            ctx.accepted[r] += 1.0;
            flipped = ~0ull;
        }
    }
    return flipped;
}

/**
 * Decide every lane of the proposal whose per-lane dE sits in
 * ctx.delta: fill ctx.mask, bump the per-lane acceptance counters
 * and ctx.attempts, and return whether any lane accepted.
 *
 * The shared-stream consumption rule (part of the batched golden
 * contract): `lanes` uniforms are taken if and only if at least one
 * REAL lane is uphill. Padded lanes never consume, never accept.
 * Metropolis proposals accept dE <= 0 outright; the zero-temperature
 * greedy finish (@p metropolis false) accepts only dE < 0 and draws
 * nothing.
 */
static inline bool
decideLanes(BatchCtx &ctx, double beta, bool metropolis)
{
    const int lanes = ctx.lanes;
    const int reads = ctx.reads;
    ++ctx.attempts;

    if (!metropolis) {
        // Zero-temperature greedy finish: strict descent, no draws.
        bool any_accept = false;
        for (int r = 0; r < lanes; ++r) {
            const bool accept = r < reads && ctx.delta[r] < 0.0;
            ctx.mask[r] = accept ? ~0ull : 0ull;
            ctx.accepted[r] += accept ? 1.0 : 0.0;
            any_accept |= accept;
        }
        return any_accept;
    }

    bool any_uphill = false;
    for (int r = 0; r < reads; ++r)
        any_uphill |= ctx.delta[r] > 0.0;
    if (!any_uphill) {
        // Every real lane is downhill or flat: all accept, and the
        // shared stream is untouched (the consumption rule).
        for (int r = 0; r < lanes; ++r) {
            const bool accept = r < reads;
            ctx.mask[r] = accept ? ~0ull : 0ull;
            ctx.accepted[r] += accept ? 1.0 : 0.0;
        }
        return true;
    }

    ctx.rng->take(ctx.uniforms, static_cast<std::size_t>(lanes));
    const double *table = acceptTable();
    // Pass 1, genuinely branchless (this loop runs once per proposal
    // for every lane — one mispredicted per-lane branch here costs
    // more than all the vector arithmetic around it, so everything
    // is bitwise bool math and min/max-style clamps, never || / ?:
    // on lane data): decide each lane from the exp(-x) bracket table
    // alone, deferring the rare uniform that lands BETWEEN the
    // bounds to the exact-exp fixup. Identical decisions to
    // acceptUphill(), lane by lane.
    unsigned ambiguous = 0;
    std::uint64_t mask_or = 0;
    for (int r = 0; r < lanes; ++r) {
        const double d = ctx.delta[r];
        const double u = ctx.uniforms[r];
        double scaled = (beta * d) * kAcceptTableStep;
        scaled = scaled > 0.0 ? scaled : 0.0; // maxsd, not a branch
        scaled = scaled < static_cast<double>(kAcceptTableN)
                     ? scaled
                     : static_cast<double>(kAcceptTableN); // minsd
        const int j = static_cast<int>(scaled);
        const unsigned down = static_cast<unsigned>(d <= 0.0);
        const unsigned real = static_cast<unsigned>(r < reads);
        const unsigned below_lo =
            static_cast<unsigned>(u < table[j + 1]);
        const unsigned below_hi = static_cast<unsigned>(u < table[j]);
        const unsigned sure = down | below_lo;
        const std::uint64_t m =
            ~(static_cast<std::uint64_t>(real & sure) - 1ull);
        ctx.mask[r] = m;
        mask_or |= m;
        ctx.accepted[r] += maskBits(1.0, m);
        ambiguous |= real & below_hi & (sure ^ 1u);
    }
    if (ambiguous != 0)
        mask_or |= resolveAmbiguousLanes(ctx, beta);
    return mask_or != 0;
}

/**
 * Run the full anneal (sweeps, block moves, optional greedy finish)
 * over ctx with the scalar fallback kernel. Always compiled.
 */
void runLockstepScalar(BatchCtx &ctx);

#if defined(HYQSAT_HAVE_AVX2_KERNEL)
/** AVX2 kernel (separate TU, -mavx2): bit-identical to scalar. */
void runLockstepAvx2(BatchCtx &ctx);
#endif

#if defined(HYQSAT_HAVE_AVX512_KERNEL)
/**
 * AVX-512 kernel (separate TU, -mavx512f -mavx512dq): bit-identical
 * to scalar. Only dispatched when lanes is a multiple of 8.
 */
void runLockstepAvx512(BatchCtx &ctx);
#endif

#if defined(HYQSAT_HAVE_NEON_KERNEL)
/** NEON kernel (separate TU): bit-identical to scalar. */
void runLockstepNeon(BatchCtx &ctx);
#endif

} // namespace hyqsat::anneal::detail

#endif // HYQSAT_ANNEAL_SA_BATCH_KERNELS_H
