/**
 * @file
 * NEON lockstep kernel (aarch64). Same structure and bit-equality
 * contract as the AVX2 kernel, over 2-wide float64x2_t vectors: only
 * the elementwise arithmetic is vectorized, the per-lane decisions
 * run through the shared decideLanes(). Built without FMA
 * contraction (-ffp-contract=off) so vmulq/vaddq stay separate
 * instructions, matching the scalar fallback bit for bit.
 */

#include <arm_neon.h>

#include "anneal/sa_batch_kernels.h"

namespace hyqsat::anneal::detail {

namespace {

inline float64x2_t
andPd(float64x2_t a, uint64x2_t m)
{
    return vreinterpretq_f64_u64(
        vandq_u64(vreinterpretq_u64_f64(a), m));
}

inline float64x2_t
xorSignMasked(float64x2_t s, uint64x2_t m)
{
    const uint64x2_t sign = vdupq_n_u64(0x8000000000000000ull);
    return vreinterpretq_f64_u64(veorq_u64(
        vreinterpretq_u64_f64(s), vandq_u64(m, sign)));
}

} // namespace

void
runLockstepNeon(BatchCtx &ctx)
{
    const SaCompiled &c = *ctx.c;
    const int n = ctx.n;
    const int lanes = ctx.lanes;
    const int vecs = lanes / 2;
    const std::size_t num_groups = c.groups.size();
    const float64x2_t minus2 = vdupq_n_f64(-2.0);

    const auto maskVec = [&](int v) {
        return vld1q_u64(ctx.mask + 2 * v);
    };

    const auto flipDeltas = [&](int i) {
        const double *s =
            ctx.spins + static_cast<std::size_t>(i) * lanes;
        const double *f =
            ctx.fields + static_cast<std::size_t>(i) * lanes;
        for (int v = 0; v < vecs; ++v) {
            const float64x2_t vs = vld1q_f64(s + 2 * v);
            const float64x2_t vf = vld1q_f64(f + 2 * v);
            vst1q_f64(ctx.delta + 2 * v,
                      vmulq_f64(vmulq_f64(vs, minus2), vf));
        }
    };

    // Masked update term t = (2 * s) & mask hoisted out of the
    // neighbor loop, exactly as in the scalar and AVX2 kernels (the
    // ×2 is exact, so w * t rounds identically to (2w) * s).
    const float64x2_t two = vdupq_n_f64(2.0);

    const auto loadUpdateTerm = [&](const double *s) {
        for (int v = 0; v < vecs; ++v) {
            vst1q_f64(ctx.tmp + 2 * v,
                      andPd(vmulq_f64(two, vld1q_f64(s + 2 * v)),
                            maskVec(v)));
        }
    };

    const auto scatterUpdates = [&](int i) {
        for (std::int32_t k = c.csr.row_ptr[i];
             k < c.csr.row_ptr[i + 1]; ++k) {
            const float64x2_t vw = vdupq_n_f64(ctx.w[k]);
            double *fj = ctx.fields +
                         static_cast<std::size_t>(c.csr.col[k]) * lanes;
            for (int v = 0; v < vecs; ++v) {
                const float64x2_t upd =
                    vmulq_f64(vw, vld1q_f64(ctx.tmp + 2 * v));
                vst1q_f64(fj + 2 * v,
                          vsubq_f64(vld1q_f64(fj + 2 * v), upd));
            }
        }
    };

    const auto flipSpins = [&](double *s) {
        for (int v = 0; v < vecs; ++v) {
            vst1q_f64(s + 2 * v,
                      xorSignMasked(vld1q_f64(s + 2 * v), maskVec(v)));
        }
    };

    const auto applyFlip = [&](int i) {
        double *s = ctx.spins + static_cast<std::size_t>(i) * lanes;
        loadUpdateTerm(s);
        scatterUpdates(i);
        flipSpins(s);
    };

    const auto groupDeltas = [&](int g) {
        for (int v = 0; v < vecs; ++v)
            vst1q_f64(ctx.delta + 2 * v, vdupq_n_f64(0.0));
        for (int i : c.groups[static_cast<std::size_t>(g)]) {
            const double *s =
                ctx.spins + static_cast<std::size_t>(i) * lanes;
            const double *f =
                ctx.fields + static_cast<std::size_t>(i) * lanes;
            for (int v = 0; v < vecs; ++v) {
                const float64x2_t vd = vmulq_f64(
                    vmulq_f64(vld1q_f64(s + 2 * v), minus2),
                    vld1q_f64(f + 2 * v));
                vst1q_f64(ctx.delta + 2 * v,
                          vaddq_f64(vld1q_f64(ctx.delta + 2 * v), vd));
            }
        }
        for (std::int32_t e = c.edge_ptr[g]; e < c.edge_ptr[g + 1];
             ++e) {
            const float64x2_t vw4 =
                vdupq_n_f64(4.0 * ctx.w[c.edge_slot[e]]);
            const double *su =
                ctx.spins +
                static_cast<std::size_t>(c.edge_u[e]) * lanes;
            const double *sv =
                ctx.spins +
                static_cast<std::size_t>(c.edge_v[e]) * lanes;
            for (int v = 0; v < vecs; ++v) {
                const float64x2_t t = vmulq_f64(
                    vld1q_f64(su + 2 * v), vld1q_f64(sv + 2 * v));
                vst1q_f64(
                    ctx.delta + 2 * v,
                    vaddq_f64(vld1q_f64(ctx.delta + 2 * v),
                              vmulq_f64(t, vw4)));
            }
        }
    };

    const auto applyGroup = [&](int g) {
        for (int i : c.groups[static_cast<std::size_t>(g)]) {
            const double *s =
                ctx.spins + static_cast<std::size_t>(i) * lanes;
            loadUpdateTerm(s);
            scatterUpdates(i);
        }
        for (int i : c.groups[static_cast<std::size_t>(g)])
            flipSpins(ctx.spins + static_cast<std::size_t>(i) * lanes);
    };

    for (int sweep = 0; sweep < ctx.sweeps; ++sweep) {
        if (stopAt(ctx, sweep))
            return;
        const double beta = ctx.betas[sweep];
        for (int i = 0; i < n; ++i) {
            flipDeltas(i);
            if (decideLanes(ctx, beta, /*metropolis=*/true))
                applyFlip(i);
        }
        for (std::size_t g = 0; g < num_groups; ++g) {
            groupDeltas(static_cast<int>(g));
            if (decideLanes(ctx, beta, /*metropolis=*/true))
                applyGroup(static_cast<int>(g));
        }
    }

    if (ctx.greedy) {
        bool improved = true;
        int guard = 0;
        while (improved && guard++ < 4 * n) {
            if (stopAt(ctx, ctx.sweeps))
                return;
            improved = false;
            for (int i = 0; i < n; ++i) {
                flipDeltas(i);
                if (decideLanes(ctx, 0.0, /*metropolis=*/false)) {
                    applyFlip(i);
                    improved = true;
                }
            }
            for (std::size_t g = 0; g < num_groups; ++g) {
                groupDeltas(static_cast<int>(g));
                if (decideLanes(ctx, 0.0, /*metropolis=*/false)) {
                    applyGroup(static_cast<int>(g));
                    improved = true;
                }
            }
        }
    }
}

} // namespace hyqsat::anneal::detail
