/**
 * @file
 * AVX-512 lockstep kernel. Same structure and bit-equality contract
 * as the AVX2 kernel, over 8-wide __m512d vectors — at the default
 * 8-lane batch the whole read set is ONE register, so every
 * elementwise pass runs once per proposal instead of twice, and the
 * per-lane decisions come out of the compare instructions as mask
 * registers directly (no movemask shuffling). Compiled in its own
 * translation unit with -mavx512f -mavx512dq -ffp-contract=off; the
 * dispatcher only calls in here after a runtime CPU check AND when
 * the padded lane count is a multiple of 8 (narrower batches keep
 * the lane-count-dependent uniform stream of the 4-lane quantum and
 * run on the AVX2 or scalar kernel instead).
 *
 * No FMA intrinsics anywhere — multiply and add stay separate
 * instructions so every lane computes bit-identically to
 * runLockstepScalar. The zero-temperature greedy decide runs through
 * the shared decideLanes(); the Metropolis decide is re-implemented
 * with 512-bit compares and table gathers, pinned to the shared rule
 * by the bit-equality tests in tests/anneal.
 */

#include <immintrin.h>

#include <algorithm>

#include "anneal/sa_batch_kernels.h"

namespace hyqsat::anneal::detail {

void
runLockstepAvx512(BatchCtx &ctx)
{
    const SaCompiled &c = *ctx.c;
    const int n = ctx.n;
    const int lanes = ctx.lanes;
    const int reads = ctx.reads;
    const int vecs = lanes / 8;
    const std::size_t num_groups = c.groups.size();
    const __m512d minus2 = _mm512_set1_pd(-2.0);
    const __m512d two = _mm512_set1_pd(2.0);
    const __m512d zero = _mm512_setzero_pd();
    const __m512d one = _mm512_set1_pd(1.0);
    const __m512i sign = _mm512_set1_epi64(
        static_cast<long long>(0x8000000000000000ull));

    // Real-lane mask bits (1 for lanes < reads) for 8-lane vector v.
    const auto realK = [&](int v) {
        const int live = std::clamp(reads - 8 * v, 0, 8);
        return static_cast<__mmask8>((1u << live) - 1u);
    };

    // Accept mask for a vector, as bits (from the ~0/0 words the
    // shared decide rule stores in ctx.mask).
    const auto acceptK = [&](int v) {
        const __m512i m = _mm512_loadu_si512(ctx.mask + 8 * v);
        return _mm512_test_epi64_mask(m, m);
    };

    /**
     * Metropolis decide for one proposal, all lanes: identical
     * decisions, stream consumption and counters to the shared
     * decideLanes(ctx, beta, true). Returns whether any lane
     * accepted.
     */
    const auto decideMetropolis = [&](double beta) {
        ++ctx.attempts;

        unsigned up = 0;
        for (int v = 0; v < vecs; ++v) {
            const __m512d vd = _mm512_loadu_pd(ctx.delta + 8 * v);
            up |= _mm512_mask_cmp_pd_mask(realK(v), vd, zero,
                                          _CMP_GT_OQ);
        }
        if (up == 0) {
            // Every real lane downhill or flat: all accept, and the
            // shared stream is untouched (the consumption rule).
            for (int v = 0; v < vecs; ++v) {
                const __mmask8 m = realK(v);
                _mm512_storeu_si512(
                    ctx.mask + 8 * v,
                    _mm512_maskz_set1_epi64(m, -1));
                _mm512_storeu_pd(
                    ctx.accepted + 8 * v,
                    _mm512_mask_add_pd(
                        _mm512_loadu_pd(ctx.accepted + 8 * v), m,
                        _mm512_loadu_pd(ctx.accepted + 8 * v), one));
            }
            return true;
        }

        ctx.rng->take(ctx.uniforms, static_cast<std::size_t>(lanes));
        const double *table = acceptTable();
        const __m512d vbeta = _mm512_set1_pd(beta);
        const __m512d vstep = _mm512_set1_pd(kAcceptTableStep);
        const __m512d vtop =
            _mm512_set1_pd(static_cast<double>(kAcceptTableN));
        unsigned any_ambiguous = 0;
        unsigned acc_bits = 0;
        for (int v = 0; v < vecs; ++v) {
            const __m512d vd = _mm512_loadu_pd(ctx.delta + 8 * v);
            const __m512d vu = _mm512_loadu_pd(ctx.uniforms + 8 * v);
            __m512d scaled =
                _mm512_mul_pd(_mm512_mul_pd(vbeta, vd), vstep);
            scaled = _mm512_max_pd(scaled, zero);
            scaled = _mm512_min_pd(scaled, vtop);
            const __m256i j = _mm512_cvttpd_epi32(scaled);
            const __m512d hi = _mm512_i32gather_pd(j, table, 8);
            const __m512d lo = _mm512_i32gather_pd(
                _mm256_add_epi32(j, _mm256_set1_epi32(1)), table, 8);
            const __mmask8 down =
                _mm512_cmp_pd_mask(vd, zero, _CMP_LE_OQ);
            const __mmask8 below_lo =
                _mm512_cmp_pd_mask(vu, lo, _CMP_LT_OQ);
            const __mmask8 below_hi =
                _mm512_cmp_pd_mask(vu, hi, _CMP_LT_OQ);
            const __mmask8 sure = down | below_lo;
            const __mmask8 m = realK(v) & sure;
            _mm512_storeu_si512(ctx.mask + 8 * v,
                                _mm512_maskz_set1_epi64(m, -1));
            _mm512_storeu_pd(
                ctx.accepted + 8 * v,
                _mm512_mask_add_pd(
                    _mm512_loadu_pd(ctx.accepted + 8 * v), m,
                    _mm512_loadu_pd(ctx.accepted + 8 * v), one));
            any_ambiguous |=
                static_cast<unsigned>(realK(v) & below_hi &
                                      static_cast<__mmask8>(~sure));
            acc_bits |= m;
        }
        if (any_ambiguous != 0) {
            // Rare: a uniform landed between the table bounds — pay
            // the exact exp(), via the shared fixup rule.
            acc_bits |= resolveAmbiguousLanes(ctx, beta) != 0;
        }
        return acc_bits != 0;
    };

    const auto flipDeltas = [&](int i) {
        const double *s =
            ctx.spins + static_cast<std::size_t>(i) * lanes;
        const double *f =
            ctx.fields + static_cast<std::size_t>(i) * lanes;
        for (int v = 0; v < vecs; ++v) {
            const __m512d vs = _mm512_loadu_pd(s + 8 * v);
            const __m512d vf = _mm512_loadu_pd(f + 8 * v);
            _mm512_storeu_pd(
                ctx.delta + 8 * v,
                _mm512_mul_pd(_mm512_mul_pd(vs, minus2), vf));
        }
    };

    // Masked update term t = (2 * s) & mask hoisted out of the
    // neighbor loop, as in the other kernels (the ×2 is exact, so
    // w * t rounds identically to (2w) * s; a zeroed lane is +0.0
    // either way since s is ±1).
    const auto loadUpdateTerm = [&](const double *s) {
        for (int v = 0; v < vecs; ++v) {
            const __m512d vs = _mm512_loadu_pd(s + 8 * v);
            _mm512_storeu_pd(
                ctx.tmp + 8 * v,
                _mm512_maskz_mul_pd(acceptK(v), two, vs));
        }
    };

    const auto scatterUpdates = [&](int i) {
        for (std::int32_t k = c.csr.row_ptr[i];
             k < c.csr.row_ptr[i + 1]; ++k) {
            const __m512d vw = _mm512_set1_pd(ctx.w[k]);
            double *fj = ctx.fields +
                         static_cast<std::size_t>(c.csr.col[k]) * lanes;
            for (int v = 0; v < vecs; ++v) {
                const __m512d upd = _mm512_mul_pd(
                    vw, _mm512_loadu_pd(ctx.tmp + 8 * v));
                _mm512_storeu_pd(
                    fj + 8 * v,
                    _mm512_sub_pd(_mm512_loadu_pd(fj + 8 * v), upd));
            }
        }
    };

    const auto flipSpins = [&](double *s) {
        for (int v = 0; v < vecs; ++v) {
            const __m512i vs = _mm512_loadu_si512(s + 8 * v);
            const __m512i m = _mm512_loadu_si512(ctx.mask + 8 * v);
            _mm512_storeu_si512(
                s + 8 * v,
                _mm512_xor_si512(vs, _mm512_and_si512(m, sign)));
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
            _mm512_storeu_pd(ctx.delta + 8 * v, _mm512_setzero_pd());
        for (int i : c.groups[static_cast<std::size_t>(g)]) {
            const double *s =
                ctx.spins + static_cast<std::size_t>(i) * lanes;
            const double *f =
                ctx.fields + static_cast<std::size_t>(i) * lanes;
            for (int v = 0; v < vecs; ++v) {
                const __m512d vd = _mm512_mul_pd(
                    _mm512_mul_pd(_mm512_loadu_pd(s + 8 * v), minus2),
                    _mm512_loadu_pd(f + 8 * v));
                _mm512_storeu_pd(
                    ctx.delta + 8 * v,
                    _mm512_add_pd(_mm512_loadu_pd(ctx.delta + 8 * v),
                                  vd));
            }
        }
        for (std::int32_t e = c.edge_ptr[g]; e < c.edge_ptr[g + 1];
             ++e) {
            const __m512d vw4 =
                _mm512_set1_pd(4.0 * ctx.w[c.edge_slot[e]]);
            const double *su =
                ctx.spins +
                static_cast<std::size_t>(c.edge_u[e]) * lanes;
            const double *sv =
                ctx.spins +
                static_cast<std::size_t>(c.edge_v[e]) * lanes;
            for (int v = 0; v < vecs; ++v) {
                const __m512d t = _mm512_mul_pd(
                    _mm512_loadu_pd(su + 8 * v),
                    _mm512_loadu_pd(sv + 8 * v));
                _mm512_storeu_pd(
                    ctx.delta + 8 * v,
                    _mm512_add_pd(_mm512_loadu_pd(ctx.delta + 8 * v),
                                  _mm512_mul_pd(t, vw4)));
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
            if (decideMetropolis(beta))
                applyFlip(i);
        }
        for (std::size_t g = 0; g < num_groups; ++g) {
            groupDeltas(static_cast<int>(g));
            if (decideMetropolis(beta))
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
