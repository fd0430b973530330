/**
 * @file
 * Seed-golden determinism tests for the annealing hot-loop rewrite.
 *
 * The pinned table below was captured from the pre-CSR sampler (the
 * implementation now frozen in sa_reference.h) on dyadic fixtures —
 * every coefficient a multiple of 0.25 — so all arithmetic is exact
 * and "identical" means identical: spin vector hash, energy, and the
 * caller Rng's post-sample stream position. Any change to proposal
 * order, acceptance rule, RNG consumption (draw iff dE > 0), or the
 * greedy finish shows up here as a hard failure.
 *
 * On top of the pinned table: bit-identity against the reference
 * sampler on continuous (non-dyadic) models — exercising the
 * boundary-band recompute guard — and num_reads=1 equivalence
 * through sampleAll (multi-read runs have their own lockstep
 * contract, pinned in test_sa_batch.cpp).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "anneal/sa_reference.h"
#include "anneal/sa_sampler.h"
#include "qubo/qubo.h"
#include "util/rng.h"

namespace hyqsat::anneal {
namespace {

std::uint64_t
fnvSpins(const std::vector<std::int8_t> &s)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (std::int8_t v : s) {
        h ^= static_cast<std::uint8_t>(v);
        h *= 0x100000001b3ull;
    }
    return h;
}

/**
 * Dyadic random Ising model (all coefficients multiples of 0.25, so
 * every energy/delta is exact in binary floating point); optionally
 * chains of 3 registered as groups, with ferromagnetic -1.0 chain
 * couplings, matching the embedded-problem shape.
 */
qubo::IsingModel
dyadicModel(int n, int edges, std::uint64_t seed,
            std::vector<std::vector<int>> *groups_out)
{
    Rng rng(seed);
    qubo::IsingModel m(n);
    m.addOffset(static_cast<double>(rng.range(-8, 8)) * 0.25);
    for (int i = 0; i < n; ++i)
        m.addField(i, static_cast<double>(rng.range(-8, 8)) * 0.25);
    for (int e = 0; e < edges; ++e) {
        const int i = static_cast<int>(rng.below(n));
        const int j = static_cast<int>(rng.below(n));
        if (i == j)
            continue;
        m.addCoupling(i, j,
                      static_cast<double>(rng.range(-4, 4)) * 0.25);
    }
    if (groups_out) {
        for (int k = 0; 3 * k + 2 < n && k < n / 5; ++k) {
            const int a = 3 * k, b = 3 * k + 1, c = 3 * k + 2;
            groups_out->push_back({a, b, c});
            m.addCoupling(a, b, -1.0);
            m.addCoupling(b, c, -1.0);
        }
    }
    return m;
}

/** Continuous-coefficient model: exercises the boundary-band guard. */
qubo::IsingModel
continuousModel(int n, int edges, std::uint64_t seed,
                std::vector<std::vector<int>> *groups_out)
{
    Rng rng(seed);
    qubo::IsingModel m(n);
    m.addOffset(rng.uniform() * 2.0 - 1.0);
    for (int i = 0; i < n; ++i)
        m.addField(i, rng.uniform() * 2.0 - 1.0);
    for (int e = 0; e < edges; ++e) {
        const int i = static_cast<int>(rng.below(n));
        const int j = static_cast<int>(rng.below(n));
        if (i == j)
            continue;
        m.addCoupling(i, j, rng.uniform() - 0.5);
    }
    if (groups_out) {
        for (int k = 0; 3 * k + 2 < n && k < n / 5; ++k) {
            const int a = 3 * k, b = 3 * k + 1, c = 3 * k + 2;
            groups_out->push_back({a, b, c});
            m.addCoupling(a, b, -1.0);
            m.addCoupling(b, c, -1.0);
        }
    }
    return m;
}

struct GoldenRow
{
    int cfg;
    int rep;
    std::uint64_t spins_fnv;
    double energy;
    std::uint64_t rng_next; ///< rng.next() right after the sample
};

struct GoldenCfg
{
    int n;
    int edges;
    std::uint64_t mseed;
    bool groups;
    int sweeps;
    bool greedy;
};

constexpr GoldenCfg kGoldenCfgs[] = {
    {24, 72, 0xD1AD1C01ull, false, 64, false},
    {24, 72, 0xD1AD1C01ull, false, 64, true},
    {30, 90, 0xD1AD1C02ull, true, 64, false},
    {30, 90, 0xD1AD1C02ull, true, 64, true},
};

/**
 * Captured from the pre-rewrite sampler (commit before the CSR hot
 * loop landed) with tools run against the seed build — do NOT
 * regenerate from the current sampler; the whole point is that these
 * survive the rewrite unchanged.
 */
constexpr GoldenRow kGoldenRows[] = {
    {0, 0, 0x1a7d6b7e3a6968a9ull, -36.75, 0x0e3f8b6514208a6full},
    {0, 1, 0xb17c093732c7a9b1ull, -35.25, 0xd3c0cd9d40bb3d97ull},
    {0, 2, 0x1c6e13740133f839ull, -37.25, 0x2e70d137e6097aacull},
    {1, 0, 0x1a7d6b7e3a6968a9ull, -36.75, 0x0e3f8b6514208a6full},
    {1, 1, 0xb17c093732c7a9b1ull, -35.25, 0xd3c0cd9d40bb3d97ull},
    {1, 2, 0x1c6e13740133f839ull, -37.25, 0x2e70d137e6097aacull},
    {2, 0, 0x1bf508e2632ebf95ull, -49, 0x79340aafa8dfafd4ull},
    {2, 1, 0x1bf508e2632ebf95ull, -49, 0x61f09762ab037511ull},
    {2, 2, 0x1bf508e2632ebf95ull, -49, 0x60ab423546757ceaull},
    {3, 0, 0x1bf508e2632ebf95ull, -49, 0x79340aafa8dfafd4ull},
    {3, 1, 0x1bf508e2632ebf95ull, -49, 0x61f09762ab037511ull},
    {3, 2, 0x1bf508e2632ebf95ull, -49, 0x60ab423546757ceaull},
};

Rng
repRng(int rep)
{
    return Rng(0xA11CEull + static_cast<std::uint64_t>(rep) * 7919);
}

TEST(SaGolden, PinnedSeedTableSurvivesRewrite)
{
    for (const GoldenRow &row : kGoldenRows) {
        const GoldenCfg &cfg = kGoldenCfgs[row.cfg];
        std::vector<std::vector<int>> groups;
        const auto model = dyadicModel(cfg.n, cfg.edges, cfg.mseed,
                                       cfg.groups ? &groups : nullptr);
        SaSampler sampler(model);
        if (cfg.groups)
            sampler.setGroups(groups);
        SaOptions opts;
        opts.sweeps = cfg.sweeps;
        opts.greedy_finish = cfg.greedy;

        Rng rng = repRng(row.rep);
        const SaResult r = sampler.sample(opts, rng);
        EXPECT_EQ(fnvSpins(r.spins), row.spins_fnv)
            << "cfg " << row.cfg << " rep " << row.rep;
        // Dyadic coefficients: the running energy must be EXACT.
        EXPECT_EQ(r.energy, row.energy)
            << "cfg " << row.cfg << " rep " << row.rep;
        EXPECT_EQ(rng.next(), row.rng_next)
            << "cfg " << row.cfg << " rep " << row.rep
            << " (RNG stream position diverged)";
    }
}

TEST(SaGolden, BitIdenticalToReferenceOnContinuousModels)
{
    // Continuous coefficients make the incremental local fields drift
    // from fresh sums in the last ulps; the boundary-band guard must
    // keep every accept/reject decision (and so the spins and the
    // draw stream) identical to the reference all the same.
    for (std::uint64_t mseed = 1; mseed <= 6; ++mseed) {
        const bool with_groups = (mseed % 2) == 0;
        std::vector<std::vector<int>> groups;
        const auto model =
            continuousModel(26, 80, 0xC0FFEEull + mseed * 131,
                            with_groups ? &groups : nullptr);
        SaSampler sampler(model);
        SaReferenceSampler reference(model);
        if (with_groups) {
            sampler.setGroups(groups);
            reference.setGroups(groups);
        }
        for (const bool greedy : {false, true}) {
            SaOptions opts;
            opts.sweeps = 48;
            opts.greedy_finish = greedy;
            Rng rng_new(0xBEEF00ull + mseed);
            Rng rng_ref(0xBEEF00ull + mseed);
            const SaResult got = sampler.sample(opts, rng_new);
            const SaResult want = reference.sample(opts, rng_ref);
            ASSERT_EQ(got.spins, want.spins)
                << "mseed " << mseed << " greedy " << greedy;
            EXPECT_EQ(rng_new.next(), rng_ref.next())
                << "mseed " << mseed << " greedy " << greedy;
            // The running energy is accumulated delta by delta, the
            // reference re-scans at the end: on continuous models
            // they agree to rounding only (the dyadic golden table
            // pins the exact-arithmetic case).
            EXPECT_NEAR(got.energy, want.energy, 1e-9);
            EXPECT_NEAR(got.energy, sampler.energy(got.spins), 1e-9);
        }
    }
}

TEST(SaGolden, StatsCountWork)
{
    const auto model = dyadicModel(20, 60, 0xD1AD1C05ull, nullptr);
    SaSampler sampler(model);
    SaOptions opts;
    opts.sweeps = 32;
    Rng rng(7);
    const SaResult r = sampler.sample(opts, rng);
    EXPECT_EQ(r.stats.sweeps, 32u);
    EXPECT_EQ(r.stats.reads, 1u);
    // Every sweep proposes every spin at least once.
    EXPECT_GE(r.stats.flips_attempted, 32u * 20u);
    EXPECT_GT(r.stats.flips_accepted, 0u);
    EXPECT_LE(r.stats.flips_accepted, r.stats.flips_attempted);
}

// ----------------------------------------------------------------------
// num_reads = 1 through sampleAll
// ----------------------------------------------------------------------

TEST(SaGolden, NumReadsOneIsIdenticalThroughSampleAll)
{
    const auto model = dyadicModel(24, 72, 0xD1AD1C01ull, nullptr);
    SaSampler sampler(model);
    SaOptions opts;
    opts.sweeps = 64;
    Rng a(42), b(42);
    const SaResult direct = sampler.sample(opts, a);
    const auto all = sampler.sampleAll(opts, b);
    ASSERT_EQ(all.size(), 1u);
    EXPECT_EQ(direct.spins, all.front().spins);
    EXPECT_EQ(direct.energy, all.front().energy);
    EXPECT_EQ(a.next(), b.next());
}

} // namespace
} // namespace hyqsat::anneal
