/**
 * @file
 * Determinism guard: the default synchronous depth-1 sampler path
 * must reproduce the pre-refactor (seed) solver bit for bit on a
 * fixed-seed suite. The golden table below was captured from the
 * blocking per-iteration loop before the pluggable sampler interface
 * landed; any change to RNG call ordering, sample scheduling or
 * warm-up accounting shows up here as a mismatch. A second table pins
 * simplify Light/Full against the sync, 8-read `sa` and `logical`
 * samplers.
 */

#include <gtest/gtest.h>

#include <string>

#include "core/hybrid_solver.h"
#include "tests/sat/helpers.h"

namespace hyqsat::core {
namespace {

struct Golden
{
    int status; ///< 1 = SAT, 0 = UNSAT, -1 = UNDEF
    std::uint64_t iterations;
    std::uint64_t conflicts;
    int qa_samples;
    int warmup_iterations;
    int solved_by_qa;
    std::array<std::uint64_t, 4> strategies; ///< S1..S4
};

// Captured from the seed build (noise-free simulator, rounds 0-5).
const Golden kNoiseFreeGolden[] = {
    {0, 43, 36, 17, 17, 0, {0, 17, 0, 0}},
    {0, 60, 53, 19, 19, 0, {0, 19, 0, 0}},
    {0, 163, 146, 22, 22, 0, {0, 22, 0, 0}},
    {1, 71, 53, 24, 24, 0, {0, 24, 0, 0}},
    {0, 183, 157, 27, 27, 0, {0, 27, 0, 0}},
    {1, 350, 285, 30, 30, 0, {0, 30, 0, 0}},
};

// Captured from the seed build (noisy 2000Q model, rounds 0-2).
const Golden kNoisyGolden[] = {
    {0, 51, 43, 20, 20, 0, {0, 14, 5, 1}},
    {1, 110, 89, 20, 20, 0, {0, 11, 7, 2}},
    {1, 21, 4, 20, 20, 0, {0, 14, 6, 0}},
};

void
expectMatchesGolden(const HybridResult &r, const Golden &g,
                    const char *what, int round)
{
    const int status =
        r.status.isTrue() ? 1 : (r.status.isFalse() ? 0 : -1);
    EXPECT_EQ(status, g.status) << what << " round " << round;
    EXPECT_EQ(r.stats.iterations, g.iterations)
        << what << " round " << round;
    EXPECT_EQ(r.stats.conflicts, g.conflicts)
        << what << " round " << round;
    EXPECT_EQ(r.qa_samples, g.qa_samples)
        << what << " round " << round;
    EXPECT_EQ(r.warmup_iterations, g.warmup_iterations)
        << what << " round " << round;
    EXPECT_EQ(r.solved_by_qa ? 1 : 0, g.solved_by_qa)
        << what << " round " << round;
    for (int s = 1; s <= 4; ++s)
        EXPECT_EQ(r.strategy_count[s], g.strategies[s - 1])
            << what << " round " << round << " strategy " << s;
}

TEST(DeterminismGuard, SyncSamplerReproducesSeedNoiseFreeResults)
{
    for (int round = 0; round < 6; ++round) {
        Rng gen(1000 + round);
        const auto cnf = sat::testing::randomCnf(
            40 + 8 * round, 170 + 34 * round, 3, gen);
        HybridConfig cfg;
        cfg.annealer.noise = anneal::NoiseModel::noiseFree();
        cfg.annealer.greedy_finish = true;
        cfg.annealer.attempts = 2;
        cfg.seed = 0xd5eed + round;
        cfg.sampler = "sync";
        cfg.pipeline_depth = 1;
        HybridSolver solver(cfg);
        expectMatchesGolden(solver.solve(cnf),
                            kNoiseFreeGolden[round], "noise-free",
                            round);
    }
}

TEST(DeterminismGuard, SyncSamplerReproducesSeedNoisyResults)
{
    for (int round = 0; round < 3; ++round) {
        Rng gen(2000 + round);
        const auto cnf = sat::testing::randomCnf(50, 212, 3, gen);
        HybridConfig cfg;
        cfg.annealer.noise = anneal::NoiseModel::dwave2000q();
        cfg.annealer.greedy_finish = true;
        cfg.annealer.attempts = 1;
        cfg.seed = 0xabc + round;
        cfg.sampler = "sync";
        cfg.pipeline_depth = 1;
        HybridSolver solver(cfg);
        expectMatchesGolden(solver.solve(cnf), kNoisyGolden[round],
                            "noisy", round);
    }
}

/** One row of the simplify x sampler golden table. */
struct SimplifyGolden
{
    simplify::Strength strength;
    const char *sampler;
    int round;
    Golden golden;
};

// Captured before HybridSolver::solve became a one-shot Session
// (noisy 2000Q model, rounds 0-3): pins the simplify-on paths and the
// 8-read lockstep and logical samplers through the whole hybrid loop.
const SimplifyGolden kSimplifyGolden[] = {
    {simplify::Strength::Light, "sync", 0,
     {1, 26, 14, 16, 16, 0, {0, 10, 6, 0}}},
    {simplify::Strength::Light, "sync", 1,
     {0, 37, 34, 20, 20, 0, {0, 17, 3, 0}}},
    {simplify::Strength::Light, "sync", 2,
     {0, 103, 89, 25, 25, 0, {0, 22, 3, 0}}},
    {simplify::Strength::Light, "sync", 3,
     {1, 9, 1, 8, 8, 0, {0, 8, 0, 0}}},
    {simplify::Strength::Light, "sa", 0,
     {1, 17, 6, 16, 16, 0, {0, 16, 0, 0}}},
    {simplify::Strength::Light, "sa", 1,
     {0, 45, 37, 20, 20, 0, {0, 20, 0, 0}}},
    {simplify::Strength::Light, "sa", 2,
     {0, 53, 48, 25, 25, 0, {0, 25, 0, 0}}},
    {simplify::Strength::Light, "sa", 3,
     {1, 1, 0, 2, 2, 1, {1, 1, 0, 0}}},
    {simplify::Strength::Light, "logical", 0,
     {1, 29, 12, 16, 16, 0, {0, 16, 0, 0}}},
    {simplify::Strength::Light, "logical", 1,
     {0, 52, 47, 20, 20, 0, {0, 20, 0, 0}}},
    {simplify::Strength::Light, "logical", 2,
     {0, 72, 65, 25, 25, 0, {0, 25, 0, 0}}},
    {simplify::Strength::Light, "logical", 3,
     {1, 6, 1, 7, 7, 1, {1, 5, 1, 0}}},
    {simplify::Strength::Full, "sync", 0,
     {1, 25, 10, 16, 16, 0, {0, 13, 3, 0}}},
    {simplify::Strength::Full, "sync", 1,
     {0, 37, 34, 20, 20, 0, {0, 17, 3, 0}}},
    {simplify::Strength::Full, "sync", 2,
     {0, 66, 61, 25, 25, 0, {0, 19, 4, 2}}},
    {simplify::Strength::Full, "sync", 3,
     {1, 13, 0, 7, 7, 0, {0, 7, 0, 0}}},
    {simplify::Strength::Full, "sa", 0,
     {1, 27, 14, 16, 16, 0, {0, 16, 0, 0}}},
    {simplify::Strength::Full, "sa", 1,
     {0, 45, 37, 20, 20, 0, {0, 20, 0, 0}}},
    {simplify::Strength::Full, "sa", 2,
     {0, 71, 56, 25, 25, 0, {0, 25, 0, 0}}},
    {simplify::Strength::Full, "sa", 3,
     {1, 0, 0, 1, 1, 1, {1, 0, 0, 0}}},
    {simplify::Strength::Full, "logical", 0,
     {1, 34, 16, 16, 16, 0, {0, 16, 0, 0}}},
    {simplify::Strength::Full, "logical", 1,
     {0, 52, 47, 20, 20, 0, {0, 20, 0, 0}}},
    {simplify::Strength::Full, "logical", 2,
     {0, 80, 70, 25, 25, 0, {0, 25, 0, 0}}},
    {simplify::Strength::Full, "logical", 3,
     {1, 2, 0, 3, 3, 1, {1, 2, 0, 0}}},
};

// (vars, clauses) per round: SAT-leaning, two UNSAT-leaning, and an
// under-constrained one strategy 1 can finish.
const int kShapes[4][2] = {{40, 168}, {50, 230}, {60, 300}, {20, 50}};

HybridConfig
simplifyGoldenConfig(const SimplifyGolden &row)
{
    HybridConfig cfg;
    cfg.annealer.noise = anneal::NoiseModel::dwave2000q();
    cfg.annealer.greedy_finish = true;
    cfg.annealer.attempts = 1;
    cfg.seed = 0x5eed5 + static_cast<std::uint64_t>(row.round);
    cfg.sampler = row.sampler;
    cfg.pipeline_depth = 1;
    cfg.simplify_strength = row.strength;
    if (std::string(row.sampler) == "sa")
        cfg.num_reads = 8;
    return cfg;
}

TEST(DeterminismGuard, SimplifyAndSamplerMatrixReproducesGolden)
{
    for (const SimplifyGolden &row : kSimplifyGolden) {
        Rng gen(3000 + row.round);
        const auto cnf = sat::testing::randomCnf(
            kShapes[row.round][0], kShapes[row.round][1], 3, gen);
        HybridSolver solver(simplifyGoldenConfig(row));
        const std::string what =
            std::string(row.strength == simplify::Strength::Light
                            ? "light/"
                            : "full/") +
            row.sampler;
        expectMatchesGolden(solver.solve(cnf), row.golden,
                            what.c_str(), row.round);
    }
}

TEST(DeterminismGuard, RepeatedSolvesAreBitForBitIdentical)
{
    Rng gen(1234);
    const auto cnf = sat::testing::randomCnf(48, 204, 3, gen);
    HybridConfig cfg;
    cfg.annealer.noise = anneal::NoiseModel::dwave2000q();
    cfg.annealer.greedy_finish = true;
    cfg.seed = 0x900d;

    HybridSolver solver(cfg);
    const auto a = solver.solve(cnf);
    const auto b = solver.solve(cnf); // same solver, fresh sampler
    HybridSolver other(cfg);
    const auto c = other.solve(cnf);

    for (const auto *r : {&b, &c}) {
        EXPECT_EQ(a.status.isTrue(), r->status.isTrue());
        EXPECT_EQ(a.stats.iterations, r->stats.iterations);
        EXPECT_EQ(a.stats.conflicts, r->stats.conflicts);
        EXPECT_EQ(a.qa_samples, r->qa_samples);
        EXPECT_EQ(a.model, r->model);
        EXPECT_EQ(a.strategy_count, r->strategy_count);
    }
}

} // namespace
} // namespace hyqsat::core
