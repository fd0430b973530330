#include <gtest/gtest.h>

#include <set>
#include <sstream>

#include "core/hybrid_solver.h"
#include "gen/random_sat.h"
#include "portfolio/portfolio.h"
#include "sat/brute_force.h"
#include "tests/sat/helpers.h"
#include "util/metrics.h"

namespace hyqsat::portfolio {
namespace {

core::HybridConfig
noiseFreeConfig(std::uint64_t seed = 0x12345)
{
    core::HybridConfig cfg;
    cfg.annealer.noise = anneal::NoiseModel::noiseFree();
    cfg.annealer.greedy_finish = true;
    cfg.annealer.attempts = 2;
    cfg.seed = seed;
    return cfg;
}

/** Exhaustively contradictory formula: all 8 sign patterns over 3
 *  variables. Unsatisfiable by construction, needs real conflicts. */
sat::Cnf
exhaustiveUnsat()
{
    sat::Cnf cnf(3);
    for (int mask = 0; mask < 8; ++mask) {
        cnf.addClause({sat::mkLit(0, mask & 1), sat::mkLit(1, mask & 2),
                       sat::mkLit(2, mask & 4)});
    }
    return cnf;
}

TEST(PortfolioSolver, OneWorkerReproducesSingleSolverBitForBit)
{
    // ISSUE 2 determinism satellite: a 1-worker portfolio with a
    // fixed seed must be indistinguishable from HybridSolver alone.
    Rng gen(21);
    for (int round = 0; round < 3; ++round) {
        const auto cnf = sat::testing::randomCnf(50, 212, 3, gen);
        const auto base = noiseFreeConfig(42 + round);

        core::HybridSolver single(base);
        const auto expect = single.solve(cnf);

        PortfolioOptions opts;
        opts.base = base;
        opts.num_workers = 1;
        PortfolioSolver portfolio(opts);
        const auto got = portfolio.solve(cnf);

        ASSERT_EQ(got.status, expect.status) << "round " << round;
        EXPECT_EQ(got.model, expect.model);
        EXPECT_EQ(got.winner, 0);
        const auto &w = got.winner_result;
        EXPECT_EQ(w.stats.decisions, expect.stats.decisions);
        EXPECT_EQ(w.stats.propagations, expect.stats.propagations);
        EXPECT_EQ(w.stats.conflicts, expect.stats.conflicts);
        EXPECT_EQ(w.stats.restarts, expect.stats.restarts);
        EXPECT_EQ(w.stats.iterations, expect.stats.iterations);
        EXPECT_EQ(w.qa_samples, expect.qa_samples);
        EXPECT_EQ(w.warmup_iterations, expect.warmup_iterations);
        EXPECT_EQ(w.strategy_count, expect.strategy_count);
    }
}

TEST(PortfolioSolver, OneWorkerIsRepeatable)
{
    Rng gen(22);
    const auto cnf = sat::testing::randomCnf(40, 170, 3, gen);
    PortfolioOptions opts;
    opts.base = noiseFreeConfig(7);
    opts.num_workers = 1;
    PortfolioSolver solver(opts);
    const auto a = solver.solve(cnf);
    const auto b = solver.solve(cnf);
    EXPECT_EQ(a.status, b.status);
    EXPECT_EQ(a.model, b.model);
    EXPECT_EQ(a.winner_result.stats.iterations,
              b.winner_result.stats.iterations);
}

TEST(PortfolioSolver, FourWorkersAgreeWithBruteForce)
{
    Rng gen(23);
    for (int round = 0; round < 4; ++round) {
        const auto cnf = sat::testing::randomCnf(14, 58, 3, gen);
        const bool expected = sat::bruteForceSolve(cnf).satisfiable;

        PortfolioOptions opts;
        opts.base = noiseFreeConfig(round);
        opts.num_workers = 4;
        PortfolioSolver solver(opts);
        const auto result = solver.solve(cnf);

        ASSERT_FALSE(result.status.isUndef()) << "round " << round;
        EXPECT_EQ(result.status.isTrue(), expected) << "round " << round;
        EXPECT_GE(result.winner, 0);
        EXPECT_FALSE(result.winner_label.empty());
        if (result.status.isTrue()) {
            EXPECT_TRUE(cnf.eval(result.model));
        }
        ASSERT_EQ(result.workers.size(), 4u);
        for (const auto &w : result.workers) {
            // A loser may be undecided, but nobody may contradict the
            // winner.
            if (!w.status.isUndef()) {
                EXPECT_EQ(w.status.isTrue(), expected);
            }
        }
    }
}

TEST(PortfolioSolver, FourWorkersRefuteUnsat)
{
    PortfolioOptions opts;
    opts.base = noiseFreeConfig();
    opts.num_workers = 4;
    PortfolioSolver solver(opts);
    const auto result = solver.solve(exhaustiveUnsat());
    EXPECT_TRUE(result.status.isFalse());
    EXPECT_GE(result.winner, 0);
}

TEST(PortfolioSolver, SatModelVerifiedOnMediumInstance)
{
    Rng gen(24);
    const auto cnf = gen::plantedRandom3Sat(60, 240, gen);
    PortfolioOptions opts;
    opts.base = noiseFreeConfig(99);
    opts.num_workers = 3;
    PortfolioSolver solver(opts);
    const auto result = solver.solve(cnf);
    ASSERT_TRUE(result.status.isTrue());
    EXPECT_TRUE(cnf.eval(result.model));
    // Cancellation latency is recorded whenever somebody wins. The
    // strict < 50 ms acceptance bar is measured by
    // bench/portfolio_scaling on an unloaded machine; here (possibly
    // under sanitizers) only a lenient sanity bound is asserted.
    EXPECT_GE(result.cancel_latency_s, 0.0);
    EXPECT_LT(result.cancel_latency_s, 5.0);
}

TEST(PortfolioSolver, ConflictBudgetYieldsUndef)
{
    Rng gen(25);
    const auto cnf = gen::uniformRandom3Sat(16, 130, gen); // unsat
    ASSERT_FALSE(sat::bruteForceSolve(cnf).satisfiable);

    PortfolioOptions opts;
    opts.base = noiseFreeConfig();
    opts.base.warmup_override = 0; // plain CDCL: budget is the limit
    opts.num_workers = 2;
    opts.conflict_budget = 1;
    PortfolioSolver solver(opts);
    const auto result = solver.solve(cnf);
    EXPECT_TRUE(result.status.isUndef());
    EXPECT_EQ(result.winner, -1);
    EXPECT_FALSE(result.timed_out);
}

TEST(PortfolioSolver, ExternalStopCancelsRace)
{
    StopToken stop;
    stop.requestStop(); // tripped before the race starts

    Rng gen(26);
    const auto cnf = sat::testing::randomCnf(60, 255, 3, gen);
    PortfolioOptions opts;
    opts.base = noiseFreeConfig();
    opts.num_workers = 2;
    opts.external_stop = &stop;
    PortfolioSolver solver(opts);
    const auto result = solver.solve(cnf);
    EXPECT_TRUE(result.status.isUndef());
    EXPECT_TRUE(result.external_stopped);
    EXPECT_FALSE(result.timed_out);
}

TEST(PortfolioSolver, TimeoutEnforcedOnHardInstance)
{
    // Near-threshold instance large enough that deciding it inside
    // the budget is very unlikely; if a worker still manages to, the
    // answer must simply be sound (the timeout path is then untested
    // on this seed, which is acceptable).
    Rng gen(27);
    const auto cnf = gen::uniformRandom3Sat(450, 1917, gen);
    PortfolioOptions opts;
    opts.base = noiseFreeConfig();
    opts.base.warmup_override = 4;
    opts.num_workers = 2;
    opts.timeout_s = 0.05;
    PortfolioSolver solver(opts);
    const auto result = solver.solve(cnf);
    if (result.status.isUndef()) {
        EXPECT_TRUE(result.timed_out);
        EXPECT_EQ(result.winner, -1);
    } else if (result.status.isTrue()) {
        EXPECT_TRUE(cnf.eval(result.model));
    }
    // Cooperative cancellation must keep the overrun bounded even on
    // slow sanitizer builds.
    EXPECT_LT(result.wall_s, 30.0);
}

TEST(PortfolioSolver, SharingStaysSound)
{
    // Clause sharing on, several rounds: answers must still match
    // brute force (imports are root-level and soundness-preserving).
    Rng gen(28);
    for (int round = 0; round < 3; ++round) {
        const auto cnf = sat::testing::randomCnf(40, 170, 3, gen);
        // Brute force is hopeless at 40 vars; classic CDCL is the
        // independent reference.
        const bool expected =
            core::solveClassicCdcl(cnf,
                                   sat::SolverOptions::minisatStyle())
                .status.isTrue();
        PortfolioOptions opts;
        opts.base = noiseFreeConfig(round);
        opts.num_workers = 3;
        opts.share_clauses = true;
        opts.share_polarity = true;
        PortfolioSolver solver(opts);
        const auto result = solver.solve(cnf);
        ASSERT_FALSE(result.status.isUndef());
        EXPECT_EQ(result.status.isTrue(), expected) << "round " << round;
        const auto &ex = result.exchange;
        EXPECT_LE(ex.fetched, ex.published * 2);
    }
}

TEST(PortfolioSolver, DiversifyTableShape)
{
    const auto base = noiseFreeConfig(0xabcdef);
    const auto slate = PortfolioSolver::diversify(base, 9);
    ASSERT_EQ(slate.size(), 9u);

    // Slot 0 is the base config untouched (the determinism anchor).
    EXPECT_EQ(slate[0].hybrid.seed, base.seed);
    EXPECT_EQ(slate[0].hybrid.sampler, base.sampler);
    EXPECT_EQ(slate[0].hybrid.pipeline_depth, base.pipeline_depth);

    // Labels are unique and later slots carry decorrelated seeds.
    std::set<std::string> labels;
    for (const auto &w : slate)
        labels.insert(w.label);
    EXPECT_EQ(labels.size(), slate.size());
    for (std::size_t i = 1; i < slate.size(); ++i)
        EXPECT_NE(slate[i].hybrid.seed, base.seed) << "slot " << i;

    // The slate crosses sampler backends, not just seeds.
    std::set<std::string> samplers;
    for (const auto &w : slate)
        samplers.insert(w.hybrid.sampler);
    EXPECT_GE(samplers.size(), 3u);

    // Slot 4 is the best-of-N worker: at least 16 lockstep reads
    // per device sample.
    EXPECT_EQ(slate[4].label, "reads");
    EXPECT_GE(slate[4].hybrid.num_reads, 16);

    // Past the table the labels cycle with a #N suffix and fresh
    // seeds.
    const auto wide = PortfolioSolver::diversify(base, 11);
    ASSERT_EQ(wide.size(), 11u);
    EXPECT_EQ(wide[9].label, "base#1");
    EXPECT_EQ(wide[10].label, "cdcl#1");
    EXPECT_NE(wide[9].hybrid.seed, wide[0].hybrid.seed);
}

TEST(PortfolioSolver, ExplicitWorkerSlateRespected)
{
    Rng gen(29);
    const auto cnf = sat::testing::randomCnf(20, 85, 3, gen);
    PortfolioOptions opts;
    opts.base = noiseFreeConfig();
    opts.num_workers = 4; // ignored: explicit slate wins
    WorkerConfig only;
    only.label = "just-cdcl";
    only.hybrid = noiseFreeConfig(5);
    only.hybrid.warmup_override = 0;
    opts.workers = {only};
    PortfolioSolver solver(opts);
    const auto result = solver.solve(cnf);
    ASSERT_EQ(result.workers.size(), 1u);
    EXPECT_EQ(result.workers[0].label, "just-cdcl");
    EXPECT_FALSE(result.status.isUndef());
}

TEST(PortfolioSolver, MetricsRegistryRecordsRaceOutcome)
{
    Rng gen(31);
    const auto cnf = sat::testing::randomCnf(30, 124, 3, gen);

    MetricsRegistry registry;
    PortfolioOptions opts;
    opts.base = noiseFreeConfig();
    opts.num_workers = 2;
    opts.metrics = &registry;
    PortfolioSolver solver(opts);
    const auto result = solver.solve(cnf);
    ASSERT_FALSE(result.status.isUndef());

    // Portfolio-level counters land after the join.
    EXPECT_EQ(registry.counter("portfolio.races")->value(), 1u);
    EXPECT_EQ(registry.counter("portfolio.decided")->value(), 1u);
    EXPECT_EQ(registry
                  .counter("portfolio.wins." + result.winner_label)
                  ->value(),
              1u);
    EXPECT_EQ(registry.timer("portfolio.wall")->count(), 1u);

    // Per-worker registries merged: solver counters from every
    // raced worker accumulate here.
    EXPECT_GT(registry.counter("solver.decisions")->value(), 0u);
    EXPECT_GE(registry.counter("solver.decisions")->value(),
              result.winner_result.stats.decisions);
}

TEST(PortfolioSolver, MetricsTraceStreamsWorkerEvents)
{
    Rng gen(33);
    const auto cnf = sat::testing::randomCnf(20, 85, 3, gen);

    std::ostringstream trace_out;
    TraceSink sink(trace_out);
    MetricsRegistry registry;
    registry.setTrace(&sink);

    PortfolioOptions opts;
    opts.base = noiseFreeConfig();
    opts.num_workers = 2;
    opts.metrics = &registry;
    PortfolioSolver solver(opts);
    const auto result = solver.solve(cnf);
    ASSERT_FALSE(result.status.isUndef());

    const std::string text = trace_out.str();
    EXPECT_NE(text.find("\"event\": \"portfolio.worker_done\""),
              std::string::npos);
    EXPECT_NE(text.find("\"event\": \"portfolio.race_done\""),
              std::string::npos);
}

} // namespace
} // namespace hyqsat::portfolio
