/**
 * @file
 * Frontend fast path: workspace-vs-one-shot equivalence, the
 * (embedding, encoding) memo's hit/miss/eviction accounting, the
 * cache-bypass knob, and the A/B determinism guard proving the fast
 * path (workspace + cache) leaves HybridResult bit-identical to the
 * slow path.
 */

#include <gtest/gtest.h>

#include "core/frontend.h"
#include "core/hybrid_solver.h"
#include "tests/sat/helpers.h"
#include "util/metrics.h"

namespace hyqsat::core {
namespace {

sat::Solver
loadedSolver(const sat::Cnf &cnf)
{
    sat::Solver solver;
    EXPECT_TRUE(solver.loadCnf(cnf));
    return solver;
}

/** Full comparable surface of a FrontendResult (minus timing). */
void
expectSameResult(const FrontendResult &a, const FrontendResult &b)
{
    EXPECT_EQ(a.queue, b.queue);
    EXPECT_EQ(a.embedded_clauses, b.embedded_clauses);
    EXPECT_EQ(a.covers_all_unsatisfied, b.covers_all_unsatisfied);
    ASSERT_TRUE(a.embedded);
    ASSERT_TRUE(b.embedded);
    EXPECT_EQ(a.embedded->embedded_clauses,
              b.embedded->embedded_clauses);
    EXPECT_EQ(a.embedded->all_embedded, b.embedded->all_embedded);
    EXPECT_EQ(a.embedded->problem.numNodes(),
              b.embedded->problem.numNodes());
    EXPECT_EQ(a.embedded->problem.var_node,
              b.embedded->problem.var_node);
}

TEST(FrontendFastPath, WorkspaceMatchesOneShot)
{
    const chimera::ChimeraGraph graph(16, 16, 4);
    const Frontend frontend(graph, {});
    FrontendWorkspace ws;
    for (const std::uint64_t seed : {1u, 2u, 3u}) {
        Rng gen(seed);
        const auto cnf = sat::testing::randomCnf(30, 120, 3, gen);
        const auto solver = loadedSolver(cnf);
        Rng rng_a(seed * 31), rng_b(seed * 31);
        const auto one_shot = frontend.run(solver, rng_a);
        const auto reused = frontend.run(solver, rng_b, ws);
        expectSameResult(one_shot, reused);
        // Identical RNG consumption: the streams stay in lockstep.
        EXPECT_EQ(rng_a.next(), rng_b.next());
    }
}

TEST(FrontendFastPath, RepeatedRunsHitTheCache)
{
    const chimera::ChimeraGraph graph(16, 16, 4);
    MetricsRegistry metrics;
    const Frontend frontend(graph, {}, &metrics);
    Rng gen(5);
    const auto cnf = sat::testing::randomCnf(25, 90, 3, gen);
    const auto solver = loadedSolver(cnf);
    FrontendWorkspace ws;

    FrontendResult first, second;
    {
        Rng rng(7);
        first = frontend.run(solver, rng, ws);
    }
    {
        Rng rng(7);
        second = frontend.run(solver, rng, ws);
    }
    expectSameResult(first, second);
    // The hit shares the stored entry instead of recomputing it.
    EXPECT_EQ(first.embedded.get(), second.embedded.get());
    EXPECT_EQ(metrics.counter("frontend.runs")->value(), 2u);
    EXPECT_EQ(metrics.counter("frontend.cache.misses")->value(), 1u);
    EXPECT_EQ(metrics.counter("frontend.cache.hits")->value(), 1u);
    EXPECT_EQ(metrics.counter("frontend.cache.evictions")->value(),
              0u);
}

TEST(FrontendFastPath, BypassKnobDisablesTheCache)
{
    const chimera::ChimeraGraph graph(16, 16, 4);
    MetricsRegistry metrics;
    FrontendOptions opts;
    opts.cache_embeddings = false;
    const Frontend frontend(graph, opts, &metrics);
    Rng gen(6);
    const auto cnf = sat::testing::randomCnf(25, 90, 3, gen);
    const auto solver = loadedSolver(cnf);
    FrontendWorkspace ws;

    FrontendResult first, second;
    {
        Rng rng(8);
        first = frontend.run(solver, rng, ws);
    }
    {
        Rng rng(8);
        second = frontend.run(solver, rng, ws);
    }
    expectSameResult(first, second);
    EXPECT_NE(first.embedded.get(), second.embedded.get());
    // The metrics contract holds with the cache off too:
    // every run records exactly one of hits/misses.
    EXPECT_EQ(metrics.counter("frontend.runs")->value(), 2u);
    EXPECT_EQ(metrics.counter("frontend.cache.misses")->value(), 2u);
    EXPECT_EQ(metrics.counter("frontend.cache.hits")->value(), 0u);
}

TEST(FrontendFastPath, CapacityOneEvictsOnAlternation)
{
    const chimera::ChimeraGraph graph(16, 16, 4);
    MetricsRegistry metrics;
    FrontendOptions opts;
    opts.cache_capacity = 1;
    const Frontend frontend(graph, opts, &metrics);
    Rng gen_a(10), gen_b(11);
    const auto cnf_a = sat::testing::randomCnf(25, 90, 3, gen_a);
    const auto cnf_b = sat::testing::randomCnf(25, 90, 3, gen_b);
    const auto solver_a = loadedSolver(cnf_a);
    const auto solver_b = loadedSolver(cnf_b);
    FrontendWorkspace ws; // shared: the cache sees both queues

    for (int round = 0; round < 3; ++round) {
        Rng rng_a(21), rng_b(22);
        (void)frontend.run(solver_a, rng_a, ws);
        (void)frontend.run(solver_b, rng_b, ws);
    }
    // Round 1 misses twice (insert A, evict A for B); every later
    // round alternates, so all 6 runs miss and 5 inserts evict.
    EXPECT_EQ(metrics.counter("frontend.runs")->value(), 6u);
    EXPECT_EQ(metrics.counter("frontend.cache.misses")->value(), 6u);
    EXPECT_EQ(metrics.counter("frontend.cache.hits")->value(), 0u);
    EXPECT_EQ(metrics.counter("frontend.cache.evictions")->value(),
              5u);
}

TEST(FrontendFastPath, EmptyQueueCountsAsMissAndYieldsEmptyProblem)
{
    const chimera::ChimeraGraph graph(16, 16, 4);
    MetricsRegistry metrics;
    const Frontend frontend(graph, {}, &metrics);
    sat::Cnf cnf(1);
    cnf.addClause(sat::mkLit(0));
    const auto solver = loadedSolver(cnf); // unit propagated: all sat
    Rng rng(1);
    const auto result = frontend.run(solver, rng);
    EXPECT_TRUE(result.queue.empty());
    ASSERT_TRUE(result.embedded);
    EXPECT_EQ(result.embedded->problem.numNodes(), 0);
    EXPECT_EQ(metrics.counter("frontend.runs")->value(), 1u);
    EXPECT_EQ(metrics.counter("frontend.cache.misses")->value(), 1u);
    EXPECT_EQ(metrics.counter("frontend.cache.hits")->value(), 0u);
}

/** The comparable surface of a HybridResult (A/B determinism). */
void
expectSameHybridResult(const HybridResult &a, const HybridResult &b)
{
    EXPECT_EQ(a.status.isTrue(), b.status.isTrue());
    EXPECT_EQ(a.status.isFalse(), b.status.isFalse());
    EXPECT_EQ(a.model, b.model);
    EXPECT_EQ(a.stats.iterations, b.stats.iterations);
    EXPECT_EQ(a.stats.decisions, b.stats.decisions);
    EXPECT_EQ(a.stats.conflicts, b.stats.conflicts);
    EXPECT_EQ(a.stats.propagations, b.stats.propagations);
    EXPECT_EQ(a.stats.restarts, b.stats.restarts);
    EXPECT_EQ(a.warmup_iterations, b.warmup_iterations);
    EXPECT_EQ(a.qa_samples, b.qa_samples);
    EXPECT_EQ(a.qa_submitted, b.qa_submitted);
    EXPECT_EQ(a.strategy_count, b.strategy_count);
    EXPECT_EQ(a.solved_by_qa, b.solved_by_qa);
}

TEST(FrontendFastPath, HybridResultIdenticalWithFastPathOnAndOff)
{
    for (const std::uint64_t seed : {0xabcdu, 0x1234u, 0x77u}) {
        Rng gen(seed);
        const auto cnf = sat::testing::randomCnf(30, 126, 3, gen);

        HybridConfig fast;
        fast.annealer.noise = anneal::NoiseModel::noiseFree();
        fast.annealer.greedy_finish = true;
        fast.seed = seed;
        fast.solver.conflict_budget = 2000;
        HybridConfig slow = fast;

        fast.frontend.cache_embeddings = true;
        slow.frontend.cache_embeddings = false;

        const auto a = HybridSolver(fast).solve(cnf);
        const auto b = HybridSolver(slow).solve(cnf);
        expectSameHybridResult(a, b);
    }
}

} // namespace
} // namespace hyqsat::core
