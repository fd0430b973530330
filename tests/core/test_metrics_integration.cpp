/**
 * @file
 * Integration tests for the observability layer through the hybrid
 * loop: HybridConfig.metrics as the single source of truth, result
 * fields as views over it, accumulation across solves, JSON output
 * validity, and metrics neutrality (attaching a registry must not
 * perturb the search).
 */

#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <string>

#include "core/hybrid_solver.h"
#include "tests/sat/helpers.h"
#include "util/metrics.h"

namespace hyqsat::core {
namespace {

HybridConfig
noiseFreeConfig(std::uint64_t seed = 0x777)
{
    HybridConfig cfg;
    cfg.annealer.noise = anneal::NoiseModel::noiseFree();
    cfg.annealer.greedy_finish = true;
    cfg.annealer.attempts = 2;
    cfg.seed = seed;
    return cfg;
}

sat::Cnf
testFormula(std::uint64_t seed = 11)
{
    Rng rng(seed);
    return sat::testing::randomCnf(30, 124, 3, rng);
}

TEST(MetricsIntegration, CountersMatchSolverStats)
{
    const sat::Cnf cnf = testFormula();
    MetricsRegistry registry;
    HybridConfig cfg = noiseFreeConfig();
    cfg.metrics = &registry;
    HybridSolver solver(cfg);
    const HybridResult result = solver.solve(cnf);
    ASSERT_FALSE(result.status.isUndef());

    EXPECT_EQ(registry.counter("solver.conflicts")->value(),
              result.stats.conflicts);
    EXPECT_EQ(registry.counter("solver.decisions")->value(),
              result.stats.decisions);
    EXPECT_EQ(registry.counter("solver.iterations")->value(),
              result.stats.iterations);
    EXPECT_EQ(registry.counter("solver.restarts")->value(),
              result.stats.restarts);
    EXPECT_EQ(registry.counter("solver.propagations")->value(),
              result.stats.propagations);
    EXPECT_EQ(registry.counter("pipeline.submitted")->value(),
              static_cast<std::uint64_t>(result.qa_submitted));
    EXPECT_EQ(registry.counter("backend.samples")->value(),
              static_cast<std::uint64_t>(result.qa_samples));
    EXPECT_EQ(registry.counter("hybrid.warmup_iterations")->value(),
              static_cast<std::uint64_t>(result.warmup_iterations));

    // Result time fields are views over the same registry.
    EXPECT_DOUBLE_EQ(registry.timer("backend.apply")->seconds(),
                     result.time.backend_s);
    EXPECT_DOUBLE_EQ(registry.timer("pipeline.frontend")->seconds(),
                     result.time.frontend_s);
    EXPECT_GT(registry.timer("hybrid.total")->seconds(), 0.0);
}

TEST(MetricsIntegration, RepeatedSolvesAccumulateExactly)
{
    const sat::Cnf cnf = testFormula();
    MetricsRegistry once, twice;

    {
        HybridConfig cfg = noiseFreeConfig();
        cfg.metrics = &once;
        HybridSolver solver(cfg);
        solver.solve(cnf);
    }
    {
        HybridConfig cfg = noiseFreeConfig();
        cfg.metrics = &twice;
        HybridSolver a(cfg);
        a.solve(cnf);
        HybridSolver b(cfg);
        b.solve(cnf);
    }
    // Deterministic config: two solves record exactly double.
    EXPECT_EQ(twice.counter("solver.conflicts")->value(),
              2 * once.counter("solver.conflicts")->value());
    EXPECT_EQ(twice.counter("solver.decisions")->value(),
              2 * once.counter("solver.decisions")->value());
    EXPECT_EQ(twice.counter("backend.samples")->value(),
              2 * once.counter("backend.samples")->value());
    EXPECT_EQ(twice.timer("hybrid.total")->count(), 2u);
}

TEST(MetricsIntegration, AttachingMetricsDoesNotPerturbSearch)
{
    const sat::Cnf cnf = testFormula(23);

    HybridConfig plain_cfg = noiseFreeConfig();
    HybridSolver plain(plain_cfg);
    const HybridResult without = plain.solve(cnf);

    MetricsRegistry registry;
    HybridConfig metered_cfg = noiseFreeConfig();
    metered_cfg.metrics = &registry;
    HybridSolver metered(metered_cfg);
    const HybridResult with = metered.solve(cnf);

    EXPECT_EQ(without.status.isTrue(), with.status.isTrue());
    EXPECT_EQ(without.stats.conflicts, with.stats.conflicts);
    EXPECT_EQ(without.stats.decisions, with.stats.decisions);
    EXPECT_EQ(without.stats.iterations, with.stats.iterations);
    EXPECT_EQ(without.qa_samples, with.qa_samples);
}

TEST(MetricsIntegration, AnnealCountersRecordSamplingWork)
{
    const sat::Cnf cnf = testFormula();
    MetricsRegistry registry;
    HybridConfig cfg = noiseFreeConfig();
    cfg.metrics = &registry;
    cfg.num_reads = 2;
    HybridSolver solver(cfg);
    const HybridResult result = solver.solve(cnf);
    ASSERT_FALSE(result.status.isUndef());
    ASSERT_GT(result.qa_samples, 0);

    // Every device sample runs SA chains: the anneal.* instruments
    // must have recorded real work through the hot loop.
    EXPECT_GT(registry.counter("anneal.sweeps")->value(), 0u);
    EXPECT_GT(registry.counter("anneal.flips.attempted")->value(), 0u);
    EXPECT_GT(registry.counter("anneal.flips.accepted")->value(), 0u);
    EXPECT_GT(registry.counter("anneal.reads")->value(), 0u);
    EXPECT_GT(registry.timer("anneal.sample")->count(), 0u);
    // num_reads = 2: at least two chains per recorded sample() call.
    EXPECT_GE(registry.counter("anneal.reads")->value(),
              2 * registry.timer("anneal.sample")->count());
}

TEST(MetricsIntegration, AnnealCountersAreReadAwareUnderLockstep)
{
    // The lockstep batch kernel keeps read-aware accounting: every
    // read contributes its full sweep schedule, so
    // anneal.sweeps == anneal.reads *
    // noise.sweeps exactly (the greedy finish adds attempts, never
    // sweeps), and accepted work stays within attempted.
    const sat::Cnf cnf = testFormula();
    MetricsRegistry registry;
    HybridConfig cfg = noiseFreeConfig();
    cfg.metrics = &registry;
    cfg.num_reads = 4;
    HybridSolver solver(cfg);
    const HybridResult result = solver.solve(cnf);
    ASSERT_FALSE(result.status.isUndef());
    ASSERT_GT(result.qa_samples, 0);

    const std::uint64_t reads =
        registry.counter("anneal.reads")->value();
    const std::uint64_t sweeps =
        registry.counter("anneal.sweeps")->value();
    EXPECT_GE(reads, 4 * registry.timer("anneal.sample")->count());
    EXPECT_EQ(sweeps,
              reads * static_cast<std::uint64_t>(
                          cfg.annealer.noise.sweeps));
    EXPECT_GT(registry.counter("anneal.flips.accepted")->value(), 0u);
    EXPECT_LE(registry.counter("anneal.flips.accepted")->value(),
              registry.counter("anneal.flips.attempted")->value());
}

TEST(MetricsIntegration, WriteJsonContainsExactCounterValues)
{
    const sat::Cnf cnf = testFormula();
    MetricsRegistry registry;
    HybridConfig cfg = noiseFreeConfig();
    cfg.metrics = &registry;
    HybridSolver solver(cfg);
    const HybridResult result = solver.solve(cnf);

    std::ostringstream out;
    registry.writeJson(out);
    const std::string json = out.str();

    EXPECT_NE(json.find("\"schema\": \"hyqsat.metrics/1\""),
              std::string::npos);
    EXPECT_NE(json.find("\"solver.conflicts\": " +
                        std::to_string(result.stats.conflicts)),
              std::string::npos);
    EXPECT_NE(json.find("\"solver.decisions\": " +
                        std::to_string(result.stats.decisions)),
              std::string::npos);
    EXPECT_EQ(json.find("nan"), std::string::npos);

    int depth = 0;
    for (const char c : json) {
        if (c == '{' || c == '[')
            ++depth;
        if (c == '}' || c == ']')
            --depth;
        ASSERT_GE(depth, 0);
    }
    EXPECT_EQ(depth, 0);
}

TEST(MetricsIntegration, ClassicCdclRecordsSolverCounters)
{
    const sat::Cnf cnf = testFormula();
    MetricsRegistry registry;
    const HybridResult result = solveClassicCdcl(
        cnf, sat::SolverOptions::minisatStyle(), nullptr, &registry);
    ASSERT_FALSE(result.status.isUndef());
    EXPECT_EQ(registry.counter("solver.conflicts")->value(),
              result.stats.conflicts);
    EXPECT_EQ(registry.counter("solver.decisions")->value(),
              result.stats.decisions);
    EXPECT_DOUBLE_EQ(registry.timer("hybrid.cdcl")->seconds(),
                     result.time.cdcl_s);
}

TEST(MetricsIntegration, OneShotSolveWritesNoSessionKeys)
{
    // Every key a full-simplify one-shot solve wrote while
    // HybridSolver::solve still ran its own copy of the loop
    // (snapshot names: timers carry an `_s` suffix).
    const char *const kOneShotKeys[] = {
        "anneal.flips.accepted", "anneal.flips.attempted",
        "anneal.read_groups", "anneal.reads", "anneal.sample_s",
        "anneal.sweeps", "backend.apply_s",
        "backend.class.near-satisfiable",
        "backend.class.near-unsatisfiable", "backend.class.satisfiable",
        "backend.class.uncertain", "backend.samples",
        "backend.solved_by_qa", "backend.strategy1", "backend.strategy2",
        "backend.strategy3", "backend.strategy4",
        "frontend.cache.evictions", "frontend.cache.hits",
        "frontend.cache.misses", "frontend.cache_s", "frontend.runs",
        "hybrid.cdcl_s", "hybrid.total_s", "hybrid.warmup_iterations",
        "pipeline.blocking_s", "pipeline.chain_breaks", "pipeline.device_s",
        "pipeline.frontend_s", "pipeline.harvested",
        "pipeline.host_sample_s", "pipeline.inflight_s",
        "pipeline.occupancy_total", "pipeline.stale_discarded",
        "pipeline.stall_span_s", "pipeline.stalls", "pipeline.submitted",
        "simplify.clauses_removed", "simplify.eliminated",
        "simplify.rounds", "simplify.runs", "simplify.strengthened",
        "simplify.subsumed", "simplify.time_s", "simplify.vivified",
        "solver.conflicts", "solver.decisions", "solver.exported_clauses",
        "solver.imported_clauses", "solver.iterations",
        "solver.learned_clauses", "solver.minimized_literals",
        "solver.propagations", "solver.propagations_per_s",
        "solver.reduce_dbs", "solver.removed_clauses", "solver.restarts",
        "solver.search_s",
    };
    MetricsRegistry registry;
    HybridConfig cfg = noiseFreeConfig();
    cfg.simplify_strength = simplify::Strength::Full;
    cfg.metrics = &registry;
    HybridSolver(cfg).solve(testFormula());

    std::set<std::string> keys;
    for (const auto &kv : registry.snapshot()) {
        EXPECT_NE(kv.first.rfind("session.", 0), 0u) << kv.first;
        keys.insert(kv.first);
    }
    for (const char *key : kOneShotKeys)
        EXPECT_EQ(keys.count(key), 1u) << key;
}

TEST(MetricsIntegration, TraceStreamsSolveEvents)
{
    const sat::Cnf cnf = testFormula();
    std::ostringstream trace_out;
    TraceSink sink(trace_out);
    MetricsRegistry registry;
    registry.setTrace(&sink);

    HybridConfig cfg = noiseFreeConfig();
    cfg.metrics = &registry;
    HybridSolver solver(cfg);
    const HybridResult result = solver.solve(cnf);

    if (result.stats.restarts > 0) {
        EXPECT_NE(trace_out.str().find("\"event\": \"solver.restart\""),
                  std::string::npos);
    }
}

} // namespace
} // namespace hyqsat::core
