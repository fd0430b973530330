/**
 * @file
 * The incremental hybrid session: IPASIR-style solve(assumptions)
 * with clause addition between calls, state retention across solves,
 * simplify-eliminated-variable handling (freeze-and-recompile), core
 * map-back, and a fuzz harness racing random ADD/ASSUME/SOLVE
 * interleavings against fresh ground-truth solves.
 */

#include <gtest/gtest.h>

#include "core/session.h"
#include "sat/brute_force.h"
#include "tests/sat/helpers.h"
#include "util/rng.h"

namespace hyqsat::core {
namespace {

using sat::Cnf;
using sat::Lit;
using sat::LitVec;
using sat::mkLit;
using sat::Var;

/** Small config: tiny topology, no embedding — fast warm loop. */
HybridConfig
testConfig()
{
    HybridConfig config;
    config.chimera_rows = 2;
    config.chimera_cols = 2;
    config.use_embedding = false;
    config.sampler = "sa";
    config.warmup_override = 4;
    return config;
}

TEST(Session, SolveAddSolveRetainsState)
{
    Session session(testConfig());
    Rng rng(7);
    const Cnf base = sat::testing::randomCnf(30, 90, 3, rng);
    ASSERT_TRUE(session.addFormula(base));

    const HybridResult first = session.solve();
    ASSERT_FALSE(first.status.isUndef());
    EXPECT_EQ(session.recompiles(), 1);

    // A delta clause must not trigger a recompile, and the second
    // call must agree with a fresh solver on the grown formula.
    Cnf grown = base;
    grown.addClause(mkLit(0), mkLit(1), mkLit(2));
    ASSERT_TRUE(session.addClause(
        LitVec{mkLit(0), mkLit(1), mkLit(2)}));
    const HybridResult second = session.solve();
    EXPECT_EQ(session.recompiles(), 1);
    ASSERT_FALSE(second.status.isUndef());
    EXPECT_EQ(second.status.isTrue(),
              sat::bruteForceSolve(grown).satisfiable);
    if (second.status.isTrue())
        EXPECT_TRUE(grown.eval(second.model));
}

TEST(Session, AssumptionSeriesMatchesFreshSolves)
{
    HybridConfig config = testConfig();
    config.simplify_strength = simplify::Strength::Full;
    Session session(config);
    Rng rng(11);
    const int vars = 16;
    const Cnf base = sat::testing::randomCnf(vars, 40, 3, rng);
    ASSERT_TRUE(session.addFormula(base));

    for (int call = 0; call < 12; ++call) {
        LitVec assumptions;
        const int depth = 1 + static_cast<int>(rng.below(3));
        for (int i = 0; i < depth; ++i) {
            assumptions.push_back(mkLit(
                static_cast<Var>(rng.below(vars)), rng.chance(0.5)));
        }
        const HybridResult r = session.solve(assumptions);
        ASSERT_FALSE(r.status.isUndef()) << "call " << call;

        Cnf direct = base;
        for (const Lit a : assumptions)
            direct.addClause(a);
        EXPECT_EQ(r.status.isTrue(),
                  sat::bruteForceSolve(direct).satisfiable)
            << "call " << call;
        if (r.status.isTrue())
            EXPECT_TRUE(direct.eval(r.model)) << "call " << call;
    }
    EXPECT_EQ(session.solves(), 12);
}

TEST(Session, FailedAssumptionCoreNamesOriginalLiterals)
{
    Session session(testConfig());
    // x0 -> x1, x1 -> x2: assuming x0 and ~x2 must fail, and the
    // core must name (negations of) a subset of the assumptions.
    ASSERT_TRUE(
        session.addClause(LitVec{mkLit(0, true), mkLit(1)}));
    ASSERT_TRUE(
        session.addClause(LitVec{mkLit(1, true), mkLit(2)}));
    const LitVec assumptions{mkLit(0), mkLit(2, true)};
    const HybridResult r = session.solve(assumptions);
    ASSERT_TRUE(r.status.isFalse());
    const LitVec &core = session.failedAssumptions();
    ASSERT_FALSE(core.empty());
    for (const Lit c : core) {
        bool from_assumption = false;
        for (const Lit a : assumptions)
            from_assumption = from_assumption || c == ~a;
        EXPECT_TRUE(from_assumption);
    }
    // The session recovers: dropping one assumption is satisfiable.
    const HybridResult again = session.solve(LitVec{mkLit(0)});
    EXPECT_TRUE(again.status.isTrue());
}

TEST(Session, UnsatFormulaYieldsEmptyCore)
{
    Session session(testConfig());
    ASSERT_TRUE(session.addClause(LitVec{mkLit(0)}));
    ASSERT_TRUE(session.solve().status.isTrue());
    // Live delta path: the contradiction is detected on addition.
    EXPECT_FALSE(session.addClause(LitVec{mkLit(0, true)}));
    const HybridResult r = session.solve(LitVec{mkLit(1)});
    ASSERT_TRUE(r.status.isFalse());
    EXPECT_TRUE(session.failedAssumptions().empty())
        << "UNSAT-regardless-of-assumptions must report an empty core";
    // Pre-compile additions are lazy; an UNSAT verdict still
    // arrives at the next solve.
    Session lazy(testConfig());
    ASSERT_TRUE(lazy.addClause(LitVec{mkLit(0)}));
    lazy.addClause(LitVec{mkLit(0, true)});
    const HybridResult r2 = lazy.solve(LitVec{mkLit(1)});
    ASSERT_TRUE(r2.status.isFalse());
    EXPECT_TRUE(lazy.failedAssumptions().empty());
}

TEST(Session, AssumptionOnEliminatedVarFreezesAndRecompiles)
{
    HybridConfig config = testConfig();
    config.simplify_strength = simplify::Strength::Full;
    Session session(config);
    // The same shape the simplify-layer test proves BVE eliminates
    // x0 from when unfrozen.
    ASSERT_TRUE(
        session.addClause(LitVec{mkLit(0), mkLit(1), mkLit(2)}));
    ASSERT_TRUE(
        session.addClause(LitVec{mkLit(0, true), mkLit(2), mkLit(3)}));
    ASSERT_TRUE(session.addClause(LitVec{mkLit(1), mkLit(3)}));

    const HybridResult plain = session.solve();
    ASSERT_TRUE(plain.status.isTrue());
    const int compiles_before = session.recompiles();

    // Assuming over the eliminated variable must transparently
    // freeze it and recompile, then solve correctly both ways.
    for (const bool sign : {false, true}) {
        const LitVec assumptions{mkLit(0, sign)};
        const HybridResult r = session.solve(assumptions);
        ASSERT_FALSE(r.status.isUndef());
        Cnf direct = session.formula();
        direct.addClause(assumptions[0]);
        EXPECT_EQ(r.status.isTrue(),
                  sat::bruteForceSolve(direct).satisfiable);
        if (r.status.isTrue())
            EXPECT_TRUE(direct.eval(r.model));
    }
    EXPECT_GT(session.recompiles(), compiles_before);
    // Frozen now: a third assumption solve stays warm.
    const int after_freeze = session.recompiles();
    const HybridResult warm = session.solve(LitVec{mkLit(0)});
    ASSERT_FALSE(warm.status.isUndef());
    EXPECT_EQ(session.recompiles(), after_freeze);
}

TEST(Session, OpenSessionSharesHybridConfig)
{
    HybridConfig config = testConfig();
    config.seed = 1234;
    HybridSolver solver(config);
    const std::unique_ptr<Session> session = solver.openSession();
    EXPECT_EQ(session->config().seed, 1234u);
    ASSERT_TRUE(
        session->addClause(LitVec{mkLit(0), mkLit(1), mkLit(2)}));
    EXPECT_TRUE(session->solve().status.isTrue());
}

TEST(Session, PerCallStatsSumToSessionTotals)
{
    // The call that compiles the formula also reports the solver's
    // load-time unit propagation, so per-call deltas add up to what
    // the solver published into the session registry.
    Session session(testConfig());
    Rng rng(5);
    Cnf cnf = sat::testing::randomCnf(20, 60, 3, rng);
    cnf.addClause(LitVec{mkLit(3)});
    ASSERT_TRUE(session.addFormula(cnf));
    const auto published = [&session] {
        for (const auto &kv : session.metrics().snapshot())
            if (kv.first == "solver.propagations")
                return static_cast<std::uint64_t>(kv.second);
        return std::uint64_t{0};
    };
    const HybridResult first = session.solve();
    EXPECT_EQ(first.stats.propagations, published());
    const HybridResult second = session.solve(LitVec{mkLit(4)});
    EXPECT_EQ(first.stats.propagations + second.stats.propagations,
              published());
}

TEST(Session, MetricsMergeOnClose)
{
    MetricsRegistry external;
    HybridConfig config = testConfig();
    config.metrics = &external;
    std::uint64_t decisions = 0, warmup = 0;
    {
        Session session(config);
        ASSERT_TRUE(
            session.addClause(LitVec{mkLit(0), mkLit(1)}));
        for (const LitVec &assumptions : {LitVec{}, LitVec{mkLit(0)}}) {
            const HybridResult r = session.solve(assumptions);
            decisions += r.stats.decisions;
            warmup += static_cast<std::uint64_t>(r.warmup_iterations);
        }
        EXPECT_EQ(session.solves(), 2);
        EXPECT_EQ(session.recompiles(), 1);
        // Nothing reaches the external registry before close.
        EXPECT_EQ(external.counter("solver.decisions")->value(), 0u);
    }
    EXPECT_EQ(external.counter("solver.decisions")->value(), decisions);
    EXPECT_EQ(external.counter("hybrid.warmup_iterations")->value(),
              warmup);
    EXPECT_GT(warmup, 0u);
}

/**
 * The fuzz harness (issue satellite): random ADD/ASSUME/SOLVE
 * interleavings against fresh-solver ground truth. SAT models are
 * verified clause by clause (Cnf::eval over the accumulated formula
 * plus the assumptions); UNSAT cores are checked consistent by
 * re-solving the formula with only the core's assumptions — that
 * subset must itself be UNSAT.
 */
TEST(SessionFuzz, RandomInterleavingsMatchGroundTruth)
{
    Rng gen(101);
    for (int round = 0; round < 6; ++round) {
        HybridConfig config = testConfig();
        config.simplify_strength = (round % 2) != 0
                                       ? simplify::Strength::Full
                                       : simplify::Strength::Off;
        config.seed = 0x9e3779b9u + static_cast<std::uint64_t>(round);
        Session session(config);
        const int vars = 12;
        Cnf reference(vars);
        LitVec pending_assumptions;

        const int steps = 30;
        for (int step = 0; step < steps; ++step) {
            const double dice = gen.uniform();
            if (dice < 0.45) { // ADD
                LitVec clause;
                const int len = 1 + static_cast<int>(gen.below(3));
                while (static_cast<int>(clause.size()) < len) {
                    const Var v = static_cast<Var>(gen.below(vars));
                    bool fresh = true;
                    for (const Lit p : clause)
                        fresh = fresh && p.var() != v;
                    if (fresh)
                        clause.push_back(mkLit(v, gen.chance(0.5)));
                }
                reference.addClause(clause);
                session.addClause(clause);
            } else if (dice < 0.70) { // ASSUME
                pending_assumptions.push_back(mkLit(
                    static_cast<Var>(gen.below(vars)),
                    gen.chance(0.5)));
            } else { // SOLVE
                const LitVec assumptions = pending_assumptions;
                pending_assumptions.clear();
                const HybridResult r = session.solve(assumptions);
                ASSERT_FALSE(r.status.isUndef())
                    << "round " << round << " step " << step;

                Cnf direct = reference;
                for (const Lit a : assumptions)
                    direct.addClause(a);
                const bool expected =
                    sat::bruteForceSolve(direct).satisfiable;
                ASSERT_EQ(r.status.isTrue(), expected)
                    << "round " << round << " step " << step;

                if (r.status.isTrue()) {
                    ASSERT_TRUE(direct.eval(r.model))
                        << "round " << round << " step " << step;
                } else {
                    // Core consistency: the core alone (as
                    // assumptions over the formula) must be UNSAT.
                    Cnf core_check = reference;
                    for (const Lit c :
                         session.failedAssumptions()) {
                        core_check.addClause(~c);
                    }
                    ASSERT_FALSE(
                        sat::bruteForceSolve(core_check).satisfiable)
                        << "round " << round << " step " << step;
                }
            }
        }
    }
}

} // namespace
} // namespace hyqsat::core
