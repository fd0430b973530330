/**
 * @file
 * Stress and internals-exercising tests: clause-database reduction
 * and garbage collection under long runs, large-formula handling,
 * interaction of budgets with restarts, and the ClauseArena 32-bit
 * overflow guard.
 */

#include <gtest/gtest.h>

#include "gen/random_sat.h"
#include "sat/brute_force.h"
#include "sat/clause.h"
#include "sat/solver.h"
#include "tests/sat/helpers.h"

namespace hyqsat::sat {
namespace {

TEST(SolverStress, LongRunTriggersReduceAndGc)
{
    // A hard instance at the phase transition forces thousands of
    // conflicts: clause-DB reduction and arena GC must both fire
    // without corrupting the search.
    Rng rng(1);
    const Cnf cnf = testing::randomCnf(120, 511, 3, rng);
    SolverOptions opts;
    opts.learnt_size_factor = 0.02; // tiny DB: reduce constantly
    Solver s(opts);
    ASSERT_TRUE(s.loadCnf(cnf));
    const lbool r = s.solve();
    ASSERT_FALSE(r.isUndef());
    EXPECT_GT(s.stats().removed_clauses, 0u);
    if (r.isTrue())
        EXPECT_TRUE(cnf.eval(s.boolModel()));
}

TEST(SolverStress, SoundnessUnderTinyLearntBudget)
{
    Rng rng(2);
    for (int round = 0; round < 6; ++round) {
        const Cnf cnf = testing::randomCnf(12, 51, 3, rng);
        const bool expected = bruteForceSolve(cnf).satisfiable;
        SolverOptions opts;
        opts.learnt_size_factor = 0.01;
        opts.seed = round;
        Solver s(opts);
        ASSERT_TRUE(s.loadCnf(cnf) || !expected);
        const lbool got = s.okay() ? s.solve() : l_False;
        ASSERT_FALSE(got.isUndef());
        EXPECT_EQ(got.isTrue(), expected) << "round " << round;
    }
}

TEST(SolverStress, LargeEasyFormulaLoadsAndSolves)
{
    // Tens of thousands of clauses of Horn-like structure:
    // exercises arena growth and watch-list scaling while staying
    // conflict-poor enough to finish fast.
    Rng rng(3);
    const Cnf cnf = gen::randomHornLike(8000, 24000, 0.97, rng);
    Solver s;
    ASSERT_TRUE(s.loadCnf(cnf));
    const lbool r = s.solve();
    ASSERT_FALSE(r.isUndef());
    if (r.isTrue())
        EXPECT_TRUE(cnf.eval(s.boolModel()));
}

TEST(SolverStress, ConflictBudgetAcrossRestarts)
{
    Rng rng(4);
    const Cnf cnf = testing::randomCnf(150, 640, 3, rng);
    Solver s;
    ASSERT_TRUE(s.loadCnf(cnf));
    s.setConflictBudget(500);
    const lbool r = s.solve();
    if (r.isUndef())
        EXPECT_LE(s.stats().conflicts, 600u);
}

TEST(SolverStress, ManySmallSolvesNoStateLeak)
{
    // Fresh solvers over the same formula must agree exactly.
    Rng rng(5);
    const Cnf cnf = testing::randomCnf(40, 170, 3, rng);
    std::uint64_t reference = 0;
    for (int i = 0; i < 5; ++i) {
        Solver s;
        ASSERT_TRUE(s.loadCnf(cnf));
        s.solve();
        if (i == 0)
            reference = s.stats().conflicts;
        else
            EXPECT_EQ(s.stats().conflicts, reference);
    }
}

// ---------------------------------------------------------------------
// ClauseArena 32-bit overflow guard
// ---------------------------------------------------------------------

TEST(ClauseArena, WouldExceedTracksCapacityLimit)
{
    ClauseArena arena;
    // 3-literal clause = 2 header words + 3 literal words.
    arena.setCapacityLimitForTest(10);
    const LitVec clause{mkLit(0), mkLit(1), mkLit(2)};
    EXPECT_FALSE(arena.wouldExceed(clause.size()));
    (void)arena.alloc(clause, false);
    EXPECT_FALSE(arena.wouldExceed(clause.size())); // exactly fits
    (void)arena.alloc(clause, false);
    EXPECT_EQ(arena.size(), 10u);
    EXPECT_TRUE(arena.wouldExceed(clause.size()));
    EXPECT_TRUE(arena.wouldExceed(0));
}

TEST(ClauseArenaDeathTest, OverflowPanicsInsteadOfWrapping)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    const LitVec clause{mkLit(0), mkLit(1), mkLit(2)};
    EXPECT_DEATH(
        {
            ClauseArena arena;
            arena.setCapacityLimitForTest(12);
            for (int i = 0; i < 3; ++i)
                (void)arena.alloc(clause, false);
        },
        "ClauseArena overflow");
}

TEST(ClauseArena, SearchReclaimsArenaViaGcUnderTightLimit)
{
    // A limit with headroom for learnt churn but far below what an
    // unbounded search would allocate: the wouldExceed guard in
    // search() must garbage-collect freed learnts instead of
    // panicking, and the search must still terminate normally.
    Rng gen(13);
    const auto cnf = testing::randomCnf(50, 210, 3, gen);
    Solver solver;
    ASSERT_TRUE(solver.loadCnf(cnf));
    // Original clauses use ~210 * 5 words; leave ~4000 words for the
    // learnt database.
    solver.setArenaCapacityLimitForTest(5000);
    solver.setConflictBudget(4000);
    const auto status = solver.solve();
    EXPECT_FALSE(status.isUndef() && solver.stats().conflicts == 0);
    if (status.isTrue()) {
        const auto model = solver.boolModel();
        EXPECT_TRUE(cnf.eval(model));
    }
}

} // namespace
} // namespace hyqsat::sat
