#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "sat/brute_force.h"
#include "sat/solver.h"
#include "tests/sat/helpers.h"

namespace hyqsat::sat {
namespace {

/** Reference: scan original clause @p idx literal by literal. */
bool
satisfiedByScan(const Solver &solver, int idx)
{
    for (const Lit p : solver.originalClause(idx)) {
        if (solver.value(p).isTrue())
            return true;
    }
    return false;
}

std::vector<int>
unsatisfiedByScan(const Solver &solver)
{
    std::vector<int> out;
    for (int c = 0; c < solver.numOriginalClauses(); ++c) {
        if (!satisfiedByScan(solver, c))
            out.push_back(c);
    }
    return out;
}

/** Both solver views of the unsat set against the reference. */
void
expectMatchesScan(const Solver &solver, const std::string &where)
{
    std::vector<int> into{-1}; // stale content must be cleared
    solver.unsatisfiedOriginalClausesInto(into);
    const auto want = unsatisfiedByScan(solver);
    EXPECT_EQ(into, want) << where;
    EXPECT_EQ(solver.unsatisfiedOriginalClauses(), want) << where;
    for (int c = 0; c < solver.numOriginalClauses(); ++c) {
        ASSERT_EQ(solver.originalClauseSatisfiedNow(c),
                  satisfiedByScan(solver, c))
            << where << " clause " << c;
    }
}

TEST(Solver, EmptyFormulaIsSat)
{
    Solver s;
    EXPECT_TRUE(s.solve().isTrue());
}

TEST(Solver, SingleUnitClause)
{
    Solver s;
    const Var v = s.newVar();
    ASSERT_TRUE(s.addClause({mkLit(v)}));
    ASSERT_TRUE(s.solve().isTrue());
    EXPECT_TRUE(s.model()[v].isTrue());
}

TEST(Solver, ContradictingUnitsUnsatAtLoad)
{
    Solver s;
    const Var v = s.newVar();
    EXPECT_TRUE(s.addClause({mkLit(v)}));
    EXPECT_FALSE(s.addClause({mkLit(v, true)}));
    EXPECT_FALSE(s.okay());
    EXPECT_TRUE(s.solve().isFalse());
}

TEST(Solver, EmptyClauseUnsat)
{
    Solver s;
    EXPECT_FALSE(s.addClause({}));
    EXPECT_TRUE(s.solve().isFalse());
}

TEST(Solver, TautologyIgnored)
{
    Solver s;
    const Var v = s.newVar();
    EXPECT_TRUE(s.addClause({mkLit(v), mkLit(v, true)}));
    EXPECT_TRUE(s.solve().isTrue());
}

TEST(Solver, DuplicateLiteralsCollapsed)
{
    Solver s;
    const Var v = s.newVar();
    EXPECT_TRUE(s.addClause({mkLit(v), mkLit(v), mkLit(v)}));
    ASSERT_TRUE(s.solve().isTrue());
    EXPECT_TRUE(s.model()[v].isTrue());
}

TEST(Solver, SimpleChainPropagation)
{
    // x0, x0->x1, x1->x2 forces all true.
    Solver s;
    for (int i = 0; i < 3; ++i)
        s.newVar();
    ASSERT_TRUE(s.addClause({mkLit(0)}));
    ASSERT_TRUE(s.addClause({mkLit(0, true), mkLit(1)}));
    ASSERT_TRUE(s.addClause({mkLit(1, true), mkLit(2)}));
    ASSERT_TRUE(s.solve().isTrue());
    for (int i = 0; i < 3; ++i)
        EXPECT_TRUE(s.model()[i].isTrue());
}

TEST(Solver, PigeonHole3Into2Unsat)
{
    // 3 pigeons, 2 holes: var p*2+h means pigeon p in hole h.
    Solver s;
    for (int i = 0; i < 6; ++i)
        s.newVar();
    for (int p = 0; p < 3; ++p)
        ASSERT_TRUE(s.addClause({mkLit(2 * p), mkLit(2 * p + 1)}));
    bool ok = true;
    for (int h = 0; h < 2; ++h)
        for (int p1 = 0; p1 < 3; ++p1)
            for (int p2 = p1 + 1; p2 < 3; ++p2)
                ok = s.addClause(
                    {mkLit(2 * p1 + h, true), mkLit(2 * p2 + h, true)});
    (void)ok;
    EXPECT_TRUE(s.solve().isFalse());
}

TEST(Solver, LoadCnfSolvesLikeManualAdd)
{
    Cnf cnf(3);
    cnf.addClause(mkLit(0), mkLit(1));
    cnf.addClause(mkLit(1, true), mkLit(2));
    Solver s;
    ASSERT_TRUE(s.loadCnf(cnf));
    ASSERT_TRUE(s.solve().isTrue());
    EXPECT_TRUE(cnf.eval(s.boolModel()));
}

TEST(Solver, ModelVerifiesOnRandomSatInstances)
{
    Rng rng(5);
    for (int round = 0; round < 30; ++round) {
        // Low ratio => almost surely satisfiable; verify any model.
        Cnf cnf = testing::randomCnf(20, 40, 3, rng);
        Solver s;
        ASSERT_TRUE(s.loadCnf(cnf));
        if (s.solve().isTrue())
            EXPECT_TRUE(cnf.eval(s.boolModel())) << "round " << round;
    }
}

TEST(Solver, ConflictBudgetReturnsUndef)
{
    Rng rng(17);
    // Hard-ish instance at the phase transition.
    Cnf cnf = testing::randomCnf(60, 256, 3, rng);
    Solver s;
    ASSERT_TRUE(s.loadCnf(cnf));
    s.setConflictBudget(1);
    const lbool r = s.solve();
    // With a 1-conflict budget either it got lucky or gave up.
    if (r.isUndef())
        EXPECT_LE(s.stats().conflicts, 2u);
}

TEST(Solver, DecisionBudgetReturnsUndef)
{
    Rng rng(18);
    Cnf cnf = testing::randomCnf(60, 250, 3, rng);
    Solver s;
    ASSERT_TRUE(s.loadCnf(cnf));
    s.setDecisionBudget(3);
    const lbool r = s.solve();
    if (r.isUndef())
        EXPECT_LE(s.stats().decisions, 4u);
}

TEST(Solver, RequestStopFromHook)
{
    Rng rng(19);
    Cnf cnf = testing::randomCnf(50, 210, 3, rng);
    Solver s;
    ASSERT_TRUE(s.loadCnf(cnf));
    int calls = 0;
    s.setIterationHook([&](Solver &solver) {
        if (++calls >= 5)
            solver.requestStop();
    });
    EXPECT_TRUE(s.solve().isUndef());
    EXPECT_LE(calls, 6);
}

TEST(Solver, HookObservesIterationProgression)
{
    Rng rng(20);
    Cnf cnf = testing::randomCnf(30, 120, 3, rng);
    Solver s;
    ASSERT_TRUE(s.loadCnf(cnf));
    std::uint64_t last = 0;
    bool monotone = true;
    s.setIterationHook([&](Solver &solver) {
        monotone &= solver.stats().iterations >= last;
        last = solver.stats().iterations;
    });
    s.solve();
    EXPECT_TRUE(monotone);
    EXPECT_GE(last, 1u);
}

TEST(Solver, SetPhaseForcesDecisionPolarity)
{
    // Two free variables, no constraints between them: the first
    // decision must honour the forced phase.
    Solver s;
    const Var a = s.newVar();
    const Var b = s.newVar();
    ASSERT_TRUE(s.addClause({mkLit(a), mkLit(b)}));
    s.setPhase(a, true);
    s.setPhase(b, true);
    ASSERT_TRUE(s.solve().isTrue());
    EXPECT_TRUE(s.model()[a].isTrue());
    EXPECT_TRUE(s.model()[b].isTrue());

    Solver s2;
    const Var c = s2.newVar();
    const Var d = s2.newVar();
    ASSERT_TRUE(s2.addClause({mkLit(c), mkLit(d)}));
    s2.setPhase(c, false);
    ASSERT_TRUE(s2.solve().isTrue());
    EXPECT_TRUE(s2.model()[c].isFalse());
}

TEST(Solver, SuggestPhaseSeedsFirstDecisionOnly)
{
    // The soft hint steers the first decision, but a later
    // assignment (via phase saving) overwrites it - unlike setPhase.
    SolverOptions opts;
    opts.default_phase = false;
    Solver s(opts);
    const Var a = s.newVar();
    ASSERT_TRUE(s.addClause({mkLit(a), mkLit(s.newVar())}));
    s.suggestPhase(a, true);
    ASSERT_TRUE(s.solve().isTrue());
    EXPECT_TRUE(s.model()[a].isTrue());
}

TEST(Solver, SetPhaseOverridesSuggestPhase)
{
    Solver s;
    const Var a = s.newVar();
    ASSERT_TRUE(s.addClause({mkLit(a), mkLit(s.newVar())}));
    s.suggestPhase(a, true);
    s.setPhase(a, false);
    ASSERT_TRUE(s.solve().isTrue());
    EXPECT_TRUE(s.model()[a].isFalse());
}

TEST(Solver, ClearPhaseRestoresDefaultPolicy)
{
    SolverOptions opts;
    opts.default_phase = false;
    Solver s(opts);
    const Var a = s.newVar();
    s.setPhase(a, true);
    s.clearPhase(a);
    ASSERT_TRUE(s.solve().isTrue());
    EXPECT_TRUE(s.model()[a].isFalse());
}

TEST(Solver, BumpVarPriorityChangesDecisionOrder)
{
    // Without bumps all scores are 0 and the heap breaks ties by
    // structure; bumping the last variable must make it the first
    // decision.
    Solver s;
    for (int i = 0; i < 10; ++i)
        s.newVar();
    LitVec big;
    for (int i = 0; i < 10; ++i)
        big.push_back(mkLit(i));
    ASSERT_TRUE(s.addClause(big));
    s.bumpVarPriority(7, 100.0);

    Var first_decision = var_Undef;
    s.setIterationHook([&](Solver &solver) {
        if (first_decision == var_Undef) {
            // Peek: after this hook the solver decides; record by
            // scanning for the newly assigned var at level 1 in the
            // next call.
        }
        if (solver.decisionLevel() == 1 && first_decision == var_Undef) {
            for (Var v = 0; v < solver.numVars(); ++v) {
                if (!solver.value(v).isUndef()) {
                    first_decision = v;
                    break;
                }
            }
        }
    });
    ASSERT_TRUE(s.solve().isTrue());
    EXPECT_EQ(first_decision, 7);
}

TEST(Solver, StatsCountDecisionsAndConflicts)
{
    Rng rng(23);
    Cnf cnf = testing::randomCnf(40, 170, 3, rng);
    Solver s;
    ASSERT_TRUE(s.loadCnf(cnf));
    s.solve();
    EXPECT_GT(s.stats().decisions, 0u);
    EXPECT_GT(s.stats().propagations, 0u);
    EXPECT_EQ(s.stats().iterations, s.stats().decisions);
}

TEST(Solver, UnsatisfiedOriginalClausesShrinksAsTrailGrows)
{
    Cnf cnf(3);
    cnf.addClause(mkLit(0));
    cnf.addClause(mkLit(0), mkLit(1));
    cnf.addClause(mkLit(2));
    Solver s;
    ASSERT_TRUE(s.loadCnf(cnf));
    // Units propagate at load: clauses 0,1,2 satisfied already.
    EXPECT_TRUE(s.unsatisfiedOriginalClauses().empty());
}

TEST(Solver, OriginalClauseAccessors)
{
    Cnf cnf(2);
    cnf.addClause(mkLit(0), mkLit(1));
    Solver s;
    ASSERT_TRUE(s.loadCnf(cnf));
    ASSERT_EQ(s.numOriginalClauses(), 1);
    EXPECT_EQ(s.originalClause(0).size(), 2u);
    EXPECT_FALSE(s.originalClauseSatisfiedNow(0));
}

TEST(Solver, ClauseActivityScoresStartAtOne)
{
    Cnf cnf(2);
    cnf.addClause(mkLit(0), mkLit(1));
    cnf.addClause(mkLit(0, true), mkLit(1));
    Solver s;
    ASSERT_TRUE(s.loadCnf(cnf));
    EXPECT_DOUBLE_EQ(s.clauseActivityScore(0), 1.0);
    EXPECT_DOUBLE_EQ(s.clauseActivityScore(1), 1.0);
}

TEST(Solver, ConflictsBumpClauseActivityScores)
{
    Rng rng(29);
    Cnf cnf = testing::randomCnf(30, 129, 3, rng);
    Solver s;
    ASSERT_TRUE(s.loadCnf(cnf));
    s.solve();
    if (s.stats().conflicts > 0) {
        double total = 0;
        for (int i = 0; i < s.numOriginalClauses(); ++i)
            total += s.clauseActivityScore(i);
        EXPECT_GT(total, static_cast<double>(s.numOriginalClauses()));
    }
}

TEST(Solver, PropagationVisitCountersAccumulate)
{
    Rng rng(31);
    Cnf cnf = testing::randomCnf(30, 129, 3, rng);
    Solver s;
    ASSERT_TRUE(s.loadCnf(cnf));
    s.solve();
    std::uint64_t visits = 0;
    for (int i = 0; i < s.numOriginalClauses(); ++i)
        visits += s.clausePropagationVisits(i);
    EXPECT_GT(visits, 0u);
}

TEST(Solver, SolveTwiceIsStable)
{
    Cnf cnf(2);
    cnf.addClause(mkLit(0), mkLit(1));
    Solver s;
    ASSERT_TRUE(s.loadCnf(cnf));
    EXPECT_TRUE(s.solve().isTrue());
    EXPECT_TRUE(s.solve().isTrue());
    EXPECT_TRUE(cnf.eval(s.boolModel()));
}

TEST(Solver, KissatStyleOptionsSolveCorrectly)
{
    Rng rng(37);
    for (int round = 0; round < 10; ++round) {
        Cnf cnf = testing::randomCnf(15, 60, 3, rng);
        Solver s(SolverOptions::kissatStyle());
        ASSERT_TRUE(s.loadCnf(cnf));
        const auto expected = bruteForceSolve(cnf).satisfiable;
        const lbool got = s.solve();
        ASSERT_FALSE(got.isUndef());
        EXPECT_EQ(got.isTrue(), expected) << "round " << round;
    }
}

TEST(Solver, RandomBranchingStillSound)
{
    Rng rng(41);
    SolverOptions opts;
    opts.branching = Branching::Random;
    opts.random_branch_freq = 0.2;
    for (int round = 0; round < 10; ++round) {
        Cnf cnf = testing::randomCnf(12, 50, 3, rng);
        Solver s(opts);
        ASSERT_TRUE(s.loadCnf(cnf));
        const auto expected = bruteForceSolve(cnf).satisfiable;
        const lbool got = s.solve();
        ASSERT_FALSE(got.isUndef());
        EXPECT_EQ(got.isTrue(), expected) << "round " << round;
    }
}

TEST(Solver, UnsatisfiedClausesMatchScanThroughoutSearch)
{
    // Several random instances, each searched under a conflict
    // budget so the trail sees deep assignments, conflicts and
    // backtracking; the enumeration must match the reference at
    // every sampled iteration.
    for (const std::uint64_t seed : {11u, 22u, 33u, 44u}) {
        Rng gen(seed);
        const auto cnf =
            testing::randomCnf(60, 250, 3, gen); // near 4.2 ratio
        Solver solver;
        ASSERT_TRUE(solver.loadCnf(cnf));

        int checked = 0, iteration = 0;
        solver.setIterationHook([&](Solver &s) {
            if (++iteration % 7 != 0) // sample, checks are O(M·3)
                return;
            ++checked;
            expectMatchesScan(s, "seed " + std::to_string(seed) +
                                     " iteration " +
                                     std::to_string(iteration));
        });
        solver.setConflictBudget(400);
        (void)solver.solve();
        EXPECT_GT(checked, 0) << "hook never sampled the search";
    }
}

TEST(Solver, UnsatisfiedClausesMatchScanAfterSolveAndAcrossRestarts)
{
    // Short restart intervals on a phase-transition instance: the
    // enumeration must match the reference on the first iteration
    // after every restart and once the budgeted solves return.
    Rng gen(5);
    const auto cnf = testing::randomCnf(80, 340, 3, gen);
    SolverOptions opts;
    opts.restart_first = 4;
    Solver solver(opts);
    ASSERT_TRUE(solver.loadCnf(cnf));
    std::uint64_t seen_restarts = 0;
    solver.setIterationHook([&](Solver &s) {
        if (s.stats().restarts == seen_restarts)
            return;
        seen_restarts = s.stats().restarts;
        expectMatchesScan(s, "restart " + std::to_string(seen_restarts));
    });
    solver.setConflictBudget(1000);
    const lbool first = solver.solve();
    EXPECT_GT(seen_restarts, 0u) << "no restart inside the budget";
    expectMatchesScan(solver, "after first solve");
    // A second solve resumes from the retained root state.
    solver.setConflictBudget(1000);
    const lbool second = solver.solve();
    if (!first.isUndef()) {
        EXPECT_EQ(second, first);
    }
    expectMatchesScan(solver, "after second solve");
}

TEST(Solver, UnsatisfiedClausesMatchScanAfterAssumptionBacktracking)
{
    // Drive the trail directly with assumptions: every prefix of
    // forced decisions ends in a solve() that backtracks to root
    // through a full cancelUntil sweep.
    Rng gen(9);
    const auto cnf = testing::randomCnf(30, 100, 3, gen);
    Solver solver;
    ASSERT_TRUE(solver.loadCnf(cnf));
    Rng pick(17);
    for (int round = 0; round < 10; ++round) {
        LitVec assumptions;
        const int depth = 1 + static_cast<int>(pick.below(8));
        for (int i = 0; i < depth; ++i) {
            assumptions.push_back(
                mkLit(static_cast<Var>(pick.below(30)),
                      pick.chance(0.5)));
        }
        solver.setConflictBudget(50);
        (void)solver.solveWithAssumptions(assumptions);
        expectMatchesScan(solver, "round " + std::to_string(round));
    }
}

TEST(Solver, AssumeSolveAddCyclesMatchScan)
{
    // The incremental-session usage pattern: alternating
    // solveWithAssumptions calls (which retract their assumption
    // levels on the way out) and root-level addClause calls against
    // a non-empty level-0 trail, some of them re-registering an
    // existing original index. The enumeration must match the
    // reference after every step, and the solve answers must match a
    // fresh solver over the accumulated formula.
    Rng gen(21);
    constexpr int kVars = 25;
    Cnf accumulated(kVars);
    Solver solver;
    // Seed formula below the unsat threshold so later ADDs matter.
    const auto seed_cnf = testing::randomCnf(kVars, 60, 3, gen);
    for (int i = 0; i < seed_cnf.numClauses(); ++i)
        accumulated.addClause(seed_cnf.clause(i));
    ASSERT_TRUE(solver.loadCnf(seed_cnf));

    Rng pick(23);
    bool alive = true;
    int reused = 0;
    for (int step = 0; step < 40 && alive; ++step) {
        const double dice = pick.uniform();
        if (dice < 0.45) { // ASSUME + SOLVE
            LitVec assumptions;
            const int depth = 1 + static_cast<int>(pick.below(6));
            for (int i = 0; i < depth; ++i) {
                assumptions.push_back(
                    mkLit(static_cast<Var>(pick.below(kVars)),
                          pick.chance(0.5)));
            }
            const lbool got =
                solver.solveWithAssumptions(assumptions);
            Solver fresh;
            ASSERT_TRUE(fresh.loadCnf(accumulated));
            const lbool want =
                fresh.solveWithAssumptions(assumptions);
            EXPECT_EQ(got.isTrue(), want.isTrue())
                << "step " << step;
            EXPECT_EQ(got.isFalse(), want.isFalse())
                << "step " << step;
        } else if (dice < 0.7) { // plain SOLVE
            (void)solver.solve();
        } else { // ADD, under the next or a reused original index
            LitVec clause;
            const int len = 1 + static_cast<int>(pick.below(3));
            for (int i = 0; i < len; ++i) {
                clause.push_back(
                    mkLit(static_cast<Var>(pick.below(kVars)),
                          pick.chance(0.5)));
            }
            accumulated.addClause(clause);
            const int n = solver.numOriginalClauses();
            int index = n;
            if (pick.chance(0.5)) {
                index = static_cast<int>(pick.below(n));
                ++reused;
            }
            alive = solver.addClause(clause, index);
            if (alive) {
                EXPECT_EQ(solver.originalClause(index), clause)
                    << "step " << step;
            }
        }
        expectMatchesScan(solver, "step " + std::to_string(step));
    }
    EXPECT_GT(reused, 0) << "no step re-registered an index";
}

TEST(Solver, SparseOriginalIndexGapsCountAsUnsatisfied)
{
    // Indices reserved by a sparse original_index but never given
    // literals have no true literal, so they are always unsatisfied.
    Solver solver;
    const Var a = solver.newVar();
    const Var b = solver.newVar();
    ASSERT_TRUE(solver.addClause({mkLit(a)}, 0)); // root unit: a
    ASSERT_TRUE(solver.addClause({mkLit(a), mkLit(b)}, 4));
    ASSERT_EQ(solver.numOriginalClauses(), 5);
    EXPECT_TRUE(solver.originalClause(2).empty());
    EXPECT_EQ(solver.unsatisfiedOriginalClauses(),
              (std::vector<int>{1, 2, 3}));
    expectMatchesScan(solver, "after sparse adds");
    // Filling a gap satisfies it like any other clause.
    ASSERT_TRUE(solver.addClause({mkLit(b, true), mkLit(a)}, 2));
    EXPECT_EQ(solver.unsatisfiedOriginalClauses(),
              (std::vector<int>{1, 3}));
    ASSERT_EQ(solver.solve(), l_True);
    expectMatchesScan(solver, "after solve");
}

TEST(Solver, AddClauseOnNonEmptyRootTrailMatchesScan)
{
    // A clause registered after root units exist sees the already
    // true/false literals exactly like the reference does.
    Solver solver;
    const Var a = solver.newVar();
    const Var b = solver.newVar();
    const Var c = solver.newVar();
    ASSERT_TRUE(solver.addClause({mkLit(a)}, 0)); // root unit: a
    ASSERT_TRUE(solver.value(a).isTrue());
    // Satisfied by the trail at registration time.
    ASSERT_TRUE(solver.addClause({mkLit(a), mkLit(b)}, 1));
    EXPECT_TRUE(solver.originalClauseSatisfiedNow(1));
    // Not satisfied: ~a is false, b/c unassigned.
    ASSERT_TRUE(
        solver.addClause({mkLit(a, true), mkLit(b), mkLit(c)}, 2));
    EXPECT_FALSE(solver.originalClauseSatisfiedNow(2));
    EXPECT_EQ(solver.unsatisfiedOriginalClauses(),
              (std::vector<int>{2}));
    expectMatchesScan(solver, "after root adds");
}

} // namespace
} // namespace hyqsat::sat
