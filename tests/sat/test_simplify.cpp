#include <gtest/gtest.h>

/**
 * @file
 * The equivalence-preserving preprocessing contract: simplify::Pipeline
 * with only unit propagation, subsumption and self-subsuming
 * resolution keeps the formula equivalent over the original
 * variables, so the fixed units alone extend any model.
 */

#include "sat/brute_force.h"
#include "sat/solver.h"
#include "simplify/pipeline.h"
#include "tests/sat/helpers.h"

namespace hyqsat::sat {
namespace {

/** The equivalence-preserving pass set (no SCC, probing, BVE...). */
simplify::Options
equivalenceOptions()
{
    simplify::Options opts;
    opts.equivalent_literals = false;
    return opts;
}

simplify::Result
simplifyCnf(const Cnf &cnf,
            const simplify::Options &opts = equivalenceOptions())
{
    return simplify::Pipeline(opts).run(cnf);
}

TEST(Simplify, EmptyFormulaUnchanged)
{
    const auto r = simplifyCnf(Cnf(3));
    EXPECT_TRUE(r.satisfiable_possible);
    EXPECT_EQ(r.cnf.numClauses(), 0);
    EXPECT_TRUE(r.fixed.empty());
}

TEST(Simplify, UnitPropagationFixesChain)
{
    // x0; ~x0 v x1; ~x1 v x2: all three become fixed units.
    Cnf cnf(3);
    cnf.addClause(mkLit(0));
    cnf.addClause(mkLit(0, true), mkLit(1));
    cnf.addClause(mkLit(1, true), mkLit(2));
    const auto r = simplifyCnf(cnf);
    EXPECT_TRUE(r.satisfiable_possible);
    EXPECT_EQ(r.stats.units, 3);
    EXPECT_EQ(r.cnf.numClauses(), 0);
    const auto model = r.extendModel(std::vector<bool>(3, false));
    EXPECT_TRUE(cnf.eval(model));
}

TEST(Simplify, ContradictionDetected)
{
    Cnf cnf(1);
    cnf.addClause(mkLit(0));
    cnf.addClause(mkLit(0, true));
    const auto r = simplifyCnf(cnf);
    EXPECT_FALSE(r.satisfiable_possible);
}

TEST(Simplify, TautologiesDropped)
{
    Cnf cnf(2);
    cnf.addClause(mkLit(0), mkLit(0, true));
    cnf.addClause(mkLit(0), mkLit(1));
    const auto r = simplifyCnf(cnf);
    EXPECT_EQ(r.stats.tautologies, 1);
    EXPECT_EQ(r.cnf.numClauses(), 1);
}

TEST(Simplify, SubsumptionRemovesSuperset)
{
    // (x0 v x1) subsumes (x0 v x1 v x2).
    Cnf cnf(3);
    cnf.addClause(mkLit(0), mkLit(1));
    cnf.addClause(mkLit(0), mkLit(1), mkLit(2));
    const auto r = simplifyCnf(cnf);
    EXPECT_EQ(r.stats.subsumed, 1);
    EXPECT_EQ(r.cnf.numClauses(), 1);
    EXPECT_EQ(r.cnf.clause(0).size(), 2u);
}

TEST(Simplify, SelfSubsumptionStrengthens)
{
    // (x0 v x1) and (~x0 v x1 v x2): resolving on x0 gives
    // (x1 v x2)... self-subsumption strengthens the second clause
    // to (x1 v x2) only if (x0 v x1) flipped at x0 = (~x0 v x1) is
    // a subset of it; here (~x0 v x1) subset of (~x0 v x1 v x2) ->
    // remove... that is plain subsumption of a flipped copy:
    // the pass removes ~x0? No: flipping x0 in the FIRST clause
    // gives (~x0 v x1) which subsumes-with-flip the second, so the
    // second loses ~x0 and becomes (x1 v x2).
    Cnf cnf(3);
    cnf.addClause(mkLit(0), mkLit(1));
    cnf.addClause(mkLit(0, true), mkLit(1), mkLit(2));
    const auto r = simplifyCnf(cnf);
    EXPECT_GE(r.stats.strengthened, 1);
    // Equivalence: brute force agrees.
    EXPECT_EQ(bruteForceSolve(cnf).satisfiable,
              bruteForceSolve(r.cnf).satisfiable);
}

TEST(Simplify, PreservesEquivalenceOnRandomInstances)
{
    Rng rng(7);
    for (int round = 0; round < 20; ++round) {
        const Cnf cnf = testing::randomCnf(10, 45, 3, rng);
        const auto r = simplifyCnf(cnf);
        const bool original = bruteForceSolve(cnf).satisfiable;
        if (!r.satisfiable_possible) {
            EXPECT_FALSE(original) << "round " << round;
            continue;
        }
        // Solve the simplified formula and extend the model.
        Solver s;
        ASSERT_TRUE(s.loadCnf(r.cnf) || !original);
        const lbool simplified =
            s.okay() ? s.solve() : l_False;
        ASSERT_FALSE(simplified.isUndef());
        EXPECT_EQ(simplified.isTrue(), original) << "round " << round;
        if (simplified.isTrue()) {
            auto model = r.extendModel(s.boolModel());
            model.resize(std::max<std::size_t>(model.size(),
                                               cnf.numVars()),
                         false);
            EXPECT_TRUE(cnf.eval(model)) << "round " << round;
        }
    }
}

TEST(Simplify, IdempotentOnFixpoint)
{
    Rng rng(11);
    const Cnf cnf = testing::randomCnf(20, 80, 3, rng);
    const auto once = simplifyCnf(cnf);
    const auto twice = simplifyCnf(once.cnf);
    EXPECT_EQ(twice.stats.units, 0);
    EXPECT_EQ(twice.stats.subsumed, 0);
    EXPECT_EQ(twice.stats.strengthened, 0);
    EXPECT_EQ(twice.cnf.numClauses(), once.cnf.numClauses());
}

TEST(Simplify, OptionsDisablePasses)
{
    Cnf cnf(3);
    cnf.addClause(mkLit(0), mkLit(1));
    cnf.addClause(mkLit(0), mkLit(1), mkLit(2));
    simplify::Options opts = equivalenceOptions();
    opts.subsumption = false;
    opts.self_subsumption = false;
    const auto r = simplifyCnf(cnf, opts);
    EXPECT_EQ(r.stats.subsumed, 0);
    EXPECT_EQ(r.cnf.numClauses(), 2);
}

TEST(Simplify, ReducesPhaseTransitionInstances)
{
    // Preprocessing should strictly shrink duplicate-rich formulas.
    Rng rng(13);
    Cnf cnf = testing::randomCnf(30, 120, 3, rng);
    // Inject duplicates and supersets.
    const auto base = cnf.clauses();
    for (int i = 0; i < 20; ++i) {
        auto clause = base[i];
        clause.push_back(mkLit(static_cast<Var>(i % 30)));
        cnf.addClause(clause);
    }
    const auto r = simplifyCnf(cnf);
    EXPECT_LT(r.cnf.numClauses(), cnf.numClauses());
}

} // namespace
} // namespace hyqsat::sat
