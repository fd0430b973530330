/**
 * @file
 * Tunable options for the CDCL solver. Two presets reproduce the
 * paper's baselines: minisatStyle() (VSIDS, Luby restarts) and
 * kissatStyle() (CHB-flavoured branching, faster restarts, more
 * aggressive clause-database reduction).
 */

#ifndef HYQSAT_SAT_SOLVER_OPTIONS_H
#define HYQSAT_SAT_SOLVER_OPTIONS_H

#include <cstdint>

namespace hyqsat::sat {

/** Branching heuristic selector. */
enum class Branching
{
    VSIDS,  ///< exponential VSIDS as in MiniSat/Chaff
    CHB,    ///< conflict-history-based bandit scores (Kissat family)
    Random, ///< uniform random (testing / ablation baseline)
};

/** Solver configuration knobs. */
struct SolverOptions
{
    /** Branching heuristic. */
    Branching branching = Branching::VSIDS;

    /** VSIDS activity decay factor (applied per conflict). */
    double var_decay = 0.95;

    /** Learnt clause activity decay factor. */
    double clause_decay = 0.999;

    /** Probability of a random decision instead of the heuristic. */
    double random_branch_freq = 0.0;

    /** Use Luby restarts (true) or geometric restarts (false). */
    bool luby_restarts = true;

    /** Base restart interval in conflicts. */
    int restart_first = 100;

    /** Geometric restart multiplier when luby_restarts is false. */
    double restart_inc = 1.5;

    /** Enable saving and reusing variable polarities. */
    bool phase_saving = true;

    /** Default polarity when no phase is saved (false = negative). */
    bool default_phase = false;

    /** Enable recursive conflict-clause minimization. */
    bool ccmin = true;

    /** Fraction of learnts kept at each database reduction. */
    double learnt_keep_ratio = 0.5;

    /** Initial learnt-database limit as a fraction of clauses. */
    double learnt_size_factor = 1.0 / 3.0;

    /** Growth of the learnt-database limit per reduction. */
    double learnt_size_inc = 1.1;

    /** CHB step size alpha (decays to chb_alpha_min). */
    double chb_alpha = 0.4;
    double chb_alpha_min = 0.06;
    double chb_alpha_decay = 1e-6;

    /** RNG seed for random decisions / polarity tiebreaks. */
    std::uint64_t seed = 91648253;

    /** Conflict budget; negative means unlimited. */
    std::int64_t conflict_budget = -1;

    /** Decision budget; negative means unlimited. */
    std::int64_t decision_budget = -1;

    /** @return the MiniSat-like baseline configuration. */
    static SolverOptions
    minisatStyle()
    {
        SolverOptions o;
        o.branching = Branching::VSIDS;
        o.var_decay = 0.95;
        o.luby_restarts = true;
        o.restart_first = 100;
        return o;
    }

    /** @return the Kissat-like baseline configuration. */
    static SolverOptions
    kissatStyle()
    {
        SolverOptions o;
        o.branching = Branching::CHB;
        o.luby_restarts = true;
        o.restart_first = 50;
        o.learnt_keep_ratio = 0.4;
        o.default_phase = true;
        return o;
    }
};

/** Aggregate search counters exposed after (or during) solving. */
struct SolverStats
{
    std::uint64_t decisions = 0;
    std::uint64_t propagations = 0;
    std::uint64_t conflicts = 0;
    std::uint64_t restarts = 0;
    std::uint64_t learned_clauses = 0;
    std::uint64_t removed_clauses = 0;
    std::uint64_t minimized_literals = 0;

    /** Learnt-database reductions (reduceDB invocations). */
    std::uint64_t reduce_dbs = 0;

    /** Clauses offered to the learnt-export hook (clause sharing). */
    std::uint64_t exported_clauses = 0;

    /** Foreign clauses attached through importClause(). */
    std::uint64_t imported_clauses = 0;

    /**
     * Paper-style iteration count: one iteration is one
     * decision / propagation / conflict-resolving cycle (§VI-B).
     */
    std::uint64_t iterations = 0;
};

} // namespace hyqsat::sat

#endif // HYQSAT_SAT_SOLVER_OPTIONS_H
