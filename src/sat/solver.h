/**
 * @file
 * Conflict-driven clause-learning SAT solver.
 *
 * A from-scratch MiniSat-class solver: two-watched-literal
 * propagation over arena clauses, first-UIP learning with recursive
 * minimization, VSIDS or CHB branching, phase saving, Luby restarts
 * and activity-driven learnt-database reduction.
 *
 * Beyond a plain solver it provides the integration surface HyQSAT
 * needs: per-original-clause visit counters and conflict-frequency
 * activity scores (§IV-A of the paper), an iteration hook invoked at
 * every decision so the hybrid layer can interpose quantum feedback,
 * externally forced polarities (feedback strategy 2) and variable
 * priority bumps (feedback strategy 4).
 */

#ifndef HYQSAT_SAT_SOLVER_H
#define HYQSAT_SAT_SOLVER_H

#include <functional>
#include <vector>

#include "sat/clause.h"
#include "sat/cnf.h"
#include "sat/heap.h"
#include "sat/solver_options.h"
#include "sat/types.h"
#include "util/cancel.h"
#include "util/rng.h"

namespace hyqsat {
class Counter;
class Gauge;
class MetricTimer;
class MetricsRegistry;
class TraceSink;
} // namespace hyqsat

namespace hyqsat::sat {

/** CDCL solver. See file comment for the feature set. */
class Solver
{
  public:
    explicit Solver(const SolverOptions &opts = {});

    // ------------------------------------------------------------------
    // Problem construction
    // ------------------------------------------------------------------

    /** Allocate a fresh variable and return its index. */
    Var newVar();

    /** @return the number of variables. */
    int numVars() const { return static_cast<int>(assigns_.size()); }

    /**
     * Add a clause (top-level). Performs the standard root-level
     * simplifications (drop duplicate/false literals, detect
     * tautologies, enqueue units). May be called between solve
     * calls (IPASIR-style incremental use): learnt clauses, VSIDS
     * activity and saved polarities are retained, and the new clause
     * is simplified against the level-0 trail only. Calling it with
     * open decision levels is a programming error (panics).
     *
     * @param lits the clause literals
     * @param original_index index of this clause in the source Cnf
     *        for instrumentation, or -1 for an anonymous clause
     * @return false iff the formula became trivially unsatisfiable
     */
    bool addClause(LitVec lits, int original_index = -1);

    /** Load every clause of @p cnf, recording original indices. */
    bool loadCnf(const Cnf &cnf);

    // ------------------------------------------------------------------
    // Solving
    // ------------------------------------------------------------------

    /**
     * Run the CDCL search to completion or budget exhaustion.
     * @return l_True (satisfiable; model() is valid), l_False
     *         (unsatisfiable) or l_Undef (budget/stop request).
     */
    lbool solve();

    /**
     * Solve under assumptions: the given literals are forced as the
     * first decisions. On l_False, finalConflict() holds the subset
     * of assumptions the refutation used (negated), enabling
     * incremental use (unsat cores over assumptions). Variables
     * beyond numVars() are allocated on the fly. Repeated calls
     * (with addClause between them) retain learnt clauses, VSIDS
     * activity and saved polarity.
     */
    lbool solveWithAssumptions(const LitVec &assumptions);

    /**
     * After solveWithAssumptions() returned l_False: the clause
     * over negated assumptions implied by the formula (empty when
     * the formula is unsatisfiable on its own).
     */
    const LitVec &finalConflict() const { return final_conflict_; }

    /** @return the satisfying assignment after solve()==l_True. */
    const std::vector<lbool> &model() const { return model_; }

    /** @return model as a plain bool vector (undef mapped to false). */
    std::vector<bool> boolModel() const;

    /** @return false once the formula is known unsatisfiable. */
    bool okay() const { return ok_; }

    /** Current value of a variable / literal under the trail. */
    lbool value(Var v) const { return assigns_[v]; }
    lbool value(Lit p) const { return assigns_[p.var()] ^ p.sign(); }

    /** @return the current decision level. */
    int decisionLevel() const { return static_cast<int>(trail_lim_.size()); }

    // ------------------------------------------------------------------
    // Budgets and interruption
    // ------------------------------------------------------------------

    /** Limit the number of conflicts (negative = unlimited). */
    void setConflictBudget(std::int64_t b) { conflict_budget_ = b; }

    /** Limit the number of decisions (negative = unlimited). */
    void setDecisionBudget(std::int64_t b) { decision_budget_ = b; }

    /** Ask the search to stop at the next decision boundary. */
    void requestStop() { stop_requested_ = true; }

    /**
     * Observe an external cooperative stop token (shared across
     * threads, e.g. by a portfolio racing several solvers). The
     * token is polled at every decision and after every conflict, so
     * cancellation latency is one loop body. Unlike requestStop()
     * the token persists across solve() calls; pass nullptr to
     * detach. The solver never writes the token.
     */
    void setStopToken(const StopToken *token) { stop_token_ = token; }

    // ------------------------------------------------------------------
    // Hybrid-integration surface
    // ------------------------------------------------------------------

    /**
     * Hook invoked at the top of every decision iteration, before
     * the branching literal is picked. The hook may inspect the
     * solver, force phases, bump variables or requestStop().
     */
    using IterationHook = std::function<void(Solver &)>;
    void setIterationHook(IterationHook hook) { hook_ = std::move(hook); }

    /**
     * Hook invoked right after each conflict is analyzed and the
     * learnt clause recorded (the clause-activity epoch boundary).
     * Gives asynchronous sampling pipelines a completion-
     * notification point: in-flight samples built from the
     * pre-conflict clause queue can be reconciled (harvested or
     * marked stale) without waiting for the next decision. The hook
     * must not mutate the trail; phase hints, priority bumps and
     * requestStop() are allowed.
     */
    using ConflictHook = std::function<void(Solver &)>;
    void
    setConflictHook(ConflictHook hook)
    {
        conflict_hook_ = std::move(hook);
    }

    /**
     * Hook invoked for every clause learned from a conflict
     * (including units), with the learnt literals in asserting-first
     * order. Gives a portfolio layer an export tap for clause
     * sharing. Must not mutate the solver; it runs inside conflict
     * handling.
     */
    using LearntExportHook = std::function<void(const LitVec &)>;
    void
    setLearntExportHook(LearntExportHook hook)
    {
        export_hook_ = std::move(hook);
    }

    /**
     * Hook invoked whenever the search is at decision level 0 (after
     * root simplification, before the next decision) — the only
     * point where foreign clauses can be soundly attached. The hook
     * may call importClause()/suggestPhase()/requestStop().
     */
    using RootHook = std::function<void(Solver &)>;
    void setRootHook(RootHook hook) { root_hook_ = std::move(hook); }

    /**
     * Import a clause learned elsewhere (same variable space).
     * Root-level only (asserted): the clause is simplified against
     * the level-0 trail and attached to the learnt database, so the
     * usual reduction policy can drop it again. Units are enqueued
     * and propagated immediately.
     *
     * @return false iff the import refuted the formula (okay()
     *         becomes false), which a portfolio treats as UNSAT.
     */
    bool importClause(LitVec lits);

    /**
     * Force the next decisions on @p v to use polarity @p phase
     * (true = positive). Overrides phase saving until reassigned.
     */
    void setPhase(Var v, bool phase);

    /**
     * Soft polarity hint: seeds the phase-saving state with @p
     * phase, so the next decision on @p v starts there but later
     * assignments overwrite it (safer than setPhase for external
     * guidance that may be stale).
     */
    void suggestPhase(Var v, bool phase);

    /** Clear a forced phase, returning @p v to saved-phase policy. */
    void clearPhase(Var v);

    /**
     * Multiply-bump a variable's branching score so it is decided
     * soon (used by feedback strategy 4).
     */
    void bumpVarPriority(Var v, double factor = 1.0);

    // ------------------------------------------------------------------
    // Instrumentation (per original clause, always on)
    // ------------------------------------------------------------------

    /** Visits of clause @p idx during propagation (Fig. 5). */
    std::uint64_t
    clausePropagationVisits(int idx) const
    {
        return visits_prop_[idx];
    }

    /** Visits of clause @p idx during conflict resolving (Fig. 5). */
    std::uint64_t
    clauseConflictVisits(int idx) const
    {
        return visits_confl_[idx];
    }

    /**
     * Conflict-frequency activity score of original clause @p idx
     * (starts at 1, +1 whenever the clause participates in a
     * conflict resolution; §IV-A).
     */
    double clauseActivityScore(int idx) const { return paper_score_[idx]; }

    /** Number of instrumented original clauses. */
    int numOriginalClauses() const
    {
        return static_cast<int>(paper_score_.size());
    }

    /** @return literals of original clause @p idx (from the input). */
    const LitVec &originalClause(int idx) const { return source_[idx]; }

    /**
     * @return true iff original clause @p idx is satisfied under the
     * current (possibly partial) trail: a scan of the clause's
     * literals.
     */
    bool originalClauseSatisfiedNow(int idx) const;

    /** Indices of original clauses not yet satisfied by the trail. */
    std::vector<int> unsatisfiedOriginalClauses() const;

    /**
     * Fill @p out with the indices of unsatisfied original clauses,
     * ascending, reusing @p out's capacity: one O(M·3) scan of every
     * original clause. Index gaps left by a sparse original_index have
     * no literals and so count as unsatisfied.
     */
    void unsatisfiedOriginalClausesInto(std::vector<int> &out) const;

    /** Search statistics. */
    const SolverStats &stats() const { return stats_; }

    /** @return the configured options (read-only). */
    const SolverOptions &options() const { return opts_; }

    // ------------------------------------------------------------------
    // Observability
    // ------------------------------------------------------------------

    /**
     * Resolve record handles against @p registry (nullptr detaches).
     * SolverStats stays the live in-loop counter block; the solver
     * publishes deltas into the registry at restart boundaries and at
     * the end of every solve, so the hot path is untouched and a
     * detached solver pays one branch per cold publish site. Restart
     * events (number, conflict limit) go to the registry's trace
     * sink when one is attached.
     */
    void attachMetrics(MetricsRegistry *registry);

    /**
     * Test shim: lower the clause arena's capacity limit so the
     * 32-bit overflow guard (gc-then-panic) can be exercised without
     * allocating the full CRef address space.
     */
    void
    setArenaCapacityLimitForTest(std::size_t words)
    {
        arena_.setCapacityLimitForTest(words);
    }

    /**
     * Conflict limit of the @p restart_number-th restart. Geometric
     * schedules (`pow(restart_inc, n) * restart_first`) overflow any
     * integer after a few dozen restarts, so the limit saturates at
     * INT64_MAX instead of invoking cast UB; always >= 1. Public for
     * the restart-overflow regression tests.
     */
    std::int64_t restartLimit(int restart_number) const;

  private:
    // --- internal types ------------------------------------------------
    struct Watcher
    {
        CRef cref;
        Lit blocker;
    };

    struct VarData
    {
        CRef reason = CRef_Undef;
        int level = 0;
    };

    // --- propagation ---------------------------------------------------
    void attachClause(CRef cr);
    void detachClause(CRef cr);
    bool enqueue(Lit p, CRef from);
    CRef propagate();

    // --- conflict analysis ----------------------------------------------
    void analyze(CRef confl, LitVec &out_learnt, int &out_btlevel);
    void analyzeFinal(Lit p, LitVec &out_conflict);
    bool litRedundant(Lit p, std::uint32_t abstract_levels);
    void cancelUntil(int level);

    // --- branching -------------------------------------------------------
    Lit pickBranchLit();
    void insertVarOrder(Var v);
    void bumpVarActivity(Var v, double inc);
    void decayVarActivity();
    void chbUpdate(Var v, bool in_conflict);

    // --- learnt DB management ---------------------------------------------
    void bumpClauseActivity(Clause &c);
    void decayClauseActivity();
    void reduceDB();
    void removeClause(CRef cr);
    bool isLocked(const Clause &c) const;
    void garbageCollect();
    void relocAll(ClauseArena &to);
    bool simplifyAtRoot();

    // --- search ------------------------------------------------------------
    lbool solveInternal();
    lbool search(std::int64_t max_conflicts);
    bool budgetExhausted() const;

    void noteClauseInConflict(const Clause &c);

    /** Add SolverStats deltas since the last publish to the registry. */
    void publishMetrics();

    // --- data ----------------------------------------------------------------
    SolverOptions opts_;
    Rng rng_;

    ClauseArena arena_;
    std::vector<CRef> originals_;
    std::vector<CRef> learnts_;

    std::vector<std::vector<Watcher>> watches_; // indexed by Lit.x
    std::vector<lbool> assigns_;
    std::vector<VarData> vardata_;
    std::vector<bool> polarity_;     // saved phase (true = negative!)
    std::vector<lbool> user_phase_;  // forced phase, l_Undef if none
    std::vector<char> seen_;
    std::vector<Lit> analyze_stack_;
    std::vector<Lit> analyze_clear_;

    std::vector<Lit> trail_;
    std::vector<int> trail_lim_;
    int qhead_ = 0;

    std::vector<double> scores_; // branching scores (VSIDS or CHB)
    VarOrderHeap order_heap_;
    double var_inc_ = 1.0;
    double cla_inc_ = 1.0;
    double chb_alpha_ = 0.4;
    std::vector<std::uint64_t> chb_last_conflict_;

    double max_learnts_ = 0.0;
    int learntsize_adjust_cnt_ = 0;
    double learntsize_adjust_confl_ = 0.0;

    /** requestStop() or an external stop-token trip. */
    bool stopNow() const
    {
        return stop_requested_ ||
               (stop_token_ && stop_token_->stopRequested());
    }

    bool ok_ = true;
    bool stop_requested_ = false;
    const StopToken *stop_token_ = nullptr;
    std::int64_t conflict_budget_ = -1;
    std::int64_t decision_budget_ = -1;

    std::vector<lbool> model_;
    LitVec assumptions_;
    LitVec final_conflict_;
    SolverStats stats_;

    /**
     * Handles into an attached MetricsRegistry, all null when
     * detached (the one-branch-per-record-site contract). Counters
     * receive SolverStats deltas from publishMetrics().
     */
    struct MetricHandles
    {
        Counter *decisions = nullptr;
        Counter *propagations = nullptr;
        Counter *conflicts = nullptr;
        Counter *restarts = nullptr;
        Counter *reduce_dbs = nullptr;
        Counter *learned_clauses = nullptr;
        Counter *removed_clauses = nullptr;
        Counter *minimized_literals = nullptr;
        Counter *exported_clauses = nullptr;
        Counter *imported_clauses = nullptr;
        Counter *iterations = nullptr;
        MetricTimer *search_s = nullptr;
        Gauge *propagations_per_s = nullptr;
        TraceSink *trace = nullptr;
    };
    MetricHandles metrics_;
    SolverStats metrics_base_; ///< last published SolverStats values

    IterationHook hook_;
    ConflictHook conflict_hook_;
    LearntExportHook export_hook_;
    RootHook root_hook_;

    // Instrumentation state (parallel to the source Cnf clauses).
    std::vector<LitVec> source_;
    std::vector<std::uint64_t> visits_prop_;
    std::vector<std::uint64_t> visits_confl_;
    std::vector<double> paper_score_;
};

} // namespace hyqsat::sat

#endif // HYQSAT_SAT_SOLVER_H
