/**
 * @file
 * The HyQSAT loop (§III), as an IPASIR-style session. This is the
 * one place the loop lives: HybridSolver::solve is a session opened
 * for a single solve() and dropped. A Session accepts clauses and
 * repeated solve(assumptions) calls; between calls it retains the
 * CDCL solver (learnt clauses, VSIDS activity, saved polarities),
 * the sampling pipeline (frontend workspace with its embedding cache
 * and compiled-slot memos), and the simplify result the formula was
 * compiled through.
 *
 * The simplify layer runs once per *compile*, not per solve:
 * assumptions and delta clauses are translated into the simplified
 * variable space with simplify::Result::mapLiteral. Assumption
 * variables are frozen (exempt from substitution and elimination) so
 * the translation exists; an assumption or delta clause that lands
 * on an already-eliminated variable triggers a freeze-and-recompile
 * instead of an error. All external surfaces — clauses, assumptions,
 * models and failed-assumption cores — speak the original variable
 * space.
 */

#ifndef HYQSAT_CORE_SESSION_H
#define HYQSAT_CORE_SESSION_H

#include <memory>
#include <set>
#include <vector>

#include "core/hybrid_solver.h"
#include "core/pipeline.h"

namespace hyqsat::core {

/** An incremental solving session. Not thread-safe; one per caller. */
class Session
{
  public:
    explicit Session(const HybridConfig &config = {});
    ~Session();

    Session(const Session &) = delete;
    Session &operator=(const Session &) = delete;

    /**
     * Append a clause (original variable space; at most 3 literals,
     * like every hybrid entry point — convert with sat::toThreeSat
     * first). Between solves the clause is mapped through the
     * current compile and attached to the running solver without
     * discarding learnt state; only a clause over an eliminated
     * variable forces a recompile at the next solve.
     *
     * @return false iff the formula is now *known* unsatisfiable
     *         regardless of assumptions. Detection is lazy before
     *         the first solve compiles the formula (a contradiction
     *         added then still yields l_False at the next solve).
     */
    bool addClause(sat::LitVec lits);

    /** Append every clause of @p cnf (see addClause). */
    bool addFormula(const sat::Cnf &cnf);

    /**
     * Mark a variable externally visible before the first solve
     * compiles the formula (assumption variables are frozen
     * automatically; use this for variables shared with other
     * sessions or future delta clauses to avoid recompiles).
     */
    void freeze(sat::Var v);

    /**
     * Solve the accumulated formula under @p assumptions, reusing
     * the session's warm state. Each call runs its own sqrt(K)
     * QA warm-up window on top of the iterations already spent.
     * On l_False, failedAssumptions() holds the clause over negated
     * assumptions the refutation used (empty when the formula is
     * unsatisfiable on its own). Result counters and times are
     * per-call deltas; the call that compiles the formula also
     * counts the solver's load-time work. The QA
     * queue-sampling stream restarts from the config seed each call,
     * so a repeated call pattern regenerates identical clause queues
     * and reuses the retained embedding memo.
     */
    HybridResult solve(const sat::LitVec &assumptions = {});

    /** Failed-assumption core of the last l_False solve. */
    const sat::LitVec &failedAssumptions() const
    {
        return final_conflict_;
    }

    /** The formula accumulated so far (original space). */
    const sat::Cnf &formula() const { return *formula_; }

    /** Times the session recompiled (simplify + solver rebuild). */
    int recompiles() const { return recompiles_; }

    /** Solve calls issued. */
    int solves() const { return solves_; }

    /**
     * Session-lifetime registry: the loop's frontend.*, pipeline.*,
     * backend.*, anneal.*, solver.* and hybrid.* metrics accumulate
     * here across solves (merged into HybridConfig::metrics when the
     * session closes). Lifecycle counts are the accessors above, not
     * registry keys: the service owns the session.* names.
     */
    const MetricsRegistry &metrics() const { return metrics_; }

    const HybridConfig &config() const { return config_; }

  private:
    friend class HybridSolver;

    /**
     * The one-shot session behind HybridSolver::solve: shares the
     * solver's topology and runs on @p formula in place instead of
     * copying it, so @p formula must outlive the session. A change
     * to the formula copies it in first (ownFormula).
     */
    Session(const HybridConfig &config,
            std::shared_ptr<const topology::Topology> graph,
            const sat::Cnf &formula);

    /** The accumulated formula, copied in first if it is borrowed. */
    sat::Cnf &ownFormula();

    /** Simplify the accumulated formula and rebuild the warm state. */
    void recompile();

    bool simplifying() const
    {
        return config_.simplify_strength != simplify::Strength::Off;
    }

    /**
     * The formula the loop runs on: without simplification the
     * formula itself (a one-shot session's is its caller's), so the
     * loop holds no copy of it.
     */
    const sat::Cnf &work() const
    {
        return simplifying() ? simp_.cnf : *formula_;
    }

    /**
     * Map this call's assumptions into the compile's variable space,
     * freezing + recompiling when one lands on an eliminated
     * variable. Fills @p mapped (deduplicated against nothing — the
     * solver tolerates duplicates) and @p amap with
     * (mapped, original) pairs for core map-back.
     * @return false iff an assumption is root-falsified (the caller
     *         returns l_False; final_conflict_ already holds the
     *         negated falsified assumptions).
     */
    bool mapAssumptions(
        const sat::LitVec &assumptions, sat::LitVec &mapped,
        std::vector<std::pair<sat::Lit, sat::Lit>> &amap);

    HybridConfig config_;
    std::shared_ptr<const topology::Topology> graph_;
    MetricsRegistry metrics_;

    /** Everything ever added, original variable space. */
    sat::Cnf accumulated_;

    /** The formula so far: &accumulated_ or a borrowed one. */
    const sat::Cnf *formula_ = &accumulated_;

    /** Explicit freezes plus every assumption variable ever seen. */
    std::set<sat::Var> frozen_;

    /** Current compile (identity when not simplifying) + deltas. */
    simplify::Result simp_;
    bool compiled_ = false;
    bool need_recompile_ = false;
    bool formula_unsat_ = false; ///< UNSAT regardless of assumptions

    // Warm hybrid state, rebuilt only by recompile(). Declaration
    // order is destruction-safety order: pipeline_ references
    // frontend_, sampler_ and rng_, solver_ hooks reference
    // pipeline_ — members below are torn down before the ones above.
    Rng rng_{0};
    std::unique_ptr<Frontend> frontend_;
    std::unique_ptr<Backend> backend_;
    std::unique_ptr<anneal::Sampler> sampler_;
    std::unique_ptr<SamplePipeline> pipeline_;
    std::unique_ptr<sat::Solver> solver_;
    std::vector<ReadySample> ready_;

    /** solver_'s counters as of the last solve (zero when rebuilt). */
    sat::SolverStats stats_mark_;

    sat::LitVec final_conflict_; ///< original-space failed core
    int recompiles_ = 0;
    int solves_ = 0;
};

} // namespace hyqsat::core

#endif // HYQSAT_CORE_SESSION_H
