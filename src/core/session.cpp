#include "core/session.h"

#include <cmath>
#include <utility>

#include "util/logging.h"
#include "util/timer.h"

namespace hyqsat::core {

namespace {

/** Per-call deltas of the cumulative CDCL counters. */
sat::SolverStats
statsDelta(const sat::SolverStats &after, const sat::SolverStats &before)
{
    sat::SolverStats d;
    d.decisions = after.decisions - before.decisions;
    d.propagations = after.propagations - before.propagations;
    d.conflicts = after.conflicts - before.conflicts;
    d.restarts = after.restarts - before.restarts;
    d.learned_clauses = after.learned_clauses - before.learned_clauses;
    d.removed_clauses = after.removed_clauses - before.removed_clauses;
    d.minimized_literals =
        after.minimized_literals - before.minimized_literals;
    d.reduce_dbs = after.reduce_dbs - before.reduce_dbs;
    d.exported_clauses = after.exported_clauses - before.exported_clauses;
    d.imported_clauses = after.imported_clauses - before.imported_clauses;
    d.iterations = after.iterations - before.iterations;
    return d;
}

PipelineStats
pipelineDelta(const PipelineStats &after, const PipelineStats &before)
{
    PipelineStats d;
    d.submitted = after.submitted - before.submitted;
    d.harvested = after.harvested - before.harvested;
    d.stale_discarded = after.stale_discarded - before.stale_discarded;
    d.stopped_discarded =
        after.stopped_discarded - before.stopped_discarded;
    d.stalls = after.stalls - before.stalls;
    d.frontend_s = after.frontend_s - before.frontend_s;
    d.host_sample_s = after.host_sample_s - before.host_sample_s;
    d.device_s = after.device_s - before.device_s;
    d.inflight_s = after.inflight_s - before.inflight_s;
    d.blocking_s = after.blocking_s - before.blocking_s;
    d.chain_breaks = after.chain_breaks - before.chain_breaks;
    return d;
}

/** @return true iff @p model (indexed by variable) satisfies @p p. */
bool
litHolds(const std::vector<bool> &model, sat::Lit p)
{
    const auto v = static_cast<std::size_t>(p.var());
    if (v >= model.size())
        return false;
    return model[v] != p.sign();
}

} // namespace

std::unique_ptr<Session>
HybridSolver::openSession() const
{
    return std::make_unique<Session>(config_);
}

Session::Session(const HybridConfig &config)
    : config_(config),
      graph_(std::make_shared<const topology::Topology>(
          config.topology, config.chimera_rows, config.chimera_cols,
          config.chimera_shore))
{
    if (config_.metrics)
        metrics_.setTrace(config_.metrics->trace());
}

Session::Session(const HybridConfig &config,
                 std::shared_ptr<const topology::Topology> graph,
                 const sat::Cnf &formula)
    : config_(config), graph_(std::move(graph)), formula_(&formula)
{
    if (!formula.isThreeSat()) {
        fatal("HybridSolver requires 3-SAT input (longest clause has "
              "%d literals); convert with sat::toThreeSat first",
              formula.maxClauseSize());
    }
    if (config_.metrics)
        metrics_.setTrace(config_.metrics->trace());
}

Session::~Session()
{
    // Lifetime totals fold into the configured registry exactly once.
    if (config_.metrics)
        config_.metrics->merge(metrics_);
}

void
Session::freeze(sat::Var v)
{
    if (v < 0)
        return;
    if (frozen_.insert(v).second && compiled_ &&
        simp_.mapLiteral(sat::mkLit(v, false)).kind ==
            simplify::MappedLit::Kind::Eliminated) {
        need_recompile_ = true;
    }
}

bool
Session::addClause(sat::LitVec lits)
{
    if (lits.size() > 3) {
        fatal("Session requires 3-SAT input (clause has %d literals); "
              "convert with sat::toThreeSat first",
              static_cast<int>(lits.size()));
    }
    ownFormula().addClause(lits);
    if (!compiled_ || need_recompile_ || formula_unsat_)
        return !formula_unsat_;

    // Live path: translate into the compile's space and attach to
    // the running solver, keeping its learnt state.
    sat::LitVec mapped;
    for (const sat::Lit p : lits) {
        const simplify::MappedLit m = simp_.mapLiteral(p);
        switch (m.kind) {
          case simplify::MappedLit::Kind::True:
            return true; // already satisfied at the root
          case simplify::MappedLit::Kind::False:
            break; // literal drops out
          case simplify::MappedLit::Kind::Eliminated:
            // The variable only exists in the reconstruction stack;
            // re-simplify with it frozen before the next solve.
            need_recompile_ = true;
            return true;
          case simplify::MappedLit::Kind::Free:
            mapped.push_back(m.lit);
            break;
        }
    }
    if (simplifying())
        simp_.cnf.addClause(mapped);
    if (!solver_->addClause(std::move(mapped), work().numClauses() - 1))
        formula_unsat_ = true;
    return !formula_unsat_;
}

bool
Session::addFormula(const sat::Cnf &cnf)
{
    ownFormula().ensureVars(cnf.numVars());
    bool ok = !formula_unsat_;
    for (const sat::LitVec &c : cnf.clauses())
        ok = addClause(c);
    return ok;
}

sat::Cnf &
Session::ownFormula()
{
    if (formula_ != &accumulated_) {
        accumulated_ = *formula_;
        formula_ = &accumulated_;
    }
    return accumulated_;
}

void
Session::recompile()
{
    ++recompiles_;
    compiled_ = true;
    need_recompile_ = false;
    formula_unsat_ = false;
    final_conflict_.clear();

    if (simplifying()) {
        simplify::Options so =
            simplify::Options::preset(config_.simplify_strength);
        so.frozen.assign(frozen_.begin(), frozen_.end());
        simp_ = simplify::Pipeline(so, &metrics_).run(*formula_);
        if (!simp_.satisfiable_possible) {
            formula_unsat_ = true;
            return;
        }
    }

    // Rebuild the warm state against the new formula. The pipeline
    // references frontend/sampler/rng, so it goes first.
    pipeline_.reset();
    frontend_ = std::make_unique<Frontend>(*graph_, config_.frontend,
                                           &metrics_);
    backend_ = std::make_unique<Backend>(config_.backend, &metrics_);
    anneal::SamplerSpec spec = hybridSamplerSpec(config_);
    spec.metrics = &metrics_;
    sampler_ = anneal::makeSampler(spec, *graph_);
    rng_ = Rng(config_.seed);
    pipeline_ = std::make_unique<SamplePipeline>(
        *frontend_, *sampler_, rng_, config_.use_embedding, &metrics_);

    solver_ = std::make_unique<sat::Solver>(config_.solver);
    stats_mark_ = {};
    solver_->attachMetrics(&metrics_);
    if (config_.stop)
        solver_->setStopToken(config_.stop);
    if (config_.learnt_export)
        solver_->setLearntExportHook(config_.learnt_export);
    if (config_.root_hook)
        solver_->setRootHook(config_.root_hook);
    if (!solver_->loadCnf(work())) {
        formula_unsat_ = true;
        return;
    }
    if (pipeline_->asynchronous()) {
        SamplePipeline *pipeline = pipeline_.get();
        solver_->setConflictHook([pipeline](sat::Solver &s) {
            pipeline->notifyConflict(s.stats().conflicts);
        });
    }
}

bool
Session::mapAssumptions(
    const sat::LitVec &assumptions, sat::LitVec &mapped,
    std::vector<std::pair<sat::Lit, sat::Lit>> &amap)
{
    for (int attempt = 0;; ++attempt) {
        mapped.clear();
        amap.clear();
        std::vector<sat::Var> must_freeze;
        sat::LitVec falsified;
        for (const sat::Lit a : assumptions) {
            const simplify::MappedLit m = simp_.mapLiteral(a);
            switch (m.kind) {
              case simplify::MappedLit::Kind::True:
                break; // holds at the root: nothing to assume
              case simplify::MappedLit::Kind::False:
                falsified.push_back(~a);
                break;
              case simplify::MappedLit::Kind::Eliminated:
                must_freeze.push_back(a.var());
                break;
              case simplify::MappedLit::Kind::Free:
                mapped.push_back(m.lit);
                amap.emplace_back(m.lit, a);
                break;
            }
        }
        if (!falsified.empty()) {
            final_conflict_ = std::move(falsified);
            return false;
        }
        if (must_freeze.empty())
            return true;
        // Freezing the original variable keeps it out of both the
        // SCC substitution and BVE next time, so the retry cannot
        // see Eliminated again for it; two rounds always suffice.
        if (attempt >= 2)
            panic("assumption mapping failed to stabilize");
        for (const sat::Var v : must_freeze)
            frozen_.insert(v);
        recompile();
        if (formula_unsat_)
            return true; // caller notices via the flag
    }
}

HybridResult
Session::solve(const sat::LitVec &assumptions)
{
    Timer total_timer;
    ++solves_;
    HybridResult result;
    result.status = sat::l_Undef;
    final_conflict_.clear();

    // Every assumption variable is permanently frozen: later
    // recompiles must keep it mappable too.
    for (const sat::Lit a : assumptions) {
        ownFormula().ensureVars(a.var() + 1);
        freeze(a.var());
    }
    if (!compiled_ || need_recompile_)
        recompile();

    sat::LitVec mapped;
    std::vector<std::pair<sat::Lit, sat::Lit>> amap;
    bool assumptions_ok = true;
    if (!formula_unsat_)
        assumptions_ok = mapAssumptions(assumptions, mapped, amap);
    if (formula_unsat_ || !assumptions_ok) {
        // formula_unsat_: UNSAT regardless of assumptions — the core
        // is empty. Otherwise a root-falsified assumption: the core
        // already names it.
        if (formula_unsat_)
            final_conflict_.clear();
        result.status = sat::l_False;
        result.time.cdcl_s = total_timer.seconds();
        metrics_.timer("hybrid.total")->add(result.time.cdcl_s);
        return result;
    }

    // Per-call determinism: restart the queue-sampling stream from
    // the session seed so a repeated call pattern regenerates the
    // same clause queues — and hits the retained embedding memo
    // instead of re-embedding. The stream still diverges within a
    // call as the trail evolves.
    rng_ = Rng(config_.seed);

    const PipelineStats ps_before = pipeline_->stats();
    Counter *const warmup_counter =
        metrics_.counter("hybrid.warmup_iterations");
    const std::uint64_t warmup_before = warmup_counter->value();
    const std::uint64_t samples_before =
        metrics_.counter("backend.samples")->value();
    const double backend_s_before =
        metrics_.timer("backend.apply")->seconds();
    std::array<std::uint64_t, 5> strategy_before{};
    for (int k = 1; k <= 4; ++k) {
        strategy_before[static_cast<std::size_t>(k)] =
            metrics_.counter("backend.strategy" + std::to_string(k))
                ->value();
    }

    // Per-call warm-up window: sqrt(K) fresh QA-assisted iterations
    // on top of whatever the session already spent, so a long-lived
    // session keeps getting annealer guidance on new assumptions.
    std::int64_t warmup = config_.warmup_override;
    if (warmup < 0) {
        warmup = static_cast<std::int64_t>(std::llround(std::sqrt(
            static_cast<double>(HybridSolver::estimateIterations(
                work().numVars(), work().numClauses())))));
    }
    warmup = std::min(warmup, config_.max_warmup);
    const std::int64_t warm_end =
        static_cast<std::int64_t>(solver_->stats().iterations) + warmup;

    bool qa_solved = false;
    std::vector<bool> qa_model;
    solver_->setIterationHook([&](sat::Solver &s) {
        if (static_cast<std::int64_t>(s.stats().iterations) >=
            warm_end) {
            // Warm-up over. The QA polarity hints stay in force for
            // the remaining search ("maintain the variable
            // assignments", SV-B): clearing them measurably hurt.
            return;
        }
        if (config_.stop && config_.stop->stopRequested())
            return;
        warmup_counter->add();

        ready_.clear();
        pipeline_->step(s, s.stats().conflicts, ready_);
        for (ReadySample &rs : ready_) {
            const BackendOutcome outcome =
                backend_->apply(s, *rs.frontend, rs.sample, work());
            if (!outcome.solved)
                continue;
            // Strategy 1 proves the *formula* satisfiable; under
            // assumptions the sample only ends this call if it also
            // honors them (they are constraints the annealer never
            // saw). A near-miss still helped as polarity guidance.
            bool honors = true;
            for (const auto &pr : amap)
                honors = honors && litHolds(outcome.model, pr.first);
            if (!honors)
                continue;
            qa_solved = true;
            qa_model = outcome.model;
            s.requestStop();
            break;
        }
    });

    const sat::lbool status = solver_->solveWithAssumptions(mapped);
    solver_->setIterationHook({}); // hook captures this frame

    result.stats = statsDelta(solver_->stats(), stats_mark_);
    stats_mark_ = solver_->stats();
    const PipelineStats ps =
        pipelineDelta(pipeline_->stats(), ps_before);
    result.qa_submitted = ps.submitted;
    result.qa_stale = ps.stale_discarded;
    result.chain_breaks = ps.chain_breaks;
    result.time.frontend_s = ps.frontend_s;
    result.time.qa_device_s = ps.device_s;
    result.time.qa_host_s = ps.host_sample_s;
    result.time.qa_inflight_s = ps.inflight_s;
    result.time.qa_blocking_s = ps.blocking_s;
    result.time.stalls = ps.stalls;
    result.warmup_iterations =
        static_cast<int>(warmup_counter->value() - warmup_before);
    result.qa_samples = static_cast<int>(
        metrics_.counter("backend.samples")->value() - samples_before);
    result.time.backend_s =
        metrics_.timer("backend.apply")->seconds() - backend_s_before;
    for (int k = 1; k <= 4; ++k) {
        result.strategy_count[static_cast<std::size_t>(k)] =
            metrics_.counter("backend.strategy" + std::to_string(k))
                ->value() -
            strategy_before[static_cast<std::size_t>(k)];
    }

    if (qa_solved) {
        result.status = sat::l_True;
        result.model = simp_.extendModel(std::move(qa_model));
        result.solved_by_qa = true;
    } else {
        result.status = status;
        if (status.isTrue())
            result.model = simp_.extendModel(solver_->boolModel());
    }
    if (result.status.isTrue()) {
        if (static_cast<int>(result.model.size()) <
            formula_->numVars()) {
            result.model.resize(
                static_cast<std::size_t>(formula_->numVars()),
                false);
        }
        if (!formula_->eval(result.model))
            panic("session model failed verification");
        for (const sat::Lit a : assumptions) {
            if (!litHolds(result.model, a))
                panic("session model violates an assumption");
        }
    } else if (result.status.isFalse()) {
        // Map the solver's core (negated mapped assumptions) back to
        // the original literals it came from.
        final_conflict_.clear();
        for (const sat::Lit c : solver_->finalConflict()) {
            for (const auto &pr : amap) {
                if (~pr.first != c)
                    continue;
                const sat::Lit orig = ~pr.second;
                bool dup = false;
                for (const sat::Lit q : final_conflict_)
                    dup = dup || q == orig;
                if (!dup)
                    final_conflict_.push_back(orig);
            }
        }
        if (!solver_->okay())
            formula_unsat_ = true;
    }

    // Host CDCL time is what remains of the measured wall clock. The
    // device simulation only counts when it ran on this thread: async
    // workers overlap it with the search.
    const double total = total_timer.seconds();
    const double sim_cost =
        pipeline_->asynchronous() ? 0.0 : result.time.qa_host_s;
    result.time.cdcl_s =
        std::max(0.0, total - result.time.frontend_s -
                          result.time.backend_s - sim_cost);
    metrics_.timer("hybrid.total")->add(total);
    metrics_.timer("hybrid.cdcl")->add(result.time.cdcl_s);
    return result;
}

} // namespace hyqsat::core
