/**
 * @file
 * The traced rebuild of HybridSolver::solve's synchronous depth-1
 * loop. Every layer is entered through its public function, with a
 * span around the call; no tracing lives in the solver itself. The
 * order of calls and of RNG draws mirrors HybridSolver::solve,
 * SamplePipeline::step and Frontend::run exactly, which the
 * fidelity gate (compareLoops) checks on every instance.
 */

#include <algorithm>
#include <cmath>
#include <memory>

#include "anneal/sampler.h"
#include "bench.h"
#include "core/backend.h"
#include "core/clause_queue.h"
#include "core/frontend.h"
#include "embed/hyqsat_embedder.h"
#include "simplify/pipeline.h"
#include "util/logging.h"
#include "util/metrics.h"

namespace hyqsat::perfbench {

namespace {

using Scope = Tracer::Scope;

/** Frontend::run, one span per layer call. */
std::shared_ptr<const core::FrontendResult>
frontendPass(const sat::Solver &solver, const core::FrontendOptions &opts,
             embed::HyQsatEmbedder &embedder, Rng &rng,
             core::FrontendWorkspace &ws, Tracer &tracer,
             LoopCounts &counts)
{
    const Scope span(&tracer, SpanKind::Frontend);
    auto result = std::make_shared<core::FrontendResult>();
    {
        const Scope queue(&tracer, SpanKind::Queue);
        core::generateClauseQueue(solver, opts.queue, rng, ws.queue,
                                  result->queue);
    }
    if (result->queue.empty()) {
        ++counts.cache_misses;
        result->embedded = std::make_shared<embed::QueueEmbedResult>();
        return result;
    }

    ws.clauses.clear();
    for (const int ci : result->queue)
        ws.clauses.push_back(solver.originalClause(ci));

    std::shared_ptr<const embed::QueueEmbedResult> embedded;
    if (opts.cache_embeddings) {
        const Scope cache(&tracer, SpanKind::Cache);
        ws.cache.setCapacity(static_cast<std::size_t>(
            std::max(opts.cache_capacity, 1)));
        embedded = ws.cache.find(ws.clauses);
    }
    if (embedded) {
        ++counts.cache_hits;
    } else {
        ++counts.cache_misses;
        {
            const Scope embed(&tracer, SpanKind::Embed);
            embedded = std::make_shared<embed::QueueEmbedResult>(
                embedder.embedQueue(ws.clauses, ws.embedder));
        }
        if (opts.cache_embeddings) {
            const Scope cache(&tracer, SpanKind::Cache);
            ws.cache.insert(ws.clauses, embedded);
        }
    }
    result->embedded = std::move(embedded);
    result->embedded_clauses.assign(
        result->queue.begin(),
        result->queue.begin() + result->embedded->embedded_clauses);
    result->covers_all_unsatisfied =
        result->embedded->all_embedded &&
        result->queue.size() == ws.queue.unsat.size();
    counts.queued_clauses += result->queue.size();
    counts.embedded_clauses += result->embedded_clauses.size();
    return result;
}

} // namespace

LoopOutcome
tracedSolve(const core::HybridConfig &config,
            const chimera::ChimeraGraph &graph, const sat::Cnf &formula,
            Tracer &tracer)
{
    LoopOutcome out;
    tracer.beginRequest();
    const Scope root(&tracer, SpanKind::Solve);
    MetricsRegistry metrics;

    simplify::Result simp;
    const bool simplified =
        config.simplify_strength != simplify::Strength::Off;
    if (simplified) {
        {
            const Scope span(&tracer, SpanKind::Simplify);
            simp = simplify::Pipeline(
                       simplify::Options::preset(config.simplify_strength),
                       &metrics)
                       .run(formula);
        }
        out.counts.simplify_clauses_in +=
            static_cast<std::uint64_t>(simp.stats.clauses_in);
        out.counts.simplify_clauses_out +=
            static_cast<std::uint64_t>(simp.stats.clauses_out);
        if (!simp.satisfiable_possible) {
            out.status = sat::l_False;
            return out;
        }
    }
    const sat::Cnf &work = simplified ? simp.cnf : formula;

    const core::Backend backend(config.backend, &metrics);
    anneal::SamplerSpec spec = core::hybridSamplerSpec(config);
    spec.metrics = &metrics;
    std::unique_ptr<anneal::Sampler> sampler;
    {
        const Scope span(&tracer, SpanKind::SamplerSetup);
        sampler = anneal::makeSampler(spec, graph);
    }
    if (sampler->capacity() != 1)
        fatal("perfbench: the traced loop rebuilds the depth-1 loop only");
    Rng rng(config.seed);

    sat::Solver solver(config.solver);
    solver.attachMetrics(&metrics);
    bool loaded = false;
    {
        const Scope span(&tracer, SpanKind::CdclLoad);
        loaded = solver.loadCnf(work);
    }
    if (!loaded) {
        out.status = sat::l_False;
        out.iterations = solver.stats().iterations;
        out.conflicts = solver.stats().conflicts;
        return out;
    }

    std::int64_t warmup = config.warmup_override;
    if (warmup < 0) {
        warmup = static_cast<std::int64_t>(std::llround(std::sqrt(
            static_cast<double>(core::HybridSolver::estimateIterations(
                work.numVars(), work.numClauses())))));
    }
    warmup = std::min(warmup, config.max_warmup);

    embed::HyQsatEmbedder embedder(graph, config.frontend.embedder);
    core::FrontendWorkspace workspace;
    std::shared_ptr<const core::FrontendResult> cached;
    std::uint64_t cached_epoch = ~0ull;
    std::vector<anneal::SampleCompletion> done;
    bool qa_solved = false;
    std::vector<bool> qa_model;

    solver.setIterationHook([&](sat::Solver &s) {
        if (static_cast<std::int64_t>(s.stats().iterations) >= warmup)
            return;
        const Scope iteration(&tracer, SpanKind::Iteration);
        // The clause queue only changes at conflicts, so a pass is
        // reused until the conflict count (the epoch) moves.
        const std::uint64_t epoch = s.stats().conflicts;
        if (!cached || cached_epoch != epoch) {
            cached = frontendPass(s, config.frontend, embedder, rng,
                                  workspace, tracer, out.counts);
            cached_epoch = epoch;
        }
        done.clear();
        {
            const Scope anneal(&tracer, SpanKind::Anneal);
            if (!cached->embedded_clauses.empty()) {
                anneal::SampleRequest request;
                request.problem =
                    std::shared_ptr<const qubo::EncodedProblem>(
                        cached->embedded, &cached->embedded->problem);
                request.embedding = std::shared_ptr<const embed::Embedding>(
                    cached->embedded, &cached->embedded->embedding);
                request.use_embedding = config.use_embedding;
                request.embedded = cached->embedded;
                sampler->submit(std::move(request));
            }
            sampler->poll(done);
        }
        for (const anneal::SampleCompletion &completion : done) {
            ++out.counts.samples;
            out.counts.chain_breaks += static_cast<std::uint64_t>(
                std::max(completion.sample.chain_breaks, 0));
            core::BackendOutcome outcome;
            {
                const Scope span(&tracer, SpanKind::Backend);
                outcome = backend.apply(s, *cached, completion.sample, work);
            }
            if (outcome.solved) {
                qa_solved = true;
                qa_model = std::move(outcome.model);
                s.requestStop();
                break;
            }
        }
    });

    sat::lbool status = sat::l_Undef;
    {
        const Scope span(&tracer, SpanKind::Cdcl);
        status = solver.solve();
    }

    out.iterations = solver.stats().iterations;
    out.conflicts = solver.stats().conflicts;
    out.counts.propagations = solver.stats().propagations;
    out.qa_samples =
        static_cast<int>(metrics.counter("backend.samples")->value());
    for (int k = 1; k <= 4; ++k) {
        out.strategy_count[static_cast<std::size_t>(k)] =
            metrics.counter("backend.strategy" + std::to_string(k))->value();
    }
    out.counts.flips_attempted =
        metrics.counter("anneal.flips.attempted")->value();
    out.counts.flips_accepted =
        metrics.counter("anneal.flips.accepted")->value();

    std::vector<bool> model;
    if (qa_solved) {
        out.status = sat::l_True;
        model = std::move(qa_model);
    } else {
        out.status = status;
        if (status.isTrue())
            model = solver.boolModel();
    }
    if (out.status.isTrue() && simplified) {
        const Scope span(&tracer, SpanKind::Extend);
        model = simp.extendModel(std::move(model));
    }
    out.model = std::move(model);
    return out;
}

} // namespace hyqsat::perfbench
