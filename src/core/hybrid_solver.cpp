#include "core/hybrid_solver.h"

#include <cmath>

#include "core/session.h"
#include "util/timer.h"

namespace hyqsat::core {

HybridSolver::HybridSolver(const HybridConfig &config)
    : config_(config),
      graph_(std::make_shared<const topology::Topology>(
          config.topology, config.chimera_rows, config.chimera_cols,
          config.chimera_shore))
{
}

anneal::SamplerSpec
hybridSamplerSpec(const HybridConfig &config)
{
    anneal::SamplerSpec spec;
    spec.name = config.sampler;
    spec.annealer = config.annealer;
    // The top-level knob and a directly-configured annealer option
    // compose as "whoever asks for more reads wins".
    spec.annealer.num_reads =
        std::max({config.num_reads, config.annealer.num_reads, 1});
    spec.annealer.reads_groups =
        config.reads_groups > 0 ? config.reads_groups
                                : config.annealer.reads_groups;
    spec.pipeline_depth = std::max(config.pipeline_depth, 2);
    spec.rtt_us = config.rtt_us;
    spec.stop = config.stop;
    // A depth >= 2 turns any named synchronous backend into an async
    // pipeline; spelling "async" works too and defaults to depth 2.
    if (config.pipeline_depth >= 2 &&
        spec.name.rfind("async", 0) != 0) {
        spec.name = spec.name == "sync" ? "async" : "async:" + spec.name;
    }
    return spec;
}

std::uint64_t
HybridSolver::estimateIterations(int num_vars, int num_clauses)
{
    // Empirical fit to the scale of Table I's classic-CDCL iteration
    // counts on random 3-SAT (only sqrt(K) matters downstream):
    // K ~ m * exp(0.012 n), clamped to a sane range.
    const double k = static_cast<double>(std::max(num_clauses, 16)) *
                     std::exp(0.012 * static_cast<double>(num_vars));
    return static_cast<std::uint64_t>(std::min(k, 1e12));
}

HybridResult
HybridSolver::solve(const sat::Cnf &formula)
{
    return Session(config_, graph_, formula).solve();
}

HybridResult
solveClassicCdcl(const sat::Cnf &formula, const sat::SolverOptions &opts,
                 const StopToken *stop, MetricsRegistry *metrics)
{
    Timer timer;
    HybridResult result;
    sat::Solver solver(opts);
    solver.attachMetrics(metrics);
    if (stop)
        solver.setStopToken(stop);
    if (!solver.loadCnf(formula)) {
        result.status = sat::l_False;
        result.stats = solver.stats();
        result.time.cdcl_s = timer.seconds();
    } else {
        result.status = solver.solve();
        result.stats = solver.stats();
        if (result.status.isTrue())
            result.model = solver.boolModel();
        result.time.cdcl_s = timer.seconds();
    }
    if (metrics) {
        metrics->timer("hybrid.total")->add(result.time.cdcl_s);
        metrics->timer("hybrid.cdcl")->add(result.time.cdcl_s);
    }
    return result;
}

} // namespace hyqsat::core
