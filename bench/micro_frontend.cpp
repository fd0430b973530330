/**
 * @file
 * Frontend fast-path micro-benchmark: measures one frontend pass
 * (clause queue -> QUBO encode -> Chimera embed) at a deep search
 * state under three configurations,
 *
 *   cold   one-shot Frontend::run: every buffer is allocated fresh;
 *   warm   persistent FrontendWorkspace, cache disabled: allocation-
 *          free steady state, but a full embed per run;
 *   cache  warm plus the (embedding, encoding) memo: the per-
 *          iteration RNG is reseeded identically so every timed run
 *          is a cache hit,
 *
 * and emits one "BENCH {json}" trajectory line per path with the
 * per-iteration cost and the speedup over cold. Every path enumerates
 * the unsatisfied clauses with the solver's O(M*3) scan. Acceptance
 * bars: warm >= 2x cold, cache >= 5x cold at full scale.
 *
 * The measurement runs inside the solver's iteration hook at the
 * first deep, mostly-assigned state with an unsatisfied clause; all
 * three paths are timed there against the same trail, and the bench
 * asserts they return identical queues and embedded prefixes before
 * reporting any number.
 *
 *   ./micro_frontend [--smoke]    (HYQSAT_BENCH_TINY=1 also works)
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "core/frontend.h"
#include "gen/random_sat.h"
#include "util/metrics.h"
#include "util/timer.h"

using namespace hyqsat;

namespace {

/** Per-path measurement: microseconds per frontend pass. */
struct PathTiming
{
    double per_iter_us = -1.0;
    double wall_s = 0.0;
    core::FrontendResult reference;
};

/** The compared surface of a FrontendResult (determinism check). */
bool
sameResult(const core::FrontendResult &a, const core::FrontendResult &b)
{
    return a.queue == b.queue &&
           a.embedded_clauses == b.embedded_clauses &&
           a.covers_all_unsatisfied == b.covers_all_unsatisfied &&
           a.embedded && b.embedded &&
           a.embedded->embedded_clauses == b.embedded->embedded_clauses &&
           a.embedded->all_embedded == b.embedded->all_embedded &&
           a.embedded->problem.numNodes() == b.embedded->problem.numNodes();
}

} // namespace

int
main(int argc, char **argv)
{
    bool smoke = std::getenv("HYQSAT_BENCH_TINY") != nullptr;
    for (int i = 1; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--smoke"))
            smoke = true;
    }

    // Satisfiable-regime ratio (m/n = 3.5): the search reaches deep,
    // mostly-assigned states where nearly every clause is satisfied —
    // exactly the steady state of the hybrid warm-up, and the regime
    // where the O(M*3) scan and the cold path's allocation storm
    // dominate one frontend pass.
    int num_vars = smoke ? 120 : 2000;
    if (const char *env = std::getenv("HYQSAT_MICRO_FRONTEND_VARS"))
        num_vars = std::atoi(env);
    const int num_clauses = static_cast<int>(num_vars * 3.2);
    const double assigned_frac = 0.9;
    const int reps = smoke ? 100 : 2000;
    const std::uint64_t queue_seed = 0x5eedc0de;

    std::printf("=== micro_frontend: frontend fast-path cost at a "
                "deep search state (%d vars, %d clauses, >= %.0f%% "
                "assigned, %d reps/path) ===\n",
                num_vars, num_clauses, assigned_frac * 100, reps);

    Rng gen(0xbe11c0de);
    const sat::Cnf cnf = gen::uniformRandom3Sat(num_vars, num_clauses, gen);
    const chimera::ChimeraGraph graph(16, 16, 4);

    core::FrontendOptions no_cache;
    no_cache.cache_embeddings = false;
    const core::Frontend fe_nocache(graph, no_cache);

    MetricsRegistry registry;
    const core::Frontend fe_cache(graph, {}, &registry);

    PathTiming cold, warm, cache;
    int measured_level = -1;
    std::size_t measured_unsat = 0;

    // Trigger for the timed section: deep, mostly-assigned state with
    // at least one unsatisfied clause (so the queue is non-empty).
    const auto atMeasurementState = [&](const sat::Solver &s) {
        int assigned = 0;
        for (sat::Var v = 0; v < s.numVars(); ++v) {
            if (!s.value(v).isUndef())
                ++assigned;
        }
        if (assigned <
            static_cast<int>(assigned_frac * s.numVars()))
            return false;
        for (int c = 0; c < s.numOriginalClauses(); ++c) {
            if (!s.originalClauseSatisfiedNow(c))
                return true;
        }
        return false;
    };

    // One untimed reference run, then reps timed runs, each from the
    // same queue seed.
    const auto timePath = [&](PathTiming &path, const auto &runOnce) {
        {
            Rng rng(queue_seed);
            path.reference = runOnce(rng);
        }
        Timer t;
        for (int i = 0; i < reps; ++i) {
            Rng rng(queue_seed);
            const auto r = runOnce(rng);
            (void)r;
        }
        path.wall_s = t.seconds();
        path.per_iter_us = path.wall_s * 1e6 / reps;
    };

    sat::Solver solver;
    if (!solver.loadCnf(cnf)) {
        std::printf("FAIL: instance trivially unsat\n");
        return 1;
    }
    core::FrontendWorkspace ws_warm, ws_cache;
    solver.setIterationHook([&](sat::Solver &s) {
        if (cold.per_iter_us >= 0.0 || !atMeasurementState(s))
            return;
        measured_level = s.decisionLevel();
        measured_unsat = s.unsatisfiedOriginalClauses().size();
        timePath(cold, [&](Rng &rng) { return fe_nocache.run(s, rng); });
        timePath(warm, [&](Rng &rng) {
            return fe_nocache.run(s, rng, ws_warm);
        });
        // The reference run misses and populates; every timed run
        // reseeds the same queue and hits.
        timePath(cache, [&](Rng &rng) {
            return fe_cache.run(s, rng, ws_cache);
        });
        s.requestStop();
    });
    (void)solver.solve();

    if (cold.per_iter_us < 0.0) {
        std::printf("FAIL: search never reached the measurement "
                    "state (>= %.0f%% assigned with an unsatisfied "
                    "clause)\n",
                    assigned_frac * 100);
        return 1;
    }

    // Determinism: every path must produce the same frontend result
    // from the same trail and RNG seed.
    if (!sameResult(cold.reference, warm.reference) ||
        !sameResult(warm.reference, cache.reference)) {
        std::printf("FAIL: fast-path results diverge from the cold "
                    "path (queue/embedding mismatch)\n");
        return 1;
    }

    const auto hits = registry.counter("frontend.cache.hits")->value();
    const auto misses = registry.counter("frontend.cache.misses")->value();
    const double warm_speedup = cold.per_iter_us / warm.per_iter_us;
    const double cache_speedup = cold.per_iter_us / cache.per_iter_us;

    std::printf("measured at decision level %d, %zu unsatisfied "
                "clauses; queue %zu, embedded %zu\n",
                measured_level, measured_unsat,
                cold.reference.queue.size(),
                cold.reference.embedded_clauses.size());
    std::printf("cold  %9.2f us/run\n", cold.per_iter_us);
    std::printf("warm  %9.2f us/run  (%.2fx vs cold, bar >= 2x)\n",
                warm.per_iter_us, warm_speedup);
    std::printf("cache %9.2f us/run  (%.2fx vs cold, bar >= 5x; "
                "%llu hits / %llu misses)\n",
                cache.per_iter_us, cache_speedup,
                static_cast<unsigned long long>(hits),
                static_cast<unsigned long long>(misses));

    const struct
    {
        const char *path;
        const PathTiming *t;
        double speedup;
    } rows[] = {{"cold", &cold, 1.0},
                {"warm", &warm, warm_speedup},
                {"cache", &cache, cache_speedup}};
    for (const auto &row : rows) {
        std::printf("BENCH {\"bench\":\"micro_frontend\","
                    "\"path\":\"%s\",\"wall_s\":%.6f,"
                    "\"per_iter_us\":%.3f,\"speedup_vs_cold\":%.3f,"
                    "\"reps\":%d,\"vars\":%d,\"clauses\":%d,"
                    "\"depth\":%d,\"queue_len\":%zu,"
                    "\"cache_hits\":%llu,\"cache_misses\":%llu}\n",
                    row.path, row.t->wall_s, row.t->per_iter_us,
                    row.speedup, reps, num_vars, num_clauses,
                    measured_level, cold.reference.queue.size(),
                    static_cast<unsigned long long>(hits),
                    static_cast<unsigned long long>(misses));
    }

    // The acceptance bars apply at full scale; smoke runs are sized
    // for CI latency, where constant overheads dominate.
    if (!smoke && (warm_speedup < 2.0 || cache_speedup < 5.0)) {
        std::printf("FAIL: speedup below the acceptance bar "
                    "(warm %.2fx < 2x or cache %.2fx < 5x)\n",
                    warm_speedup, cache_speedup);
        return 1;
    }
    return 0;
}
