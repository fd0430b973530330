/**
 * @file
 * Incremental-session micro-benchmark: a 20-call assumption series
 * over one base formula, solved two ways,
 *
 *   cold   one fresh core::Session per call: every call re-runs the
 *          simplify pipeline, rebuilds the frontend/backend/sampler
 *          stack and starts with an empty embedding cache — the cost
 *          a SUBMIT-per-query client pays today;
 *   warm   one session for the whole series: simplification and
 *          component construction happen once, learnt clauses and
 *          saved phases carry over, and the embedding memo stays hot
 *          across calls,
 *
 * and emits one "BENCH {json}" trajectory line per mode with the
 * per-call cost and the warm speedup. Acceptance bars (ISSUE 8):
 * warm >= 2x cold at full scale, with warm frontend-cache hits > 0
 * confirming cross-call embedding reuse.
 *
 * Both modes must agree on every call's verdict (the series mixes
 * SAT and UNSAT assumption sets); any divergence is a FAIL before
 * any number is reported.
 *
 *   ./micro_incremental [--smoke]    (HYQSAT_BENCH_TINY=1 also works)
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "bench/common.h"
#include "core/session.h"
#include "gen/random_sat.h"
#include "util/metrics.h"
#include "util/timer.h"

using namespace hyqsat;

namespace {

/** One mode's aggregate: wall time plus the per-call verdicts. */
struct ModeTiming
{
    double wall_s = 0.0;
    std::vector<sat::lbool> verdicts;
};

} // namespace

int
main(int argc, char **argv)
{
    bool smoke = std::getenv("HYQSAT_BENCH_TINY") != nullptr;
    for (int i = 1; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--smoke"))
            smoke = true;
    }

    // Satisfiable-regime base (m/n = 3.5): assumptions flip single
    // calls to UNSAT without making the whole series degenerate.
    const int num_vars = smoke ? 60 : 300;
    const int num_clauses = static_cast<int>(num_vars * 3.5);
    const int calls = 20;
    const int distinct_sets = 4; // each visited calls/distinct times
    const int assumes_per_call = 2;

    std::printf("=== micro_incremental: %d-call assumption series, "
                "cold (fresh session per call) vs warm (one session) "
                "(%d vars, %d clauses) ===\n",
                calls, num_vars, num_clauses);

    Rng gen(0x1c4ba5e);
    const sat::Cnf base =
        gen::uniformRandom3Sat(num_vars, num_clauses, gen);

    // The per-call assumption sets, fixed up front so both modes see
    // the identical series. The series revisits a few distinct sets
    // in blocks — the incremental workload shape (repeated related
    // queries, as in MUS extraction or optimization descent) that
    // lets the warm session's embedding memo hit across calls.
    Rng pick(0xa55e55);
    std::vector<sat::LitVec> distinct(distinct_sets);
    for (sat::LitVec &assumptions : distinct) {
        for (int i = 0; i < assumes_per_call; ++i)
            assumptions.push_back(
                sat::mkLit(static_cast<sat::Var>(pick.below(num_vars)),
                           pick.chance(0.5)));
    }
    std::vector<sat::LitVec> series(calls);
    for (int i = 0; i < calls; ++i)
        series[static_cast<std::size_t>(i)] = distinct[static_cast<
            std::size_t>(i / (calls / distinct_sets))];

    core::HybridConfig config = bench::noiseFreeConfig();
    config.simplify_strength = simplify::Strength::Full;
    // A bounded QA window and a small software-annealed topology:
    // what a session amortizes is the per-call compile/embed/setup
    // cost, not annealer wall time — an unbounded window on the full
    // device model would drown both modes in identical QA sampling
    // and squeeze the ratio toward 1x.
    config.warmup_override = 8;
    config.chimera_rows = 4;
    config.chimera_cols = 4;
    config.sampler = "sa";

    // Each mode funnels its sessions' metrics into one registry (a
    // session merges on destruction), so the embedding-cache hit
    // counters below compare like with like.
    MetricsRegistry cold_metrics, warm_metrics;

    ModeTiming cold;
    unsigned long long cold_recompiles = 0;
    {
        core::HybridConfig cfg = config;
        cfg.metrics = &cold_metrics;
        Timer t;
        for (const sat::LitVec &assumptions : series) {
            core::Session session(cfg);
            if (!session.addFormula(base)) {
                std::printf("FAIL: base formula trivially unsat\n");
                return 1;
            }
            cold.verdicts.push_back(
                session.solve(assumptions).status);
            cold_recompiles += session.recompiles();
        }
        cold.wall_s = t.seconds();
    }

    ModeTiming warm;
    unsigned long long warm_recompiles = 0;
    {
        core::HybridConfig cfg = config;
        cfg.metrics = &warm_metrics;
        Timer t;
        core::Session session(cfg);
        if (!session.addFormula(base)) {
            std::printf("FAIL: base formula trivially unsat\n");
            return 1;
        }
        for (const sat::LitVec &assumptions : series)
            warm.verdicts.push_back(session.solve(assumptions).status);
        warm.wall_s = t.seconds();
        warm_recompiles = session.recompiles();
    }

    int decided = 0;
    for (int i = 0; i < calls; ++i) {
        if (cold.verdicts[i].isUndef() || warm.verdicts[i].isUndef())
            continue;
        ++decided;
        if (cold.verdicts[i] != warm.verdicts[i]) {
            std::printf("FAIL: call %d diverges (cold %s, warm %s)\n",
                        i, cold.verdicts[i].isTrue() ? "SAT" : "UNSAT",
                        warm.verdicts[i].isTrue() ? "SAT" : "UNSAT");
            return 1;
        }
    }
    if (decided < calls) {
        std::printf("FAIL: only %d/%d calls decided\n", decided,
                    calls);
        return 1;
    }

    const auto counterOf = [](MetricsRegistry &m, const char *name) {
        return static_cast<unsigned long long>(
            m.counter(name)->value());
    };
    const auto cold_hits = counterOf(cold_metrics,
                                     "frontend.cache.hits");
    const auto cold_misses = counterOf(cold_metrics,
                                       "frontend.cache.misses");
    const auto warm_hits = counterOf(warm_metrics,
                                     "frontend.cache.hits");
    const auto warm_misses = counterOf(warm_metrics,
                                       "frontend.cache.misses");
    const double speedup = bench::ratio(cold.wall_s, warm.wall_s);

    std::printf("cold  %9.2f ms total, %8.2f us/call  "
                "(%d sessions, %llu cache hits / %llu misses)\n",
                cold.wall_s * 1e3, cold.wall_s * 1e6 / calls, calls,
                cold_hits, cold_misses);
    std::printf("warm  %9.2f ms total, %8.2f us/call  "
                "(%.2fx vs cold, bar >= 2x; %llu recompiles, "
                "%llu cache hits / %llu misses)\n",
                warm.wall_s * 1e3, warm.wall_s * 1e6 / calls, speedup,
                warm_recompiles, warm_hits, warm_misses);

    const struct
    {
        const char *mode;
        const ModeTiming *t;
        double speedup;
        unsigned long long hits, misses, recompiles;
    } rows[] = {{"cold", &cold, 1.0, cold_hits, cold_misses,
                 cold_recompiles},
                {"warm", &warm, speedup, warm_hits, warm_misses,
                 warm_recompiles}};
    for (const auto &row : rows) {
        std::printf("BENCH {\"bench\":\"micro_incremental\","
                    "\"mode\":\"%s\",\"calls\":%d,\"wall_s\":%.6f,"
                    "\"per_call_us\":%.3f,\"speedup_vs_cold\":%.3f,"
                    "\"vars\":%d,\"clauses\":%d,"
                    "\"cache_hits\":%llu,\"cache_misses\":%llu,"
                    "\"recompiles\":%llu}\n",
                    row.mode, calls, row.t->wall_s,
                    row.t->wall_s * 1e6 / calls, row.speedup,
                    num_vars, num_clauses, row.hits, row.misses,
                    row.recompiles);
    }

    // The acceptance bars apply at full scale; smoke runs are sized
    // for CI latency, where constant overheads dominate.
    if (!smoke && speedup < 2.0) {
        std::printf("FAIL: warm speedup %.2fx below the 2x bar\n",
                    speedup);
        return 1;
    }
    if (!smoke && warm_hits == 0) {
        std::printf("FAIL: warm series never hit the embedding "
                    "cache (no cross-call reuse)\n");
        return 1;
    }
    return 0;
}
