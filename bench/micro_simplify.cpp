/**
 * @file
 * Inprocessing pipeline micro-benchmark, two halves:
 *
 *  1. Reduction: run the Light and Full presets over random 3-SAT
 *     at the phase transition (m/n = 4.26) and over the structured
 *     flat graph-colouring family, and report the measured clause
 *     and variable reduction ratios plus pipeline wall time.
 *
 *  2. Hybrid A/B: solve the same phase-transition instance with
 *     HybridSolver at simplify off vs full and record the frontend
 *     cache (frontend.cache.hits/misses) counter deltas, i.e. how
 *     preprocessing changes the work the QA frontend sees.
 *
 * Emits one "BENCH {json}" trajectory line per (family, strength)
 * reduction row and per hybrid path; run_benches.sh collects them
 * into BENCH_micro_simplify<suffix>.json for CI shape checks.
 *
 *   ./micro_simplify [--smoke]    (HYQSAT_BENCH_TINY=1 also works)
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "bench/common.h"
#include "gen/graph_coloring.h"
#include "gen/random_sat.h"
#include "simplify/pipeline.h"
#include "util/metrics.h"
#include "util/timer.h"

using namespace hyqsat;

namespace {

/** Accumulated reduction measurement for one (family, strength). */
struct ReductionRow
{
    int instances = 0;
    long clauses_in = 0;
    long clauses_out = 0;
    long vars_in = 0;
    long vars_out = 0;
    int unsat = 0; ///< instances the pipeline refuted outright
    double wall_s = 0.0;
};

void
accumulate(ReductionRow &row, const sat::Cnf &cnf,
           simplify::Strength strength)
{
    const simplify::Pipeline pipe(simplify::Options::preset(strength));
    Timer t;
    const simplify::Result r = pipe.run(cnf);
    row.wall_s += t.seconds();
    ++row.instances;
    row.clauses_in += r.stats.clauses_in;
    row.vars_in += r.stats.vars_in;
    if (!r.satisfiable_possible) {
        ++row.unsat;
        return;
    }
    row.clauses_out += r.stats.clauses_out;
    row.vars_out += r.stats.vars_out;
}

double
ratio(long removed, long total)
{
    return total > 0 ? static_cast<double>(removed) / total : 0.0;
}

void
report(const char *family, simplify::Strength strength,
       const ReductionRow &row)
{
    const double clause_red =
        ratio(row.clauses_in - row.clauses_out, row.clauses_in);
    const double var_red =
        ratio(row.vars_in - row.vars_out, row.vars_in);
    std::printf("%-10s %-6s  %2d inst  clauses %6ld -> %6ld "
                "(-%5.1f%%)  vars %6ld -> %6ld (-%5.1f%%)  "
                "%d unsat  %.3f s\n",
                family, simplify::strengthName(strength),
                row.instances, row.clauses_in, row.clauses_out,
                clause_red * 100, row.vars_in, row.vars_out,
                var_red * 100, row.unsat, row.wall_s);
    std::printf("BENCH {\"bench\":\"micro_simplify\","
                "\"kind\":\"reduction\",\"family\":\"%s\","
                "\"strength\":\"%s\",\"instances\":%d,"
                "\"clauses_in\":%ld,\"clauses_out\":%ld,"
                "\"clause_reduction\":%.4f,\"vars_in\":%ld,"
                "\"vars_out\":%ld,\"var_reduction\":%.4f,"
                "\"unsat\":%d,\"wall_s\":%.6f}\n",
                family, simplify::strengthName(strength),
                row.instances, row.clauses_in, row.clauses_out,
                clause_red, row.vars_in, row.vars_out, var_red,
                row.unsat, row.wall_s);
}

/** Frontend-facing counters observed during one hybrid solve. */
struct HybridProbe
{
    const char *status = "UNKNOWN";
    double wall_s = 0.0;
    std::uint64_t iterations = 0;
    std::uint64_t cache_hits = 0;
    std::uint64_t cache_misses = 0;
};

HybridProbe
probeHybrid(const sat::Cnf &cnf, simplify::Strength strength,
            std::uint64_t seed)
{
    MetricsRegistry registry;
    core::HybridConfig cfg = bench::noiseFreeConfig(seed);
    cfg.simplify_strength = strength;
    cfg.metrics = &registry;

    HybridProbe p;
    Timer t;
    const auto r = core::HybridSolver(cfg).solve(cnf);
    p.wall_s = t.seconds();
    p.status = r.status.isUndef() ? "UNKNOWN"
               : r.status.isTrue() ? "SAT"
                                   : "UNSAT";
    p.iterations = r.stats.iterations;
    p.cache_hits = registry.counter("frontend.cache.hits")->value();
    p.cache_misses =
        registry.counter("frontend.cache.misses")->value();
    return p;
}

void
reportHybrid(const char *path, const HybridProbe &p)
{
    std::printf("hybrid %-4s  %-7s  %6llu iters  cache %llu/%llu "
                "hit/miss  %.3f s\n",
                path, p.status,
                static_cast<unsigned long long>(p.iterations),
                static_cast<unsigned long long>(p.cache_hits),
                static_cast<unsigned long long>(p.cache_misses),
                p.wall_s);
    std::printf("BENCH {\"bench\":\"micro_simplify\","
                "\"kind\":\"hybrid_ab\",\"path\":\"%s\","
                "\"status\":\"%s\",\"wall_s\":%.6f,"
                "\"iterations\":%llu,\"cache_hits\":%llu,"
                "\"cache_misses\":%llu}\n",
                path, p.status, p.wall_s,
                static_cast<unsigned long long>(p.iterations),
                static_cast<unsigned long long>(p.cache_hits),
                static_cast<unsigned long long>(p.cache_misses));
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

    const int instances = smoke ? 3 : 10;
    const int rand_vars = smoke ? 60 : 200;
    const int rand_clauses = static_cast<int>(rand_vars * 4.26);
    const int color_vertices = smoke ? 20 : 60;
    const int color_edges = smoke ? 40 : 140;

    std::printf("=== micro_simplify: pipeline reduction and hybrid "
                "frontend deltas (%d inst/family; random3sat %dv/%dc "
                "at m/n=4.26; coloring flat(%d,%d,3)) ===\n",
                instances, rand_vars, rand_clauses, color_vertices,
                color_edges);

    for (const simplify::Strength strength :
         {simplify::Strength::Light, simplify::Strength::Full}) {
        ReductionRow random_row, coloring_row;
        Rng rng(0x51231f5);
        for (int i = 0; i < instances; ++i) {
            accumulate(random_row,
                       gen::uniformRandom3Sat(rand_vars,
                                              rand_clauses, rng),
                       strength);
            accumulate(coloring_row,
                       gen::flatColoringCnf(color_vertices,
                                            color_edges, 3, rng),
                       strength);
        }
        report("random3sat", strength, random_row);
        report("coloring", strength, coloring_row);
    }

    // Hybrid A/B: same instance and seed, simplify off vs full. The
    // counter deltas quantify how much frontend work (embedding
    // cache traffic, unsatisfied-clause enumeration) preprocessing
    // removes before the QA loop ever sees the formula.
    const int hyb_vars = smoke ? 40 : 120;
    const int hyb_clauses = static_cast<int>(hyb_vars * 4.1);
    Rng hyb_rng(0xab5eed);
    const sat::Cnf hyb_cnf =
        gen::uniformRandom3Sat(hyb_vars, hyb_clauses, hyb_rng);

    const HybridProbe off =
        probeHybrid(hyb_cnf, simplify::Strength::Off, 0x9e11);
    const HybridProbe full =
        probeHybrid(hyb_cnf, simplify::Strength::Full, 0x9e11);
    reportHybrid("off", off);
    reportHybrid("full", full);
    if (std::strcmp(off.status, full.status) != 0) {
        std::printf("FAIL: hybrid verdict changed under simplify "
                    "(off=%s full=%s)\n",
                    off.status, full.status);
        return 1;
    }
    return 0;
}
