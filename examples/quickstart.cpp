/**
 * @file
 * Quickstart: generate a random 3-SAT problem, solve it with both
 * classic CDCL and the HyQSAT hybrid solver, and print what the
 * quantum warm-up contributed.
 *
 * Build & run:
 *   cmake -B build -G Ninja && cmake --build build
 *   ./build/examples/quickstart [num_vars] [num_clauses]
 */

#include <cstdio>
#include <cstdlib>

#include "core/hybrid_solver.h"
#include "core/options.h"
#include "gen/random_sat.h"

using namespace hyqsat;

int
main(int argc, char **argv)
{
    const int num_vars = argc > 1 ? std::atoi(argv[1]) : 120;
    const int num_clauses =
        argc > 2 ? std::atoi(argv[2]) : static_cast<int>(num_vars * 4.1);

    std::printf("Generating a random 3-SAT instance with %d variables "
                "and %d clauses...\n",
                num_vars, num_clauses);
    Rng rng(0xdeadbeef);
    const sat::Cnf cnf =
        gen::uniformRandom3Sat(num_vars, num_clauses, rng);

    // --- Classic CDCL baseline.
    const auto classic = core::solveClassicCdcl(
        cnf, sat::SolverOptions::minisatStyle());
    std::printf("\nClassic CDCL:  %s in %llu iterations (%.2f ms)\n",
                classic.status.isTrue() ? "SATISFIABLE"
                                        : "UNSATISFIABLE",
                static_cast<unsigned long long>(
                    classic.stats.iterations),
                classic.time.cdcl_s * 1e3);

    // --- HyQSAT: CDCL + simulated quantum annealer warm-up.
    core::HybridConfig config;
    core::useNoiseFreeDevice(config);
    core::HybridSolver hybrid(config);
    const auto result = hybrid.solve(cnf);

    std::printf("HyQSAT hybrid: %s in %llu iterations\n",
                result.status.isTrue() ? "SATISFIABLE"
                                       : "UNSATISFIABLE",
                static_cast<unsigned long long>(
                    result.stats.iterations));
    std::printf("  warm-up: %d QA samples over %d iterations "
                "(strategies fired: S1=%llu S2=%llu S3=%llu "
                "S4=%llu)\n",
                result.qa_samples, result.warmup_iterations,
                static_cast<unsigned long long>(
                    result.strategy_count[1]),
                static_cast<unsigned long long>(
                    result.strategy_count[2]),
                static_cast<unsigned long long>(
                    result.strategy_count[3]),
                static_cast<unsigned long long>(
                    result.strategy_count[4]));
    std::printf("  modeled end-to-end: %.2f ms (frontend %.2f ms, "
                "QA device %.2f ms, backend %.2f ms, CDCL %.2f ms)\n",
                result.time.endToEnd() * 1e3,
                result.time.frontend_s * 1e3,
                result.time.qa_device_s * 1e3,
                result.time.backend_s * 1e3,
                result.time.cdcl_s * 1e3);
    if (result.solved_by_qa)
        std::printf("  the annealer solved the formula directly "
                    "(feedback strategy 1)!\n");

    if (result.status.isTrue()) {
        std::printf("  model verifies: %s\n",
                    cnf.eval(result.model) ? "yes" : "NO (bug!)");
    }
    if (classic.status.isTrue() == result.status.isTrue()) {
        std::printf("\nBoth solvers agree. Iteration reduction: "
                    "%.2fx\n",
                    static_cast<double>(classic.stats.iterations) /
                        static_cast<double>(std::max<std::uint64_t>(
                            result.stats.iterations, 1)));
    }
    return 0;
}
