/**
 * @file
 * Example: a command-line DIMACS solver front door, so the library
 * interoperates with standard SAT tooling. Reads a CNF file, solves
 * it with HyQSAT (or plain CDCL with --classic) and prints the
 * result in SAT-competition style ("s SATISFIABLE" + "v" lines; exit
 * 10 SAT, 20 UNSAT, 0 UNKNOWN, 2 on bad usage). Run it without
 * arguments for the flag list; the solver knobs are documented with
 * their table in core/options.h.
 *
 * The hybrid path inprocesses inside HybridSolver (so the annealer
 * frontend sees the reduced formula); --classic preprocesses here
 * and extends the model afterwards. --timeout-s arms a watchdog
 * thread that trips the cooperative stop token every layer observes;
 * it and --conflicts print "s UNKNOWN" when they fire.
 */

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <limits>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/hybrid_solver.h"
#include "core/options.h"
#include "sat/dimacs.h"
#include "simplify/pipeline.h"
#include "util/cancel.h"
#include "util/cli.h"
#include "util/metrics.h"

using namespace hyqsat;

int
main(int argc, char **argv)
{
    core::HybridConfig config;
    core::useNoiseFreeDevice(config);
    bool classic = false;
    double timeout_s = 0.0;
    std::vector<std::string> operands;
    CommandLine cli("problem.cnf", [&](std::string_view arg) {
        operands.emplace_back(arg);
        return operands.size() == 1;
    });
    cli.toggle("classic", classic);
    core::addKnobFlags(cli, config, core::Knob::Scope::Solo);
    cli.real("timeout-s", timeout_s);
    cli.number("conflicts", config.solver.conflict_budget,
               std::int64_t{-1},
               std::numeric_limits<std::int64_t>::max());
    MetricsFiles files(cli, "c ");
    if (!cli.parse(argc, argv))
        return 2;
    if (operands.empty()) {
        std::printf("%s\n", cli.usage(argv[0]).c_str());
        return 2;
    }
    const std::string &path = operands[0];
    const simplify::Strength strength = config.simplify_strength;

    // One registry for the whole run; the solve layers merge their
    // per-solve registries into it on the way out.
    MetricsRegistry registry;
    if (!files.open(registry))
        return 2;

    const auto parsed = sat::parseDimacsFile(path);
    if (!parsed) {
        std::printf("c cannot parse %s\n", path.c_str());
        return 2;
    }
    sat::Cnf cnf = *parsed;
    std::printf("c parsed %d variables, %d clauses\n", cnf.numVars(),
                cnf.numClauses());
    const int original_vars = cnf.numVars();
    // The classic path preprocesses here (and extends the model
    // below); the hybrid path hands the strength to HybridSolver so
    // the annealer frontend works on the reduced formula.
    simplify::Result pre;
    const bool preprocess =
        classic && strength != simplify::Strength::Off;
    if (preprocess) {
        pre = simplify::Pipeline(simplify::Options::preset(strength),
                                 &registry)
                  .run(cnf);
        std::printf("c simplify=%s: %d units, %d subsumed, %d "
                    "strengthened, %d equivalences, %d eliminated "
                    "-> %d clauses\n",
                    simplify::strengthName(strength), pre.stats.units,
                    pre.stats.subsumed, pre.stats.strengthened,
                    pre.stats.equivalences, pre.stats.eliminated,
                    pre.cnf.numClauses());
        if (!pre.satisfiable_possible) {
            files.write(registry);
            std::printf("s UNSATISFIABLE\n");
            return 20;
        }
        cnf = pre.cnf;
    }
    if (!cnf.isThreeSat()) {
        std::printf("c converting to 3-SAT for the annealer "
                    "frontend\n");
        cnf = sat::toThreeSat(cnf);
    }

    // Wall-clock budget: a watchdog thread trips the cooperative
    // stop token the CDCL loop, hybrid loop and sampler all observe.
    StopToken stop;
    std::mutex watchdog_mutex;
    std::condition_variable watchdog_cv;
    bool solve_done = false;
    std::thread watchdog;
    if (timeout_s > 0.0) {
        watchdog = std::thread([&] {
            std::unique_lock<std::mutex> lock(watchdog_mutex);
            if (!watchdog_cv.wait_for(
                    lock, std::chrono::duration<double>(timeout_s),
                    [&] { return solve_done; })) {
                stop.requestStop();
            }
        });
    }
    const auto finish_watchdog = [&] {
        if (!watchdog.joinable())
            return;
        {
            std::lock_guard<std::mutex> lock(watchdog_mutex);
            solve_done = true;
        }
        watchdog_cv.notify_all();
        watchdog.join();
    };

    core::HybridResult result;
    if (classic) {
        auto opts = sat::SolverOptions::minisatStyle();
        opts.conflict_budget = config.solver.conflict_budget;
        result = core::solveClassicCdcl(cnf, opts, &stop, &registry);
    } else {
        config.stop = &stop;
        config.metrics = &registry;
        core::HybridSolver solver(config);
        result = solver.solve(cnf);
        std::printf("c");
        for (const auto &[key, value] :
             core::echoKnobs(config, core::Knob::Scope::Solo))
            std::printf(" %s=%s", key.c_str(), value.c_str());
        std::printf("\n");
        std::printf("c %d QA samples applied over %d warm-up "
                    "iterations (%d submitted, %d stale, %d stalls)\n",
                    result.qa_samples, result.warmup_iterations,
                    result.qa_submitted, result.qa_stale,
                    result.time.stalls);
        std::printf("c QA device %.1f us total, %.1f us blocking, "
                    "%.1f us in flight\n",
                    result.time.qa_device_s * 1e6,
                    result.time.qa_blocking_s * 1e6,
                    result.time.qa_inflight_s * 1e6);
    }

    finish_watchdog();
    if (result.status.isUndef()) {
        if (stop.stopRequested())
            std::printf("c stopped: wall-clock timeout (%.1f s)\n",
                        timeout_s);
        else
            std::printf("c stopped: budget exhausted\n");
    }

    std::printf("c %llu iterations, %llu conflicts\n",
                static_cast<unsigned long long>(
                    result.stats.iterations),
                static_cast<unsigned long long>(
                    result.stats.conflicts));
    files.write(registry);
    if (result.status.isTrue()) {
        if (preprocess)
            result.model = pre.extendModel(result.model);
        if (static_cast<int>(result.model.size()) < original_vars)
            result.model.resize(original_vars, false);
        std::printf("s SATISFIABLE\nv");
        for (int v = 0; v < original_vars; ++v)
            std::printf(" %d", result.model[v] ? v + 1 : -(v + 1));
        std::printf(" 0\n");
        return 10;
    }
    if (result.status.isFalse()) {
        std::printf("s UNSATISFIABLE\n");
        return 20;
    }
    std::printf("s UNKNOWN\n");
    return 0;
}
