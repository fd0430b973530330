#include "portfolio/portfolio.h"

#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>

#include "util/logging.h"
#include "util/timer.h"

namespace hyqsat::portfolio {

namespace {

/** splitmix64 finalizer: decorrelates per-worker seed streams. */
std::uint64_t
mixSeed(std::uint64_t seed, std::uint64_t salt)
{
    std::uint64_t z = seed + salt * 0x9e3779b97f4a7c15ull;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

/** Rows of the diversify() table; later workers cycle through it. */
constexpr int kDiversifySlots = 9;

} // namespace

PortfolioSolver::PortfolioSolver(PortfolioOptions opts)
    : opts_(std::move(opts))
{
    if (opts_.workers.empty() && opts_.num_workers <= 0)
        fatal("PortfolioSolver needs at least one worker");
}

std::vector<WorkerConfig>
PortfolioSolver::diversify(const core::HybridConfig &base, int n)
{
    std::vector<WorkerConfig> slate;
    slate.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
        WorkerConfig w;
        w.hybrid = base;
        switch (i % kDiversifySlots) {
        case 0:
            // Slot 0 IS the base config: a 1-worker portfolio must
            // reproduce the single solver bit for bit.
            w.label = "base";
            break;
        case 1:
            // Plain CDCL hedge: on instances where QA feedback does
            // not pay, the classic loop often finishes first.
            w.label = "cdcl";
            w.hybrid.warmup_override = 0;
            break;
        case 2:
            // SA over the logical Ising model: the sample-quality
            // ceiling of the device emulation.
            w.label = "sa";
            w.hybrid.sampler = "sa";
            break;
        case 3:
            // Async pipeline: overlaps device latency with search.
            w.label = "async";
            w.hybrid.pipeline_depth =
                std::max(base.pipeline_depth, 2);
            break;
        case 4:
            // Best-of-N inside every sample: 16 reads per device
            // call through the lockstep SIMD kernel, fanned across
            // the WorkPool in auto-sized groups of 8 lanes.
            w.label = "reads";
            w.hybrid.num_reads = std::max(base.num_reads, 16);
            break;
        case 5:
            // CHB branching / faster restarts on the CDCL side,
            // over a lightly preprocessed formula.
            w.label = "kissat";
            w.hybrid.solver = sat::SolverOptions::kissatStyle();
            w.hybrid.simplify_strength = simplify::Strength::Light;
            break;
        case 6:
            // Ideal all-to-all device: no embedding losses.
            w.label = "logical";
            w.hybrid.sampler = "logical";
            w.hybrid.use_embedding = false;
            break;
        case 7:
            // Greedy clause-queue head instead of the paper's random
            // top-30 pick (§IV-A): a different slice of the formula
            // reaches the annealer.
            w.label = "greedy-queue";
            w.hybrid.frontend.queue.top_k = 1;
            break;
        case 8:
            // Full inprocessing (BVE, equivalence substitution,
            // probing, vivification) before the hybrid loop: this
            // worker searches a smaller formula and more of its
            // clause queue embeds per iteration.
            w.label = "presolve";
            w.hybrid.simplify_strength = simplify::Strength::Full;
            break;
        }
        if (i > 0) {
            // Decorrelate every RNG stream so identical variants in
            // a second table cycle still explore differently.
            const auto salt = static_cast<std::uint64_t>(i);
            w.hybrid.seed = mixSeed(base.seed, salt);
            w.hybrid.solver.seed = mixSeed(base.solver.seed, salt);
            w.hybrid.annealer.seed =
                mixSeed(base.annealer.seed, salt);
        }
        if (i >= kDiversifySlots)
            w.label += "#" + std::to_string(i / kDiversifySlots);
        slate.push_back(std::move(w));
    }
    return slate;
}

PortfolioResult
PortfolioSolver::solve(const sat::Cnf &formula)
{
    const Timer wall;
    PortfolioResult result;

    const std::vector<WorkerConfig> slate =
        opts_.workers.empty()
            ? diversify(opts_.base, opts_.num_workers)
            : opts_.workers;
    const int n = static_cast<int>(slate.size());
    result.workers.resize(static_cast<std::size_t>(n));

    StopToken stop;
    const bool share = opts_.share_clauses && n > 1;
    ClauseExchange exchange(
        n, ClauseExchange::Options{opts_.share_max_len,
                                   opts_.share_capacity});

    // One private registry per worker: hot-handle writes never cross
    // threads; everything is merged into opts_.metrics after join.
    TraceSink *const trace =
        opts_.metrics ? opts_.metrics->trace() : nullptr;
    std::vector<std::unique_ptr<MetricsRegistry>> worker_metrics;
    if (opts_.metrics) {
        worker_metrics.reserve(static_cast<std::size_t>(n));
        for (int i = 0; i < n; ++i) {
            worker_metrics.push_back(
                std::make_unique<MetricsRegistry>());
            worker_metrics.back()->setTrace(trace);
        }
    }

    std::mutex mutex;
    std::condition_variable cv;
    int running = n;
    int winner = -1;
    Timer win_timer;
    core::HybridResult winner_result;

    auto runWorker = [&](int i) {
        const Timer worker_timer;
        core::HybridConfig cfg = slate[static_cast<std::size_t>(i)].hybrid;
        cfg.stop = &stop;
        if (!worker_metrics.empty())
            cfg.metrics = worker_metrics[static_cast<std::size_t>(i)].get();
        if (opts_.conflict_budget >= 0)
            cfg.solver.conflict_budget = opts_.conflict_budget;
        if (share) {
            const int max_len = opts_.share_max_len;
            cfg.learnt_export = [&exchange, i,
                                 max_len](const sat::LitVec &lits) {
                if (static_cast<int>(lits.size()) <= max_len)
                    exchange.publish(i, lits);
            };
            const bool polarity = opts_.share_polarity;
            cfg.root_hook = [&exchange, i, polarity](sat::Solver &s) {
                std::vector<sat::LitVec> incoming;
                exchange.fetch(i, incoming);
                for (sat::LitVec &c : incoming) {
                    // The first literal is the exporter's asserting
                    // (first-UIP) literal: seed phase saving with it.
                    if (polarity && !c.empty())
                        s.suggestPhase(c[0].var(), !c[0].sign());
                    if (!s.importClause(std::move(c)))
                        return; // import refuted the formula
                }
            };
        }

        core::HybridSolver solver(cfg);
        core::HybridResult r = solver.solve(formula);
        const double seconds = worker_timer.seconds();

        {
            std::lock_guard<std::mutex> lock(mutex);
            WorkerReport &rep =
                result.workers[static_cast<std::size_t>(i)];
            rep.label = slate[static_cast<std::size_t>(i)].label;
            rep.status = r.status;
            rep.seconds = seconds;
            rep.iterations = r.stats.iterations;
            rep.conflicts = r.stats.conflicts;
            rep.qa_samples = r.qa_samples;
            rep.exported_clauses = r.stats.exported_clauses;
            rep.imported_clauses = r.stats.imported_clauses;
            if (!r.status.isUndef() && winner < 0) {
                winner = i;
                winner_result = std::move(r);
                win_timer.reset();
                stop.requestStop(); // cancel the losers
            }
            --running;
            if (trace) {
                trace->event(
                    "portfolio.worker_done",
                    {{"seconds", seconds},
                     {"conflicts",
                      static_cast<double>(rep.conflicts)},
                     {"qa_samples",
                      static_cast<double>(rep.qa_samples)}},
                    {{"label", rep.label},
                     {"status", rep.status.isTrue()    ? "SAT"
                                : rep.status.isFalse() ? "UNSAT"
                                                       : "UNDEF"}});
            }
        }
        cv.notify_all();
    };

    // Watchdog: turns the wall-clock budget and the caller's
    // external token into stop requests. Polling (a few ms) keeps it
    // simple; cancellation latency is dominated by the workers'
    // own cancellation points anyway.
    std::thread watchdog;
    if (opts_.timeout_s > 0.0 || opts_.external_stop) {
        watchdog = std::thread([&] {
            std::unique_lock<std::mutex> lock(mutex);
            while (running > 0 && winner < 0) {
                if (opts_.timeout_s > 0.0 &&
                    wall.seconds() >= opts_.timeout_s) {
                    result.timed_out = true;
                    stop.requestStop();
                    break;
                }
                if (opts_.external_stop &&
                    opts_.external_stop->stopRequested()) {
                    result.external_stopped = true;
                    stop.requestStop();
                    break;
                }
                cv.wait_for(lock, std::chrono::milliseconds(2));
            }
        });
    }

    std::vector<std::thread> threads;
    threads.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i)
        threads.emplace_back(runWorker, i);
    for (std::thread &t : threads)
        t.join();

    // Everything below runs after every worker returned, so the
    // winner bookkeeping needs no lock — except the watchdog, which
    // may still hold the mutex for one last poll.
    if (watchdog.joinable()) {
        cv.notify_all();
        watchdog.join();
    }

    result.wall_s = wall.seconds();
    if (winner >= 0) {
        result.cancel_latency_s = win_timer.seconds();
        result.winner = winner;
        result.winner_label =
            result.workers[static_cast<std::size_t>(winner)].label;
        result.workers[static_cast<std::size_t>(winner)].winner = true;
        result.status = winner_result.status;
        if (winner_result.status.isTrue()) {
            result.model = winner_result.model;
            if (!formula.eval(result.model))
                panic("portfolio winner's model failed verification");
        }
        result.winner_result = std::move(winner_result);
    }
    result.exchange = exchange.stats();

    if (opts_.metrics) {
        MetricsRegistry &m = *opts_.metrics;
        for (const auto &wm : worker_metrics)
            m.merge(*wm);
        m.counter("portfolio.races")->add();
        m.timer("portfolio.wall")->add(result.wall_s);
        if (result.winner >= 0) {
            m.counter("portfolio.decided")->add();
            m.counter("portfolio.wins." + result.winner_label)->add();
            m.timer("portfolio.cancel_latency")
                ->add(result.cancel_latency_s);
        }
        if (result.timed_out)
            m.counter("portfolio.timeouts")->add();
        if (result.external_stopped)
            m.counter("portfolio.external_stops")->add();
        m.counter("portfolio.exchange.published")
            ->add(result.exchange.published);
        m.counter("portfolio.exchange.rejected_len")
            ->add(result.exchange.rejected_len);
        m.counter("portfolio.exchange.overflowed")
            ->add(result.exchange.overflowed);
        m.counter("portfolio.exchange.fetched")
            ->add(result.exchange.fetched);
        if (trace) {
            trace->event(
                "portfolio.race_done",
                {{"wall_s", result.wall_s},
                 {"cancel_latency_s", result.cancel_latency_s},
                 {"workers", static_cast<double>(n)}},
                {{"winner", result.winner_label},
                 {"status", result.status.isTrue()    ? "SAT"
                            : result.status.isFalse() ? "UNSAT"
                                                      : "UNDEF"}});
        }
    }
    return result;
}

} // namespace hyqsat::portfolio
