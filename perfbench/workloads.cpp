/**
 * @file
 * The three workloads. Each run draws its instances from the seed,
 * computes a classic-CDCL reference status for every one of them
 * (untimed), times the program's own set-up, then solves instances in
 * a fixed order until the window closes. Every answer passes the
 * correctness gate; a wrong one stops the run.
 *
 *  structured_qa  one at a time through HybridSolver, noisy 2000Q
 *                 device, single-read sync sampler, at most 16 QA
 *                 iterations: SA sampling is most of the wall, CDCL
 *                 a sliver.
 *  random_cdcl    one at a time through HybridSolver on uniform
 *                 random 3-SAT at m/n = 4.26, half SAT and half
 *                 UNSAT draws, noise-free device, 8 lockstep reads, at
 *                 most 1 QA iteration, full inprocessing: CDCL is
 *                 most of the wall.
 *  service_race   a closed loop of 4 clients in 2 tenants submitting
 *                 DIMACS text to a JobScheduler (2 workers, each a
 *                 base + cdcl portfolio).
 */

#include <algorithm>
#include <array>
#include <atomic>
#include <memory>
#include <thread>

#include "bench.h"
#include "gen/benchmarks.h"
#include "gen/random_sat.h"
#include "sat/dimacs.h"
#include "service/scheduler.h"
#include "util/logging.h"
#include "util/metrics.h"
#include "util/timer.h"

namespace hyqsat::perfbench {

namespace {

/** splitmix64: decorrelated per-instance seeds from the run seed. */
std::uint64_t
mix(std::uint64_t seed, std::uint64_t salt)
{
    std::uint64_t z =
        seed * 0x2545f4914f6cdd1dull + salt * 0x9e3779b97f4a7c15ull;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

// Instance hardness varies a lot from seed to seed, so a run must
// solve many instances for its medians to repeat: these sizes give
// about 150 (structured_qa) and 400 (random_cdcl) solves in 30 s. The
// warm-up caps stop the paper's sqrt(K) policy, which asks for 100 to
// 500 QA iterations here at 10-20 ms of host SA each; on random_cdcl
// the cap also keeps CDCL the majority of the wall.
constexpr int kRandomVars = 165;
constexpr int kRandomClauses = 703; // m/n = 4.26
constexpr std::int64_t kRandomMaxWarmup = 1;
constexpr std::int64_t kStructuredMaxWarmup = 16;
// Set-up is timed before and after the window and the median of all
// repetitions reported: host contention comes in bursts, and a burst
// at start-up alone moved a run's set-up time by a third.
constexpr int kSetupBefore = 5;
constexpr int kSetupAfter = 4;
constexpr int kServiceClients = 4;

const std::vector<std::string> &
structuredFamilies()
{
    static const std::vector<std::string> ids = {
        "GC1", "GC2", "GC3", "IF1", "IF2", "BP", "II", "CFA", "CRY"};
    return ids;
}

/** One registry family per generator module, small shapes. */
const std::vector<std::string> &
serviceFamilies()
{
    static const std::vector<std::string> ids = {
        "GC1", "CFA", "BP", "II", "IF1", "CRY", "AI1"};
    return ids;
}

int
defaultPool(const std::string &workload)
{
    if (workload == "structured_qa")
        return 270; // 30 per family
    if (workload == "random_cdcl")
        return 480;
    return 168; // 24 per service family
}

/**
 * Draw instances @p first .. @p first + @p count - 1 of @p make in
 * parallel, each with its DIMACS text and classic-CDCL reference
 * status, in index order.
 */
template <typename Make>
std::vector<Instance>
draw(int first, int count, const Make &make)
{
    std::vector<Instance> out(static_cast<std::size_t>(count));
    std::atomic<int> next{0};
    auto worker = [&] {
        for (int i = next++; i < count; i = next++) {
            const sat::Cnf cnf = make(first + i);
            Instance &inst = out[static_cast<std::size_t>(i)];
            inst.name = cnf.name();
            inst.dimacs = sat::toDimacsString(cnf);
            inst.reference_sat =
                core::solveClassicCdcl(cnf,
                                       sat::SolverOptions::minisatStyle())
                    .status.isTrue();
        }
    };
    const int threads = static_cast<int>(std::clamp(
        std::thread::hardware_concurrency(), 1u, 4u));
    std::vector<std::thread> helpers;
    for (int t = 1; t < threads; ++t)
        helpers.emplace_back(worker);
    worker();
    for (std::thread &t : helpers)
        t.join();
    return out;
}

/** The run's instances, in solve order; fixed by the seed. */
std::vector<Instance>
generate(const RunSpec &spec, int count)
{
    const std::uint64_t base = mix(spec.seed, 0x7e57);
    if (spec.workload != "random_cdcl") {
        // Round-robin over the families; the instance index within
        // a family grows every round (it selects the family's shape
        // variant, the seed the random draw).
        const auto &ids = spec.workload == "structured_qa"
                              ? structuredFamilies()
                              : serviceFamilies();
        const int n = static_cast<int>(ids.size());
        return draw(0, count, [&](int i) {
            return gen::BenchmarkSuite::byId(ids[static_cast<std::size_t>(
                                                 i % n)])
                .make(i / n, base);
        });
    }

    // Uniform draws, alternating SAT and UNSAT ones in solve order.
    // Near the threshold the two statuses cost very different CDCL
    // work, and a median over an unbalanced mix moved with each seed's
    // share of SAT draws; balancing removes that share from the
    // spread. Surplus draws of the commoner status are dropped.
    auto uniform = [&](int i) {
        Rng rng(mix(base, static_cast<std::uint64_t>(i)));
        sat::Cnf cnf = gen::uniformRandom3Sat(kRandomVars, kRandomClauses, rng);
        cnf.setName("UF" + std::to_string(kRandomVars) + "-" +
                    std::to_string(i));
        return cnf;
    };
    const std::size_t half = static_cast<std::size_t>(count + 1) / 2;
    std::vector<Instance> by_status[2];
    for (int first = 0; by_status[0].size() < half ||
                        by_status[1].size() < half;
         first += count / 2 + 1) {
        for (Instance &inst : draw(first, count / 2 + 1, uniform))
            by_status[inst.reference_sat ? 1 : 0].push_back(std::move(inst));
    }
    std::vector<Instance> pool;
    for (std::size_t k = 0; pool.size() < static_cast<std::size_t>(count);
         ++k) {
        pool.push_back(std::move(by_status[1][k]));
        if (pool.size() < static_cast<std::size_t>(count))
            pool.push_back(std::move(by_status[0][k]));
    }
    return pool;
}

/** Parse every instance's DIMACS text (part of the timed set-up). */
void
parseAll(std::vector<Instance> &pool)
{
    for (Instance &inst : pool) {
        auto cnf = sat::parseDimacs(std::string_view(inst.dimacs));
        if (!cnf)
            fatal("perfbench: generated DIMACS failed to parse (%s)",
                  inst.name.c_str());
        inst.cnf = std::move(*cnf);
    }
}

core::HybridConfig
hybridConfig(const std::string &workload)
{
    core::HybridConfig cfg;
    if (workload == "structured_qa") {
        // The noisy D-Wave 2000Q-like device of the paper's §VI-C.
        cfg.annealer.noise = anneal::NoiseModel::dwave2000q();
        cfg.annealer.greedy_finish = true;
        cfg.annealer.attempts = 1;
        cfg.seed = 0x2000aced;
        cfg.max_warmup = kStructuredMaxWarmup;
    } else {
        // The noise-free simulator of §VI-B with 8 lockstep reads.
        cfg.annealer.noise = anneal::NoiseModel::noiseFree();
        cfg.annealer.greedy_finish = true;
        cfg.annealer.attempts = 2;
        cfg.seed = 0x5eedba5e;
        cfg.num_reads = 8;
        cfg.reads_batch = true;
        cfg.simplify_strength = simplify::Strength::Full;
        cfg.max_warmup = kRandomMaxWarmup;
    }
    return cfg;
}

double
perSolve(double total, std::uint64_t solves)
{
    return solves ? total / static_cast<double>(solves) : 0.0;
}

double
frac(double a, double b)
{
    return b > 0.0 ? a / b : 0.0;
}

/** End-to-end metrics shared by every workload. */
void
emitEndToEnd(Report &report, const std::vector<double> &latency,
             const std::vector<double> &modeled,
             const std::vector<double> &iterations, std::uint64_t verified,
             double wall_s, double setup_s)
{
    const double tail = tailPercentile(latency.size());
    report.env["tail_percentile"] = jsonNumber(tail);
    report.env["latency_samples"] = std::to_string(latency.size());
    report.metric("solves_per_s", frac(static_cast<double>(verified), wall_s),
                  "1/s");
    report.metric("latency_s_p50", percentile(latency, 50.0), "s");
    report.metric("latency_s_tail", percentile(latency, tail), "s");
    report.metric("modeled_s_p50", percentile(modeled, 50.0), "s");
    report.metric("iterations_p50", percentile(iterations, 50.0), "count");
    report.metric("verified_frac",
                  frac(static_cast<double>(verified),
                       static_cast<double>(report.attempted)),
                  "frac");
    report.metric("setup_s", setup_s, "s");
    report.metric("peak_rss_mb", peakRssMb(), "MB");
}

/** Per-layer metric names, in emission order, with their units. */
const std::vector<std::pair<std::string, std::string>> &
layerMetrics()
{
    static const std::vector<std::pair<std::string, std::string>> m = {
        {"simplify.self_s", "s"},
        {"simplify.extend.self_s", "s"},
        {"simplify.removed_clause_frac", "frac"},
        {"frontend.self_s", "s"},
        {"frontend.queue.self_s", "s"},
        {"frontend.cache.self_s", "s"},
        {"frontend.embed.self_s", "s"},
        {"frontend.cache.hit_frac", "frac"},
        {"frontend.embedded_frac", "frac"},
        {"anneal.setup.self_s", "s"},
        {"anneal.self_s", "s"},
        {"anneal.samples", "count"},
        {"anneal.flips_per_s", "1/s"},
        {"anneal.accept_frac", "frac"},
        {"anneal.chain_breaks_per_sample", "count"},
        {"backend.self_s", "s"},
        {"backend.guided_frac", "frac"},
        {"cdcl.load.self_s", "s"},
        {"cdcl.self_s", "s"},
        {"cdcl.conflicts", "count"},
        {"cdcl.propagations_per_s", "1/s"},
        {"hybrid.iteration.self_s", "s"},
        {"hybrid.qa_samples", "count"},
        {"hybrid.unaccounted_s", "s"},
        {"portfolio.race_s_p50", "s"},
        {"portfolio.cancel_latency_s", "s"},
        {"portfolio.exchange.fetched", "count"},
        {"service.queue_wait_s_p50", "s"},
        {"service.solve_s_p50", "s"},
        {"service.rejected", "count"},
        {"trace.wall_s", "s"},
        {"trace.overhead_frac", "frac"},
        {"trace.solves", "count"},
    };
    return m;
}

/** Emit every per-layer metric; names absent from @p v read 0. */
void
emitLayers(Report &report, const std::map<std::string, double> &v)
{
    for (const auto &[name, unit] : layerMetrics()) {
        const auto it = v.find(name);
        report.metric(name, it == v.end() ? 0.0 : it->second, unit);
    }
    for (const auto &[name, value] : v) {
        const bool known = std::any_of(
            layerMetrics().begin(), layerMetrics().end(),
            [&](const auto &m) { return m.first == name; });
        if (!known)
            panic("perfbench: undeclared layer metric %s", name.c_str());
    }
}

/** Where client @p c of a traced run writes its spans. */
std::string
spanPath(const RunSpec &spec, std::size_t c)
{
    return spec.out_dir + "/spans-" + spec.workload + "-seed" +
           std::to_string(spec.seed) + "-client" + std::to_string(c) +
           ".jsonl";
}

double
seconds(std::int64_t ns)
{
    return static_cast<double>(ns) * 1e-9;
}

/** Count one answer against the gate. */
void
account(Report &report, const Instance &inst, sat::lbool status,
        const std::vector<bool> *model, std::uint64_t &verified)
{
    ++report.attempted;
    std::string why;
    switch (judge(inst, status, model, &why)) {
    case Verdict::Verified:
        ++verified;
        break;
    case Verdict::Failed:
        ++report.failed;
        break;
    case Verdict::Wrong:
        ++report.failed;
        report.fail(why);
        break;
    }
}

void
runHybrid(const RunSpec &spec, std::vector<Instance> pool, Report &report)
{
    const core::HybridConfig cfg = hybridConfig(spec.workload);
    report.env["client_threads"] = std::to_string(1);
    report.env["solver_threads"] = std::to_string(1);

    // Set-up: the solver (topology build) plus parsing the DIMACS
    // text of every instance.
    std::vector<double> setup;
    std::unique_ptr<core::HybridSolver> solver;
    auto setUp = [&](int repeats) {
        for (int r = 0; r < repeats; ++r) {
            const Timer t;
            solver = std::make_unique<core::HybridSolver>(cfg);
            parseAll(pool);
            setup.push_back(t.seconds());
        }
    };
    setUp(kSetupBefore);

    std::vector<double> latency, modeled, iterations;
    std::uint64_t verified = 0;
    Tracer tracer;
    LoopCounts counts;
    std::array<std::uint64_t, 5> strategies{};
    std::uint64_t conflicts = 0, qa_samples = 0;
    double untraced_s = 0.0;

    const Timer window;
    for (std::size_t i = 0; report.correct; ++i) {
        if (i > 0 && window.seconds() >= spec.seconds)
            break;
        const Instance &inst = pool[i % pool.size()];
        const Timer t;
        const core::HybridResult r = solver->solve(inst.cnf);
        const double wall = t.seconds();
        account(report, inst, r.status, &r.model, verified);
        latency.push_back(wall);
        modeled.push_back(r.time.endToEnd());
        iterations.push_back(static_cast<double>(r.stats.iterations));
        if (!spec.trace)
            continue;

        untraced_s += wall;
        const LoopOutcome o =
            tracedSolve(cfg, solver->graph(), inst.cnf, tracer);
        std::uint64_t ignored = 0;
        account(report, inst, o.status, &o.model, ignored);
        if (const std::string diff = compareLoops(o, r); !diff.empty())
            report.fail("traced loop diverged on " + inst.name + ": " + diff);
        counts.add(o.counts);
        for (std::size_t k = 1; k < strategies.size(); ++k)
            strategies[k] += o.strategy_count[k];
        conflicts += o.conflicts;
        qa_samples += static_cast<std::uint64_t>(o.qa_samples);
    }
    const double wall_s = window.seconds();
    setUp(kSetupAfter);
    report.env["instances_generated"] = std::to_string(pool.size());

    if (!spec.trace) {
        emitEndToEnd(report, latency, modeled, iterations, verified,
                     wall_s, percentile(setup, 50.0));
        return;
    }

    // Span accounting: self times (including the root's, which is
    // the unaccounted remainder) must add up to the traced wall, and
    // no self time may be negative (children inside their parents).
    const auto self = tracer.selfNs();
    const std::int64_t root_ns = tracer.rootNs();
    std::int64_t sum = 0;
    for (const std::int64_t s : self) {
        if (s < 0)
            report.fail("span accounting: negative self time");
        sum += s;
    }
    if (sum != root_ns)
        report.fail("span accounting: self times do not sum to the wall");

    const std::uint64_t n = latency.size();
    auto selfOf = [&](SpanKind k) {
        return perSolve(seconds(self[static_cast<int>(k)]), n);
    };
    const double traced_s = seconds(root_ns);
    std::map<std::string, double> v;
    v["simplify.self_s"] = selfOf(SpanKind::Simplify);
    v["simplify.extend.self_s"] = selfOf(SpanKind::Extend);
    v["simplify.removed_clause_frac"] =
        frac(static_cast<double>(counts.simplify_clauses_in) -
                 static_cast<double>(counts.simplify_clauses_out),
             static_cast<double>(counts.simplify_clauses_in));
    v["frontend.self_s"] = selfOf(SpanKind::Frontend);
    v["frontend.queue.self_s"] = selfOf(SpanKind::Queue);
    v["frontend.cache.self_s"] = selfOf(SpanKind::Cache);
    v["frontend.embed.self_s"] = selfOf(SpanKind::Embed);
    v["frontend.cache.hit_frac"] =
        frac(static_cast<double>(counts.cache_hits),
             static_cast<double>(counts.cache_hits + counts.cache_misses));
    v["frontend.embedded_frac"] =
        frac(static_cast<double>(counts.embedded_clauses),
             static_cast<double>(counts.queued_clauses));
    v["anneal.setup.self_s"] = selfOf(SpanKind::SamplerSetup);
    v["anneal.self_s"] = selfOf(SpanKind::Anneal);
    v["anneal.samples"] = perSolve(static_cast<double>(counts.samples), n);
    v["anneal.flips_per_s"] =
        frac(static_cast<double>(counts.flips_attempted),
             seconds(self[static_cast<int>(SpanKind::Anneal)]));
    v["anneal.accept_frac"] =
        frac(static_cast<double>(counts.flips_accepted),
             static_cast<double>(counts.flips_attempted));
    v["anneal.chain_breaks_per_sample"] =
        frac(static_cast<double>(counts.chain_breaks),
             static_cast<double>(counts.samples));
    v["backend.self_s"] = selfOf(SpanKind::Backend);
    v["backend.guided_frac"] =
        frac(static_cast<double>(strategies[1] + strategies[2] +
                                 strategies[4]),
             static_cast<double>(qa_samples));
    v["cdcl.load.self_s"] = selfOf(SpanKind::CdclLoad);
    v["cdcl.self_s"] = selfOf(SpanKind::Cdcl);
    v["cdcl.conflicts"] = perSolve(static_cast<double>(conflicts), n);
    v["cdcl.propagations_per_s"] =
        frac(static_cast<double>(counts.propagations),
             seconds(self[static_cast<int>(SpanKind::Cdcl)]));
    v["hybrid.iteration.self_s"] = selfOf(SpanKind::Iteration);
    v["hybrid.qa_samples"] = perSolve(static_cast<double>(qa_samples), n);
    v["hybrid.unaccounted_s"] = selfOf(SpanKind::Solve);
    v["trace.wall_s"] = perSolve(traced_s, n);
    v["trace.overhead_frac"] = frac(traced_s - untraced_s, untraced_s);
    v["trace.solves"] = static_cast<double>(n);
    emitLayers(report, v);
    report.env["stress_share"] =
        "{\"anneal\":" + jsonNumber(frac(selfOf(SpanKind::Anneal),
                                         v["trace.wall_s"])) +
        ",\"cdcl\":" + jsonNumber(frac(selfOf(SpanKind::Cdcl),
                                       v["trace.wall_s"])) + "}";
    tracer.dump(spanPath(spec, 0), envJson(report));
}

/** Counters summed over every raced worker of a job, taken from
 *  the job's own metrics registry (there are no spans inside it). */
const std::array<const char *, 10> kJobCounters = {
    "anneal.sample_s",        "pipeline.harvested",
    "backend.samples",        "backend.apply_s",
    "solver.conflicts",       "portfolio.exchange.fetched",
    "frontend.cache.hits",    "frontend.cache.misses",
    "anneal.flips.attempted", "anneal.flips.accepted"};

/** One job as a client saw it, reduced to what the report needs. */
struct JobLog
{
    std::size_t instance = 0;
    std::string status;
    double latency_s = 0.0; ///< submit -> wait() return
    double solve_s = 0.0;   ///< the record's wall_s
    double modeled_s = 0.0;
    double iterations = 0.0;
    double race_s = 0.0;
    double cancel_s = 0.0;
    bool decided = false;
    std::array<double, kJobCounters.size()> counters{};
};

double
snapshotValue(const service::InstanceRecord &rec, const std::string &name)
{
    for (const auto &[key, value] : rec.metrics)
        if (key == name)
            return value;
    return 0.0;
}

void
runService(const RunSpec &spec, std::vector<Instance> pool, Report &report)
{
    MetricsRegistry registry;
    service::SchedulerOptions opts;
    opts.workers = 2;
    opts.portfolio.num_workers = 2; // slots "base" and "cdcl"
    opts.metrics = &registry;
    // Each client waits on its job at once, so a short record history
    // suffices and memory does not grow with the run length.
    opts.max_retained_records = 64;
    report.env["client_threads"] = std::to_string(kServiceClients);
    report.env["scheduler_workers"] = std::to_string(opts.workers);
    report.env["portfolio_workers"] =
        std::to_string(opts.portfolio.num_workers);
    report.env["solver_threads"] =
        std::to_string(opts.workers * opts.portfolio.num_workers);

    // The clients hold parsed formulas only to check answers; the
    // scheduler parses the DIMACS text itself, inside each job.
    parseAll(pool);
    std::vector<double> setup;
    std::unique_ptr<service::JobScheduler> scheduler;
    auto setUp = [&](int repeats) {
        for (int r = 0; r < repeats; ++r) {
            scheduler.reset();
            const Timer t;
            scheduler = std::make_unique<service::JobScheduler>(opts);
            setup.push_back(t.seconds());
        }
    };
    setUp(kSetupBefore);

    std::vector<std::vector<JobLog>> logs(kServiceClients);
    std::vector<Tracer> tracers(kServiceClients);
    std::atomic<std::uint64_t> rejected{0};
    const Timer window;
    auto client = [&](int c) {
        const std::string tenant = c % 2 ? "tenant-b" : "tenant-a";
        std::size_t next = static_cast<std::size_t>(c) * pool.size() /
                           kServiceClients;
        Tracer *tracer = spec.trace ? &tracers[static_cast<std::size_t>(c)]
                                    : nullptr;
        while (window.seconds() < spec.seconds) {
            const std::size_t index = next++ % pool.size();
            service::JobSpec job;
            job.tenant = tenant;
            job.name = pool[index].name;
            job.dimacs = pool[index].dimacs;
            if (tracer)
                tracer->beginRequest();
            const Tracer::Scope span(tracer, SpanKind::Job);
            const Timer t;
            const service::Submission sub = scheduler->submit(std::move(job));
            if (!sub.accepted) {
                ++rejected;
                continue;
            }
            const service::InstanceRecord rec = scheduler->wait(sub.id);
            JobLog log;
            log.latency_s = t.seconds();
            log.instance = index;
            log.status = rec.status;
            log.solve_s = rec.wall_s;
            log.modeled_s =
                rec.frontend_s + rec.qa_device_s + rec.backend_s + rec.cdcl_s;
            log.iterations = static_cast<double>(rec.iterations);
            log.race_s = snapshotValue(rec, "portfolio.wall_s");
            log.cancel_s = snapshotValue(rec, "portfolio.cancel_latency_s");
            log.decided = snapshotValue(rec, "portfolio.decided") > 0.0;
            for (std::size_t k = 0; k < kJobCounters.size(); ++k)
                log.counters[k] = snapshotValue(rec, kJobCounters[k]);
            logs[static_cast<std::size_t>(c)].push_back(std::move(log));
        }
    };
    std::vector<std::thread> clients;
    for (int c = 0; c < kServiceClients; ++c)
        clients.emplace_back(client, c);
    for (std::thread &t : clients)
        t.join();
    const double wall_s = window.seconds();
    scheduler->shutdown(service::DrainPolicy::FinishQueued);
    setUp(kSetupAfter);

    std::vector<double> latency, modeled, iterations, queue_wait, solve_s,
        race_s;
    std::uint64_t verified = 0;
    double cancel_s = 0.0;
    std::uint64_t cancels = 0;
    std::array<double, kJobCounters.size()> sums{};
    for (const auto &client_logs : logs) {
        for (const JobLog &log : client_logs) {
            const sat::lbool status = log.status == "SAT"     ? sat::l_True
                                      : log.status == "UNSAT" ? sat::l_False
                                                              : sat::l_Undef;
            account(report, pool[log.instance], status, nullptr, verified);
            latency.push_back(log.latency_s);
            modeled.push_back(log.modeled_s);
            iterations.push_back(log.iterations);
            queue_wait.push_back(log.latency_s - log.solve_s);
            solve_s.push_back(log.solve_s);
            race_s.push_back(log.race_s);
            if (log.decided) {
                cancel_s += log.cancel_s;
                ++cancels;
            }
            for (std::size_t k = 0; k < sums.size(); ++k)
                sums[k] += log.counters[k];
        }
    }
    std::map<std::string, double> v;
    for (std::size_t k = 0; k < sums.size(); ++k)
        v[std::string("sum.") + kJobCounters[k]] = sums[k];
    report.attempted += rejected.load();
    report.failed += rejected.load();
    report.env["instances_generated"] = std::to_string(pool.size());
    report.env["rejected"] = std::to_string(rejected.load());

    if (!spec.trace) {
        emitEndToEnd(report, latency, modeled, iterations, verified, wall_s,
                     percentile(setup, 50.0));
        return;
    }

    const std::uint64_t n = latency.size();
    std::map<std::string, double> layers;
    layers["anneal.self_s"] = perSolve(v["sum.anneal.sample_s"], n);
    layers["anneal.samples"] = perSolve(v["sum.pipeline.harvested"], n);
    layers["anneal.flips_per_s"] =
        frac(v["sum.anneal.flips.attempted"], v["sum.anneal.sample_s"]);
    layers["anneal.accept_frac"] =
        frac(v["sum.anneal.flips.accepted"], v["sum.anneal.flips.attempted"]);
    layers["backend.self_s"] = perSolve(v["sum.backend.apply_s"], n);
    layers["cdcl.conflicts"] = perSolve(v["sum.solver.conflicts"], n);
    layers["frontend.cache.hit_frac"] =
        frac(v["sum.frontend.cache.hits"],
             v["sum.frontend.cache.hits"] + v["sum.frontend.cache.misses"]);
    layers["hybrid.qa_samples"] = perSolve(v["sum.backend.samples"], n);
    layers["portfolio.race_s_p50"] = percentile(race_s, 50.0);
    layers["portfolio.cancel_latency_s"] =
        perSolve(cancel_s, cancels);
    layers["portfolio.exchange.fetched"] =
        perSolve(v["sum.portfolio.exchange.fetched"], n);
    layers["service.queue_wait_s_p50"] = percentile(queue_wait, 50.0);
    layers["service.solve_s_p50"] = percentile(solve_s, 50.0);
    layers["service.rejected"] =
        static_cast<double>(registry.counter("service.rejected")->value());
    std::int64_t traced_ns = 0;
    for (const Tracer &t : tracers)
        traced_ns += t.rootNs();
    layers["trace.wall_s"] = perSolve(seconds(traced_ns), n);
    layers["trace.solves"] = static_cast<double>(n);
    emitLayers(report, layers);
    for (std::size_t c = 0; c < tracers.size(); ++c)
        tracers[c].dump(spanPath(spec, c), envJson(report));
}

} // namespace

Report
runWorkload(const RunSpec &spec)
{
    const int count = spec.pool > 0 ? spec.pool : defaultPool(spec.workload);
    std::vector<Instance> pool = generate(spec, count);
    if (spec.corrupt_reference)
        pool.front().reference_sat = !pool.front().reference_sat;
    Report report;
    stampEnvironment(spec, report);
    if (spec.workload == "service_race")
        runService(spec, std::move(pool), report);
    else
        runHybrid(spec, std::move(pool), report);
    return report;
}

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "structured_qa", "random_cdcl", "service_race"};
    return names;
}

} // namespace hyqsat::perfbench
