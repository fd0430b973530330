/**
 * @file
 * Shared vocabulary of the repository benchmark: generated instances
 * and their reference answers, the correctness gate, the in-memory
 * span recorder of the traced run, and the metric report every
 * workload fills in.
 */

#ifndef HYQSAT_PERFBENCH_BENCH_H
#define HYQSAT_PERFBENCH_BENCH_H

#include <array>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/hybrid_solver.h"
#include "sat/cnf.h"

namespace hyqsat::perfbench {

/** One generated input: the DIMACS text the program receives. */
struct Instance
{
    std::string name;
    std::string dimacs;

    /** Parsed from @ref dimacs during the timed set-up. */
    sat::Cnf cnf;

    /** Classic-CDCL status computed at generation time. */
    bool reference_sat = false;
};

/** What the correctness gate made of one answer. */
enum class Verdict {
    Verified, ///< status agrees with the reference; SAT model checks
    Failed,   ///< no answer (UNKNOWN, TIMEOUT, rejected, ...)
    Wrong,    ///< contradicts the reference or the formula
};

/**
 * Check one answer. A SAT answer must carry a model that satisfies
 * the original formula (@p model may be null only for service
 * records, which carry no model) and a SAT reference; an UNSAT
 * answer must have an UNSAT reference. @p why explains a Wrong
 * verdict.
 */
Verdict judge(const Instance &inst, sat::lbool status,
              const std::vector<bool> *model, std::string *why);

/**
 * Span kinds. In the traced hybrid loop they nest as: Solve >
 * {Simplify, SamplerSetup, CdclLoad, Cdcl > Iteration > {Frontend >
 * {Queue, Cache, Embed}, Anneal, Backend}, Extend}.
 */
enum class SpanKind : std::uint8_t {
    Solve,       ///< one traced solve; self time = unaccounted
    Simplify,    ///< simplify::Pipeline::run
    SamplerSetup,///< anneal::makeSampler
    CdclLoad,    ///< sat::Solver::loadCnf
    Cdcl,        ///< sat::Solver::solve; self time = CDCL
    Iteration,   ///< one working iteration-hook call (loop glue)
    Frontend,    ///< frontend pass (clause staging)
    Queue,       ///< core::generateClauseQueue
    Cache,       ///< QueueEmbedCache::find / insert
    Embed,       ///< HyQsatEmbedder::embedQueue
    Anneal,      ///< Sampler::submit + poll
    Backend,     ///< core::Backend::apply
    Extend,      ///< simplify::Result::extendModel
    Job,         ///< service: submit -> wait of one job
    Count
};

/** Metric-style name of a span kind ("cdcl", "frontend.queue"). */
const char *spanName(SpanKind kind);

/**
 * In-memory span recorder. Spans nest on one thread: open() pushes,
 * close() pops, and every span remembers its parent and the solve
 * (request) it belongs to. Nothing is written until dump().
 */
class Tracer
{
  public:
    using Clock = std::chrono::steady_clock;

    struct Span
    {
        SpanKind kind;
        std::int32_t parent; ///< index, -1 for a root
        std::uint32_t request;
        std::int64_t start_ns;
        std::int64_t end_ns;
    };

    /** RAII span; a null tracer records nothing. */
    class Scope
    {
      public:
        Scope(Tracer *tracer, SpanKind kind)
            : tracer_(tracer), index_(tracer ? tracer->open(kind) : -1)
        {
        }
        ~Scope()
        {
            if (tracer_)
                tracer_->close(index_);
        }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Tracer *tracer_;
        int index_;
    };

    /** Start a new request: later roots carry its id. */
    void beginRequest() { ++request_; }

    int open(SpanKind kind);
    void close(int index);

    /**
     * Self time of every span kind, summed over all spans: a span's
     * duration minus the durations of its direct children, in ns.
     */
    std::array<std::int64_t, static_cast<int>(SpanKind::Count)>
    selfNs() const;

    /** Summed duration of root spans (the traced wall), in ns. */
    std::int64_t rootNs() const;

    /** Write every span as one JSON line. */
    void dump(const std::string &path, const std::string &env_json) const;

  private:
    std::vector<Span> spans_;
    std::vector<int> stack_;
    std::uint32_t request_ = 0;
    Clock::time_point epoch_ = Clock::now();
};

/** Counts the traced loop collects at the layer boundaries. */
struct LoopCounts
{
    std::uint64_t queued_clauses = 0;
    std::uint64_t embedded_clauses = 0;
    std::uint64_t cache_hits = 0;
    std::uint64_t cache_misses = 0;
    std::uint64_t samples = 0;
    std::uint64_t chain_breaks = 0;
    std::uint64_t flips_attempted = 0;
    std::uint64_t flips_accepted = 0;
    std::uint64_t propagations = 0;
    std::uint64_t simplify_clauses_in = 0;
    std::uint64_t simplify_clauses_out = 0;

    void add(const LoopCounts &o);
};

/** Outcome of one traced solve, comparable with HybridResult. */
struct LoopOutcome
{
    sat::lbool status = sat::l_Undef;
    std::vector<bool> model;
    std::uint64_t iterations = 0;
    std::uint64_t conflicts = 0;
    int qa_samples = 0;
    std::array<std::uint64_t, 5> strategy_count{};
    LoopCounts counts;
};

/**
 * Re-run HybridSolver::solve's synchronous depth-1 loop from public
 * calls, recording a span around each call. @p graph must be the
 * topology of a HybridSolver built from @p config.
 */
LoopOutcome tracedSolve(const core::HybridConfig &config,
                        const chimera::ChimeraGraph &graph,
                        const sat::Cnf &formula, Tracer &tracer);

/**
 * Empty string when @p traced reproduces @p reference on status,
 * iterations, conflicts, QA samples and per-strategy counts;
 * otherwise a description of the first difference.
 */
std::string compareLoops(const LoopOutcome &traced,
                         const core::HybridResult &reference);

/** Linear-interpolated percentile (@p p in [0, 100]) of @p v. */
double percentile(std::vector<double> v, double p);

/**
 * The highest of the fixed tail percentiles (50 ... 99.9) with at
 * least ten samples beyond it among @p n samples; 50 when none.
 */
double tailPercentile(std::size_t n);

/** Metric values and everything else one run reports. */
struct Report
{
    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::string error; ///< first gate failure, when !correct

    /** name -> (value, unit), in emission order. */
    std::vector<std::pair<std::string, std::pair<double, std::string>>>
        metrics;

    /** Extra key -> JSON value pairs for the environment stamp. */
    std::map<std::string, std::string> env;

    void metric(const std::string &name, double value,
                const std::string &unit)
    {
        metrics.push_back({name, {value, unit}});
    }

    /** Record a gate failure (keeps the first message). */
    void fail(const std::string &why)
    {
        if (correct)
            error = why;
        correct = false;
    }
};

/** Parameters of one run, straight from the command line. */
struct RunSpec
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;

    /** Instances generated per run; 0 = the workload's default. */
    int pool = 0;

    /** Directory the traced run writes its span file into. */
    std::string out_dir = ".";

    /**
     * Flip the first instance's reference status (self-test of the
     * correctness gate: the run must then fail).
     */
    bool corrupt_reference = false;
};

/** The workloads, by name. */
const std::vector<std::string> &workloadNames();

/** Run one workload; the report carries metrics and gate state. */
Report runWorkload(const RunSpec &spec);

/** Peak resident set size of this process, in MB. */
double peakRssMb();

/** Environment stamp entries shared by every workload. */
void stampEnvironment(const RunSpec &spec, Report &report);

/** Render the environment stamp as a JSON object. */
std::string envJson(const Report &report);

} // namespace hyqsat::perfbench

#endif // HYQSAT_PERFBENCH_BENCH_H
