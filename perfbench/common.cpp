#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>
#include <thread>

#include "anneal/work_pool.h"
#include "bench.h"
#include "util/logging.h"
#include "util/metrics.h"
#include "util/simd.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace hyqsat::perfbench {

Verdict
judge(const Instance &inst, sat::lbool status,
      const std::vector<bool> *model, std::string *why)
{
    if (status.isUndef())
        return Verdict::Failed;
    if (status.isTrue() != inst.reference_sat) {
        *why = inst.name + ": answered " +
               (status.isTrue() ? "SAT" : "UNSAT") +
               " but the classic-CDCL reference is " +
               (inst.reference_sat ? "SAT" : "UNSAT");
        return Verdict::Wrong;
    }
    if (status.isTrue() && model && !inst.cnf.eval(*model)) {
        *why = inst.name + ": SAT model violates the original formula";
        return Verdict::Wrong;
    }
    return Verdict::Verified;
}

const char *
spanName(SpanKind kind)
{
    switch (kind) {
    case SpanKind::Solve:
        return "hybrid.solve";
    case SpanKind::Simplify:
        return "simplify";
    case SpanKind::SamplerSetup:
        return "anneal.setup";
    case SpanKind::CdclLoad:
        return "cdcl.load";
    case SpanKind::Cdcl:
        return "cdcl";
    case SpanKind::Iteration:
        return "hybrid.iteration";
    case SpanKind::Frontend:
        return "frontend";
    case SpanKind::Queue:
        return "frontend.queue";
    case SpanKind::Cache:
        return "frontend.cache";
    case SpanKind::Embed:
        return "frontend.embed";
    case SpanKind::Anneal:
        return "anneal";
    case SpanKind::Backend:
        return "backend";
    case SpanKind::Extend:
        return "simplify.extend";
    case SpanKind::Job:
        return "service.job";
    case SpanKind::Count:
        break;
    }
    return "?";
}

int
Tracer::open(SpanKind kind)
{
    const int index = static_cast<int>(spans_.size());
    const std::int64_t now =
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            Clock::now() - epoch_)
            .count();
    spans_.push_back(Span{kind,
                          stack_.empty() ? -1 : stack_.back(),
                          request_, now, now});
    stack_.push_back(index);
    return index;
}

void
Tracer::close(int index)
{
    if (stack_.empty() || stack_.back() != index)
        panic("perfbench: span closed out of order");
    stack_.pop_back();
    spans_[static_cast<std::size_t>(index)].end_ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            Clock::now() - epoch_)
            .count();
}

std::array<std::int64_t, static_cast<int>(SpanKind::Count)>
Tracer::selfNs() const
{
    std::array<std::int64_t, static_cast<int>(SpanKind::Count)> self{};
    for (const Span &s : spans_) {
        const std::int64_t d = s.end_ns - s.start_ns;
        self[static_cast<int>(s.kind)] += d;
        if (s.parent >= 0) {
            const Span &p = spans_[static_cast<std::size_t>(s.parent)];
            self[static_cast<int>(p.kind)] -= d;
        }
    }
    return self;
}

std::int64_t
Tracer::rootNs() const
{
    std::int64_t total = 0;
    for (const Span &s : spans_)
        if (s.parent < 0)
            total += s.end_ns - s.start_ns;
    return total;
}

void
Tracer::dump(const std::string &path, const std::string &env_json) const
{
    std::ofstream out(path);
    if (!out)
        return;
    out << "{\"env\":" << env_json << "}\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        out << "{\"id\":" << i << ",\"parent\":" << s.parent
            << ",\"request\":" << s.request << ",\"span\":\""
            << spanName(s.kind) << "\",\"start_ns\":" << s.start_ns
            << ",\"end_ns\":" << s.end_ns << "}\n";
    }
}

void
LoopCounts::add(const LoopCounts &o)
{
    queued_clauses += o.queued_clauses;
    embedded_clauses += o.embedded_clauses;
    cache_hits += o.cache_hits;
    cache_misses += o.cache_misses;
    samples += o.samples;
    chain_breaks += o.chain_breaks;
    flips_attempted += o.flips_attempted;
    flips_accepted += o.flips_accepted;
    propagations += o.propagations;
    simplify_clauses_in += o.simplify_clauses_in;
    simplify_clauses_out += o.simplify_clauses_out;
}

std::string
compareLoops(const LoopOutcome &t, const core::HybridResult &r)
{
    std::ostringstream why;
    if (t.status != r.status)
        why << "status differs";
    else if (t.iterations != r.stats.iterations)
        why << "iterations " << t.iterations << " vs " << r.stats.iterations;
    else if (t.conflicts != r.stats.conflicts)
        why << "conflicts " << t.conflicts << " vs " << r.stats.conflicts;
    else if (t.qa_samples != r.qa_samples)
        why << "qa_samples " << t.qa_samples << " vs " << r.qa_samples;
    else if (t.strategy_count != r.strategy_count)
        why << "per-strategy counts differ";
    return why.str();
}

double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = p / 100.0 * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double
tailPercentile(std::size_t n)
{
    for (const double p : {99.9, 99.0, 95.0, 90.0, 75.0}) {
        if (static_cast<double>(n) * (100.0 - p) / 100.0 >= 10.0 - 1e-9)
            return p;
    }
    return 50.0;
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

namespace {

std::string
quoted(const char *s)
{
    std::string out(1, '"');
    out += jsonEscape(s ? s : "");
    out += '"';
    return out;
}

} // namespace

void
stampEnvironment(const RunSpec &spec, Report &report)
{
    report.env["workload"] = quoted(spec.workload.c_str());
    report.env["seed"] = std::to_string(spec.seed);
    report.env["seconds"] = jsonNumber(spec.seconds);
    report.env["trace"] = std::to_string(spec.trace ? 1 : 0);
    report.env["nproc"] =
        std::to_string(std::thread::hardware_concurrency());
    report.env["lockstep_isa"] =
        quoted(simd::isaName(simd::activeIsa()));
    report.env["build_type"] = quoted(PERFBENCH_BUILD_TYPE);
    report.env["HYQSAT_POOL_THREADS"] =
        quoted(std::getenv("HYQSAT_POOL_THREADS"));
    report.env["HYQSAT_SIMD"] = quoted(std::getenv("HYQSAT_SIMD"));
    report.env["work_pool_threads"] =
        std::to_string(anneal::WorkPool::shared().numThreads());
}

std::string
envJson(const Report &report)
{
    std::string out = "{";
    for (const auto &[key, value] : report.env) {
        if (out.size() > 1)
            out += ",";
        out += '"';
        out += jsonEscape(key);
        out += "\":";
        out += value;
    }
    return out + "}";
}

} // namespace hyqsat::perfbench
