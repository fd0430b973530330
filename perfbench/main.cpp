/**
 * @file
 * Command-line front end of the repository benchmark.
 *
 *   hyqsat_perfbench --workload <name> --seed <n> --seconds <s>
 *                    --trace <0|1> [--pool <n>] [--out-dir <dir>]
 *   hyqsat_perfbench --self-test
 *
 * Prints an environment stamp line, then, as the last line of
 * standard output, one JSON object with the keys correct, attempted,
 * failed and metrics. --trace 0 reports the end-to-end metrics;
 * --trace 1 re-runs the hybrid loop with spans around every layer
 * call and reports the per-layer metrics instead. Exit code 0 on a
 * correct run, 3 when the correctness or fidelity gate tripped, 2 on
 * a usage error.
 */

#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench.h"
#include "util/metrics.h"

using namespace hyqsat;
using namespace hyqsat::perfbench;

namespace {

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "hyqsat_perfbench: %s\n"
                 "usage: hyqsat_perfbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--pool <n>] "
                 "[--out-dir <dir>] [--corrupt-reference]\n"
                 "       hyqsat_perfbench --self-test\n",
                 why);
    std::exit(2);
}

void
printReport(const Report &report)
{
    std::string error;
    if (!report.correct) {
        error = ",\"error\":\"";
        error += jsonEscape(report.error);
        error += '"';
    }
    std::printf("{\"env\":%s%s}\n", envJson(report).c_str(), error.c_str());
    std::string metrics;
    for (const auto &[name, vu] : report.metrics) {
        if (!metrics.empty())
            metrics += ",";
        metrics += '"';
        metrics += jsonEscape(name);
        metrics += "\":{\"value\":";
        metrics += jsonNumber(vu.first, 17);
        metrics += ",\"unit\":\"";
        metrics += jsonEscape(vu.second);
        metrics += "\"}";
    }
    std::printf("{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,"
                "\"metrics\":{%s}}\n",
                report.correct ? "true" : "false",
                static_cast<unsigned long long>(report.attempted),
                static_cast<unsigned long long>(report.failed),
                metrics.c_str());
    std::fflush(stdout);
}

/**
 * Unit checks of the benchmark's own machinery: the correctness gate
 * must reject a hand-built wrong model and a status that contradicts
 * the reference, and span self times must add up to the root.
 */
int
selfTest()
{
    int failures = 0;
    auto expect = [&](bool ok, const char *what) {
        std::printf("%s %s\n", ok ? "ok  " : "FAIL", what);
        failures += ok ? 0 : 1;
    };

    // (x1 | x2) & (~x1 | x2): satisfiable, x2 must be true.
    Instance inst;
    inst.name = "hand-built";
    inst.cnf = sat::Cnf(2);
    inst.cnf.addClause(sat::mkLit(0), sat::mkLit(1));
    inst.cnf.addClause(~sat::mkLit(0), sat::mkLit(1));
    inst.reference_sat = true;
    std::string why;
    const std::vector<bool> good = {false, true};
    const std::vector<bool> bad = {true, false};
    expect(judge(inst, sat::l_True, &good, &why) == Verdict::Verified,
           "a model that satisfies the formula is verified");
    expect(judge(inst, sat::l_True, &bad, &why) == Verdict::Wrong,
           "a wrong SAT model trips the gate");
    expect(judge(inst, sat::l_False, nullptr, &why) == Verdict::Wrong,
           "UNSAT against a SAT reference trips the gate");
    inst.reference_sat = false;
    expect(judge(inst, sat::l_True, &good, &why) == Verdict::Wrong,
           "SAT against an UNSAT reference trips the gate");
    expect(judge(inst, sat::l_False, nullptr, &why) == Verdict::Verified,
           "UNSAT matching the reference is verified");
    expect(judge(inst, sat::l_Undef, nullptr, &why) == Verdict::Failed,
           "no answer counts as failed, not wrong");

    Tracer tracer;
    {
        const Tracer::Scope root(&tracer, SpanKind::Solve);
        for (int i = 0; i < 3; ++i) {
            const Tracer::Scope outer(&tracer, SpanKind::Cdcl);
            const Tracer::Scope inner(&tracer, SpanKind::Anneal);
        }
    }
    std::int64_t sum = 0;
    bool nonnegative = true;
    for (const std::int64_t s : tracer.selfNs()) {
        sum += s;
        nonnegative = nonnegative && s >= 0;
    }
    expect(nonnegative && sum == tracer.rootNs(),
           "span self times sum to the root span");

    expect(tailPercentile(1000) == 99.0 && tailPercentile(100) == 90.0 &&
               tailPercentile(12) == 50.0,
           "tail percentile keeps ten samples beyond it");
    expect(percentile({1.0, 2.0, 3.0, 4.0}, 50.0) == 2.5,
           "percentile interpolates");
    return failures == 0 ? 0 : 3;
}

} // namespace

int
main(int argc, char **argv)
{
    RunSpec spec;
    bool have_workload = false, have_seed = false, have_seconds = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--self-test")
            return selfTest();
        if (arg == "--corrupt-reference") {
            spec.corrupt_reference = true;
            continue;
        }
        if (i + 1 >= argc)
            usage(("missing value for " + arg).c_str());
        const std::string value = argv[++i];
        char *end = nullptr;
        if (arg == "--workload") {
            spec.workload = value;
            have_workload = true;
        } else if (arg == "--seed") {
            spec.seed = std::strtoull(value.c_str(), &end, 10);
            have_seed = *end == '\0' && !value.empty();
        } else if (arg == "--seconds") {
            spec.seconds = std::strtod(value.c_str(), &end);
            have_seconds = *end == '\0' && spec.seconds > 0.0;
        } else if (arg == "--trace") {
            if (value != "0" && value != "1")
                usage("--trace takes 0 or 1");
            spec.trace = value == "1";
        } else if (arg == "--pool") {
            spec.pool = std::atoi(value.c_str());
        } else if (arg == "--out-dir") {
            spec.out_dir = value;
        } else {
            usage(("unknown option " + arg).c_str());
        }
    }
    if (!have_workload || !have_seed || !have_seconds)
        usage("--workload, --seed and --seconds are required");
    bool known = false;
    for (const std::string &w : workloadNames())
        known = known || w == spec.workload;
    if (!known)
        usage(("unknown workload " + spec.workload).c_str());

    const Report report = runWorkload(spec);
    printReport(report);
    return report.correct ? 0 : 3;
}
