/**
 * @file
 * Example: the batch DIMACS service front door. Streams many CNF
 * instances through portfolio workers on a thread pool and writes a
 * structured report — the CLI face of portfolio::BatchRunner. Run it
 * without arguments for the flag list; the solver knobs set every
 * worker's base config (core/options.h) and the JSON/CSV reports
 * echo the job-scope ones per instance.
 *
 * Instances come from operand paths, every *.cnf or *.dimacs file under
 * --dir, and/or a manifest (one path per line; "-" = stdin), in
 * command-line order. Exit status: 0 on success, 2 on bad usage;
 * with --strict, 1 if any instance ended UNKNOWN / TIMEOUT /
 * SKIPPED / PARSE_ERROR (the CI smoke gate).
 *
 * SIGINT/SIGTERM drain gracefully: in-flight instances are
 * cancelled through the StopToken machinery and the report is still
 * written (interrupted instances show UNKNOWN). A second signal
 * force-kills.
 */

#include <cstdio>
#include <fstream>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include "core/options.h"
#include "portfolio/batch_runner.h"
#include "service/signals.h"
#include "util/cli.h"
#include "util/metrics.h"

using namespace hyqsat;

int
main(int argc, char **argv)
{
    std::vector<std::string> paths;
    const auto append = [&paths](std::vector<std::string> more) {
        for (std::string &p : more)
            paths.push_back(std::move(p));
    };
    portfolio::BatchOptions opts;
    core::useNoiseFreeDevice(opts.portfolio.base);
    std::string json_path, csv_path;
    bool no_share = false, strict = false, quiet = false;
    constexpr int kMaxInt = std::numeric_limits<int>::max();

    CommandLine cli("[files...]", [&](std::string_view path) {
        paths.emplace_back(path);
        return true;
    });
    cli.add("dir", "D", [&](std::string_view dir) {
        append(service::collectCnfFiles(std::string(dir)));
        return true;
    });
    cli.add("manifest", "F|-", [&](std::string_view src) {
        if (src == "-") {
            append(service::readManifest(std::cin));
            return true;
        }
        std::ifstream in{std::string(src)};
        if (!in) {
            std::fprintf(stderr, "cannot open manifest %s\n",
                         std::string(src).c_str());
            return false;
        }
        append(service::readManifest(in));
        return true;
    });
    cli.number("workers", opts.portfolio.num_workers, 1, kMaxInt);
    cli.number("jobs", opts.concurrency, 1, kMaxInt);
    cli.real("timeout-s", opts.instance_timeout_s);
    cli.number("conflicts", opts.portfolio.conflict_budget,
               std::int64_t{-1},
               std::numeric_limits<std::int64_t>::max());
    cli.number("memory-mb", opts.memory_budget_mb, std::size_t{0},
               std::numeric_limits<std::size_t>::max());
    core::addKnobFlags(cli, opts.portfolio.base, core::Knob::Scope::Cli);
    cli.toggle("no-share", no_share);
    cli.text("json", "FILE", json_path);
    cli.text("csv", "FILE", csv_path);
    MetricsFiles files(cli);
    cli.toggle("strict", strict);
    cli.toggle("quiet", quiet);
    if (!cli.parse(argc, argv))
        return 2;
    if (paths.empty()) {
        std::printf("%s\n", cli.usage(argv[0]).c_str());
        return 2;
    }
    opts.portfolio.share_clauses = !no_share;

    // Whole-batch registry: every instance's private registry is
    // merged into it by the runner; the trace sink streams live.
    MetricsRegistry registry;
    if (!files.open(registry))
        return 2;
    if (files.requested())
        opts.metrics = &registry;

    // Graceful drain on SIGINT/SIGTERM: the token cancels queued and
    // in-flight instances cooperatively, and the report/metrics
    // files below are still flushed.
    static StopToken stop;
    service::installStopSignalHandlers(stop);
    opts.external_stop = &stop;

    portfolio::BatchRunner runner(opts);
    const portfolio::BatchReport report = runner.run(paths);

    if (stop.stopRequested() && !quiet)
        std::fprintf(stderr,
                     "interrupted: drained batch, writing report\n");

    if (!quiet) {
        std::printf("%-24s %-10s %-12s %9s %8s %10s\n", "instance",
                    "status", "winner", "wall_s", "vars",
                    "conflicts");
        for (const auto &r : report.records) {
            std::printf("%-24s %-10s %-12s %9.3f %8d %10llu\n",
                        r.name.c_str(), r.status.c_str(),
                        r.winner.c_str(), r.wall_s, r.vars,
                        static_cast<unsigned long long>(r.conflicts));
        }
        std::printf("\n%zu instances in %.2f s: %d SAT, %d UNSAT, "
                    "%d unknown, %d timeouts, %d skipped, %d errors\n",
                    report.records.size(), report.wall_s, report.sat,
                    report.unsat, report.unknown, report.timeouts,
                    report.skipped, report.errors);
    }

    const auto save = [&](const std::string &path, auto write) {
        if (path.empty())
            return;
        std::ofstream out(path);
        write(report, out);
        if (!quiet)
            std::printf("wrote %s\n", path.c_str());
    };
    save(json_path, service::writeJsonReport);
    save(csv_path, service::writeCsvReport);
    files.write(registry, !quiet);

    if (strict && !report.allDecided())
        return 1;
    return 0;
}
