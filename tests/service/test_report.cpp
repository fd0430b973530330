/**
 * @file
 * Report-format goldens: a fixed InstanceRecord must produce exactly
 * these JSON and CSV lines, so the knob-table-driven echo columns
 * (simplify, topology) and their defaults
 * for a record that never got a config stay byte-stable for
 * downstream parsers.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "core/options.h"
#include "service/report.h"

namespace hyqsat::service {
namespace {

BatchReport
goldenReport()
{
    core::HybridConfig cfg;
    core::applyKnobs({{"simplify", "full"}, {"topology", "zephyr"}}, cfg);

    InstanceRecord solved;
    solved.name = "gc1-0";
    solved.path = "suite/gc1-0.cnf";
    solved.status = "SAT";
    solved.winner = "reads";
    solved.knobs = core::echoKnobs(cfg);
    solved.wall_s = 0.25;
    solved.vars = 150;
    solved.clauses = 645;
    solved.iterations = 12;
    solved.conflicts = 34;
    solved.restarts = 2;
    solved.propagations = 5678;
    solved.qa_samples = 7;
    solved.frontend_s = 0.125;
    solved.qa_device_s = 0.0005;
    solved.qa_blocking_s = 0.00025;
    solved.backend_s = 0.0625;
    solved.cdcl_s = 1.5;
    solved.metrics = {{"solver.conflicts", 34}, {"portfolio.wall_s", 0.25}};

    // Cancelled while queued: no config was ever built for it.
    InstanceRecord queued;
    queued.name = "queued";
    queued.status = "CANCELLED";

    BatchReport report;
    report.records = {solved, queued};
    tallyRecord(report, solved);
    tallyRecord(report, queued);
    report.wall_s = 0.5;
    return report;
}

TEST(ServiceReport, JsonGolden)
{
    std::ostringstream out;
    writeJsonReport(goldenReport(), out);
    EXPECT_EQ(
        out.str(),
        "{\n"
        "  \"summary\": {\"instances\": 2, \"sat\": 1, \"unsat\": 0, "
        "\"unknown\": 1, \"timeouts\": 0, \"skipped\": 0, \"errors\": 0, "
        "\"wall_s\": 0.5},\n"
        "  \"instances\": [\n"
        "    {\"name\": \"gc1-0\", \"path\": \"suite/gc1-0.cnf\", "
        "\"status\": \"SAT\", \"winner\": \"reads\", "
        "\"simplify\": \"full\", \"topology\": \"zephyr\", "
        "\"wall_s\": 0.25, "
        "\"vars\": 150, \"clauses\": 645, \"iterations\": 12, "
        "\"conflicts\": 34, \"restarts\": 2, \"propagations\": 5678, "
        "\"qa_samples\": 7, \"time\": {\"frontend_s\": 0.125, "
        "\"qa_device_s\": 0.0005, \"qa_blocking_s\": 0.00025, "
        "\"backend_s\": 0.0625, \"cdcl_s\": 1.5}, \"metrics\": "
        "{\"solver.conflicts\": 34, \"portfolio.wall_s\": 0.25}},\n"
        "    {\"name\": \"queued\", \"path\": \"\", \"status\": "
        "\"CANCELLED\", \"winner\": \"\", \"simplify\": \"\", "
        "\"topology\": \"\", "
        "\"wall_s\": 0, \"vars\": 0, \"clauses\": 0, \"iterations\": 0, "
        "\"conflicts\": 0, \"restarts\": 0, \"propagations\": 0, "
        "\"qa_samples\": 0, \"time\": {\"frontend_s\": 0, "
        "\"qa_device_s\": 0, \"qa_blocking_s\": 0, \"backend_s\": 0, "
        "\"cdcl_s\": 0}, \"metrics\": {}}\n"
        "  ]\n"
        "}\n");
}

TEST(ServiceReport, CsvGolden)
{
    std::ostringstream out;
    writeCsvReport(goldenReport(), out);
    EXPECT_EQ(out.str(),
              "name,path,status,winner,simplify,topology,"
              "wall_s,vars,clauses,iterations,conflicts,"
              "restarts,propagations,qa_samples,frontend_s,qa_device_s,"
              "qa_blocking_s,backend_s,cdcl_s\n"
              "gc1-0,suite/gc1-0.cnf,SAT,reads,full,zephyr,"
              "0.25,150,645,12,34,2,5678,7,0.125,0.0005,0.00025,0.0625,"
              "1.5\n"
              "queued,,CANCELLED,,,,0,0,0,0,0,0,0,0,0,0,0,0,0\n");
}

} // namespace
} // namespace hyqsat::service
