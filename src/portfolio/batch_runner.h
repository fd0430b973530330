/**
 * @file
 * Batch DIMACS service: streams many instances (directory, file
 * list, or stdin manifest) through portfolio workers, with
 * per-instance timeout and memory budgets, structured per-instance
 * result records and JSON/CSV report output.
 *
 * Since the service-layer refactor this is a thin client of
 * service::JobScheduler: the runner submits every path as a job of
 * the "batch" tenant, waits for the records in input order, and
 * assembles the report with the shared writers in service/report.h.
 * The scheduling, budgeting, cancellation and metrics machinery all
 * live in src/service/ — shared with the persistent daemon.
 */

#ifndef HYQSAT_PORTFOLIO_BATCH_RUNNER_H
#define HYQSAT_PORTFOLIO_BATCH_RUNNER_H

#include <cstdint>
#include <string>
#include <vector>

#include "portfolio/portfolio.h"
#include "portfolio/work_queue.h"
#include "service/report.h"

namespace hyqsat::portfolio {

/** One instance's outcome (a row of the batch report). */
using InstanceRecord = service::InstanceRecord;

/** Whole-batch outcome. */
using BatchReport = service::BatchReport;

/** Batch-service options. */
struct BatchOptions
{
    /** Portfolio configuration applied per instance. */
    PortfolioOptions portfolio;

    /** Instances solved concurrently (pool threads). Each one runs
     *  portfolio.num_workers solver threads of its own. */
    int concurrency = 2;

    /** Per-instance wall-clock budget (seconds); 0 = unlimited.
     *  Overrides portfolio.timeout_s when set. */
    double instance_timeout_s = 0.0;

    /**
     * Per-instance memory budget in MB, enforced as an admission
     * guard on the parsed formula's estimated footprint (clause
     * arena + watches + per-worker duplication); 0 = unlimited.
     * Instances over budget are SKIPPED, not attempted — a soft
     * budget, but one that can never OOM the service.
     */
    std::size_t memory_budget_mb = 0;

    /** Caller-side cancellation for the whole batch (e.g. the
     *  SIGINT/SIGTERM token): stops accepting queued instances and
     *  cancels in-flight solves, leaving their records UNKNOWN. */
    const StopToken *external_stop = nullptr;

    /**
     * Observability: each instance solves against a private registry
     * (snapshotted into its InstanceRecord), then merges here — so
     * the file a CLI dumps holds whole-batch totals. Instance done
     * events stream to this registry's trace sink. nullptr records
     * nothing.
     */
    MetricsRegistry *metrics = nullptr;
};

/** The batch service: a one-shot client of service::JobScheduler. */
class BatchRunner
{
  public:
    explicit BatchRunner(BatchOptions opts);

    /**
     * Solve every path; records come back in input order. Inputs and
     * reports go through service/report.h (collectCnfFiles,
     * readManifest, writeJsonReport, writeCsvReport).
     */
    BatchReport run(const std::vector<std::string> &paths);

  private:
    BatchOptions opts_;
};

} // namespace hyqsat::portfolio

#endif // HYQSAT_PORTFOLIO_BATCH_RUNNER_H
