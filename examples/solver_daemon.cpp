/**
 * @file
 * Example: the persistent solver daemon. Binds the service socket
 * front door (unix-domain or loopback TCP) to a multi-tenant
 * JobScheduler and runs until asked to stop — the long-running
 * counterpart of the one-shot batch_solver. Run it without
 * arguments for the flag list.
 *
 * The solver knobs (core/options.h) set the default config of every
 * job and session; a client's SUBMIT may override the job-scope ones
 * per job with `key=value` tokens (OPEN the session-scope ones), and
 * every report row echoes the effective values. Clients speak the
 * line protocol of service/protocol.h; the bundled service_client is
 * one such client, netcat is another. --jobs bounds concurrent jobs,
 * --workers the solver threads raced per job; --queue-depth /
 * --tenant-depth and --sessions / --tenant-sessions cap queued jobs
 * and open sessions (0 = unbounded).
 *
 * Shutdown — via SIGINT/SIGTERM or a client's SHUTDOWN command —
 * drains gracefully: the scheduler stops accepting (submits answer
 * `REJECTED draining`), queued work is finished or cancelled per
 * --drain (SHUTDOWN's argument overrides), blocked WAITs resolve,
 * the metrics snapshot is written, and the process exits 0. A
 * second signal force-kills.
 */

#include <atomic>
#include <chrono>
#include <cstdio>
#include <limits>
#include <string>
#include <thread>

#include "core/options.h"
#include "service/protocol.h"
#include "service/scheduler.h"
#include "service/server.h"
#include "service/session_manager.h"
#include "service/signals.h"
#include "util/cli.h"
#include "util/metrics.h"

using namespace hyqsat;

int
main(int argc, char **argv)
{
    service::SchedulerOptions sopts;
    core::useNoiseFreeDevice(sopts.portfolio.base);
    service::ServerOptions server_opts;
    service::SessionManagerOptions session_opts;
    service::DrainPolicy signal_policy =
        service::DrainPolicy::FinishQueued;
    bool quiet = false;
    constexpr int kMaxInt = std::numeric_limits<int>::max();
    constexpr auto kMaxSize = std::numeric_limits<std::size_t>::max();

    CommandLine cli;
    cli.text("socket", "PATH", server_opts.unix_path);
    cli.number("port", server_opts.tcp_port, 0, 65535);
    cli.number("jobs", sopts.workers, 1, kMaxInt);
    cli.number("workers", sopts.portfolio.num_workers, 1, kMaxInt);
    cli.number("queue-depth", sopts.max_queue_depth, std::size_t{0},
               kMaxSize);
    cli.number("tenant-depth", sopts.max_tenant_depth, std::size_t{0},
               kMaxSize);
    cli.real("timeout-s", sopts.default_timeout_s);
    cli.number("conflicts", sopts.portfolio.conflict_budget,
               std::int64_t{-1},
               std::numeric_limits<std::int64_t>::max());
    cli.number("memory-mb", sopts.memory_budget_mb, std::size_t{0},
               kMaxSize);
    cli.number("sessions", session_opts.max_sessions, std::size_t{0},
               kMaxSize);
    cli.number("tenant-sessions", session_opts.max_per_tenant,
               std::size_t{0}, kMaxSize);
    core::addKnobFlags(cli, sopts.portfolio.base, core::Knob::Scope::Cli);
    cli.add("drain", "finish|cancel", [&](std::string_view word) {
        const auto policy = service::parseDrainPolicy(word);
        signal_policy = policy.value_or(signal_policy);
        return policy.has_value();
    });
    MetricsFiles files(cli);
    cli.toggle("quiet", quiet);
    if (!cli.parse(argc, argv))
        return 2;
    if (server_opts.unix_path.empty() && server_opts.tcp_port < 0) {
        std::printf("%s\n", cli.usage(argv[0]).c_str());
        return 2;
    }

    // One registry for the daemon's lifetime: per-tenant service.*
    // counters accumulate here and back the METRICS command.
    MetricsRegistry registry;
    if (!files.open(registry))
        return 2;
    sopts.metrics = &registry;

    // Signals and the SHUTDOWN verb converge on one StopToken; the
    // scheduler's own watcher sees it too (external_stop) so drain
    // starts even before the main loop wakes.
    static StopToken stop;
    std::atomic<service::DrainPolicy> policy{signal_policy};
    service::installStopSignalHandlers(stop);
    sopts.external_stop = &stop;
    sopts.external_stop_policy = signal_policy;

    service::JobScheduler scheduler(sopts);
    // Sessions reuse the portfolio's base solver configuration (so
    // --sampler/--depth/--simplify/--noisy shape them too) and the
    // daemon registry for the service-level session.* counters.
    session_opts.hybrid = sopts.portfolio.base;
    session_opts.metrics = &registry;
    service::SessionManager sessions(session_opts);
    service::Server server(server_opts, scheduler, &registry);
    server.attachSessions(&sessions);
    server.onShutdown([&](service::DrainPolicy p) {
        // Runs on a connection thread: record the policy and trip
        // the token; the main loop below does the actual teardown
        // (stopping the server from here would deadlock).
        policy.store(p, std::memory_order_relaxed);
        stop.requestStop();
    });
    const auto address = [&](int port) {
        return server_opts.unix_path.empty()
                   ? "127.0.0.1:" + std::to_string(port)
                   : server_opts.unix_path;
    };
    if (!server.start()) {
        std::fprintf(stderr, "cannot bind %s\n",
                     address(server_opts.tcp_port).c_str());
        return 2;
    }
    if (!quiet) {
        std::printf("solver_daemon listening on %s (%d jobs x %d "
                    "workers)\n",
                    address(server.port()).c_str(), sopts.workers,
                    sopts.portfolio.num_workers);
        std::fflush(stdout);
    }

    while (!stop.stopRequested())
        std::this_thread::sleep_for(std::chrono::milliseconds(50));

    // Drain order matters: quiesce the scheduler first so blocked
    // WAITs answer, then tear down the socket threads.
    const service::DrainPolicy final_policy =
        policy.load(std::memory_order_relaxed);
    if (!quiet)
        std::printf("draining (%s)...\n",
                    final_policy == service::DrainPolicy::CancelPending
                        ? "cancel"
                        : "finish");
    scheduler.shutdown(final_policy);
    server.stop();
    service::uninstallStopSignalHandlers();

    files.write(registry, !quiet);
    if (!quiet)
        std::printf("solver_daemon: clean shutdown\n");
    return 0;
}
