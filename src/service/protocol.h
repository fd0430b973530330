/**
 * @file
 * Line protocol of the solver service's socket front door. Plain
 * text, one request/response line at a time, so any client — the
 * bundled service_client, netcat, a CI script — can drive the
 * daemon without a serialization library.
 *
 * Client -> server:
 *   SUBMIT <tenant> <priority> <name> [key=value...]
 *                    then DIMACS lines, then END; the optional
 *                    tokens override the daemon's solver knobs for
 *                    this job (the job-scope entries of the knob
 *                    table, core/options.h)
 *   WAIT <id>        block until the job finishes
 *   STATUS <id>      non-blocking state probe
 *   METRICS          /metrics-style text snapshot
 *   PING             liveness probe
 *   SHUTDOWN [finish|cancel]   drain the daemon (default finish)
 *   QUIT             close this connection
 *
 * Incremental sessions (IPASIR-style, core::Session behind each id):
 *   OPEN <tenant> [key=value]   open a session (session-scope knobs)
 *   ADD <sid>        then DIMACS clause lines, then END
 *   ASSUME <sid> <lit...>   assumptions (DIMACS ints) for next SOLVE
 *   SOLVE <sid>      solve under the pending assumptions (inline)
 *   CORE <sid>       failed assumptions of the last UNSAT solve
 *   CLOSE <sid>      release the session
 *
 * Server -> client:
 *   OK <id>                        submit accepted / session verb ok
 *   REJECTED <reason>              admission control said no
 *   RESULT <id> <status> <wall_s> <vars> <clauses> <conflicts> <winner>
 *   STATE <id> QUEUED|RUNNING|DONE [<status>]
 *   CORE <sid> [<lit...>]          DIMACS ints (empty = formula UNSAT)
 *   METRICS                        then `name value` lines, then END
 *   PONG / BYE / ERR <message>
 *
 * This header is the single definition of both directions: the
 * server parses requests and formats responses with it, the client
 * does the reverse, and the protocol tests round-trip it.
 */

#ifndef HYQSAT_SERVICE_PROTOCOL_H
#define HYQSAT_SERVICE_PROTOCOL_H

#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "service/job.h"
#include "service/report.h"

namespace hyqsat::service {

/** Terminator line of a SUBMIT body and of a METRICS snapshot. */
inline constexpr std::string_view kEndMarker = "END";

/** Wire bound on ASSUME and ADD literals: negating one never overflows. */
inline constexpr int kMaxLiteral = std::numeric_limits<int>::max();

/** Request verbs the server understands. */
enum class Verb {
    Submit,
    Wait,
    Status,
    Metrics,
    Ping,
    Shutdown,
    Quit,
    Open,
    Add,
    Assume,
    Solve,
    Core,
    Close,
    Invalid,
};

/** One parsed request line. */
struct Request
{
    Verb verb = Verb::Invalid;
    std::string error; ///< parse diagnostic when verb == Invalid

    // SUBMIT / OPEN fields (a SUBMIT DIMACS body follows on later
    // lines).
    std::string tenant;
    int priority = 0;
    std::string name;
    core::KnobValues overrides; ///< validated key=value knob tokens

    // WAIT / STATUS / session-verb id field.
    JobId id = 0;

    // ASSUME literals (DIMACS ints, never 0, |lit| <= kMaxLiteral).
    std::vector<int> lits;

    // SHUTDOWN field.
    DrainPolicy drain_policy = DrainPolicy::FinishQueued;
};

/** Split @p line on runs of spaces/tabs (no empty tokens). */
std::vector<std::string_view> splitTokens(std::string_view line);

/** Parse one request line (never throws; Invalid carries why). */
Request parseRequest(std::string_view line);

/** "finish" / "cancel" (SHUTDOWN, --drain) -> the policy. */
std::optional<DrainPolicy> parseDrainPolicy(std::string_view word);

/** `OK <id>` or `REJECTED <reason>` for a submission verdict. */
std::string formatSubmission(const Submission &sub);

/** `RESULT <id> <status> <wall_s> <vars> <clauses> <conflicts> <winner>`. */
std::string formatResult(JobId id, const InstanceRecord &rec);

/** `STATE <id> QUEUED|RUNNING|DONE [<status>]`. */
std::string formatState(JobId id, JobState state,
                        const std::string &status);

/**
 * Parse a RESULT line back into (id, record) — the client half.
 * Only the fields the protocol carries are populated.
 */
std::optional<std::pair<JobId, InstanceRecord>>
parseResult(std::string_view line);

/** `CORE <sid> [<lit...>]` over DIMACS ints. */
std::string formatCore(JobId sid, const std::vector<int> &lits);

/** Parse a CORE line back into (sid, lits) — the client half. */
std::optional<std::pair<JobId, std::vector<int>>>
parseCore(std::string_view line);

} // namespace hyqsat::service

#endif // HYQSAT_SERVICE_PROTOCOL_H
