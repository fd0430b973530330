#include "service/protocol.h"

#include "util/metrics.h"
#include "util/parse.h"

namespace hyqsat::service {

namespace {

constexpr auto kSession = core::Knob::Scope::Session;
constexpr auto kJob = core::Knob::Scope::Job;

} // namespace

std::vector<std::string_view>
splitTokens(std::string_view line)
{
    std::vector<std::string_view> tokens;
    std::size_t pos = 0;
    while (pos < line.size()) {
        while (pos < line.size() &&
               (line[pos] == ' ' || line[pos] == '\t' ||
                line[pos] == '\r'))
            ++pos;
        std::size_t end = pos;
        while (end < line.size() && line[end] != ' ' &&
               line[end] != '\t' && line[end] != '\r')
            ++end;
        if (end > pos)
            tokens.push_back(line.substr(pos, end - pos));
        pos = end;
    }
    return tokens;
}

Request
parseRequest(std::string_view line)
{
    Request req;
    const auto tokens = splitTokens(line);
    if (tokens.empty()) {
        req.error = "empty request";
        return req;
    }
    const std::string_view verb = tokens[0];
    if (verb == "SUBMIT") {
        // SUBMIT <tenant> <priority> <name> [key=value...] — all
        // single tokens; the optional extras are job-scope knob
        // overrides in any order, no more of them than there are
        // such knobs (anything else stays Invalid).
        if (tokens.size() < 4 || tokens.size() > 4 + core::knobs(kJob).size()) {
            req.error = "usage: SUBMIT <tenant> <priority> <name> " +
                        core::knobSettingUsage(kJob);
            return req;
        }
        if (!parseNumber(tokens[2], req.priority)) {
            req.error = "bad priority";
            return req;
        }
        for (std::size_t i = 4; i < tokens.size(); ++i) {
            if (!core::parseKnobSetting(tokens[i], kJob, req.overrides)) {
                req.error = "bad option (expected " +
                            core::knobSettingUsage(kJob) +
                            "): " + std::string(tokens[i]);
                return req;
            }
        }
        req.verb = Verb::Submit;
        req.tenant = std::string(tokens[1]);
        req.name = std::string(tokens[3]);
        return req;
    }
    if (verb == "WAIT" || verb == "STATUS") {
        if (tokens.size() != 2 || !parseNumber(tokens[1], req.id)) {
            req.error = "usage: " + std::string(verb) + " <id>";
            return req;
        }
        req.verb = verb == "WAIT" ? Verb::Wait : Verb::Status;
        return req;
    }
    if (verb == "METRICS") {
        req.verb = Verb::Metrics;
        return req;
    }
    if (verb == "PING") {
        req.verb = Verb::Ping;
        return req;
    }
    if (verb == "SHUTDOWN") {
        const auto policy = tokens.size() == 2
                                ? parseDrainPolicy(tokens[1])
                                : DrainPolicy::FinishQueued;
        if (tokens.size() > 2 || !policy) {
            req.error = "usage: SHUTDOWN [finish|cancel]";
            return req;
        }
        req.verb = Verb::Shutdown;
        req.drain_policy = *policy;
        return req;
    }
    if (verb == "QUIT") {
        req.verb = Verb::Quit;
        return req;
    }
    if (verb == "OPEN") {
        // OPEN <tenant> [key=value] — one session-scope knob
        // override.
        if (tokens.size() != 2 && tokens.size() != 3) {
            req.error = "usage: OPEN <tenant> " +
                        core::knobSettingUsage(kSession);
            return req;
        }
        if (tokens.size() == 3 &&
            !core::parseKnobSetting(tokens[2], kSession, req.overrides)) {
            req.error = "bad option (expected " +
                        core::knobSettingUsage(kSession) +
                        "): " + std::string(tokens[2]);
            return req;
        }
        req.verb = Verb::Open;
        req.tenant = std::string(tokens[1]);
        return req;
    }
    if (verb == "ADD" || verb == "SOLVE" || verb == "CORE" ||
        verb == "CLOSE") {
        if (tokens.size() != 2 || !parseNumber(tokens[1], req.id)) {
            req.error = "usage: " + std::string(verb) + " <sid>";
            return req;
        }
        req.verb = verb == "ADD"     ? Verb::Add
                   : verb == "SOLVE" ? Verb::Solve
                   : verb == "CORE"  ? Verb::Core
                                     : Verb::Close;
        return req;
    }
    if (verb == "ASSUME") {
        if (tokens.size() < 2 || !parseNumber(tokens[1], req.id)) {
            req.error = "usage: ASSUME <sid> <lit...>";
            return req;
        }
        for (std::size_t i = 2; i < tokens.size(); ++i) {
            int lit = 0;
            if (!parseNumber(tokens[i], -kMaxLiteral, kMaxLiteral,
                             lit) ||
                lit == 0) {
                req.error =
                    "bad literal (nonzero DIMACS int expected): " +
                    std::string(tokens[i]);
                return req;
            }
            req.lits.push_back(lit);
        }
        req.verb = Verb::Assume;
        return req;
    }
    req.error = "unknown verb: " + std::string(verb);
    return req;
}

std::optional<DrainPolicy>
parseDrainPolicy(std::string_view word)
{
    if (word == "finish")
        return DrainPolicy::FinishQueued;
    if (word == "cancel")
        return DrainPolicy::CancelPending;
    return std::nullopt;
}

std::string
formatSubmission(const Submission &sub)
{
    if (sub.accepted)
        return "OK " + std::to_string(sub.id);
    return "REJECTED " + sub.reject_reason;
}

std::string
formatResult(JobId id, const InstanceRecord &rec)
{
    std::string out = "RESULT " + std::to_string(id) + ' ' +
                      rec.status + ' ' + jsonNumber(rec.wall_s) +
                      ' ' + std::to_string(rec.vars) + ' ' +
                      std::to_string(rec.clauses) + ' ' +
                      std::to_string(rec.conflicts) + ' ' +
                      (rec.winner.empty() ? "-" : rec.winner);
    return out;
}

std::string
formatState(JobId id, JobState state, const std::string &status)
{
    std::string out = "STATE " + std::to_string(id) + ' ';
    switch (state) {
    case JobState::Queued: out += "QUEUED"; break;
    case JobState::Running: out += "RUNNING"; break;
    case JobState::Done: out += "DONE"; break;
    }
    if (state == JobState::Done && !status.empty())
        out += ' ' + status;
    return out;
}

std::optional<std::pair<JobId, InstanceRecord>>
parseResult(std::string_view line)
{
    const auto tokens = splitTokens(line);
    if (tokens.size() != 8 || tokens[0] != "RESULT")
        return std::nullopt;
    JobId id = 0;
    if (!parseNumber(tokens[1], id))
        return std::nullopt;
    InstanceRecord rec;
    rec.status = std::string(tokens[2]);
    rec.wall_s = std::atof(std::string(tokens[3]).c_str());
    int vars = 0, clauses = 0;
    std::uint64_t conflicts = 0;
    if (!parseNumber(tokens[4], vars) || !parseNumber(tokens[5], clauses) ||
        !parseNumber(tokens[6], conflicts))
        return std::nullopt;
    rec.vars = vars;
    rec.clauses = clauses;
    rec.conflicts = conflicts;
    if (tokens[7] != "-")
        rec.winner = std::string(tokens[7]);
    return std::make_pair(id, rec);
}

std::string
formatCore(JobId sid, const std::vector<int> &lits)
{
    std::string out = "CORE " + std::to_string(sid);
    for (const int lit : lits)
        out += ' ' + std::to_string(lit);
    return out;
}

std::optional<std::pair<JobId, std::vector<int>>>
parseCore(std::string_view line)
{
    const auto tokens = splitTokens(line);
    if (tokens.size() < 2 || tokens[0] != "CORE")
        return std::nullopt;
    JobId sid = 0;
    if (!parseNumber(tokens[1], sid))
        return std::nullopt;
    std::vector<int> lits;
    for (std::size_t i = 2; i < tokens.size(); ++i) {
        int lit = 0;
        if (!parseNumber(tokens[i], lit) || lit == 0)
            return std::nullopt;
        lits.push_back(lit);
    }
    return std::make_pair(sid, lits);
}

} // namespace hyqsat::service
