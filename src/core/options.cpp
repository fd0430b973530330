#include "core/options.h"

#include <algorithm>
#include <cstdint>
#include <limits>

#include "anneal/sampler.h"
#include "topology/topology.h"

namespace hyqsat::core {

namespace {

using Kind = Knob::Kind;
using Scope = Knob::Scope;

/** Upper bound of the count knobs (pipeline depth, reads, groups). */
constexpr int kMaxCount = 4096;

/** A Number knob stored in one HybridConfig member. */
template <class T>
Knob
number(const char *name, Scope scope, T HybridConfig::*member, T lo, T hi)
{
    return {name, Kind::Number, scope, "N", "",
            [=](HybridConfig &c, std::string_view v) {
                return parseNumber(v, lo, hi, c.*member);
            },
            [=](const HybridConfig &c) { return std::to_string(c.*member); }};
}

/** A Switch knob; @p set receives the parsed 0|1. */
Knob
toggle(const char *name, Scope scope, void (*set)(HybridConfig &, bool),
       bool (*get)(const HybridConfig &) = nullptr)
{
    Knob k{name, Kind::Switch, scope, "0|1", "1",
           [set](HybridConfig &c, std::string_view v) {
               if (v != "0" && v != "1")
                   return false;
               set(c, v == "1");
               return true;
           },
           nullptr};
    if (get)
        k.format = [get](const HybridConfig &c) {
            return std::string(get(c) ? "1" : "0");
        };
    return k;
}

std::string
samplerSyntax()
{
    std::string out;
    for (const std::string &n : anneal::samplerNames())
        out += n + '|';
    return out + "async:NAME";
}

const std::vector<Knob> &
table()
{
    static const std::vector<Knob> knobs = {
        {"simplify", Kind::Word, Scope::Session, "off|light|full", "light",
         [](HybridConfig &c, std::string_view v) {
             return simplify::parseStrength(std::string(v),
                                            c.simplify_strength);
         },
         [](const HybridConfig &c) {
             return std::string(simplify::strengthName(c.simplify_strength));
         }},
        {"topology", Kind::Word, Scope::Job, "chimera|pegasus|zephyr", "",
         [](HybridConfig &c, std::string_view v) {
             const auto kind = topology::parseKind(v);
             if (kind)
                 c.topology = *kind;
             return kind.has_value();
         },
         [](const HybridConfig &c) {
             return std::string(topology::kindName(c.topology));
         }},
        toggle(
            "reads-batch", Scope::Job,
            [](HybridConfig &c, bool on) { c.reads_batch = on; },
            [](const HybridConfig &c) { return c.reads_batch; }),
        number("reads-groups", Scope::Job, &HybridConfig::reads_groups, 0,
               kMaxCount),
        // Unknown sampler names are fatal when the solver builds the
        // backend (anneal::makeSampler).
        {"sampler", Kind::Word, Scope::Cli, samplerSyntax(), "",
         [](HybridConfig &c, std::string_view v) {
             c.sampler = std::string(v);
             return true;
         },
         [](const HybridConfig &c) { return c.sampler; }},
        number("depth", Scope::Cli, &HybridConfig::pipeline_depth, 1,
               kMaxCount),
        number("num-reads", Scope::Cli, &HybridConfig::num_reads, 1,
               kMaxCount),
        toggle("noisy", Scope::Cli,
               [](HybridConfig &c, bool on) {
                   on ? useNoisyDevice(c) : useNoiseFreeDevice(c);
               }),
        number<std::int64_t>("warmup", Scope::Solo,
                             &HybridConfig::warmup_override, -1,
                             std::numeric_limits<std::int32_t>::max()),
        toggle("no-frontend-cache", Scope::Solo,
               [](HybridConfig &c, bool on) {
                   c.frontend.cache_embeddings = !on;
               }),
        toggle("incremental-tracking", Scope::Solo,
               [](HybridConfig &c, bool on) {
                   c.solver.incremental_clause_tracking = on;
               }),
    };
    return knobs;
}

const Knob *
findKnob(std::string_view key, Scope scope)
{
    for (const Knob *k : knobs(scope))
        if (k->key() == key)
            return k;
    return nullptr;
}

} // namespace

std::string
Knob::key() const
{
    std::string out = name;
    std::replace(out.begin(), out.end(), '-', '_');
    return out;
}

std::vector<const Knob *>
knobs(Knob::Scope scope)
{
    std::vector<const Knob *> out;
    for (const Knob &k : table())
        if (k.scope <= scope)
            out.push_back(&k);
    return out;
}

std::string
knobValue(const KnobValues &values, std::string_view key)
{
    std::string value;
    for (const auto &[k, v] : values)
        if (k == key)
            value = v;
    return value;
}

void
addKnobFlags(CommandLine &cli, HybridConfig &config, Knob::Scope scope)
{
    using Arity = CommandLine::Arity;
    for (const Knob *k : knobs(scope)) {
        const Arity arity = k->kind == Kind::Switch ? Arity::Switch
                            : k->bare.empty()       ? Arity::Value
                                                    : Arity::Optional;
        cli.add(
            k->name, k->syntax,
            [k, &config](std::string_view v) { return k->apply(config, v); },
            arity, k->bare);
    }
}

bool
parseKnobSetting(std::string_view token, Knob::Scope scope,
                 KnobValues &out)
{
    const std::size_t eq = token.find('=');
    const Knob *k = eq == std::string_view::npos
                        ? nullptr
                        : findKnob(token.substr(0, eq), scope);
    HybridConfig probe;
    if (!k || !k->apply(probe, token.substr(eq + 1)))
        return false;
    out.emplace_back(k->key(), std::string(token.substr(eq + 1)));
    return true;
}

std::string
knobSettingUsage(Knob::Scope scope)
{
    std::string out;
    for (const Knob *k : knobs(scope))
        out += (out.empty() ? "[" : " [") + k->key() + "=<" + k->syntax +
               ">]";
    return out;
}

void
applyKnobs(const KnobValues &values, HybridConfig &config)
{
    for (const auto &[key, value] : values)
        if (const Knob *k = findKnob(key, Scope::Solo))
            k->apply(config, value);
}

KnobValues
echoKnobs(const HybridConfig &config, Knob::Scope scope)
{
    KnobValues out;
    for (const Knob *k : knobs(scope))
        if (k->format)
            out.emplace_back(k->key(), k->format(config));
    return out;
}

void
useNoiseFreeDevice(HybridConfig &config)
{
    config.annealer.noise = anneal::NoiseModel::noiseFree();
    config.annealer.greedy_finish = true;
    config.annealer.attempts = 2;
}

void
useNoisyDevice(HybridConfig &config)
{
    config.annealer.noise = anneal::NoiseModel::dwave2000q();
    config.annealer.greedy_finish = true;
    config.annealer.attempts = 1;
}

} // namespace hyqsat::core
