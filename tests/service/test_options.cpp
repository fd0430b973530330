/**
 * @file
 * The solver knob table (core/options.h) and the CommandLine parser
 * it drives: every SUBMIT-keyed knob sets the same HybridConfig
 * member from a CLI flag and from the wire, malformed or
 * out-of-range values are rejected on both sides, the CLI accepts
 * `--flag value` and `--flag=value` alike, and the §VI device
 * presets are the ones the CLIs and benches use.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <string>
#include <vector>

#include "bench/common.h"
#include "core/options.h"
#include "service/protocol.h"

namespace hyqsat::core {
namespace {

using Scope = Knob::Scope;

/**
 * Parse @p args into @p cfg the way a CLI of @p scope does; operands
 * land in @p operands. False when the parser refuses the line.
 */
bool
parseCli(std::vector<std::string> args, HybridConfig &cfg,
         Scope scope = Scope::Solo,
         std::vector<std::string> *operands = nullptr)
{
    args.insert(args.begin(), "prog");
    std::vector<char *> argv;
    for (std::string &a : args)
        argv.push_back(a.data());
    CommandLine cli("FILE...", [&](std::string_view op) {
        if (operands)
            operands->emplace_back(op);
        return true;
    });
    addKnobFlags(cli, cfg, scope);
    return cli.parse(static_cast<int>(argv.size()), argv.data());
}

/** Apply a SUBMIT line's overrides to @p cfg; false if Invalid. */
bool
parseSubmit(const std::string &tokens, HybridConfig &cfg)
{
    const service::Request req =
        service::parseRequest("SUBMIT t 0 j " + tokens);
    if (req.verb != service::Verb::Submit)
        return false;
    applyKnobs(req.overrides, cfg);
    return true;
}

TEST(KnobTable, WireKeysAreTheJobScopeKnobs)
{
    std::vector<std::string> submit, open;
    for (const Knob *k : knobs(Scope::Job))
        submit.push_back(k->key());
    for (const Knob *k : knobs(Scope::Session))
        open.push_back(k->key());
    EXPECT_EQ(submit, (std::vector<std::string>{"simplify", "topology"}));
    EXPECT_EQ(open, (std::vector<std::string>{"simplify"}));

    // The report echo covers exactly the SUBMIT keys, in order.
    std::vector<std::string> echoed;
    for (const auto &[key, value] : echoKnobs(HybridConfig{}))
        echoed.push_back(key);
    EXPECT_EQ(echoed, submit);
}

TEST(KnobTable, NamesAreUniqueAndKeysDeriveFromThem)
{
    std::vector<std::string> names;
    for (const Knob *k : knobs()) {
        EXPECT_EQ(k->name.find('_'), std::string::npos) << k->name;
        EXPECT_EQ(k->key().find('-'), std::string::npos) << k->key();
        EXPECT_TRUE(static_cast<bool>(k->apply)) << k->name;
        for (const std::string &seen : names)
            EXPECT_NE(seen, k->name);
        names.push_back(k->name);
    }
}

TEST(KnobTable, CliFlagAndSubmitTokenSetTheSameMember)
{
    struct Case
    {
        std::vector<std::string> cli;
        std::string submit;
        std::function<bool(const HybridConfig &)> holds;
    };
    const std::vector<Case> cases = {
        {{"--simplify", "full"}, "simplify=full",
         [](const HybridConfig &c) {
             return c.simplify_strength == simplify::Strength::Full;
         }},
        {{"--simplify=light"}, "simplify=light",
         [](const HybridConfig &c) {
             return c.simplify_strength == simplify::Strength::Light;
         }},
        {{"--simplify", "off"}, "simplify=off",
         [](const HybridConfig &c) {
             return c.simplify_strength == simplify::Strength::Off;
         }},
        {{"--topology", "pegasus"}, "topology=pegasus",
         [](const HybridConfig &c) {
             return c.topology == topology::Kind::Pegasus;
         }},
        {{"--topology=zephyr"}, "topology=zephyr",
         [](const HybridConfig &c) {
             return c.topology == topology::Kind::Zephyr;
         }},
        {{"--topology", "chimera"}, "topology=chimera",
         [](const HybridConfig &c) {
             return c.topology == topology::Kind::Chimera;
         }},
    };
    for (const Case &tc : cases) {
        // Start both sides away from every tested value so each case
        // proves a write, not a default.
        HybridConfig base;
        base.simplify_strength = simplify::Strength::Full;
        base.topology = topology::Kind::Pegasus;
        if (tc.submit == "simplify=full")
            base.simplify_strength = simplify::Strength::Off;
        if (tc.submit == "topology=pegasus")
            base.topology = topology::Kind::Chimera;

        HybridConfig from_cli = base, from_wire = base;
        ASSERT_TRUE(parseCli(tc.cli, from_cli, Scope::Cli)) << tc.submit;
        ASSERT_TRUE(parseSubmit(tc.submit, from_wire)) << tc.submit;
        EXPECT_TRUE(tc.holds(from_cli)) << tc.submit;
        EXPECT_TRUE(tc.holds(from_wire)) << tc.submit;
        EXPECT_EQ(echoKnobs(from_cli, Scope::Solo),
                  echoKnobs(from_wire, Scope::Solo))
            << tc.submit;
    }
}

TEST(KnobTable, MalformedValuesRejectedOnBothSides)
{
    // Job-scope knobs: the same bad value fails as a flag and as a
    // SUBMIT token. The retired reads-groups knob is unknown on both.
    const std::vector<std::pair<std::string, std::string>> bad = {
        {"topology", "kite"}, {"topology", ""},
        {"simplify", "max"},  {"simplify", ""},
        {"reads-groups", "2"},
    };
    for (const auto &[name, value] : bad) {
        HybridConfig cfg;
        EXPECT_FALSE(parseCli({"--" + name + "=" + value}, cfg))
            << name << "=" << value;
        std::string key = name;
        std::replace(key.begin(), key.end(), '-', '_');
        EXPECT_FALSE(parseSubmit(key + "=" + value, cfg))
            << key << "=" << value;
    }

    // CLI-only knobs validate too, and never reach the wire.
    for (const std::vector<std::string> &args :
         std::vector<std::vector<std::string>>{
             {"--num-reads", "abc"},
             {"--num-reads", "0"},
             {"--depth", "0"},
             {"--depth", "4097"},
             {"--warmup", "soon"},
             {"--noisy=2"},
             {"--reads-groups", "2"},
             {"--topology", "kite"},
             {"--sampler", "bogus"},
             {"--sampler", "batch"},
             {"--sampler", "async:async"},
             {"--reads-batch"},
             {"--incremental-tracking"},
             {"--depth"},
             {"--no-such-flag"},
             {"-x"},
         }) {
        HybridConfig cfg;
        EXPECT_FALSE(parseCli(args, cfg)) << args[0];
    }
    HybridConfig cfg;
    EXPECT_FALSE(parseSubmit("num_reads=4", cfg));
    EXPECT_FALSE(parseSubmit("warmup=3", cfg));
    EXPECT_FALSE(parseSubmit("no-frontend-cache=1", cfg)) << "CLI spelling";
}

TEST(KnobTable, ScopesGateEverySurface)
{
    KnobValues values;
    EXPECT_TRUE(parseKnobSetting("simplify=full", Scope::Session, values));
    EXPECT_FALSE(
        parseKnobSetting("topology=pegasus", Scope::Session, values));
    EXPECT_TRUE(parseKnobSetting("topology=pegasus", Scope::Job, values));
    EXPECT_FALSE(parseKnobSetting("depth=2", Scope::Job, values));
    EXPECT_EQ(values, (KnobValues{{"simplify", "full"},
                                  {"topology", "pegasus"}}));

    // batch_solver / solver_daemon stop at Cli: no single-solve knobs.
    HybridConfig cfg;
    EXPECT_TRUE(parseCli({"--depth", "2"}, cfg, Scope::Cli));
    EXPECT_FALSE(parseCli({"--warmup", "3"}, cfg, Scope::Cli));
    EXPECT_TRUE(parseCli({"--warmup", "3"}, cfg, Scope::Solo));
    EXPECT_EQ(cfg.warmup_override, 3);
}

TEST(KnobTable, ApplySkipsValuesThatDoNotValidate)
{
    HybridConfig cfg;
    cfg.num_reads = 2;
    applyKnobs({{"num_reads", "9999"},
                {"simplify", "bogus"},
                {"no_such_knob", "1"},
                {"topology", "zephyr"}},
               cfg);
    EXPECT_EQ(cfg.num_reads, 2);
    EXPECT_EQ(cfg.simplify_strength, simplify::Strength::Off);
    EXPECT_EQ(cfg.topology, topology::Kind::Zephyr);
    EXPECT_EQ(knobValue({{"a", "1"}, {"a", "2"}}, "a"), "2");
    EXPECT_EQ(knobValue({}, "a"), "");
}

TEST(CommandLine, SpaceAndEqualsFormsAgree)
{
    HybridConfig spaced, joined;
    ASSERT_TRUE(parseCli({"--depth", "3", "--num-reads", "8",
                          "--sampler", "sa", "--warmup", "-1"},
                         spaced));
    ASSERT_TRUE(parseCli({"--depth=3", "--num-reads=8", "--sampler=sa",
                          "--warmup=-1"},
                         joined));
    EXPECT_EQ(spaced.pipeline_depth, 3);
    EXPECT_EQ(spaced.num_reads, 8);
    EXPECT_EQ(spaced.sampler, "sa");
    EXPECT_EQ(echoKnobs(spaced, Scope::Solo),
              echoKnobs(joined, Scope::Solo));
    EXPECT_EQ(spaced.warmup_override, joined.warmup_override);
}

TEST(CommandLine, BareFlagsAndOperands)
{
    // A switch never takes the next argument; an optional-value flag
    // takes it unless it looks like a flag.
    HybridConfig cfg;
    std::vector<std::string> operands;
    ASSERT_TRUE(parseCli({"a.cnf", "--noisy", "b.cnf", "--simplify",
                          "--no-frontend-cache", "c.cnf"},
                         cfg, Scope::Solo, &operands));
    EXPECT_EQ(operands,
              (std::vector<std::string>{"a.cnf", "b.cnf", "c.cnf"}));
    EXPECT_GT(cfg.annealer.noise.coefficient_sigma, 0.0);
    EXPECT_EQ(cfg.simplify_strength, simplify::Strength::Light);
    EXPECT_FALSE(cfg.frontend.cache_embeddings);

    HybridConfig full;
    ASSERT_TRUE(parseCli({"--simplify", "full"}, full));
    EXPECT_EQ(full.simplify_strength, simplify::Strength::Full);
}

TEST(CommandLine, UsageListsEveryFlag)
{
    HybridConfig cfg;
    bool flag = false;
    CommandLine cli("problem.cnf");
    cli.toggle("classic", flag);
    addKnobFlags(cli, cfg, Scope::Solo);
    const std::string usage = cli.usage("prog");
    EXPECT_EQ(usage.rfind("usage: prog problem.cnf [--classic]", 0), 0u);
    for (const Knob *k : knobs())
        EXPECT_NE(usage.find("[--" + k->name), std::string::npos)
            << k->name;
    EXPECT_NE(usage.find("[--simplify[=off|light|full]]"),
              std::string::npos);
    EXPECT_NE(usage.find("[--num-reads N]"), std::string::npos);
    EXPECT_EQ(usage.find("reads-groups"), std::string::npos);
    EXPECT_EQ(usage.find("incremental-tracking"), std::string::npos);
    EXPECT_NE(usage.find("[--noisy]"), std::string::npos);
    EXPECT_NE(usage.find("[--sampler sync|logical|sa|async|async:NAME]"),
              std::string::npos);
}

TEST(DevicePresets, CliAndBenchesShareThem)
{
    HybridConfig noisy;
    ASSERT_TRUE(parseCli({"--noisy"}, noisy));
    const HybridConfig bench_noisy = bench::noisyConfig();
    for (const HybridConfig *c :
         std::initializer_list<const HybridConfig *>{&noisy,
                                                     &bench_noisy}) {
        EXPECT_EQ(c->annealer.noise.coefficient_sigma,
                  anneal::NoiseModel::dwave2000q().coefficient_sigma);
        EXPECT_EQ(c->annealer.noise.sweeps,
                  anneal::NoiseModel::dwave2000q().sweeps);
        EXPECT_TRUE(c->annealer.greedy_finish)
            << "the §VI-C device ends in a zero-temperature descent";
        EXPECT_EQ(c->annealer.attempts, 1);
    }

    HybridConfig quiet;
    useNoisyDevice(quiet);
    ASSERT_TRUE(parseCli({"--noisy=0"}, quiet));
    const HybridConfig bench_quiet = bench::noiseFreeConfig();
    for (const HybridConfig *c :
         std::initializer_list<const HybridConfig *>{&quiet,
                                                     &bench_quiet}) {
        EXPECT_EQ(c->annealer.noise.coefficient_sigma, 0.0);
        EXPECT_EQ(c->annealer.noise.beta_final,
                  anneal::NoiseModel::noiseFree().beta_final);
        EXPECT_TRUE(c->annealer.greedy_finish);
        EXPECT_EQ(c->annealer.attempts, 2);
    }
}

} // namespace
} // namespace hyqsat::core
