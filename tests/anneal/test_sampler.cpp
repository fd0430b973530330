#include <gtest/gtest.h>

#include "anneal/async_sampler.h"
#include "anneal/sampler.h"
#include "embed/hyqsat_embedder.h"
#include "tests/sat/helpers.h"

namespace hyqsat::anneal {
namespace {

using sat::LitVec;
using sat::mkLit;

embed::QueueEmbedResult
embedFixture(const chimera::ChimeraGraph &g,
             const std::vector<LitVec> &clauses)
{
    embed::HyQsatEmbedder embedder(g);
    return embedder.embedQueue(clauses);
}

SampleRequest
requestFixture(const chimera::ChimeraGraph &g, std::uint64_t seed = 21)
{
    Rng rng(seed);
    const auto cnf = sat::testing::randomCnf(15, 32, 3, rng);
    const std::vector<LitVec> clauses(cnf.clauses().begin(),
                                      cnf.clauses().end());
    const auto fx = embedFixture(g, clauses);
    SampleRequest request;
    request.problem =
        std::make_shared<qubo::EncodedProblem>(fx.problem);
    request.embedding =
        std::make_shared<embed::Embedding>(fx.embedding);
    return request;
}

QuantumAnnealer::Options
noiseFreeOptions()
{
    QuantumAnnealer::Options opts;
    opts.noise = NoiseModel::noiseFree();
    opts.greedy_finish = true;
    return opts;
}

TEST(Sampler, QaSamplerMatchesDirectAnnealerBitForBit)
{
    const auto g = chimera::ChimeraGraph::dwave2000q();
    const auto request = requestFixture(g);

    QuantumAnnealer direct(g, noiseFreeOptions());
    QaSampler via_interface(g, noiseFreeOptions());

    for (int i = 0; i < 3; ++i) {
        const auto a =
            direct.sample(*request.problem, *request.embedding);
        const auto b = via_interface.sampleNow(request);
        EXPECT_EQ(a.node_bits, b.node_bits) << "sample " << i;
        EXPECT_DOUBLE_EQ(a.clause_energy, b.clause_energy);
        EXPECT_DOUBLE_EQ(a.physical_energy, b.physical_energy);
        EXPECT_DOUBLE_EQ(a.device_time_us, b.device_time_us);
    }
}

TEST(Sampler, QaSamplerHonorsLogicalRequests)
{
    const auto g = chimera::ChimeraGraph::dwave2000q();
    auto request = requestFixture(g);
    request.use_embedding = false;

    QuantumAnnealer direct(g, noiseFreeOptions());
    QaSampler via_interface(g, noiseFreeOptions());
    const auto a = direct.sampleLogical(*request.problem);
    const auto b = via_interface.sampleNow(request);
    EXPECT_EQ(a.node_bits, b.node_bits);
    EXPECT_DOUBLE_EQ(a.clause_energy, b.clause_energy);
}

TEST(Sampler, SyncSamplerTicketsAndInFlight)
{
    const auto g = chimera::ChimeraGraph::dwave2000q();
    const auto request = requestFixture(g);
    QaSampler sampler(g, noiseFreeOptions());

    EXPECT_EQ(sampler.capacity(), 1);
    EXPECT_EQ(sampler.inFlight(), 0);
    const auto t1 = sampler.submit(request);
    const auto t2 = sampler.submit(request);
    EXPECT_LT(t1, t2);
    EXPECT_EQ(sampler.inFlight(), 2);

    std::vector<SampleCompletion> done;
    sampler.poll(done);
    ASSERT_EQ(done.size(), 2u);
    // FIFO completion order.
    EXPECT_EQ(done[0].ticket, t1);
    EXPECT_EQ(done[1].ticket, t2);
    EXPECT_GE(done[0].host_seconds, 0.0);
    EXPECT_EQ(sampler.inFlight(), 0);
}

TEST(Sampler, SaBackendDeterministicPerSeed)
{
    const auto g = chimera::ChimeraGraph::dwave2000q();
    const auto request = requestFixture(g);

    SamplerSpec spec;
    spec.name = "sa";
    spec.annealer.seed = 99;
    const auto a = makeSampler(spec, g);
    const auto b = makeSampler(spec, g);
    EXPECT_STREQ(a->name(), "sa");
    const auto sa = a->sampleNow(request);
    const auto sb = b->sampleNow(request);
    EXPECT_EQ(sa.node_bits, sb.node_bits);
    EXPECT_DOUBLE_EQ(sa.clause_energy, sb.clause_energy);
    EXPECT_EQ(static_cast<int>(sa.node_bits.size()),
              request.problem->numNodes());
    // The logical path has no chains to break.
    EXPECT_EQ(sa.chain_breaks, 0);
}

TEST(Sampler, AsyncSamplerDeliversEverySubmissionInOrder)
{
    const auto g = chimera::ChimeraGraph::dwave2000q();
    const auto request = requestFixture(g);

    AsyncSampler::Options opts;
    opts.depth = 3;
    AsyncSampler async(
        std::make_unique<QaSampler>(g, noiseFreeOptions()), opts);
    EXPECT_EQ(async.capacity(), 3);

    std::vector<std::uint64_t> tickets;
    for (int i = 0; i < 5; ++i)
        tickets.push_back(async.submit(request));

    std::vector<SampleCompletion> done;
    while (done.size() < tickets.size())
        async.wait(done);
    ASSERT_EQ(done.size(), tickets.size());
    for (std::size_t i = 0; i < tickets.size(); ++i)
        EXPECT_EQ(done[i].ticket, tickets[i]);
    EXPECT_EQ(async.inFlight(), 0);
}

TEST(Sampler, AsyncSamplerMatchesSyncStream)
{
    // One worker draining a FIFO against one synchronous sampler:
    // identical request sequences must produce identical samples.
    const auto g = chimera::ChimeraGraph::dwave2000q();
    const auto request = requestFixture(g);

    QaSampler sync(g, noiseFreeOptions());
    AsyncSampler async(
        std::make_unique<QaSampler>(g, noiseFreeOptions()), {});

    for (int i = 0; i < 3; ++i) {
        const auto a = sync.sampleNow(request);
        const auto b = async.sampleNow(request);
        EXPECT_EQ(a.node_bits, b.node_bits) << "sample " << i;
        EXPECT_DOUBLE_EQ(a.clause_energy, b.clause_energy);
    }
}

TEST(Sampler, AsyncSamplerAbandonsPendingJobsOnDestruction)
{
    const auto g = chimera::ChimeraGraph::dwave2000q();
    const auto request = requestFixture(g);
    {
        AsyncSampler async(
            std::make_unique<QaSampler>(g, noiseFreeOptions()), {});
        for (int i = 0; i < 8; ++i)
            async.submit(request);
        // Destructor must join cleanly with jobs still queued.
    }
    SUCCEED();
}

TEST(Sampler, FactoryBuildsEveryNamedBackend)
{
    const auto g = chimera::ChimeraGraph::dwave2000q();
    auto request = requestFixture(g);

    for (const auto &name : samplerNames()) {
        SamplerSpec spec;
        spec.name = name;
        spec.annealer = noiseFreeOptions();
        const auto sampler = makeSampler(spec, g);
        ASSERT_NE(sampler, nullptr) << name;
        const auto s = sampler->sampleNow(request);
        EXPECT_EQ(static_cast<int>(s.node_bits.size()),
                  request.problem->numNodes())
            << name;
    }
}

TEST(Sampler, FactoryComposesAsyncWrappers)
{
    const auto g = chimera::ChimeraGraph::dwave2000q();
    SamplerSpec spec;
    spec.name = "async:sa";
    spec.pipeline_depth = 4;
    const auto sampler = makeSampler(spec, g);
    EXPECT_STREQ(sampler->name(), "async");
    EXPECT_EQ(sampler->capacity(), 4);

    auto request = requestFixture(g);
    const auto s = sampler->sampleNow(request);
    EXPECT_EQ(static_cast<int>(s.node_bits.size()),
              request.problem->numNodes());
}

TEST(Sampler, FactoryRejectsUnknownAndNestedNames)
{
    const auto g = chimera::ChimeraGraph::dwave2000q();
    SamplerSpec bad;
    bad.name = "qpu-over-carrier-pigeon";
    EXPECT_EXIT(makeSampler(bad, g), ::testing::ExitedWithCode(1), "");
    SamplerSpec nested;
    nested.name = "async:async";
    EXPECT_EXIT(makeSampler(nested, g), ::testing::ExitedWithCode(1),
                "");

    // The CLI knob validates with the same check at parse time.
    for (const char *name : {"sync", "logical", "sa", "async",
                             "async:sync", "async:sa", "async:logical"})
        EXPECT_TRUE(isSamplerName(name)) << name;
    for (const char *name : {"", "qa", "async:qa", "batch", "bogus",
                             "async:", "async:async", "async:async:sync",
                             "async:batch"})
        EXPECT_FALSE(isSamplerName(name)) << name;
}

} // namespace
} // namespace hyqsat::anneal
