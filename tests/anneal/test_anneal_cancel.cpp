/**
 * @file
 * Cancellable annealing: the stop token reaches every SA sweep and
 * greedy pass, on the single-read chain and on every lockstep kernel
 * this build compiles. The tests count sweeps, never wall time: a
 * token tripped before the call runs zero sweeps, a token that never
 * trips changes no bit and no RNG draw, a stopped annealer sample is
 * flagged and the sampling pipeline drops it before the backend.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "anneal/annealer.h"
#include "anneal/sa_batch.h"
#include "anneal/sa_sampler.h"
#include "anneal/sampler.h"
#include "core/backend.h"
#include "core/pipeline.h"
#include "embed/hyqsat_embedder.h"
#include "tests/sat/helpers.h"
#include "util/cancel.h"
#include "util/metrics.h"
#include "util/simd.h"

namespace hyqsat::anneal {
namespace {

/** Random test model: fields + ~60% dense couplings. */
qubo::IsingModel
randomModel(int n, std::uint64_t seed)
{
    qubo::IsingModel m(n);
    Rng setup(seed);
    for (int i = 0; i < n; ++i)
        m.addField(i, setup.gaussian(0, 1));
    for (int i = 0; i < n; ++i)
        for (int j = i + 1; j < n; ++j)
            if (setup.chance(0.6))
                m.addCoupling(i, j, setup.gaussian(0, 1));
    return m;
}

/** Compiled model with consecutive spin pairs as block-move groups. */
SaCompiled
compiledWithGroups(const qubo::IsingModel &m)
{
    SaCompiled c = SaCompiled::build(m, /*include_zero=*/false);
    std::vector<std::vector<int>> groups;
    for (int i = 0; i + 1 < c.numSpins(); i += 2)
        groups.push_back({i, i + 1});
    c.compileGroups(groups);
    return c;
}

/** Scalar plus every vector kernel this build and host can run. */
std::vector<simd::Isa>
runnableKernels()
{
    const simd::Isa detected = simd::detectIsa();
    std::vector<simd::Isa> out = {simd::Isa::Scalar};
    for (const simd::Isa cand :
         {simd::Isa::Avx2, simd::Isa::Neon, simd::Isa::Avx512}) {
        if (simd::resolveIsa(cand, detected) == cand)
            out.push_back(cand);
    }
    return out;
}

/** A token tripped before the run starts. */
struct Tripped
{
    StopToken token;
    Tripped() { token.requestStop(); }
};

TEST(AnnealCancel, TrippedTokenRunsNoSweepSingleRead)
{
    Tripped tripped;
    SaSampler sampler(randomModel(24, 3));
    for (const bool greedy : {false, true}) {
        SaOptions opts;
        opts.sweeps = 64;
        opts.greedy_finish = greedy;
        opts.stop = &tripped.token;
        Rng rng(5);
        const SaResult r = sampler.sample(opts, rng);
        EXPECT_TRUE(r.stats.stopped);
        EXPECT_EQ(r.stats.sweeps, 0u);
        EXPECT_EQ(r.stats.flips_attempted, 0u);
    }
}

TEST(AnnealCancel, TrippedTokenRunsNoSweepOnEveryLockstepKernel)
{
    Tripped tripped;
    const SaCompiled c = compiledWithGroups(randomModel(22, 7));
    for (const simd::Isa isa : runnableKernels()) {
        for (const int reads : {5, 8, 16}) {
            SaOptions opts;
            opts.sweeps = 64;
            opts.num_reads = reads;
            opts.stop = &tripped.token;
            const std::vector<SaResult> out = sampleLockstep(
                c, c.csr.h.data(), c.csr.w.data(), opts, 11, isa);
            ASSERT_EQ(out.size(), static_cast<std::size_t>(reads));
            for (const SaResult &r : out) {
                EXPECT_TRUE(r.stats.stopped)
                    << simd::isaName(isa) << " reads=" << reads;
                EXPECT_EQ(r.stats.sweeps, 0u);
                EXPECT_EQ(r.stats.flips_attempted, 0u);
            }
        }
    }

    // The aggregate SaSampler view of an 8-read run says the same.
    SaSampler sampler(randomModel(22, 7));
    SaOptions opts;
    opts.num_reads = 8;
    opts.stop = &tripped.token;
    Rng rng(1);
    const SaResult best = sampler.sample(opts, rng);
    EXPECT_TRUE(best.stats.stopped);
    EXPECT_EQ(best.stats.sweeps, 0u);
    EXPECT_EQ(best.stats.reads, 8u);
}

TEST(AnnealCancel, UntrippedTokenIsBitIdenticalSingleRead)
{
    StopToken never;
    SaSampler sampler(randomModel(30, 13));
    for (const bool greedy : {false, true}) {
        SaOptions plain;
        plain.sweeps = 96;
        plain.greedy_finish = greedy;
        SaOptions watched = plain;
        watched.stop = &never;

        Rng a(21);
        Rng b(21);
        const SaResult ra = sampler.sample(plain, a);
        const SaResult rb = sampler.sample(watched, b);
        EXPECT_EQ(ra.spins, rb.spins);
        EXPECT_EQ(ra.energy, rb.energy);
        EXPECT_EQ(ra.stats.sweeps, 96u);
        EXPECT_EQ(rb.stats.sweeps, 96u);
        EXPECT_EQ(ra.stats.flips_attempted, rb.stats.flips_attempted);
        EXPECT_EQ(ra.stats.flips_accepted, rb.stats.flips_accepted);
        EXPECT_FALSE(rb.stats.stopped);
        EXPECT_EQ(a.next(), b.next()) << "RNG stream position moved";
    }
}

TEST(AnnealCancel, UntrippedTokenIsBitIdenticalLockstep)
{
    StopToken never;
    const SaCompiled c = compiledWithGroups(randomModel(26, 17));
    for (const simd::Isa isa : runnableKernels()) {
        for (const int reads : {8, 16}) {
            SaOptions plain;
            plain.sweeps = 48;
            plain.num_reads = reads;
            SaOptions watched = plain;
            watched.stop = &never;
            const auto a = sampleLockstep(c, c.csr.h.data(),
                                          c.csr.w.data(), plain, 3, isa);
            const auto b = sampleLockstep(
                c, c.csr.h.data(), c.csr.w.data(), watched, 3, isa);
            ASSERT_EQ(a.size(), b.size());
            for (std::size_t r = 0; r < a.size(); ++r) {
                EXPECT_EQ(a[r].spins, b[r].spins)
                    << simd::isaName(isa) << " read " << r;
                EXPECT_EQ(a[r].energy, b[r].energy);
                EXPECT_EQ(a[r].stats.sweeps, 48u);
                EXPECT_EQ(b[r].stats.sweeps, 48u);
                EXPECT_EQ(a[r].stats.flips_accepted,
                          b[r].stats.flips_accepted);
                EXPECT_FALSE(b[r].stats.stopped);
            }
        }
    }

    // One caller draw seeds a lockstep run, watched or not.
    SaSampler sampler(randomModel(26, 17));
    SaOptions plain;
    plain.num_reads = 8;
    SaOptions watched = plain;
    watched.stop = &never;
    Rng a(8);
    Rng b(8);
    EXPECT_EQ(sampler.sample(plain, a).spins,
              sampler.sample(watched, b).spins);
    EXPECT_EQ(a.next(), b.next());
}

TEST(AnnealCancel, TokenTrippedFromAnotherThreadEndsTheRun)
{
    // A run of seconds (a dense 256-spin model, 65536 sweeps) with
    // the token tripped as it starts: the annealing thread must come
    // back stopped, with fewer sweeps than asked for. What is
    // asserted is the sweep count, not how long the stop took.
    constexpr int kSweeps = 1 << 16;
    const SaCompiled c = compiledWithGroups(randomModel(256, 29));
    for (const int reads : {1, 8}) {
        StopToken stop;
        std::atomic<bool> started{false};
        SaResult result;
        std::thread annealer([&] {
            SaSampler sampler(std::make_shared<const SaCompiled>(c));
            SaOptions opts;
            opts.sweeps = kSweeps;
            opts.num_reads = reads;
            opts.stop = &stop;
            Rng rng(4);
            started.store(true);
            result = sampler.sample(opts, rng);
        });
        while (!started.load())
            std::this_thread::yield();
        stop.requestStop();
        annealer.join();
        EXPECT_TRUE(result.stats.stopped) << "reads=" << reads;
        EXPECT_LT(result.stats.sweeps,
                  static_cast<std::uint64_t>(kSweeps) *
                      static_cast<std::uint64_t>(reads));
    }
}

embed::QueueEmbedResult
embedThreeClauses(const chimera::ChimeraGraph &graph)
{
    using sat::mkLit;
    return embed::HyQsatEmbedder(graph).embedQueue(
        {{mkLit(0), mkLit(1), mkLit(2)},
         {mkLit(0, true), mkLit(3), mkLit(1, true)},
         {mkLit(2, true), mkLit(3, true), mkLit(4)}});
}

/** A small satisfiable clause set embedded on a 4x4 Chimera. */
struct EmbeddedFixture
{
    chimera::ChimeraGraph graph{4, 4, 4};
    embed::QueueEmbedResult fx = embedThreeClauses(graph);
};

TEST(AnnealCancel, StoppedAnnealerSampleIsFlagged)
{
    EmbeddedFixture e;
    Tripped tripped;
    for (const int reads : {1, 8}) {
        QuantumAnnealer::Options opts; // noisy 2000Q model
        opts.num_reads = reads;
        opts.attempts = 3;
        QuantumAnnealer qa(e.graph, opts);
        qa.setStopToken(&tripped.token);
        const AnnealSample s = qa.sample(e.fx.problem, e.fx.embedding);
        EXPECT_TRUE(s.stopped) << "reads=" << reads;
        EXPECT_TRUE(qa.lastRunStats().stopped);
        EXPECT_EQ(qa.lastRunStats().sweeps, 0u);
    }
}

TEST(AnnealCancel, UntrippedTokenLeavesAnnealerStreamUnchanged)
{
    EmbeddedFixture e;
    StopToken never;
    for (const int reads : {1, 8}) {
        QuantumAnnealer::Options opts; // control + readout noise
        opts.num_reads = reads;
        QuantumAnnealer plain(e.graph, opts);
        QuantumAnnealer watched(e.graph, opts);
        watched.setStopToken(&never);
        for (int round = 0; round < 3; ++round) {
            const AnnealSample a =
                plain.sample(e.fx.problem, e.fx.embedding);
            const AnnealSample b =
                watched.sample(e.fx.problem, e.fx.embedding);
            EXPECT_EQ(a.node_bits, b.node_bits);
            EXPECT_EQ(a.physical_energy, b.physical_energy);
            EXPECT_FALSE(b.stopped);
        }
        EXPECT_EQ(plain.rng().next(), watched.rng().next());
    }
}

TEST(AnnealCancel, PipelineDropsStoppedSampleBeforeTheBackend)
{
    // A tripped QaSampler still completes its job — with a stopped,
    // half-annealed sample whose default clause_energy of 0.0 would
    // read as "every clause satisfied". The pipeline must count it
    // and never hand it to Backend::apply.
    const chimera::ChimeraGraph graph(16, 16, 4);
    core::FrontendOptions fe_opts;
    const core::Frontend frontend(graph, fe_opts);
    Rng gen(77);
    const sat::Cnf cnf = sat::testing::randomCnf(20, 60, 3, gen);
    sat::Solver solver;
    ASSERT_TRUE(solver.loadCnf(cnf));

    Tripped tripped;
    MetricsRegistry registry;
    QaSampler sampler(graph, QuantumAnnealer::Options{}, "sync",
                      /*force_logical=*/false, &registry,
                      &tripped.token);
    Rng rng(0xfee1);
    core::SamplePipeline pipeline(frontend, sampler, rng,
                                  /*use_embedding=*/true, &registry);
    const core::Backend backend(core::BackendOptions{}, &registry);

    std::vector<core::ReadySample> ready;
    pipeline.step(solver, /*epoch=*/0, ready);
    for (const core::ReadySample &rs : ready)
        backend.apply(solver, *rs.frontend, rs.sample, cnf);

    EXPECT_TRUE(ready.empty());
    EXPECT_EQ(pipeline.stats().submitted, 1);
    EXPECT_EQ(pipeline.stats().harvested, 1);
    EXPECT_EQ(pipeline.stats().stopped_discarded, 1);
    EXPECT_EQ(pipeline.stats().stale_discarded, 0);
    EXPECT_EQ(registry.counter("pipeline.stopped_discarded")->value(),
              1u);
    EXPECT_EQ(registry.counter("backend.samples")->value(), 0u);
    EXPECT_EQ(registry.counter("anneal.sweeps")->value(), 0u);
}

} // namespace
} // namespace hyqsat::anneal
