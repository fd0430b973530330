/**
 * @file
 * Backend-level seed golden for the logical device: the `sa`,
 * `logical` and `async:sa` samplers and the QuantumAnnealer's
 * logical entry point they run on. The constants were captured from
 * the build in which `sa` was still a separate hand-written sampling
 * loop — do NOT regenerate them from the current code; the point is
 * that the single annealing loop reproduces every backend unchanged.
 *
 * One row per device flavor — `logical` (the annealer options as
 * given) or `sa` (the same options with control noise, readout error
 * and retries stripped) — crossed with num_reads 1 / 8, greedy
 * on / off and a noisy / noise-free base. Each row pins three
 * consecutive samples (bits FNV, physical energy) and the annealer's
 * post-run rng().next(). Every backend spelling of the flavor, with
 * and without a CompiledSlot, must reproduce the row's samples.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "anneal/sampler.h"
#include "embed/hyqsat_embedder.h"
#include "tests/sat/helpers.h"

namespace hyqsat::anneal {
namespace {

std::uint64_t
fnvBits(const std::vector<bool> &bits)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (bool b : bits) {
        h ^= static_cast<std::uint8_t>(b);
        h *= 0x100000001b3ull;
    }
    return h;
}

/** The fixture the golden constants were captured on. */
std::shared_ptr<const embed::QueueEmbedResult>
goldenFixture(const chimera::ChimeraGraph &g)
{
    Rng rng(47);
    const auto cnf = sat::testing::randomCnf(15, 40, 3, rng);
    const std::vector<sat::LitVec> clauses(cnf.clauses().begin(),
                                           cnf.clauses().end());
    embed::HyQsatEmbedder embedder(g);
    return std::make_shared<const embed::QueueEmbedResult>(
        embedder.embedQueue(clauses));
}

struct GoldenShot
{
    std::uint64_t bits_fnv;
    double physical_energy;
};

struct GoldenRow
{
    bool sa;     ///< `sa` flavor (noise stripped) vs `logical`
    int num_reads;
    bool greedy;
    bool noisy;
    GoldenShot shots[3];    ///< three consecutive samples
    std::uint64_t rng_next; ///< then the annealer's rng().next()
};

constexpr GoldenRow kGoldenRows[] = {
    {true, 1, true, false,
     {{0xc0df160f01c0a5b6ull, 0x1.4b4b4b4b4b308p-1},
      {0x0ad3a7f4edd77d72ull, 0x1.3dap-43},
      {0x81b6e2f3fc0a3a79ull, 0x1.a5a5a5a5a5f78p-2}},
     0xbadcb285d77916abull},
    {true, 1, true, true,
     {{0x606bb7cdb5d81904ull, -0x1.354p-43},
      {0x7d7f462f3a8bee6bull, -0x1.a08p-43},
      {0x526e75b3fa1dab1bull, 0x1.5f5f5f5f5fa36p-1}},
     0x8ddb2c6e3b2c2196ull},
    {true, 1, false, false,
     {{0xc0df160f01c0a5b6ull, 0x1.4b4b4b4b4b308p-1},
      {0xe68df51fc1a4fc06ull, 0x1.55555555557dp+0},
      {0x701552b55d8c2956ull, 0x1.a5a5a5a5a5ce8p-1}},
     0xbadcb285d77916abull},
    {true, 1, false, true,
     {{0xb74bff806a363c41ull, 0x1.1919191918d04p-1},
      {0x7a5bf893887294a1ull, 0x1.4b4b4b4b4ae35p-1},
      {0xbc0dbe257c5e724full, 0x1.040404040426p+0}},
     0x8ddb2c6e3b2c2196ull},
    {true, 8, true, false,
     {{0x9df232ddabb7b519ull, 0x1.ecp-48},
      {0x353087a70f6d6415ull, 0x1.ecp-48},
      {0x9df232ddabb7b519ull, 0x1.ecp-48}},
     0xd8086d26be386371ull},
    {true, 8, true, true,
     {{0xc1ed13cbf95f1afbull, 0x1.ecp-48},
      {0xe28becebf0225d53ull, 0x1.6cp-48},
      {0x9b05350fec712709ull, 0x1.36p-47}},
     0xd8086d26be386371ull},
    {true, 8, false, false,
     {{0xfc6554d07de15a32ull, 0x1.eep-47},
      {0x353087a70f6d6415ull, 0x1.ecp-48},
      {0xeda45132d48c6f09ull, 0x1.3b8p-45}},
     0xd8086d26be386371ull},
    {true, 8, false, true,
     {{0xadd2772dfc0a0ee6ull, 0x1.e1e1e1e1e1f84p-3},
      {0x0a4d42a0028c4e83ull, 0x1.a5a5a5a5a5bd8p-2},
      {0x9b05350fec712709ull, 0x1.36p-47}},
     0xd8086d26be386371ull},
    {false, 1, true, false,
     {{0x0ad3a7f4edd77d72ull, 0x1.3dap-43},
      {0x81b6e2f3fc0a3a79ull, 0x1.a5a5a5a5a5f78p-2},
      {0x025af22542821765ull, 0x1.a8p-48}},
     0xf617256b1672cf6dull},
    {false, 1, true, true,
     {{0x1a2dec0fc81987c2ull, 0x1.4f94d9a9cda7fp+0},
      {0xaa5890e72da514d9ull, 0x1.cfd1ca1e28298p-1},
      {0xadebf58f106bfb41ull, 0x1.4e810bb4b3dbdp+2}},
     0x08fed2a1964acea8ull},
    {false, 1, false, false,
     {{0xc0df160f01c0a5b6ull, 0x1.4b4b4b4b4b308p-1},
      {0x701552b55d8c2956ull, 0x1.a5a5a5a5a5ce8p-1},
      {0x5192afe2d45bc7b4ull, 0x1.c3c3c3c3c3c73p-1}},
     0x7040d3e3765d413dull},
    {false, 1, false, true,
     {{0x1a2dec0fc81987c2ull, 0x1.4f94d9a9cda7fp+0},
      {0x91cad3f8cd40fb32ull, 0x1.c5954b87478e4p+0},
      {0xba34141cecc03501ull, 0x1.a7692c833c381p+2}},
     0x08fed2a1964acea8ull},
    {false, 8, true, false,
     {{0x9df232ddabb7b519ull, 0x1.ecp-48},
      {0x353087a70f6d6415ull, 0x1.ecp-48},
      {0x9df232ddabb7b519ull, 0x1.ecp-48}},
     0xd8086d26be386371ull},
    {false, 8, true, true,
     {{0x75c35c17df6f732full, 0x1.44197787ed2eep-1},
      {0x619a031e20a35131ull, 0x1.02df2b483e213p+1},
      {0x9863080079b1f6afull, 0x1.8384a08603c7cp+0}},
     0x04ee930df7815556ull},
    {false, 8, false, false,
     {{0xfc6554d07de15a32ull, 0x1.eep-47},
      {0x353087a70f6d6415ull, 0x1.ecp-48},
      {0xeda45132d48c6f09ull, 0x1.3b8p-45}},
     0xd8086d26be386371ull},
    {false, 8, false, true,
     {{0x6d1dc37cbd9b653eull, 0x1.98bcd920af40bp-2},
      {0x83944c0445f52586ull, 0x1.187967ffc7e53p+1},
      {0x4b993d07af4d7061ull, 0x1.1b055bdcb5e3ap+1}},
     0x04ee930df7815556ull},
};

/** The annealer options the row's backend is built from. */
QuantumAnnealer::Options
baseOptions(const GoldenRow &row)
{
    QuantumAnnealer::Options opts;
    opts.noise = row.noisy ? NoiseModel::dwave2000q()
                           : NoiseModel::noiseFree();
    if (row.noisy)
        opts.noise.readout_flip_prob = 0.05;
    opts.greedy_finish = row.greedy;
    opts.attempts = row.noisy ? 1 : 2;
    opts.num_reads = row.num_reads;
    return opts;
}

std::string
rowName(const GoldenRow &row)
{
    return std::string(row.sa ? "sa" : "logical") + " reads " +
           std::to_string(row.num_reads) + " greedy " +
           std::to_string(row.greedy) + " noisy " +
           std::to_string(row.noisy);
}

void
expectShot(const AnnealSample &s, const GoldenShot &want,
           const std::string &where)
{
    EXPECT_EQ(fnvBits(s.node_bits), want.bits_fnv) << where;
    EXPECT_NEAR(s.physical_energy, want.physical_energy, 1e-9) << where;
    EXPECT_EQ(s.chain_breaks, 0) << where;
}

TEST(SamplerGolden, LogicalAnnealerReproducesBitsAndRngStream)
{
    const auto g = chimera::ChimeraGraph::dwave2000q();
    const auto fx = goldenFixture(g);
    for (const GoldenRow &row : kGoldenRows) {
        QuantumAnnealer::Options opts = baseOptions(row);
        if (row.sa) {
            opts.noise.coefficient_sigma = 0.0;
            opts.noise.readout_flip_prob = 0.0;
            opts.attempts = 1;
        }
        for (const bool memoized : {false, true}) {
            const auto where =
                rowName(row) + (memoized ? " (slot)" : " (no slot)");
            QuantumAnnealer qa(g, opts);
            embed::CompiledSlot slot;
            for (int k = 0; k < 3; ++k) {
                expectShot(qa.sampleLogical(fx->problem,
                                            memoized ? &slot : nullptr),
                           row.shots[k],
                           where + " shot " + std::to_string(k));
            }
            EXPECT_EQ(qa.rng().next(), row.rng_next)
                << where << " (RNG stream position diverged)";
        }
    }
}

TEST(SamplerGolden, EveryBackendSpellingReproducesItsFlavor)
{
    const auto g = chimera::ChimeraGraph::dwave2000q();
    const auto fx = goldenFixture(g);
    for (const GoldenRow &row : kGoldenRows) {
        const std::vector<std::string> names =
            row.sa ? std::vector<std::string>{"sa", "async:sa"}
                   : std::vector<std::string>{"logical"};
        for (const std::string &name : names) {
            for (const bool memoized : {false, true}) {
                const auto where = rowName(row) + " via " + name +
                                   (memoized ? " (slot)" : " (no slot)");
                SamplerSpec spec;
                spec.name = name;
                spec.annealer = baseOptions(row);
                const auto sampler = makeSampler(spec, g);
                SampleRequest request;
                request.problem = std::shared_ptr<const qubo::EncodedProblem>(
                    fx, &fx->problem);
                request.embedding = std::shared_ptr<const embed::Embedding>(
                    fx, &fx->embedding);
                // A fresh slot per backend: the memo starts cold.
                if (memoized) {
                    request.embedded =
                        std::make_shared<const embed::QueueEmbedResult>(*fx);
                }
                for (int k = 0; k < 3; ++k) {
                    expectShot(sampler->sampleNow(request), row.shots[k],
                               where + " shot " + std::to_string(k));
                }
            }
        }
    }
}

} // namespace
} // namespace hyqsat::anneal
