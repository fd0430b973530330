#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <thread>

#include "anneal/async_sampler.h"
#include "util/cancel.h"
#include "util/timer.h"

namespace hyqsat::anneal {
namespace {

/**
 * Inner sampler that takes a long, uninterruptible time per sample —
 * the stand-in for a remote QPU round trip stuck on the wire. The
 * AsyncSampler wrapper must let a cancelled caller out of wait()
 * while this is still grinding on the worker thread.
 */
class SlowSampler : public SyncSampler
{
  public:
    explicit SlowSampler(std::chrono::milliseconds per_sample)
        : per_sample_(per_sample)
    {
    }

    const char *name() const override { return "slow"; }

  protected:
    AnnealSample
    compute(const SampleRequest &) override
    {
        std::this_thread::sleep_for(per_sample_);
        return AnnealSample{};
    }

  private:
    std::chrono::milliseconds per_sample_;
};

TEST(AsyncSamplerCancel, DestructionRacesStrandRetirement)
{
    // Destroy the sampler the instant jobs are in flight, many times
    // over: the destructor waits for the drain strand to retire, and
    // the strand's final done_cv_ notify must happen before it drops
    // the mutex — a notify after the unlock can land on a destroyed
    // condition variable (caught by TSAN/ASAN builds).
    for (int round = 0; round < 200; ++round) {
        AsyncSampler sampler(
            std::make_unique<SlowSampler>(std::chrono::milliseconds(0)),
            AsyncSampler::Options{});
        for (int j = 0; j < 3; ++j)
            sampler.submit(SampleRequest{});
        // dtor runs here, racing the drain loop's retirement
    }
}

TEST(AsyncSamplerCancel, WaitReturnsWithinPollIntervalAfterStop)
{
    // ISSUE 2 cancellation satellite: a portfolio worker blocked in
    // wait() must observe the shared stop token and return promptly
    // instead of hanging until the in-flight sample completes.
    StopToken stop;
    AsyncSampler::Options opts;
    opts.depth = 2;
    opts.stop = &stop;

    constexpr auto kSlow = std::chrono::milliseconds(400);
    AsyncSampler sampler(std::make_unique<SlowSampler>(kSlow), opts);
    sampler.submit(SampleRequest{}); // worker starts grinding
    sampler.submit(SampleRequest{}); // second job queued behind it

    std::thread tripper([&stop] {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        stop.requestStop();
    });

    Timer timer;
    std::vector<SampleCompletion> out;
    sampler.wait(out);
    const double waited_s = timer.seconds();
    tripper.join();

    // The trip lands ~20 ms in; wait() must escape within a few poll
    // intervals, far before the 400 ms sample (or the 800 ms queue)
    // finishes. Generous bound for sanitizer builds.
    EXPECT_LT(waited_s, 0.35)
        << "wait() hung past the in-flight sample";
    EXPECT_TRUE(out.empty())
        << "nothing had completed when the token tripped";

    // Destruction joins the worker even with a job still queued.
}

TEST(AsyncSamplerCancel, QueuedJobsDroppedAfterStop)
{
    // Once the token trips, queued-but-unstarted jobs are retired
    // without being computed: wait() drains to "nothing in flight"
    // in bounded time instead of paying one slow sample per job.
    StopToken stop;
    AsyncSampler::Options opts;
    opts.depth = 4;
    opts.stop = &stop;

    constexpr auto kSlow = std::chrono::milliseconds(100);
    AsyncSampler sampler(std::make_unique<SlowSampler>(kSlow), opts);
    for (int i = 0; i < 4; ++i)
        sampler.submit(SampleRequest{});
    stop.requestStop();

    Timer timer;
    std::vector<SampleCompletion> out;
    sampler.wait(out);
    // At most the one already-started sample is paid for; the three
    // queued jobs must be dropped, not computed (4 x 100 ms).
    EXPECT_LT(timer.seconds(), 0.3);
    EXPECT_LE(out.size(), 1u);

    // Dropped jobs retire from inFlight() too: once the started job
    // is harvested nothing is left in flight (a stuck count would
    // make Sampler::sampleNow spin forever).
    Timer deadline;
    while (sampler.inFlight() != 0 && deadline.seconds() < 1.0) {
        sampler.poll(out);
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    EXPECT_EQ(sampler.inFlight(), 0);
    EXPECT_LE(out.size(), 1u);
}

TEST(AsyncSamplerCancel, NoTokenStillBlocksUntilCompletion)
{
    // Without a stop token wait() keeps its blocking contract.
    AsyncSampler::Options opts;
    opts.depth = 2;
    AsyncSampler sampler(
        std::make_unique<SlowSampler>(std::chrono::milliseconds(30)),
        opts);
    sampler.submit(SampleRequest{});
    std::vector<SampleCompletion> out;
    sampler.wait(out);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(sampler.inFlight(), 0);
}

} // namespace
} // namespace hyqsat::anneal
