#include <gtest/gtest.h>

#include <atomic>
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
    /**
     * @p computed (optional) counts compute() calls; while @p hold
     * (optional) is set, a started compute() waits before its sleep.
     */
    explicit SlowSampler(std::chrono::milliseconds per_sample,
                         std::atomic<int> *computed = nullptr,
                         const std::atomic<bool> *hold = nullptr)
        : per_sample_(per_sample), computed_(computed), hold_(hold)
    {
    }

    const char *name() const override { return "slow"; }

  protected:
    AnnealSample
    compute(const SampleRequest &) override
    {
        if (computed_)
            computed_->fetch_add(1);
        while (hold_ && hold_->load())
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        std::this_thread::sleep_for(per_sample_);
        return AnnealSample{};
    }

  private:
    std::chrono::milliseconds per_sample_;
    std::atomic<int> *computed_;
    const std::atomic<bool> *hold_;
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

    // The first job is held inside compute() until the token has
    // tripped, so exactly one job is in progress and three queued
    // when the stop lands, however the threads are scheduled.
    constexpr auto kSlow = std::chrono::milliseconds(10);
    std::atomic<int> computed{0};
    std::atomic<bool> hold{true};
    AsyncSampler sampler(
        std::make_unique<SlowSampler>(kSlow, &computed, &hold), opts);
    for (int i = 0; i < 4; ++i)
        sampler.submit(SampleRequest{});
    while (computed.load() == 0)
        std::this_thread::yield();
    stop.requestStop();
    hold.store(false);

    std::vector<SampleCompletion> out;
    sampler.wait(out);
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
    // Only the job the worker started before the trip was computed;
    // the three queued behind it were dropped. (A count, not a wall
    // clock bound: it holds on a loaded machine too.)
    EXPECT_EQ(computed.load(), 1);
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
