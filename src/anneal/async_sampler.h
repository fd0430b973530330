/**
 * @file
 * Asynchronous pipeline wrapper: runs any inner Sampler on a worker
 * thread so the hybrid loop can keep iterating while a sample is in
 * flight. This is the software model of hiding the D-Wave 2000Q's
 * 130 us sample latency (and, for a future remote QPU client, the
 * network round trip) inside the CDCL warm-up window.
 *
 * The request queue is a serial *strand* on the process-wide
 * WorkPool: at most one drain task is in flight at a time, so jobs
 * execute strictly in FIFO order on one thread at a time — a real
 * QPU is a single serially-scheduled device, so deeper parallelism
 * would misrepresent it; depth buys pipelining, not concurrency.
 */

#ifndef HYQSAT_ANNEAL_ASYNC_SAMPLER_H
#define HYQSAT_ANNEAL_ASYNC_SAMPLER_H

#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <vector>

#include "anneal/sampler.h"
#include "util/cancel.h"

namespace hyqsat::anneal {

/** Strand-on-pool pipeline around a synchronous sampler. */
class AsyncSampler : public Sampler
{
  public:
    struct Options
    {
        /** Max in-flight submissions (clamped to >= 2). */
        int depth = 2;

        /**
         * Cooperative cancellation: when set, wait() polls the token
         * every 500 us and returns (possibly empty-handed) once it
         * trips, so a racing portfolio never hangs on a losing
         * worker's in-flight sample. poll()/submit() never block and
         * need no token.
         */
        const StopToken *stop = nullptr;
    };

    AsyncSampler(std::unique_ptr<Sampler> inner, Options opts);
    ~AsyncSampler() override;

    const char *name() const override { return "async"; }
    int capacity() const override { return opts_.depth; }
    std::uint64_t submit(SampleRequest request) override;
    void poll(std::vector<SampleCompletion> &out) override;
    void wait(std::vector<SampleCompletion> &out) override;
    int inFlight() const override;

    Sampler &inner() { return *inner_; }

  private:
    struct Job
    {
        std::uint64_t ticket;
        SampleRequest request;
    };

    /**
     * One strand turn: process queued jobs until the queue is empty
     * (or shutdown), then retire the strand. Runs on a pool thread;
     * submit() re-arms it when work arrives with no strand active.
     */
    void drainLoop();

    std::unique_ptr<Sampler> inner_;
    Options opts_;

    mutable std::mutex mutex_;
    std::condition_variable done_cv_; ///< signals wait() / the dtor
    std::deque<Job> queue_;
    std::vector<SampleCompletion> done_;
    int in_flight_ = 0;   ///< submitted - harvested
    int uncompleted_ = 0; ///< submitted - completed
    std::uint64_t next_ticket_ = 1;
    bool shutdown_ = false;
    bool strand_active_ = false; ///< a drain task is posted/running
};

} // namespace hyqsat::anneal

#endif // HYQSAT_ANNEAL_ASYNC_SAMPLER_H
