#include "anneal/async_sampler.h"

#include <algorithm>
#include <chrono>

#include "anneal/work_pool.h"
#include "util/timer.h"

namespace hyqsat::anneal {

namespace {

/** wait() poll interval while a stop token is attached. */
constexpr std::chrono::microseconds kStopPoll{500};

} // namespace

AsyncSampler::AsyncSampler(std::unique_ptr<Sampler> inner, Options opts)
    : inner_(std::move(inner)), opts_(opts)
{
    opts_.depth = std::max(opts_.depth, 2);
}

AsyncSampler::~AsyncSampler()
{
    // Stop accepting strand turns and wait for a running one to
    // retire; queued-but-unprocessed jobs are abandoned with it.
    std::unique_lock<std::mutex> lock(mutex_);
    shutdown_ = true;
    done_cv_.wait(lock, [this] { return !strand_active_; });
}

std::uint64_t
AsyncSampler::submit(SampleRequest request)
{
    std::uint64_t ticket;
    bool arm = false;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        ticket = next_ticket_++;
        queue_.push_back(Job{ticket, std::move(request)});
        ++in_flight_;
        ++uncompleted_;
        if (!strand_active_) {
            strand_active_ = true;
            arm = true;
        }
    }
    // At most one drain task exists at a time: that is what makes
    // the pool a serial FIFO strand for this sampler.
    if (arm)
        WorkPool::shared().post([this] { drainLoop(); });
    return ticket;
}

void
AsyncSampler::poll(std::vector<SampleCompletion> &out)
{
    std::lock_guard<std::mutex> lock(mutex_);
    in_flight_ -= static_cast<int>(done_.size());
    for (auto &c : done_)
        out.push_back(std::move(c));
    done_.clear();
}

void
AsyncSampler::wait(std::vector<SampleCompletion> &out)
{
    std::unique_lock<std::mutex> lock(mutex_);
    const auto ready = [this] {
        return !done_.empty() || uncompleted_ == 0;
    };
    if (opts_.stop) {
        // Cancellation point: bounded sleeps so a stop request is
        // observed within one poll interval even when the inner
        // sampler is stuck on a long job.
        while (!ready() && !opts_.stop->stopRequested())
            done_cv_.wait_for(lock, kStopPoll);
    } else {
        done_cv_.wait(lock, ready);
    }
    in_flight_ -= static_cast<int>(done_.size());
    for (auto &c : done_)
        out.push_back(std::move(c));
    done_.clear();
}

int
AsyncSampler::inFlight() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return in_flight_;
}

void
AsyncSampler::drainLoop()
{
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
        if (shutdown_ || queue_.empty()) {
            strand_active_ = false;
            // Final notify under the lock: the destructor is
            // released by !strand_active_ and may destroy *this the
            // moment it can observe it (including via a spurious
            // wakeup between an unlock and a late notify), so
            // done_cv_ must not be touched after the mutex is
            // released here.
            done_cv_.notify_all();
            lock.unlock();
            return;
        }
        Job job = std::move(queue_.front());
        queue_.pop_front();
        lock.unlock();

        // Cooperative cancellation: once the stop token trips every
        // completion would be discarded by the (stopping) consumer,
        // so queued jobs are dropped instead of computed. Dropped
        // jobs are never delivered, so they retire from both counts
        // here: wait()'s uncompleted_ and inFlight()'s in_flight_.
        if (opts_.stop && opts_.stop->stopRequested()) {
            lock.lock();
            --uncompleted_;
            --in_flight_;
            lock.unlock();
            done_cv_.notify_all();
            lock.lock();
            continue;
        }

        // The inner sampler is synchronous and only ever touched by
        // the (unique) active strand task, so its Rng needs no
        // locking.
        Timer timer;
        AnnealSample sample = inner_->sampleNow(std::move(job.request));
        const double host_s = timer.seconds();

        lock.lock();
        SampleCompletion completion;
        completion.ticket = job.ticket;
        completion.sample = std::move(sample);
        completion.host_seconds = host_s;
        done_.push_back(std::move(completion));
        --uncompleted_;
        lock.unlock();
        done_cv_.notify_all();
        lock.lock();
    }
}

} // namespace hyqsat::anneal
