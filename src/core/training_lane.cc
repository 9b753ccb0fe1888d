#include "src/core/training_lane.h"

#include <algorithm>
#include <cassert>

#include "src/core/agent.h"

namespace fleetio {

namespace {
constexpr std::size_t kNoJob = ~std::size_t(0);
}  // namespace

void
TrainingLane::Job::run()
{
    if (imitate)
        agent->imitate(state, actions, value_target);
    if (train)
        agent->train(bootstrap);
}

TrainingWorkers::TrainingWorkers(unsigned threads)
{
    threads_.reserve(threads);
    for (unsigned i = 0; i < threads; ++i)
        threads_.emplace_back([this]() { workerLoop(); });
}

TrainingWorkers::~TrainingWorkers()
{
    {
        std::lock_guard<std::mutex> g(mu_);
        stop_ = true;
    }
    work_cv_.notify_all();
    for (auto &t : threads_)
        t.join();
}

TrainingWorkers &
TrainingWorkers::shared()
{
    static TrainingWorkers workers(
        std::max(std::thread::hardware_concurrency(), 1u) - 1);
    return workers;
}

void
TrainingWorkers::workerLoop()
{
    std::unique_lock<std::mutex> lk(mu_);
    for (;;) {
        work_cv_.wait(lk,
                      [this]() { return stop_ || head_ != nullptr; });
        if (head_ == nullptr)
            return;  // stopping, and every queued job is claimed
        TrainingLane &lane = *head_;
        runClaimed(lane, claim(lane), lk);
    }
}

void
TrainingWorkers::enqueue(TrainingLane &lane, std::size_t n)
{
    {
        std::lock_guard<std::mutex> g(mu_);
        lane.count_ = n;
        lane.next_ = 0;
        lane.unfinished_ = n;
        lane.next_lane_ = nullptr;
        (tail_ != nullptr ? tail_->next_lane_ : head_) = &lane;
        tail_ = &lane;
    }
    work_cv_.notify_all();
}

std::size_t
TrainingWorkers::claim(TrainingLane &lane)
{
    if (lane.next_ == lane.count_)
        return kNoJob;
    const std::size_t j = lane.next_++;
    if (lane.next_ == lane.count_) {
        // Last job claimed: unlink the lane. The queue holds one entry
        // per live controller with work out, so the walk is short.
        TrainingLane *prev = nullptr;
        TrainingLane **link = &head_;
        while (*link != &lane) {
            prev = *link;
            link = &prev->next_lane_;
        }
        *link = lane.next_lane_;
        if (tail_ == &lane)
            tail_ = prev;
        lane.next_lane_ = nullptr;
    }
    return j;
}

void
TrainingWorkers::runClaimed(TrainingLane &lane, std::size_t j,
                            std::unique_lock<std::mutex> &lk)
{
    lk.unlock();
    lane.jobs_[j].run();
    lk.lock();
    if (--lane.unfinished_ == 0)
        done_cv_.notify_all();
}

TrainingLane::TrainingLane(TrainingWorkers *workers)
{
    setWorkers(workers);
}

TrainingLane::~TrainingLane() { wait(); }

void
TrainingLane::setWorkers(TrainingWorkers *workers)
{
    wait();
    workers_ = workers != nullptr && workers->size() > 0 ? workers
                                                         : nullptr;
}

void
TrainingLane::reserve(std::size_t n)
{
    wait();
    if (jobs_.size() < n)
        jobs_.resize(n);
}

void
TrainingLane::submit(std::size_t n)
{
    assert(!busy_ && n <= jobs_.size());
    const bool any = std::any_of(
        jobs_.begin(), jobs_.begin() + std::ptrdiff_t(n),
        [](const Job &j) { return j.imitate || j.train; });
    if (!any)
        return;
    if (workers_ == nullptr) {
        for (std::size_t i = 0; i < n; ++i)
            jobs_[i].run();
        return;
    }
    workers_->enqueue(*this, n);
    busy_ = true;
}

void
TrainingLane::wait()
{
    if (!busy_)
        return;
    busy_ = false;
    TrainingWorkers &w = *workers_;
    std::unique_lock<std::mutex> lk(w.mu_);
    // Help with this lane's unclaimed jobs rather than sleep on them.
    for (std::size_t j = w.claim(*this); j != kNoJob; j = w.claim(*this))
        w.runClaimed(*this, j, lk);
    w.done_cv_.wait(lk, [this]() { return unfinished_ == 0; });
}

}  // namespace fleetio
