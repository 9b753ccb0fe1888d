/**
 * @file
 * R9 lock-discipline fixture: a guarded field touched before the lock
 * of its mutex is taken in the same function.
 */
#pragma once

#include <mutex>

#include "src/core/thread_annotations.h"

namespace fixture {

class Counter
{
  public:
    /// VIOLATION(lock-discipline): writes count_, then locks mu_.
    void bumpEarly()
    {
        count_ += 1;
        std::unique_lock<std::mutex> lk(mu_);
        ++bumps_;
    }

    /// Clean: the lock comes first.
    void bumpLocked()
    {
        std::unique_lock<std::mutex> lk(mu_);
        count_ += 1;
        ++bumps_;
    }

  private:
    std::mutex mu_;
    long count_ FLEETIO_GUARDED_BY(mu_) = 0;
    long bumps_ FLEETIO_GUARDED_BY(mu_) = 0;
};

}  // namespace fixture
