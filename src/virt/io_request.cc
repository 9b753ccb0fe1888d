#include "src/virt/io_request.h"

#include <cassert>

namespace fleetio {

IoRequestPool::~IoRequestPool()
{
    assert(live_ == 0 && "IoRequestPool destroyed with requests live");
}

IoRequestPool &
IoRequestPool::local()
{
    static thread_local IoRequestPool pool;
    return pool;
}

void
IoRequestPool::grow()
{
    const std::size_t base = slots_.size();
    slots_.resize(base + kChunk);
    // free_ never holds more than every slot, so release() never
    // reallocates it.
    free_.reserve(slots_.size());
    // Pushed high to low: the lowest new slot is handed out first.
    for (std::size_t i = slots_.size(); i-- > base;) {
        slots_[i].pool = this;
        free_.push_back(&slots_[i]);
    }
}

}  // namespace fleetio
