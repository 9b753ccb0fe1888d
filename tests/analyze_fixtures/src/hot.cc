#include "src/hot.h"

#include <memory>

namespace fixture {

void
EventQueue::step()
{
    dispatchOne();
}

void
EventQueue::dispatchOne()
{
    Mixer m;
    m.mix();
    ping(3);
    scale(2);
    spawn();
    Runner r;
    r.arm();
    r.fire();
    Pump p;
    p.fire();
}

int
scale(int v)
{
    return v * 2;
}

/** Not reached: scale is only ever called with one argument. */
int
scale(int v, int k)
{
    int *p = new int(v * k);
    const int out = *p;
    delete p;
    return out;
}

void
Mixer::mix()
{
    emit();
    // fleetio-analyze: allow(hot-alloc): fixture: bounded one-shot append, proves suppressions silence R10
    out_.push_back(1);
}

void
Mixer::emit()
{
    if (!out_.empty())
        out_.clear();
}

/** Not reached: Mixer::mix binds to the method, not this free fn. */
void
emit()
{
    std::vector<int> scratch;
    scratch.push_back(9);
}

void
ping(int n)
{
    if (n > 0)
        pong(n - 1);
}

void
pong(int n)
{
    if (n > 0)
        ping(n - 1);
}

/** VIOLATION(hot-alloc): make_unique on the dispatch path. */
void
spawn()
{
    auto p = std::make_unique<int>(4);
    (void)p;
}

void
Runner::arm()
{
    /* VIOLATION(hot-alloc): the widened indirect edge from fire()
     * reaches this lambda, which allocates. */
    setCb([] {
        int *leak = new int(7);
        (void)leak;
    });
}

void
Pump::arm()
{
    // Not called on the hot path: its lambda is reached only by
    // resolving Pump::Callback -> EventQueue::Callback.
    int ticks = 0;
    setCb([&ticks] { ++ticks; });
}

}  // namespace fixture
