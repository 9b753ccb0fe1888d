/**
 * @file
 * R10 hot-alloc + call-graph fixtures: a dispatch root whose
 * reachable set exercises overload resolution, method-vs-free
 * shadowing, a recursion cycle, and InlineFunction indirect widening.
 */
#pragma once

#include <vector>

#include "src/core/inline_function.h"

namespace fixture {

/** Name-matches the default hot root EventQueue::step. */
class EventQueue
{
  public:
    using Callback = InlineFunction<void()>;
    void step();

  private:
    void dispatchOne();
};

/** Overload pair: only the 1-arg form is called from the hot path. */
int scale(int v);
int scale(int v, int k);

class Mixer
{
  public:
    void mix();
    /** Shadows the free emit(): in-class calls must bind here. */
    void emit();

  private:
    std::vector<int> out_;
};

/** Free twin of Mixer::emit — allocates, but is never reached. */
void emit();

/** Mutual recursion: reachability BFS must terminate. */
void ping(int n);
void pong(int n);

/** Allocates via make_unique; reached from the dispatch root. */
void spawn();

/** Indirect dispatch through an InlineFunction-typed field. */
class Runner
{
  public:
    void setCb(InlineFunction<void()> cb) { cb_ = cb; }
    void arm();
    void fire() { cb_(); }

  private:
    InlineFunction<void()> cb_;
};

/** Same dispatch, typed through an alias of another class's alias:
 *  `Callback` must resolve in Pump's scope, then to EventQueue's. */
class Pump
{
  public:
    using Callback = EventQueue::Callback;
    void setCb(Callback cb) { cb_ = cb; }
    void arm();
    void fire() { cb_(); }

  private:
    Callback cb_;
};

}  // namespace fixture
