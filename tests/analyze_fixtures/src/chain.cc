/**
 * @file
 * R10 hot-alloc fixture: an allocation reached through a call on a
 * call's result (`pool().acquire()`), where the receiver has no name
 * to type.
 */
#include <memory>

namespace fixture {

class Pool
{
  public:
    int *acquire();

  private:
    std::unique_ptr<int> last_;
};

/** Name-matches the default hot root IoScheduler::submit. */
class IoScheduler
{
  public:
    void submit();

  private:
    Pool &pool() { return pool_; }

    Pool pool_;
};

void
IoScheduler::submit()
{
    int *slot = pool().acquire();
    (void)slot;
}

/** VIOLATION(hot-alloc): reached only through `pool().acquire()`. */
int *
Pool::acquire()
{
    last_ = std::make_unique<int>(1);
    return last_.get();
}

}  // namespace fixture
