/**
 * @file
 * R11 determinism-taint fixture for the instrumentation sink:
 * unordered-container iteration flowing into a FLEETIO_PROBE emit.
 */
#include <unordered_map>

namespace fixture {

struct Probe
{
    void gcBatch(int npages) { (void)npages; }
};

#define FLEETIO_PROBE(probe_expr, call) ((probe_expr)->call)

class Emitter
{
  public:
    /** VIOLATION(determinism-taint): unordered iteration, and the
     *  caller emit() feeds a probe event. */
    int total() const
    {
        int s = 0;
        for (const auto &kv : table_) {
            s += kv.second;
        }
        return s;
    }

    /** The sink: a FLEETIO_PROBE site. */
    void emit(Probe *probe) const
    {
        FLEETIO_PROBE(probe, gcBatch(total()));
    }

  private:
    std::unordered_map<int, int> table_;
};

}  // namespace fixture
