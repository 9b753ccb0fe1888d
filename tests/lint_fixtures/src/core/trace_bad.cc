// Fixture: R3 probe-macro — raw obs::Probe emit in src/core, outside
// the old attribution rule's sim/ssd/virt/harvest scope. The same call
// through FLEETIO_PROBE is not flagged.
namespace fixture {

struct Probe
{
    void ioSubmit(int, int, int) {}
};

#define FLEETIO_PROBE(p, call) ((p)->call)

void
emitRaw(Probe *probe)
{
    probe->ioSubmit(1, 2, 3);
    FLEETIO_PROBE(probe, ioSubmit(1, 2, 3));
}

}  // namespace fixture
