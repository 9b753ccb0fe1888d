// Fixture: R3 probe-macro — raw consumer-hub (AttributionHub) emit
// outside src/obs.
namespace fixture {

struct Hub
{
    void noteRead(int, int, int, int, int, int) {}
};

void
emitRaw(Hub *hub)
{
    hub->noteRead(1, 2, 3, 4, 5, 6);
}

}  // namespace fixture
