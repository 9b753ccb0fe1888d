/**
 * @file
 * Root-cause observability: per-request latency attribution, the
 * cross-tenant interference (blame) matrix, and the SLO verdict engine
 * (DESIGN.md §13).
 *
 * Every host I/O's end-to-end latency is decomposed into a fixed set
 * of stages whose sum is provably equal to the measured latency: the
 * device computes the wait/service split synchronously at issue time
 * (the scalar-accumulator reservation model means all future times are
 * known the moment an op is reserved), and the scheduler contributes
 * the admission-side stages. Per-resource segment ledgers record who
 * occupied each channel bus and chip, so wait time is re-attributed to
 * the tenant (and mechanism: GC / harvest / plain contention) that
 * inflicted it — that is the `blame[victim][culprit]` matrix.
 *
 * Everything here follows the obs-layer byte-identity contract: the
 * hub is one consumer of the instrumentation probe (src/obs/probe.h),
 * so with no hub installed (or with the probes compiled out) nothing
 * here runs and the experiment output is byte-identical to a build
 * without this file.
 */
#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
#include <vector>

#include "src/core/thread_annotations.h"
#include "src/sim/types.h"

namespace fleetio::obs {

class DriftMonitor;
class MetricsRegistry;

/**
 * Latency stages. The per-request decomposition telescopes exactly:
 * submit → enqueue (kGcStall, nonzero only for capacity-blocked
 * writes) → dispatch (kQueueWait) → device stages → completion.
 *
 * Reads:  dispatch → chip start (kChipWait) → array service
 * (kChipService + kReadRetry) → bus grant (kBusWait) → transfer done
 * (kTransfer).  Writes: dispatch → bus grant (kBusWait) → transfer
 * (kTransfer) → chip start (kChipWait) → program done (kChipService).
 *
 * Wait time overlapping a foreign GC or harvest occupancy segment is
 * moved into kGcInterference / kHarvestInterference, so the wait
 * stages answer "why was the resource busy", not just "how long".
 */
enum class Stage : std::uint8_t {
    kGcStall = 0,          ///< write blocked on free-block capacity
    kQueueWait,            ///< virtual-queue wait (enqueue → dispatch)
    kChipWait,             ///< chip busy with neighbor/self host work
    kChipService,          ///< array read/program service time
    kReadRetry,            ///< extra array time from fault read-retries
    kBusWait,              ///< channel bus busy
    kTransfer,             ///< bus transfer time
    kGcInterference,       ///< wait overlapping GC occupancy
    kHarvestInterference,  ///< wait overlapping foreign harvest writes
};

inline constexpr std::size_t kNumStages = 9;

/** Short machine name ("gc_stall", "queue_wait", ...). */
const char *stageName(Stage s);

/** Stages that are waiting (vs. useful service/transfer) time. The
 *  blame matrix conserves exactly this subset: a victim's row sum
 *  equals its wait-stage sum. */
bool isWaitStage(Stage s);

/** Who/what an occupancy segment belongs to. */
enum class SegKind : std::uint8_t {
    kHostOp = 0,  ///< host I/O on the owner's own channels
    kGcOp,        ///< garbage-collection read/program/erase
    kHarvestOp,   ///< host write harvested onto a foreign channel
};

/** Root causes the verdict engine can assign to a violating window. */
enum class VerdictCause : std::uint8_t {
    kSelfLoad = 0,        ///< the tenant's own offered load
    kGc,                  ///< the tenant's own GC (stall + interference)
    kNeighbor,            ///< another tenant's GC/harvest/queue traffic
    kDegradationTier,     ///< admission placed the tenant in G1..G3
    kFaultRetry,          ///< read-retry time from injected faults
};

inline constexpr std::size_t kNumVerdictCauses = 5;

/** Short machine name ("self-load", "neighbor-interference", ...). */
const char *causeName(VerdictCause c);

/** One per-window SLO violation verdict. */
struct SloVerdict
{
    std::uint64_t window = 0;
    VssdId tenant = kNoVssd;
    VerdictCause cause = VerdictCause::kSelfLoad;
    VssdId culprit = kNoVssd;  ///< dominant neighbor (kNeighbor only)
    double violation_fraction = 0.0;  ///< violating / completed requests
    double neighbor_share = 0.0;      ///< off-diagonal blame / stage sum
    double self_gc_share = 0.0;       ///< own-GC wait / stage sum
    double retry_share = 0.0;         ///< read-retry / stage sum
};

/** One top-K slow request with its full stage breakdown. */
struct SlowRequest
{
    VssdId tenant = kNoVssd;
    bool write = false;
    std::uint64_t trace_id = 0;
    SimTime submit = 0;
    SimTime latency = 0;
    std::array<SimTime, kNumStages> stages{};
};

/** GsbManager lifecycle notes threaded into the attribution export. */
enum class HarvestNote : std::uint8_t {
    kCreated = 0,  ///< gSB harvested (tenant = harvester)
    kReclaim,      ///< donor reclaimed its channels (tenant = donor)
    kRevoked,      ///< lease revoked / force-released under pressure
};

inline constexpr std::size_t kNumHarvestNotes = 3;

/**
 * The attribution hub. One per testbed, installed in the testbed's
 * obs::Probe; the emit methods below are reached through the probe's
 * events (FLEETIO_PROBE / FLEETIO_PROBE_SCOPE), so an unobserved run
 * costs one null-probe test per site. Single-threaded, like the
 * simulation.
 */
class FLEETIO_THREAD_CONFINED AttributionHub
{
  public:
    struct Config
    {
        std::size_t channels = 0;          ///< channel-bus ledger count
        std::size_t chips = 0;             ///< total chip ledger count
        std::size_t top_k = 16;            ///< slow-request table size
        std::size_t segment_ring = 64;     ///< occupancy segments kept
        double violation_threshold = 0.0;  ///< min violating fraction
        double retry_share_threshold = 0.25;
    };

    explicit AttributionHub(const Config &cfg);

    /** Register/refresh a tenant's latency SLO (kTimeNever = none). */
    void setSlo(VssdId id, SimTime slo);

    /** Per-window metrics export target (optional). */
    void setMetrics(MetricsRegistry *m) { metrics_ = m; }

    // --- arm stack (use FLEETIO_PROBE_SCOPE, not direct calls) ---------

    /** Arm: subsequent device issues belong to @p tenant via @p kind. */
    void pushContext(VssdId tenant, SegKind kind);
    void popContext();
    bool armed() const { return ctx_depth_ > 0; }

    // --- device-side emits (FlashDevice, via obs::Probe) -------------

    /**
     * A read was reserved: chip occupancy [max(now, chip_free),
     * read_done), bus occupancy [max(read_done, bus_free), complete).
     * @p retry_extra is the fault-injected extra array time.
     */
    void noteRead(std::size_t ch, std::size_t chip, SimTime now,
                  SimTime chip_free, SimTime read_done,
                  SimTime retry_extra, SimTime bus_free, SimTime complete);

    /** A program was reserved: bus first, then chip. */
    void noteProgram(std::size_t ch, std::size_t chip, SimTime now,
                     SimTime bus_free, SimTime xfer_done,
                     SimTime chip_free, SimTime complete);

    /** An erase was reserved (chip only; always GC-armed). */
    void noteErase(std::size_t ch, std::size_t chip, SimTime now,
                   SimTime chip_free, SimTime complete);

    // --- scheduler-side emits (IoScheduler) ---------------------------

    /** Clear a request's inline breakdown at submit. */
    void resetRequest(SimTime *stages, SimTime *complete_hint);

    /**
     * Close out the page issued under the current arm scope: add the
     * scheduler-side stages and, if this page completes latest so far,
     * store the breakdown into the request's inline record.
     */
    void finishHostPage(SimTime gc_stall, SimTime queue_wait,
                        SimTime *stages, SimTime *complete_hint);

    /** A read page satisfied without a device op (unwritten LPA). */
    void zeroFillPage(VssdId tenant, SimTime latency, SimTime complete,
                      SimTime *stages, SimTime *complete_hint);

    /** The request's final page completed; record the request. */
    void recordRequest(VssdId tenant, bool write, std::uint64_t trace_id,
                       SimTime submit, SimTime complete,
                       const SimTime *stages);

    // --- harvest lifecycle (GsbManager) -------------------------------

    void noteHarvest(VssdId tenant, HarvestNote note);

    // --- window engine -------------------------------------------------

    /**
     * Close the current window: run the verdict engine over every
     * tenant whose violating fraction exceeded the threshold
     * (@p tiers[id] > 0 means the tenant sits in a degradation tier),
     * publish verdict gauges, and reset the window accumulators.
     */
    void rollWindow(SimTime now, std::uint64_t window,
                    const std::vector<int> &tiers);

    /** Drop warm-up state at beginMeasurement (ledgers persist). */
    void markBaseline();

    /** Power loss: in-flight reservations are void; drop the ledgers. */
    void crashReset();

    // --- results -------------------------------------------------------

    std::uint64_t requests() const { return requests_; }
    std::uint64_t violations() const { return violations_; }

    /** Requests whose stage sum differed from end-to-end latency
     *  (the bench verdict requires this to be exactly zero). */
    std::uint64_t sumMismatches() const { return sum_mismatches_; }

    std::size_t numTenants() const { return tenants_.size(); }

    /** Lifetime (since markBaseline) per-stage totals, ns. */
    std::uint64_t stageTotal(VssdId id, Stage s) const;

    /** Current-window per-stage totals, ns. */
    std::uint64_t windowStageTotal(VssdId id, Stage s) const;

    /** Lifetime blame matrix cell, ns of wait v suffered because of c. */
    std::uint64_t blame(VssdId victim, VssdId culprit) const;

    /** Independently-accumulated total wait @p culprit inflicted on
     *  *other* tenants (column-conservation check). */
    std::uint64_t inflicted(VssdId culprit) const;

    const std::vector<SloVerdict> &verdicts() const { return verdicts_; }
    std::uint64_t verdictCount(VerdictCause c) const
    {
        return verdict_counts_[std::size_t(c)];
    }

    /** Top-K slowest requests, sorted slowest-first. */
    std::vector<SlowRequest> topSlow() const;

    std::uint64_t harvestNotes(VssdId id, HarvestNote n) const;

    /** Write the fleetio-attribution-v1 JSON artifact. @p drift may be
     *  null; when present its per-window divergences are embedded. */
    void writeJson(std::ostream &os, const DriftMonitor *drift) const;

  private:
    struct Segment
    {
        SimTime start = 0;
        SimTime end = 0;
        VssdId owner = kNoVssd;
        SegKind kind = SegKind::kHostOp;
    };

    /** Fixed-capacity chronological ring of occupancy segments. */
    struct SegRing
    {
        std::vector<Segment> segs;
        std::size_t next = 0;   ///< slot the next push overwrites
        std::size_t count = 0;  ///< live segments (≤ capacity)
    };

    struct Ctx
    {
        VssdId tenant = kNoVssd;
        SegKind kind = SegKind::kHostOp;
    };

    struct Tenant
    {
        SimTime slo = kTimeNever;
        std::array<std::uint64_t, kNumStages> window{};
        std::array<std::uint64_t, kNumStages> lifetime{};
        std::uint64_t window_requests = 0;
        std::uint64_t window_violations = 0;
        std::uint64_t requests = 0;
        std::uint64_t violations = 0;
        /** Own-GC wait this window (kGcStall + self-blamed GC
         *  interference) — the verdict engine's kGc numerator. */
        std::uint64_t window_self_gc = 0;
        std::array<std::uint64_t, kNumHarvestNotes> harvest{};
    };

    Tenant &tenant(VssdId id);
    void ensureMatrix(VssdId id);
    void addStage(VssdId id, Stage s, SimTime amount);
    void addBlame(VssdId victim, VssdId culprit, SimTime amount);
    void pushSegment(SegRing &ring, SimTime start, SimTime end,
                     const Ctx &ctx);

    /**
     * Attribute the wait interval [from, to) on @p ring: overlap with
     * a GC segment moves stage time into kGcInterference, overlap with
     * a foreign harvest segment into kHarvestInterference, overlap
     * with a neighbor's host op stays in @p wait_stage but is blamed
     * off-diagonal, and everything else (own ops, evicted history) is
     * self-blamed. Total blame added is exactly (to - from).
     */
    void splitWait(VssdId victim, const SegRing &ring, SimTime from,
                   SimTime to, Stage wait_stage,
                   std::array<SimTime, kNumStages> &stages);

    Config cfg_;
    MetricsRegistry *metrics_ = nullptr;

    std::vector<SegRing> bus_;    ///< one ledger per channel bus
    std::vector<SegRing> chip_;   ///< one ledger per chip

    std::array<Ctx, 8> ctx_{};    ///< arm stack (nesting is shallow)
    std::size_t ctx_depth_ = 0;

    /** Device stages of the page issued under the current host arm
     *  scope, consumed by finishHostPage. */
    std::array<SimTime, kNumStages> scratch_{};
    SimTime scratch_complete_ = 0;
    VssdId scratch_tenant_ = kNoVssd;
    bool scratch_valid_ = false;

    std::vector<Tenant> tenants_;
    std::vector<std::vector<std::uint64_t>> window_blame_;
    std::vector<std::vector<std::uint64_t>> lifetime_blame_;
    std::vector<std::uint64_t> window_inflicted_;
    std::vector<std::uint64_t> lifetime_inflicted_;

    std::vector<SloVerdict> verdicts_;
    std::array<std::uint64_t, kNumVerdictCauses> verdict_counts_{};

    std::vector<SlowRequest> top_slow_;  ///< unsorted bounded pool

    std::uint64_t requests_ = 0;
    std::uint64_t violations_ = 0;
    std::uint64_t sum_mismatches_ = 0;
};

}  // namespace fleetio::obs
