/**
 * @file
 * The simulator's one instrumentation interface (DESIGN.md §9): each
 * obs::Probe method is a simulator event, fanned out to whichever
 * consumers the testbed installed (trace recorder, attribution hub,
 * metrics registry). Consumers only observe, so a run is byte-identical
 * with any subset of them installed.
 */
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/obs/attribution.h"
#include "src/obs/trace.h"

namespace fleetio::obs {

class Counter;
class MetricsRegistry;
class WindowedHistogram;

/** gSB trace event → attribution harvest note; false for the events
 *  attribution does not tally (create, destroy). */
bool harvestNoteFor(TraceEventType type, HarvestNote &note);

/** One per testbed, single-threaded like the simulation. Events are
 *  reached through FLEETIO_PROBE / FLEETIO_PROBE_SCOPE (lint R3). */
class FLEETIO_THREAD_CONFINED Probe
{
  public:
    /** Install the consumers (any may be null). */
    void install(TraceRecorder *tracer, AttributionHub *attribution,
                 MetricsRegistry *metrics);
    bool active() const { return tracer_ || attr_ || metrics_; }

    /** Event calls so far (a scope counts enter and exit): the null
     *  tests a run without a probe executes instead. */
    std::uint64_t calls() const { return calls_; }

    // --- I/O requests (IoScheduler) -----------------------------------

    void ioSubmit(SimTime now, VssdId v, std::uint64_t req, IoType type,
                  std::uint32_t npages, SimTime *stages, SimTime *hint)
    {
        if (TraceRecorder *t = trace())
            t->ioSubmit(now, v, req, type, npages);
        if (attr_ != nullptr)
            attr_->resetRequest(stages, hint);
    }
    void ioDispatch(SimTime now, VssdId v, std::uint64_t req,
                    ChannelId ch, SimTime wait)
    {
        if (TraceRecorder *t = trace())
            t->ioDispatch(now, v, req, ch, wait);
    }
    /** The page issued under the current host scope is reserved. */
    void ioPageIssued(SimTime gc_stall, SimTime queue_wait,
                      SimTime *stages, SimTime *hint)
    {
        if (AttributionHub *a = attribute())
            a->finishHostPage(gc_stall, queue_wait, stages, hint);
    }
    /** A read served without a device op (unwritten LPA). */
    void ioZeroFill(VssdId v, SimTime latency, SimTime complete,
                    SimTime *stages, SimTime *hint)
    {
        if (AttributionHub *a = attribute())
            a->zeroFillPage(v, latency, complete, stages, hint);
    }
    /** A request's last page completed (also feeds "t<id>.*" metrics). */
    void ioComplete(SimTime now, VssdId v, std::uint64_t req, IoType type,
                    SimTime submit, std::uint64_t bytes,
                    const SimTime *stages);

    // --- device reservations (FlashDevice; @p gc = copyback) ----------

    void flashRead(ChannelId ch, std::size_t chip, SimTime now,
                   SimTime chip_free, SimTime read_done, SimTime retry,
                   SimTime bus_free, SimTime complete, bool gc)
    {
        if (AttributionHub *a = attribute())
            a->noteRead(ch, chip, now, chip_free, read_done, retry,
                        bus_free, complete);
        if (gc && tracer_ != nullptr)
            tracer_->gcOp(now, TraceEventType::kGcRead, ch);
    }
    void flashProgram(ChannelId ch, std::size_t chip, SimTime now,
                      SimTime bus_free, SimTime xfer_done,
                      SimTime chip_free, SimTime complete, bool gc)
    {
        if (AttributionHub *a = attribute())
            a->noteProgram(ch, chip, now, bus_free, xfer_done, chip_free,
                           complete);
        if (gc && tracer_ != nullptr)
            tracer_->gcOp(now, TraceEventType::kGcProgram, ch);
    }
    void flashErase(ChannelId ch, std::size_t chip, SimTime now,
                    SimTime chip_free, SimTime complete)
    {
        if (AttributionHub *a = attribute())
            a->noteErase(ch, chip, now, chip_free, complete);
        if (tracer_ != nullptr)
            tracer_->gcOp(now, TraceEventType::kGcErase, ch);
    }
    /** Power loss voided every in-flight reservation. */
    void flashCrash()
    {
        if (AttributionHub *a = attribute())
            a->crashReset();
    }
    /** Attribution arm scope (use FLEETIO_PROBE_SCOPE). */
    void enterScope(VssdId tenant, SegKind kind)
    {
        if (AttributionHub *a = attribute())
            a->pushContext(tenant, kind);
    }
    void exitScope()
    {
        if (AttributionHub *a = attribute())
            a->popContext();
    }

    // --- GC, gSBs, tenants, control loop ------------------------------

    void gcBatch(SimTime now, VssdId v, ChannelId ch, std::uint32_t npages)
    {
        if (TraceRecorder *t = trace())
            t->gcBatch(now, v, ch, npages);
    }
    /** gSB lifecycle step (TraceEventType::kGsb*). */
    void gsbEvent(SimTime now, TraceEventType type, VssdId tenant,
                  std::uint64_t gsb_id, std::uint32_t channels);
    void tenantAdded(VssdId v, const std::string &name, SimTime slo)
    {
        if (TraceRecorder *t = trace())
            t->setTrackName(tenantTrack(v), name);
        if (attr_ != nullptr)
            attr_->setSlo(v, slo);
    }
    void windowBoundary(SimTime now, std::uint64_t index)
    {
        if (TraceRecorder *t = trace())
            t->windowBoundary(now, index);
    }
    void counterSample(SimTime now, std::uint16_t track, CounterKind kind,
                       double value)
    {
        if (TraceRecorder *t = trace())
            t->counterSample(now, track, kind, value);
    }
    void agentDecide(SimTime now, VssdId v, std::uint64_t action_code)
    {
        if (TraceRecorder *t = trace())
            t->agentDecide(now, v, action_code);
    }
    void agentReward(SimTime now, VssdId v, double reward)
    {
        if (TraceRecorder *t = trace())
            t->agentReward(now, v, reward);
    }
    void agentTrip(SimTime now, VssdId v, std::uint64_t reason)
    {
        if (TraceRecorder *t = trace())
            t->agentTrip(now, v, reason);
    }

  private:
    /** Count one event call and return the consumer (maybe null). */
    TraceRecorder *trace()
    {
        ++calls_;
        return tracer_;
    }
    AttributionHub *attribute()
    {
        ++calls_;
        return attr_;
    }

    /** Cached per-tenant metric handles ("t<id>.*"). */
    struct TenantMetrics
    {
        WindowedHistogram *latency = nullptr;
        Counter *read_bytes = nullptr;
        Counter *write_bytes = nullptr;
        Counter *requests = nullptr;
    };

    TraceRecorder *tracer_ = nullptr;
    AttributionHub *attr_ = nullptr;
    MetricsRegistry *metrics_ = nullptr;
    std::vector<TenantMetrics> tenant_metrics_;  // [vssd]
    std::uint64_t calls_ = 0;
};

/** RAII attribution arm scope; null probe = no-op. */
class ProbeScope
{
  public:
    ProbeScope(Probe *probe, VssdId tenant, SegKind kind) : probe_(probe)
    {
        if (probe_ != nullptr) [[unlikely]]
            probe_->enterScope(tenant, kind);
    }
    ~ProbeScope()
    {
        if (probe_ != nullptr) [[unlikely]]
            probe_->exitScope();
    }
    ProbeScope(const ProbeScope &) = delete;
    ProbeScope &operator=(const ProbeScope &) = delete;

  private:
    Probe *probe_;
};

}  // namespace fleetio::obs

/**
 * FLEETIO_PROBE evaluates @p probe_expr once and makes the event call
 * (arguments included) only when it is non-null; FLEETIO_PROBE_SCOPE
 * arms attribution until the end of the enclosing block. Under
 * -DFLEETIO_OBS_NO_PROBES both compile out; the call stays type-checked
 * in dead code so the two builds cannot drift apart.
 */
#if defined(FLEETIO_OBS_NO_PROBES)
#define FLEETIO_PROBE(probe_expr, call)                                   \
    do {                                                                  \
        if (false)                                                        \
            (probe_expr)->call;                                           \
    } while (0)
#define FLEETIO_PROBE_SCOPE(probe_expr, tenant, kind) ((void)0)
#else
#define FLEETIO_PROBE(probe_expr, call)                                   \
    do {                                                                  \
        ::fleetio::obs::Probe *fio_probe__ = (probe_expr);                \
        if (fio_probe__ != nullptr) [[unlikely]]                          \
            fio_probe__->call;                                            \
    } while (0)
#define FLEETIO_PROBE_SCOPE(probe_expr, tenant, kind)                     \
    ::fleetio::obs::ProbeScope fio_probe_scope__                          \
    {                                                                     \
        (probe_expr), (tenant), (kind)                                    \
    }
#endif
