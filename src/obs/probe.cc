#include "src/obs/probe.h"

#include "src/obs/metrics.h"

namespace fleetio::obs {

bool
harvestNoteFor(TraceEventType type, HarvestNote &note)
{
    switch (type) {
    case TraceEventType::kGsbHarvest: note = HarvestNote::kCreated; break;
    case TraceEventType::kGsbReclaim: note = HarvestNote::kReclaim; break;
    case TraceEventType::kGsbRevoke:
    case TraceEventType::kGsbForceRelease:
        note = HarvestNote::kRevoked;
        break;
    default: return false;
    }
    return true;
}

void
Probe::install(TraceRecorder *tracer, AttributionHub *attribution,
               MetricsRegistry *metrics)
{
    tracer_ = tracer;
    attr_ = attribution;
    metrics_ = metrics;
    tenant_metrics_.clear();
}

void
Probe::ioComplete(SimTime now, VssdId v, std::uint64_t req, IoType type,
                  SimTime submit, std::uint64_t bytes,
                  const SimTime *stages)
{
    const SimTime latency = now - submit;
    if (TraceRecorder *t = trace())
        t->ioComplete(now, v, req, type, latency);
    if (attr_ != nullptr)
        attr_->recordRequest(v, type == IoType::kWrite, req, submit, now,
                             stages);
    if (metrics_ == nullptr)
        return;
    if (tenant_metrics_.size() <= v)
        tenant_metrics_.resize(v + 1);
    TenantMetrics &tm = tenant_metrics_[v];
    if (tm.latency == nullptr) {
        std::string prefix = "t";
        prefix += std::to_string(v);
        prefix += '.';
        tm.latency = &metrics_->histogram(prefix + "latency_ns");
        tm.read_bytes = &metrics_->counter(prefix + "bytes_read");
        tm.write_bytes = &metrics_->counter(prefix + "bytes_written");
        tm.requests = &metrics_->counter(prefix + "requests");
    }
    tm.latency->record(latency);
    (type == IoType::kRead ? tm.read_bytes : tm.write_bytes)->add(bytes);
    tm.requests->add(1);
}

void
Probe::gsbEvent(SimTime now, TraceEventType type, VssdId tenant,
                std::uint64_t gsb_id, std::uint32_t channels)
{
    if (TraceRecorder *t = trace())
        t->gsbEvent(now, type, tenant, gsb_id, channels);
    HarvestNote note;
    if (attr_ != nullptr && harvestNoteFor(type, note))
        attr_->noteHarvest(tenant, note);
}

}  // namespace fleetio::obs
