/**
 * @file
 * Stride scheduling (Waldspurger & Weihl) for proportional-share dispatch
 * among vSSDs, used by the software-isolation baseline so high-intensity
 * tenants cannot starve low-intensity ones (paper §4.1).
 */
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "src/sim/types.h"

namespace fleetio {

/**
 * Deterministic proportional-share selector. Each vSSD has a ticket
 * count; its stride is kStrideScale / tickets, and its pass advances by
 * stride x work on every dispatch. The next dispatch goes to the
 * eligible vSSD with the minimum pass.
 */
class StrideScheduler
{
  public:
    static constexpr double kStrideScale = 1 << 20;

    /** Register or update a vSSD's ticket allotment. */
    void setTickets(VssdId id, double tickets);

    /** Remove a vSSD from scheduling. */
    void remove(VssdId id);

    /** Current pass value (for tests/telemetry). */
    double pass(VssdId id) const;

    /**
     * Charge @p work units of service to @p id (advances its pass).
     * Unknown ids are registered with 1 ticket.
     */
    void charge(VssdId id, double work = 1.0);

    /**
     * Pick the candidate with the minimum pass.
     * @return index into @p candidates, or SIZE_MAX when empty.
     */
    std::size_t pickMin(const std::vector<VssdId> &candidates) const;

  private:
    struct Entry
    {
        double stride = kStrideScale;
        double pass = 0.0;
    };

    Entry &entry(VssdId id);
    const Entry *find(VssdId id) const
    {
        return id < entries_.size() && entries_[id] ? &*entries_[id]
                                                    : nullptr;
    }

    /** Indexed by VssdId; empty = not registered. */
    std::vector<std::optional<Entry>> entries_;
    double global_pass_ = 0.0;
};

}  // namespace fleetio
