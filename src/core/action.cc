#include "src/core/action.h"

#include <cassert>
#include <cmath>

namespace fleetio {

ActionMapper::ActionMapper(const FleetIoConfig &cfg)
    : harvest_levels_(cfg.harvest_bw_levels),
      harvestable_levels_(cfg.harvestable_bw_levels),
      tier_head_(cfg.qos_tier_head)
{
    assert(!harvest_levels_.empty());
    assert(!harvestable_levels_.empty());
}

rl::ActionSpec
ActionMapper::spec() const
{
    rl::ActionSpec spec{{harvest_levels_.size(),
                         harvestable_levels_.size(),
                         std::size_t(kNumPriorities)}};
    if (tier_head_)
        // fleetio-analyze: allow(hot-alloc): spec() runs once per agent attach, not per decision
        spec.head_sizes.push_back(kNumQosTiers);
    return spec;
}

AgentAction
ActionMapper::decode(const std::vector<std::size_t> &indices) const
{
    assert(indices.size() == (tier_head_ ? 4u : 3u));
    AgentAction a;
    a.harvest_bw_mbps =
        harvest_levels_[std::min(indices[0],
                                 harvest_levels_.size() - 1)];
    a.harvestable_bw_mbps =
        harvestable_levels_[std::min(indices[1],
                                     harvestable_levels_.size() - 1)];
    a.priority = Priority(std::min<std::size_t>(indices[2],
                                                kNumPriorities - 1));
    if (tier_head_) {
        a.tier = QosTier(std::min<std::size_t>(indices[3],
                                               kNumQosTiers - 1));
    }
    return a;
}

std::size_t
ActionMapper::nearestLevel(const std::vector<double> &levels,
                           double value) const
{
    std::size_t best = 0;
    double best_d = std::abs(levels[0] - value);
    for (std::size_t i = 1; i < levels.size(); ++i) {
        const double d = std::abs(levels[i] - value);
        if (d < best_d) {
            best_d = d;
            best = i;
        }
    }
    return best;
}

std::vector<std::size_t>
ActionMapper::encode(const AgentAction &action) const
{
    std::vector<std::size_t> out = {
        nearestLevel(harvest_levels_, action.harvest_bw_mbps),
        nearestLevel(harvestable_levels_, action.harvestable_bw_mbps),
        std::size_t(action.priority)};
    if (tier_head_) {
        // fleetio-analyze: allow(hot-alloc): once per agent per decision window, control plane
        out.push_back(std::size_t(action.tier));
    }
    return out;
}

}  // namespace fleetio
