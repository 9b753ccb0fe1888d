/**
 * @file
 * Actor-critic network for a FleetIO agent: a shared tanh MLP trunk
 * (hidden [50, 50], Table 3) with factored categorical action heads —
 * Harvest level, Make_Harvestable level, Set_Priority level — and a
 * scalar value head.
 */
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "src/rl/categorical.h"
#include "src/rl/matrix.h"
#include "src/rl/mlp.h"
#include "src/sim/rng.h"

namespace fleetio::rl {

/** Sizes of the factored discrete action heads. */
struct ActionSpec
{
    /** e.g. {5, 5, 3}: harvest levels, make-harvestable levels,
     *  priority levels. */
    std::vector<std::size_t> head_sizes;

    std::size_t numHeads() const { return head_sizes.size(); }
};

/**
 * The policy + value network.
 *
 * The joint action distribution factorizes over heads:
 * log P(a) = sum_i log P_i(a_i). backward() must be called directly
 * after act()/evaluate() on the same state — it consumes the cached
 * activations of that forward pass.
 */
class PolicyNetwork
{
  public:
    struct ActResult
    {
        std::vector<std::size_t> actions;
        double log_prob = 0.0;
        double value = 0.0;
        double entropy = 0.0;  ///< summed over heads (watchdog signal)
    };

    struct Eval
    {
        double log_prob = 0.0;
        double entropy = 0.0;
        double value = 0.0;
    };

    PolicyNetwork(std::size_t state_dim, const ActionSpec &spec,
                  const std::vector<std::size_t> &hidden,
                  std::uint64_t seed);

    std::size_t stateDim() const { return state_dim_; }
    const ActionSpec &actionSpec() const { return spec_; }
    std::size_t numParams() const { return store_.size(); }

    /** Sample (or greedily pick) an action for @p state. */
    ActResult act(const Vector &state, Rng &rng,
                  bool deterministic = false);

    /** Log-prob/entropy/value of @p actions under the current policy.
     *  Caches activations for a following backward(). */
    Eval evaluate(const Vector &state,
                  const std::vector<std::size_t> &actions);

    /**
     * Accumulate gradients of
     *   L = dlogp * logP(a) + dentropy * H + dvalue * V
     * into the parameter store. @pre the immediately preceding forward
     * (act or evaluate) used the same @p state and @p actions.
     *
     * Training runs through MinibatchPass (src/rl/minibatch.h); this
     * per-sample path is the reference it must match bit for bit.
     */
    void backward(const std::vector<std::size_t> &actions, double dlogp,
                  double dentropy, double dvalue);

    ParameterStore &params() { return store_; }
    const ParameterStore &params() const { return store_; }

    /** Layers, for the minibatch kernel (src/rl/minibatch.h). */
    const Mlp &trunk() const { return trunk_; }
    const std::vector<Linear> &heads() const { return heads_; }
    const Linear &valueHead() const { return value_head_; }

    bool save(const std::string &path) const
    {
        return store_.saveToFile(path);
    }
    bool load(const std::string &path)
    {
        return store_.loadFromFile(path);
    }

    /** Copy parameter values from another identically-shaped network. */
    void copyParamsFrom(const PolicyNetwork &other);

  private:
    void forwardTrunk(const Vector &state);

    std::size_t state_dim_;
    ActionSpec spec_;
    ParameterStore store_;
    Rng init_rng_;
    Mlp trunk_;
    std::vector<Linear> heads_;
    Linear value_head_;

    // Forward caches.
    Vector trunk_out_;
    std::vector<Vector> head_logits_;
    double value_cache_ = 0.0;
};

}  // namespace fleetio::rl
