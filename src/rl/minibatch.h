/**
 * @file
 * One minibatch forward/backward pass over a PolicyNetwork: the single
 * training path behaviour cloning (FleetIoAgent::imitate) and PPO
 * (PpoTrainer::update) share.
 *
 * Activations are feature-major ([feature][sample]) so the forward
 * pass and dL/dx vectorise across samples; the weight-gradient pass is
 * register-tiled over (output, input) and loops over samples. Every
 * floating-point element is computed in the same order as the
 * per-sample PolicyNetwork::evaluate + backward reference, so trained
 * weights are bit-identical to it (DESIGN.md, "Numerics contract of
 * src/rl").
 */
#pragma once

#include <cstddef>

#include "src/rl/policy_network.h"

namespace fleetio::rl {

/**
 * A minibatch pass bound to one network. Buffers are per-thread scratch
 * shared by every network the thread trains, so only one pass per
 * thread may be between reset() and backward() at a time.
 *
 * Use: reset(n); setRow() for every row; forward(); read eval(); set
 * every row's loss coefficients with setLossGrad(); backward().
 */
class MinibatchPass
{
  public:
    explicit MinibatchPass(PolicyNetwork &net);

    /** Start a minibatch of @p n >= 1 rows. */
    void reset(std::size_t n);

    /**
     * Row @p b: @p state holds stateDim() values and @p actions one
     * index per head. Both are copied.
     */
    void setRow(std::size_t b, const double *state,
                const std::size_t *actions);

    /** Forward every row; fills eval(). */
    void forward();

    /** Row @p b's log-prob, entropy and value — evaluate()'s values. */
    const PolicyNetwork::Eval &eval(std::size_t b) const;

    /** Row @p b's loss coefficients, as PolicyNetwork::backward takes
     *  them. Every row must be set before backward(). */
    void setLossGrad(std::size_t b, double dlogp, double dentropy,
                     double dvalue);

    /**
     * Accumulate the minibatch's gradients into the network's
     * ParameterStore: bit-identical to evaluate() + backward() on each
     * row in row order.
     */
    void backward();

  private:
    struct Scratch;
    static Scratch &threadScratch();

    PolicyNetwork &net_;
    Scratch &s_;
};

}  // namespace fleetio::rl
