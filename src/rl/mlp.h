/**
 * @file
 * Feed-forward building blocks: a Linear layer with manual backprop and
 * an Mlp trunk of tanh-activated Linear layers (paper Table 3: hidden
 * layer sizes [50, 50]).
 */
#pragma once

#include <cstddef>
#include <vector>

#include "src/rl/matrix.h"
#include "src/sim/rng.h"

namespace fleetio::rl {

/**
 * Fully-connected layer y = W x + b, parameters living in a shared
 * ParameterStore. Gradients accumulate into the store's grad buffer.
 */
class Linear
{
  public:
    /**
     * Allocates (in + 1) * out parameters in @p store and initializes W
     * with orthogonal-ish scaled-normal values (std = gain/sqrt(in)).
     */
    Linear(ParameterStore &store, std::size_t in, std::size_t out,
           Rng &rng, double gain = 1.0);

    std::size_t inSize() const { return in_; }
    std::size_t outSize() const { return out_; }

    /** Store offsets of W (row-major [out][in]) and b. */
    std::size_t weightOffset() const { return w_off_; }
    std::size_t biasOffset() const { return b_off_; }

    /** y = W x + b. */
    Vector forward(const Vector &x) const;

    /**
     * Backprop: given dL/dy and the forward input x, accumulate dW and
     * db into the store and return dL/dx.
     */
    Vector backward(const Vector &dy, const Vector &x);

  private:
    ParameterStore *store_;
    std::size_t in_, out_;
    std::size_t w_off_, b_off_;
};

/**
 * A stack of Linear layers with tanh activations after every layer
 * (including the last — callers wanting raw logits add their own head).
 * Caches activations from the latest forward() for backward().
 */
class Mlp
{
  public:
    Mlp(ParameterStore &store, std::size_t in,
        const std::vector<std::size_t> &hidden, Rng &rng);

    std::size_t inSize() const { return in_; }
    std::size_t outSize() const { return out_; }
    const std::vector<Linear> &layers() const { return layers_; }

    /** Forward pass; caches pre/post-activation values. */
    Vector forward(const Vector &x);

    /**
     * Backward through the cached activations; accumulates parameter
     * grads and returns dL/dinput. Must follow a forward() on the same
     * input.
     */
    Vector backward(const Vector &dout);

  private:
    std::size_t in_, out_;
    std::vector<Linear> layers_;
    // Cache: inputs_[i] is the input to layer i; acts_[i] is tanh output.
    std::vector<Vector> inputs_;
    std::vector<Vector> acts_;
};

}  // namespace fleetio::rl
