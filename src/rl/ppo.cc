#include "src/rl/ppo.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numeric>
#include <vector>

#include "src/rl/minibatch.h"

namespace fleetio::rl {

PpoTrainer::PpoTrainer(PolicyNetwork &net)
    : PpoTrainer(net, Config{})
{
}

PpoTrainer::PpoTrainer(PolicyNetwork &net, const Config &cfg)
    : net_(net), cfg_(cfg), opt_(net.params(), cfg.adam),
      rng_(cfg.seed)
{
}

PpoTrainer::Stats
PpoTrainer::update(RolloutBuffer &rollout, double last_value)
{
    Stats stats;
    const std::size_t n = rollout.size();
    if (n == 0)
        return stats;

    rollout.computeGae(cfg_.gamma, cfg_.gae_lambda, last_value,
                       /*normalize=*/true);

    std::vector<std::size_t> order(n);
    std::iota(order.begin(), order.end(), 0);

    double sum_pl = 0.0, sum_vl = 0.0, sum_h = 0.0, sum_kl = 0.0;
    std::size_t count = 0;
    MinibatchPass pass(net_);

    for (int epoch = 0; epoch < cfg_.epochs; ++epoch) {
        // Fisher-Yates shuffle with our deterministic RNG.
        for (std::size_t i = n; i-- > 1;) {
            const std::size_t j = rng_.uniformInt(std::uint64_t(i + 1));
            std::swap(order[i], order[j]);
        }

        for (std::size_t start = 0; start < n;
             start += cfg_.minibatch) {
            const std::size_t end =
                std::min(start + cfg_.minibatch, n);
            const std::size_t rows = end - start;
            const double inv_b = 1.0 / double(rows);
            net_.params().zeroGrads();

            pass.reset(rows);
            for (std::size_t k = 0; k < rows; ++k) {
                const Transition &t = rollout[order[start + k]];
                assert(t.state.size() == net_.stateDim());
                assert(t.actions.size() ==
                       net_.actionSpec().numHeads());
                pass.setRow(k, t.state.data(), t.actions.data());
            }
            pass.forward();

            for (std::size_t k = 0; k < rows; ++k) {
                const std::size_t i = order[start + k];
                const Transition &t = rollout[i];
                const double adv = rollout.advantage(i);
                const double ret = rollout.returnAt(i);

                const auto &ev = pass.eval(k);
                const double ratio = std::exp(ev.log_prob - t.log_prob);
                const double surr1 = ratio * adv;
                const double clipped =
                    std::clamp(ratio, 1.0 - cfg_.clip, 1.0 + cfg_.clip);
                const double surr2 = clipped * adv;

                // Policy gradient flows only through the unclipped
                // branch when it is the active minimum.
                double dlogp = 0.0;
                if (surr1 <= surr2)
                    dlogp = -adv * ratio * inv_b;

                const double verr = ev.value - ret;
                const double dvalue = cfg_.vf_coef * verr * inv_b;
                const double dentropy = -cfg_.ent_coef * inv_b;

                pass.setLossGrad(k, dlogp, dentropy, dvalue);

                sum_pl += -std::min(surr1, surr2);
                sum_vl += 0.5 * verr * verr;
                sum_h += ev.entropy;
                sum_kl += t.log_prob - ev.log_prob;
                ++count;
            }
            pass.backward();

            // Non-finite gradient guard: a single NaN/inf component
            // would propagate through Adam into every weight. Drop the
            // minibatch instead and count the event (zeroGrads at the
            // top of the next minibatch clears the poisoned buffer).
            bool finite = true;
            for (double gv : net_.params().rawGrads()) {
                if (!std::isfinite(gv)) {
                    finite = false;
                    break;
                }
            }
            if (finite)
                opt_.step();
            else
                ++skipped_updates_;
        }
    }

    if (count > 0) {
        stats.policy_loss = sum_pl / double(count);
        stats.value_loss = sum_vl / double(count);
        stats.entropy = sum_h / double(count);
        stats.approx_kl = sum_kl / double(count);
        stats.samples = count;
    }
    return stats;
}

}  // namespace fleetio::rl
