/**
 * @file
 * Numerics contract of the RL training path (DESIGN.md, "Numerics
 * contract of src/rl").
 *
 * NumericsOracle runs the minibatch kernel (src/rl/minibatch.h) and
 * the per-sample reference — PolicyNetwork::evaluate + backward, one
 * row after another — on the same seeded minibatches and requires
 * memcmp-equal evaluations and gradients; Adam's two-lane update is
 * checked the same way against its scalar formula.
 *
 * NumericsGolden pins the trained weights of fixed-seed agents: a
 * change of summation order, an FMA contraction or a reassociating
 * compiler flag anywhere in behaviour cloning, PPO or Adam changes the
 * hash. The constants were recorded with the per-sample training loops
 * the minibatch kernel replaced.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "src/core/agent.h"
#include "src/rl/adam.h"
#include "src/rl/minibatch.h"
#include "src/rl/policy_network.h"
#include "src/sim/rng.h"

namespace fleetio {
namespace {

/** FNV-1a over the bytes of a value sequence. */
class Fnv
{
  public:
    void add(const void *p, std::size_t n)
    {
        const auto *b = static_cast<const unsigned char *>(p);
        for (std::size_t i = 0; i < n; ++i) {
            h_ ^= b[i];
            h_ *= 0x100000001b3ull;
        }
    }
    void add(const rl::Vector &v)
    {
        const std::uint64_t n = v.size();
        add(&n, sizeof n);
        add(v.data(), v.size() * sizeof(double));
    }
    void add(std::uint64_t x) { add(&x, sizeof x); }
    std::uint64_t value() const { return h_; }

  private:
    std::uint64_t h_ = 0xcbf29ce484222325ull;
};

rl::Vector
randomState(Rng &rng, std::size_t dim)
{
    rl::Vector s(dim);
    for (double &x : s)
        x = rng.uniform(-1.0, 1.0);
    return s;
}

bool
sameBits(const rl::Vector &a, const rl::Vector &b)
{
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) ==
               0;
}

bool
sameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof a) == 0;
}

/** One seeded minibatch row with PPO-style loss coefficients. */
struct Row
{
    rl::Vector state;
    std::vector<std::size_t> actions;
    double log_ratio = 0.0;  ///< log(pi_new / pi_old), some clip
    double advantage = 0.0;
    double ret = 0.0;
};

std::vector<Row>
randomRows(Rng &rng, const rl::ActionSpec &spec, std::size_t dim,
           std::size_t n)
{
    std::vector<Row> rows(n);
    for (Row &r : rows) {
        r.state = rl::Vector(dim);
        for (double &x : r.state)
            x = rng.uniform(-2.0, 2.0);
        for (std::size_t k : spec.head_sizes)
            r.actions.push_back(std::size_t(rng.uniformInt(k)));
        r.log_ratio = rng.uniform(-0.6, 0.6);
        r.advantage = rng.uniform(-2.0, 2.0);
        r.ret = rng.uniform(-3.0, 3.0);
    }
    return rows;
}

struct Coeffs
{
    double dlogp, dentropy, dvalue;
    bool clipped;
};

/** PpoTrainer's per-row coefficients. Rows whose id is divisible by 5
 *  get dvalue == 0, which the value head must skip. */
Coeffs
ppoCoeffs(const rl::PolicyNetwork::Eval &ev, const Row &r,
          std::size_t row_id, double inv_b, double ent_coef)
{
    // The ratio spreads over [e^-0.6, e^0.6] and clips outside
    // [0.8, 1.2].
    const double ratio = std::exp(r.log_ratio);
    const double surr1 = ratio * r.advantage;
    const double surr2 = std::clamp(ratio, 0.8, 1.2) * r.advantage;
    Coeffs c{};
    c.clipped = !(surr1 <= surr2);
    c.dlogp = c.clipped ? 0.0 : -r.advantage * ratio * inv_b;
    c.dentropy = -ent_coef * inv_b;
    c.dvalue = row_id % 5 == 0 ? 0.0 : 0.5 * (ev.value - r.ret) * inv_b;
    return c;
}

struct OracleStats
{
    std::size_t clipped = 0;
    std::size_t zero_dvalue = 0;
};

/**
 * Both paths over @p n seeded rows (split into minibatches of at most
 * 32, the last one partial); every minibatch's evaluations and
 * gradients must match bit for bit.
 */
OracleStats
checkAgainstReference(const rl::ActionSpec &spec,
                      const std::vector<std::size_t> &hidden,
                      std::size_t n, double ent_coef, std::uint64_t seed)
{
    constexpr std::size_t kDim = 33;
    rl::PolicyNetwork batched(kDim, spec, hidden, seed);
    rl::PolicyNetwork reference(kDim, spec, hidden, seed);
    Rng rng(seed * 31 + 7);
    // Move the weights off their init so the heads are not near-uniform.
    for (std::size_t i = 0; i < batched.numParams(); ++i) {
        const double w = rng.uniform(-0.4, 0.4);
        batched.params().rawValues()[i] += w;
        reference.params().rawValues()[i] += w;
    }
    const std::vector<Row> rows = randomRows(rng, spec, kDim, n);

    OracleStats stats;
    rl::MinibatchPass pass(batched);
    for (std::size_t start = 0; start < n; start += 32) {
        const std::size_t m = std::min<std::size_t>(32, n - start);
        const double inv_b = 1.0 / double(m);
        batched.params().zeroGrads();
        reference.params().zeroGrads();

        pass.reset(m);
        for (std::size_t k = 0; k < m; ++k)
            pass.setRow(k, rows[start + k].state.data(),
                        rows[start + k].actions.data());
        pass.forward();
        for (std::size_t k = 0; k < m; ++k) {
            const Row &r = rows[start + k];
            const auto ev = reference.evaluate(r.state, r.actions);
            const auto &got = pass.eval(k);
            EXPECT_TRUE(sameBits(ev.log_prob, got.log_prob)) << k;
            EXPECT_TRUE(sameBits(ev.entropy, got.entropy)) << k;
            EXPECT_TRUE(sameBits(ev.value, got.value)) << k;
            const Coeffs c = ppoCoeffs(ev, r, start + k, inv_b, ent_coef);
            stats.clipped += c.clipped ? 1 : 0;
            stats.zero_dvalue += c.dvalue == 0.0 ? 1 : 0;
            reference.backward(r.actions, c.dlogp, c.dentropy, c.dvalue);
            pass.setLossGrad(k, c.dlogp, c.dentropy, c.dvalue);
        }
        pass.backward();
        EXPECT_TRUE(sameBits(batched.params().rawGrads(),
                             reference.params().rawGrads()))
            << "minibatch at row " << start << " of " << n;
    }
    return stats;
}

TEST(NumericsOracle, ThreeHeadsPaperShapeWithPartialMinibatch)
{
    // PPO's 40-step rollout: one minibatch of 32, one of 8.
    const OracleStats s =
        checkAgainstReference(rl::ActionSpec{{5, 5, 3}}, {50, 50}, 40,
                              /*ent_coef=*/0.01, 1);
    EXPECT_GT(s.clipped, 0u);
    EXPECT_GT(s.zero_dvalue, 0u);
}

TEST(NumericsOracle, FourHeadsOddShapeAndRaggedBatches)
{
    // The QoS-tier head, an odd hidden shape, batch sizes that leave
    // pad lanes (32 + 9) and a single-row batch.
    checkAgainstReference(rl::ActionSpec{{5, 5, 3, 3}}, {37, 21}, 41,
                          0.01, 2);
    checkAgainstReference(rl::ActionSpec{{5, 5, 3, 3}}, {37, 21}, 1,
                          0.01, 3);
}

TEST(NumericsOracle, BehaviourCloningCoefficients)
{
    // Behaviour cloning passes dentropy == 0: the entropy gradient is
    // skipped, not added as zeros.
    checkAgainstReference(rl::ActionSpec{{5, 5, 3}}, {50, 50}, 32, 0.0,
                          4);
    checkAgainstReference(rl::ActionSpec{{2}}, {3}, 17, 0.05, 5);
}

TEST(NumericsOracle, AdamMatchesScalarFormula)
{
    // An odd length exercises the scalar tail after the two-lane loop.
    rl::ParameterStore store;
    store.allocate(1001);
    rl::Adam::Config cfg;
    cfg.lr = 3e-3;
    cfg.max_grad_norm = 0.0;
    rl::Adam opt(store, cfg);
    Rng rng(17);
    rl::Vector p = store.rawValues(), m(p.size()), v(p.size());
    for (std::uint64_t t = 1; t <= 5; ++t) {
        for (double &g : store.rawGrads())
            g = rng.uniform(-1.0, 1.0);
        const rl::Vector &g = store.rawGrads();
        const double bc1 = 1.0 - std::pow(cfg.beta1, double(t));
        const double bc2 = 1.0 - std::pow(cfg.beta2, double(t));
        for (std::size_t i = 0; i < p.size(); ++i) {
            m[i] = cfg.beta1 * m[i] + (1.0 - cfg.beta1) * g[i];
            v[i] = cfg.beta2 * v[i] + (1.0 - cfg.beta2) * g[i] * g[i];
            const double m_hat = m[i] / bc1;
            const double v_hat = v[i] / bc2;
            p[i] -= cfg.lr * m_hat / (std::sqrt(v_hat) + cfg.eps);
        }
        opt.step();
        EXPECT_TRUE(sameBits(store.rawValues(), p)) << "step " << t;
        EXPECT_TRUE(sameBits(opt.firstMoments(), m)) << "step " << t;
        EXPECT_TRUE(sameBits(opt.secondMoments(), v)) << "step " << t;
    }
}

/**
 * Take a fixed-seed agent through @p imitations behaviour-cloning calls
 * and one PPO update over a 40-step rollout (one full and one partial
 * minibatch), then hash its parameters and both optimizers' moments
 * and step counts.
 */
std::uint64_t
trainedHash(const FleetIoConfig &cfg, int imitations)
{
    FleetIoAgent agent(0, cfg, 2024);
    agent.setTraining(true);
    Rng rng(99);
    const auto &heads = agent.mapper().spec().head_sizes;
    for (int n = 0; n < imitations; ++n) {
        const rl::Vector s = randomState(rng, cfg.stateDim());
        std::vector<std::size_t> acts;
        for (std::size_t k : heads)
            acts.push_back(std::size_t(rng.uniformInt(k)));
        agent.imitate(s, acts, rng.uniform(-5.0, 5.0));
    }
    for (int n = 0; n < 40; ++n) {
        agent.decide(randomState(rng, cfg.stateDim()));
        agent.completeTransition(rng.uniform(-1.0, 1.0));
    }
    const auto stats = agent.train(randomState(rng, cfg.stateDim()));
    EXPECT_EQ(stats.samples, 4u * 40u);

    const rl::Adam *bc = agent.imitationOptimizer();
    const rl::Adam &ppo = agent.trainer().optimizer();
    EXPECT_NE(bc, nullptr);
    if (bc == nullptr)
        return 0;
    EXPECT_EQ(bc->t(), 2u * std::uint64_t(imitations - 31));
    EXPECT_EQ(ppo.t(), 8u);

    Fnv h;
    h.add(agent.policy().params().rawValues());
    h.add(bc->firstMoments());
    h.add(bc->secondMoments());
    h.add(bc->t());
    h.add(ppo.firstMoments());
    h.add(ppo.secondMoments());
    h.add(ppo.t());
    return h.value();
}

TEST(NumericsGolden, DefaultAgentWeightsArePinned)
{
    FleetIoConfig cfg;
    EXPECT_EQ(trainedHash(cfg, 96), 0xea4da0a46d38459eull);
}

TEST(NumericsGolden, QosTierAgentWeightsArePinned)
{
    // Four heads, an odd hidden shape and a rollout that ends on a
    // partial minibatch.
    FleetIoConfig cfg;
    cfg.qos_tier_head = true;
    cfg.hidden_sizes = {37, 21};
    EXPECT_EQ(trainedHash(cfg, 64), 0x40cda6a6071952e4ull);
}

}  // namespace
}  // namespace fleetio
