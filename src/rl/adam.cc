#include "src/rl/adam.h"

#include <cmath>

#include "src/rl/simd.h"

namespace fleetio::rl {

Adam::Adam(ParameterStore &store) : Adam(store, Config{}) {}

Adam::Adam(ParameterStore &store, const Config &cfg)
    : store_(&store), cfg_(cfg)
{
    m_.assign(store.size(), 0.0);
    v_.assign(store.size(), 0.0);
}

bool
Adam::restoreState(const Vector &m, const Vector &v, std::uint64_t t)
{
    if (m.size() != v.size())
        return false;
    m_ = m;
    v_ = v;
    t_ = t;
    return true;
}

void
Adam::step()
{
    Vector &g = store_->rawGrads();
    Vector &p = store_->rawValues();

    // Lazily grow state if layers were added after construction.
    if (m_.size() < p.size()) {
        m_.resize(p.size(), 0.0);
        v_.resize(p.size(), 0.0);
    }

    if (cfg_.max_grad_norm > 0) {
        double norm_sq = 0.0;
        for (double gv : g)
            norm_sq += gv * gv;
        const double norm = std::sqrt(norm_sq);
        if (norm > cfg_.max_grad_norm) {
            const double scale = cfg_.max_grad_norm / norm;
            for (double &gv : g)
                gv *= scale;
        }
    }

    ++t_;
    const double bc1 = 1.0 - std::pow(cfg_.beta1, double(t_));
    const double bc2 = 1.0 - std::pow(cfg_.beta2, double(t_));
    // Two parameters per iteration, each lane with the scalar tail's
    // operation order (sqrtpd / divpd round as sqrtsd / divsd do).
    using namespace simd;
    const V2 b1 = set1(cfg_.beta1), c1 = set1(1.0 - cfg_.beta1);
    const V2 b2 = set1(cfg_.beta2), c2 = set1(1.0 - cfg_.beta2);
    const V2 vbc1 = set1(bc1), vbc2 = set1(bc2);
    const V2 lr = set1(cfg_.lr), eps = set1(cfg_.eps);
    std::size_t i = 0;
    for (; i + 2 <= p.size(); i += 2) {
        const V2 gi = load(&g[i]);
        const V2 mi = add(mul(b1, load(&m_[i])), mul(c1, gi));
        const V2 vi = add(mul(b2, load(&v_[i])), mul(mul(c2, gi), gi));
        store(&m_[i], mi);
        store(&v_[i], vi);
        const V2 m_hat = div(mi, vbc1);
        const V2 v_hat = div(vi, vbc2);
        store(&p[i], sub(load(&p[i]), div(mul(lr, m_hat),
                                          add(sqrt(v_hat), eps))));
    }
    for (; i < p.size(); ++i) {
        m_[i] = cfg_.beta1 * m_[i] + (1.0 - cfg_.beta1) * g[i];
        v_[i] = cfg_.beta2 * v_[i] + (1.0 - cfg_.beta2) * g[i] * g[i];
        const double m_hat = m_[i] / bc1;
        const double v_hat = v_[i] / bc2;
        p[i] -= cfg_.lr * m_hat / (std::sqrt(v_hat) + cfg_.eps);
    }
}

}  // namespace fleetio::rl
