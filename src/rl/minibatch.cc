#include "src/rl/minibatch.h"

#include <cassert>
#include <cmath>
#include <vector>

#include "src/rl/simd.h"

namespace fleetio::rl {

namespace {

using simd::V2;

/** Samples per feature-major block: four two-lane vectors. Buffers pad
 *  the batch to a multiple of it; pad lanes carry zeros and never reach
 *  a parameter gradient. */
constexpr std::size_t kBlock = 8;

// The tile loops below run over compile-time R x C accumulators; they
// are unrolled explicitly so the accumulators live in registers at -O2
// as well as at -O3.

/**
 * y[o][b] = bias[o] + W[o][0] x[0][b] + W[o][1] x[1][b] + ..., summed
 * in ascending input order, for R rows starting at @p o.
 */
template <int R>
void
forwardRows(const double *w, const double *bias, std::size_t in,
            const double *x, double *y, std::size_t bp, std::size_t o)
{
    for (std::size_t b = 0; b < bp; b += kBlock) {
        V2 acc[R][4];
        #pragma GCC unroll 4
        for (int r = 0; r < R; ++r)
            #pragma GCC unroll 4
            for (int c = 0; c < 4; ++c)
                acc[r][c] = simd::set1(bias[o + r]);
        for (std::size_t i = 0; i < in; ++i) {
            const double *xi = x + i * bp + b;
            V2 xv[4];
            #pragma GCC unroll 4
            for (int c = 0; c < 4; ++c)
                xv[c] = simd::load(xi + 2 * c);
            #pragma GCC unroll 4
            for (int r = 0; r < R; ++r) {
                const V2 wv = simd::set1(w[(o + r) * in + i]);
                #pragma GCC unroll 4
                for (int c = 0; c < 4; ++c)
                    acc[r][c] =
                        simd::add(acc[r][c], simd::mul(wv, xv[c]));
            }
        }
        #pragma GCC unroll 4
        for (int r = 0; r < R; ++r)
            #pragma GCC unroll 4
            for (int c = 0; c < 4; ++c)
                simd::store(y + (o + r) * bp + b + 2 * c, acc[r][c]);
    }
}

/** y = W x + b over feature-major x [in][bp] into y [out][bp]. */
void
linearForward(const double *w, const double *bias, std::size_t out,
              std::size_t in, const double *x, double *y, std::size_t bp)
{
    std::size_t o = 0;
    for (; o + 2 <= out; o += 2)
        forwardRows<2>(w, bias, in, x, y, bp, o);
    if (o < out)
        forwardRows<1>(w, bias, in, x, y, bp, o);
}

/**
 * dx[i][b] (=, or += when @p accumulate) 0 + dz[0][b] W[0][i] +
 * dz[1][b] W[1][i] + ..., summed in ascending output order, for R
 * inputs starting at @p i.
 */
template <int R>
void
inputGradCols(const double *w, std::size_t out, std::size_t in,
              const double *dz, double *dx, std::size_t bp,
              std::size_t i, bool accumulate)
{
    for (std::size_t b = 0; b < bp; b += kBlock) {
        V2 acc[R][4];
        #pragma GCC unroll 4
        for (int r = 0; r < R; ++r)
            #pragma GCC unroll 4
            for (int c = 0; c < 4; ++c)
                acc[r][c] = simd::zero();
        for (std::size_t o = 0; o < out; ++o) {
            const double *dzo = dz + o * bp + b;
            V2 gv[4];
            #pragma GCC unroll 4
            for (int c = 0; c < 4; ++c)
                gv[c] = simd::load(dzo + 2 * c);
            #pragma GCC unroll 4
            for (int r = 0; r < R; ++r) {
                const V2 wv = simd::set1(w[o * in + i + r]);
                #pragma GCC unroll 4
                for (int c = 0; c < 4; ++c)
                    acc[r][c] =
                        simd::add(acc[r][c], simd::mul(gv[c], wv));
            }
        }
        #pragma GCC unroll 4
        for (int r = 0; r < R; ++r) {
            double *d = dx + (i + r) * bp + b;
            #pragma GCC unroll 4
            for (int c = 0; c < 4; ++c) {
                const V2 v = accumulate
                                 ? simd::add(simd::load(d + 2 * c),
                                             acc[r][c])
                                 : acc[r][c];
                simd::store(d + 2 * c, v);
            }
        }
    }
}

/** dL/dx of y = W x + b for every input; feature-major dz and dx. */
void
linearInputGrad(const double *w, std::size_t out, std::size_t in,
                const double *dz, double *dx, std::size_t bp,
                bool accumulate)
{
    std::size_t i = 0;
    for (; i + 2 <= in; i += 2)
        inputGradCols<2>(w, out, in, dz, dx, bp, i, accumulate);
    if (i < in)
        inputGradCols<1>(w, out, in, dz, dx, bp, i, accumulate);
}

/**
 * dw[o][i] += dz[o][0] xs[0][i] + dz[o][1] xs[1][i] + ... one sample
 * at a time in sample order, for an R x 2C register tile at (o, i).
 */
template <int R, int C>
void
weightGradTile(double *dw, std::size_t in, const double *dz,
               std::size_t bp, const double *xs, std::size_t n,
               std::size_t o, std::size_t i)
{
    V2 acc[R][C];
    #pragma GCC unroll 4
    for (int r = 0; r < R; ++r)
        #pragma GCC unroll 4
        for (int c = 0; c < C; ++c)
            acc[r][c] = simd::load(dw + (o + r) * in + i + 2 * c);
    for (std::size_t b = 0; b < n; ++b) {
        const double *xb = xs + b * in + i;
        V2 xv[C];
        #pragma GCC unroll 4
        for (int c = 0; c < C; ++c)
            xv[c] = simd::load(xb + 2 * c);
        #pragma GCC unroll 4
        for (int r = 0; r < R; ++r) {
            const V2 g = simd::set1(dz[(o + r) * bp + b]);
            #pragma GCC unroll 4
            for (int c = 0; c < C; ++c)
                acc[r][c] = simd::add(acc[r][c], simd::mul(g, xv[c]));
        }
    }
    #pragma GCC unroll 4
    for (int r = 0; r < R; ++r)
        #pragma GCC unroll 4
        for (int c = 0; c < C; ++c)
            simd::store(dw + (o + r) * in + i + 2 * c, acc[r][c]);
}

/** weightGradTile for R rows across every input column. */
template <int R>
void
weightGradRows(double *dw, std::size_t in, const double *dz,
               std::size_t bp, const double *xs, std::size_t n,
               std::size_t o)
{
    std::size_t i = 0;
    for (; i + 8 <= in; i += 8)
        weightGradTile<R, 4>(dw, in, dz, bp, xs, n, o, i);
    for (; i + 2 <= in; i += 2)
        weightGradTile<R, 1>(dw, in, dz, bp, xs, n, o, i);
    if (i < in) {
        #pragma GCC unroll 4
        for (int r = 0; r < R; ++r) {
            double acc = dw[(o + r) * in + i];
            for (std::size_t b = 0; b < n; ++b)
                acc += dz[(o + r) * bp + b] * xs[b * in + i];
            dw[(o + r) * in + i] = acc;
        }
    }
}

/**
 * Accumulate dW and db of y = W x + b over the first @p n samples of
 * feature-major dz [out][bp], with the layer input sample-major in
 * xs [n][in].
 */
void
linearParamGrad(double *dw, double *db, std::size_t out, std::size_t in,
                const double *dz, std::size_t bp, const double *xs,
                std::size_t n)
{
    std::size_t o = 0;
    for (; o + 2 <= out; o += 2)
        weightGradRows<2>(dw, in, dz, bp, xs, n, o);
    if (o < out)
        weightGradRows<1>(dw, in, dz, bp, xs, n, o);
    for (std::size_t b = 0; b < n; ++b)
        for (std::size_t k = 0; k < out; ++k)
            db[k] += dz[k * bp + b];
}

/** Sample-major rows [n][d] from feature-major fm [d][bp]. */
void
toSampleMajor(const double *fm, std::size_t d, std::size_t bp,
              std::size_t n, double *sm)
{
    for (std::size_t b = 0; b < n; ++b)
        for (std::size_t i = 0; i < d; ++i)
            sm[b * d + i] = fm[i * bp + b];
}

}  // namespace

/**
 * Per-thread buffers. The arena only grows, so once a thread has run
 * its largest minibatch shape no pass allocates.
 */
struct MinibatchPass::Scratch
{
    std::vector<double> arena;
    std::size_t n = 0;   ///< rows in the minibatch
    std::size_t bp = 0;  ///< n padded to a multiple of kBlock

    // Per trunk level l = 0..L (0 = the state, L = the trunk output):
    std::vector<std::size_t> dim;  ///< feature count
    std::vector<double *> fm;      ///< activations [dim][bp]
    std::vector<double *> sm;      ///< activations [n][dim]
    std::vector<double *> grad;    ///< dL/d activation [dim][bp]; l = 0 unused

    std::size_t heads = 0;
    std::size_t logit_rows = 0;     ///< sum of head sizes
    double *logits = nullptr;       ///< [logit_rows][bp]
    double *dlogits = nullptr;      ///< [logit_rows][bp]
    double *value = nullptr;        ///< [bp]
    double *probs = nullptr;        ///< [n][logit_rows]
    double *logp = nullptr;         ///< [n][logit_rows]
    double *head_entropy = nullptr; ///< [n][heads]
    double *dlogp = nullptr;        ///< [n]
    double *dentropy = nullptr;     ///< [n]
    double *dvalue = nullptr;       ///< [n]

    std::vector<std::size_t> actions;  ///< [n][heads]
    std::vector<PolicyNetwork::Eval> evals;
};

MinibatchPass::Scratch &
MinibatchPass::threadScratch()
{
    thread_local Scratch s;
    return s;
}

MinibatchPass::MinibatchPass(PolicyNetwork &net)
    : net_(net), s_(threadScratch())
{
}

void
MinibatchPass::reset(std::size_t n)
{
    assert(n > 0);
    Scratch &s = s_;
    const auto &layers = net_.trunk().layers();
    const std::size_t levels = layers.size() + 1;
    s.n = n;
    s.bp = (n + kBlock - 1) / kBlock * kBlock;
    s.dim.resize(levels);
    s.fm.resize(levels);
    s.sm.resize(levels);
    s.grad.resize(levels);
    s.dim[0] = net_.stateDim();
    for (std::size_t l = 0; l < layers.size(); ++l)
        s.dim[l + 1] = layers[l].outSize();
    const auto &head_sizes = net_.actionSpec().head_sizes;
    s.heads = head_sizes.size();
    s.logit_rows = 0;
    for (std::size_t k : head_sizes)
        s.logit_rows += k;

    std::size_t total = 0;
    for (std::size_t l = 0; l < levels; ++l)
        total += s.dim[l] * (2 * s.bp + n);
    total += s.logit_rows * (2 * s.bp + 2 * n) + s.bp +
             n * (s.heads + 3);
    if (s.arena.size() < total)
        s.arena.resize(total);

    double *p = s.arena.data();
    auto take = [&p](std::size_t count) {
        double *q = p;
        p += count;
        return q;
    };
    for (std::size_t l = 0; l < levels; ++l) {
        s.fm[l] = take(s.dim[l] * s.bp);
        s.sm[l] = take(n * s.dim[l]);
        s.grad[l] = take(s.dim[l] * s.bp);
    }
    s.logits = take(s.logit_rows * s.bp);
    s.dlogits = take(s.logit_rows * s.bp);
    s.value = take(s.bp);
    s.probs = take(n * s.logit_rows);
    s.logp = take(n * s.logit_rows);
    s.head_entropy = take(n * s.heads);
    s.dlogp = take(n);
    s.dentropy = take(n);
    s.dvalue = take(n);

    if (s.actions.size() < n * s.heads)
        s.actions.resize(n * s.heads);
    if (s.evals.size() < n)
        s.evals.resize(n);
}

void
MinibatchPass::setRow(std::size_t b, const double *state,
                      const std::size_t *actions)
{
    Scratch &s = s_;
    assert(b < s.n);
    const std::size_t d = s.dim[0];
    for (std::size_t i = 0; i < d; ++i)
        s.sm[0][b * d + i] = state[i];
    for (std::size_t h = 0; h < s.heads; ++h)
        s.actions[b * s.heads + h] = actions[h];
}

void
MinibatchPass::forward()
{
    Scratch &s = s_;
    const std::size_t n = s.n, bp = s.bp;
    ParameterStore &ps = net_.params();

    // The state rows, feature-major, zero in the pad lanes.
    const std::size_t d0 = s.dim[0];
    for (std::size_t i = 0; i < d0; ++i) {
        double *row = s.fm[0] + i * bp;
        for (std::size_t b = 0; b < n; ++b)
            row[b] = s.sm[0][b * d0 + i];
        for (std::size_t b = n; b < bp; ++b)
            row[b] = 0.0;
    }

    const auto &layers = net_.trunk().layers();
    for (std::size_t l = 0; l < layers.size(); ++l) {
        const Linear &lin = layers[l];
        linearForward(ps.values(lin.weightOffset()),
                      ps.values(lin.biasOffset()), lin.outSize(),
                      lin.inSize(), s.fm[l], s.fm[l + 1], bp);
        double *a = s.fm[l + 1];
        for (std::size_t e = 0; e < lin.outSize() * bp; ++e)
            a[e] = std::tanh(a[e]);
    }

    const double *trunk_out = s.fm[layers.size()];
    std::size_t row = 0;
    for (const Linear &h : net_.heads()) {
        linearForward(ps.values(h.weightOffset()),
                      ps.values(h.biasOffset()), h.outSize(),
                      h.inSize(), trunk_out, s.logits + row * bp, bp);
        row += h.outSize();
    }
    const Linear &vh = net_.valueHead();
    linearForward(ps.values(vh.weightOffset()), ps.values(vh.biasOffset()),
                  1, vh.inSize(), trunk_out, s.value, bp);

    // Per-row categorical statistics, each head as Categorical computes
    // them: softmax and log-softmax share one max and one exp sum.
    const std::size_t kr = s.logit_rows;
    const auto &head_sizes = net_.actionSpec().head_sizes;
    for (std::size_t b = 0; b < n; ++b) {
        PolicyNetwork::Eval ev;
        ev.value = s.value[b];
        double *probs = s.probs + b * kr;
        double *logp = s.logp + b * kr;
        std::size_t off = 0;
        for (std::size_t h = 0; h < s.heads; ++h) {
            const std::size_t k = head_sizes[h];
            const double *lg = s.logits + off * bp + b;
            double m = lg[0];
            for (std::size_t j = 1; j < k; ++j)
                if (m < lg[j * bp])
                    m = lg[j * bp];
            double sum = 0.0;
            for (std::size_t j = 0; j < k; ++j) {
                probs[off + j] = std::exp(lg[j * bp] - m);
                sum += probs[off + j];
            }
            const double log_z = m + std::log(sum);
            double ent = 0.0;
            for (std::size_t j = 0; j < k; ++j) {
                probs[off + j] /= sum;
                logp[off + j] = lg[j * bp] - log_z;
                ent -= probs[off + j] * logp[off + j];
            }
            s.head_entropy[b * s.heads + h] = ent;
            ev.log_prob += logp[off + s.actions[b * s.heads + h]];
            ev.entropy += ent;
            off += k;
        }
        s.evals[b] = ev;
    }
}

const PolicyNetwork::Eval &
MinibatchPass::eval(std::size_t b) const
{
    assert(b < s_.n);
    return s_.evals[b];
}

void
MinibatchPass::setLossGrad(std::size_t b, double dlogp, double dentropy,
                           double dvalue)
{
    assert(b < s_.n);
    s_.dlogp[b] = dlogp;
    s_.dentropy[b] = dentropy;
    s_.dvalue[b] = dvalue;
}

void
MinibatchPass::backward()
{
    Scratch &s = s_;
    const std::size_t n = s.n, bp = s.bp, kr = s.logit_rows;
    ParameterStore &ps = net_.params();
    const auto &layers = net_.trunk().layers();
    const std::size_t top = layers.size();
    for (std::size_t l = 1; l <= top; ++l)
        toSampleMajor(s.fm[l], s.dim[l], bp, n, s.sm[l]);

    // dL/dlogits: dlogp (onehot(a) - p), plus the entropy gradient
    // dentropy (-p (log p + H)) when dentropy != 0. Pad lanes are 0.
    const auto &head_sizes = net_.actionSpec().head_sizes;
    for (std::size_t b = 0; b < n; ++b) {
        const double *probs = s.probs + b * kr;
        const double *logp = s.logp + b * kr;
        const double dlogp = s.dlogp[b], dent = s.dentropy[b];
        std::size_t off = 0;
        for (std::size_t h = 0; h < s.heads; ++h) {
            const std::size_t a = s.actions[b * s.heads + h];
            const double ent = s.head_entropy[b * s.heads + h];
            for (std::size_t j = 0; j < head_sizes[h]; ++j) {
                const double p = probs[off + j];
                double g = dlogp * ((j == a ? 1.0 : 0.0) - p);
                if (dent != 0.0)
                    g += dent * (-p * (logp[off + j] + ent));
                s.dlogits[(off + j) * bp + b] = g;
            }
            off += head_sizes[h];
        }
    }
    for (std::size_t r = 0; r < kr; ++r)
        for (std::size_t b = n; b < bp; ++b)
            s.dlogits[r * bp + b] = 0.0;

    // Heads: parameter grads, and d_trunk = (0 + dx_head0) + dx_head1
    // + ... in head order.
    const std::size_t t = s.dim[top];
    double *d_trunk = s.grad[top];
    for (std::size_t e = 0; e < t * bp; ++e)
        d_trunk[e] = 0.0;
    std::size_t row = 0;
    for (const Linear &h : net_.heads()) {
        const double *dz = s.dlogits + row * bp;
        linearParamGrad(ps.grads(h.weightOffset()),
                        ps.grads(h.biasOffset()), h.outSize(), t, dz,
                        bp, s.sm[top], n);
        linearInputGrad(ps.values(h.weightOffset()), h.outSize(), t, dz,
                        d_trunk, bp, /*accumulate=*/true);
        row += h.outSize();
    }

    // Value head, skipped for rows whose dvalue is 0.
    const Linear &vh = net_.valueHead();
    const double *vw = ps.values(vh.weightOffset());
    double *vdw = ps.grads(vh.weightOffset());
    double *vdb = ps.grads(vh.biasOffset());
    for (std::size_t b = 0; b < n; ++b) {
        const double dv = s.dvalue[b];
        if (dv == 0.0)
            continue;
        vdb[0] += dv;
        const double *x = s.sm[top] + b * t;
        for (std::size_t i = 0; i < t; ++i) {
            vdw[i] += dv * x[i];
            const double dx = 0.0 + dv * vw[i];
            d_trunk[i * bp + b] += dx;
        }
    }

    // Trunk, top layer first: dz = grad (1 - tanh^2), then parameter
    // grads and (above the first layer) dL/d input.
    for (std::size_t l = top; l-- > 0;) {
        const Linear &lin = layers[l];
        const std::size_t out = lin.outSize(), in = lin.inSize();
        double *dz = s.grad[l + 1];
        const double *a = s.fm[l + 1];
        for (std::size_t e = 0; e < out * bp; ++e)
            dz[e] = dz[e] * (1.0 - a[e] * a[e]);
        linearParamGrad(ps.grads(lin.weightOffset()),
                        ps.grads(lin.biasOffset()), out, in, dz, bp,
                        s.sm[l], n);
        if (l > 0)
            linearInputGrad(ps.values(lin.weightOffset()), out, in, dz,
                            s.grad[l], bp, /*accumulate=*/false);
    }
}

}  // namespace fleetio::rl
