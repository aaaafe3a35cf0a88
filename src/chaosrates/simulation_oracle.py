"""Brute-force verification engines, independent of the closed forms.

Nothing here reuses the semi-analytic pricing assembly: prices come from
plain Monte Carlo, the kernel from an exact Gauss-Hermite rule, and the
chaos recursion from Euler steps.  quadrature_price alone integrates the
pricer's own payoff polynomial, so it checks only the positive-part integral.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coherent_model import CoherentModel, chaos_value, kernel_coefficient
from .incoherent_model import IncoherentModel, IncoherentTerm, MultiGaussianState, check_state_size, scaled_weights
from .incoherent_model import accumulated_gram_matrix, residual_gram_matrix
from .polynomial_pricer import MAX_DEGREE, BondSpec, OptionSpec, SwaptionSpec
from .special_functions import RealPolynomial, left_sum
from .structure_functions import GaussianState

# samples drawn and evaluated at a time by mc_price; chunked draws from one
# Generator reproduce a single standard_normal draw of the same total shape
MC_CHUNK = 2**14

MAX_NODES = 21**3  # the largest gauss_hermite_variance rule: order 20, three terms


@dataclass(frozen=True)
class ChaosPaths:
    """Discretised paths of X^(0..m) on a shared Brownian path per sample.

    values[j, k] is path j of X^(k); realized_brackets[j] is the running
    sum of phi^2 dW^2 along path j (the discrete bracket of R).
    """

    times: np.ndarray
    values: np.ndarray
    realized_brackets: np.ndarray


def simulate_chaos_sde(
    model: CoherentModel, m: int, horizon: float, dt: float, seed: int, count: int = 1
) -> ChaosPaths:
    """Euler integration of the nested recursion dX^(j) = X^(j-1) phi dW."""
    if not model.sf.is_density:
        raise ValueError("atom-family structure functions have no density to integrate; use finite_dim")
    if not dt > 0:
        raise ValueError(f"time step must be positive, got {dt}")
    if not horizon > dt:
        raise ValueError(f"horizon must exceed the time step, got {horizon}")
    if m < 1:
        raise ValueError(f"target order must be at least 1, got {m}")
    if count < 1:
        raise ValueError(f"path count must be positive, got {count}")
    steps = int(round(horizon / dt))
    times = dt * np.arange(steps + 1)
    phi = np.sqrt(model.sf.squared_density(times[:-1]))
    rng = np.random.default_rng(seed)
    dw = math.sqrt(dt) * rng.standard_normal((count, steps))
    values = np.empty((count, m + 1, steps + 1))
    values[:, 0, :] = 1.0
    zeros = np.zeros((count, 1))
    for j in range(1, m + 1):
        incr = values[:, j - 1, :-1] * phi * dw
        values[:, j, :] = np.concatenate([zeros, np.cumsum(incr, axis=1)], axis=1)
    realized = np.concatenate([zeros, np.cumsum(phi**2 * dw**2, axis=1)], axis=1)
    return ChaosPaths(times=times, values=values, realized_brackets=realized)


def adaptive_simpson(f, a: float, b: float, tol: float = 1e-10, max_depth: int = 50) -> float:
    """Adaptive Simpson integral of a vectorised f on [a, b], absolute tol.

    Keeps a flat queue of active segments, splitting them in lockstep and
    banking Richardson-corrected values once the local error fits within the
    segment's width-proportional share of the tolerance.  The queue starts
    from segments of at most unit width: one coarse Simpson pair over a wide
    interval can agree with itself by accident and stop the pass too early.
    """
    span = float(b - a)
    if span == 0.0:
        return 0.0
    edges = np.linspace(float(a), float(b), max(1, math.ceil(abs(span))) + 1)
    lo = edges[:-1]
    hi = edges[1:]
    flo, fmid, fhi = f(lo), f(0.5 * (lo + hi)), f(hi)
    s = (hi - lo) / 6.0 * (flo + 4.0 * fmid + fhi)
    total = 0.0
    for depth in range(max_depth + 1):
        if lo.size == 0:
            break
        mid = 0.5 * (lo + hi)
        lmid = 0.5 * (lo + mid)
        rmid = 0.5 * (mid + hi)
        flmid, frmid = f(lmid), f(rmid)
        s_left = (mid - lo) / 6.0 * (flo + 4.0 * flmid + fmid)
        s_right = (hi - mid) / 6.0 * (fmid + 4.0 * frmid + fhi)
        err = s_left + s_right - s
        done = (np.abs(err) <= 15.0 * tol * (hi - lo) / span) | (depth == max_depth)
        total += float(np.sum((s_left + s_right + err / 15.0)[done]))
        keep = ~done
        lo = np.concatenate([lo[keep], mid[keep]])
        hi = np.concatenate([mid[keep], hi[keep]])
        flo = np.concatenate([flo[keep], fmid[keep]])
        fhi = np.concatenate([fmid[keep], fhi[keep]])
        fmid = np.concatenate([flmid[keep], frmid[keep]])
        s = np.concatenate([s_left[keep], s_right[keep]])
    return total


def quadrature_price(payoff_polynomial: RealPolynomial, order: int) -> float:
    """n! * integral of (p(z))+ against the standard normal density.

    Truncation at |z| = 12 discards Gaussian mass below 2e-32.  The domain
    is split at the payoff's real roots (companion-matrix eigenvalues) so
    the adaptive pass never has to discover a kink, or a sign bump narrower
    than its probe spacing, on its own.
    """
    if payoff_polynomial.degree > MAX_DEGREE:
        raise ValueError(f"polynomial degree {payoff_polynomial.degree} exceeds the supported maximum {MAX_DEGREE}")
    norm = 1.0 / math.sqrt(2.0 * math.pi)

    def integrand(z):
        return np.maximum(payoff_polynomial(z), 0.0) * norm * np.exp(-0.5 * z * z)

    # leading terms below eps of the largest term anywhere on |z| <= 12 cannot
    # move a cut inside the range; np.roots would divide by them (a subnormal
    # leading coefficient at a near-zero expiry fills its matrix with inf)
    coeffs = list(payoff_polynomial.coeffs)
    reach = [abs(c) * 12.0**k for k, c in enumerate(coeffs)]
    while len(coeffs) > 1 and reach[len(coeffs) - 1] < np.finfo(float).eps * max(reach):
        coeffs.pop()
    cuts = [-12.0, 12.0]
    if len(coeffs) > 1:
        for root in np.roots(coeffs[::-1]):
            if abs(root.imag) < 1e-9 and -12.0 < root.real < 12.0:
                cuts.append(float(root.real))
    cuts.sort()
    return math.factorial(order) * left_sum(
        adaptive_simpson(integrand, a, b, tol=1e-11)
        for a, b in zip(cuts, cuts[1:])
    )


def _payoff_legs(payoff) -> tuple:
    """(t, weight, legs, clipped): the payoff at t, per unit of pi_0, as

        weight * pi_t + sum_{(T, b) in legs} b * E_t[pi_T],

    positive part taken when clipped.  A bond pays pi_T at t = T; a call
    on the T-bond struck at K is E_t[pi_T] - K pi_t; a payer swaption is
    pi_t - E_t[pi_{T_N}] - K sum_i E_t[pi_{T_i}].
    """
    if isinstance(payoff, BondSpec):
        return payoff.maturity, 1.0, [], False
    if isinstance(payoff, OptionSpec):
        return payoff.option_maturity, -payoff.strike, [(payoff.bond_maturity, 1.0)], True
    if isinstance(payoff, SwaptionSpec):
        dates, strike = payoff.payment_dates, payoff.strike
        return payoff.option_maturity, 1.0, [(dates[-1], -1.0)] + [(T, -strike) for T in dates], True
    raise ValueError(f"unsupported payoff type {type(payoff).__name__}")


def _gram_factor(gram) -> np.ndarray:
    # F with F F^T = gram, for a positive semidefinite Gram matrix
    vals, vecs = np.linalg.eigh(gram)
    return vecs * np.sqrt(np.clip(vals, 0.0, None))


def _chunked_mean_and_error(samples: int, chunk_values) -> tuple:
    """Mean and standard error of `samples` payoff values made MC_CHUNK at a time.

    chunk_values(size) draws and evaluates one chunk into an array that is
    overwritten here.  Per-chunk (count, mean, M2) triples merge by the
    pairwise update of Chan, Golub and LeVeque, so memory stays constant
    whatever the sample count.  Callers keep their chunk arrays for the
    whole price: freeing and reallocating them per chunk returns the memory
    to the system and faults fresh pages back in, which once cost more
    than the arithmetic.
    """
    count, mean, m2 = 0, 0.0, 0.0
    for start in range(0, samples, MC_CHUNK):
        vals = chunk_values(min(MC_CHUNK, samples - start))
        size = vals.size
        chunk_mean = float(np.mean(vals))
        vals -= chunk_mean
        vals *= vals
        chunk_m2 = float(np.sum(vals))
        delta = chunk_mean - mean
        total = count + size
        mean += delta * size / total
        m2 += chunk_m2 + delta * delta * count * size / total
        count = total
    return mean, math.sqrt(m2 / (count - 1)) / math.sqrt(count)


def _mc_coherent(model: CoherentModel, payoff, samples: int, rng):
    """The payoff folded into one chaos-coefficient form before any draw.

    pi_t = sum_k w_k (1 - q_t^k) X^(2n-2k) and E_t[pi_T] is the same sum with
    q_T, so the whole payoff, times n!, is sum_j c_j X^(2j) with c_j =
    n! w_(n-j) sum_legs b (1 - q^(n-j)).  Only even orders occur, and with
    R_t = sqrt(q_t) Z, X^(2j) = q_t^j He_2j(Z) / (2j)!, so each chunk sums
    a_j He_2j(Z) with a_j = c_j q_t^j / (2j)!.  The even Hermite
    polynomials in y = Z^2 obey (DLMF 18.7.19 in Laguerre form)

        He_2j+2 = (y - 4j - 1) He_2j - 2j (2j - 1) He_2j-2,

    so Clenshaw's backward recurrence

        b_j = a_j + (y - 4j - 1) b_(j+1) - 2 (j+1) (2j+1) b_(j+2)

    from b_n = 0 and b_(n-1) = a_(n-1), both kept as scalars, ends in the
    sum b_0: at most five array passes per order over four buffers
    allocated once per price.  A form with no random term (q_t = 0, or
    every a_j = 0 for j >= 1, as at n = 1) is its X^(0) coefficient, priced
    with a standard error of 0.0 and no draw.
    """
    n = model.n
    t, weight, legs, clipped = _payoff_legs(payoff)
    q = model.sf.q_at(t)
    levels = [(q, weight)] + [(model.sf.q_at(T), b) for T, b in legs]
    total = left_sum(b for _, b in levels)
    # n! w_k is exact before rounding, and sum b (1 - q^k) is summed as
    # total - sum b q^k, so nearby levels cancel in q^k, not in 1 - q^k
    a = [
        float(math.factorial(n) * kernel_coefficient(n, n - j))
        * (total - left_sum(b * q_T ** (n - j) for q_T, b in levels))
        * q**j
        / math.factorial(2 * j)
        for j in range(n)
    ]
    if not any(a[1:]):
        return (max(a[0], 0.0) if clipped else a[0]), 0.0
    ys, nexts, afters, works = np.empty((4, min(samples, MC_CHUNK)))

    def chunk_values(size):
        y = rng.standard_normal(out=ys[:size])
        np.multiply(y, y, out=y)
        # b_(n-2) from the scalars b_(n-1) = a_(n-1) and b_n = 0
        b_next, b_after, work = nexts[:size], afters[:size], works[:size]
        np.subtract(y, 4 * n - 7, out=b_next)
        b_next *= a[n - 1]
        b_next += a[n - 2]
        if n > 2:
            # b_(n-3), whose b_(n-1) is still the scalar a_(n-1)
            j = n - 3
            np.subtract(y, 4 * j + 1, out=b_after)
            b_after *= b_next
            b_after += a[j] - 2 * (j + 1) * (2 * j + 1) * a[n - 1]
            b_next, b_after = b_after, b_next
        for j in range(n - 4, -1, -1):
            # b_after becomes b_j, then the two swap names
            np.subtract(y, 4 * j + 1, out=work)
            work *= b_next
            b_after *= 2 * (j + 1) * (2 * j + 1)
            np.subtract(work, b_after, out=b_after)
            b_after += a[j]
            b_next, b_after = b_after, b_next
        if clipped:
            np.maximum(b_next, 0.0, out=b_next)
        return b_next

    return _chunked_mean_and_error(samples, chunk_values)


def _incoherent_form(model: IncoherentModel, t: float, weight: float, legs) -> tuple:
    """The payoff of an incoherent model as one quadratic form in chaos values.

    With g = int_t^inf phi_i phi_j and X_i^(m) = X_t^(m)(phi_i), splitting
    each X_inf^(n_i) into time-t chaos times chaos of the increments after t
    gives, for any orders,

        pi_t     = sum_ij c_i c_j sum_{s=1..min(n_i,n_j)} g^s / s! X_i^(n_i-s) X_j^(n_j-s),
        E_t[pi_T] = the same with g^s replaced by g^s - h^s,  h = g - g_T,

    since E_t[pi_T] = pi_t - Var_t(E_T[X]) and E_T[X] carries the window
    products h.  g^s - h^s is summed as g_T sum_k g^k h^(s-1-k), free of
    cancellation when T is far.  Returns (constant, products) divided by
    pi_0: products holds (coefficient, i, a, j, b) for X_i^(a) X_j^(b) with
    a <= b, pairs i < j counted twice, and a = 0 meaning X^(0) = 1.  The
    weights are scaled_weights, whose power-of-two scale cancels exactly in
    the ratio.
    """
    terms = model.terms
    c = scaled_weights(model)[1]
    grams = [residual_gram_matrix(model, T) for T, _ in legs]
    gram_t, gram_0 = residual_gram_matrix(model, t), residual_gram_matrix(model, 0.0)
    # at t = 0 every X^(m >= 1) vanishes: only s = n_i = n_j survives
    pi_0 = left_sum(
        c[i] * c[j] * gram_0[i, j] ** ti.order / math.factorial(ti.order)
        for i, ti in enumerate(terms)
        for j, tj in enumerate(terms)
        if ti.order == tj.order
    )
    if not pi_0 > 0:
        raise ValueError("the terms cancel: the time-0 pricing kernel is not positive")
    constant, products = 0.0, []
    for i, ti in enumerate(terms):
        for j in range(i, len(terms)):
            tj = terms[j]
            g = gram_t[i, j]
            scale = (1.0 if i == j else 2.0) * c[i] * c[j] / pi_0
            for s in range(1, min(ti.order, tj.order) + 1):
                value = weight * g**s
                for (_, leg_weight), gram_T in zip(legs, grams):
                    g_T = gram_T[i, j]
                    h = g - g_T
                    value += leg_weight * g_T * left_sum(g**k * h ** (s - 1 - k) for k in range(s))
                coef = scale * value / math.factorial(s)
                (a, u), (b, v) = sorted([(ti.order - s, i), (tj.order - s, j)])
                if b == 0:
                    constant += coef
                else:
                    products.append((coef, u, a, v, b))
    return constant, products


def _mc_form(constant, products, gram, brackets, clipped: bool, samples: int, rng):
    """Mean and standard error of constant + sum c X_i^(a) X_j^(b), clipped or not.

    products holds (c, i, a, j, b), a = 0 meaning X^(0) = 1, and gram is
    the drivers' joint covariance.  Only the K_read terms that products
    read at some X^(m >= 1) get a driver: with F F^T their Gram
    sub-matrix, each chunk draws a (size, K_read) block z, the same draw a
    full-size block would hold, writes R_i = sum_k F_ik z[:, k] into
    term i's X^(1) buffer and walks (m + 1) X^(m+1) = R_i X^(m) -
    q_i X^(m-1), q_i = brackets[i], in place up to the highest order of
    term i that products read.  Every buffer is allocated once per call; a
    term read only at X^(0) gets no buffer and no normal.
    """
    top = [0] * len(brackets)
    for _, i, a, j, b in products:
        top[i], top[j] = max(top[i], a), max(top[j], b)
    read = [i for i, m in enumerate(top) if m]
    factor = _gram_factor(np.asarray(gram)[np.ix_(read, read)])
    width = min(samples, MC_CHUNK)
    acc, prod = np.empty((2, width))
    z = np.empty((width, len(read)))
    # xs[i][m - 1] holds X^(m) of term i for m = 1..top[i]
    xs = [np.empty((m, width)) for m in top]

    def chunk_values(size):
        zs = rng.standard_normal(out=z[:size])
        out, tmp = acc[:size], prod[:size]
        for i, row in zip(read, factor):
            q, x = brackets[i], xs[i][:, :size]
            r = np.multiply(zs[:, 0], row[0], out=x[0])
            for k in range(1, len(read)):
                r += np.multiply(zs[:, k], row[k], out=tmp)
            if top[i] > 1:
                # X^(2) = (R^2 - q) / 2, as X^(0) = 1
                np.multiply(r, r, out=x[1])
                x[1] -= q
                x[1] /= 2
            for m in range(2, top[i]):
                np.multiply(r, x[m - 1], out=x[m])
                x[m] -= np.multiply(x[m - 2], q, out=tmp)
                x[m] /= m + 1
        out.fill(constant)
        for c, i, a, j, b in products:
            if a == 0:
                np.multiply(xs[j][b - 1, :size], c, out=tmp)
            else:
                np.multiply(xs[i][a - 1, :size], xs[j][b - 1, :size], out=tmp)
                tmp *= c
            out += tmp
        if clipped:
            np.maximum(out, 0.0, out=out)
        return out

    return _chunked_mean_and_error(samples, chunk_values)


def _mc_incoherent(model: IncoherentModel, payoff, samples: int, rng):
    """The payoff folded by _incoherent_form, sampled by _mc_form at the
    drivers' joint covariance at t.  The form reads an order-1 term only
    through X^(0) = 1, so only terms of order >= 2 draw.  A form with no
    random term (q_i = 0 in every term of order >= 2, so every driver it
    reads vanishes, or every order 1, so no product is left) is its
    constant, priced with a standard error of 0.0 and no draw.
    """
    t, weight, legs, clipped = _payoff_legs(payoff)
    constant, products = _incoherent_form(model, t, weight, legs)
    q_t = [term.sf.q_at(t) for term in model.terms]
    if not any(q for q, term in zip(q_t, model.terms) if term.order > 1):
        return (max(constant, 0.0) if clipped else constant), 0.0
    gram = accumulated_gram_matrix(model, t)
    return _mc_form(constant, products, gram, q_t, clipped, samples, rng)


def mc_price(model, payoff, samples: int, seed: int):
    """Plain Monte Carlo price E[pi_t payoff] / pi_0 with its standard error."""
    if samples < 2:
        raise ValueError(f"need at least 2 samples, got {samples}")
    rng = np.random.default_rng(seed)
    if isinstance(model, CoherentModel):
        return _mc_coherent(model, payoff, samples, rng)
    if isinstance(model, IncoherentModel):
        return _mc_incoherent(model, payoff, samples, rng)
    raise ValueError(f"unsupported model type {type(model).__name__}")


def gauss_hermite_variance(model, state) -> float:
    """pi_t = Var_t(X_inf) = E_t[(X_inf - X_t)^2] by Gauss-Hermite, exact up to rounding.

    With Y = F Z, F F^T the residual Gram, X_inf = sum_i c_i X^(n_i)(R_i +
    Y_i, 1) has degree N, the largest order, in each normal Z_k: a tensor
    product of (N + 1)-node rules over the K terms, exact to degree 2N + 1,
    integrates (X_inf - X_t)^2.  More than MAX_NODES nodes raise ValueError.
    Only chaos_value's recurrence enters, and np.sum, never BLAS, sums the
    nodes.  A coherent (model, state) is the one-term pair.  OverflowError
    means the variance itself is beyond the float range (scaled_weights);
    with every residual variance zero the result is exactly 0.0.
    """
    if isinstance(model, CoherentModel) and isinstance(state, GaussianState):
        model = IncoherentModel((IncoherentTerm(1.0, model.n, model.sf),))
        state = MultiGaussianState(state.t, (state.R,), (state.Q,), ((1.0 - state.Q,),))
    elif not (isinstance(model, IncoherentModel) and isinstance(state, MultiGaussianState)):
        raise ValueError("model/state pairing not supported")
    check_state_size(model, state)
    terms, top = model.terms, max(model.orders)
    if not any(state.residual_gram[i][i] for i in range(len(terms))):
        return 0.0
    if (top + 1) ** len(terms) > MAX_NODES:
        raise ValueError(f"a rule of {top + 1}^{len(terms)} nodes exceeds the supported {MAX_NODES}")
    nodes, weights = np.polynomial.hermite_e.hermegauss(top + 1)
    z = [axis.ravel() for axis in np.meshgrid(*[nodes] * len(terms), indexing="ij")]
    w = math.prod(np.meshgrid(*[weights / math.sqrt(2.0 * math.pi)] * len(terms), indexing="ij")).ravel()
    e, c = scaled_weights(model)
    factor = _gram_factor(np.asarray(state.residual_gram))
    x_inf = left_sum(
        ci * chaos_value(term.order, r + left_sum(f * zk for f, zk in zip(row, z)), 1.0)
        for ci, term, r, row in zip(c, terms, state.values, factor)
    )
    x_t = left_sum(ci * chaos_value(term.order, r, q) for ci, term, r, q in zip(c, terms, state.values, state.brackets))
    variance = float(np.sum(w * (x_inf - x_t) ** 2))
    if not math.isfinite(variance):  # ldexp raises only on a finite overflow
        raise OverflowError("conditional variance lies beyond the float range at this state")
    return math.ldexp(variance, 2 * e)
