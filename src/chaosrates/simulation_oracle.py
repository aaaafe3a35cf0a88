"""Brute-force verification engines, independent of the closed forms.

Nothing in this module trusts the semi-analytic pricing path: prices come
from plain Monte Carlo or deterministic quadrature, and the chaos recursion
is integrated step by step with Euler increments.  Test suites compare
these estimates against the library's closed-form results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coherent_model import CoherentModel, chaos_value, chaos_values, iter_chaos_values, kernel_coefficient
from .incoherent_model import (
    IncoherentModel,
    MultiGaussianState,
    _banded_projection,
    _split_mixed,
    accumulated_gram_matrix,
    incoherent_kernel,
    mixed_order_kernel,
    multi_state_at,
    residual_gram_matrix,
)
from .polynomial_pricer import BondSpec, OptionSpec, SwaptionSpec
from .special_functions import RealPolynomial
from .structure_functions import GaussianState

# samples drawn and evaluated at a time by mc_price; chunked draws from one
# Generator reproduce a single standard_normal draw of the same total shape
MC_CHUNK = 2**14


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
    if payoff_polynomial.degree > 30:
        raise ValueError(f"polynomial degree {payoff_polynomial.degree} exceeds the supported maximum 30")
    norm = 1.0 / math.sqrt(2.0 * math.pi)

    def integrand(z):
        return np.maximum(payoff_polynomial(z), 0.0) * norm * np.exp(-0.5 * z * z)

    cuts = [-12.0, 12.0]
    if payoff_polynomial.degree > 0:
        for root in np.roots(payoff_polynomial.coeffs[::-1]):
            if abs(root.imag) < 1e-9 and -12.0 < root.real < 12.0:
                cuts.append(float(root.real))
    cuts.sort()
    return math.factorial(order) * sum(
        adaptive_simpson(integrand, a, b, tol=1e-11)
        for a, b in zip(cuts, cuts[1:])
    )


def _numerator_coefficients(n: int, targets) -> list:
    """Per target, the weight of X^(2n-2k) for k = 1..n in its bond numerators.

    A target is a tuple of bracket levels q_T whose numerators
    sum_k w_k (1 - q_T^k) X^(2n-2k) add up.
    """
    return [
        [float(kernel_coefficient(n, k)) * sum(1.0 - q_T**k for q_T in target) for k in range(1, n + 1)]
        for target in targets
    ]


def _coherent_sums(n: int, r, q: float, coefs) -> list:
    """Each target's summed bond numerators at sampled r, in one walk of the
    chaos recurrence that folds every even order into one accumulator per
    target, so memory depends neither on n nor on the number of levels."""
    accs = [0.0] * len(coefs)
    for j, x in enumerate(iter_chaos_values(2 * n - 2, r, q)):
        if j % 2 == 0:
            k = n - j // 2
            accs = [acc + c[k - 1] * x for acc, c in zip(accs, coefs)]
    return accs


def _incoherent_kernel_samples(model: IncoherentModel, gram_t, q_t, xs: list) -> np.ndarray:
    """pi_t per sampled state row from the per-term chaos arrays xs.

    gram_t is the residual Gram matrix at t, q_t the per-term brackets and
    xs[i] = X^(0..n_i-1) of term i at the sampled driver values.
    """
    terms = model.terms
    if len(set(model.orders)) == 1:
        n = terms[0].order
        total = 0.0
        for i, ti in enumerate(terms):
            for j, tj in enumerate(terms):
                g = gram_t[i, j]
                inner = sum(
                    g**k / math.factorial(k) * xs[i][n - k] * xs[j][n - k]
                    for k in range(1, n + 1)
                )
                total += ti.weight * tj.weight * inner
        return total
    lin, high, i1 = _split_mixed(model)
    i2 = 1 - i1
    n = high.order
    x2 = xs[i2]
    diag = sum((1.0 - q_t[i2]) ** k / math.factorial(k) * x2[n - k] ** 2 for k in range(1, n + 1))
    cross = 2.0 * lin.weight * high.weight * gram_t[i1, i2] * x2[n - 1]
    return lin.weight**2 * (1.0 - q_t[i1]) + high.weight**2 * diag + cross


def _incoherent_numer_samples(model: IncoherentModel, gram_t, gram_T, q_T, xs: list) -> np.ndarray:
    """E_t[pi_T] per sampled state row, via the banded projection identity.

    gram_T and q_T are the residual Gram matrix and the brackets at T; the
    other arguments are as for _incoherent_kernel_samples.
    """
    terms = model.terms
    if len(set(model.orders)) == 1:
        n = terms[0].order
        total = 0.0
        for i, ti in enumerate(terms):
            for j, tj in enumerate(terms):
                g_T = gram_T[i, j]
                h = gram_t[i, j] - g_T
                inner = 0.0
                for k in range(1, n + 1):
                    inner = inner + g_T**k / math.factorial(k) * _banded_projection(h, n - k, n - k, xs[i], xs[j])
                total += ti.weight * tj.weight * inner
        return total
    lin, high, i1 = _split_mixed(model)
    i2 = 1 - i1
    n = high.order
    x2 = xs[i2]
    h22 = gram_t[i2, i2] - gram_T[i2, i2]
    diag = sum(
        (1.0 - q_T[i2]) ** k / math.factorial(k) * _banded_projection(h22, n - k, n - k, x2, x2)
        for k in range(1, n + 1)
    )
    cross = 2.0 * lin.weight * high.weight * gram_T[i1, i2] * x2[n - 1]
    return lin.weight**2 * (1.0 - q_T[i1]) + high.weight**2 * diag + cross


def _joint_driver_factor(model: IncoherentModel, t: float) -> np.ndarray:
    # F with F F^T the joint covariance of the driver values at t
    vals, vecs = np.linalg.eigh(accumulated_gram_matrix(model, t))
    return vecs * np.sqrt(np.clip(vals, 0.0, None))


def _chunked_mean_and_error(samples: int, chunk_values) -> tuple:
    """Mean and standard error of `samples` payoff values made MC_CHUNK at a time.

    chunk_values(size) draws and evaluates one chunk.  Per-chunk
    (count, mean, M2) triples merge by the pairwise update of Chan, Golub
    and LeVeque, so memory stays constant whatever the sample count.
    """
    count, mean, m2 = 0, 0.0, 0.0
    for start in range(0, samples, MC_CHUNK):
        vals = chunk_values(min(MC_CHUNK, samples - start))
        size = vals.size
        chunk_mean = float(np.mean(vals))
        chunk_m2 = float(np.sum((vals - chunk_mean) ** 2))
        delta = chunk_mean - mean
        total = count + size
        mean += delta * size / total
        m2 += chunk_m2 + delta * delta * count * size / total
        count = total
    return mean, math.sqrt(m2 / (count - 1)) / math.sqrt(count)


def _mc_coherent(model: CoherentModel, payoff, samples: int, rng):
    n = model.n
    fact = math.factorial(n)
    if isinstance(payoff, BondSpec):
        q = model.sf.q_at(payoff.maturity)
        targets = [(q,)]

        def value(pi_T):
            return pi_T

    elif isinstance(payoff, OptionSpec):
        t, T, strike = payoff.option_maturity, payoff.bond_maturity, payoff.strike
        q, q_T = model.sf.q_at(t), model.sf.q_at(T)
        if q == 0:
            return max((1.0 - q_T**n) - strike, 0.0), 0.0
        targets = [(q_T,), (q,)]

        def value(numer, pi):
            return np.maximum(numer - strike * pi, 0.0)

    elif isinstance(payoff, SwaptionSpec):
        t, strike = payoff.option_maturity, payoff.strike
        q = model.sf.q_at(t)
        q_pay = tuple(model.sf.q_at(T) for T in payoff.payment_dates)
        if q == 0:
            fixed = strike * sum(1.0 - q_i**n for q_i in q_pay)
            return max((1.0 - q**n) - (1.0 - q_pay[-1] ** n) - fixed, 0.0), 0.0
        targets = [(q,), (q_pay[-1],), q_pay]

        def value(pi, numer_last, fixed_numers):
            return np.maximum(pi - numer_last - strike * fixed_numers, 0.0)

    else:
        raise ValueError(f"unsupported payoff type {type(payoff).__name__}")
    sd = math.sqrt(q)
    coefs = _numerator_coefficients(n, targets)

    def chunk_values(size):
        r = sd * rng.standard_normal(size)
        return fact * value(*_coherent_sums(n, r, q, coefs))

    return _chunked_mean_and_error(samples, chunk_values)


def _mc_incoherent(model: IncoherentModel, payoff, samples: int, rng):
    zero_state = multi_state_at(model, 0.0, [0.0] * len(model.terms))
    if len(set(model.orders)) == 1:
        pi_0 = incoherent_kernel(model, zero_state)
    else:
        pi_0 = mixed_order_kernel(model, zero_state)
    if isinstance(payoff, BondSpec):
        t, dates = payoff.maturity, ()

        def value(pi, numers):
            return pi

    elif isinstance(payoff, OptionSpec):
        t, dates, strike = payoff.option_maturity, (payoff.bond_maturity,), payoff.strike

        def value(pi, numers):
            return np.maximum(numers[0] - strike * pi, 0.0)

    elif isinstance(payoff, SwaptionSpec):
        t, dates, strike = payoff.option_maturity, payoff.payment_dates, payoff.strike

        def value(pi, numers):
            return np.maximum(pi - numers[-1] - strike * sum(numers), 0.0)

    else:
        raise ValueError(f"unsupported payoff type {type(payoff).__name__}")
    terms = model.terms
    gram_t = residual_gram_matrix(model, t)
    q_t = [term.sf.q_at(t) for term in terms]
    levels = [(residual_gram_matrix(model, T), [term.sf.q_at(T) for term in terms]) for T in dates]
    factor = _joint_driver_factor(model, t)

    def chunk_values(size):
        r = rng.standard_normal((size, len(terms))) @ factor.T
        # each term's chaos arrays, once for the kernel and every numerator
        xs = [chaos_values(term.order - 1, r[:, i], q_t[i]) for i, term in enumerate(terms)]
        pi = _incoherent_kernel_samples(model, gram_t, q_t, xs)
        numers = [_incoherent_numer_samples(model, gram_t, gram_T, q_T, xs) for gram_T, q_T in levels]
        return value(pi, numers) / pi_0

    return _chunked_mean_and_error(samples, chunk_values)


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


def mc_conditional_variance(model, state, samples: int, seed: int):
    """Estimate the conditional variance of the terminal chaos variable.

    Uses mean(X_inf^2) - (E_t[X_inf])^2 with the conditional mean known in
    closed form (martingale property), halving the estimator noise relative
    to a plain sample variance.
    """
    if samples < 2:
        raise ValueError(f"need at least 2 samples, got {samples}")
    rng = np.random.default_rng(seed)
    if isinstance(model, CoherentModel) and isinstance(state, GaussianState):
        x_t = chaos_value(model.n, state.R, state.Q)
        resid = math.sqrt(1.0 - state.Q)
        r_inf = state.R + resid * rng.standard_normal(samples)
        squares = chaos_value(model.n, r_inf, 1.0) ** 2
        est = float(np.mean(squares)) - x_t**2
    elif isinstance(model, IncoherentModel) and isinstance(state, MultiGaussianState):
        gram = np.asarray(state.residual_gram)
        vals, vecs = np.linalg.eigh(gram)
        factor = vecs * np.sqrt(np.clip(vals, 0.0, None))
        delta = rng.standard_normal((samples, gram.shape[0])) @ factor.T
        x_inf = np.zeros(samples)
        x_t = 0.0
        for i, term in enumerate(model.terms):
            x_inf += term.weight * chaos_value(term.order, state.values[i] + delta[:, i], 1.0)
            x_t += term.weight * chaos_value(term.order, state.values[i], state.brackets[i])
        squares = x_inf**2
        est = float(np.mean(squares)) - x_t**2
    else:
        raise ValueError("model/state pairing not supported")
    se = float(np.std(squares, ddof=1) / math.sqrt(samples))
    return est, se
