"""Hermite polynomials, the normal law, and truncated Gaussian moments.

Conventions
-----------
Hermite polynomials use the probabilists' normalisation,

    H_0(x) = 1,  H_1(x) = x,  H_2(x) = x**2 - 1,  ...

with generating function exp(tx - t**2/2) = sum_n t**n H_n(x)/n! and
orthogonality E[H_n(Z) H_m(Z)] = n! delta_nm under a standard normal Z.
Many references use the physicists' normalisation (H_2 = 4x**2 - 2); nothing
in this package does.

Truncated moments M_k(a, b) = int_a^b z**k rho(z) dz, with rho the standard
normal density, follow the stable recurrence

    M_0 = N(b) - N(a),
    M_1 = rho(a) - rho(b),
    M_k = (k - 1) M_{k-2} + a**(k-1) rho(a) - b**(k-1) rho(b),

where every boundary term at an infinite endpoint vanishes.  Infinite
endpoints are the floats -inf/+inf themselves, never large finite sentinels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence


@dataclass(frozen=True)
class RealPolynomial:
    """Polynomial in one real variable; ``coeffs[k]`` multiplies ``x**k``.

    Kept in canonical form: trailing zero coefficients are stripped, so the
    last entry is nonzero unless the polynomial is identically zero (then
    ``coeffs == (0.0,)`` and the degree is -1 by convention).
    """

    coeffs: tuple

    def __init__(self, coeffs: Sequence) -> None:
        coeffs = list(coeffs)
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        if not coeffs:
            coeffs = [0.0]
        object.__setattr__(self, "coeffs", tuple(coeffs))

    @property
    def degree(self) -> int:
        if self.is_zero:
            return -1
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return len(self.coeffs) == 1 and self.coeffs[0] == 0

    def __call__(self, x):
        """Evaluate by Horner's rule; accepts scalars or numpy arrays."""
        acc = x * 0 + self.coeffs[-1]
        for c in reversed(self.coeffs[:-1]):
            acc = acc * x + c
        return acc

    def __add__(self, other: "RealPolynomial") -> "RealPolynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for k, c in enumerate(b):
            out[k] = out[k] + c
        return RealPolynomial(out)

    def __neg__(self) -> "RealPolynomial":
        return RealPolynomial([-c for c in self.coeffs])

    def __sub__(self, other: "RealPolynomial") -> "RealPolynomial":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, RealPolynomial):
            out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                if a == 0:
                    continue
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
            return RealPolynomial(out)
        return RealPolynomial([other * c for c in self.coeffs])

    __rmul__ = __mul__

    def derivative(self) -> "RealPolynomial":
        if self.degree < 1:
            return RealPolynomial([0.0])
        return RealPolynomial([k * c for k, c in enumerate(self.coeffs)][1:])

    def scale_argument(self, s) -> "RealPolynomial":
        """Return the polynomial q with q(x) = p(s*x); exact-zero coefficients stay as they are."""
        return RealPolynomial([c * s**k if c != 0.0 else c for k, c in enumerate(self.coeffs)])


@lru_cache(maxsize=None)
def hermite(n: int) -> RealPolynomial:
    """Probabilists' Hermite polynomial H_n as a RealPolynomial.

    Built by the three-term recurrence H_{n+1}(x) = x H_n(x) - n H_{n-1}(x)
    in exact integer arithmetic.  Degree n, leading coefficient 1.
    """
    if n < 0 or n != int(n):
        raise ValueError(f"Hermite order must be a nonnegative integer, got {n}")
    n = int(n)
    if n == 0:
        return RealPolynomial([1])
    prev, cur = [1], [0, 1]
    for m in range(1, n):
        nxt = [0] + cur
        for k, c in enumerate(prev):
            nxt[k] -= m * c
        prev, cur = cur, nxt
    return RealPolynomial(cur)


def hermite_product_expansion(n: int, m: int) -> list[tuple[int, int]]:
    """Expand H_n * H_m in the Hermite basis.

    Returns (order, coefficient) pairs realising

        H_n H_m = sum_{k=0}^{min(n,m)} C(m,k) C(n,k) k! H_{m+n-2k},

    with exact integer coefficients.
    """
    if n < 0 or m < 0:
        raise ValueError("Hermite orders must be nonnegative")
    return [
        (m + n - 2 * k, math.comb(m, k) * math.comb(n, k) * math.factorial(k))
        for k in range(min(n, m) + 1)
    ]


def normal_pdf(x: float) -> float:
    """Standard normal density; 0.0 at infinite arguments."""
    if math.isinf(x):
        return 0.0
    return math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)


def normal_cdf(x: float) -> float:
    """Standard normal distribution function via erfc (double precision)."""
    if math.isinf(x):
        return 0.0 if x < 0 else 1.0
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def gaussian_partial_moments(k_max: int, a: float, b: float) -> list[float]:
    """All truncated moments M_0(a,b) .. M_{k_max}(a,b) in one pass.

    a may be -inf and b may be +inf; requires a <= b.
    """
    if k_max < 0:
        raise ValueError("moment order must be nonnegative")
    if math.isnan(a) or math.isnan(b) or a > b:
        raise ValueError(f"invalid integration interval [{a}, {b}]")
    pa, pb = normal_pdf(a), normal_pdf(b)
    out = [normal_cdf(b) - normal_cdf(a)]
    if k_max >= 1:
        out.append(pa - pb)
    for k in range(2, k_max + 1):
        # boundary terms a**(k-1) rho(a), b**(k-1) rho(b) vanish at +-inf
        lo = a ** (k - 1) * pa if pa != 0.0 else 0.0
        hi = b ** (k - 1) * pb if pb != 0.0 else 0.0
        out.append((k - 1) * out[k - 2] + lo - hi)
    return out


def _even_partial_moments(j_max: int, a: float, b: float) -> list[float]:
    """M_0(a,b), M_2(a,b), .., M_{2 j_max}(a,b): the even entries of
    gaussian_partial_moments(2 j_max, a, b), bit for bit.

    M_2j reads only M_2j-2, so the odd moments are never formed.
    """
    if math.isnan(a) or math.isnan(b) or a > b:
        raise ValueError(f"invalid integration interval [{a}, {b}]")
    pa, pb = normal_pdf(a), normal_pdf(b)
    out = [normal_cdf(b) - normal_cdf(a)]
    for k in range(2, 2 * j_max + 1, 2):
        lo = a ** (k - 1) * pa if pa != 0.0 else 0.0
        hi = b ** (k - 1) * pb if pb != 0.0 else 0.0
        out.append((k - 1) * out[-1] + lo - hi)
    return out
