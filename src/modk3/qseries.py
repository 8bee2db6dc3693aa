"""Exact truncated q-expansions of eta quotients.

All series live on the universal q^(1/24) exponent grid: a coefficient at
grid position e means the coefficient of q^(e/24).  Internally a series is
stored as an arithmetic progression offset + stride*k, which every eta
quotient and every product of them respects; arithmetic stays in plain
integers throughout.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction

GRID = 24
#: default precision: 500 integral coefficients
DEFAULT_PREC = 500 * GRID


class NonIntegralSeriesError(ValueError):
    pass


class NonUnitLeadingCoefficientError(ValueError):
    pass


def _pentagonal_coeffs(nterms: int) -> list:
    """Coefficients of prod_{n>=1} (1 - x^n) up to x^(nterms-1)."""
    out = [0] * nterms
    if nterms > 0:
        out[0] = 1
    k = 1
    while True:
        hit = False
        for e, s in ((k * (3 * k - 1) // 2, (-1) ** k),
                     (k * (3 * k + 1) // 2, (-1) ** k)):
            if e < nterms:
                out[e] = s
                hit = True
        if not hit:
            break
        k += 1
    return out


def series_power(a: list, r: int, nterms: int) -> list:
    """First nterms coefficients of a^r for an integer power series a with
    a[0] = +-1 and any integer r.

    J. C. P. Miller's recurrence (Knuth, TAOCP vol. 2, 4.7), read off
    a * (a^r)' = r * a' * a^r:
        n a_0 g_n = sum_{k=1..n} ((r + 1) k - n) a_k g_{n-k};
    the sum runs over the nonzero a_k only.
    """
    if not a or a[0] not in (1, -1):
        raise NonUnitLeadingCoefficientError("leading coefficient must be a unit")
    lead = a[0]
    support = [(k, c) for k, c in enumerate(a[1:nterms], 1) if c]
    g = [lead if r % 2 else 1] + [0] * (nterms - 1)
    for n in range(1, nterms):
        s = 0
        for k, c in support:
            if k > n:
                break
            s += ((r + 1) * k - n) * c * g[n - k]
        q, rem = divmod(s, n)
        if rem:
            raise ArithmeticError(f"Miller recurrence left a remainder at n={n}")
        g[n] = lead * q
    return g[:nterms]


@dataclass(frozen=True)
class TruncatedSeries:
    """Integer series sum_k coeffs[k] * q^((offset + stride*k)/24), exact
    below the exclusive grid bound ``prec``."""

    offset: int
    stride: int
    coeffs: tuple
    prec: int

    @staticmethod
    def make(offset: int, stride: int, coeffs, prec: int) -> "TruncatedSeries":
        coeffs = list(coeffs)
        # drop terms at or beyond the precision window
        while coeffs and offset + stride * (len(coeffs) - 1) >= prec:
            coeffs.pop()
        # strip leading zeros into the offset
        while coeffs and coeffs[0] == 0:
            coeffs.pop(0)
            offset += stride
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        if not coeffs:
            return TruncatedSeries(0, GRID, (), prec)
        # canonicalize the stride to the gcd of the support gaps
        support = [k for k, c in enumerate(coeffs) if c]
        g = 0
        for k in support:
            g = math.gcd(g, k)
        if g > 1:
            coeffs = coeffs[::g]
            stride *= g
        return TruncatedSeries(offset, stride, tuple(coeffs), prec)

    @staticmethod
    def one(prec: int = DEFAULT_PREC) -> "TruncatedSeries":
        return TruncatedSeries.make(0, GRID, [1], prec)

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def is_integral(self) -> bool:
        """True iff every nonzero coefficient sits at an exponent in 24*Z."""
        if self.is_zero:
            return True
        return self.offset % GRID == 0 and self.stride % GRID == 0

    def leading_exponent(self) -> Fraction:
        if self.is_zero:
            raise ValueError("zero series has no leading exponent")
        return Fraction(self.offset, GRID)

    def as_dict(self) -> dict:
        """Sparse map grid-exponent -> coefficient."""
        return {self.offset + self.stride * k: c
                for k, c in enumerate(self.coeffs) if c}

    def coefficient(self, n: int) -> int:
        """Coefficient of q^n (integral exponent)."""
        e = GRID * n
        if e >= self.prec:
            raise ValueError(f"q^{n} is beyond the precision window")
        if self.is_zero:
            return 0
        k, r = divmod(e - self.offset, self.stride)
        if r != 0 or k < 0 or k >= len(self.coeffs):
            return 0
        return self.coeffs[k]

    def coefficients(self, nmax: int) -> list:
        """[a_1, ..., a_nmax] at integral exponents."""
        return [self.coefficient(n) for n in range(1, nmax + 1)]

    def mul(self, other: "TruncatedSeries") -> "TruncatedSeries":
        prec = min(self.prec + other.offset, other.prec + self.offset)
        if self.is_zero or other.is_zero:
            return TruncatedSeries(0, GRID, (), prec)
        stride = math.gcd(self.stride, other.stride)
        offset = self.offset + other.offset
        n_out = max(0, -(-(prec - offset) // stride))
        out = [0] * n_out
        for i, ci in enumerate(self.coeffs):
            if ci == 0:
                continue
            ei = self.stride * i
            for j, cj in enumerate(other.coeffs):
                if cj == 0:
                    continue
                k = (ei + other.stride * j) // stride
                if k >= n_out:
                    break
                out[k] += ci * cj
        return TruncatedSeries.make(offset, stride, out, prec)

    def __mul__(self, other):
        return self.mul(other)

    def invert(self) -> "TruncatedSeries":
        """Inverse power series; leading coefficient must be +-1."""
        nterms = len(self.coeffs)
        inv = series_power(list(self.coeffs), -1, nterms)
        prec = -self.offset + self.stride * nterms
        return TruncatedSeries.make(-self.offset, self.stride, inv, prec)

    def rescale(self, m: int) -> "TruncatedSeries":
        """Substitute q^(1/24) -> q^(m/24)."""
        if m <= 0:
            raise ValueError("rescale factor must be positive")
        return TruncatedSeries.make(self.offset * m, self.stride * m,
                                    self.coeffs, self.prec * m)

    def sign_twist(self) -> "TruncatedSeries":
        """a_n -> (-1)^n a_n on an integral series."""
        if not self.is_integral:
            raise NonIntegralSeriesError("sign_twist needs an integral series")
        out = []
        for k, c in enumerate(self.coeffs):
            n = (self.offset + self.stride * k) // GRID
            out.append(c if n % 2 == 0 else -c)
        return TruncatedSeries.make(self.offset, self.stride, out, self.prec)

    def agrees_with(self, other: "TruncatedSeries") -> bool:
        """Equality of all coefficients on the common precision range."""
        bound = min(self.prec, other.prec)
        a = {e: c for e, c in self.as_dict().items() if e < bound}
        b = {e: c for e, c in other.as_dict().items() if e < bound}
        return a == b

    def to_text(self) -> str:
        """Sparse 'exponent:coefficient' rendering (grid exponents)."""
        return " ".join(f"{e}:{c}" for e, c in sorted(self.as_dict().items()))

    def to_json(self) -> str:
        return json.dumps(sorted([e, c] for e, c in self.as_dict().items()))


@dataclass(frozen=True)
class EtaQuotient:
    """prod_i eta(q^(m_i))^(r_i), factors as (scale, exponent) pairs."""

    factors: tuple

    def __post_init__(self):
        for m, _ in self.factors:
            if m <= 0:
                raise ValueError("eta scales must be positive")

    @property
    def weight(self) -> Fraction:
        return Fraction(sum(r for _, r in self.factors), 2)

    @property
    def grid_offset(self) -> int:
        """Leading q-power in 1/24 units."""
        return sum(m * r for m, r in self.factors)

    @property
    def is_integral(self) -> bool:
        return self.grid_offset % GRID == 0


def eta_power_expansion(m: int, r: int, prec: int = DEFAULT_PREC) -> TruncatedSeries:
    """Expansion of eta(q^m)^r = q^(mr/24) prod (1 - q^(mn))^r."""
    if prec <= 0:
        raise ValueError("precision must be positive")
    offset, stride = m * r, GRID * m
    nterms = max(0, -(-(prec - offset) // stride))
    if nterms == 0:
        return TruncatedSeries(0, GRID, (), prec)
    coeffs = series_power(_pentagonal_coeffs(nterms), r, nterms)
    return TruncatedSeries.make(offset, stride, coeffs, prec)


def expand(q: EtaQuotient, prec: int = DEFAULT_PREC) -> TruncatedSeries:
    """Exact truncated expansion of an eta quotient."""
    s = TruncatedSeries.one(prec)
    for m, r in q.factors:
        s = s.mul(eta_power_expansion(m, r, prec + max(0, -m * r) + GRID))
    return s


# The nine weight-3 forms.  h1..h5, h7, h8 have eta-product formulas; h9 is
# the half-period sign twist of h4 and h6 is h9 in the doubled grid variable
# (exponents halved), the only reading consistent with the scaling chain
# h6(tau) = h9(tau/2).
ETA_FORMS = {
    "h1": EtaQuotient(((1, 6),)),
    "h2": EtaQuotient(((1, 3), (3, 3))),
    "h3": EtaQuotient(((1, 3), (7, 3))),
    "h4": EtaQuotient(((1, 2), (2, 1), (4, 1), (8, 2))),
    "h5": EtaQuotient(((2, 6),)),
    "h7": EtaQuotient(((2, 3), (6, 3))),
    "h8": EtaQuotient(((4, 6),)),
}

FORM_IDS = ("h1", "h2", "h3", "h4", "h5", "h6", "h7", "h8", "h9")


def form_series(form_id: str, prec: int = DEFAULT_PREC) -> TruncatedSeries:
    """Expansion of any of h1..h9 to the given grid precision."""
    if form_id in ETA_FORMS:
        return expand(ETA_FORMS[form_id], prec)
    if form_id == "h9":
        return expand(ETA_FORMS["h4"], prec).sign_twist()
    if form_id == "h6":
        h9 = form_series("h9", 2 * prec)
        # halve all exponents: q^n -> q^(n/2), i.e. grid 24n -> 12n
        assert h9.offset % 2 == 0 and h9.stride % 2 == 0
        return TruncatedSeries.make(h9.offset // 2, h9.stride // 2,
                                    h9.coeffs, prec)
    raise KeyError(f"unknown form id {form_id!r}")
