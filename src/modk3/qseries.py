"""Exact truncated q-expansions of eta quotients.

All series live on the universal q^(1/24) exponent grid: a coefficient at
grid position e means the coefficient of q^(e/24).  Internally a series is
stored as an arithmetic progression offset + stride*k, which every eta
quotient and every product of them respects; arithmetic stays in plain
integers throughout.  Every product of two series, and so every eta power
eta^r with r >= 1, is one exact big-int multiply (Kronecker substitution,
``_product``); ``series_power`` (Miller's recurrence) does the inverses.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction

from .arith import VerificationError

GRID = 24
#: default precision: 500 integral coefficients
DEFAULT_PREC = 500 * GRID


class NonIntegralSeriesError(ValueError):
    pass


class NonUnitLeadingCoefficientError(ValueError):
    pass


def _pentagonal_coeffs(nterms: int) -> list:
    """Coefficients of prod_{n>=1} (1 - x^n) up to x^(nterms-1): Euler's
    pentagonal theorem, (-1)^k at x^(k(3k-1)/2) for every integer k."""
    out, m = [0] * nterms, math.isqrt(nterms) + 1
    for k in range(-m, m + 1):
        if k * (3 * k - 1) // 2 < nterms:
            out[k * (3 * k - 1) // 2] = (-1) ** (k % 2)
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


def _product(a, sa: int, b, sb: int, n: int) -> list:
    """First n >= 0 coefficients of a(x^sa) * b(x^sb) for integer lists a, b.

    Kronecker substitution (Harvey, J. Symb. Comp. 2009): x -> 2^w packs
    each factor into one int, so one big-int multiply does the convolution.
    Each product coefficient is a sum with at most one term per index of
    either factor, so its size is at most min(|a|_1 |b|_inf, |b|_1 |a|_inf);
    w is that bound's bit length plus a sign bit, in whole bytes.  Unless a
    factor is zero the bound is at least every input coefficient, so each
    input fits its slot too.
    """
    a, b = a[:-(-n // sa)], b[:-(-n // sb)]
    bound = min(sum(map(abs, a)) * max(map(abs, b), default=0),
                sum(map(abs, b)) * max(map(abs, a), default=0))
    if not bound:
        return [0] * n
    nb = (bound.bit_length() + 8) // 8

    def pack(c, s):
        zero, gap = bytes(nb), bytes(nb * (s - 1))
        pos = gap.join(x.to_bytes(nb, "little") if x > 0 else zero for x in c)
        neg = gap.join((-x).to_bytes(nb, "little") if x < 0 else zero
                       for x in c)
        return int.from_bytes(pos, "little") - int.from_bytes(neg, "little")

    # the bias 2^(w-1) in every slot makes each slot a nonnegative w-bit digit
    bias = int.from_bytes((bytes(nb - 1) + b"\x80") * n, "little")
    packed = (pack(a, sa) * pack(b, sb) + bias) & ((1 << (8 * nb * n)) - 1)
    raw, half = packed.to_bytes(nb * n, "little"), 1 << (8 * nb - 1)
    return [int.from_bytes(raw[k:k + nb], "little") - half
            for k in range(0, nb * n, nb)]


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
        # drop terms at or beyond the precision window
        coeffs = list(coeffs)[:max(0, -(-(prec - offset) // stride))]
        support = [k for k, c in enumerate(coeffs) if c]
        if not support:
            return TruncatedSeries(0, GRID, (), prec)
        # strip zeros at both ends into the offset, and canonicalize the
        # stride to the gcd of the support gaps
        first = support[0]
        g = math.gcd(*(k - first for k in support)) or 1
        return TruncatedSeries(offset + stride * first, stride * g,
                               tuple(coeffs[first:support[-1] + 1:g]), prec)

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
        out = _product(self.coeffs, self.stride // stride,
                       other.coeffs, other.stride // stride, n_out)
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
    # P^r is r - 1 exact products for r >= 1; series_power does r < 1
    coeffs = pent = _pentagonal_coeffs(nterms)
    for _ in range(r - 1):
        coeffs = _product(coeffs, 1, pent, 1, nterms)
    if r < 1:
        coeffs = series_power(pent, r, nterms)
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
        if h9.offset % 2 or h9.stride % 2:
            raise VerificationError("h9 sits on even grid exponents",
                                    dict(prec=prec), "even offset and stride",
                                    (h9.offset, h9.stride))
        return TruncatedSeries.make(h9.offset // 2, h9.stride // 2,
                                    h9.coeffs, prec)
    raise KeyError(f"unknown form id {form_id!r}")
