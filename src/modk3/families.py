"""The explicit Weierstrass families over the t-line.

Family coefficients a1..a6 are exact rational functions of a parameter t,
stored as integer data: a numerator and a denominator coefficient tuple
each.  A single curve is its tuple of integer a-invariants
(a1, a2, a3, a4, a6); weierstrass_invariants gives its b-, c-invariants
and Delta over Z, to be reduced mod p where needed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .arith import VerificationError, kronecker_character

FAMILY_NAMES = ("g4_legendre", "e1_4", "e1_6", "e1_7", "e1_8",
                "g62", "g82", "g8_412", "x0_12")


class SingularCurveError(ValueError):
    """A Weierstrass cubic with Delta = 0 where a curve is required."""


@dataclass(frozen=True)
class NSDecomposition:
    """Galois structure of the algebraic cycles: lists of
    (character discriminant or 1 for trivial, multiplicity)."""

    plus_part: tuple
    minus_part: tuple

    def counts(self):
        np1 = sum(m for d, m in self.plus_part if d == 1)
        np2 = sum(m for d, m in self.plus_part if d != 1)
        nm1 = sum(m for d, m in self.minus_part if d == 1)
        nm2 = sum(m for d, m in self.minus_part if d != 1)
        return (np1, np2), (nm1, nm2)

    @property
    def total_rank(self):
        return sum(m for _, m in self.plus_part + self.minus_part)

    def trace(self, p: int) -> int:
        """n' + sum chi_D(p) * n'' over both parts."""
        return sum(m * kronecker_character(d, p)
                   for d, m in self.plus_part + self.minus_part)

    def minus_trace_terms(self, p: int) -> int:
        return sum(m * kronecker_character(d, p) for d, m in self.minus_part)


@dataclass(frozen=True)
class WeierstrassFamily:
    name: str
    #: (a1, a2, a3, a4, a6), each a (numerator, denominator) pair of integer
    #: coefficient tuples in t, leading coefficient first, in lowest terms
    a_invariants: tuple
    expected_config: tuple  # fiber-type labels, e.g. ("I4",)*6
    preset_group_id: int = 0   # index of the matching congruence-group preset, 0 if none
    ns_data: NSDecomposition = None
    level_primes: frozenset = frozenset()
    form_id: str = ""       # weight-3 form with the same CM field
    twist_disc: int = 0     # D with B(p) = chi_D(p) a_p(form), 0 without a form

    @property
    def bad_primes(self) -> frozenset:
        return frozenset({2, 3} | set(self.level_primes))


def weierstrass_invariants(a1, a2, a3, a4, a6) -> tuple:
    """(b2, b4, b6, b8, c4, c6, Delta) of a long Weierstrass equation, over
    any commutative ring (integers, fractions, polynomials)."""
    b2 = a1 * a1 + 4 * a2
    b4 = 2 * a4 + a1 * a3
    b6 = a3 * a3 + 4 * a6
    b8 = a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
    c4 = b2 * b2 - 24 * b4
    c6 = -b2 ** 3 + 36 * b2 * b4 - 216 * b6
    disc = -b2 * b2 * b8 - 8 * b4 ** 3 - 27 * b6 * b6 + 9 * b2 * b4 * b6
    if 1728 * disc != c4 ** 3 - c6 ** 2:
        raise VerificationError("1728 Delta = c4^3 - c6^2",
                                {"a": (a1, a2, a3, a4, a6)},
                                c4 ** 3 - c6 ** 2, 1728 * disc)
    return b2, b4, b6, b8, c4, c6, disc


# ---------------------------------------------------------------------------
# presets
# ---------------------------------------------------------------------------

def _ns(plus, minus):
    return NSDecomposition(tuple(plus), tuple(minus))


_0 = ((), (1,))  # the coefficient 0

#: each family's fields; the comment above it gives the formula that its
#: a_invariants expand
_PRESETS = {
    # lam = (t + 1/t)^2 / 4: (0, -(1 + lam), 0, lam, 0)
    "g4_legendre": dict(
        a_invariants=(_0, ((-1, 0, -6, 0, -1), (4, 0, 0)), _0,
                      ((1, 0, 2, 0, 1), (4, 0, 0)), _0),
        expected_config=("I4",) * 6, preset_group_id=1,
        ns_data=_ns([(1, 12), (-4, 2)], [(1, 3), (-4, 3)]),
        level_primes=frozenset({2}), form_id="h8", twist_disc=1),
    # (1, t, t, 0, 0)
    "e1_4": dict(
        a_invariants=(((1,), (1,)), ((1, 0), (1,)), ((1, 0), (1,)), _0, _0),
        expected_config=("I1*", "I1", "I4"), level_primes=frozenset({2})),
    # b = -(t - 1)(t - 2): (t, b, b, 0, 0)
    "e1_6": dict(
        a_invariants=(((1, 0), (1,)), ((-1, 3, -2), (1,)),
                      ((-1, 3, -2), (1,)), _0, _0),
        expected_config=("I6", "I3", "I2", "I1"),
        level_primes=frozenset({2, 3})),
    # b = t^2 - t^3: (1 + t - t^2, b, b, 0, 0)
    "e1_7": dict(
        a_invariants=(((-1, 1, 1), (1,)), ((-1, 1, 0, 0), (1,)),
                      ((-1, 1, 0, 0), (1,)), _0, _0),
        expected_config=("I7",) * 3 + ("I1",) * 3, preset_group_id=3,
        level_primes=frozenset({7})),
    # a = (-2t^2 + 4t - 1) / t, b = -2t^2 + 3t - 1: (a, b, b, 0, 0)
    "e1_8": dict(
        a_invariants=(((-2, 4, -1), (1, 0)), ((-2, 3, -1), (1,)),
                      ((-2, 3, -1), (1,)), _0, _0),
        expected_config=("I8", "I8", "I4", "I2", "I1", "I1"),
        preset_group_id=4, level_primes=frozenset({2})),
    # a = (2t^2 - 10) / (t^2 - 9), b = -(a - 1)(a - 2): (a, b, b, 0, 0)
    "g62": dict(
        a_invariants=(((2, 0, -10), (1, 0, -9)),
                      ((-8, 0, 8), (1, 0, -18, 0, 81)),
                      ((-8, 0, 8), (1, 0, -18, 0, 81)), _0, _0),
        expected_config=("I6",) * 3 + ("I2",) * 3, preset_group_id=2,
        ns_data=_ns([(1, 14)], [(1, 6)]),
        level_primes=frozenset({3}), form_id="h7", twist_disc=1),
    # (0, 2 + (t + 1/t)^2 / 2, 0, (t - 1/t)^4 / 16, 0)
    "g82": dict(
        a_invariants=(_0, ((1, 0, 6, 0, 1), (2, 0, 0)), _0,
                      ((1, 0, -4, 0, 6, 0, -4, 0, 1), (16, 0, 0, 0, 0)), _0),
        expected_config=("I8", "I8", "I2", "I2", "I2", "I2"),
        preset_group_id=5, ns_data=_ns([(1, 13), (-4, 1)], [(1, 6)]),
        level_primes=frozenset({2}), form_id="h8", twist_disc=1),
    # q = 8t^4 - 16t^3 + 16t^2 - 8t + 1:
    # (0, -2q, 0, (8t^2 - 8t + 1)(2t - 1)^4, 0)
    "g8_412": dict(
        a_invariants=(_0, ((-16, 32, -32, 16, -2), (1,)), _0,
                      ((128, -384, 464, -288, 96, -16, 1), (1,)), _0),
        expected_config=("I8", "I4", "I4", "I4", "I2", "I2"),
        preset_group_id=6, ns_data=_ns([(1, 13), (8, 1)], [(1, 5), (-4, 1)]),
        level_primes=frozenset({2}), form_id="h4", twist_disc=1),
    # b = -t^2 (t^2 - 1): (t^2 + 1, b, b, 0, 0)
    "x0_12": dict(
        a_invariants=(((1, 0, 1), (1,)), ((-1, 0, 1, 0, 0), (1,)),
                      ((-1, 0, 1, 0, 0), (1,)), _0, _0),
        expected_config=("I12", "I4", "I3", "I3", "I1", "I1"),
        preset_group_id=7, level_primes=frozenset({2, 3})),
}


@lru_cache(maxsize=None)
def preset(name: str) -> WeierstrassFamily:
    if name not in _PRESETS:
        raise KeyError(f"unknown family {name!r}")
    return WeierstrassFamily(name, **_PRESETS[name])
