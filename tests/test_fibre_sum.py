"""The numpy fibre-sum kernel against the pure-Python point count it
replaced, which stays here as the oracle, and the Hasse-invariant table
path against the kernel."""

import random

import numpy as np
import pytest

from helpers import WeierstrassCurve
from modk3 import counting
from modk3.arith import InvalidPrimeError, VerificationError, primes_up_to
from modk3.counting import (count_report, curve_count, good_primes,
                            k3_point_count, twist_fit)
from modk3.families import FAMILY_NAMES, preset
from modk3.kodaira import scan

#: the families `verify all` scans
SCANNED = [name for name in FAMILY_NAMES if name != "x0_12"]


def chi_table(p):
    """chi[v] = legendre symbol (v/p) as a lookup table."""
    chi = [-1] * p
    chi[0] = 0
    for x in range(1, (p + 1) // 2 + 1):
        chi[x * x % p] = 1
    return chi


def short_count(c4v, c6v, p, chi):
    """Points of y^2 = x^3 - 27 c4 x - 54 c6 over F_p, plus infinity."""
    a = -27 * c4v % p
    b = -54 * c6v % p
    total = 1
    for x in range(p):
        total += 1 + chi[((x * x + a) * x + b) % p]
    return total


def evaluate(coefficients, x, p):
    """Value mod p of a polynomial given by its coefficients, leading first."""
    value = 0
    for c in coefficients:
        value = (value * x + c) % p
    return value


def loop_total(family, p):
    """The surface total by one Python loop per (t, x)."""
    report = scan(family, p)
    chi = chi_table(p)
    c4, c6 = report.t_chart_c4_c6
    minimal = report.minimal_values
    total = 0
    for t0 in range(p):
        if t0 in minimal:
            c4v, c6v = minimal[t0]
        else:
            c4v, c6v = evaluate(c4, t0, p), evaluate(c6, t0, p)
        total += short_count(c4v, c6v, p, chi)
    c4v, c6v = minimal["inf"]
    total += short_count(c4v, c6v, p, chi)
    return total + p * sum(f.tau for f in report.fibers)


def test_surface_total_vs_loop_small_primes():
    rng = random.Random(4)
    for name in SCANNED:
        family = preset(name)
        primes = good_primes(family, 5, 499)
        for p in primes[:1] + rng.sample(primes[1:], 3):
            report = k3_point_count(family, p)
            assert type(report.total) is int and type(report.B) is int
            assert report.total == loop_total(family, p), (name, p)


def test_surface_total_vs_loop_large_primes():
    family = preset("g4_legendre")
    for p in (1511, 2003, 2417):
        assert k3_point_count(family, p).total == loop_total(family, p), p


def _node(r, s, p):
    """y^2 = (x - r)^2 (x - s): a node at x = r."""
    return WeierstrassCurve(0, -(2 * r + s) % p, 0, (r * r + 2 * r * s) % p,
                            -r * r * s % p, p=p)


def _cusp(r, p):
    """y^2 = (x - r)^3: a cusp at x = r."""
    return WeierstrassCurve(0, -3 * r % p, 0, 3 * r * r % p, -r ** 3 % p, p=p)


def test_curve_count_vs_loop_random():
    rng = random.Random(17)
    for p in (5, 7, 13, 101, 1009, 2003):
        chi = chi_table(p)
        curves = [WeierstrassCurve(*(rng.randrange(p) for _ in range(5)), p=p)
                  for _ in range(6)]
        r, s = rng.sample(range(p), 2)
        curves += [_node(r, s, p), _cusp(r, p)]
        for curve in curves:
            c4, c6 = curve._invariants()[4:6]
            count = curve_count(curve.ainvs, curve.p)
            assert type(count) is int
            assert count == short_count(c4, c6, p, chi), curve


def test_singular_curve_counts():
    # a node has p points over F_p when split, p + 2 when not; a cusp p + 1
    for p in (5, 7, 11, 13):
        for r in range(p):
            assert curve_count(_cusp(r, p).ainvs, p) == p + 1
            for s in range(p):
                if s != r:
                    split = chi_table(p)[(r - s) % p] == 1
                    assert (curve_count(_node(r, s, p).ainvs, p)
                            == (p if split else p + 2))


def test_kernel_refuses_primes_that_could_overflow():
    with pytest.raises(InvalidPrimeError):
        curve_count((0, 0, 0, -1, 0), 2 ** 31 + 11)


def kernel_total(family, p):
    """k3_point_count's total with every fibre counted by the kernel."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(counting, "_hasse_points", counting._short_model_points)
        return k3_point_count.__wrapped__(family, p).total


def test_table_path_vs_kernel():
    # every family at every good 17 <= p <= 97 and three random good p in
    # 101-2200
    rng = random.Random(1017)
    for name in FAMILY_NAMES:
        family = preset(name)
        large = rng.sample(good_primes(family, 101, 2200), 3)
        for p in good_primes(family, 17, 97) + large:
            assert (k3_point_count(family, p).total
                    == kernel_total(family, p)), (name, p)


@pytest.mark.parametrize("p", [19, 31, 37, 43, 97, 17, 23, 29, 41, 101])
def test_monomial_fibres_vs_kernel(p):
    # y^2 = x^3 + B (A = -27 c4 = 0) and y^2 = x^3 + A x (B = -54 c6 = 0),
    # one fibre at a time: H(0, B) exists iff p = 1 mod 6 and H(A, 0) iff
    # p = 1 mod 4; the list has both residues of each
    for c4, c6 in [(0, v) for v in range(p)] + [(v, 0) for v in range(p)]:
        assert (counting._hasse_points([c4], [c6], p)
                == counting._short_model_points([c4], [c6], p)), (c4, c6)


def test_forged_table_breaks_the_weil_bound(monkeypatch):
    # H(c, c) off by one power of c, as a wrong Horner start would give
    chi, g, reciprocal, b_only, a_only = counting._hasse_table(101)
    forged = (chi, g * np.arange(101) % 101, reciprocal, b_only, a_only)
    monkeypatch.setattr(counting, "_hasse_table", lambda p: forged)
    with pytest.raises(VerificationError):
        k3_point_count.__wrapped__(preset("g4_legendre"), 101)


@pytest.mark.slow
def test_table_path_vs_kernel_to_2200():
    # primes outside, so that the families share each table
    families = [preset(name) for name in FAMILY_NAMES]
    for p in primes_up_to(2200):
        for family in families:
            if p >= 17 and p not in family.bad_primes:
                assert (k3_point_count(family, p).total
                        == kernel_total(family, p)), (family.name, p)


@pytest.mark.slow
def test_k3_twists_hold_on_held_out_primes_to_10000():
    # each twist fitted on the good p <= 97, checked at every good prime up
    # to 10^4; primes outside, so that the families share each table
    families = [preset(name)
                for name in ("g4_legendre", "g62", "g82", "g8_412")]
    fits = {family: twist_fit(family) for family in families}
    bad = [(family.name, p) for p in primes_up_to(10 ** 4)
           for family in families if p > 97 and p not in family.bad_primes
           and not count_report(family, p, fits[family]).ok]
    assert bad == []
