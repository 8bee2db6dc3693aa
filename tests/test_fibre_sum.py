"""The lifted Hasse traces against the pure-Python point count, against
the numpy point-count kernel that left the library (``helpers``, the
oracle) and, fibre by fibre, against a table over all of F_p; the batched
counts and curve traces against the per-prime path they replaced
(``helpers``, the oracle), split at many batch boundaries; the
discrete-log tables and the Hasse coefficients against exact integers; and
the int64 Horner and the baby-step/giant-step evaluator against Python
integers."""

import random
from math import comb, isqrt

import numpy as np
import pytest
import sympy

from helpers import (WeierstrassCurve, full_table_traces, hasse_count,
                     hasse_multinomials, per_prime_ap_elliptic,
                     per_prime_hasse_traces, per_prime_point_count,
                     short_model_points)
from modk3 import counting
from modk3.arith import InvalidPrimeError, VerificationError, primes_up_to
from modk3.counting import (ap_elliptic, ap_elliptics, count_reports,
                            good_primes, k3_point_count, k3_point_counts)
from modk3.families import FAMILY_NAMES, preset
from modk3.kodaira import BadReductionError, integral_model, scan

#: the families `verify all` scans
SCANNED = [name for name in FAMILY_NAMES if name != "x0_12"]
#: the families with an attached weight-3 form
FORM_FAMILIES = ("g4_legendre", "g62", "g82", "g8_412")


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
    c4, c6 = integral_model(family, "zero").invariants[:2]
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
            c4, c6, disc = curve._invariants()[4:7]
            count = hasse_count(curve.ainvs, p)
            assert count == short_count(c4, c6, p, chi), curve
            if disc:
                a = ap_elliptic(curve.ainvs, p)
                assert type(a) is int and a == p + 1 - count, curve


def test_singular_curve_counts():
    # a node has p points over F_p when split, p + 2 when not; a cusp p + 1
    for p in (5, 7, 11, 13):
        for r in range(p):
            assert hasse_count(_cusp(r, p).ainvs, p) == p + 1
            for s in range(p):
                if s != r:
                    split = chi_table(p)[(r - s) % p] == 1
                    assert (hasse_count(_node(r, s, p).ainvs, p)
                            == (p if split else p + 2))


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_small_prime_traces_vs_kernel(p):
    # every short model over F_p, singular ones included: below 17 the
    # lift of H is decided by the parity of the roots, not by (-p/2, p/2)
    c4, c6 = np.divmod(np.arange(p * p), p)
    traces = counting._hasse_traces(-27 * c4 % p, -54 * c6 % p, [p], [p * p])
    for a, v4, v6 in zip(traces.tolist(), c4.tolist(), c6.tolist()):
        assert p + 1 - a == short_model_points([v4], [v6], p), (v4, v6)


def fibre_invariants(family, p):
    """(c4, c6) mod p of the p + 1 fibres, t0 = 0..p-1 and then infinity, as
    two int64 arrays: the t-chart by a Horner step per coefficient, then the
    minimal values at the zeros of Delta and at infinity."""
    report = scan(family, p)
    t = np.arange(p + 1, dtype=np.int64)
    c4c6 = np.zeros((2, p + 1), dtype=np.int64)
    for row, coefficients in enumerate(
            integral_model(family, "zero").invariants[:2]):
        for c in coefficients:
            c4c6[row] = (c4c6[row] * t + c % p) % p
    for place, values in report.minimal_values.items():
        c4c6[:, p if place == "inf" else place] = values
    return c4c6


def kernel_total(family, p):
    """k3_point_count's total with every fibre counted by the kernel."""
    tau = sum(f.tau for f in scan(family, p).fibers)
    return short_model_points(*fibre_invariants(family, p), p) + p * tau


def test_table_path_vs_kernel():
    # every family at every good 5 <= p <= 97 and three random good p in
    # 101-2200
    rng = random.Random(1017)
    for name in FAMILY_NAMES:
        family = preset(name)
        large = rng.sample(good_primes(family, 101, 2200), 3)
        for p in good_primes(family, 5, 97) + large:
            assert (k3_point_count(family, p).total
                    == kernel_total(family, p)), (name, p)


@pytest.mark.parametrize("p", [19, 31, 37, 43, 97, 17, 23, 29, 41, 101,
                               5, 7, 11, 13])
def test_monomial_fibres_vs_kernel(p):
    # y^2 = x^3 + B (A = -27 c4 = 0) and y^2 = x^3 + A x (B = -54 c6 = 0),
    # one fibre at a time: H(0, B) exists iff p = 1 mod 6 and H(A, 0) iff
    # p = 1 mod 4; the list has both residues of each, above and below 17
    for c4, c6 in [(0, v) for v in range(p)] + [(v, 0) for v in range(p)]:
        A, B = np.array([-27 * c4 % p]), np.array([-54 * c6 % p])
        assert (p + 1 - counting._hasse_traces(A, B, [p], [1])[0]
                == short_model_points([c4], [c6], p)), (c4, c6)


def test_reached_classes_vs_full_table():
    # the trace of every fibre against the table of H(c, c) over all of
    # F_p: every family at every good 17 <= p <= 400, g4 past 1500
    cases = [(name, p) for name in FAMILY_NAMES
             for p in good_primes(preset(name), 17, 400)]
    for name, p in cases + [("g4_legendre", p) for p in (1511, 2003, 2417)]:
        c4, c6 = fibre_invariants(preset(name), p)
        A, B = -27 * c4 % p, -54 * c6 % p
        assert (counting._hasse_traces(A, B, [p], [len(c4)]).tolist()
                == full_table_traces(c4, c6, p)), (name, p)


def batched_counts(family, primes):
    """The batched kernel's counts at primes, recounted whatever is cached:
    one _surface_counts call per batch of counting._batches."""
    return [report for batch in counting._batches(primes)
            for report in counting._surface_counts(
                family, batch, [scan(family, p) for p in batch])]


def test_form_family_windows_vs_per_prime_path():
    # every good p <= 600 of the four form families as one window, and the
    # cached single-prime entry reads what the window counted
    for name in FORM_FAMILIES:
        family = preset(name)
        primes = good_primes(family, 5, 600)
        expected = [per_prime_point_count(family, p) for p in primes]
        assert k3_point_counts(family, primes) == expected, name
        assert [k3_point_count(family, p) for p in primes] == expected
        assert batched_counts(family, primes) == expected, name


@pytest.mark.parametrize("cells", [6, 20, 40, 150, 1000])
def test_batches_split_anywhere(monkeypatch, cells):
    # tiny batches: one prime per batch at 6 cells, the parity primes 5-13
    # alone at 40, with 17 and more in one batch from 58 on; _evaluate then
    # runs in chunks of a few columns that straddle the primes of a batch
    monkeypatch.setattr(counting, "_EVALUATE_CELLS", cells)
    primes = [5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 97, 101, 103, 211]
    assert any(13 in b and 17 in b for b in counting._batches(primes)) == (
        cells in (150, 1000))
    for name in SCANNED:
        family = preset(name)
        good = [p for p in primes if p not in family.bad_primes]
        assert (batched_counts(family, good)
                == [per_prime_point_count(family, p) for p in good]), name


def test_parity_primes_in_mixed_windows():
    # p in {5, 7, 11, 13} (the parity lift) and p >= 17 in one batch,
    # every scanned family
    primes = [5, 7, 11, 13, 17, 19, 23, 101, 1009]
    for name in SCANNED:
        family = preset(name)
        good = [p for p in primes if p not in family.bad_primes]
        assert (batched_counts(family, good)
                == [per_prime_point_count(family, p) for p in good]), name


def test_monomial_fibres_in_one_batch():
    # A = 0 or B = 0 (and both) at primes on both sides of 17, with both
    # residues mod 4 and mod 3, all in one batch with random fibres
    rng = random.Random(31)
    primes = [5, 7, 11, 13, 19, 37, 43, 101, 103]
    A, B, sizes = [], [], []
    for p in primes:
        pairs = [(0, v) for v in range(p)] + [(v, 0) for v in range(p)]
        pairs += [(rng.randrange(p), rng.randrange(p)) for _ in range(p)]
        A += [a for a, _ in pairs]
        B += [b for _, b in pairs]
        sizes.append(len(pairs))
    traces = counting._hasse_traces(np.array(A), np.array(B), primes, sizes)
    start = 0
    for p, n in zip(primes, sizes):
        c4 = [a * pow(-27, -1, p) % p for a in A[start:start + n]]
        c6 = [b * pow(-54, -1, p) % p for b in B[start:start + n]]
        assert (traces[start:start + n].tolist()
                == per_prime_hasse_traces(c4, c6, p).tolist()), p
        start += n


def test_curve_windows_vs_per_prime_path():
    rng = random.Random(5)
    curves = [(0, 0, 0, -1, 0), (1, -1, 1, 0, 1)] + [
        tuple(rng.randrange(-9, 10) for _ in range(5)) for _ in range(4)]
    primes = [p for p in primes_up_to(600) if p >= 5]
    for ainvs in curves:
        disc = WeierstrassCurve(*ainvs).discriminant()
        good = [p for p in primes if disc % p]
        expected = [per_prime_ap_elliptic(ainvs, p) for p in good]
        assert ap_elliptics(ainvs, good) == expected, ainvs
        assert [ap_elliptic(ainvs, p) for p in good] == expected
        assert [a for batch in counting._batches(good)
                for a in counting._curve_traces(
                    ainvs, batch,
                    [counting._curve_check(ainvs, p) for p in batch])
                ] == expected, ainvs


def test_forged_weil_failure_in_a_batch_raises_the_first_one(monkeypatch):
    # H(c, c) off by one power of c at 101 and 103 in one batch with 97:
    # the per-prime loop raises at 101, at its fibre with the largest a^2
    family = preset("g4_legendre")
    real = counting._table

    def forged(p):
        pw, log, coefficients, shift, b_only, a_only = real(p)
        return (pw, log, coefficients, shift + (p in (101, 103)), b_only,
                a_only)

    monkeypatch.setattr(counting, "_table", forged)
    with pytest.raises(VerificationError) as loop:
        for p in (97, 101, 103):
            per_prime_point_count(family, p)
    with pytest.raises(VerificationError) as batch:
        batched_counts(family, [97, 101, 103])
    assert loop.value.inputs["p"] == 101
    assert str(batch.value) == str(loop.value)
    # a prime refused after them raises before any of them is counted
    monkeypatch.setattr(counting, "_counts", {})
    with pytest.raises(BadReductionError, match="got 102$"):
        k3_point_counts(family, [97, 101, 102])
    assert counting._counts == {}


def test_a_refused_prime_stops_its_window_before_any_count(monkeypatch):
    # 2147483659 is prime and past the int64 bound: the window raises
    # before it counts even the primes below it
    def unreachable(*args):
        raise AssertionError("a prime was counted")

    monkeypatch.setattr(counting, "_counts", {})
    monkeypatch.setattr(counting, "_surface_counts", unreachable)
    monkeypatch.setattr(counting, "_curve_traces", unreachable)
    window = [97, 101, 2147483659]
    with pytest.raises(InvalidPrimeError):
        k3_point_counts(preset("g4_legendre"), window)
    with pytest.raises(InvalidPrimeError):
        ap_elliptics((0, 0, 0, -1, 0), window)
    assert counting._counts == {}


def python_horner(coefficients, x, p):
    value = 0
    for c in coefficients:
        value = value * x + c
    return value % p


@pytest.mark.parametrize("p", [17, 2097143, 2097169, 2 ** 31 - 1])
def test_horner_vs_python_integers(p):
    # p on both sides of 2^21, where the reduction comes at every step, and
    # the largest p the int64 sum allows; x at 0, 1, p - 1 and p, the
    # coefficients at p - 1, and negative and unreduced ones like the
    # t-chart's c4 and c6
    rng = random.Random(p)
    x = [0, 1, p - 1, p] + [rng.randrange(p) for _ in range(12)]
    for coefficients in ([p - 1] * 40, [-1] * 40, [-27 * p - 5, 3 * p + 1],
                         [rng.randrange(-p ** 3, p ** 3) for _ in range(40)],
                         [], [p - 1]):
        assert (counting._horner(coefficients, np.array(x, dtype=np.int64),
                                 p).tolist()
                == [python_horner(coefficients, v, p) for v in x])


LOG_PRIMES = [p for p in primes_up_to(2000) if p >= 5] + [10007, 100049]


def test_log_tables_invert_on_all_of_the_field():
    # pw[k] = g^k for the least generator g (sympy's primitive_root), a
    # permutation of 1..p-1 that log inverts
    for p in LOG_PRIMES:
        pw, log = counting._table(p)[:2]
        k = np.arange(p - 1)
        assert pw.dtype == log.dtype == np.int64, p
        assert np.array_equal(np.sort(pw), k + 1), p
        assert np.array_equal(log[pw], k), p
        g = sympy.ntheory.primitive_root(p)
        assert pw[0] == 1 and pw[1] == g, p
        assert np.array_equal(pw[1:], pw[:-1] * g % p), p


def test_a_non_generator_fails_the_table_check(monkeypatch):
    # 4 is a square, so its powers cover at most half of F_p^*
    monkeypatch.setattr(counting, "_generator", lambda p: 4)
    for p in (5, 13, 101, 2003):
        with pytest.raises(VerificationError) as exc:
            counting._table.__wrapped__(p)
        assert exc.value.identity == "g generates F_p^*", p


@pytest.mark.parametrize("p", [p for p in primes_up_to(400) if p >= 5]
                         + [1511, 2003, 10007])
def test_hasse_table_vs_exact_multinomials(p):
    coefficients, shift, b_only, a_only = counting._table(p)[2:]
    m = (p - 1) // 2
    assert coefficients.dtype == np.int64
    assert coefficients.tolist() == hasse_multinomials(p)
    assert shift == m - 2 * m // 3
    # (x^3 + B)^m and x^m (x^2 + A)^m
    assert b_only == ((comb(m, m // 3) % p, m // 3) if m % 3 == 0 else (0, 0))
    assert a_only == ((comb(m, m // 2) % p, m // 2) if m % 2 == 0 else (0, 0))


def evaluate_one(coefficients, x, p):
    """counting._evaluate on a batch of one prime at the points x in
    [1, p), passed as their exponents log x."""
    pw, log = counting._table(p)[:2]
    return counting._evaluate([coefficients], log[x], [p], [len(x)], pw,
                              [0]).tolist()


@pytest.mark.parametrize("p", [17, 101, 2003, 100049])
def test_evaluate_vs_python_integers(p):
    # lengths around s^2 for the s of the Hasse polynomial at p, where the
    # last block is one short, full and one over; x at 1, g and p - 1
    rng = random.Random(p)
    s = counting._block_width(len(counting._table(p)[2]), p)
    x = [1, counting._generator(p), p - 1] + [rng.randrange(1, p)
                                              for _ in range(5)]
    for n in (0, 1, 2, s * s - 1, s * s, s * s + 1):
        for coefficients in ([p - 1] * n,
                             [rng.randrange(p) for _ in range(n)]):
            assert (evaluate_one(coefficients, x, p)
                    == [python_horner(coefficients, v, p) for v in x]), n



@pytest.mark.parametrize("p, cells", [(101, 7), (2003, 40)])
def test_evaluate_in_chunks_vs_python_integers(monkeypatch, p, cells):
    # a tiny chunk: 2 resp. 3 columns at a time, the last chunk short
    monkeypatch.setattr(counting, "_EVALUATE_CELLS", cells)
    rng = random.Random(cells)
    x = [1, p - 1] + [rng.randrange(1, p) for _ in range(9)]
    for coefficients in (counting._table(p)[2].tolist(),
                         [rng.randrange(p) for _ in range(3 * p // 4)]):
        assert (evaluate_one(coefficients, x, p)
                == [python_horner(coefficients, v, p) for v in x])

def test_block_width_keeps_the_matmul_exact(monkeypatch):
    # arithmetic only: no table is built at p = 2^31 - 1
    monkeypatch.setattr(counting, "_table", None)
    p, n = 2 ** 31 - 1, 10 ** 8
    s = counting._block_width(n, p)
    assert s * (p // 2 + 1) ** 2 < 2 ** 63 <= (s + 1) * (p // 2 + 1) ** 2
    assert s == 7 and counting._block_width(48, p) == 7
    # a row of s products of signed residues in [-(p // 2), p // 2]
    assert -(2 ** 63) < -s * (p // 2) ** 2 and s * (p // 2) ** 2 < 2 ** 63
    # below 10^8 the cap never binds on the ~p/12 Hasse coefficients
    p = 99999989
    m = (p - 1) // 2
    n = 2 * m // 3 - (m + 1) // 2 + 1
    assert counting._block_width(n, p) == isqrt(n - 1) + 1
    assert [counting._block_width(n, 17) for n in (0, 1, 2, 4, 5, 9, 10)] == [
        1, 1, 2, 2, 3, 3, 4]


def test_forged_table_breaks_the_weil_bound(monkeypatch):
    # H(c, c) off by one power of c
    pw, log, coefficients, shift, b_only, a_only = counting._table(101)
    forged = (pw, log, coefficients, shift + 1, b_only, a_only)
    monkeypatch.setattr(counting, "_table", lambda p: forged)
    monkeypatch.setattr(counting, "_counts", {})
    with pytest.raises(VerificationError):
        k3_point_count.__wrapped__(preset("g4_legendre"), 101)


def test_forged_table_at_small_primes(monkeypatch):
    # every Horner coefficient off by one, counted without the cache
    forged = {}
    for p in (5, 13):
        pw, log, coefficients, shift, b_only, a_only = counting._table(p)
        forged[p] = (pw, log, tuple(c + 1 for c in coefficients), shift,
                     b_only, a_only)
    monkeypatch.setattr(counting, "_table", forged.get)
    monkeypatch.setattr(counting, "_counts", {})
    monkeypatch.setattr(counting, "k3_point_count",
                        k3_point_count.__wrapped__)
    # at p = 13 the parity lift puts some forged trace outside the Weil
    # bound for every K3 preset
    for name in ("g4_legendre", "g62", "g82", "g8_412"):
        with pytest.raises(VerificationError):
            counting.k3_point_count(preset(name), 13)
    # at p = 5 and 7 the Weil check is nearly blind: with the parity fixed,
    # only H = 0 (and H = 1 at p = 7) lifts outside 2 sqrt(p).  The same
    # forgery passes it at p = 5, and only count_reports'
    # B(p) = chi_D(p) a_p comparison catches it (B = 6, not -6)
    (report,) = count_reports(preset("g4_legendre"), [5])
    assert report.B == 6 and not report.ok


@pytest.mark.slow
def test_table_path_vs_kernel_to_2200():
    # primes outside, so that the families share each table
    families = [preset(name) for name in FAMILY_NAMES]
    for p in primes_up_to(2200):
        for family in families:
            if p >= 5 and p not in family.bad_primes:
                assert (k3_point_count(family, p).total
                        == kernel_total(family, p)), (family.name, p)


@pytest.mark.slow
def test_k3_twists_hold_on_held_out_primes_to_10000():
    # each stored twist (the fit on the good p <= 97, see
    # test_twist_fit_results) checked at every good prime from 97 up to
    # 10^4; primes outside, so that the families share each table
    families = [preset(name)
                for name in ("g4_legendre", "g62", "g82", "g8_412")]
    bad = [(family.name, p) for p in primes_up_to(10 ** 4)
           for family in families if p > 97 and p not in family.bad_primes
           and not count_reports(family, [p])[0].ok]
    assert bad == []


@pytest.mark.slow
@pytest.mark.parametrize("p", [300007, 300017])
def test_g4_large_prime_count_matches_the_form(p):
    # about 3 10^5, where _evaluate runs in many chunks; p = 3 and 1 mod 4
    assert count_reports(preset("g4_legendre"), [p])[0].ok
