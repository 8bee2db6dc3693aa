import math
import random
from fractions import Fraction

import pytest

from modk3.qseries import (DEFAULT_PREC, ETA_FORMS, EtaQuotient, GRID,
                           NonIntegralSeriesError,
                           NonUnitLeadingCoefficientError, TruncatedSeries,
                           _pentagonal_coeffs, _product, eta_power_expansion,
                           expand, form_series, series_power)


def naive_euler_product(nterms):
    """prod_{n=1}^{nterms} (1 - x^n) multiplied out term by term."""
    coeffs = [0] * nterms
    coeffs[0] = 1
    for n in range(1, nterms):
        nxt = coeffs[:]
        for i in range(nterms - n):
            nxt[i + n] -= coeffs[i]
        coeffs = nxt
    return coeffs


def naive_mul(a, b, nterms):
    out = [0] * nterms
    for i in range(nterms):
        for j in range(nterms - i):
            out[i + j] += a[i] * b[j]
    return out


def naive_inverse(a, nterms):
    """b with a * b = 1, solved term by term (a[0] = +-1)."""
    b = [0] * nterms
    for k in range(nterms):
        s = (k == 0) - sum(a[j] * b[k - j] for j in range(1, k + 1))
        b[k] = a[0] * s
    return b


def naive_power(a, r, nterms):
    """a * ... * a (r factors), or the inverse raised to -r for r < 0."""
    a = list(a[:nterms]) + [0] * (nterms - len(a))
    base = a if r >= 0 else naive_inverse(a, nterms)
    out = [1] + [0] * (nterms - 1)
    for _ in range(abs(r)):
        out = naive_mul(out, base, nterms)
    return out


def schoolbook_mul(s, t):
    """The term-by-term product of two series, kept as the oracle of the
    Kronecker-substitution kernel behind TruncatedSeries.mul."""
    prec = min(s.prec + t.offset, t.prec + s.offset)
    if s.is_zero or t.is_zero:
        return TruncatedSeries(0, GRID, (), prec)
    stride = math.gcd(s.stride, t.stride)
    offset = s.offset + t.offset
    n_out = max(0, -(-(prec - offset) // stride))
    out = [0] * n_out
    for i, ci in enumerate(s.coeffs):
        if ci == 0:
            continue
        ei = s.stride * i
        for j, cj in enumerate(t.coeffs):
            if cj == 0:
                continue
            k = (ei + t.stride * j) // stride
            if k >= n_out:
                break
            out[k] += ci * cj
    return TruncatedSeries.make(offset, stride, out, prec)


def random_series(rng, bound):
    """A series on one of the strides 24*{1, 2, 3, 4, 8}, possibly with a
    negative offset and a precision that cuts it mid-way; zero and
    single-term series included."""
    stride = GRID * rng.choice((1, 2, 3, 4, 8))
    offset = rng.randint(-3 * GRID, 3 * GRID)
    length = rng.choice((0, 1, 1, 2, rng.randint(3, 40)))
    coeffs = [rng.choice((0, rng.randint(-bound, bound))) for _ in range(length)]
    if length:
        coeffs[0] = rng.choice((-1, 1)) * rng.randint(1, bound)
    prec = offset + stride * rng.randint(0, length + 3) + rng.randint(0, stride)
    return TruncatedSeries.make(offset, stride, coeffs, max(prec, 1))


def test_product_matches_schoolbook_random():
    rng = random.Random(11)
    for trial in range(400):
        bound = rng.choice((1, 5, 2 ** 63, 10 ** 40))
        s, t = random_series(rng, bound), random_series(rng, bound)
        assert s.mul(t) == schoolbook_mul(s, t), (trial, s, t)


def test_product_strides_and_cuts():
    rng = random.Random(3)
    for _ in range(300):
        n = rng.randint(0, 60)
        sa, sb = rng.choice((1, 2, 3, 4, 8)), rng.choice((1, 2, 3, 4, 8))
        a = [rng.randint(-10 ** 40, 10 ** 40) for _ in range(rng.randint(0, 30))]
        b = [rng.choice((0, 1, -1)) for _ in range(rng.randint(0, 30))]
        expected = [0] * n
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                if sa * i + sb * j < n:
                    expected[sa * i + sb * j] += x * y
        assert _product(a, sa, b, sb, n) == expected, (a, sa, b, sb, n)


def test_product_width_at_the_bound():
    # every coefficient -2^63 against every coefficient 2^63 - 1: the middle
    # product coefficient is -L * 2^63 * (2^63 - 1), the width bound exactly
    for length in range(1, 9):
        a, b = [-2 ** 63] * length, [2 ** 63 - 1] * length
        bound = length * 2 ** 63 * (2 ** 63 - 1)
        n = 2 * length - 1
        out = _product(a, 1, b, 1, n)
        assert out == [-min(k + 1, n - k) * 2 ** 63 * (2 ** 63 - 1)
                       for k in range(n)]
        assert min(out) == -bound
        s = TruncatedSeries(0, GRID, tuple(a), n * GRID)
        t = TruncatedSeries(0, GRID, tuple(b), n * GRID)
        assert s.mul(t) == schoolbook_mul(s, t)


def test_eta_powers_match_miller_recurrence():
    nterms = 2000
    for r in range(1, 7):
        coeffs = series_power(_pentagonal_coeffs(nterms), r, nterms)
        for m in (1, 3, 8):
            prec = m * r + GRID * m * nterms
            expected = TruncatedSeries.make(m * r, GRID * m, coeffs, prec)
            assert eta_power_expansion(m, r, prec) == expected, (m, r)


def test_series_power_vs_naive_random():
    rng = random.Random(7)
    for _ in range(150):
        nterms = rng.randint(1, 60)
        a = [rng.choice((1, -1))] + [rng.choice((0, 0, rng.randint(-5, 5)))
                                     for _ in range(rng.randint(0, 70))]
        r = rng.randint(-4, 6)
        assert series_power(a, r, nterms) == naive_power(a, r, nterms), (a, r)


def test_eta_powers_vs_naive():
    nterms = 300
    pent = _pentagonal_coeffs(nterms)
    for r in range(-3, 7):
        prec = GRID * nterms + r
        expected = TruncatedSeries.make(r, GRID, naive_power(pent, r, nterms),
                                        prec)
        s = eta_power_expansion(1, r, prec)
        assert s.prec == expected.prec and s.agrees_with(expected), r


def test_series_power_needs_unit_leading_coefficient():
    for a in ([], [2, 1], [0, 1]):
        with pytest.raises(NonUnitLeadingCoefficientError):
            series_power(a, 3, 5)


def test_pentagonal_vs_naive_product():
    nterms = 300
    assert _pentagonal_coeffs(nterms) == naive_euler_product(nterms)


def test_eta_power_matches_naive_multiplication():
    prec = 40 * GRID
    s = eta_power_expansion(1, 6, prec)
    # square of eta^3 equals eta^6 on the common range
    s3 = eta_power_expansion(1, 3, prec)
    assert s.agrees_with(s3.mul(s3))


def test_series_canonicalization():
    s = TruncatedSeries.make(0, GRID, [0, 0, 3, 0, 5, 0, 0], 10 * GRID)
    assert s.offset == 2 * GRID
    assert s.stride == 2 * GRID
    assert s.coeffs == (3, 5)


def test_coefficient_window_guard():
    s = TruncatedSeries.one(5 * GRID)
    with pytest.raises(ValueError):
        s.coefficient(5)
    assert s.coefficient(0) == 1


def test_invert_roundtrip():
    s = eta_power_expansion(1, 2, 60 * GRID)
    prod = s.mul(s.invert())
    assert prod.agrees_with(TruncatedSeries.one(prod.prec))
    zero = TruncatedSeries.make(0, GRID, [], GRID)
    with pytest.raises(NonUnitLeadingCoefficientError):
        zero.invert()


def test_negative_eta_powers():
    # eta(q)^-1 * eta(q) == 1
    prec = 50 * GRID
    s = eta_power_expansion(1, 1, prec).mul(eta_power_expansion(1, -1, prec))
    assert s.agrees_with(TruncatedSeries.one(s.prec))


def test_eta_quotient_metadata():
    q = ETA_FORMS["h4"]
    assert q.weight == 3
    assert q.grid_offset == 2 + 2 + 4 + 16
    assert q.is_integral
    assert ETA_FORMS["h1"].grid_offset == 6
    assert not ETA_FORMS["h1"].is_integral
    with pytest.raises(ValueError):
        EtaQuotient(((0, 3),))


def test_leading_exponents():
    assert form_series("h1", 2 * GRID).leading_exponent() == Fraction(1, 4)
    assert form_series("h3", 2 * GRID).leading_exponent() == 1
    assert form_series("h8", 2 * GRID).leading_exponent() == 1


def test_scaling_chain():
    prec = 300 * GRID
    h8 = form_series("h8", prec)
    assert h8.agrees_with(form_series("h5", prec // 2 + GRID).rescale(2))
    assert h8.agrees_with(form_series("h1", prec // 4 + GRID).rescale(4))
    h7 = form_series("h7", prec)
    assert h7.agrees_with(form_series("h2", prec // 2 + GRID).rescale(2))


def test_sign_twist_and_h6_h9():
    prec = 100 * GRID
    h4 = form_series("h4", prec)
    h9 = form_series("h9", prec)
    for n in range(1, 80):
        assert h9.coefficient(n) == (-1) ** n * h4.coefficient(n)
    # h6 is h9 with all exponents halved
    h6 = form_series("h6", prec)
    for n in range(1, 40):
        assert h6.coefficient(n) == h9.coefficient(2 * n)
    with pytest.raises(NonIntegralSeriesError):
        form_series("h1", prec).sign_twist()


def test_known_expansions():
    h3 = form_series("h3", 30 * GRID)
    assert h3.coefficients(10) == [1, -3, 0, 5, 0, 0, -7, -3, 9, 0]
    h4 = form_series("h4", 30 * GRID)
    assert h4.coefficients(12) == [1, -2, -2, 4, 0, 4, 0, -8, -5, 0, 14, -8]


def test_text_and_json_roundtrip():
    s = form_series("h3", 6 * GRID)
    assert "24:1" in s.to_text()
    assert s.to_json().startswith("[[")


def test_unknown_form_rejected():
    with pytest.raises(KeyError):
        form_series("h10")


def test_default_precision_is_500_coefficients():
    assert DEFAULT_PREC == 500 * GRID
    s = form_series("h8", DEFAULT_PREC)
    assert len(s.coefficients(499)) == 499
