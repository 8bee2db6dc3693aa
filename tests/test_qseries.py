import math
import random
from collections import Counter
from fractions import Fraction

import pytest

from modk3 import qseries
from modk3.qseries import (ETA_FORMS, FORM_IDS, _gauss_phi, _jacobi_cube,
                           _pentagonal_coeffs, _product, eta_product,
                           form_series)


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
        if a[i]:
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


def spread(a, s, n):
    """The first n coefficients of a(x^s), a padded with zeros."""
    return [a[k // s] if k % s == 0 and k // s < len(a) else 0
            for k in range(n)]


def schoolbook_product(a, sa, b, sb, n):
    """The first n coefficients of a(x^sa) * b(x^sb) multiplied term by
    term, kept as the oracle of the Kronecker-substitution kernel."""
    out = [0] * n
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            if sa * i + sb * j < n:
                out[sa * i + sb * j] += x * y
    return out


def naive_eta_product(factors, n):
    """prod (1 - x^(mk))^r over the (m, r) factors, each factor the naive
    Euler product in x^m raised by repeated naive multiplication."""
    out = [1] + [0] * (n - 1)
    for m, r in factors:
        factor = naive_power(spread(naive_euler_product(-(-n // m)), m, n),
                             r, n)
        # the sparser operand drives naive_mul's outer loop
        a, b = sorted((out, factor), key=lambda c: sum(map(bool, c)))
        out = naive_mul(a, b, n)
    return out


def cube_and_copies_eta(factors, n):
    """eta_product without Gauss's rewrite, kept as its oracle: P^r as
    r // 3 Jacobi cubes and r % 3 copies of P per factor (five products
    for h4), multiplied largest stride first in x^g for g the gcd of the
    strides so far."""
    powers = []
    for m, r in sorted(factors, reverse=True):
        nterms = -(-n // m)
        powers += ([(m, _jacobi_cube(nterms))] * (r // 3)
                   + [(m, _pentagonal_coeffs(nterms))] * (r % 3))
    (g, out), *rest = powers
    for m, coeffs in rest:
        h = math.gcd(g, m)
        k = -(-n // h)
        out, g = _product(spread(out, g // h, k), spread(coeffs, m // h, k),
                          k), h
    return spread(out, g, n)


def random_list(rng, bound):
    """A list with a nonzero head and scattered zeros; empty and one- and
    two-term lists included."""
    length = rng.choice((0, 1, 1, 2, rng.randint(3, 40)))
    coeffs = [rng.choice((0, rng.randint(-bound, bound))) for _ in range(length)]
    if length:
        coeffs[0] = rng.choice((-1, 1)) * rng.randint(1, bound)
    return coeffs


def test_product_matches_schoolbook_random():
    rng = random.Random(11)
    for trial in range(400):
        bound = rng.choice((1, 5, 2 ** 63, 10 ** 40))
        a, b = random_list(rng, bound), random_list(rng, bound)
        sa, sb = rng.choice((1, 2, 3, 4, 8)), rng.choice((1, 2, 3, 4, 8))
        n = rng.randint(0, 2 * max(sa * len(a), sb * len(b)) + 3)
        assert (_product(spread(a, sa, n), spread(b, sb, n), n)
                == schoolbook_product(a, sa, b, sb, n)), (trial, a, b, n)


def test_product_strides_and_cuts():
    rng = random.Random(3)
    for _ in range(300):
        n = rng.randint(0, 60)
        sa, sb = rng.choice((1, 2, 3, 4, 8)), rng.choice((1, 2, 3, 4, 8))
        a = [rng.randint(-10 ** 40, 10 ** 40) for _ in range(rng.randint(0, 30))]
        b = [rng.choice((0, 1, -1)) for _ in range(rng.randint(0, 30))]
        assert (_product(spread(a, sa, n), spread(b, sb, n), n)
                == schoolbook_product(a, sa, b, sb, n)), (a, sa, b, sb, n)


def test_product_width_at_the_bound():
    # every coefficient -2^63 against every coefficient 2^63 - 1: the middle
    # product coefficient is -L * 2^63 * (2^63 - 1), the width bound exactly
    for length in range(1, 9):
        a, b = [-2 ** 63] * length, [2 ** 63 - 1] * length
        bound = length * 2 ** 63 * (2 ** 63 - 1)
        n = 2 * length - 1
        out = _product(a, b, n)
        assert out == [-min(k + 1, n - k) * 2 ** 63 * (2 ** 63 - 1)
                       for k in range(n)]
        assert min(out) == -bound
        assert out == schoolbook_product(a, 1, b, 1, n)


def test_eta_powers_match_miller_recurrence():
    # the name is kept from when Miller's power recurrence was the oracle;
    # P^r is now multiplied out term by term, up the strides 1, 3 and 8
    nterms = 2000
    for r in range(1, 7):
        coeffs = naive_power(_pentagonal_coeffs(nterms), r, nterms)
        for m in (1, 3, 8):
            n = m * nterms
            assert eta_product(((m, r),), n) == spread(coeffs, m, n), (m, r)


def test_eta_powers_vs_naive():
    nterms = 300
    pent = _pentagonal_coeffs(nterms)
    for r in range(1, 7):
        assert eta_product(((1, r),), nterms) == naive_power(pent, r, nterms), r


def test_pentagonal_vs_naive_product():
    nterms = 300
    assert _pentagonal_coeffs(nterms) == naive_euler_product(nterms)


def test_jacobi_cube_is_the_cube_of_p():
    # Jacobi's identity against P * P * P by the product kernel
    for n in (0, 1, 2, 7, 5000):
        pent = _pentagonal_coeffs(n)
        assert _jacobi_cube(n) == _product(_product(pent, pent, n), pent,
                                           n), n


def test_gauss_phi_is_p_squared_over_p_of_x_squared():
    assert _gauss_phi(0) == []
    assert _gauss_phi(10) == [1, -2, 0, 0, 2, 0, 0, 0, 0, -2]
    for n in (1, 2, 5, 3000):
        pent = _pentagonal_coeffs(n)
        inverse = naive_power(pent, -1, -(-n // 2))
        quotient = _product(naive_power(pent, 2, n), spread(inverse, 2, n), n)
        assert _gauss_phi(n) == quotient, n


def test_gauss_rewrite_matches_the_cube_and_copies_expansion():
    for fid, factors in ETA_FORMS.items():
        assert (eta_product(factors, 6000)
                == cube_and_copies_eta(factors, 6000)), fid


def test_gauss_rewrite_vs_naive():
    n = 90
    cases = [((1, 2),), ((1, 5),),
             ((3, 2),),            # the push opens the absent stride 6
             ((1, 2), (2, 2)),     # the push completes a cube at stride 2
             ((2, 5), (2, 3), (4, 1))]
    rng = random.Random(17)
    for _ in range(20):
        factors = [(rng.choice((1, 2, 3, 4, 6)), rng.choice((2, 5, 8)))]
        factors += [(rng.choice((1, 2, 3, 4, 6)), rng.randint(1, 6))
                    for _ in range(rng.randint(0, 2))]
        cases.append(tuple(rng.sample(factors, len(factors))))
    for factors in cases:
        assert (eta_product(factors, n)
                == naive_eta_product(factors, n)), factors


def test_paired_eta_forms_vs_naive():
    # every eta form through the pairing, at lengths that cut the pairs'
    # double loops right at, before and after a term
    for fid, factors in ETA_FORMS.items():
        assert eta_product(factors, 0) == [], fid
        for n in (1, 2, 7, 8, 9, 97, 1000):
            assert (eta_product(factors, n)
                    == naive_eta_product(factors, n)), (fid, n)


def lacunary_count(factors):
    """How many lacunary factors (cubes, P, phi) the rewrite up the strides
    makes, worked out apart from the library."""
    exps, lacunary = Counter(), 0
    for m, r in factors:
        exps[m] += r
    while exps:
        m = min(exps)
        r = exps.pop(m)
        lacunary += r // 3 + (r % 3 > 0)
        if r % 3 == 2:
            exps[2 * m] += 1
    return lacunary


def test_random_factor_multisets_vs_naive():
    # odd and even counts of lacunary factors
    rng = random.Random(23)
    counts = Counter()
    for trial in range(50):
        factors = tuple((rng.randint(1, 12), rng.randint(1, 6))
                        for _ in range(rng.randint(1, 4)))
        n = rng.randint(1, 150)
        assert (eta_product(factors, n)
                == naive_eta_product(factors, n)), (trial, factors, n)
        counts[lacunary_count(factors) % 2] += 1
    # an odd and an even lacunary count were both drawn
    assert len(counts) == 2, counts


def test_lacunary_pairs_skip_the_kronecker_kernel(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return _product(*args)

    monkeypatch.setattr(qseries, "_product", counted)
    # h4's x^4 factor against the dense rest: one product per residue mod 4
    for fid, expected in (("h1", 0), ("h2", 0), ("h3", 0), ("h4", 4),
                          ("h5", 0), ("h7", 0), ("h8", 0)):
        calls.clear()
        out = eta_product(ETA_FORMS[fid], 500)
        assert len(calls) == expected, fid
        assert out == naive_eta_product(ETA_FORMS[fid], 500), fid
    # an unpaired lacunary factor, here P(x^5) beside one pair at
    # stride 2: both at stride 1, one product per residue mod 2
    calls.clear()
    assert eta_product(((2, 6), (5, 1)), 200) == naive_eta_product(
        ((2, 6), (5, 1)), 200)
    assert len(calls) == 2


@pytest.mark.parametrize("n", [1, 2, 5, 97, 6001])
def test_h4_split_product_vs_unsplit_kernel(n):
    # h4 = phi(-x) phi(-x^2) times phi(-x^4) P^3(x^8): the dense pair
    # against the x^4 factor in one Kronecker product, three slots in four
    # empty, as before that factor was split by residue mod 4
    dense = _product(_gauss_phi(n), spread(_gauss_phi(-(-n // 2)), 2, n), n)
    quarter = -(-n // 4)
    sparse = _product(_gauss_phi(quarter),
                      spread(_jacobi_cube(-(-n // 8)), 2, quarter), quarter)
    assert eta_product(ETA_FORMS["h4"], n) == _product(dense,
                                                       spread(sparse, 4, n), n)


def test_eta_power_matches_naive_multiplication():
    n = 40
    # eta^6 is the square of eta^3, as one factor and as two
    s3 = eta_product(((1, 3),), n)
    assert eta_product(((1, 6),), n) == naive_mul(s3, s3, n)
    assert eta_product(((1, 3), (1, 3)), n) == naive_mul(s3, s3, n)


def test_nonpositive_eta_powers_are_refused():
    # a zero, a negative and a cancelling net exponent at stride 1
    for factors in (((1, 0),), ((1, -1),), ((1, 1), (1, -1))):
        with pytest.raises(ValueError, match="only positive powers expand"):
            eta_product(factors, 50)


def test_eta_quotient_metadata():
    # every eta form has weight sum(r) / 2 = 3
    for factors in ETA_FORMS.values():
        assert Fraction(sum(r for _, r in factors), 2) == 3, factors
    assert sum(m * r for m, r in ETA_FORMS["h4"]) == 2 + 2 + 4 + 16
    assert sum(m * r for m, r in ETA_FORMS["h1"]) == 6
    assert form_series("h1", 30) == [0] * 30


def test_leading_exponents():
    def leading(fid):
        return Fraction(sum(m * r for m, r in ETA_FORMS[fid]), 24)
    assert leading("h1") == Fraction(1, 4)
    assert leading("h3") == leading("h8") == 1
    assert form_series("h3", 1) == form_series("h8", 1) == [1]


def test_scaling_chain():
    # h8(tau) = h5(2 tau) = h1(4 tau) and h7(tau) = h2(2 tau): the leading
    # exponents scale and the eta products spread
    n = 300
    offset = {fid: sum(m * r for m, r in ETA_FORMS[fid]) for fid in ETA_FORMS}
    assert offset["h8"] == 2 * offset["h5"] == 4 * offset["h1"]
    assert offset["h7"] == 2 * offset["h2"]
    h8 = eta_product(ETA_FORMS["h8"], n)
    assert h8 == spread(eta_product(ETA_FORMS["h5"], n // 2), 2, n)
    assert h8 == spread(eta_product(ETA_FORMS["h1"], n // 4), 4, n)
    assert eta_product(ETA_FORMS["h7"], n) == spread(
        eta_product(ETA_FORMS["h2"], n // 2), 2, n)


def test_sign_twist_and_h6_h9():
    h4 = form_series("h4", 80)
    h9 = form_series("h9", 80)
    for n in range(1, 80):
        assert h9[n - 1] == (-1) ** n * h4[n - 1]
    # h6 is h9 with all exponents halved
    h6 = form_series("h6", 40)
    for n in range(1, 40):
        assert h6[n - 1] == h9[2 * n - 1]


def test_form_series_matches_term_by_term_products():
    N = 1000
    naive = {}
    for fid, factors in ETA_FORMS.items():
        shift, frac = divmod(sum(m * r for m, r in factors), 24)
        if frac:
            naive[fid] = [0] * N
            continue
        assert shift == 1, fid
        naive[fid] = naive_eta_product(factors, N)
    # h4 once more to q^2N for h6, then the sign and halving rules by hand
    h4 = naive_eta_product(ETA_FORMS["h4"], 2 * N)
    h9 = [(-1) ** n * h4[n - 1] for n in range(1, 2 * N + 1)]
    naive["h9"], naive["h6"] = h9[:N], [h9[2 * n - 1] for n in range(1, N + 1)]
    assert sorted(naive) == sorted(FORM_IDS)
    for fid in FORM_IDS:
        assert form_series(fid, N) == naive[fid], fid


def test_known_expansions():
    assert form_series("h3", 10) == [1, -3, 0, 5, 0, 0, -7, -3, 9, 0]
    assert form_series("h4", 12) == [1, -2, -2, 4, 0, 4, 0, -8, -5, 0, 14, -8]


def test_unknown_form_rejected():
    with pytest.raises(KeyError):
        form_series("h10", 10)
