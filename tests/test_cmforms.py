import itertools
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from helpers import (QuadFieldElement, euler_coefficient_sequence,
                     loop_norm_solutions, normalized_generator,
                     weight3_factor)
from modk3 import arith, cli, cmforms
from modk3.arith import (InvalidPrimeError, VerificationError, _is_integral,
                         _norm_solutions, is_fundamental_discriminant,
                         is_prime, kronecker_character, primes_up_to)
from modk3.cmforms import (HECKE_SPECS, HeckeCharSpec, WeilBoundError,
                           _eta_coefficients, _is_normalized, ap,
                           coefficient_sequence, verify_against_eta)
from modk3.lfunctions import LocalFactor
from modk3.qseries import form_series

ROOT = Path(__file__).resolve().parent.parent


def primes_upto(n):
    return [p for p in range(2, n + 1)
            if all(p % k for k in range(2, int(p ** 0.5) + 1))]


def divisible_by(g, c):
    """Whether g lies in c*O_K, by QuadFieldElement's integrality check."""
    if g.u % c or g.v % c:
        return False
    try:
        QuadFieldElement(g.d, g.u // c, g.v // c)
    except ValueError:
        return False
    return True


def element_ap(spec, p):
    """(a_p, (u, v) of the normalized generator or None) from the O(sqrt p)
    generators by QuadFieldElement arithmetic: the normalisation that the
    integer pairs replaced."""
    d, c = spec.d, spec.conductor_gen
    gens = [QuadFieldElement(d, s * u, s * v)
            for u, v in loop_norm_solutions(d, p) for s in (1, -1)]
    if not gens:
        return 0, None
    if spec.disc % p == 0:  # ramified: the generator with rational square
        g = next(g for g in gens if g.u * g.v == 0)
        return (g.u * g.u - d * g.v * g.v) // 4, None
    good = [g for g in gens
            if divisible_by(QuadFieldElement(d, g.u - 2, g.v), c)
            or divisible_by(QuadFieldElement(d, g.u + 2, g.v), c)]
    traces = {g.trace_of_square() for g in good}
    assert len(traces) == 1, (spec.form_id, p, traces)
    g = max(good, key=lambda g: (g.u, g.v))
    return traces.pop(), (g.u, g.v)


def test_spec_table():
    assert HECKE_SPECS["h8"].level == 16 and HECKE_SPECS["h8"].disc == -4
    assert HECKE_SPECS["h7"].level == 12 and HECKE_SPECS["h7"].disc == -3
    assert HECKE_SPECS["h3"].level == 7 and HECKE_SPECS["h3"].disc == -7
    assert HECKE_SPECS["h4"].level == 8 and HECKE_SPECS["h4"].disc == -8
    for spec in HECKE_SPECS.values():
        assert is_fundamental_discriminant(spec.disc)


def test_normalized_generators_known_values():
    g = normalized_generator(HECKE_SPECS["h8"], 5)
    assert (g.u, g.v) == (2, 4)
    assert ap(HECKE_SPECS["h8"], 5) == -6
    g = normalized_generator(HECKE_SPECS["h7"], 7)
    assert (g.u, g.v) == (4, 2)
    assert ap(HECKE_SPECS["h7"], 7) == 2
    assert ap(HECKE_SPECS["h4"], 3) == -2


def test_inert_primes_vanish():
    for fid, spec in HECKE_SPECS.items():
        for p in primes_upto(60):
            if spec.level % p == 0:
                continue
            if kronecker_character(spec.disc, p) == -1:
                assert ap(spec, p) == 0, (fid, p)


def test_ramified_primes():
    # the odd ramified primes carry the coefficient of a rational square;
    # 2 divides the conductor of h8's character, so no pair is normalised
    # and a_2 = 0, the coefficient of q^2 in eta(4 tau)^6
    assert ap(HECKE_SPECS["h7"], 3) == -3
    assert ap(HECKE_SPECS["h3"], 7) == -7
    assert ap(HECKE_SPECS["h8"], 2) == 0 == _eta_coefficients("h8", 2)[1]


def test_even_split_prime():
    # 2 splits in Q(sqrt(-7)) and does not divide the level 7 of h3; it
    # ramifies in Q(sqrt(-2)) (h4) and Q(i) (h8) and is inert in
    # Q(sqrt(-3)) (h7)
    assert ap(HECKE_SPECS["h3"], 2) == _eta_coefficients("h3", 2)[1] == -3
    assert ap(HECKE_SPECS["h4"], 2) == -2
    assert ap(HECKE_SPECS["h7"], 2) == 0
    assert ap(HECKE_SPECS["h8"], 2) == 0 == _eta_coefficients("h8", 2)[1]


def test_forged_table_and_factors_raise(monkeypatch):
    with pytest.raises(VerificationError) as exc:
        HeckeCharSpec("h8", d=1, conductor_gen=2, level=17)
    assert exc.value.identity == "Nm(c) |Disc K| = level"
    with pytest.raises(VerificationError, match="constant term 1"):
        LocalFactor(5, 3, (2, 1))
    with pytest.raises(VerificationError) as exc:
        weight3_factor(2, 1, 5) * weight3_factor(2, 1, 13)
    assert exc.value.identity == "local factors at one prime multiply"
    # a forged pair whose theta total 3^2 - 7 * 1^2 = 2 is not 0 mod 4
    monkeypatch.setattr(cmforms, "_norm_solutions", lambda d, p: [(3, 1)])
    with pytest.raises(VerificationError, match=r"4 \| the theta total at n"):
        ap(HECKE_SPECS["h3"], 11)


def test_weil_bound():
    for spec in HECKE_SPECS.values():
        for p in primes_upto(100):
            if p == 2 or spec.level % p == 0:
                continue
            assert abs(ap(spec, p)) <= 2 * p


def test_eta_agreement_everywhere():
    for spec in HECKE_SPECS.values():
        assert verify_against_eta(spec, 200) == []


def test_negative_control_unnormalized_generators_fail():
    # (u^2 - d v^2)/2 of the first Cornacchia pair, skipping the congruence
    # normalization, must break the eta match at some split prime for the
    # two conductor-2 characters, but cannot when the conductor is trivial
    def unnormalized_mismatches(fid):
        spec = HECKE_SPECS[fid]
        eta = cmforms._eta_coefficients(fid, 60)
        mismatches = []
        for p in primes_up_to(60):
            if kronecker_character(spec.disc, p) == 1:
                u, v = _norm_solutions(spec.d, p)[0]
                if (u * u - spec.d * v * v) // 2 != eta[p - 1]:
                    mismatches.append(p)
        return mismatches

    assert unnormalized_mismatches("h7") != []
    assert unnormalized_mismatches("h8") != []
    assert unnormalized_mismatches("h3") == []


def test_hecke_recursion_at_prime_squares():
    for fid, spec in HECKE_SPECS.items():
        seq = coefficient_sequence(spec, 170)
        for p in (5, 7, 11, 13):
            if spec.level % p == 0 or p * p > 170:
                continue
            eps = kronecker_character(spec.disc, p)
            assert seq[p * p - 1] == seq[p - 1] ** 2 - eps * p * p, (fid, p)


def test_multiplicativity():
    for spec in HECKE_SPECS.values():
        seq = coefficient_sequence(spec, 200)
        a = [0] + seq
        for m, n in ((3, 5), (4, 9), (5, 7), (8, 11), (9, 13)):
            if m * n <= 200:
                assert a[m * n] == a[m] * a[n]


def test_composite_input_rejected():
    with pytest.raises(InvalidPrimeError, match="15 is not prime"):
        ap(HECKE_SPECS["h8"], 15)
    with pytest.raises(InvalidPrimeError):
        normalized_generator(HECKE_SPECS["h8"], 25)


def test_each_prime_is_tested_once(monkeypatch):
    # the theta sum runs no primality test (its Weil pass reads the sieve);
    # the public ap tests its one prime once
    calls = Counter()

    def counted(n):
        calls[n] += 1
        return is_prime(n)

    monkeypatch.setattr(arith, "is_prime", counted)
    monkeypatch.setattr(cmforms, "is_prime", counted)
    for spec in HECKE_SPECS.values():
        calls.clear()
        coefficient_sequence(spec, 400)
        assert not calls, spec.form_id
        for p in primes_up_to(400):
            calls.clear()
            ap(spec, p)
            assert calls == Counter({p: 1}), (spec.form_id, p)


def test_sequence_matches_ap_to_20000():
    # the sieve pass against the public ap at every prime, bad ones and 2
    # included, and the Hecke recursion a_(p^2) = a_p^2 - eps(p) p^2 with
    # eps(p) = 0 at p | level
    N = 20000
    for fid, spec in HECKE_SPECS.items():
        seq = coefficient_sequence(spec, N)
        for p in primes_up_to(N):
            assert seq[p - 1] == ap(spec, p), (fid, p)
            if p * p <= N:
                eps = (0 if spec.level % p == 0
                       else kronecker_character(spec.disc, p))
                assert seq[p * p - 1] == seq[p - 1] ** 2 - eps * p * p, (
                    fid, p)


def test_sequence_against_eta_prefix():
    spec = HECKE_SPECS["h3"]
    eta = form_series("h3", 50)
    assert coefficient_sequence(spec, 50) == eta


def test_theta_sum_matches_the_euler_product_oracle():
    # one lattice pass against Cornacchia at each prime and the Euler
    # product, bad primes included (the oracle reads those off eta)
    for N in (500, 6000, 20000):
        for fid, spec in HECKE_SPECS.items():
            assert coefficient_sequence(spec, N) == euler_coefficient_sequence(
                spec, N), (fid, N)


def test_normalisation_depends_on_u_and_v_mod_2c():
    # the theta sum steps u through the classes mod 2c that pass
    for fid, spec in HECKE_SPECS.items():
        d, c = spec.d, spec.conductor_gen
        for u, v in itertools.product(range(-40, 41), repeat=2):
            assert _is_normalized(d, c, u, v) == _is_normalized(
                d, c, u % (2 * c), v % (2 * c)), (fid, u, v)


def test_accepting_every_alpha_cancels_the_conductor_2_series(monkeypatch,
                                                              capsys):
    # the unit multiples of alpha cancel in pairs (i alpha) or triples
    # (zeta_3 alpha) once the normalisation stops choosing one; with c = 1
    # every integral alpha is already normalised
    real = {fid: coefficient_sequence(spec, 300)
            for fid, spec in HECKE_SPECS.items()}
    monkeypatch.setattr(cmforms, "_is_normalized",
                        lambda d, c, u, v: _is_integral(d, u, v))
    for fid, spec in HECKE_SPECS.items():
        forged = coefficient_sequence(spec, 300)
        assert forged == ([0] * 300 if fid in ("h7", "h8") else real[fid])
    assert cli.run(["forms", "check", "--form", "h8"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out == ['{"eta": 1, "first_mismatch": 1, "hecke": 0, "mismatches": '
                   '[1, 5, 9, 13, 17], "n": 500, "ok": false, "suite": '
                   '"forms", "target": "h8"}']


def test_forged_theta_sums_raise():
    # without integrality, odd terms land at floor((u^2 + d v^2)/4)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(cmforms, "_is_normalized", lambda d, c, u, v: True)
        with pytest.raises(VerificationError, match="theta total at n"):
            coefficient_sequence(HECKE_SPECS["h3"], 100)
    # a sieve that lets composites through: a_85 = a_5 a_17 = 180 > 2 * 85
    with pytest.MonkeyPatch.context() as m:
        m.setattr(cmforms, "primes_up_to", lambda N: range(2, N + 1))
        with pytest.raises(WeilBoundError, match="p=85"):
            coefficient_sequence(HECKE_SPECS["h8"], 100)


def test_forged_theta_sums_raise_under_python_O():
    code = ("import sys\n"
            "from modk3 import cmforms\n"
            "if not sys.flags.optimize: sys.exit(3)\n"
            "h3, h8 = cmforms.HECKE_SPECS['h3'], cmforms.HECKE_SPECS['h8']\n"
            "normalized, sieve = cmforms._is_normalized, cmforms.primes_up_to\n"
            "def undivided():\n"
            "    cmforms._is_normalized = lambda d, c, u, v: True\n"
            "    cmforms.coefficient_sequence(h3, 100)\n"
            "def over_weil():\n"
            "    cmforms.primes_up_to = lambda N: range(2, N + 1)\n"
            "    cmforms.coefficient_sequence(h8, 100)\n"
            "for forgery in (undivided, over_weil):\n"
            "    try:\n"
            "        forgery()\n"
            "    except (cmforms.VerificationError,\n"
            "            cmforms.WeilBoundError) as exc:\n"
            "        print(type(exc).__name__, getattr(exc, 'identity', exc))\n"
            "    else:\n"
            "        sys.exit(4)\n"
            "    cmforms._is_normalized, cmforms.primes_up_to = normalized, sieve\n")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == [
        "VerificationError 4 | the theta total at n",
        "WeilBoundError |a_p|=180 exceeds 2p for p=85"]


def test_eta_agreement_to_20000():
    # the Hecke-character coefficients against the eta products to q^20000
    for fid in ("h3", "h4", "h7", "h8"):
        assert verify_against_eta(HECKE_SPECS[fid], 20000) == [], fid


@pytest.mark.slow
def test_eta_agreement_to_50000():
    for fid in ("h3", "h4", "h7", "h8"):
        assert verify_against_eta(HECKE_SPECS[fid], 50000) == [], fid


def test_ap_matches_the_element_normalisation_to_20000():
    for fid, spec in HECKE_SPECS.items():
        for p in primes_up_to(20000):
            if fid == "h8" and p == 2:  # 2 divides the conductor of chi
                continue
            expected, pair = element_ap(spec, p)
            assert ap(spec, p) == expected, (fid, p)
            if pair is not None:
                g = normalized_generator(spec, p)
                assert (g.u, g.v) == pair, (fid, p)


@pytest.mark.slow
def test_ap_at_large_primes():
    # near 10^6, 10^9 and 10^12: the first two primes and the first prime
    # split in all four fields, against the O(sqrt p) generators and the
    # Weil bound
    for k in (6, 9, 12):
        primes = (q for q in itertools.count(10 ** k) if is_prime(q))
        sample = [next(primes), next(primes)]
        sample.append(next(q for q in primes if all(
            kronecker_character(spec.disc, q) == 1
            for spec in HECKE_SPECS.values())))
        for p in sample:
            for fid, spec in HECKE_SPECS.items():
                a = ap(spec, p)
                assert a == element_ap(spec, p)[0], (fid, p)
                assert abs(a) <= 2 * p, (fid, p)
