from collections import Counter
from types import SimpleNamespace

import pytest

from modk3 import arith, cmforms
from modk3.arith import (InvalidPrimeError, VerificationError,
                         is_fundamental_discriminant, is_prime,
                         kronecker_character, primes_up_to)
from modk3.cmforms import (BadPrimeError, HECKE_SPECS, HeckeCharSpec,
                           LocalFactor, _eta_coefficients, ap,
                           coefficient_sequence,
                           normalized_generator, splitting,
                           verify_against_eta, weight3_factor)
from modk3.qseries import form_series


def primes_upto(n):
    return [p for p in range(2, n + 1)
            if all(p % k for k in range(2, int(p ** 0.5) + 1))]


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
            if splitting(spec, p) == -1:
                assert ap(spec, p) == 0, (fid, p)


def test_ramified_primes():
    # the odd ramified primes carry the coefficient of a rational square
    assert ap(HECKE_SPECS["h7"], 3) == -3
    assert ap(HECKE_SPECS["h3"], 7) == -7
    with pytest.raises(BadPrimeError):
        ap(HECKE_SPECS["h8"], 2)


def test_even_split_prime():
    # 2 splits in Q(sqrt(-7)) and does not divide the level 7 of h3; the
    # ramified (h4, h8) and inert (h7) branches at 2 are unchanged
    assert ap(HECKE_SPECS["h3"], 2) == _eta_coefficients("h3", 2)[1] == -3
    assert ap(HECKE_SPECS["h4"], 2) == -2
    assert ap(HECKE_SPECS["h7"], 2) == 0
    with pytest.raises(BadPrimeError):
        ap(HECKE_SPECS["h8"], 2)


def test_forged_table_and_factors_raise(monkeypatch):
    with pytest.raises(VerificationError, match="level"):
        HeckeCharSpec("h8", d=1, conductor_gen=2, level=17)
    with pytest.raises(VerificationError, match="constant term 1"):
        LocalFactor(5, 3, (2, 1))
    with pytest.raises(VerificationError, match="one prime"):
        weight3_factor(2, 1, 5) * weight3_factor(2, 1, 13)
    # a ramified generator whose square is not a rational integer
    monkeypatch.setattr(cmforms, "_generator_candidates",
                        lambda spec, p: [SimpleNamespace(u=1, v=0)])
    with pytest.raises(VerificationError, match="rational integer"):
        ap(HECKE_SPECS["h7"], 3)


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
    # tr(pi^2) of the first generator candidate, skipping the congruence
    # normalization, must break the eta match at some split prime for the
    # two conductor-2 characters, but cannot when the conductor is trivial
    def unnormalized_mismatches(fid):
        spec = HECKE_SPECS[fid]
        eta = cmforms._eta_coefficients(fid, 60)
        return [p for p in primes_up_to(60) if splitting(spec, p) == 1
                and cmforms._generator_candidates(spec, p)[0]
                .trace_of_square() != eta[p - 1]]

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
    with pytest.raises(ValueError):
        ap(HECKE_SPECS["h8"], 15)
    with pytest.raises(InvalidPrimeError):
        normalized_generator(HECKE_SPECS["h8"], 25)


def test_each_prime_is_tested_once(monkeypatch):
    calls = Counter()

    def counted(n):
        calls[n] += 1
        return is_prime(n)

    monkeypatch.setattr(arith, "is_prime", counted)
    monkeypatch.setattr(cmforms, "is_prime", counted)
    for spec in HECKE_SPECS.values():
        calls.clear()
        coefficient_sequence(spec, 400)
        assert set(calls) == set(primes_up_to(400)), spec.form_id
        assert max(calls.values()) == 1, spec.form_id


def test_sequence_against_eta_prefix():
    spec = HECKE_SPECS["h3"]
    eta = form_series("h3", 50)
    assert coefficient_sequence(spec, 50) == eta


@pytest.mark.slow
def test_eta_agreement_to_20000():
    # the Hecke-character coefficients against the eta products to q^20000
    for fid in ("h3", "h4", "h7", "h8"):
        assert verify_against_eta(HECKE_SPECS[fid], 20000) == [], fid
