"""Acceptance suite: one test per headline criterion, each printing a
single PASS/FAIL line (visible even under pytest's output capture)."""

import math
import random
import sys
import time

from modk3.arith import FIELD_DISC, kronecker_character
from modk3.cmforms import HECKE_SPECS, ap as form_ap, verify_against_eta
from modk3.cli import SCAN_NOTES, _parser, cmd_surface_scan
from modk3.congruence import (PRESET_CUSP_WIDTHS, cusps_and_widths,
                              elliptic_counts, genus, group_report,
                              index_in_modular_group, preset_group)
from helpers import (WeierstrassCurve, hasse_count, norm_equation_solutions,
                     two_isogeny_quotient)
from modk3.counting import ap_elliptic, good_primes, h3_trace, k3_point_count
from modk3.families import preset
from modk3.kodaira import eigenspace_counts, scan
from modk3.lfunctions import (_root_product_expansion, assemble_h3,
                              betti_hodge_report, tensor_factor)
from modk3.qseries import ETA_FORMS, _pentagonal_coeffs, eta_product

K3_FAMILIES = ("g4_legendre", "g62", "g82", "g8_412")
E_TEST = (0, 0, 0, -1, 0)


def report(n, name, started, budget):
    elapsed = time.monotonic() - started
    print(f"ACCEPTANCE {n} ({name}): PASS in {elapsed:.1f}s")
    sys.stdout.flush()
    assert elapsed < budget, f"criterion {n} exceeded the {budget}s budget"


def test_criterion_1_group_suite():
    t0 = time.monotonic()
    for k in range(1, 10):
        g = preset_group(k)
        assert index_in_modular_group(g) == 24, k
        assert genus(g) == 0, k
        assert elliptic_counts(g) == (0, 0), k
        cusps = cusps_and_widths(g)
        assert len(cusps) == 6, k
        assert sorted(c.width for c in cusps) == sorted(PRESET_CUSP_WIDTHS[k]), k
        r = group_report(k)
        assert not r["lift_has_minus_id"], k
        assert r["trace_minus2_free"], k
    report(1, "group suite", t0, 5)


def test_criterion_2_form_suite():
    t0 = time.monotonic()
    for fid in ("h3", "h4", "h7", "h8"):
        assert verify_against_eta(HECKE_SPECS[fid], 500) == [], fid
        spec = HECKE_SPECS[fid]
        for p in (5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43):
            if spec.level % p == 0:
                continue
            a = form_ap(spec, p)
            assert abs(a) <= 2 * p, (fid, p)
            if kronecker_character(spec.disc, p) == -1:
                assert a == 0, (fid, p)
    # h8(tau) = h5(2 tau) = h1(4 tau) and h7(tau) = h2(2 tau): equal
    # leading exponents, and each eta product is the smaller scale's spread
    def offset(fid, scale=1):
        return scale * sum(m * r for m, r in ETA_FORMS[fid])

    def spread(fid, s, n):
        a = eta_product(ETA_FORMS[fid], -(-n // s))
        return [a[k // s] if k % s == 0 else 0 for k in range(n)]

    n = 300
    assert offset("h8") == offset("h5", 2) == offset("h1", 4)
    assert offset("h7") == offset("h2", 2)
    h8 = eta_product(ETA_FORMS["h8"], n)
    assert h8 == spread("h5", 2, n) == spread("h1", 4, n)
    assert eta_product(ETA_FORMS["h7"], n) == spread("h2", 2, n)
    # convention note: the passing normalization takes a_p = tr(pi^2)
    # = (u^2 - d v^2)/2 on the (u + v sqrt(-d))/2 lattice
    report(2, "form suite", t0, 5)


def test_criterion_3_fiber_suite():
    t0 = time.monotonic()
    expected = {
        "g4_legendre": (["I4"] * 6, 24),
        "g62": (["I6"] * 3 + ["I2"] * 3, 24),
        "g82": (["I8"] * 2 + ["I2"] * 4, 24),
        "g8_412": (["I8"] + ["I4"] * 3 + ["I2"] * 2, 24),
        "e1_7": (["I7"] * 3 + ["I1"] * 3, 24),
        "e1_8": (["I8", "I8", "I4", "I2", "I1", "I1"], 24),
        "e1_6": (["I6", "I3", "I2", "I1"], 12),
        "e1_4": (["I4", "I1", "I1*"], 12),
    }
    for name, (cfg, euler) in expected.items():
        fam = preset(name)
        configs = set()
        for p in good_primes(fam, 5, 30)[:3]:
            rep = scan(fam, p)
            assert sorted(rep.config) == sorted(cfg), (name, p)
            assert rep.euler_total == euler, (name, p)
            configs.add(rep.config)
        assert len(configs) == 1, name
    (record,) = cmd_surface_scan(_parser("surface", "scan").parse_args(
        ["--family", "g82", "--p", "13"]))
    assert record["ok"] and record["note"] == SCAN_NOTES["g82"]
    report(3, "fiber suite", t0, 30)


def test_criterion_4_k3_modularity_suite():
    t0 = time.monotonic()
    for name in K3_FAMILIES:
        fam = preset(name)
        # the stored form and twist, not a fit on the primes checked here
        spec, disc = HECKE_SPECS[fam.form_id], fam.twist_disc
        for p in good_primes(fam, 5, 97):
            r = k3_point_count(fam, p)
            assert r.B == kronecker_character(disc, p) * form_ap(spec, p), \
                (name, p)
            assert r.ns_trace_used == fam.ns_data.trace(p), (name, p)
    report(4, "K3 modularity suite", t0, 120)


def test_criterion_5_eigenspace_suite():
    t0 = time.monotonic()
    assert eigenspace_counts(["I4"] * 6) == (14, 6)            # family 1
    assert eigenspace_counts(["I6"] * 3 + ["I2"] * 3) == (14, 6)  # family 2
    assert eigenspace_counts(["I7"] * 3 + ["I1"] * 3) == (11, 9)  # family 3
    stored = {name: preset(name).ns_data.counts() for name in K3_FAMILIES}
    assert stored["g4_legendre"] == ((12, 2), (3, 3))
    assert stored["g62"] == ((14, 0), (6, 0))
    # the two level-8 cases keep the narrative splits, with the minus part
    # of g82 all-rational (the arbitration by the ns_trace fit above)
    assert stored["g82"] == ((13, 1), (6, 0))
    assert stored["g8_412"] == ((13, 1), (5, 1))
    report(5, "eigenspace split suite", t0, 5)


def test_criterion_6_tensor_suite():
    t0 = time.monotonic()
    rng = random.Random(2024)
    for _ in range(100):
        p = rng.choice([5, 7, 11, 13, 17, 19, 23, 29, 31])
        A = rng.randint(-2 * math.isqrt(p), 2 * math.isqrt(p))
        B = rng.randint(-2 * p, 2 * p)
        eps = rng.choice([-1, 1])
        assert (tensor_factor(A, B, eps, p).coefficients
                == _root_product_expansion(A, B, eps, p))
    for name in ("g4_legendre", "g62"):
        fam = preset(name)
        coeffs = assemble_h3(fam, E_TEST, 97)
        for p in good_primes(fam, 5, 97):
            assert coeffs[p - 1] == h3_trace(fam, E_TEST, p), (name, p)
    b = betti_hodge_report()
    assert b["B3_product"] == 44 and b["b2_threefold"] == 31
    assert b["b3_threefold"] == 16 and b["h21_threefold"] == 7
    report(6, "tensor/L-series suite", t0, 60)


def test_criterion_7_oracle_equivalence():
    t0 = time.monotonic()
    # pentagonal recurrence vs naive telescoping product
    nterms = 300
    naive = [0] * nterms
    naive[0] = 1
    for n in range(1, nterms):
        for i in range(nterms - n - 1, -1, -1):
            if naive[i]:
                naive[i + n] -= naive[i]
    assert _pentagonal_coeffs(nterms) == naive
    # projective counts vs exhaustive affine enumeration
    rng = random.Random(99)
    for _ in range(20):
        p = rng.choice([5, 7, 11, 13, 17, 101])
        E = WeierstrassCurve(rng.randrange(p), rng.randrange(p),
                             rng.randrange(p), rng.randrange(p),
                             rng.randrange(p), p=p)
        brute = 1 + sum(E.is_on_curve((x, y))
                        for x in range(p) for y in range(p))
        assert hasse_count(E.ainvs, E.p) == brute
    # norm equations vs brute force
    primes = [p for p in range(2, 501)
              if all(p % k for k in range(2, int(p ** 0.5) + 1))]
    for d in tuple(FIELD_DISC):
        for p in primes:
            sols = {(s.u, s.v) for s in norm_equation_solutions(d, p)}
            brute = set()
            for v in range(-int((4 * p / d) ** 0.5) - 1,
                           int((4 * p / d) ** 0.5) + 2):
                rem = 4 * p - d * v * v
                if rem < 0:
                    continue
                u = math.isqrt(rem)
                if u * u != rem:
                    continue
                if d in (3, 7) and (u - v) % 2:
                    continue
                if d in (1, 2) and (u % 2 or v % 2):
                    continue
                brute.add((u, v))
            assert sols == brute, (d, p)
    # a rational 2-isogeny cannot change the number of points
    done = 0
    while done < 100:
        p = rng.choice([5, 7, 11, 13, 17, 19])
        E = WeierstrassCurve(0, rng.randrange(p), 0, rng.randrange(1, p), 0,
                             p=p)
        if E._is_zero(E.discriminant()):
            continue
        Q = two_isogeny_quotient(E)
        if Q._is_zero(Q.discriminant()):
            continue
        assert ap_elliptic(E.ainvs, p) == ap_elliptic(Q.ainvs, p)
        done += 1
    report(7, "oracle equivalence", t0, 60)


def test_elliptic_inputs_for_the_tensor_suite_are_good():
    # the fixed test curve must have good reduction at every prime used above
    for p in good_primes(preset("g4_legendre"), 5, 97):
        assert abs(ap_elliptic(E_TEST, p)) <= 2 * math.isqrt(p) + 1
