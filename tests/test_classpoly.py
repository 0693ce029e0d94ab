import json
import os
from fractions import Fraction

import mpmath
import pytest

from bpx.classpoly import (QuadForm, corollary_conditions,
                           eligibility, hilbert_class_poly,
                           hurwitz_class_number, reduced_forms,
                           singular_modulus)
from bpx.errors import InputError, NotADiscriminantError
from bpx.arith import is_fundamental_discriminant
from bpx.ssforms import supersingular_poly


def test_reduced_forms_examples():
    assert [(f.a, f.b, f.c, f.weight) for f in reduced_forms(3)] == [(1, 1, 1, 3)]
    assert [(f.a, f.b, f.c, f.weight) for f in reduced_forms(4)] == [(1, 0, 1, 2)]
    assert [(f.a, f.b, f.c, f.weight) for f in reduced_forms(20)] == \
        [(1, 0, 5, 1), (2, 2, 3, 1)]


def test_reduced_forms_are_reduced_and_consistent():
    for d in range(3, 200):
        if d % 4 not in (0, 3):
            continue
        for f in reduced_forms(d):
            assert f.discriminant == -d
            assert abs(f.b) <= f.a <= f.c
            if abs(f.b) == f.a or f.a == f.c:
                assert f.b >= 0


def test_not_a_discriminant():
    for d in (5, 6, 9, 1, 2, -3, 0):
        with pytest.raises(NotADiscriminantError):
            reduced_forms(d)


def test_hurwitz_class_numbers():
    assert hurwitz_class_number(3) == Fraction(1, 3)
    assert hurwitz_class_number(4) == Fraction(1, 2)
    assert hurwitz_class_number(7) == 1
    assert hurwitz_class_number(12) == Fraction(4, 3)
    assert hurwitz_class_number(16) == Fraction(3, 2)
    assert hurwitz_class_number(20) == 2
    assert hurwitz_class_number(23) == 3


def test_singular_modulus_classics():
    # two-precision oracle: evaluate at prec and prec+20, compare
    for prec in (30, 50):
        ji = singular_modulus(QuadForm(1, 0, 1, 2), prec)
        assert abs(ji - 1728) < mpmath.mpf(10) ** (-prec)
        rho = singular_modulus(QuadForm(1, 1, 1, 3), prec)
        assert abs(rho) < mpmath.mpf(10) ** (-prec)
        j7 = singular_modulus(QuadForm(1, 1, 2, 1), prec)
        assert abs(j7 + 3375) < mpmath.mpf(10) ** (-prec)


def test_singular_modulus_two_precision_agreement():
    for Q in reduced_forms(23):
        lo = singular_modulus(Q, 30)
        hi = singular_modulus(Q, 50)
        assert abs(lo - hi) < mpmath.mpf(10) ** -28


def test_hilbert_class_poly_small(tmp_path):
    cache = str(tmp_path)
    w4 = hilbert_class_poly(4, cache_dir=cache)
    assert len(w4.components) == 1
    poly, wt = w4.components[0]
    assert str(poly) == "x + -1728" and wt == Fraction(1, 2)
    w7 = hilbert_class_poly(7, cache_dir=cache)
    assert [(str(p), w) for p, w in w7.components] == [("x + 3375", Fraction(1))]
    w3 = hilbert_class_poly(3, cache_dir=cache)
    assert [(str(p), w) for p, w in w3.components] == [("x", Fraction(1, 3))]


def test_hilbert_class_poly_20_golden(tmp_path):
    w = hilbert_class_poly(20, cache_dir=str(tmp_path))
    assert len(w.components) == 1
    poly, wt = w.components[0]
    assert wt == 1
    assert poly.coeffs == [-681472000, -1264000, 1]
    assert w.h == 2


def test_class_poly_components_squarefree_over_q():
    for d in (3, 4, 7, 12, 15, 16, 20, 23, 27):
        w = hilbert_class_poly(d)
        for poly, _ in w.components:
            from bpx.qseries import QQ, Poly
            pq = Poly(QQ, [Fraction(c) for c in poly.coeffs])
            assert pq.is_squarefree()


def test_cache_round_trip(tmp_path):
    cache = str(tmp_path)
    first = hilbert_class_poly(23, cache_dir=cache)
    assert not first.cached
    again = hilbert_class_poly(23, cache_dir=cache)
    assert again.cached
    assert again.components == first.components
    assert again.h == first.h
    # the document format: decimal strings and num/den weights
    with open(os.path.join(cache, "hd_23.json")) as fh:
        doc = json.load(fh)
    assert doc["d"] == 23
    assert all(isinstance(c, str) for item in doc["components"]
               for c in item["coeffs"])
    assert all("/" in item["weight"] for item in doc["components"])
    assert doc["precision_used"] > 0


def test_corrupt_cache_recomputed(tmp_path):
    cache = str(tmp_path)
    path = os.path.join(cache, "hd_7.json")
    os.makedirs(cache, exist_ok=True)
    with open(path, "w") as fh:
        fh.write("{not json")
    w = hilbert_class_poly(7, cache_dir=cache)
    assert [(str(p), wt) for p, wt in w.components] == [("x + 3375", Fraction(1))]


def test_eligibility_examples():
    assert eligibility(4, 11).divides
    assert eligibility(3, 5).divides
    assert not eligibility(4, 13).divides
    rep = eligibility(20, 31)
    assert rep.divides and rep.squarefree


def test_eligibility_squarefree_for_corollary_pairs():
    # whenever the inert/kronecker/range conditions all hold, the class
    # polynomial divides s_l and is squarefree mod l
    for ell in (5, 7, 11, 13, 17, 19, 23, 29, 31):
        for d in range(3, ell):
            if d % 4 not in (0, 3) or not is_fundamental_discriminant(-d):
                continue
            rep = corollary_conditions(1, d, ell)
            if rep.all_hold:
                e = eligibility(d, ell)
                assert e.divides, (d, ell)
                assert e.squarefree, (d, ell)


def test_eligibility_scan_computes_s_ell_once():
    # a table2-style scan asks for s_l once per d; it is built once
    supersingular_poly.cache_clear()
    for d in range(3, 60):
        if d % 4 in (0, 3):
            eligibility(d, 11)
    assert supersingular_poly.cache_info().misses == 1


def test_corollary_conditions_examples():
    assert corollary_conditions(1, 3, 5).inert      # (-3/5) = -1
    assert not corollary_conditions(1, 4, 13).inert  # 13 = 1 mod 4
    rep = corollary_conditions(1, 4, 11)
    assert rep.inert and rep.kron and rep.range_ok


def test_corollary_conditions_validation():
    with pytest.raises(InputError):
        corollary_conditions(1, 12, 11)   # -12 not fundamental
    with pytest.raises(InputError):
        corollary_conditions(9, 4, 11)    # 9 not fundamental
    with pytest.raises(InputError):
        corollary_conditions(8, 8, 11)    # -64 not fundamental
