import pytest

from bpx.arith import Mod
from bpx.errors import InputError, TruncationError
from bpx.qseries import GF, QQ, ZZ, Poly, delta, eisenstein
from bpx.ssforms import (eigenbasis, eisenstein_cusp_split,
                         hecke_Tp, supersingular_j_invariants,
                         supersingular_poly, supersingular_poly_bruteforce,
                         weight_decomposition)


def test_weight_decomposition_examples():
    wd = weight_decomposition(10)
    assert (wd.m, wd.delta, wd.epsilon) == (0, 1, 1)
    wd = weight_decomposition(30)
    assert (wd.m, wd.delta, wd.epsilon) == (2, 0, 1)
    wd = weight_decomposition(12)
    assert (wd.m, wd.delta, wd.epsilon) == (1, 0, 0)


def test_weight_decomposition_reconstructs_and_errors():
    for k in range(4, 120, 2):
        wd = weight_decomposition(k)
        assert 12 * wd.m + 4 * wd.delta + 6 * wd.epsilon == k
        assert wd.delta in (0, 1, 2) and wd.epsilon in (0, 1) and wd.m >= 0
    with pytest.raises(InputError):
        weight_decomposition(2)
    with pytest.raises(InputError):
        weight_decomposition(7)


def test_supersingular_examples():
    assert str(supersingular_poly(5)) == "x"
    assert str(supersingular_poly(11)) == "x^2 + 10*x"    # x(x - 1), 1728 = 1 mod 11
    assert str(supersingular_poly(13)) == "x + 8"         # x - 5
    assert supersingular_j_invariants(11) == [0, 1]
    assert supersingular_j_invariants(7) == [6]


def test_supersingular_matches_bruteforce_to_50():
    for ell in (5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47):
        assert supersingular_poly(ell) == supersingular_poly_bruteforce(ell)


def test_supersingular_degree_formula_to_100():
    for ell in (5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61,
                67, 71, 73, 79, 83, 89, 97):
        wd = weight_decomposition(ell - 1)
        assert supersingular_poly(ell).degree == wd.m + wd.delta + wd.epsilon


def test_supersingular_certificates_above_100():
    # the Delta^m division used to run short of terms for every l >= 109;
    # certificates instead of the l^4 brute force: the number of
    # supersingular j (Deuring/Eichler) and s_l | x^(l^2) - x, i.e. s_l is
    # squarefree with every root in F_(l^2)
    for ell in (109, 113, 199, 1009):
        s = supersingular_poly(ell)
        ring = GF(ell)
        assert s.leading == ring.one
        assert s.degree == ell // 12 + {1: 0, 5: 1, 7: 1, 11: 2}[ell % 12]
        x = Poly(ring, [ring.zero, ring.one])
        power, base, e = Poly(ring, [ring.one]), x, ell * ell
        while e:
            if e & 1:
                power = (power * base) % s
            base = (base * base) % s
            e >>= 1
        assert power == x % s


def test_supersingular_1009_needs_no_bernoulli_number(monkeypatch):
    # E_1008 is 1 mod 1009 and 1008 = 12 * 84 leaves no E4 or E6 factor
    # beside Delta^84, so no Bernoulli number is needed; bernoulli(1008)
    # alone took 11 s
    from bpx import qseries
    asked = []
    bernoulli = qseries.bernoulli
    monkeypatch.setattr(qseries, "bernoulli",
                        lambda m: asked.append(m) or bernoulli(m))
    assert supersingular_poly(1009).degree == 84
    assert asked == []


def test_hecke_t2_on_delta():
    d = delta(20, ZZ)
    t2 = hecke_Tp(d, 2, 12)
    assert t2 == delta(10, ZZ).scale(-24)
    t3 = hecke_Tp(delta(24, ZZ), 3, 12)
    assert t3 == delta(8, ZZ).scale(252)


def test_hecke_insufficient_order():
    with pytest.raises(TruncationError):
        hecke_Tp(delta(10, ZZ), 2, 12, out_order=8)
    with pytest.raises(InputError):
        hecke_Tp(delta(10, ZZ), 4, 12)


def test_eigenbasis_level_11():
    eb = eigenbasis(11, 30)
    assert eb.dim == 1
    assert eb.describe(0) == "Delta"
    assert eb.t2_eigenvalues == (Mod(-24, 11),)
    assert eb.forms[0] == delta(30, GF(11))


def test_eigenbasis_empty_for_13():
    assert eigenbasis(13).dim == 0
    assert eigenbasis(5).dim == 0
    assert eigenbasis(7).dim == 0


def test_eigenbasis_31_is_an_actual_eigenbasis():
    eb = eigenbasis(31, 60)
    assert eb.dim == 2
    # forms are Delta E4^2 E6^2 + c Delta^2 E4^2 with c = 13 and 7; any
    # other combination fails the T_p eigenvector check below.
    combos = {dict(eb.monomial_combos[i])[(2, 2, 0)] for i in range(2)}
    assert combos == {13, 7}
    assert tuple(v.value for v in eb.t2_eigenvalues) == (19, 13)
    for i, form in enumerate(eb.forms):
        assert form.coeff(1) == 1
        for p in (2, 3, 5, 7):
            tf = hecke_Tp(form, p, 32)
            ap = tf.coeff(1)
            assert tf == form.truncate(tf.trunc).scale(ap), (i, p)
        assert eb.t2_eigenvalues[i] == hecke_Tp(form, 2, 32).coeff(1)


def test_eigenforms_simultaneous_to_order_50():
    # T_p f = a_p f coefficient-wise to order 50 for p in {2, 3, 5, 7}
    for ell in (11, 17, 19, 31):
        eb = eigenbasis(ell, order=360)
        for form in eb.forms:
            for p in (2, 3, 5, 7):
                tf = hecke_Tp(form, p, ell + 1, out_order=50)
                ap = tf.coeff(1)
                assert tf == form.truncate(50).scale(ap), (ell, p)


def test_t2_matrix_eigenvalues_match_exact_characteristic_data():
    # over Q the T_2 matrix on the weight 32 cusp monomials has
    # trace 39960 and determinant -2235350016; check mod 31 roots
    eb = eigenbasis(31, 20)
    evs = [v.value for v in eb.t2_eigenvalues]
    assert (evs[0] + evs[1]) % 31 == 39960 % 31
    assert (evs[0] * evs[1]) % 31 == (-2235350016) % 31


def test_exact_t2_matrix_weight_32():
    # independent derivation of the trace/det used above, over Q
    n = 12
    d = delta(n, QQ)
    e4 = eisenstein(4, n, QQ)
    e6 = eisenstein(6, n, QQ)
    g1 = d * d * e4 * e4
    g2 = d * e4 * e4 * e6 * e6
    t1 = hecke_Tp(g1, 2, 32)
    t2 = hecke_Tp(g2, 2, 32)

    def solve(t):
        a11, a12 = g1.coeff(1), g2.coeff(1)
        a21, a22 = g1.coeff(2), g2.coeff(2)
        det = a11 * a22 - a12 * a21
        return ((t.coeff(1) * a22 - t.coeff(2) * a12) / det,
                (a11 * t.coeff(2) - a21 * t.coeff(1)) / det)

    c11, c21 = solve(t1)
    c12, c22 = solve(t2)
    assert c11 + c22 == 39960
    assert c11 * c22 - c12 * c21 == -2235350016


def test_eigenbasis_not_defined_over_f23():
    # T_2 on the weight 24 cusp forms has irrational eigenvalues whose
    # discriminant is a nonresidue mod 23
    with pytest.raises(InputError, match="not defined over F_23"):
        eigenbasis(23)


def test_eigenbasis_17_19():
    eb17 = eigenbasis(17, 20)
    assert eb17.dim == 1 and eb17.describe(0) == "Delta*E6"
    eb19 = eigenbasis(19, 20)
    assert eb19.dim == 1 and eb19.describe(0) == "Delta*E4^2"


def test_eisenstein_cusp_split():
    ell = 11
    ring = GF(ell)
    f = eisenstein(ell + 1, 40, ring)
    c0, cusp = eisenstein_cusp_split(f, ell)
    assert c0 == 1
    assert cusp.is_zero()
    # idempotence: split(c0 E_{l+1} + cusp) returns (c0, cusp) exactly
    g = eisenstein(ell + 1, 40, ring).scale(7) + delta(40, ring).scale(3)
    c0g, cuspg = eisenstein_cusp_split(g, ell)
    assert c0g == 7
    assert cuspg == delta(40, ring).scale(3)
