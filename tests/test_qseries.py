import cmath
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bpx.arith import Mod, QuadExt, is_fundamental_discriminant, kronecker
from bpx.errors import InputError, TruncationError
from bpx.qseries import (GF, QQ, ZZ, Poly, QSeries, QuadField, _kron_mul_zz,
                         as_j_polynomial, delta, eisenstein, euler_product, f2,
                         f2_numeric, jfunction, monomial_basis, monomial_form,
                         pd_log_coeffs)


def test_eisenstein_small():
    e4 = eisenstein(4, 2, ZZ)
    assert [e4.coeff(i) for i in range(3)] == [1, 240, 2160]
    e2 = eisenstein(2, 1, ZZ)
    assert [e2.coeff(i) for i in range(2)] == [1, -24]
    e6 = eisenstein(6, 2, ZZ)
    assert [e6.coeff(i) for i in range(3)] == [1, -504, -16632]


@pytest.mark.parametrize("ell", [5, 7, 11, 13, 31, 37])
def test_eisenstein_over_gf_is_the_reduced_rational_series(ell, monkeypatch):
    from bpx import qseries
    from bpx.arith import frac_mod
    n = 30
    for k in (ell - 1, 2 * (ell - 1), ell + 1):
        want = [frac_mod(c, ell) for c in eisenstein(k, n, QQ).coeffs]
        if k % (ell - 1) == 0:
            assert want == [Mod(1, ell)] + [Mod(0, ell)] * n
            # von Staudt-Clausen: l | 2k/B_k, so no Bernoulli number is needed
            monkeypatch.setattr(qseries, "bernoulli", None)
        got = eisenstein(k, n, GF(ell))
        monkeypatch.undo()
        assert got.lead == 0 and got.trunc == n
        assert got.coeffs == want


def test_eisenstein_12_is_rational():
    e12 = eisenstein(12, 3, QQ)
    assert e12.coeff(0) == 1
    assert e12.coeff(1) == Fraction(65520, 691)
    with pytest.raises(InputError):
        eisenstein(12, 3, ZZ)  # 65520/691 is not an integer


def test_delta_known_coefficients():
    d = delta(6, ZZ)
    assert d.coeff(1) == 1
    assert d.coeff(2) == -24
    assert d.coeff(3) == 252
    assert d.coeff(4) == -1472
    assert d.coeff(5) == 4830
    assert d.coeff(6) == -6048


def test_delta_two_routes_agree():
    # pentagonal-product construction vs (E4^3 - E6^2)/1728 over Q, 300 terms
    lhs = delta(300, QQ)
    rhs = (eisenstein(4, 300, QQ) ** 3 - eisenstein(6, 300, QQ) ** 2) \
        / QSeries.constant(QQ, 1728, 300)
    assert lhs == rhs


def test_jfunction_known_coefficients():
    j = jfunction(2, ZZ)
    assert j.lead == -1
    assert j.coeff(-1) == 1
    assert j.coeff(0) == 744
    assert j.coeff(1) == 196884
    assert j.coeff(2) == 21493760


def test_j_times_delta_is_e4_cubed():
    n = 300
    assert jfunction(n, ZZ) * delta(n, ZZ) == eisenstein(4, n, ZZ) ** 3


def test_emod_congruences_to_500_terms():
    for ell in (5, 7, 11, 13, 17, 19, 23, 29, 31):
        ring = GF(ell)
        e_lm1 = eisenstein(ell - 1, 500, ring)
        assert e_lm1 == QSeries.one(ring, 500)
        assert eisenstein(ell + 1, 500, ring) == eisenstein(2, 500, ring)


def test_gf_multiplication_matches_exact_reduction():
    for ell in (11, 31):
        assert delta(400, GF(ell)) == delta(400, ZZ).reduce_mod(ell)


def _conv_oracle(a, b, n):
    out = [0] * (n + 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            if i + j <= n:
                out[i + j] += x * y
    return out


@given(st.lists(st.integers(-9, 9), min_size=1, max_size=25),
       st.lists(st.integers(-9, 9), min_size=1, max_size=25))
@settings(max_examples=80, deadline=None)
def test_series_product_matches_schoolbook(a, b):
    n = min(len(a), len(b)) - 1
    fa = QSeries(ZZ, 0, list(a))
    fb = QSeries(ZZ, 0, list(b))
    got = fa * fb
    want = _conv_oracle(a, b, n)
    assert [got.coeff(i) for i in range(n + 1)] == want


@given(st.lists(st.integers(0, 10), min_size=1, max_size=25),
       st.lists(st.integers(0, 10), min_size=1, max_size=25))
@settings(max_examples=60, deadline=None)
def test_gf_product_matches_schoolbook(a, b):
    ell = 11
    n = min(len(a), len(b)) - 1
    fa = QSeries(GF(ell), 0, [Mod(v, ell) for v in a])
    fb = QSeries(GF(ell), 0, [Mod(v, ell) for v in b])
    got = fa * fb
    want = [v % ell for v in _conv_oracle(a, b, n)]
    assert [got.coeff(i).value for i in range(n + 1)] == want


_SIGNED = st.one_of(st.just(0), st.integers(-9, 9),
                    st.integers(-10 ** 40, 10 ** 40))


@given(st.lists(_SIGNED, min_size=1, max_size=30),
       st.lists(_SIGNED, min_size=1, max_size=30), st.integers(1, 64))
@settings(max_examples=150, deadline=None)
def test_signed_kronecker_product_matches_schoolbook(a, b, n_out):
    # random signed, sparse (zeros drawn often), huge and length-1 operands
    assert _kron_mul_zz(a, b, n_out) == _conv_oracle(a, b, n_out - 1)


def test_signed_kronecker_product_edge_cases():
    assert _kron_mul_zz([5], [-7], 1) == [-35]
    assert _kron_mul_zz([0, 0], [3], 3) == [0, 0, 0]
    a = [0] * 40 + [-(2 ** 64)]
    b = [2 ** 64 - 1, -1, 0, 1]
    assert _kron_mul_zz(a, b, 44) == _conv_oracle(a, b, 43)
    # every ZZ product shape the program uses, whichever method is chosen
    j = jfunction(60, ZZ).shift(1)
    growing = QSeries(ZZ, 0, [(-10) ** (3 * i) for i in range(62)])
    shapes = [(j, j), (QSeries.constant(ZZ, -1728, 61), j),
              (euler_product(61, ZZ), euler_product(61, ZZ)),
              (QSeries(ZZ, 0, [1, -3] + [0] * 59), growing), (growing, growing)]
    for f, g in shapes:
        got = f * g
        assert got.coeffs == _conv_oracle(f.coeffs, g.coeffs, got.trunc)


def _inverse_oracle(u):
    """Schoolbook inverse: the first len(u) terms of 1/u (Fraction or Mod values)."""
    inv = [1 / u[0]]
    for n in range(1, len(u)):
        acc = sum((u[k] * inv[n - k] for k in range(1, n + 1)), 0 * u[0])
        inv.append(-acc / u[0])
    return inv


@given(st.sampled_from([5, 11, 31]), st.integers(-3, 3), st.integers(0, 3),
       st.integers(1, 30), st.lists(st.integers(0, 30), max_size=40))
@settings(max_examples=80, deadline=None)
def test_gf_newton_inverse_matches_schoolbook(ell, lead, zeros, head, tail):
    ring = GF(ell)
    unit = [Mod(head % (ell - 1) + 1, ell)] + [Mod(v, ell) for v in tail]
    s = QSeries(ring, lead, [ring.zero] * zeros + unit)
    inv = s.inverse()
    assert inv.lead == -(lead + zeros) and inv.trunc == s.trunc - 2 * (lead + zeros)
    assert inv.coeffs == _inverse_oracle(unit)
    assert s * inv == QSeries.one(ring, inv.trunc + lead + zeros)


@given(st.sampled_from(["ZZ", "QQ", "GF(11)"]), st.integers(-3, 3),
       st.integers(0, 2), st.lists(st.integers(-50, 50), min_size=1, max_size=30))
@settings(max_examples=80, deadline=None)
def test_log_derivative_recurrence_matches_inverse_product(name, v, zeros, vals):
    ring = {"ZZ": ZZ, "QQ": QQ, "GF(11)": GF(11)}[name]
    vals[0] = {"ZZ": 1 if vals[0] >= 0 else -1,
               "QQ": Fraction(vals[0] or 1, 7),
               "GF(11)": vals[0] % 10 + 1}[name]
    unit = [ring.coerce(c) for c in vals]
    f = QSeries(ring, v - zeros, [ring.zero] * zeros + unit)
    got = f.log_derivative()
    # oracle: q f' times the schoolbook inverse of the unit part
    as_field = unit if name == "GF(11)" else [Fraction(c) for c in unit]
    inv = _inverse_oracle(as_field)
    want = [sum((v + i) * as_field[i] * inv[k - i] for i in range(k + 1))
            for k in range(len(unit))]
    assert got.lead == 0 and got.trunc == f.trunc - v
    assert got.coeffs == want


def test_laurent_truncation_bookkeeping():
    j = jfunction(10, ZZ)
    j2 = j * j
    assert j2.lead == -2
    assert j2.trunc == 9
    assert j2.coeff(-2) == 1
    assert j2.coeff(-1) == 1488  # 2 * 744
    with pytest.raises(TruncationError):
        j2.coeff(10)


def test_inverse_and_division():
    d = delta(20, ZZ)
    inv = d.inverse()
    assert inv.lead == -1
    assert (d * inv).coeff(0) == 1
    assert all((d * inv).coeff(i) == 0 for i in range(1, 10))
    with pytest.raises(ZeroDivisionError):
        QSeries.zero(ZZ, 5).inverse()


def test_log_derivative():
    d = delta(30, QQ)
    ld = d.log_derivative()
    # q d/dq log Delta = E2
    assert ld == eisenstein(2, 25, QQ)


def test_as_j_polynomial_simple():
    assert str(as_j_polynomial(jfunction(5, QQ))) == "x"
    assert str(as_j_polynomial(QSeries.one(QQ, 5))) == "1"
    shifted = jfunction(5, QQ) - QSeries.constant(QQ, 744, 5)
    assert str(as_j_polynomial(shifted)) == "x + -744"


def test_as_j_polynomial_powers():
    for k in range(1, 6):
        p = as_j_polynomial(jfunction(5 + k, QQ) ** k)
        want = [QQ.zero] * k + [QQ.one]
        assert p.coeffs == want


def test_as_j_polynomial_rejects_non_polynomial():
    with pytest.raises(InputError):
        as_j_polynomial(delta(8, QQ))  # vanishes at infinity, not polynomial in j


def test_monomial_basis():
    assert monomial_basis(32, cusp_only=True) == [(2, 2, 0), (1, 2, 2)]
    assert monomial_basis(12, cusp_only=True) == [(1, 0, 0)]
    assert monomial_basis(16, cusp_only=True) == [(1, 1, 0)]
    assert monomial_basis(0) == [(0, 0, 0)]
    assert monomial_basis(2) == []
    assert monomial_basis(26, cusp_only=True) == [(1, 2, 1)]


def test_monomial_basis_counts_match_dimensions():
    def dim_m(k):
        if k < 0 or k % 2:
            return 0
        return k // 12 if k % 12 == 2 else k // 12 + 1

    for k in range(0, 80, 2):
        assert len(monomial_basis(k)) == dim_m(k)
        assert len(monomial_basis(k, cusp_only=True)) == max(0, dim_m(k - 12))


def test_monomial_form_weights():
    # Delta^2 E4^2 has valuation 2 and weight 32
    f = monomial_form(2, 2, 0, 6, GF(31))
    assert f.valuation() == 2
    assert f.coeff(2) == 1


# ---------------------------------------------------------------------------
# polynomials


def test_poly_divmod_gcd():
    ring = GF(11)
    x = Poly(ring, [ring.zero, ring.one])
    s = x * (x - Poly(ring, [ring.one]))  # x^2 - x
    q, r = s.divmod(x)
    assert r.is_zero() and str(q) == "x + 10"
    assert x.divides(s)
    assert not (x - Poly(ring, [Mod(5, 11)])).divides(s)
    g = s.gcd(x)
    assert str(g) == "x"


def test_poly_squarefree():
    ring = GF(11)
    x = Poly(ring, [ring.zero, ring.one])
    assert (x * (x - Poly(ring, [ring.one]))).is_squarefree()
    assert not (x * x).is_squarefree()


def test_poly_evaluate_series_matches_direct():
    j = jfunction(8, QQ)
    p = Poly.from_ints(QQ, [7, -3, 1])  # x^2 - 3x + 7
    got = p.evaluate_series(j)
    want = j * j - j.scale(3) + QSeries.constant(QQ, 7, 8)
    assert got == want


# ---------------------------------------------------------------------------
# Gauss sums


def test_f2_examples():
    assert f2(5, 1) == QuadExt(Fraction(0), Fraction(1), 5)
    assert f2(5, 5) == QuadExt(Fraction(0), Fraction(0), 5)
    assert f2(8, 3) == QuadExt(Fraction(0), Fraction(-1), 8)
    with pytest.raises(InputError):
        f2(9, 1)
    with pytest.raises(InputError):
        f2(12 // 12, 1)


def test_f2_against_numeric_gauss_sums():
    fundamental = [D for D in range(2, 41) if is_fundamental_discriminant(D)]
    assert fundamental == [5, 8, 12, 13, 17, 21, 24, 28, 29, 33, 37, 40]
    for D in fundamental:
        for r in range(1, 2 * D + 1):
            direct = f2_numeric(D, r)
            closed = kronecker(D, r) * D ** 0.5
            assert abs(direct - closed) < 1e-9


def test_pd_log_coeffs_definition_and_numeric_product():
    coeffs = pd_log_coeffs(5, 10)
    assert coeffs[0] == f2(5, 1)
    assert coeffs[4] == QuadExt(Fraction(0), Fraction(0), 5)
    assert all(coeffs[r - 1] == f2(5, r) for r in range(1, 11))
    # numeric oracle: expand -t d/dt log P_D(t) as a power series in floats
    D, n = 5, 8
    zeta = cmath.exp(2j * cmath.pi / D)
    # log P_D(t) = sum_k (D/k) log(1 - zeta^k t); its -t d/dt expansion is
    # sum_j (sum_k (D/k) zeta^(kj)) t^j
    for j in range(1, n + 1):
        want = sum(kronecker(D, k) * zeta ** (k * j) for k in range(1, D))
        assert abs(float(coeffs[j - 1]) - want.real) < 1e-9
        assert abs(want.imag) < 1e-9


def test_series_render():
    j = jfunction(1, ZZ)
    assert str(j) == "1*q^-1 + 744 + 196884*q"
    assert str(QSeries.zero(ZZ, 3)) == "0"
    d = delta(2, GF(11))
    assert str(d) == "1*q + 9*q^2"


def test_quadfield_series():
    ring = QuadField(5)
    s = QSeries(ring, 0, [ring.one, ring.coerce(2), f2(5, 1)])
    t = s * s
    assert t.coeff(0) == ring.one
    assert t.coeff(1) == ring.coerce(4)
    assert t.coeff(2) == ring.coerce(4) + f2(5, 1) * 2


def test_quad_ring_mod_ell():
    from bpx.qseries import QuadRing
    from bpx.arith import Mod, QuadExt
    ring = QuadRing(11, 5)
    x = ring.coerce(Fraction(1, 2))
    assert x == QuadExt(Mod(6, 11), Mod(0, 11), 5)
    y = QuadExt(Mod(2, 11), Mod(3, 11), 5)
    s = QSeries(ring, 0, [ring.one, y])
    t = s * s
    assert t.coeff(1) == y + y
    assert t.coeff(0) == ring.one


def test_truncation_edge_cases():
    e12 = eisenstein(12, 0, QQ)
    assert e12.trunc == 0 and e12.coeff(0) == 1
    j = jfunction(-1, ZZ)
    assert j.lead == -1 and j.trunc == -1 and j.coeff(-1) == 1
