import cmath
import random
from array import array
from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bpx.arith import frac_mod, is_fundamental_discriminant, kronecker
from bpx.errors import InputError, TruncationError
from bpx.qseries import (GF, QQ, ZZ, Poly, QSeries, _kron_mul, _kron_pays,
                         _square_at, delta, eisenstein, jfunction,
                         monomial_basis, monomial_forms, pentagonal)
from oracles import (as_j_polynomial, euler_product, evaluate_series,
                     f2_numeric, monomial_form_by_euler_product,
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
    n = 30
    for k in (2, 4, ell - 3, ell - 1, 2 * (ell - 1), ell + 1):
        want = [frac_mod(c, ell) for c in eisenstein(k, n, QQ).coeffs]
        if k % (ell - 1) == 0:
            assert want == [1] + [0] * n
        if k % (ell - 1) == 0 or k < ell:
            # von Staudt-Clausen: l | 2k/B_k at (l - 1) | k, and below l - 1
            # B_k mod l is a power sum, so no exact Bernoulli number is needed
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
    # pentagonal-product oracle vs (E4^3 - E6^2)/1728 over Q, 300 terms
    lhs = (euler_product(299, QQ) ** 24).shift(1)
    rhs = (eisenstein(4, 300, QQ) ** 3 - eisenstein(6, 300, QQ) ** 2) \
        / QSeries.constant(QQ, 1728, 300)
    assert lhs == rhs
    assert delta(300, QQ) == lhs


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
    # over F_l, Delta = (E4^3 - E6^2)/1728; over ZZ, the Euler product
    for ell in (5, 7, 11, 31):
        assert delta(400, GF(ell)) == delta(400, ZZ).reduce_mod(ell)
        assert jfunction(100, GF(ell)) == jfunction(100, ZZ).reduce_mod(ell)
        assert delta(20, GF(ell)).reduce_mod(ell) == delta(20, GF(ell))
    # F_11 residues are no elements of F_13
    with pytest.raises(InputError, match="mixed moduli"):
        delta(20, GF(11)).reduce_mod(13)
    with pytest.raises(InputError, match="mixed moduli"):
        Poly(GF(11), [3, 1]).reduce_mod(13)


@pytest.mark.parametrize("ell, ring, n", [
    *(pytest.param(ell, GF(ell), 2000, id=str(ell))
      for ell in (5, 7, 11, 13, 17, 19, 23, 31, 37)),
    pytest.param(37, ZZ, 2000, id="ZZ"),
    pytest.param(37, QQ, 100, id="QQ"),
])
def test_monomial_forms_match_the_per_monomial_euler_route(ell, ring, n):
    # the whole weight l+1 basis, cusp and non-cusp, plus Delta and a mixed
    # monomial: E4 = 1 mod 5 and E6 = 1 mod 7, so at l = 5 and 7 Delta
    # comes from a degenerate E4^3 - E6^2; over ZZ and QQ the same table
    # for the weight 38 basis
    monos = monomial_basis(ell + 1) + [(1, 0, 0), (2, 1, 1)]
    assert any(a == 0 for a, _, _ in monos)
    got = monomial_forms(monos, n, ring)
    for mono, form in zip(monos, got):
        want = monomial_form_by_euler_product(*mono, n, ring)
        assert form.lead == want.lead == mono[0] and form.trunc == want.trunc == n
        assert form.coeffs == want.coeffs, mono


@pytest.mark.parametrize("ring", [ZZ, GF(31)], ids=["ZZ", "GF31"])
def test_monomial_forms_contiguous_power_runs(ring):
    # contiguous runs of powers, asked for highest first, so the first
    # request builds every lower power that it needs
    monos = ([(a, 0, 0) for a in range(12, 0, -1)]
             + [(0, 0, c) for c in range(7, 0, -1)])
    n = 40
    for mono, form in zip(monos, monomial_forms(monos, n, ring)):
        want = monomial_form_by_euler_product(*mono, n, ring)
        assert form.lead == want.lead == mono[0] and form.trunc == want.trunc == n
        assert form.coeffs == want.coeffs, mono


def test_monomial_forms_over_qq_are_the_integer_forms():
    monos = monomial_basis(38) + [(1, 0, 0), (2, 1, 1), (0, 0, 0)]
    for zz, qq in zip(monomial_forms(monos, 80, ZZ), monomial_forms(monos, 80, QQ)):
        assert qq.ring is QQ and qq.lead == zz.lead and qq.trunc == zz.trunc
        assert all(type(c) is Fraction for c in qq.coeffs)
        assert qq.coeffs == [Fraction(c) for c in zz.coeffs]


def test_monomial_forms_edge_cases():
    one, e6_squared = monomial_forms([(0, 0, 0), (0, 0, 2)], 5, GF(11))
    assert one.coeffs == [1] + [0] * 5
    assert e6_squared == eisenstein(6, 5, ZZ).reduce_mod(11) ** 2
    for ell in (2, 3, 9):
        with pytest.raises(InputError):
            monomial_forms([(1, 0, 0)], 5, GF(ell))
    # 1728 = 0 mod 3, so Delta and j have no F_3 route
    for build in (delta, jfunction):
        with pytest.raises(InputError):
            build(5, GF(3))


@given(st.sampled_from([5, 31, 257, 65537, 2 ** 31 - 1, 2 ** 61 - 1]),
       st.lists(st.integers(0, 2 ** 64), min_size=1, max_size=40),
       st.lists(st.integers(0, 2 ** 64), min_size=1, max_size=40),
       st.integers(1, 90))
@settings(max_examples=120, deadline=None)
def test_gf_kronecker_product_every_slot_width(ell, a, b, n_out):
    # slots of 1 to 16 bytes: whole machine words, bytes kept from wider
    # words, and the byte-string path past 8 bytes
    a = [v % ell for v in a]
    b = [v % ell for v in b]
    want = [v % ell for v in _conv_oracle(a, b, n_out - 1)]
    assert _kron_mul(a, b, n_out, ell) == want
    assert _kron_mul(a, a, n_out, ell) == [v % ell for v in _conv_oracle(a, a, n_out - 1)]


def _conv_oracle(a, b, n):
    out = [0] * (n + 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            if i + j <= n:
                out[i + j] += x * y
    return out


@given(st.lists(st.integers(0, 10), min_size=1, max_size=25),
       st.lists(st.integers(0, 10), min_size=1, max_size=25))
@settings(max_examples=60, deadline=None)
def test_gf_product_matches_schoolbook(a, b):
    ell = 11
    n = min(len(a), len(b)) - 1
    fa = QSeries(GF(ell), 0, list(a))
    fb = QSeries(GF(ell), 0, list(b))
    got = fa * fb
    want = [v % ell for v in _conv_oracle(a, b, n)]
    assert [got.coeff(i) for i in range(n + 1)] == want


# operands whose widest coefficients have 1 to 200 bits, often with zeros,
# so that pairs fall on both sides of the width rule of _kron_pays
_WIDE = st.integers(1, 200).flatmap(lambda w: st.lists(
    st.one_of(st.just(0), st.integers(-(2 ** w), 2 ** w)), min_size=1, max_size=30))


@given(_WIDE, _WIDE, st.integers(-2, 2), st.integers(-2, 2))
@settings(max_examples=150, deadline=None)
def test_series_product_matches_schoolbook(a, b, la, lb):
    n = min(len(a), len(b)) - 1
    const = QSeries.constant(ZZ, a[0], len(b) - 1)
    zero = QSeries.zero(ZZ, len(b) - 1)
    fa, fb = QSeries(ZZ, la, list(a)), QSeries(ZZ, lb, list(b))
    for f, g, want in ((fa, fb, _conv_oracle(a, b, n)),
                       (fa, fa, _conv_oracle(a, a, len(a) - 1)),
                       (const, fb, [a[0] * v for v in b]),
                       (zero, fb, [0] * len(b))):
        got = f * g
        assert got.lead == f.lead + g.lead and len(got.coeffs) == len(want)
        assert got.coeffs == want


def test_kron_pays_width_rule():
    rng = random.Random(27)
    n = 60
    dense = [rng.getrandbits(100) - 2 ** 99 for _ in range(n)]
    dense[0] = 2 ** 99  # 100 bits wide exactly
    assert _kron_pays(dense, list(dense), n)
    # widest coefficients of 100 and 400 bits: a ratio of 4 still pays,
    # one bit more does not, in either order
    wide = [3 ** 250] * n
    for top, pays in ((2 ** 399, True), (2 ** 400, False), (-(2 ** 400), False)):
        wide[7] = top
        assert _kron_pays(dense, wide, n) is pays
        assert _kron_pays(wide, dense, n) is pays
    # only the first n_out coefficients count
    assert _kron_pays(dense, wide, 7)
    # a zero operand, however the other looks
    assert not _kron_pays([0] * n, dense, n)
    assert not _kron_pays(dense, [0] * n, n)
    # the Horner's first step, 1 x E4^3, at the exponent route's orders
    for order in (100, 700):
        e4_cubed, = monomial_forms([(0, 3, 0)], order, ZZ)
        one = [1] + [0] * order
        assert not _kron_pays(one, e4_cubed.coeffs, order + 1)


def test_product_with_no_known_coefficient_is_empty():
    # f truncated below its lead knows no coefficient, nor does its product
    for ring in (ZZ, QQ, GF(11)):
        f = QSeries(ring, 0, [1, 2, 3])
        for got in (f.truncate(-1) * f, f * f.truncate(-1)):
            assert got.trunc == -1 and got.coeffs == []
            assert got.coeff(-1) == 0
            with pytest.raises(TruncationError):
                got.coeff(0)
        g = QSeries(ring, 2, [])  # valid to q^1, and zero there
        got = g * f
        assert got.trunc == 1 and got.coeff(1) == 0
        with pytest.raises(TruncationError):
            got.coeff(2)


@pytest.mark.parametrize("n", [1, 0, -4])
def test_truncate_below_lead_is_empty_to_the_order_asked(n):
    # the slice bound n - lead + 1 was negative here: truncate(1) kept all
    # but the last coefficient and claimed trunc 4, truncate(0) trunc 3
    for ring in (ZZ, QQ, GF(11)):
        f = QSeries(ring, 3, [5, 6, 7])
        got = f.truncate(n)
        assert got.trunc == n and got.coeffs == [] and got.coeff(n) == 0
        with pytest.raises(TruncationError):
            got.coeff(n + 1)
        assert f.truncate(2).trunc == 2 and f.truncate(3).coeffs == [5]


_SIGNED = st.one_of(st.just(0), st.integers(-9, 9),
                    st.integers(-10 ** 40, 10 ** 40))


@given(st.lists(_SIGNED, min_size=1, max_size=30),
       st.lists(_SIGNED, min_size=1, max_size=30), st.integers(1, 64))
@settings(max_examples=150, deadline=None)
def test_signed_kronecker_product_matches_schoolbook(a, b, n_out):
    # random signed, sparse (zeros drawn often), huge and length-1 operands
    assert _kron_mul(a, b, n_out) == _conv_oracle(a, b, n_out - 1)
    assert _kron_mul(a, a, n_out) == _conv_oracle(a, a, n_out - 1)


@pytest.mark.parametrize("m, k", [
    (1, 127), (1, 128), (255, 2), (2 ** 16 - 1, 4),  # slots of 1 to 8 bytes
    (2 ** 32 - 1, 3), (10 ** 40, 30),                # slots past 8 bytes
], ids=["1x127", "1x128", "255x2", "2^16-1x4", "2^32-1x3", "10^40x30"])
def test_kronecker_product_extremal_operands(m, k):
    # |c_(k-1)| = max|a| max|b| min(len): the slot bound is met, with either
    # sign; at (1, 127) it is h - 1 for one-byte slots, at (1, 128) it is h
    # for a bound without its factor 2
    pos, neg = [m] * k, [-m] * k
    for a, b in ((pos, neg), (neg, neg), (neg, list(neg)), (pos, pos)):
        for n_out in (1, k, 2 * k - 1, 2 * k + 3):
            assert _kron_mul(a, b, n_out) == _conv_oracle(a, b, n_out - 1)
    for ell in (5, 2 ** 61 - 1):
        top = [ell - 1] * k
        for b in (top, list(top)):
            assert _kron_mul(top, b, 2 * k - 1, ell) == \
                [v % ell for v in _conv_oracle(top, b, 2 * k - 2)]


def test_kronecker_product_from_the_first_nonzero_slot():
    # leading zeros, as in a power of Delta, are left out of the pack: the
    # product is the one of the rest, shifted by both valuations
    a, b = [0, 0, 0, 5, -1, 7], [0, -2, 0, 3]
    for ell in (None, 31):
        red = (lambda f: [v % ell for v in f]) if ell else list
        x, y = red(a), red(b)
        for n_out in (1, 3, 4, 5, 7, 12):
            assert _kron_mul(x, y, n_out, ell) == red(_conv_oracle(x, y, n_out - 1))
            assert _kron_mul(x, x, n_out, ell) == red(_conv_oracle(x, x, n_out - 1))
            assert _kron_mul([0] * 3, x, n_out, ell) == [0] * n_out


def test_signed_kronecker_product_edge_cases():
    assert _kron_mul([5], [-7], 1) == [-35]
    assert _kron_mul([0, 0], [3], 3) == [0, 0, 0]
    assert _kron_mul([10 ** 40, -3], [0], 2) == [0, 0]
    assert _kron_mul([0, 0], [3], 3, 11) == [0, 0, 0]
    a = [0] * 40 + [-(2 ** 64)]
    b = [2 ** 64 - 1, -1, 0, 1]
    assert _kron_mul(a, b, 44) == _conv_oracle(a, b, 43)
    # every ZZ product shape the program uses, whichever method is chosen
    j = jfunction(60, ZZ).shift(1)
    growing = QSeries(ZZ, 0, [(-10) ** (3 * i) for i in range(62)])
    shapes = [(j, j), (QSeries.constant(ZZ, -1728, 61), j),
              (euler_product(61, ZZ), euler_product(61, ZZ)),
              (QSeries(ZZ, 0, [1, -3] + [0] * 59), growing), (growing, growing)]
    for f, g in shapes:
        got = f * g
        assert got.coeffs == _conv_oracle(f.coeffs, g.coeffs, got.trunc)


def _multiples_of_4096(n):
    """Every multiple of 4096 below n, with its neighbours: fixed positions
    spread along a long operand, read beside the random ones."""
    return sorted({t for c in range(4096, n + 1, 4096)
                   for t in (c - 1, c, c + 1) if t < n})


@pytest.mark.parametrize("n, top", [(4097, 1), (2 * 4096 + 3, 100),
                                    (3 * 4096 + 2, 6), (9001, 7)])
def test_square_at_matches_the_kronecker_square(n, top):
    # long operands squared whole and read to top = n, odd and even
    rng = random.Random(n)
    f = [rng.randint(-top, top) for _ in range(n)]
    want = _kron_mul(f, f, n)
    # the sign changes at arbitrary slots: some run of slots is negative as
    # a whole (its highest nonzero slot is), and it borrows one from the
    # slots above it unless the all-h value is added before the floor split
    assert any(next(c for c in reversed(want[e - 4096:e]) if c) < 0
               for e in range(4096, n, 4096))
    positions = sorted(set(_multiples_of_4096(n) + rng.sample(range(n), 300)
                           + [0, n - 1]))
    assert _square_at(f, positions) == [want[t] for t in positions]
    if top < 128:
        assert _square_at(array("b", f), positions) == [want[t] for t in positions]


def test_square_at_negative_low_piece():
    # (1 - q^4095)^2 = 1 - 2 q^4095 + q^8190: the slots below 4096 are
    # negative as a whole and the zero slots above them must not lend to
    # them; top 8191 is odd
    f = [1] + [0] * 4094 + [-1] + [0] * 4100
    positions = [4095, 4096, 4097, 8190]
    assert _square_at(f, positions) == [-2, 0, 0, 1]
    g = [-v for v in f]
    assert _square_at(g, positions) == [-2, 0, 0, 1]


@given(st.lists(st.integers(-10 ** 6, 10 ** 6), min_size=1, max_size=40),
       st.data())
@settings(max_examples=100, deadline=None)
def test_square_at_short_operands(f, data):
    # short f of any length, read at any positions (so odd and even top),
    # with slot widths from the values
    want = _kron_mul(f, f, len(f))
    positions = sorted(data.draw(st.sets(st.integers(0, len(f) - 1))))
    assert _square_at(f, positions) == [want[t] for t in positions]


def _squares_summing_to(total):
    """Positive ints whose squares sum to total, taken greedily."""
    out = []
    while total:
        out.append(isqrt(total))
        total -= out[-1] ** 2
    return out


@pytest.mark.parametrize("k", [2, 3, 6])
def test_square_at_reaches_the_cauchy_schwarz_bound(k):
    # c_(n-1) = +S for a palindromic f and -S for an antipalindromic one,
    # S = sum f_i^2, the bound the slot width rests on.  At S = 10^k/2 - 1
    # (and - 2, as -S needs S even) the slots are k digits wide and c + h
    # reaches 10^k - 1 or 1; at S = 10^k/2 they widen to k + 1 digits.
    h = 10 ** k // 2
    for total, sign in ((h - 1, 1), (h, 1), (h - 2, -1), (h, -1)):
        half = [x for v in _squares_summing_to(total // 2) for x in (v, 0)]
        if sign > 0:
            f = half + [1] * (total % 2) + half[::-1]
        else:
            f = half + [-v for v in reversed(half)]
        want = _kron_mul(f, f, len(f))
        assert want[-1] == sign * total
        for g in (f, [-v for v in f]):
            assert _square_at(g, list(range(len(g)))) == want, (total, sign)


def test_square_at_one_position_or_every_slot():
    # top = 1 or n, for short and long f of odd and even length
    rng = random.Random(23)
    for n in (1, 2, 3, 4, 4097, 5001):
        f = [rng.randint(-6, 6) for _ in range(n)]
        f[-1] = 1  # so f is not all zeros
        want = _kron_mul(f, f, n)
        assert _square_at(f, [0]) == [want[0]]
        assert _square_at(f, [n - 1]) == [want[-1]]
        assert _square_at(f, list(range(n))) == want
        assert _square_at(array("b", f), list(range(n))) == want


def test_square_at_edge_cases():
    for n in range(1, 10):
        for top in (1, 9):
            for f in ([top] * n, [-top] * n):  # |c_(n-1)| = n top^2, the bound
                assert _square_at(f, list(range(n))) == _kron_mul(f, f, n)
    assert _square_at([0] * 7, [0, 3, 6]) == [0, 0, 0]
    assert _square_at([3, -1], []) == []
    assert _square_at(array("b"), []) == []


def test_pentagonal_is_the_euler_product():
    for n in (0, 1, 2, 3, 6, 100, 1000):
        coeffs = [0] * n
        for e, sign in pentagonal(n):
            coeffs[e] = sign
        assert coeffs == euler_product(n, ZZ).coeffs[:n]


def _inverse_oracle(u):
    """Schoolbook inverse over Q: the first len(u) terms of 1/u (Fraction values)."""
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
    unit = [head % (ell - 1) + 1] + [v % ell for v in tail]
    s = QSeries(ring, lead, [ring.zero] * zeros + unit)
    inv = s.inverse()
    assert inv.lead == -(lead + zeros) and inv.trunc == s.trunc - 2 * (lead + zeros)
    # the inverse over Q has denominators prime to l, so it reduces mod l
    assert inv.coeffs == [frac_mod(c, ell) for c in _inverse_oracle(list(map(Fraction, unit)))]
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
    as_field = [Fraction(c) for c in unit]
    inv = _inverse_oracle(as_field)
    want = [sum((v + i) * as_field[i] * inv[k - i] for i in range(k + 1))
            for k in range(len(unit))]
    if name == "GF(11)":  # over Q the denominators are prime to 11
        want = [frac_mod(c, 11) for c in want]
    assert got.lead == 0 and got.trunc == f.trunc - v
    assert got.coeffs == want


_QUOTIENT_RINGS = {"ZZ": ZZ, "QQ": QQ, "GF(11)": GF(11)}


_VALS = st.lists(st.integers(-50, 50), min_size=1, max_size=25)


@given(st.sampled_from(sorted(_QUOTIENT_RINGS)),
       st.integers(-3, 3), st.integers(0, 2), _VALS,
       st.integers(-3, 3), st.integers(0, 2), _VALS)
@settings(max_examples=120, deadline=None)
def test_quotient_matches_product_with_schoolbook_inverse(name, lf, zf, fvals,
                                                          v, zg, gvals):
    ring = _QUOTIENT_RINGS[name]
    scalar = {"ZZ": int, "QQ": lambda c: Fraction(c, 3), "GF(11)": int}[name]
    gvals[0] = {"ZZ": 1 if gvals[0] >= 0 else -1,
                "QQ": gvals[0] or 1, "GF(11)": gvals[0] % 10 + 1}[name]
    unit = [ring.coerce(scalar(c)) for c in gvals]
    f = QSeries(ring, lf, [ring.zero] * zf + [ring.coerce(scalar(c)) for c in fvals])
    g = QSeries(ring, v - zg, [ring.zero] * zg + unit)
    got = f / g
    # the lead and truncation that f * g.inverse() gives
    n = min(len(f.coeffs), len(unit))
    assert got.ring is ring and got.lead == f.lead - v and got.trunc == got.lead + n - 1
    inv = _inverse_oracle([Fraction(c) for c in unit])
    want = _conv_oracle([Fraction(c) for c in f.coeffs], inv, n - 1)
    if name == "GF(11)":  # over Q the denominators are prime to 11
        want = [frac_mod(c, 11) for c in want]
    assert got.coeffs == want
    if name == "ZZ":
        assert all(type(c) is int for c in got.coeffs)


def test_zz_quotient_takes_no_inverse_and_no_product_of_the_divisor(monkeypatch):
    from bpx import qseries
    divisors, inverted, multiplied = [], [], []
    div, inverse, mul = QSeries.__truediv__, QSeries.inverse, QSeries.__mul__

    def spy_div(self, other):
        divisors.append(other)
        return div(self, other)

    def spy_inverse(self):
        inverted.append(self)
        return inverse(self)

    def spy_mul(self, other):
        multiplied.extend((self, other))
        return mul(self, other)

    monkeypatch.setattr(QSeries, "__truediv__", spy_div)
    monkeypatch.setattr(QSeries, "inverse", spy_inverse)
    monkeypatch.setattr(QSeries, "__mul__", spy_mul)
    monkeypatch.setattr(qseries, "_J_CACHE", {})
    q = eisenstein(4, 40, ZZ) ** 3 / delta(40, ZZ)
    j = jfunction(60, ZZ)
    assert len(divisors) == 2 and q.coeffs == j.coeffs[:q.trunc + 2]
    assert not any(d is x for d in divisors for x in inverted + multiplied)


# ---------------------------------------------------------------------------
# F_l elements are plain ints in [0, l), and F_l arithmetic is reduction's


_ELL = st.sampled_from([5, 7, 11, 31])
_COEFFS = st.lists(st.integers(-40, 40), min_size=1, max_size=12)


def _plain_residues(coeffs, ell) -> bool:
    return all(type(c) is int and 0 <= c < ell for c in coeffs)


@given(_ELL, st.integers(-2, 2), _COEFFS, st.integers(-2, 2), _COEFFS,
       st.integers(-50, 50), st.integers(-9, 9), st.integers(1, 9),
       st.integers(0, 11), st.integers(-3, 3))
@settings(max_examples=150, deadline=None)
def test_gf_series_hold_residues_and_agree_with_reduction(ell, la, a, lb, b, k,
                                                          num, den, cut, sh):
    if den % ell == 0:
        den += 1
    frac = Fraction(num, den)
    ring = GF(ell)
    A, B = QSeries(ZZ, la, list(a)), QSeries(ZZ, lb, list(b))
    fa, fb = QSeries(ring, la, list(a)), QSeries(ring, lb, list(b))
    # a unit for inverse and log_derivative: constant term prime to l
    unit = [a[0] % (ell - 1) + 1] + a[1:]
    U = QSeries(QQ, la, [Fraction(c) for c in unit])
    fu = QSeries(ring, la, list(unit))
    t = A.trunc - cut % len(a)
    cases = {
        "+": (fa + fb, A + B), "-": (fa - fb, A - B), "neg": (-fa, -A),
        "scale int": (fa.scale(k), A.scale(k)),
        "scale Fraction": (fa.scale(frac), QSeries(QQ, la, list(a)).scale(frac)),
        "*": (fa * fb, A * B), "inverse": (fu.inverse(), U.inverse()),
        "q_derivative": (fa.q_derivative(), A.q_derivative()),
        "log_derivative": (fu.log_derivative(), U.log_derivative()),
        "truncate": (fa.truncate(t), A.truncate(t)), "shift": (fa.shift(sh), A.shift(sh)),
    }
    for op, (got, exact) in cases.items():
        want = exact.reduce_mod(ell)
        assert got.ring is ring and _plain_residues(got.coeffs, ell), op
        assert (got.lead, got.coeffs) == (want.lead, want.coeffs), op


def _euclid_reduces(f: Poly, g: Poly, ell: int) -> bool:
    """Does every divisor of Euclid's algorithm over Q keep a leading
    coefficient prime to l?  Then each step, and the gcd, reduce mod l."""
    while not g.is_zero():
        if not (g.leading.numerator % ell and g.leading.denominator % ell):
            return False
        f, g = g, f % g
    return True


@given(_ELL, _COEFFS, _COEFFS, st.integers(1, 40),
       st.lists(st.integers(-9, 9), max_size=3))
@settings(max_examples=150, deadline=None)
def test_gf_polys_hold_residues_and_agree_with_reduction(ell, p, q, top, c):
    # q keeps its degree mod l, so division by it commutes with reduction
    q = q + [top % (ell - 1) + 1]
    ring = GF(ell)
    P, Q = Poly.from_ints(QQ, p), Poly.from_ints(QQ, q)
    fp, fq = Poly(ring, list(p)), Poly(ring, list(q))
    quo, rem = fp.divmod(fq)
    want_quo, want_rem = P.divmod(Q)
    # gcd inputs with a common monic factor, so the gcd is seldom 1
    C, fc = Poly.from_ints(QQ, c + [1]), Poly(ring, c + [1])
    good = _euclid_reduces(P * C, Q * C, ell)
    cases = {
        "+": (fp + fq, P + Q), "*": (fp * fq, P * Q),
        "divmod quotient": (quo, want_quo), "divmod remainder": (rem, want_rem),
        "monic": (fq.monic(), Q.monic()), "derivative": (fp.derivative(), P.derivative()),
        "gcd": ((fp * fc).gcd(fq * fc), (P * C).gcd(Q * C) if good else None),
    }
    for op, (got, exact) in cases.items():
        assert got.ring is ring and _plain_residues(got.coeffs, ell), op
        if exact is not None:
            assert got == exact.reduce_mod(ell), op


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
    f, = monomial_forms([(2, 2, 0)], 6, GF(31))
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
    assert not (x - Poly(ring, [5])).divides(s)
    g = s.gcd(x)
    assert str(g) == "x"
    # a long run of trailing zeros is stripped in one pass
    long_tail = Poly(ring, [1] + [0] * 20000)
    assert long_tail.degree == 0 and long_tail.coeffs == [1]


def test_poly_squarefree():
    ring = GF(11)
    x = Poly(ring, [ring.zero, ring.one])
    assert (x * (x - Poly(ring, [ring.one]))).is_squarefree()
    assert not (x * x).is_squarefree()


def test_one_power_ladder_for_poly_and_series():
    ring = GF(7)
    f = Poly.from_ints(ring, [1, 1])  # x + 1
    j = jfunction(8, ZZ)  # a Laurent series: no order is lost to extra factors
    assert f ** 0 == Poly(ring, [ring.one])
    one = j ** 0
    assert (one.lead, one.trunc) == (0, 8) and one == QSeries.one(ZZ, 8)
    want_f, want_j = f, j
    for e in range(1, 9):
        got_j = j ** e
        assert f ** e == want_f, e
        assert (got_j.lead, got_j.trunc) == (-e, 9 - e), e
        assert got_j == want_j, e
        want_f, want_j = want_f * f, want_j * j
    for negative_power in (lambda: f ** -1, lambda: j ** -1):
        with pytest.raises(InputError, match="exponent must be >= 0, got -1"):
            negative_power()


@pytest.mark.parametrize("ring, coeffs, doubled, inverse", [
    (ZZ, [1, 2, 3, 4], [2, 4, 6, 8], [1, -2, 1, 0]),
    (GF(7), [3, 2, 5, 1], [6, 4, 3, 2], [5, 6, 4, 2]),
], ids=["ZZ", "GF7"])
def test_operators_take_series_only(ring, coeffs, doubled, inverse):
    s = QSeries(ring, -1, coeffs)
    p = Poly.from_ints(ring, [1, 1])
    scalar_operands = [lambda: s + 1, lambda: 1 + s, lambda: s - 1, lambda: 1 - s,
                       lambda: 2 * s, lambda: s * 2, lambda: s / 2, lambda: 1 / s,
                       lambda: p * 2, lambda: 2 * p, lambda: p + 1, lambda: 1 - p,
                       lambda: p % 2, lambda: p.divmod(2), lambda: p.divides(2),
                       lambda: p.gcd(2)]
    for op in scalar_operands:
        with pytest.raises(TypeError):
            op()
    # the values that s * 2 and 1 / s gave when the operators took scalars
    got = s.scale(2)
    assert (got.lead, got.trunc, got.coeffs) == (-1, 2, doubled)
    got = s.inverse()
    assert (got.lead, got.trunc, got.coeffs) == (1, 4, inverse)


def test_poly_evaluate_series_matches_direct():
    j = jfunction(8, QQ)
    p = Poly.from_ints(QQ, [7, -3, 1])  # x^2 - 3x + 7
    got = evaluate_series(p, j)
    want = j * j - j.scale(3) + QSeries.constant(QQ, 7, 8)
    assert got == want


# ---------------------------------------------------------------------------
# Gauss sums


def test_f2_against_numeric_gauss_sums():
    fundamental = [D for D in range(2, 41) if is_fundamental_discriminant(D)]
    assert fundamental == [5, 8, 12, 13, 17, 21, 24, 28, 29, 33, 37, 40]
    for D in fundamental:
        for r in range(1, 2 * D + 1):
            direct = f2_numeric(D, r)
            closed = kronecker(D, r) * D ** 0.5
            assert abs(direct - closed) < 1e-9


def test_pd_log_coeffs_definition_and_numeric_product():
    # the oracle expands P_D(t) itself; log P_D(t) = sum_k (D/k) log(1 - zeta^k t),
    # so its -t d/dt expansion is sum_j (sum_k (D/k) zeta^(kj)) t^j, and the
    # closed form of that Gauss sum is (D/j) sqrt(D)
    for D in (5, 8, 12, 13):
        coeffs = pd_log_coeffs(D, 30)
        zeta = cmath.exp(2j * cmath.pi / D)
        for j in range(1, 31):
            want = sum(kronecker(D, k) * zeta ** (k * j) for k in range(1, D))
            assert abs(coeffs[j - 1] - want) < 1e-9, (D, j)
            assert abs(coeffs[j - 1] - kronecker(D, j) * D ** 0.5) < 1e-9, (D, j)


def test_series_render():
    j = jfunction(1, ZZ)
    assert str(j) == "1*q^-1 + 744 + 196884*q"
    assert str(QSeries.zero(ZZ, 3)) == "0"
    d = delta(2, GF(11))
    assert str(d) == "1*q + 9*q^2"


def test_truncation_edge_cases():
    e12 = eisenstein(12, 0, QQ)
    assert e12.trunc == 0 and e12.coeff(0) == 1
    j = jfunction(-1, ZZ)
    assert j.lead == -1 and j.trunc == -1 and j.coeff(-1) == 1
