import random
import re
from fractions import Fraction
from math import lcm

import pytest

from bpx import borcherds
from bpx.arith import divisors, kronecker, sieve
from bpx.borcherds import (CongruenceFormula, _divisor_sieve, _log_derivative,
                           exact_exponents, exponent_residues, fit_congruence,
                           formula_eval, formula_eval_primes,
                           log_derivative_exact, log_derivative_mod, nu,
                           twisted_forward, twisted_roundtrip,
                           verify_congruence)
from bpx.cli import run
from bpx.classpoly import hilbert_class_poly, hurwitz_class_number
from bpx.density import x0_11_eta_traces
from bpx.errors import IneligiblePairError, InputError, InternalConsistencyError
from bpx.qseries import GF, QQ, ZZ, QSeries, delta, eisenstein, monomial_forms
from oracles import (dirichlet_convolve, dirichlet_inverse, f2_numeric,
                     log_derivative_by_j, moebius_exponents, zagier_g1)


# exact square-index exponents, frozen from the product identity
# H_d(j) = q^(-h) prod (1-q^n)^A(n^2,d); see tests below for the
# binomial-expansion cross-checks that pin the d=3 value.
EXACT = {
    (3, 1): -248, (3, 2): 26752, (3, 3): -4096248,
    (4, 1): 492, (4, 2): 143376, (4, 3): 51180012,
    (7, 1): -4119, (7, 2): 8288256,
}


def test_exact_exponents_regression():
    for (d, n), want in EXACT.items():
        assert exact_exponents(d, 9)[n] == want


def test_exponents_match_product_expansion_binomially():
    # For any d: prod_n (1-q^n)^(-A(n^2,d)) must reproduce the unit part
    # of H_d(j(z))^(-1) ... checked through the generating identity instead:
    # [q^1] and [q^2] of the log derivative determine A(1), 2*A(4)+A(1).
    for d in (3, 4, 7):
        L = log_derivative_exact(d, 4)
        a1, a2 = EXACT[(d, 1)], EXACT[(d, 2)]
        assert L.coeff(1) == a1
        assert L.coeff(2) == a1 + 2 * a2
        assert L.coeff(0) == hurwitz_class_number(d)


def test_d3_value_against_cube_root_of_j():
    # j^(1/3) = q^(-1/3) (1 + 248 q + 4124 q^2 + ...): expanding
    # (1-q)^(-A(1,3)) (1-q^2)^(-A(4,3)) forces A(4,3) = C(249,2) - 4124.
    from bpx.qseries import jfunction, QQ
    j = jfunction(6, QQ)
    # cube root of the unit series q*j: u = 1 + 744q + ..., u^(1/3) via
    # binomial series on (1 + x)
    u = j.shift(1)  # unit series with constant term 1
    c1 = Fraction(1, 3) * u.coeff(1)
    c2 = Fraction(1, 3) * u.coeff(2) + Fraction(Fraction(1, 3) * Fraction(-2, 3), 2) * u.coeff(1) ** 2
    assert c1 == 248
    assert c2 == 4124
    assert 249 * 248 // 2 - 4124 == 26752 == EXACT[(3, 2)]


def test_zagier_duality_without_class_polynomials():
    # Zagier: A(1, d) = -b(d) for the coefficients b of g_1, and the weight
    # 3/2 Hecke operator gives p g_(p^2) = g_1 | T(p^2) - g_1 at a prime p.
    # g_1 reads no class polynomial, so a wrong one that passed the cache
    # checks would show here
    g1 = zagier_g1(49 * 100)
    for d in range(3, 101):
        if d % 4 not in (0, 3):
            continue
        A = exact_exponents(d, 7)
        assert A[1] == -g1.coeff(d), d
        for p in (2, 3, 5, 7):
            below = p * g1.coeff(d // (p * p)) if d % (p * p) == 0 else 0
            t = g1.coeff(p * p * d) + kronecker(-d, p) * g1.coeff(d) + below - g1.coeff(d)
            assert t % p == 0 and A[p] == -t // p, (d, p)


def test_exponent_table_document_and_bounds():
    t = exact_exponents(4, 5)
    doc = t.to_document()
    assert doc["d"] == 4 and doc["values"][0] == 492
    with pytest.raises(InputError):
        t[6]
    with pytest.raises(InputError):
        t[0]
    assert exact_exponents(4, 0).values == ()
    with pytest.raises(InputError, match="n_max must be >= 0, got -1"):
        exact_exponents(4, -1)


def test_log_derivative_mod_known_forms():
    # d=4, l=11: congruent to 6 E2 + 9 Delta
    lbar = log_derivative_mod(4, 11, 60)
    ring = GF(11)
    want = eisenstein(2, 60, ring).scale(6) + delta(60, ring).scale(9)
    assert lbar == want
    assert lbar.coeff(0) == 6  # h(4) = 1/2 and 2*6 = 1 mod 11
    # d=20, l=31: congruent to 2 E2 + 14 Delta^2 E4^2 + 23 Delta E4^2 E6^2
    lbar = log_derivative_mod(20, 31, 60)
    ring = GF(31)
    d2e4, de4e6 = monomial_forms([(2, 2, 0), (1, 2, 2)], 60, ring)
    want = eisenstein(2, 60, ring).scale(2) + d2e4.scale(14) + de4e6.scale(23)
    assert lbar == want


def test_log_derivative_mod_rejects_ineligible():
    with pytest.raises(IneligiblePairError):
        log_derivative_mod(4, 13, 20)


@pytest.mark.parametrize("d, ell, components", [
    (4, 11, [("x + -1728", "1/2")]),                     # h = 1/2
    (3, 11, [("x", "1/3")]),                             # h = 1/3
    (20, 31, [("x^2 + -1264000*x + -681472000", "1")]),  # h = 2
    (12, 11, [("x + -54000", "1"), ("x", "1/3")]),       # two weighted factors
])
def test_log_derivative_routes_agree_to_500(d, ell, components):
    wcp = hilbert_class_poly(d)
    assert [(str(p), str(w)) for p, w in wcp.components] == components
    direct = log_derivative_mod(d, ell, 500)
    reduced = log_derivative_exact(d, 500).reduce_mod(ell)
    assert direct.trunc == reduced.trunc == 500
    assert direct == reduced


def test_log_derivative_mod_builds_no_integer_series(monkeypatch):
    import bpx.borcherds as borcherds
    rings = []

    def spy_forms(monos, n, ring):
        rings.append(ring.name)
        return monomial_forms(monos, n, ring)

    def spy_eisenstein(k, n, ring):
        rings.append(ring.name)
        return eisenstein(k, n, ring)

    monkeypatch.setattr(borcherds, "monomial_forms", spy_forms)
    monkeypatch.setattr(borcherds, "eisenstein", spy_eisenstein)
    log_derivative_mod(20, 31, 100)
    assert rings and set(rings) == {"GF(31)"}


@pytest.mark.parametrize("d, n", [
    (3, 150), (12, 150), (27, 150),      # components with the root j = 0
    (4, 150), (7, 150), (20, 150), (40, 150),
    (16, 150),                           # weights 1 and 1/2
    (23, 150),                           # h = 3
    (719, 30),                           # one component of degree 31
])
@pytest.mark.parametrize("ring", [ZZ, GF(11), GF(31)], ids=str)
def test_log_derivative_matches_j_route(d, n, ring):
    # 6 L from E2 and T = Delta^k P(E4^3/Delta), in the ring it is given,
    # against 6 times S = P(j) and q S'/S; over ZZ, coerce asserts that
    # 6 times the j route's rational coefficients are integers
    got = _log_derivative(d, n, ring, None)
    want = log_derivative_by_j(d, n, ring)
    assert got.ring.name == ring.name
    assert got.lead == want.lead == 0 and got.trunc == want.trunc == n
    assert got.coeffs == [ring.coerce(6 * c) for c in want.coeffs]


def test_fit_congruence_4_11():
    F = fit_congruence(4, 11)
    assert F.c0 == 6
    assert F.c == (9,)
    assert F.verified_to >= 200
    assert F.basis.describe(0) == "Delta"


def test_fit_congruence_trivial_3_5():
    F = fit_congruence(3, 5)
    assert F.c0 == 2  # h(3) = 1/3 and 3*2 = 1 mod 5
    assert F.c == ()


def test_fit_congruence_20_31():
    # the cusp part 14 Delta^2 E4^2 + 23 Delta E4^2 E6^2 decomposes over
    # the actual T_2 eigenforms (coefficients 13 and 7 on Delta^2 E4^2)
    # as 22 * F1 + 1 * F2; verified against the exact series to order 200
    F = fit_congruence(20, 31)
    assert F.c0 == 2
    assert F.c == (22, 1)
    assert F.verified_to >= 200


def test_c0_equals_class_number_for_all_fits():
    from bpx.arith import frac_mod
    for d, ell in [(4, 11), (3, 5), (7, 13), (4, 7), (20, 31), (3, 11), (11, 11)]:
        F = fit_congruence(d, ell)
        assert F.c0 == frac_mod(hurwitz_class_number(d), ell), (d, ell)


def test_formula_eval_small_cases():
    F = fit_congruence(4, 11)
    assert formula_eval(F, 1) == 8
    assert 492 % 11 == 8
    assert formula_eval(F, 2) == 2
    assert 143376 % 11 == 2
    F713 = fit_congruence(7, 13)
    assert formula_eval(F713, 1) == 2
    assert (-4119) % 13 == 2


def test_formula_eval_rejects_multiples_of_ell():
    F = fit_congruence(4, 11)
    with pytest.raises(InputError):
        formula_eval(F, 22)


def test_formula_eval_prime_matches_general():
    for d, ell in ((4, 11), (20, 31), (3, 5)):
        F = fit_congruence(d, ell)
        primes = [p for p in sieve(200).primes if p != ell]
        columns = [[F.basis.coefficient(i, p) for p in primes]
                   for i in range(F.rank)]
        got = formula_eval_primes(F, primes, columns)
        assert got == [formula_eval(F, p) for p in primes], (d, ell)
    with pytest.raises(InputError):
        formula_eval_primes(F, [ell], columns=[])


def test_formula_eval_primes_at_every_prime_below_10000():
    # one pass per column and a table of inverses, against one Moebius sum
    # per prime; the l = 11 column is X0(11)'s a(p), which falls below -l,
    # and one l = 31 column is shifted by -3l, so both reduce negative sums
    primes = sieve(10 ** 4).primes
    F = fit_congruence(4, 11, verify_to=10 ** 4)
    good = [p for p in primes if p != 11]
    column = x0_11_eta_traces(good)
    assert min(column) < -11
    assert (formula_eval_primes(F, good, [column])
            == [formula_eval(F, p) for p in good])
    F = fit_congruence(20, 31, verify_to=10 ** 4)
    assert F.rank == 2
    good = [p for p in primes if p != 31]
    columns = [[F.basis.coefficient(i, p) for p in good] for i in range(2)]
    columns[1] = [a - 3 * 31 for a in columns[1]]
    assert (formula_eval_primes(F, good, columns)
            == [formula_eval(F, p) for p in good])


def test_end_to_end_verification_small():
    verified, skipped = verify_congruence(4, 11, 60)
    assert verified == 55 and skipped == 5
    verified, skipped = verify_congruence(20, 31, 40)
    assert verified == 39 and skipped == 1


@pytest.mark.parametrize("d, ell, n_max", [
    (4, 11, 300), (20, 31, 200), (12, 11, 300), (3, 5, 200),
])
def test_verify_congruence_sieve_equals_formula_eval(monkeypatch, d, ell, n_max):
    # a table of formula_eval's values passes exactly when the sieve of the
    # fitted series gives formula_eval(F, n) at every n with l not dividing n;
    # (20, 31) has rank 2, d = 12 carries weight 1/3, (3, 5) has rank 0
    F = fit_congruence(d, ell, verify_to=max(n_max, 200))
    values = [formula_eval(F, n) if n % ell else 0 for n in range(1, n_max + 1)]
    monkeypatch.setattr(borcherds, "exponent_residues",
                        lambda d, ell, n, cache_dir=None: values)
    assert verify_congruence(d, ell, n_max) == (n_max - n_max // ell, n_max // ell)


def test_verify_congruence_is_not_vacuous(monkeypatch):
    fit = borcherds.fit_congruence

    def off_by_one(*args, **kwargs):
        F = fit(*args, **kwargs)
        return CongruenceFormula(F.d, F.ell, F.c0 + 1, F.c, F.basis, F.verified_to)

    monkeypatch.setattr(borcherds, "fit_congruence", off_by_one)
    with pytest.raises(InternalConsistencyError,
                       match=r"exact A\(1\^2,4\) = 8 mod 11 != formula value 6"):
        verify_congruence(4, 11, 60)


def test_fit_asks_for_no_exact_bernoulli_number(monkeypatch):
    # the fitted form takes E_2, which is E_(l+1) mod l, so no B_(l+1), and
    # B_2 mod l is a power sum
    from bpx import qseries
    asked = []
    bernoulli = qseries.bernoulli
    monkeypatch.setattr(qseries, "bernoulli",
                        lambda m: asked.append(m) or bernoulli(m))
    F = fit_congruence(20, 31)
    assert (F.c0, F.c) == (2, (22, 1))
    assert asked == []


def test_congruence_formula_series_is_the_log_derivative():
    # c0 E_2 + sum c_i f_i is the log derivative mod l to the verified
    # order, at ranks 1, 2 and 0, and its constant term is c0
    for d, ell, rank in ((4, 11, 1), (20, 31, 2), (3, 5, 0)):
        F = fit_congruence(d, ell)
        fitted = F.series(F.verified_to)
        assert F.rank == rank
        assert fitted == log_derivative_mod(d, ell, F.verified_to)
        assert fitted.coeff(0) == F.c0


def test_congruence_document():
    doc = fit_congruence(4, 11).to_document()
    assert doc["c0"] == 6 and doc["c"] == [9]
    assert doc["basis"] == ["Delta"]
    assert doc["verified_to"] >= 200


# ---------------------------------------------------------------------------
# twisted machinery


def test_nu_examples():
    assert [nu(5, 1), nu(5, 4), nu(8, 3)] == [1, 0, 1]
    assert nu(8, 3) == dirichlet_inverse([kronecker(8, r) for r in (1, 2, 3)])[2]
    with pytest.raises(InputError):
        nu(5, 0)


@pytest.mark.parametrize("D", [9, 1, 0, -4])
def test_twisted_functions_refuse_bad_discriminants(D):
    # not a fundamental discriminant > 1
    for call in (lambda: nu(D, 1), lambda: twisted_forward(D, [1, 2]),
                 lambda: twisted_roundtrip(D, [1, 2])):
        with pytest.raises(InputError, match=f"fundamental discriminant > 1, got {D}"):
            call()


def test_nu_matches_recurrence_broadly():
    # the closed form against the Dirichlet inversion of the character (D/r),
    # the Gauss sums (D/r) sqrt(D) less their common sqrt(D), in ints
    for D in (5, 8, 12, 13):
        recurrence = dirichlet_inverse([kronecker(D, r) for r in range(1, 80)])
        assert all(type(v) is int for v in recurrence)
        for m in range(1, 80):
            assert nu(D, m) == recurrence[m - 1], (D, m)


def test_twisted_forward_magnitude_case():
    assert twisted_forward(8, [565760]) == [565760]


def test_twisted_forward_matches_float_gauss_sums():
    # G(n) sqrt(D) against sum_{m|n} m A(m) f2(D, n/m), each Gauss sum
    # summed over the D-th roots of unity in complex floats
    rng = random.Random(25)
    for D in (5, 8, 12, 13):
        seq = [rng.randint(-100, 100) for _ in range(40)]
        G = twisted_forward(D, seq)
        assert all(type(v) is int for v in G)
        for n in range(1, 41):
            want = sum(m * seq[m - 1] * f2_numeric(D, n // m) for m in divisors(n))
            assert abs(G[n - 1] * D ** 0.5 - want) < 1e-6, (D, n)


def test_twisted_roundtrip_n_max_range():
    assert twisted_roundtrip(5, [1, 2], 0) == []
    assert twisted_roundtrip(5, [1, 2], 1) == [1]
    for n_max in (3, 5, -1):
        with pytest.raises(InputError, match=r"0 <= n_max <= len\(a_seq\) = 2"):
            twisted_roundtrip(5, [1, 2], n_max)


def test_divisor_sieve_inverts_the_convolution():
    rng = random.Random(2025)
    b = [rng.randint(-10 ** 6, 10 ** 6) for _ in range(120)]
    for D in (1, 5, 8, -4):
        chi = [kronecker(D, k) for k in range(121)]
        B = dirichlet_convolve(chi[1:], b)
        assert _divisor_sieve([7, *B], None if D == 1 else chi) == [7, *b], D


def test_twisted_roundtrip_delta_sequence():
    seq = [1] + [0] * 15
    assert twisted_roundtrip(5, seq) == seq


def test_twisted_roundtrip_random():
    rng = random.Random(20200829)
    for D in (5, 8, 13):
        for _ in range(8):
            seq = [rng.randint(-100, 100) for _ in range(64)]
            assert twisted_roundtrip(D, seq) == seq


def _binomial_factor(n, e, order):
    """(1 - q^n)^e over QQ to the given order, for any integer e."""
    from bpx.qseries import QQ, QSeries
    import math
    coeffs = [Fraction(0)] * (order + 1)
    if e >= 0:
        for k in range(0, order // n + 1):
            if k > e:
                break
            coeffs[n * k] = Fraction((-1) ** k * math.comb(e, k))
    else:
        m = -e
        for k in range(0, order // n + 1):
            coeffs[n * k] = Fraction(math.comb(m + k - 1, k))
    return QSeries(QQ, 0, coeffs)


def test_product_expansion_reconstructs_class_polynomial():
    # assemble prod (1-q^n)^(w * A(n^2,d)) from the extracted exponents and
    # compare with the unit part of the class polynomial at j, exactly
    from bpx.qseries import QQ, QSeries, jfunction
    order = 40
    j = jfunction(order, QQ)
    cases = {
        4: ((j - QSeries.constant(QQ, 1728, order)).shift(1), 2),  # weight 1/2
        7: ((j + QSeries.constant(QQ, 3375, order)).shift(1), 1),
        3: (j.shift(1), 3),                                        # weight 1/3
    }
    for d, (target, mult) in cases.items():
        table = exact_exponents(d, order)
        prod = QSeries.one(QQ, order)
        for n in range(1, order + 1):
            prod = prod * _binomial_factor(n, mult * table[n], order)
        assert prod == target, d


def test_verify_congruence_more_pairs():
    # deg-1 and deg-2 class polynomials against their fitted formulas
    for d, ell in [(11, 11), (67, 11), (15, 11), (12, 11), (24, 17)]:
        verified, skipped = verify_congruence(d, ell, 60)
        assert verified + skipped == 60
        assert verified == 60 - 60 // ell


def test_exponent_sieve_matches_the_moebius_sum():
    for d in (3, 4, 7, 20):
        L = log_derivative_exact(d, 300)
        assert list(exact_exponents(d, 300).values) == moebius_exponents(L.coeffs), d


def test_exponent_sieve_keeps_the_integrality_check(monkeypatch):
    from bpx import borcherds
    six_l = _log_derivative(4, 6, ZZ, None)
    bad = QSeries(ZZ, 0, six_l.coeffs[:2] + [six_l.coeffs[2] + 6] + six_l.coeffs[3:])
    monkeypatch.setattr(borcherds, "_log_derivative", lambda *a, **k: bad)
    want = moebius_exponents([Fraction(c, 6) for c in bad.coeffs])[1]  # A(2^2, 4) + 1/2
    assert want.denominator == 2
    with pytest.raises(InternalConsistencyError,
                       match=rf"exponent A\(2\^2,4\) = {want} is not an integer"):
        exact_exponents(4, 6)


@pytest.mark.parametrize("d, ell, n_max", [
    (20, 31, 400), (28, 31, 400), (35, 31, 380), (40, 31, 370),  # bpxbench's check
    (12, 11, 300), (16, 11, 300), (27, 11, 300),  # weights 1/3 and 1/2 beside 1
    (3, 5, 200),                                  # rank 0
    (4, 11, 1), (4, 11, 11), (4, 11, 12),         # n_max = 1, l, l + 1
    (20, 31, 31), (20, 31, 32),
])
def test_exponent_residues_match_exact_exponents(d, ell, n_max):
    # the solve and sieve in Z/M, M = 6 l lcm(1..n_max), give the exact
    # exponents mod l
    want = [a % ell for a in exact_exponents(d, n_max).values]
    assert exponent_residues(d, ell, n_max) == want


def test_check_keeps_the_integrality_check(monkeypatch, capsys):
    # +6 at q^2 on 6 L over ZZ (A(2^2, 4) + 1/2), as for the exact route;
    # the fit, which reads 6 L over F_l, is left alone
    real = borcherds._log_derivative

    def bad(d, n, ring, cache_dir, modulus=None):
        six_l = real(d, n, ring, cache_dir, modulus)
        if ring is not ZZ:
            return six_l
        return QSeries(ZZ, 0, six_l.coeffs[:2] + [six_l.coeffs[2] + 6] + six_l.coeffs[3:])

    monkeypatch.setattr(borcherds, "_log_derivative", bad)
    with pytest.raises(InternalConsistencyError) as exc:
        verify_congruence(4, 11, 6)
    num, den, mod = map(int, re.fullmatch(
        r"exponent A\(2\^2,4\) = (\d+)/(\d+) \(numerator mod (\d+)\) is not an integer",
        str(exc.value)).groups())
    # the exact route's A(2^2, 4) + 1/2: b(2) = 6 (2 A + 1) has gcd 6
    # with 12, so the numerator is known mod M / 6
    want = 2 * EXACT[4, 2] + 1
    assert den == 2 and mod == 6 * 11 * lcm(1, 2, 3, 4, 5, 6) // 6
    assert (num - want) % mod == 0
    assert run(["check", "--d", "4", "--ell", "11", "--n", "6"]) == 1
    assert "is not an integer" in capsys.readouterr().err


def test_exact_exponents_integrality_stress():
    # larger class numbers: integrality is asserted inside the extraction
    for d in (39, 40, 43, 67, 115):
        table = exact_exponents(d, 24)
        assert len(table.values) == 24
