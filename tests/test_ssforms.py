import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bpx.arith import bernoulli, bernoulli_mod, frac_mod, is_prime
from bpx.errors import InputError, InternalConsistencyError, TruncationError
from bpx.qseries import (GF, QQ, ZZ, Poly, QSeries, delta, eisenstein,
                         monomial_basis)
from bpx.ssforms import (_candidates, _eigenpairs, _row_reduce,
                         _solve_linear_mod, cusp_generators, eigenbasis,
                         hecke_Tp, supersingular_poly,
                         supersingular_poly_bruteforce)
from oracles import (charpoly_roots, monomial_form_by_euler_product,
                     supersingular_j_invariants,
                     supersingular_poly_by_eisenstein)


def test_weight_decomposition_examples():
    # supersingular_poly reads k = 12m + 4 delta + 6 epsilon off the first
    # basis monomial
    assert monomial_basis(10)[0] == (0, 1, 1)
    assert monomial_basis(30)[0] == (2, 0, 1)
    assert monomial_basis(12)[0] == (1, 0, 0)


def test_weight_decomposition_reconstructs_and_errors():
    for k in range(4, 120, 2):
        m, de, ep = monomial_basis(k)[0]
        assert 12 * m + 4 * de + 6 * ep == k
        assert de in (0, 1, 2) and ep in (0, 1) and m >= 0
    assert monomial_basis(2) == []
    assert monomial_basis(7) == []


def test_supersingular_examples():
    assert str(supersingular_poly(5)) == "x"
    assert str(supersingular_poly(11)) == "x^2 + 10*x"    # x(x - 1), 1728 = 1 mod 11
    assert str(supersingular_poly(13)) == "x + 8"         # x - 5
    assert supersingular_j_invariants(11) == [0, 1]
    assert supersingular_j_invariants(7) == [6]


def test_supersingular_matches_bruteforce_to_100():
    # every prime l < 100, and the two largest primes the point count accepts
    for ell in [p for p in range(5, 100) if is_prime(p)] + [197, 199]:
        assert supersingular_poly(ell) == supersingular_poly_bruteforce(ell), ell


def test_supersingular_closed_form_matches_eisenstein_factorization():
    for ell in range(5, 500):
        if is_prime(ell):
            assert supersingular_poly(ell) == supersingular_poly_by_eisenstein(ell), ell


def test_supersingular_degree_formula_to_100():
    for ell in (5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61,
                67, 71, 73, 79, 83, 89, 97):
        m, de, ep = monomial_basis(ell - 1)[0]
        assert supersingular_poly(ell).degree == m + de + ep


def test_supersingular_certificates_above_100():
    # the Delta^m division used to run short of terms for every l >= 109;
    # certificates, which also reach past the point count's l <= 200: the
    # number of supersingular j (Deuring/Eichler) and s_l | x^(l^2) - x,
    # i.e. s_l is squarefree with every root in F_(l^2)
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
    # __wrapped__ bypasses the per-l cache, which an earlier test may fill
    assert supersingular_poly.__wrapped__(1009).degree == 84
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
    assert eb.t2_eigenvalues == (-24 % 11,)
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
    assert eb.t2_eigenvalues == (19, 13)
    for i, form in enumerate(eb.forms):
        assert form.coeff(1) == 1
        for p in (2, 3, 5, 7):
            tf = hecke_Tp(form, p, 32)
            ap = tf.coeff(1)
            assert tf == form.truncate(tf.trunc).scale(ap), (i, p)
        assert eb.t2_eigenvalues[i] == hecke_Tp(form, 2, 32).coeff(1)


def _matches_the_euler_route(ell: int, n: int) -> None:
    # each form, rebuilt from its monomial combination with every monomial
    # expanded on its own (Delta as the Euler product to the 24th power)
    ring = GF(ell)
    eb = eigenbasis(ell, n)
    small = eigenbasis(ell, 60)
    assert eb.order == n and eb.monomial_combos == small.monomial_combos
    assert eb.t2_eigenvalues == small.t2_eigenvalues
    monos = {mono: monomial_form_by_euler_product(*mono, n, ring)
             for combo in eb.monomial_combos for mono, _ in combo}
    for form, combo in zip(eb.forms, eb.monomial_combos):
        want = QSeries.zero(ring, n)
        for mono, coef in combo:
            want = want + monos[mono].scale(coef)
        assert form.lead == 0 and form.trunc == n
        assert form.coeffs == want.coeffs


def test_eigenbasis_31_to_order_9999_matches_the_euler_route():
    assert [key for key, _ in cusp_generators(31, 6)] == [("pair", 4), ("pair", 6)]
    _matches_the_euler_route(31, 9999)


def test_eigenbasis_37_to_order_9999_matches_the_euler_route():
    # at l = 37 the Eisenstein pairs reach rank 1 of 2, and the monomial
    # Delta^2 E4^2 E6 fills in
    assert [key for key, _ in cusp_generators(37, 6)] == [
        ("pair", 4), ("monomial", (2, 2, 1))]
    _matches_the_euler_route(37, 9999)


# the Eisenstein pairs fall one short of r at these l
_PAIRS_SHORT = {37, 43, 53, 61}


@pytest.mark.parametrize("ell", [23, 29, 37, 41, 43, 47, 53, 59, 61])
def test_cusp_generators_span_the_cusp_space(ell):
    # kept forms: cusp forms, independent mod l, and each equal to the
    # combination of Euler-product monomials with its q^1..q^r; a pair
    # form also equals E_a E_(k-a) - E_k, with the exact E_k
    n, ring, k = 60, GF(ell), ell + 1
    monos = monomial_basis(k, cusp_only=True)
    r = len(monos)
    chosen = cusp_generators(ell, n)
    pairs = [a for (kind, a), _ in chosen if kind == "pair"]
    assert len(chosen) == r
    assert len(pairs) == (r - 1 if ell in _PAIRS_SHORT else r)
    assert all(kind == "monomial" for (kind, _), _ in chosen[len(pairs):])
    rows = [[f[m] for m in range(1, r + 1)] for _, f in chosen]
    assert len(_row_reduce(rows, ell)[1]) == r
    # monomial a of the basis is q^a + O(q^(a+1))
    by_valuation = {mono[0]: monomial_form_by_euler_product(*mono, n, ring)
                    for mono in monos}
    for (kind, a), f in chosen:
        assert len(f) == n + 1 and f[0] == 0
        rest = QSeries(ring, 0, f)
        for m in range(1, r + 1):
            rest = rest - by_valuation[m].scale(rest.coeff(m))
        assert rest.is_zero(), (ell, kind, a)
        if kind == "pair":
            e = [eisenstein(w, n, ring) for w in (a, k - a, k)]
            assert QSeries(ring, 0, f) == e[0] * e[1] - e[2]
        else:
            assert QSeries(ring, 0, f) == by_valuation[a[0]]


def test_cusp_generators_below_order_r_is_an_input_error():
    # q^1..q^r decide the rank; below order r = 2 the rows stay short and
    # the candidates would run out
    for order in (0, 1):
        with pytest.raises(InputError, match="r = 2"):
            cusp_generators(31, order)
    assert len(cusp_generators(31, 2)) == 2


def test_irregular_pairs_are_skipped():
    # 37 divides the numerator of B_32 and 59 that of B_44
    assert bernoulli(32).numerator % 37 == 0 and bernoulli(44).numerator % 59 == 0
    with pytest.raises(InputError):  # so E_32 has no reduction mod 37
        eisenstein(32, 5, GF(37))
    for ell, skipped in ((37, 6), (59, 16)):
        pairs = [a for kind, a in _candidates(ell) if kind == "pair"]
        k = ell + 1
        assert pairs == [a for a in range(4, k // 2 + 1, 2) if a != skipped]


def test_eigenbasis_builds_only_the_kept_generators_at_full_order(monkeypatch):
    # at l = 37 the pairs are chosen on series to q^6, and only the kept
    # ones, E_4 E_34 - E_2 and Delta^2 E4^2 E6, are built to the order asked
    from bpx import ssforms
    built, tables = [], []
    eis, mono = ssforms.eisenstein, ssforms.monomial_forms
    monkeypatch.setattr(ssforms, "eisenstein",
                        lambda w, n, ring: built.append((w, n)) or eis(w, n, ring))
    monkeypatch.setattr(ssforms, "monomial_forms",
                        lambda monos, n, ring: tables.append((monos, n)) or mono(monos, n, ring))
    ssforms.eigenbasis(37, 300)
    assert {w for w, n in built if n == 300} == {2, 4, 34}
    assert {w for w, n in built if n == 6} == {2, 4, 34} | {
        w for a in range(8, 20, 2) for w in (a, 38 - a)}
    assert [(monos, n) for monos, n in tables if n == 300] == [([(2, 2, 1)], 300)]


def test_bernoulli_numbers_mod_l_match_the_exact_ones():
    # the power sum l B_k mod l^2 of arith.bernoulli_mod, for even 2 <= k <= l - 3
    for ell in [p for p in range(5, 200) if is_prime(p)]:
        for k in range(2, ell - 2, 2):
            assert bernoulli_mod(k, ell) == frac_mod(bernoulli(k), ell), (ell, k)
        for k in (0, 3, ell - 1):
            with pytest.raises(InputError):
                bernoulli_mod(k, ell)


def test_eigenbasis_needs_no_exact_bernoulli_number(monkeypatch):
    # a cold exact B_28 costs more than the rest of eigenbasis(31, 200)
    from bpx import arith, qseries
    asked = []
    for module in (arith, qseries):
        monkeypatch.setattr(module, "bernoulli", lambda m: asked.append(m))
    eigenbasis(31, 200)
    eigenbasis(37, 100)
    assert asked == []


def test_eigenbasis_checks_the_long_forms_against_the_monomial_route(monkeypatch):
    from bpx import ssforms
    gen = ssforms._generator_forms

    def corrupted(keys, n, ell):
        forms = gen(keys, n, ell)
        if n > 6:  # the long build, not the choice on q^0..q^6
            forms[0][5] += 1  # past q^r = q^2, which the solve matches
        return forms

    monkeypatch.setattr(ssforms, "_generator_forms", corrupted)
    with pytest.raises(InternalConsistencyError, match="differs"):
        ssforms.eigenbasis(31, 200)


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
    evs = eb.t2_eigenvalues
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


@st.composite
def _matrices(draw):
    ell = draw(st.sampled_from([5, 7, 11, 31]))
    r = draw(st.integers(1, 3))
    entry = st.integers(0, ell - 1)
    return ell, [[draw(entry) for _ in range(r)] for _ in range(r)]


@given(_matrices())
@settings(max_examples=300, deadline=None)
def test_rank_scan_eigenvalues_are_the_charpoly_roots(case):
    ell, mat = case
    r = len(mat)
    roots = charpoly_roots(mat, ell)
    if len(roots) < r:  # a repeated root, or one outside F_l
        with pytest.raises(InputError, match="not defined over"):
            _eigenpairs(mat, ell)
        return
    pairs = _eigenpairs(mat, ell)
    assert [lam for lam, _ in pairs] == roots
    for lam, vec in pairs:
        assert any(vec)
        assert [sum(a * v for a, v in zip(row, vec)) % ell for row in mat] \
            == [lam * v % ell for v in vec]


def test_rank_scan_rejects_repeated_and_irreducible():
    cases = [(5, [[2, 1], [0, 2]]),            # Jordan block: one eigenvalue
             (7, [[3, 0], [0, 3]]),            # scalar: one eigenvalue, twice
             (5, [[0, 2], [1, 0]]),            # x^2 - 2, 2 a nonresidue mod 5
             (11, [[0, 0, 1], [1, 0, 0], [0, 1, 0]])]  # x^3 - 1: one root mod 11
    for ell, mat in cases:
        assert len(charpoly_roots(mat, ell)) < len(mat)
        with pytest.raises(InputError, match="not defined over"):
            _eigenpairs(mat, ell)
    assert [lam for lam, _ in _eigenpairs([[1, 1], [0, 3]], 5)] == [3, 1]


def test_solve_linear_mod():
    assert _solve_linear_mod([[2, 1], [1, 3]], [3, 4], 7) == [1, 1]
    assert _solve_linear_mod([[0, 1], [1, 0]], [5, 6], 7) == [6, 5]
    with pytest.raises(InputError, match="singular"):
        _solve_linear_mod([[1, 2], [2, 4]], [1, 2], 7)
