"""Acceptance suite: one test per numbered criterion, stated tolerances.

Each test prints a single PASS/FAIL line (visible with -s or in the -v
test report).  Four criteria (C1, C2, C7, C9) state target values that
are errata.  Each of those tests keeps the stated value as a named
``*_STATED`` constant, expects the corrected value, and asserts a
certificate, reckoned in plain integers, that the stated value is wrong
and the corrected one right.  The README's "Acceptance results and
known deviations" section carries the analysis.
"""

import random
import time
from fractions import Fraction
from functools import reduce

from bpx.arith import frac_mod, kronecker, sieve
from bpx.borcherds import (exact_exponents, fit_congruence, formula_eval,
                           twisted_roundtrip, verify_congruence)
from bpx.classpoly import eligibility
from bpx.density import (X0_CURVES, asymptotic_table, charpoly_count,
                         ec_trace, ec_traces, empirical_table)
from bpx.qseries import GF, QQ, QSeries, eisenstein
from bpx.ssforms import (eigenbasis, supersingular_poly,
                         supersingular_poly_bruteforce)
from oracles import charpoly_table_bruteforce


def _report(num, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE C{num:02d} {status}" + (f" - {detail}" if detail else ""))
    return ok


def _by_value(groups):
    """{value: residues} -> {residue: value}."""
    return {t: v for v, ts in groups.items() for t in ts}


# C1 states A(4,3) = 26572, a digit swap: Zagier ("Traces of singular
# moduli", 2002) gives f_3 = q^-3 - 248q + 26752q^4 - ... - 4096248q^9.
C01_STATED_A_4_3 = 26572
J_HEAD = (1, 744, 196884)  # q*j = 1 + 744q + 196884q^2 + ...


def _cube_of_product(a1, a4):
    """(1-q)^a1 (1-q^2)^a4 cubed, to q^2.

    For a1 = A(1,3), a4 = A(4,3) the product is q^(1/3) j^(1/3), so the
    cube must be q*j: with a1 = -248 that says C(249,2) - a4 = 4124.
    """
    s1, s2 = -a1, a1 * (a1 - 1) // 2 - a4
    return (1, 3 * s1, 3 * s2 + 3 * s1 * s1)


def test_c01_fd_coefficient_regression():
    # the nine (listed: eight) square-index coefficients, exact
    expected = {
        (3, 1): -248, (3, 2): 26752, (3, 3): -4096248,
        (4, 1): 492, (4, 2): 143376, (4, 3): 51180012,
        (7, 1): -4119, (7, 2): 8288256,
    }
    tables = {d: exact_exponents(d, 9) for d in (3, 4, 7)}
    bad = []
    for (d, n), want in sorted(expected.items()):
        got = tables[d][n]
        if got != want:
            bad.append(f"A({n * n},{d}): computed {got}, expected {want}")
    # certificate: the product identity holds for 26752, not for 26572
    if _cube_of_product(expected[3, 1], expected[3, 2]) != J_HEAD:
        bad.append(f"A(4,3) = {expected[3, 2]} breaks the product identity")
    if _cube_of_product(expected[3, 1], C01_STATED_A_4_3) == J_HEAD:
        bad.append(f"stated A(4,3) = {C01_STATED_A_4_3} satisfies it")
    ok = _report(1, not bad, "; ".join(bad))
    assert ok, "exact exponent regression: " + "; ".join(bad)


# C2 states the weight-32 eigenforms mod 31 as Delta*E4^2*E6^2 + x *
# Delta^2*E4^2 with x = 22, 19, and the (d=20, l=31) fit over them as
# (c0, c) = (2, (14, 9)).  Neither x is a T_2 eigenform; the true ones
# carry x = 13, 7 with eigenvalues 19, 13, and the stated fit is the same
# cusp form as the program's (2, (22, 1)) over the true eigenforms.
C02_STATED_COMBOS = (22, 19)
C02_STATED_FIT = (2, (14, 9))


def _s32_generators(n):
    """Delta*E4^2*E6^2 and Delta^2*E4^2 to q^n in plain integers."""
    def mul(a, b):
        return [sum(a[i] * b[k - i] for i in range(k + 1)) for k in range(n + 1)]

    def sigma(k, m):
        return sum(e ** k for e in range(1, m + 1) if m % e == 0)

    e4 = [1] + [240 * sigma(3, m) for m in range(1, n + 1)]
    e6 = [1] + [-504 * sigma(5, m) for m in range(1, n + 1)]
    euler = [1] + [0] * n
    for m in range(1, n + 1):
        for k in range(n, m - 1, -1):
            euler[k] -= euler[k - m]
    delta = [0] + reduce(mul, [euler] * 24)[:n]
    e4sq = mul(e4, e4)
    return mul(mul(delta, e4sq), mul(e6, e6)), mul(mul(delta, delta), e4sq)


def _t2_eigenvalue(x):
    """T_2 eigenvalue mod 31 of Delta*E4^2*E6^2 + x*Delta^2*E4^2, or None.

    Checked to q^10, past the weight-32 Sturm bound q^2; T_2 acts as
    b(m) = a(2m) + 2^31 a(m/2).
    """
    f = [gi + x * hi for gi, hi in zip(*_s32_generators(20))]
    tf = [f[2 * m] + (2 ** 31 * f[m // 2] if m % 2 == 0 else 0)
          for m in range(11)]
    lam = tf[1] % 31  # f = q + ...
    return lam if all((b - lam * a) % 31 == 0 for a, b in zip(f, tf)) else None


def test_c02_congruence_constants():
    bad = []
    F = fit_congruence(4, 11)
    if (F.c0, list(F.c)) != (6, [9]):
        bad.append(f"(d=4,l=11): got c0={F.c0}, c={list(F.c)}")
    G = fit_congruence(20, 31)
    got, fit = (G.c0, G.c), (2, (22, 1))
    if got != fit:
        bad.append(f"(d=20,l=31): got (c0, c) = {got}, expected {fit}")
    combos = (13, 7)
    basis = {i: dict(G.basis.monomial_combos[i]) for i in range(G.basis.dim)}
    if basis != {i: {(2, 2, 0): x, (1, 2, 2): 1} for i, x in enumerate(combos)}:
        bad.append(f"(d=20,l=31) eigenforms: got {basis}, expected "
                   f"Delta*E4^2*E6^2 + x Delta^2*E4^2 for x in {combos}")
    if list(G.basis.t2_eigenvalues) != [19, 13]:
        bad.append(f"(d=20,l=31) T_2 eigenvalues: {G.basis.t2_eigenvalues}")
    # certificate: 13/7 are T_2 eigenforms with eigenvalues 19/13, 22/19
    # are not, and both fits are the cusp form 23*Delta*E4^2*E6^2 +
    # 14*Delta^2*E4^2 mod 31
    lams = {x: _t2_eigenvalue(x) for x in combos + C02_STATED_COMBOS}
    if lams != {13: 19, 7: 13, 22: None, 19: None}:
        bad.append(f"T_2 eigenvalues mod 31 by combination: {lams}")

    def form(c, xs):
        return sum(c) % 31, sum(ci * x for ci, x in zip(c, xs)) % 31
    forms = {form(fit[1], combos), form(C02_STATED_FIT[1], C02_STATED_COMBOS)}
    if forms != {(23, 14)} or fit[0] != C02_STATED_FIT[0]:
        bad.append(f"the stated fit {C02_STATED_FIT} and {fit} are not "
                   f"the same form mod 31: {forms}")
    ok = _report(2, not bad, "; ".join(bad))
    assert ok, "congruence constants: " + "; ".join(bad)


def test_c03_end_to_end_congruence_d4_l11():
    t0 = time.time()
    F = fit_congruence(4, 11, verify_to=300)
    table = exact_exponents(4, 300)
    bad = [n for n in range(1, 301)
           if n % 11 and table[n] % 11 != formula_eval(F, n)]
    ok = _report(3, not bad, f"{time.time() - t0:.1f}s")
    assert ok, f"mismatches at n = {bad}"


def test_c04_trivial_congruences():
    bad = []
    for ell, d in ((5, 3), (7, 4), (13, 7)):
        table = exact_exponents(d, 200)
        for n in range(1, 201):
            if n % ell == 0:
                continue
            if table[n] % ell != 2:
                bad.append((ell, d, n, table[n] % ell))
    ok = _report(4, not bad)
    assert ok, f"A(n^2,d) != 2 mod l at {bad[:10]}"


def test_c05_supersingular_oracle():
    bad = []
    for ell in (5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47):
        if supersingular_poly(ell) != supersingular_poly_bruteforce(ell):
            bad.append(ell)
    ok = _report(5, not bad)
    assert ok, f"supersingular polynomial mismatch at l = {bad}"


def test_c06_gl2_charpoly_densities():
    bad = []
    for ell in (3, 5, 7, 11):
        table = charpoly_table_bruteforce(ell)
        for a in range(ell):
            for b in range(1, ell):
                if charpoly_count(ell, a, b).count != table.get((a, b), 0):
                    bad.append((ell, a, b))
    # case-count tallies from the remark, l <= 31
    for ell in (5, 7, 11, 13, 17, 19, 23, 29, 31):
        inv4 = pow(4, -1, ell)
        for a in range(ell):
            cases = {-1: 0, 0: 0, 1: 0}
            for b in range(1, ell):
                cases[kronecker((a * a * inv4 - b) % ell, ell)] += 1
            want = ({-1: (ell - 1) // 2, 1: (ell - 1) // 2, 0: 0} if a == 0
                    else {-1: (ell - 1) // 2, 1: (ell - 3) // 2, 0: 1})
            if cases != want:
                bad.append((ell, a, cases))
    ok = _report(6, not bad)
    assert ok, f"GL2 density deviations: {bad[:10]}"


# C7 states a seven-value (d=20, l=31) table that no constants can give:
# six of its values have 31 in the reduced denominator (see the test).
C07_STATED_20_31 = _by_value({
    Fraction(991, 29760): (0,),
    Fraction(14399, 446400): (8,),
    Fraction(1199, 37200): (1, 2, 9, 14, 21, 29),
    Fraction(29, 900): (3, 4, 5, 11, 16, 19, 20, 23, 28),
    Fraction(719, 22320): (6, 7, 10, 18, 25, 30),
    Fraction(799, 24800): (12, 13, 15, 17),
    Fraction(7193, 223200): (22, 24, 26, 27),
})
# the determinant-coupled class-count sum for c0 = 2, c = (22, 1)
C07_TABLE_20_31 = _by_value({
    Fraction(871, 27000): (0, 1, 9, 11, 12, 22, 23, 24, 25, 26, 28, 29, 30),
    Fraction(445921, 13824000): (2, 3, 4, 5, 7, 8, 10, 13, 15, 16, 18, 19,
                                 20, 21, 27),
    Fraction(99097, 3072000): (6, 17),
    Fraction(27871, 864000): (14,),
})


def test_c07_asymptotic_tables():
    bad = []
    tab = asymptotic_table(fit_congruence(4, 11))
    for t in range(11):
        want = (Fraction(119, 1200) if t == 8 else
                Fraction(109, 1200) if t == 10 else Fraction(9, 100))
        if tab.entries.get(t) != want:
            bad.append(f"(4,11) t={t}: {tab.entries.get(t)} != {want}")
    ell = 31
    tab31 = asymptotic_table(fit_congruence(20, ell))
    wrong31 = [t for t in range(ell)
               if tab31.entries.get(t) != C07_TABLE_20_31[t]]
    if wrong31:
        bad.append(f"(20,31): {len(wrong31)}/31 entries differ, e.g. t={wrong31[0]}: "
                   f"{tab31.entries.get(wrong31[0])} vs {C07_TABLE_20_31[wrong31[0]]}")
    # certificate: each fibre count N(a, b) = l^2 + l*((a^2 - 4b)/l) is a
    # multiple of l, and the det-coupled group has order
    # l^2 (l-1) (l^2-1)^2, so for any constants every density is an
    # integer over (l-1)(l^2-1)^2 = 27648000, which is prime to 31
    den = (ell - 1) * (ell * ell - 1) ** 2
    for a in range(ell):
        for b in range(1, ell):
            fibre = ell * ell + ell * kronecker(a * a - 4 * b, ell)
            if charpoly_count(ell, a, b).count != fibre:
                bad.append(f"N({a},{b}) != {fibre}")
    if sum(C07_TABLE_20_31.values()) != 1 or any(
            (v * den).denominator != 1 for v in C07_TABLE_20_31.values()):
        bad.append(f"the expected table is not a distribution over 1/{den}")
    off = {v for v in C07_STATED_20_31.values() if (v * den).denominator != 1}
    if len(off) != 6:
        bad.append(f"stated values off the 1/{den} lattice: {sorted(off)}")
    ok = _report(7, not bad, "; ".join(bad))
    assert ok, "asymptotic tables: " + "; ".join(bad)


def test_c08_empirical_table1():
    rows = {
        10 ** 4: ([.0829, .0928, .0887, .0911, .0862, .0903,
                   .0846, .0960, .1009, .1066, .0797], 0.0015),
        10 ** 6: ([.0899, .0897, .0891, .0915, .0887, .0894,
                   .0893, .0913, .0976, .0920, .0914], 0.0005),
    }
    F = fit_congruence(4, 11)
    bad = []
    t0 = time.time()
    for x, (row, tol) in rows.items():
        tab = empirical_table(F, x)
        for t in range(11):
            dev = abs(tab.ratio(t) - row[t])
            if dev > tol:
                bad.append(f"X={x} t={t}: {tab.ratio(t):.4f} vs {row[t]:.4f}")
    ok = _report(8, not bad, f"{time.time() - t0:.1f}s")
    assert ok, f"empirical densities out of tolerance: {bad}"


# C9 states the d <= 427 whose class polynomial divides s_l; the lists
# miss l=11: 16, 27; l=17: 27; l=19: 16.  The radicals of H_d have the
# classical singular moduli as roots, and each missing d reduces mod l
# exactly like a listed one.
C09_STATED = {
    11: {3, 4, 11, 12, 15, 20, 67, 115, 148, 163, 267},
    17: {3, 7, 11, 12, 24, 28, 88, 91, 163, 267, 403},
    19: {4, 7, 11, 19, 20, 28, 35, 43, 163, 187, 235, 427},
}
C09_MISSING = {(11, 16): (12,), (11, 27): (12,), (17, 27): (12, 28),
               (19, 16): (28,)}
RADICAL_ROOTS = {12: (54000, 0), 16: (287496, 1728), 27: (-12288000, 0),
                 28: (16581375, -3375)}


def test_c09_table2_reproduction():
    t0 = time.time()
    bad = []
    for ell, stated in C09_STATED.items():
        want = stated | {d for (l, d) in C09_MISSING if l == ell}
        got = {d for d in range(3, max(stated) + 1)
               if d % 4 in (0, 3) and eligibility(d, ell).divides}
        if got != want:
            bad.append(f"l={ell}: extra {sorted(got - want)}, "
                       f"missing {sorted(want - got)}")
    # certificate: each missing d reduces like its listed twins, and its
    # fitted congruence is verified to order 200, series and exponents
    for (ell, d), twins in C09_MISSING.items():
        roots = sorted(r % ell for r in RADICAL_ROOTS[d])
        for twin in twins:
            if twin not in C09_STATED[ell] or \
                    sorted(r % ell for r in RADICAL_ROOTS[twin]) != roots:
                bad.append(f"l={ell}: H_{d} does not reduce like H_{twin}")
        if fit_congruence(d, ell).verified_to < 200:
            bad.append(f"(d={d}, l={ell}) fit verified below 200")
        verify_congruence(d, ell, 200)
    ok = _report(9, not bad, f"{time.time() - t0:.1f}s " + "; ".join(bad))
    assert ok, "divisibility scan: " + " | ".join(bad)


def test_c10_property_suites():
    t0 = time.time()
    bad = []
    # Eisenstein congruences to 500 terms
    for ell in (5, 7, 11, 13, 17, 19, 23, 29, 31):
        ring = GF(ell)
        if eisenstein(ell - 1, 500, ring) != QSeries.one(ring, 500):
            bad.append(f"E_(l-1) != 1 mod {ell}")
        # the F_l branch above is the von Staudt shortcut; the Bernoulli
        # and divisor-sum route over Q, reduced mod l, is its check
        exact = eisenstein(ell - 1, 500, QQ)
        if [frac_mod(c, ell) for c in exact.coeffs] != [1] + [0] * (len(exact.coeffs) - 1):
            bad.append(f"E_(l-1) over Q != 1 mod {ell}")
        if eisenstein(ell + 1, 500, ring) != eisenstein(2, 500, ring):
            bad.append(f"E_(l+1) != E_2 mod {ell}")
    # convolution-inverse round trips, 50 random sequences per D
    rng = random.Random(0xB0C4)
    for D in (5, 8, 13):
        for _ in range(50):
            seq = [rng.randint(-100, 100) for _ in range(64)]
            if twisted_roundtrip(D, seq) != seq:
                bad.append(f"roundtrip failed for D={D}")
                break
    # eigenform coefficients vs curve traces mod l, p < 1000
    for ell in (11, 17, 19):
        eb = eigenbasis(ell, order=1000)
        curve = X0_CURVES[ell]
        for p in sieve(1000).primes:
            if p == ell:
                continue
            if eb.coefficient(0, p) != ec_trace(curve, p) % ell:
                bad.append(f"trace mismatch l={ell} p={p}")
    # dual-method trace agreement on the overlap band, and the Hasse bound
    curve = X0_CURVES[11]
    band = [p for p in sieve(30000).primes if 10000 < p][:100]
    naive = ec_traces(curve, band, naive_limit=10 ** 9)
    bsgs = ec_traces(curve, band, naive_limit=2)
    if naive != bsgs:
        bad.append("naive/BSGS disagreement in the overlap band")
    for p, t in zip(band, naive):
        if t * t > 4 * p:
            bad.append(f"Hasse bound violated at {p}")
    ok = _report(10, not bad, f"{time.time() - t0:.1f}s")
    assert ok, f"property failures: {bad[:10]}"
