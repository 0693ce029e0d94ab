import json
import threading
from collections import Counter
from fractions import Fraction
from itertools import product

import pytest

from bpx import density, kernel
from bpx.arith import Mod, kronecker, sieve
from bpx.borcherds import CongruenceFormula, fit_congruence
from bpx.density import (X0_CURVES, EllCurve, asymptotic_table,
                         charpoly_count, ec_trace, ec_traces, empirical_table,
                         gl2_order)
from bpx.errors import CapabilityError, InputError
from bpx.qseries import GF, delta
from bpx.ssforms import eigenbasis
from oracles import charpoly_table_bruteforce


def test_charpoly_count_examples():
    assert charpoly_count(11, 0, 1).proportion == Fraction(1, 120)
    assert charpoly_count(3, 0, 1).count == 6
    assert charpoly_count(5, 0, 4).count == 30
    # disc = a^2/4 - b = 0 case
    c = charpoly_count(11, 2, 1)  # 4/4 - 1 = 0
    assert c.proportion == Fraction(11, 100 * 12)
    with pytest.raises(InputError):
        charpoly_count(11, 1, 0)


def test_charpoly_formula_matches_bruteforce():
    for ell in (3, 5, 7, 11):
        table = charpoly_table_bruteforce(ell)
        assert sum(table.values()) == gl2_order(ell)
        for a in range(ell):
            for b in range(1, ell):
                assert charpoly_count(ell, a, b).count == table[(a, b)], (ell, a, b)


def test_charpoly_case_multiplicities():
    # for fixed a != 0: nonresidue/residue/zero cases occur
    # (l-1)/2, (l-3)/2, 1 times; for a = 0 the first two occur (l-1)/2 each
    for ell in (5, 7, 11, 13, 17, 19, 23, 29, 31):
        inv4 = pow(4, -1, ell)
        for a in range(ell):
            cases = {-1: 0, 0: 0, 1: 0}
            for b in range(1, ell):
                cases[kronecker((a * a * inv4 - b) % ell, ell)] += 1
            if a == 0:
                assert cases == {-1: (ell - 1) // 2, 1: (ell - 1) // 2, 0: 0}
            else:
                assert cases == {-1: (ell - 1) // 2, 1: (ell - 3) // 2, 0: 1}


def test_asymptotic_table_4_11_exact():
    tab = asymptotic_table(fit_congruence(4, 11))
    for t in range(11):
        if t == 8:
            assert tab.entries[t] == Fraction(119, 1200)
        elif t == 10:
            assert tab.entries[t] == Fraction(109, 1200)
        else:
            assert tab.entries[t] == Fraction(9, 100)


def test_asymptotic_tables_sum_to_one():
    for d, ell in [(4, 11), (3, 11), (7, 13), (3, 5), (20, 31)]:
        tab = asymptotic_table(fit_congruence(d, ell))
        assert sum(tab.entries.values(), Fraction(0)) == 1


def test_asymptotic_table_rank0_concentrates():
    tab = asymptotic_table(fit_congruence(3, 5))
    assert tab.entries == {2: Fraction(1)}  # -24 * 2 = -48 = 2 mod 5


def test_asymptotic_table_20_31_frozen_values():
    # values computed by this machinery and cross-validated against a
    # literal enumeration of determinant-coupled matrix pairs at l = 5;
    # the table is nearly uniform (about 1/31 per class)
    tab = asymptotic_table(fit_congruence(20, 31))
    assert tab.entries[0] == Fraction(871, 27000)
    assert tab.entries[14] == Fraction(27871, 864000)
    assert tab.entries[6] == Fraction(99097, 3072000)
    assert tab.entries[2] == Fraction(445921, 13824000)
    for t in range(31):
        assert abs(float(tab.entries[t]) - 1 / 31) < 3e-6


def _synthetic_formula(ell, c0, cs):
    """A formula with the given constants, for the density engine only."""
    return CongruenceFormula(0, ell, Mod(c0, ell),
                             tuple(Mod(c, ell) for c in cs), None, 0)


def _literal_coupled_tally(ell, base, cs):
    """Tally t over every r-tuple of GL2(F_l) matrices sharing a determinant."""
    bydet = {}
    for w, x, y, z in product(range(ell), repeat=4):
        det = (w * z - x * y) % ell
        if det:
            bydet.setdefault(det, []).append((w + z) % ell)
    tally = Counter()
    for det, traces in bydet.items():
        invb = pow(det, -1, ell)
        for tr in product(traces, repeat=len(cs)):
            s = sum(c * (a - 1) for c, a in zip(cs, tr))
            tally[(base + s * invb) % ell] += 1
    return tally


def _assert_engine_matches_literal(ell, c0, cs, total):
    tally = _literal_coupled_tally(ell, -24 * c0 % ell, cs)
    assert sum(tally.values()) == total
    tab = asymptotic_table(_synthetic_formula(ell, c0, cs))
    for t in range(ell):
        assert tab.entries.get(t, Fraction(0)) == Fraction(tally[t], total), t


def test_rank2_model_matches_literal_pair_enumeration():
    # independent oracle at l=5: enumerate all pairs (M, N) in GL2(F5)^2
    # with det N = det M and tally the congruence value map (base 2)
    _assert_engine_matches_literal(5, 2, (3, 1), 4 * 120 ** 2)


def test_rank3_model_matches_literal_triple_enumeration():
    # all 2 * 24^3 determinant-coupled triples in GL2(F3)^3 (base 0, as
    # 24 = 0 mod 3): the only check that the convolution composes past two
    _assert_engine_matches_literal(3, 1, (1, 2, 1), 2 * 24 ** 3)


# ---------------------------------------------------------------------------
# curves


def test_curve_invariants():
    e11 = X0_CURVES[11]
    assert e11.discriminant == -(11 ** 5)
    assert X0_CURVES[17].discriminant % 17 == 0
    assert X0_CURVES[19].discriminant % 19 == 0
    with pytest.raises(InputError):
        EllCurve(0, 0, 0, 0, 0)


def test_ec_trace_x0_11_at_5():
    # |E(F_5)| = 5, so a(5) = 1
    assert ec_trace(X0_CURVES[11], 5) == 1


def test_ec_trace_tiny_primes_match_full_model_count():
    for level, curve in X0_CURVES.items():
        for p in (2, 3):
            if curve.discriminant % p == 0:
                continue
            npts = 1
            for x in range(p):
                for y in range(p):
                    lhs = (y * y + curve.a1 * x * y + curve.a3 * y) % p
                    rhs = (x ** 3 + curve.a2 * x * x + curve.a4 * x + curve.a6) % p
                    if lhs == rhs:
                        npts += 1
            assert ec_trace(curve, p) == p + 1 - npts


def test_ec_trace_bad_reduction():
    with pytest.raises(InputError):
        ec_trace(X0_CURVES[11], 11)


def test_trace_congruent_to_delta_coefficients_mod_11():
    dl = delta(1000, GF(11))
    for p in sieve(1000).primes:
        if p == 11:
            continue
        assert dl.coeff(p).value == ec_trace(X0_CURVES[11], p) % 11, p


def test_eigenform_curve_correspondence_all_three_levels():
    for ell in (11, 17, 19):
        eb = eigenbasis(ell, order=1000)
        curve = X0_CURVES[ell]
        for p in sieve(1000).primes:
            if p == ell:
                continue
            assert eb.coefficient(0, p).value == ec_trace(curve, p) % ell, (ell, p)


def test_hasse_bound_and_method_agreement_band():
    curve = X0_CURVES[11]
    primes = [p for p in sieve(30000).primes if p > 10000][:120]
    naive = ec_traces(curve, primes, naive_limit=10 ** 9)
    bsgs = ec_traces(curve, primes, naive_limit=2)
    assert naive == bsgs
    for p, t in zip(primes, naive):
        assert t * t <= 4 * p


def test_ec_traces_threads_deterministic():
    curve = X0_CURVES[11]
    primes = [p for p in sieve(40000).primes if p not in (2, 3, 11)]
    assert ec_traces(curve, primes, threads=1) == ec_traces(curve, primes, threads=4)


def test_ec_traces_threads_on_the_compiled_kernel(monkeypatch, compiled):
    # blocks of 4096 primes run on a thread pool, each block with the GIL
    # released; the merged traces must equal one single-threaded call
    curve = X0_CURVES[11]
    primes = [p for p in sieve(40000).primes if p not in (2, 3, 11)]
    assert len(primes) > 4096  # enough for more than one block
    callers = set()

    def traced(*args):
        callers.add(threading.get_ident())
        return compiled.ec_traces(*args)

    monkeypatch.setattr(kernel, "BACKEND", "compiled")
    monkeypatch.setattr(kernel, "ec_traces", traced)
    want = ec_traces(curve, primes, threads=1)
    assert callers == {threading.get_ident()}
    assert ec_traces(curve, primes, threads=2) == want
    assert len(callers) > 1  # the blocks ran on pool threads


def test_ec_traces_no_threads_on_the_pure_kernel(monkeypatch):
    # the pure kernel holds the GIL: more threads would only add overhead
    curve = X0_CURVES[11]
    primes = [p for p in sieve(40000).primes if p not in (2, 3, 11)]
    assert len(primes) > 4096  # enough for more than one block
    want = ec_traces(curve, primes, threads=1)

    def no_pool(*args, **kwargs):
        raise AssertionError("thread pool created on the pure-Python kernel")

    monkeypatch.setattr(kernel, "BACKEND", "python")
    monkeypatch.setattr(density, "ThreadPoolExecutor", no_pool)
    assert ec_traces(curve, primes, threads=4) == want


# ---------------------------------------------------------------------------
# empirical tables


def test_empirical_table_counts_and_denominator():
    F = fit_congruence(4, 11)
    tab = empirical_table(F, 10 ** 4)
    assert tab.total == 1229
    assert sum(tab.entries.values()) == 1228  # p = 11 excluded from tallies
    assert tab.kind == "empirical"


def test_empirical_table_within_tolerance_1e4():
    reference_row = [.0829, .0928, .0887, .0911, .0862, .0903,
                 .0846, .0960, .1009, .1066, .0797]
    tab = empirical_table(fit_congruence(4, 11), 10 ** 4)
    for t in range(11):
        assert abs(tab.ratio(t) - reference_row[t]) <= 0.0015, t


def test_empirical_expansion_mode_small():
    F = fit_congruence(20, 31)
    tab = empirical_table(F, 3000)
    assert tab.total == len(sieve(3000))
    assert sum(tab.entries.values()) == tab.total - 1  # p = 31 excluded
    # spot check one prime by hand: p = 2
    eb = F.basis
    a1, a2 = eb.coefficient(0, 2).value, eb.coefficient(1, 2).value
    t2 = (14 + (22 * (a1 - 1) + 1 * (a2 - 1)) * pow(2, 29, 31)) % 31
    assert tab.entries[t2] >= 1


def test_empirical_rank0():
    F = fit_congruence(3, 5)
    tab = empirical_table(F, 1000)
    assert tab.entries == {2: len(sieve(1000)) - 1}


def test_empirical_capability_error():
    F = fit_congruence(20, 31)
    with pytest.raises(CapabilityError):
        empirical_table(F, 10 ** 6)


def test_density_table_serialization():
    tab = asymptotic_table(fit_congruence(4, 11))
    csv = tab.to_csv()
    assert csv.splitlines()[0] == "t,density,decimal"
    assert "119/1200" in csv
    doc = json.loads(tab.to_json())
    assert doc["kind"] == "asymptotic"
    assert doc["rows"][8]["density"] == "119/1200"
    emp = empirical_table(fit_congruence(4, 11), 2000)
    rows = emp.to_rows()
    assert set(rows[0].keys()) == {"t", "count", "ratio"}
    assert abs(float(rows[0]["ratio"]) - emp.ratio(0)) < 1e-4


def test_rank2_table_31_against_formula_free_enumeration():
    # rebuild the (d=20, l=31) table using trace/det counts obtained by
    # literally enumerating all of GL2(F_31), bypassing the proportion
    # formula entirely; must agree with asymptotic_table exactly
    ell = 31
    counts = {}
    for w in range(ell):
        for x in range(ell):
            wx_rows = []
            for y in range(ell):
                wx_rows.append((x * y) % ell)
            for z in range(ell):
                tr = (w + z) % ell
                wz = w * z
                for y in range(ell):
                    det = (wz - wx_rows[y]) % ell
                    if det:
                        key = (tr, det)
                        counts[key] = counts.get(key, 0) + 1
    F = fit_congruence(20, 31)
    base = (-24 * F.c0.value) % ell
    c1, c2 = F.c[0].value, F.c[1].value
    group = Fraction(gl2_order(ell) ** 2, ell - 1)
    acc = {}
    for b in range(1, ell):
        invb = pow(b, -1, ell)
        for a1 in range(ell):
            n1 = counts.get((a1, b), 0)
            for a2 in range(ell):
                t = (base + (c1 * (a1 - 1) + c2 * (a2 - 1)) * invb) % ell
                acc[t] = acc.get(t, Fraction(0)) \
                    + Fraction(n1 * counts.get((a2, b), 0)) / group
    tab = asymptotic_table(F)
    for t in range(ell):
        assert acc.get(t, Fraction(0)) == tab.entries.get(t, Fraction(0)), t


def test_empirical_curve_mode_levels_17_19():
    for d, ell in ((3, 17), (7, 19)):
        F = fit_congruence(d, ell)
        tab = empirical_table(F, 5000)
        assert tab.total == len(sieve(5000))
        assert sum(tab.entries.values()) == tab.total - 1  # p = l excluded
        # all residues populated at this scale and no wild outliers
        assert set(tab.entries) == set(range(ell))
