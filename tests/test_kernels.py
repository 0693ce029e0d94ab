"""Backend parity: the compiled kernel and the pure-Python fallback must
agree bit for bit on every exposed operation.  The compiled module comes
from the ``compiled`` fixture (tests/conftest.py), which builds it."""

import inspect
import math
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bpx._eckernel_py as pure
from bpx import density, kernel
from bpx.arith import is_prime
from oracles import annihilators_bruteforce, supersingular_js_by_point_count

A11, B11 = -27 * 496, -54 * 20008  # short form of the level 11 curve


def test_active_backend_reported():
    assert kernel.backend() in ("compiled", "python")


def test_pure_primes_below():
    assert pure.primes_below(10) == [2, 3, 5, 7]
    assert pure.primes_below(2) == []
    assert len(pure.primes_below(10 ** 4)) == 1229


def test_primes_below_parity(compiled):
    for limit in (2, 3, 10, 97, 10 ** 4, 123456):
        assert compiled.primes_below(limit) == pure.primes_below(limit)


def test_pure_trace_small():
    assert pure.ec_traces(A11, B11, [5, 7]) == [1, -2]


def test_trace_parity_naive_and_bsgs(compiled):
    primes = [p for p in pure.primes_below(2000) if p >= 5 and p != 11][:80]
    big = [p for p in pure.primes_below(120000) if p > 100000][:40]
    for p in primes + big:
        want = pure.ec_traces(A11, B11, [p])
        assert compiled.ec_traces(A11, B11, [p]) == want
        # force both strategies on the compiled side
        assert compiled.ec_traces(A11, B11, [p], naive_limit=2) == want
        assert compiled.ec_traces(A11, B11, [p], naive_limit=10 ** 9) == want


def test_trace_parity_below_2_31(compiled):
    # the largest primes the compiled kernel takes: the widest Hasse window,
    # m = 305, and the largest baby table and giant stride
    primes = []
    for n in range(2 ** 31 - 1, 0, -2):
        if len(primes) == 40:
            break
        if is_prime(n):
            primes.append(n)
    assert compiled.ec_traces(A11, B11, primes) == pure.ec_traces(A11, B11, primes)
    assert compiled.ec_traces(0, 1, primes) == pure.ec_traces(0, 1, primes)


def _good_primes(curve, lo, hi):
    return [p for p in pure.primes_below(hi) if p >= lo and curve.discriminant % p]


@pytest.mark.parametrize("ell, bound", [(11, 10 ** 5), (17, 2 * 10 ** 4), (19, 2 * 10 ** 4)])
def test_torsion_search_keeps_the_traces(ell, bound):
    # the search over multiples of t against the one over the whole window,
    # at every good prime, tiny ones included, where tP = O for every P
    curve = density.X0_CURVES[ell]
    A, B = curve.short_form
    t = kernel.RATIONAL_TORSION[A, B]
    primes = _good_primes(curve, 5, bound)
    assert pure.ec_traces(A, B, primes, 2, t) == pure.ec_traces(A, B, primes, 2, 1)


@pytest.mark.parametrize("ell", [11, 17, 19])
def test_torsion_search_parity_near_10_6(compiled, ell):
    curve = density.X0_CURVES[ell]
    A, B = curve.short_form
    t = kernel.RATIONAL_TORSION[A, B]
    primes = _good_primes(curve, 10 ** 6 - 15000, 10 ** 6)[-400:]
    assert len(primes) == 400
    assert compiled.ec_traces(A, B, primes, 2, t) == pure.ec_traces(A, B, primes, 2, t)


def test_torsion_is_checked(compiled):
    # t < 1 is refused; a t with no multiple in the Hasse window [946, 1074]
    # cannot divide #E and leaves no candidate, before any point is drawn
    for mod in (pure, compiled):
        with pytest.raises(ValueError, match="torsion"):
            mod.ec_traces(A11, B11, [1009], 2, 0)
        with pytest.raises(AssertionError, match="no group-order candidate"):
            mod.ec_traces(A11, B11, [1009], 2, 10 ** 6)


def test_kernel_entry_points_keep_four_arguments(compiled):
    # the benchmark's tracer observes kernel.ec_traces(a, b, primes,
    # naive_limit) and its replay calls each backend with those four
    # arguments, so the torsion is looked up inside bpx.kernel; the batch
    # call is the one way into the traces, a single prime a list of one
    params = inspect.signature(kernel.ec_traces).parameters
    assert list(params) == ["a", "b", "primes", "naive_limit"]
    assert params["naive_limit"].default == kernel.NAIVE_LIMIT
    for mod in (kernel, pure, compiled):
        assert not hasattr(mod, "ec_trace")
    primes = [p for p in pure.primes_below(30000) if p > 20000][:50]
    want = kernel.ec_traces(A11, B11, primes, 600)
    for mod in (pure, compiled):
        assert mod.ec_traces(A11, B11, primes, 600) == want


def test_pure_bsgs_vs_naive():
    primes = [10007, 10009, 10037, 20011, 30011]
    assert pure.ec_traces(A11, B11, primes, naive_limit=2) == \
        pure.ec_traces(A11, B11, primes, naive_limit=10 ** 9)


def test_singular_curve_rejected():
    with pytest.raises(ValueError, match="singular curve mod 7"):
        pure.ec_traces(0, 0, [7])
    # 4 + 27 * 4 = 2^4 * 7: bad reduction at 7 only
    with pytest.raises(ValueError, match="singular curve mod 7"):
        pure.ec_traces(1, 2, [5, 7])


def test_compiled_singular_curve_rejected(compiled):
    with pytest.raises(ValueError, match="singular curve mod 7"):
        compiled.ec_traces(0, 0, [7])
    # 4 + 27 * 4 = 2^4 * 7: bad reduction at 7 only
    with pytest.raises(ValueError, match="singular curve mod 7"):
        compiled.ec_traces(1, 2, [5, 7])


def test_compiled_prime_size_limit(compiled):
    with pytest.raises(OverflowError):
        compiled.ec_traces(1, 1, [2 ** 31 + 11])


def test_ec_traces_block_parity(compiled):
    primes = [p for p in pure.primes_below(50000) if p >= 5 and p != 11][:300]
    assert compiled.ec_traces(A11, B11, primes) == pure.ec_traces(A11, B11, primes)


def test_compiled_kernel_serves_the_pure_supersingular_scan(compiled):
    # one scan for both backends: callers look it up by name on either
    # module, so the compiled one must hold the pure function itself
    assert compiled.supersingular_js_fq2 is pure.supersingular_js_fq2


@pytest.mark.parametrize("ell", [5, 7, 11, 13, 17, 19, 37])
def test_supersingular_scan_matches_a_literal_point_count(ell):
    # l = 5, 11 and 17 have j = 0 supersingular, l = 7, 11 and 19 j = 1728,
    # and l = 37 a conjugate pair outside F_l
    from bpx.ssforms import _nonresidue
    ns = _nonresidue(ell)
    assert pure.supersingular_js_fq2(ell, ns) == \
        supersingular_js_by_point_count(ell, ns)


def test_hasse_bound_pure_band():
    primes = [10007, 50021, 100003]
    for p, t in zip(primes, pure.ec_traces(A11, B11, primes)):
        assert t * t <= 4 * p


BSGS_PRIMES = [p for p in pure.primes_below(20000) if p >= 400]


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(BSGS_PRIMES),
       st.sampled_from(["j=0", "j=1728", "random"]),
       st.integers(-10 ** 6, 10 ** 6), st.integers(-10 ** 6, 10 ** 6))
def test_pure_default_route_equals_naive_count(p, kind, a, b):
    # j = 0 and j = 1728 carry the extra automorphisms that give small
    # group exponents, the case where candidate filtering can stall
    if kind == "j=0":
        a = 0
    elif kind == "j=1728":
        b = 0
    if (4 * a ** 3 + 27 * b * b) % p == 0:
        return
    assert pure.ec_traces(a, b, [p]) == pure.ec_traces(a, b, [p], naive_limit=10 ** 9)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([p for p in pure.primes_below(3000) if p >= 5]),
       st.sampled_from(["j=0", "j=1728", "random"]),
       st.integers(-10 ** 6, 10 ** 6), st.integers(-10 ** 6, 10 ** 6))
def test_compiled_search_equals_naive_count(compiled, p, kind, a, b):
    # small primes reach the compiled search's rare branches: giant points
    # on O or on +-tS, and points of tiny order
    if kind == "j=0":
        a = 0
    elif kind == "j=1728":
        b = 0
    if (4 * a ** 3 + 27 * b * b) % p == 0:
        return
    assert compiled.ec_traces(a, b, [p], naive_limit=2) == \
        pure.ec_traces(a, b, [p], naive_limit=10 ** 9)


def _curve_and_point(p, kind, u, v, w):
    """(a, P) for a point P of y^2 = x^3 + a x + b over F_p from three draws.

    "random", "j=0" and "j=1728" take the first x >= u with a square on the
    right; "order 2" puts the root u on the curve; "order 3" builds the flex
    P = (w^2/3, v), whose tangent slope w gives x(2P) = w^2 - 2x(P) = x(P)."""
    a, b = v % p, w % p
    if kind == "j=0":
        a = 0
    elif kind == "j=1728":
        b = 0
    elif kind == "order 2":
        b = -(u ** 3 + a * u) % p
        return a, (u % p, 0)
    elif kind == "order 3":
        x, y = w * w * pow(3, -1, p) % p, v % p or 1  # slope w: w^2 = 3x
        a = (2 * y * w - 3 * x * x) % p
        return a, (x, y)
    roots = {y * y % p: y for y in range(p)}
    for x in range(u, u + p):
        y = roots.get((x ** 3 + a * x + b) % p)
        if y is not None:
            return a, (x % p, y)
    return a, None


def _nonsingular(a, P, p):
    b = (P[1] ** 2 - P[0] ** 3 - a * P[0]) % p
    return (4 * a ** 3 + 27 * b * b) % p != 0


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([p for p in pure.primes_below(3000) if p >= 5]),
       st.sampled_from(["random", "j=0", "j=1728", "order 2", "order 3"]),
       st.integers(0, 10 ** 6), st.integers(0, 10 ** 6), st.integers(0, 10 ** 6),
       st.booleans(), st.integers(0, 6000), st.integers(0, 250))
def test_annihilators_match_a_scalar_multiple_per_n(p, kind, u, v, w, hasse, lo, width):
    # the +-j baby steps, the giant stride 2m + 1 and the tiny-order rule
    # against N*P for every N, in the Hasse window or in any other
    a, P = _curve_and_point(p, kind, u, v, w)
    if P is None or not _nonsingular(a, P, p):
        return
    if hasse:
        r = math.isqrt(4 * p)
        lo, width = p + 1 - r, 2 * r
    lo, hi = max(lo, 1), max(lo, 1) + width
    m = math.isqrt(width // 2) + 1
    found = pure._annihilators(P, a, p, lo, hi)
    order, R = 1, P  # the order of P, or None when it exceeds 2m + 1
    while R is not None:
        R, order = pure._ec_add(R, P, a, p), order + 1
        if order > 2 * m + 1:
            order = None
            break
    # skipped: jP = O for j <= m + 1, a repeated baby x, or sP = O
    tiny = order is not None and (order <= max(m + 1, 2 * m - 1) or order == 2 * m + 1)
    assert (found is None) == tiny
    if found is not None:
        assert found == annihilators_bruteforce(P, a, p, lo, hi)


def _record_bsgs(monkeypatch):
    """Log the candidate lists and naive counts one BSGS search goes through."""
    log = []
    annihilators, naive = pure._annihilators, pure._trace_naive

    def logged_annihilators(*args):
        found = annihilators(*args)
        log.append(found)
        return found

    def logged_naive(*args):
        log.append("naive")
        return naive(*args)

    monkeypatch.setattr(pure, "_annihilators", logged_annihilators)
    monkeypatch.setattr(pure, "_trace_naive", logged_naive)
    return log


def test_bsgs_falls_back_to_naive_count(monkeypatch):
    # y^2 = x^3 + 1 over F_547 is Z/14 x Z/42: every point leaves the three
    # multiples of 42 in the Hasse window [502, 594], so 20 points cannot
    # decide and the search counts points
    want = pure._trace_naive(0, 1, 547)
    log = _record_bsgs(monkeypatch)
    assert pure._trace_bsgs(0, 1, 547) == want == 547 + 1 - 588
    assert log[0] == [504, 546, 588] and log[-1] == "naive"


def test_bsgs_skips_a_point_of_tiny_order(monkeypatch):
    # the first point drawn on y^2 = x^3 + 1 over F_1021 has order 12, below
    # 2m + 1 = 17 (m = 8): x(5P) = x(7P) repeats in the baby table and the
    # search moves on; the next point leaves one candidate, 1008 = #E
    want = pure._trace_naive(0, 1, 1021)
    log = _record_bsgs(monkeypatch)
    assert pure._trace_bsgs(0, 1, 1021) == want == 1021 + 1 - 1008
    assert log == [None, [1008]]


def test_each_backend_owns_its_measured_crossover(compiled):
    # benchmarks/bench_kernels.py measures both: counting costs about p,
    # the search about p^(1/4) point operations, at very different constants
    assert (pure.NAIVE_LIMIT, compiled.NAIVE_LIMIT) == (500, 600)


def test_pure_crossover_is_the_default_below_10000(monkeypatch):
    assert pure.NAIVE_LIMIT < 10 ** 4
    active = {"compiled": "bpx._eckernel", "python": "bpx._eckernel_py"}
    assert kernel.NAIVE_LIMIT == sys.modules[active[kernel.backend()]].NAIVE_LIMIT
    seen = []

    def spy(a, b, primes, naive_limit):
        seen.append(naive_limit)
        return [0] * len(primes)

    monkeypatch.setattr(kernel, "ec_traces", spy)
    density.ec_traces(density.X0_CURVES[11], [5, 7, 13])
    assert seen == [kernel.NAIVE_LIMIT]
