"""Backend parity: the compiled kernel and the pure-Python fallback must
agree bit for bit on every exposed operation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bpx._eckernel_py as pure
from bpx import density, kernel
from oracles import supersingular_js_by_point_count

try:
    import bpx._eckernel as compiled
except ImportError:
    compiled = None

needs_compiled = pytest.mark.skipif(compiled is None,
                                    reason="compiled kernel not built")

A11, B11 = -27 * 496, -54 * 20008  # short form of the level 11 curve


def test_active_backend_reported():
    assert kernel.backend() in ("compiled", "python")


def test_pure_primes_below():
    assert pure.primes_below(10) == [2, 3, 5, 7]
    assert pure.primes_below(2) == []
    assert len(pure.primes_below(10 ** 4)) == 1229


@needs_compiled
def test_primes_below_parity():
    for limit in (2, 3, 10, 97, 10 ** 4, 123456):
        assert compiled.primes_below(limit) == pure.primes_below(limit)


def test_pure_trace_small():
    assert pure.ec_trace(A11, B11, 5) == 1
    assert pure.ec_trace(A11, B11, 7) == -2


@needs_compiled
def test_trace_parity_naive_and_bsgs():
    primes = [p for p in pure.primes_below(2000) if p >= 5 and p != 11][:80]
    big = [p for p in pure.primes_below(120000) if p > 100000][:40]
    for p in primes + big:
        want = pure.ec_trace(A11, B11, p)
        assert compiled.ec_trace(A11, B11, p) == want
        # force both strategies on the compiled side
        assert compiled.ec_trace(A11, B11, p, naive_limit=2) == want
        assert compiled.ec_trace(A11, B11, p, naive_limit=10 ** 9) == want


def test_pure_bsgs_vs_naive():
    for p in [10007, 10009, 10037, 20011, 30011]:
        assert pure.ec_trace(A11, B11, p, naive_limit=2) == \
            pure.ec_trace(A11, B11, p, naive_limit=10 ** 9)


def test_singular_curve_rejected():
    with pytest.raises(ValueError):
        pure.ec_trace(0, 0, 7)
    if compiled is not None:
        with pytest.raises(ValueError):
            compiled.ec_trace(0, 0, 7)


@needs_compiled
def test_compiled_prime_size_limit():
    with pytest.raises(OverflowError):
        compiled.ec_trace(1, 1, 2 ** 31 + 11)


@needs_compiled
def test_ec_traces_block_parity():
    primes = [p for p in pure.primes_below(50000) if p >= 5 and p != 11][:300]
    assert compiled.ec_traces(A11, B11, primes) == pure.ec_traces(A11, B11, primes)


@needs_compiled
def test_supersingular_scan_parity():
    from bpx.ssforms import _nonresidue
    for ell in (5, 7, 11, 13, 37, 47):
        ns = _nonresidue(ell)
        assert compiled.supersingular_js_fq2(ell, ns) == \
            pure.supersingular_js_fq2(ell, ns)


@pytest.mark.parametrize("ell", [5, 7, 11, 13, 37])
def test_supersingular_scan_matches_a_literal_point_count(ell):
    # l = 5 and 11 have j = 0 supersingular, l = 7 and 11 j = 1728, and
    # l = 37 a conjugate pair outside F_l
    from bpx.ssforms import _nonresidue
    ns = _nonresidue(ell)
    assert pure.supersingular_js_fq2(ell, ns) == \
        supersingular_js_by_point_count(ell, ns)


def test_hasse_bound_pure_band():
    for p in [10007, 50021, 100003]:
        t = pure.ec_trace(A11, B11, p)
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
    assert pure.ec_trace(a, b, p) == pure.ec_trace(a, b, p, naive_limit=10 ** 9)


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
    # the first point drawn on y^2 = x^3 + 1 over F_659 has order 60, a
    # multiple of the giant stride m = 10: the giant steps reach O at 60P
    # and the search moves on; the next point has order 660 = #E
    want = pure._trace_naive(0, 1, 659)
    log = _record_bsgs(monkeypatch)
    assert pure._trace_bsgs(0, 1, 659) == want
    assert log[0] is None and len(log[1]) == 1 and "naive" not in log


def test_pure_crossover_is_the_default_below_10000(monkeypatch):
    assert pure.NAIVE_LIMIT < 10 ** 4
    assert kernel.NAIVE_LIMITS == {"compiled": 10 ** 4, "python": pure.NAIVE_LIMIT}
    assert kernel.NAIVE_LIMIT == kernel.NAIVE_LIMITS[kernel.backend()]
    seen = []

    def spy(a, b, primes, naive_limit):
        seen.append(naive_limit)
        return [0] * len(primes)

    monkeypatch.setattr(kernel, "ec_traces", spy)
    density.ec_traces(density.X0_CURVES[11], [5, 7, 13])
    assert seen == [kernel.NAIVE_LIMIT]
