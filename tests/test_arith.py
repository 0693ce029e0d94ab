import math
import sys
import threading
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bpx import arith
from bpx.arith import (PrimeStream, bernoulli, divisors, factorize,
                       frac_mod, is_fundamental_discriminant, kronecker,
                       moebius, sieve, sigma)
from bpx.errors import InputError, ResourceLimitError
from oracles import dirichlet_convolve, dirichlet_inverse


def test_kronecker_minus4_mod_11():
    squares = {x * x % 11 for x in range(1, 11)}
    assert squares == {1, 3, 4, 5, 9}
    assert -4 % 11 not in squares
    assert kronecker(-4, 11) == -1


def test_kronecker_5_mod_7():
    squares = {x * x % 7 for x in range(1, 7)}
    assert squares == {1, 2, 4}
    assert kronecker(5, 7) == -1


@given(st.integers(-10**6, 10**6))
def test_kronecker_n_equals_1(a):
    assert kronecker(a, 1) == 1


def test_kronecker_conventions():
    assert kronecker(1, 0) == 1
    assert kronecker(-1, 0) == 1
    assert kronecker(5, 0) == 0
    assert kronecker(3, 2) == -1   # 3 = 3 mod 8
    assert kronecker(7, 2) == 1    # 7 = -1 mod 8
    assert kronecker(4, 2) == 0
    assert kronecker(-3, -5) == kronecker(-3, 5) * kronecker(-3, -1)


@given(st.integers(-500, 500), st.integers(-500, 500),
       st.integers(1, 200).map(lambda k: 2 * k + 1))
@settings(max_examples=150, deadline=None)
def test_kronecker_multiplicative_in_a(a1, a2, n):
    assert kronecker(a1 * a2, n) == kronecker(a1, n) * kronecker(a2, n)


def test_kronecker_agrees_with_euler_criterion():
    for p in (3, 5, 7, 11, 13, 31):
        for a in range(1, p):
            euler = pow(a, (p - 1) // 2, p)
            assert kronecker(a, p) == (1 if euler == 1 else -1)


def test_bernoulli_values():
    assert bernoulli(2) == Fraction(1, 6)
    assert bernoulli(4) == Fraction(-1, 30)
    assert bernoulli(12) == Fraction(-691, 2730)


def test_bernoulli_recurrence_holds():
    # sum_{j=0}^{m} C(m+1, j) B_j = 0 for even m <= 60 (B_1 = -1/2)
    bs = [Fraction(1), Fraction(-1, 2)]
    for m in range(2, 61):
        if m % 2:
            bs.append(Fraction(0))
        else:
            bs.append(bernoulli(m))
    for m in range(2, 61, 2):
        assert sum(math.comb(m + 1, j) * bs[j] for j in range(m + 1)) == 0


def _fresh_bernoulli(m):
    bs = [Fraction(1)]
    for n in range(1, m + 1):
        bs.append(-sum(math.comb(n + 1, j) * bs[j] for j in range(n)) / (n + 1))
    return bs


def test_bernoulli_is_the_same_in_any_request_order():
    fresh = _fresh_bernoulli(60)
    evens = list(range(2, 61, 2))
    mixed = [30, 4, 60, 2, 44, 12, 58, 18] + evens
    for order in (evens, evens[::-1], mixed):
        del arith._BERNOULLI[1:]
        assert [bernoulli(m) for m in order] == [fresh[m] for m in order]
    del arith._BERNOULLI[1:]
    bernoulli(10)
    assert len(arith._BERNOULLI) == 11  # extended only as far as asked


def test_bernoulli_cache_survives_threads():
    # four threads extending the one cached list at once must not append
    # any B_n twice
    fresh = _fresh_bernoulli(120)
    orders = [list(range(2, 121, 2)), list(range(120, 1, -2)),
              list(range(60, 121, 2)), list(range(2, 61, 2))]
    results = [None] * len(orders)

    def work(i):
        results[i] = [bernoulli(m) for m in orders[i]]

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            del arith._BERNOULLI[1:]
            threads = [threading.Thread(target=work, args=(i,))
                       for i in range(len(orders))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
                assert not t.is_alive()
            for order, got in zip(orders, results):
                assert got == [fresh[m] for m in order]
    finally:
        sys.setswitchinterval(old)


def test_bernoulli_rejects_odd_and_small():
    for bad in (3, 5, 1, 0, -2):
        with pytest.raises(InputError):
            bernoulli(bad)


def test_sigma():
    assert sigma(1, 6) == 12
    assert sigma(1, 1) == 1
    assert sigma(11, 2) == 2049
    assert sigma(0, 12) == 6


def test_sigma_matches_bruteforce():
    for n in range(1, 200):
        for k in (0, 1, 3):
            assert sigma(k, n) == sum(d**k for d in range(1, n + 1) if n % d == 0)


@pytest.mark.parametrize("modulus", [None, 31, 1009])
def test_sigma_prefix_matches_a_literal_divisor_sum(modulus):
    # the multiplicative recurrence over smallest prime factors against
    # the sum of d^k over the divisors, to n = 2000
    n = 2000
    divs = [[] for _ in range(n + 1)]
    for d in range(1, n + 1):
        for m in range(d, n + 1, d):
            divs[m].append(d)
    for k in (1, 3, 5, 29):
        want = [0] + [sum(d**k for d in divs[m]) for m in range(1, n + 1)]
        if modulus:
            want = [v % modulus for v in want]
        assert arith.sigma_prefix(k, n, modulus) == want
    assert arith.sigma_prefix(3, 0) == [0]
    assert arith.sigma_prefix(3, 1, modulus) == [0, 1]


def test_moebius():
    assert moebius(1) == 1
    assert moebius(6) == 1
    assert moebius(12) == 0
    assert moebius(30) == -1


def test_factorize_divisors():
    assert factorize(360) == [(2, 3), (3, 2), (5, 1)]
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert divisors(1) == [1]


def test_fundamental_discriminants():
    fund = [x for x in range(-30, 0) if is_fundamental_discriminant(x)]
    assert fund == [-24, -23, -20, -19, -15, -11, -8, -7, -4, -3]
    assert is_fundamental_discriminant(1)
    assert is_fundamental_discriminant(5)
    assert is_fundamental_discriminant(8)
    assert not is_fundamental_discriminant(9)
    assert not is_fundamental_discriminant(-9)


# ---------------------------------------------------------------------------
# F_l elements


def test_frac_mod():
    assert frac_mod(Fraction(1, 2), 11) == 6
    assert frac_mod(Fraction(-24, 1), 11) == 9
    assert frac_mod(-24, 11) == 9
    with pytest.raises(InputError):
        frac_mod(Fraction(1, 11), 11)


# ---------------------------------------------------------------------------
# Dirichlet convolution


def test_dirichlet_inverse_of_sigma():
    f = [sigma(1, n) for n in range(1, 101)]
    nu = dirichlet_inverse(f)
    conv = dirichlet_convolve(f, nu)
    assert conv[0] == 1
    assert all(v == 0 for v in conv[1:])


def test_dirichlet_inverse_of_ones_is_moebius():
    ones = [1] * 60
    assert dirichlet_inverse(ones) == [moebius(n) for n in range(1, 61)]


def test_dirichlet_inverse_gauss_sum_sequence():
    # the Gauss sums are (5/r) sqrt(5); sqrt(5) factors out, and the inverse
    # of the character (5/r) is the closed form mu(m) (5/m), in ints
    nu = dirichlet_inverse([kronecker(5, r) for r in range(1, 31)])
    assert nu == [moebius(m) * kronecker(5, m) for m in range(1, 31)]
    assert all(type(v) is int for v in nu)


@given(st.lists(st.integers(-30, 30), min_size=1, max_size=40),
       st.sampled_from([1, -1]))
@settings(max_examples=60, deadline=None)
def test_dirichlet_inverse_roundtrip_random(tail, lead):
    f = [Fraction(lead)] + [Fraction(v) for v in tail[1:]]
    nu = dirichlet_inverse(f)
    conv = dirichlet_convolve(f, nu)
    assert conv[0] == 1 and all(v == 0 for v in conv[1:])


def test_dirichlet_inverse_requires_unit():
    with pytest.raises(InputError):
        dirichlet_inverse([0, 1, 2])
    with pytest.raises(InputError):
        dirichlet_inverse([2, 1])  # 2 is not a unit in ZZ


# ---------------------------------------------------------------------------
# sieve


def test_sieve_small():
    assert sieve(10).primes == (2, 3, 5, 7)
    assert sieve(2).primes == ()
    assert isinstance(sieve(10), PrimeStream)


def test_prime_counts():
    assert len(sieve(10**4)) == 1229
    assert len(sieve(10**6)) == 78498


def test_sieve_resource_limit():
    with pytest.raises(ResourceLimitError):
        sieve(arith.SIEVE_LIMIT + 1)
