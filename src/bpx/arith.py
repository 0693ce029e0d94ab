"""Exact arithmetic substrate.

Integers are Python ints, rationals are ``fractions.Fraction`` (always
normalized, positive denominator, structural equality), an element of a
prime field F_l is a plain int in [0, l) (``frac_mod`` reduces a rational
into one).  On top of those live the classical number-theoretic functions
(Kronecker symbol, Bernoulli numbers exact and mod l, divisor sums, Moebius).
"""

from __future__ import annotations

import math
import threading
from fractions import Fraction

from .errors import InputError, ResourceLimitError
from . import kernel

# Sieves above this bound are refused rather than attempted.
SIEVE_LIMIT = 2_000_000_000


# ---------------------------------------------------------------------------
# primality / factorization (trial division; inputs are desk-scale)

def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization of n >= 1 as a list of (prime, exponent) pairs."""
    if n < 1:
        raise InputError(f"factorize expects n >= 1, got {n}")
    out = []
    for p in (2, 3):
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        if e:
            out.append((p, e))
    f = 5
    while f * f <= n:
        e = 0
        while n % f == 0:
            n //= f
            e += 1
        if e:
            out.append((f, e))
        f += 2 if f % 3 == 2 else 4  # 5, 7, 11, 13, ... skip multiples of 3
    if n > 1:
        out.append((n, 1))
    return out


def divisors(n: int) -> list[int]:
    """Sorted list of positive divisors of n >= 1."""
    ds = [1]
    for p, e in factorize(n):
        ds = [d * p**k for d in ds for k in range(e + 1)]
    return sorted(ds)


def moebius(n: int) -> int:
    if n < 1:
        raise InputError(f"moebius expects n >= 1, got {n}")
    mu = 1
    for _, e in factorize(n):
        if e > 1:
            return 0
        mu = -mu
    return mu


def sigma(k: int, n: int) -> int:
    """Divisor power sum: sum of d**k over the divisors d of n."""
    if n < 1:
        raise InputError(f"sigma expects n >= 1, got {n}")
    total = 1
    for p, e in factorize(n):
        if k == 0:
            total *= e + 1
        else:
            total *= (p ** (k * (e + 1)) - 1) // (p**k - 1)
    return total


def sigma_prefix(k: int, n_max: int, modulus: int | None = None) -> list[int]:
    """sigma_k(n) for n = 1..n_max, multiplicatively; index 0 unused.

    One sieve gives the smallest prime factor p of each n = p*r, and then
    sigma_k(n) = (1 + p^k) sigma_k(r), less p^k sigma_k(r/p) when p also
    divides r (sigma_k(p^e) = (1 + p^k) sigma_k(p^(e-1)) - p^k
    sigma_k(p^(e-2))).  With ``modulus`` every value is reduced as it is
    made, keeping the large exponents of Eisenstein series mod l cheap.
    """
    spf = list(range(n_max + 1))
    # descending, so the smallest prime factor writes last
    for q in reversed(kernel.primes_below(math.isqrt(n_max) + 1)):
        spf[q * q::q] = [q] * len(range(q * q, n_max + 1, q))
    acc = [0] * (n_max + 1)
    pk = [0] * (n_max + 1)  # p^k, at each prime p
    if n_max:
        acc[1] = 1
    for n in range(2, n_max + 1):
        p = spf[n]
        if p == n:
            pk[p] = t = pow(p, k, modulus) if modulus else p**k
            v = 1 + t
        else:
            r = n // p
            t = pk[p]
            v = acc[r] * (1 + t)
            if spf[r] == p:
                v -= t * acc[r // p]
        acc[n] = v % modulus if modulus else v
    return acc


def kronecker(a: int, n: int) -> int:
    """Kronecker symbol (a/n), extended to all integers n.

    Conventions: (a/1) = 1, (a/-1) = sign(a) (1 for a >= 0), (a/2) = 0 for
    even a and (-1)**((a^2-1)/8) for odd a, and (a/0) = 1 iff a = +-1.
    Completely multiplicative in both arguments.
    """
    if n == 0:
        return 1 if a in (1, -1) else 0
    k = 1
    if n < 0:
        n = -n
        if a < 0:
            k = -1
    # strip factors of 2 from n
    while n % 2 == 0:
        n //= 2
        if a % 2 == 0:
            return 0
        if a % 8 in (3, 5):
            k = -k
    # now n odd and positive; standard Jacobi loop with reciprocity
    a %= n
    while a != 0:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                k = -k
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            k = -k
        a %= n
    return k if n == 1 else 0


# B_0, B_1, ... so far, from sum_{j<=n} C(n+1,j) B_j = 0, B_0 = 1 (so
# B_1 = -1/2); each request extends the one list only as far as it needs,
# under the lock, since two threads appending B_n at once would shift it
_BERNOULLI: list[Fraction] = [Fraction(1)]
_BERNOULLI_LOCK = threading.Lock()


def bernoulli(m: int) -> Fraction:
    """Exact Bernoulli number B_m for even m >= 2 (odd m > 1 rejected)."""
    if m < 2 or m % 2 != 0:
        raise InputError(f"bernoulli is defined here for even m >= 2, got {m}")
    bs = _BERNOULLI
    with _BERNOULLI_LOCK:
        for n in range(len(bs), m + 1):
            s = sum(math.comb(n + 1, j) * bs[j] for j in range(n))
            bs.append(Fraction(-s, n + 1))
    return bs[m]


def bernoulli_mod(k: int, ell: int) -> int:
    """B_k mod l, as an int in [0, l), for even 2 <= k <= l - 3.

    By Faulhaber, sum_(a<l) a^k = sum_(j<=k) C(k+1, j) B_j l^(k+1-j)/(k+1),
    and by von Staudt-Clausen l divides no denominator of B_1..B_k, so one
    power sum of small ints is l B_k mod l^2; nothing is cached.
    """
    _check_odd_prime(ell)
    if k < 2 or k % 2 or k > ell - 3:
        raise InputError(f"bernoulli_mod needs even 2 <= k <= l - 3, got k={k} at l={ell}")
    square = ell * ell
    return sum(pow(a, k, square) for a in range(1, ell)) % square // ell


def is_fundamental_discriminant(D: int) -> bool:
    """True iff D is a fundamental discriminant (of either sign); D=1 counts."""
    if D == 1:
        return True
    if D == 0 or D % 4 in (2, 3):
        return False
    if D % 4 == 1:
        return _squarefree(abs(D))
    m = D // 4
    return m % 4 in (2, 3) and _squarefree(abs(m))


def _squarefree(n: int) -> bool:
    return all(e == 1 for _, e in factorize(n))


# ---------------------------------------------------------------------------
# prime field

def _check_odd_prime(ell: int) -> None:
    if ell not in _PRIME_OK:
        if ell < 3 or not is_prime(ell):
            raise InputError(f"modulus must be an odd prime, got {ell}")
        _PRIME_OK.add(ell)


_PRIME_OK: set[int] = set()


def frac_mod(x: Fraction | int, ell: int) -> int:
    """Reduce a rational with denominator coprime to l into F_l, as an int in [0, l)."""
    _check_odd_prime(ell)
    if isinstance(x, int):
        return x % ell
    if x.denominator % ell == 0:
        raise InputError(f"denominator of {x} is divisible by {ell}")
    return x.numerator * pow(x.denominator, -1, ell) % ell


def binary_power(x, e: int, one):
    """x^e for an int e >= 0 by square-and-multiply, with x^0 = one.

    The product starts from x itself, and x is squared only while bits of e
    remain, so a truncated series loses no order to a needless factor.
    """
    if e < 0:
        raise InputError(f"exponent must be >= 0, got {e}")
    if e == 0:
        return one
    out = None
    while True:
        if e & 1:
            out = x if out is None else out * x
        e >>= 1
        if not e:
            return out
        x = x * x


# ---------------------------------------------------------------------------
# records and primes

class Record:
    """A frozen record on ``__slots__``, built from its fields in slot order,
    compared and hashed by ``_key()``."""

    __slots__ = ()

    def __init__(self, *values):
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    def __reduce__(self):  # for copy and pickle, which cannot set frozen slots
        return type(self), tuple(getattr(self, name) for name in self.__slots__)

    def _key(self) -> tuple:
        return self.__reduce__()[1]

    def __eq__(self, other):
        return type(other) is type(self) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return type(self).__name__ + repr(self.__reduce__()[1])

    def _frozen(self, name, *value):
        raise AttributeError(f"{type(self).__name__}.{name} is read-only")

    __setattr__ = __delattr__ = _frozen


class PrimeStream(Record):
    """All primes below a bound, ascending."""

    __slots__ = ("bound", "primes")  # int, tuple[int, ...]

    def __len__(self) -> int:
        return len(self.primes)

    def __iter__(self):
        return iter(self.primes)


def sieve(x: int) -> PrimeStream:
    """PrimeStream of all primes p < x."""
    if x < 2:
        return PrimeStream(x, ())
    if x > SIEVE_LIMIT:
        raise ResourceLimitError(
            f"sieve bound {x} exceeds the configured limit {SIEVE_LIMIT}")
    return PrimeStream(x, tuple(kernel.primes_below(x)))
