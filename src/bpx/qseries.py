"""Truncated Laurent q-series and dense polynomials over a declared ring.

Rings are ZZ, QQ and GF(l); coefficients are plain ints, Fractions, and
plain ints in [0, l) respectively, and all series arithmetic is exact.
Each ring owns the arithmetic of its elements: ``coerce`` brings a scalar
in, ``inverse`` inverts a unit, and ``normalize`` puts a coefficient list
in canonical form (the identity over ZZ and QQ, ``% l`` over GF(l)).
Series and polynomials normalize when they are built, so their arithmetic
is written once for every ring.  Truncation orders are explicit
everywhere: a series knows its leading exponent and the last exponent it
is valid to, and every operation propagates validity conservatively (no
global precision state).  One Kronecker product on int lists (Harvey,
J. Symbolic Comput. 2009), over ZZ or F_l, multiplies series over GF(l),
over ZZ unless one operand is zero or over four times as wide as the
other, and the level-one forms for every ring.  ``_square_at`` squares
one signed int list by the same substitution in base 10^k on the stdlib
``decimal``, whose libmpdec multiplies long operands by a
number-theoretic transform, and reads only the coefficients asked for.

Classical expansions live here too: Eisenstein series; one table of the
level-one forms Delta^a E4^b E6^c over ZZ, QQ and GF(l >= 5), with
Delta = (E4^3 - E6^2)/1728, from which the discriminant cusp form and
j = E4^3/Delta are read for every ring; weight-k monomial bases; and
Euler's pentagonal series.
"""

from __future__ import annotations

import operator
import sys
from array import array
from decimal import (MAX_EMAX, MAX_PREC, MIN_EMIN, ROUND_FLOOR, Context,
                     Decimal, localcontext)
from fractions import Fraction
from functools import lru_cache

from .arith import (_check_odd_prime, bernoulli, bernoulli_mod, binary_power,
                    frac_mod, sigma_prefix)
from .errors import InputError, TruncationError

# ---------------------------------------------------------------------------
# coefficient rings


class IntegerRing:
    name = "ZZ"
    zero = 0
    one = 1

    def coerce(self, x):
        if isinstance(x, int):
            return x
        if isinstance(x, Fraction):
            if x.denominator != 1:
                raise InputError(f"{x} is not an integer")
            return x.numerator
        raise InputError(f"cannot coerce {x!r} into ZZ")

    def inverse(self, x):
        if x in (1, -1):
            return x
        raise InputError(f"{x} is not a unit in ZZ")

    def normalize(self, coeffs: list) -> list:
        return coeffs

    def __repr__(self):
        return self.name


class RationalRing:
    name = "QQ"
    zero = Fraction(0)
    one = Fraction(1)

    def coerce(self, x):
        if isinstance(x, (int, Fraction)):
            return Fraction(x)
        raise InputError(f"cannot coerce {x!r} into QQ")

    def inverse(self, x):
        return self.one / x

    def normalize(self, coeffs: list) -> list:
        return coeffs

    def __repr__(self):
        return self.name


class PrimeField:
    """F_l, whose elements are plain ints in [0, l)."""

    zero = 0
    one = 1

    def __init__(self, ell: int):
        _check_odd_prime(ell)
        self.ell = ell
        self.name = f"GF({ell})"

    def coerce(self, x):
        if isinstance(x, (int, Fraction)):
            return frac_mod(x, self.ell)
        raise InputError(f"cannot coerce {x!r} into {self.name}")

    def inverse(self, x):
        if not x % self.ell:
            raise ZeroDivisionError(f"0 is not invertible mod {self.ell}")
        return pow(x, -1, self.ell)

    def normalize(self, coeffs: list) -> list:
        ell = self.ell
        return [c % ell for c in coeffs]

    def __repr__(self):
        return self.name


ZZ = IntegerRing()
QQ = RationalRing()


@lru_cache(maxsize=None)
def GF(ell: int) -> PrimeField:
    return PrimeField(ell)


# array typecode of each machine word width in bytes, for packing slots
_WORD_CODES = {array(c).itemsize: c for c in "BHILQ"}


def _word_width(nb: int) -> int | None:
    """The narrowest array word of at least nb bytes, or None past 8 bytes."""
    return next((w for w in sorted(_WORD_CODES) if w >= nb), None)


def _kron_pack(a: list[int], nb: int) -> int:
    """sum a_i 2^(8 nb i) for 0 <= a_i < 2^(8 nb)."""
    w = _word_width(nb)
    if w is None:
        return int.from_bytes(b"".join(v.to_bytes(nb, "little") for v in a), "little")
    words = array(_WORD_CODES[w], a)
    if sys.byteorder == "big":
        words.byteswap()
    raw = words.tobytes()
    if w == nb:
        return int.from_bytes(raw, "little")
    buf = bytearray(nb * len(a))
    for k in range(nb):  # keep the low nb bytes of each word
        buf[k::nb] = raw[k::w]
    return int.from_bytes(buf, "little")


def _kron_unpack(x: int, nb: int, count: int) -> list[int]:
    """The low count slots of nb bytes of x >= 0, as nonnegative ints."""
    buf = x.to_bytes(max(nb * count, (x.bit_length() + 7) // 8), "little")
    w = _word_width(nb)
    if w is None:
        return [int.from_bytes(buf[i:i + nb], "little")
                for i in range(0, nb * count, nb)]
    raw = bytearray(w * count)
    for k in range(nb):
        raw[k::w] = buf[k:nb * count:nb]
    words = array(_WORD_CODES[w], raw)
    if sys.byteorder == "big":
        words.byteswap()
    return words.tolist()


def _kron_mul(a: list[int], b: list[int], n_out: int, ell: int | None = None) -> list[int]:
    """The first n_out coefficients of a b by Kronecker substitution.

    Over F_l (``ell`` given) the values are ints in [0, l), and each slot
    is reduced mod l.  Over ZZ every slot of w bits carries the offset
    h = 2^(w-1): a list packs as its values plus h, less the all-h integer
    H(len), and since every output coefficient has |c_k| < h, the low slots
    of the product plus H are c_k + h in [0, 2^w), with no carries.  Slots
    are packed and unpacked through machine-word arrays, so the big
    product is the only per-call cost that grows faster than the length.
    """
    square = a is b
    a, b = a[:n_out], b[:n_out]
    za, zb = (next((i for i, v in enumerate(f) if v), n_out) for f in (a, b))
    if za + zb >= n_out:
        return [0] * n_out
    if za + zb:  # a power of Delta starts at q^a: pack it from there
        a = a[za:]
        return [0] * (za + zb) + _kron_mul(a, a if square else b[zb:],
                                           n_out - za - zb, ell)
    m = min(len(a), len(b))
    total = min(n_out, len(a) + len(b) - 1)
    if ell:
        nb = (((ell - 1) ** 2 * m + 1).bit_length() + 7) // 8
        A = _kron_pack(a, nb)
        x = A * (A if square else _kron_pack(b, nb))
        out = [v % ell for v in _kron_unpack(x, nb, total)]
    else:
        top = max(map(abs, a)) * max(map(abs, b))
        nb = ((2 * top * m + 1).bit_length() + 7) // 8
        h = 1 << (8 * nb - 1)
        slot = h.to_bytes(nb, "little")

        def pack(f):
            return (_kron_pack([v + h for v in f], nb)
                    - int.from_bytes(slot * len(f), "little"))

        A = pack(a)
        x = A * (A if square else pack(b)) + int.from_bytes(slot * total, "little")
        x &= (1 << (8 * nb * total)) - 1  # the slots past total may be negative
        out = [v - h for v in _kron_unpack(x, nb, total)]
    out.extend([0] * (n_out - total))
    return out


# Integer arithmetic on Decimals in this context never rounds.
_EXACT = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN)


def transform_decimal() -> bool:
    """Is ``decimal`` libmpdec (C), whose long products use a number-theoretic
    transform, and not the pure-Python ``_pydecimal``, which has none?"""
    return Decimal is getattr(sys.modules.get("_decimal"), "Decimal", None)


def _all_h(h: int, k: int, count: int) -> Decimal:
    """sum_(i < count) h 10^(k i), by doubling; in the _EXACT context."""
    out, run, width, pos = Decimal(0), Decimal(h), 1, 0
    while count:
        if count & 1:
            out += run.scaleb(pos * k)
            pos += width
        count >>= 1
        if count:
            run += run.scaleb(width * k)
            width *= 2
    return out


def _square_at(f, positions: list[int]) -> list[int]:
    """The coefficients of f^2 at ascending positions < len(f), f signed ints.

    Kronecker substitution in base B = 10^k on ``decimal``, whose products
    use a number-theoretic transform.  The slots carry the offset h = B/2,
    as ``_kron_mul``'s do over ZZ.  By Cauchy-Schwarz every coefficient of
    f^2 has |c| <= S = sum f_i^2, and 10^k > 2 S makes h > S.  Only the
    slots below top, the last position plus one, are read, so f is cut
    there, packed once and squared whole, one product that libmpdec runs
    as an autoconvolution.  Adding the all-h value of the low top slots
    makes each of them c + h in [0, B); one floor split at B^top then
    leaves them as the fraction, formatted once, and the higher slots,
    which no position reads and whose values S also bounds, as the floor.
    """
    if not positions:
        return []
    top = positions[-1] + 1
    f = f[:top]
    s = sum(map(operator.mul, f, f))
    if not s:
        return [0] * len(positions)
    k = len(str(2 * s))  # 10^k > 2 S
    h = 10 ** k // 2
    with localcontext(_EXACT):
        # the slot string of v + h for each value v of f, most significant first
        table = {v: f"{v + h:0{k}d}" for v in set(f)}
        all_h = _all_h(h, k, top)
        a = Decimal("".join(map(table.__getitem__, reversed(f)))) - all_h
        x = (a * a + all_h).scaleb(-top * k)
        del a
        x -= x.to_integral_value(rounding=ROUND_FLOOR)
        digits = format(x, "f")
    end = len(digits)  # slot t is the t-th group of k digits from the right
    return [int(digits[end - (t + 1) * k:end - t * k]) - h for t in positions]


def _kron_pays(a: list[int], b: list[int], n_out: int) -> bool:
    """Multiply a and b over ZZ to n_out terms by Kronecker substitution?

    Yes when both are nonzero and neither's widest coefficient has more
    than 4 times the bits of the other's: Kronecker pads every slot to the
    widest output coefficient, so a narrow operand packed at a wide one's
    width is mostly zero bits.  On the exponent route's t E4^3 at d = 80
    to 2351, Kronecker took 0.4-0.7 of the schoolbook time at width ratios
    1.9-3.9; they tied from 4.5 to 8, and the schoolbook loop won from 9.
    """
    wa, wb = (max(map(abs, f[:n_out])).bit_length() for f in (a, b))
    return 0 < min(wa, wb) and max(wa, wb) <= 4 * min(wa, wb)


def _schoolbook(a: list, b: list, n_out: int, zero) -> list:
    """The first n_out coefficients of the product of a and b, over any ring.

    The outer loop runs over the sparser operand and skips its zeros.
    """
    if sum(1 for c in a if c) > sum(1 for c in b if c):
        a, b = b, a
    out = [zero] * n_out
    nb = len(b)
    for i, ca in enumerate(a):
        if not ca:
            continue
        for k in range(min(nb, n_out - i)):
            cb = b[k]
            if cb:
                out[i + k] = out[i + k] + ca * cb
    return out


def _inverse_gf(u: list[int], ell: int) -> list[int]:
    """len(u) coefficients of 1/u over F_l by Newton iteration g <- g + g (1 - u g).

    Values are ints in [0, l) and u[0] is nonzero.  Each step doubles the
    number of correct terms with two Kronecker products.
    """
    g = [pow(u[0], -1, ell)]
    n, k = len(u), 1
    while k < n:
        k2 = min(2 * k, n)
        err = _kron_mul(u[:k2], g, k2, ell)[k:]  # u g = 1 + q^k err + O(q^k2)
        g += [-c % ell for c in _kron_mul(g, err, k2 - k, ell)]
        k = k2
    return g


def _reduction_ring(ring, ell: int) -> PrimeField:
    """GF(l), for reducing elements of ZZ, QQ or GF(l) itself mod l."""
    if isinstance(ring, PrimeField) and ring.ell != ell:
        raise InputError(f"mixed moduli: {ring.name} elements have no reduction mod {ell}")
    return GF(ell)


def _solve_triangular(s: list, rhs: list, ring, modulus: int | None = None) -> list:
    """x with s x = rhs to len(rhs) terms, for power series s with unit s[0].

    x_k = (rhs_k - sum_{i=1..k} s_i x_{k-i}) / s_0: one inner product per
    term.  Trailing zeros of s are dropped first, so a polynomial s costs
    only its degree per term.  Over ZZ with a modulus M, each x_k is
    reduced mod M as it is found, which gives x mod M, since the solve
    is ring operations only; the x_k then stay below M however large the
    exact ones grow.  s is used as given: its small signed entries would
    take M's width if reduced.
    """
    s0i = ring.inverse(s[0])
    top = max(i for i, c in enumerate(s) if c)
    tail = s[1:top + 1]
    x = []
    for r in rhs:
        v = (r - sum(map(operator.mul, tail, reversed(x)), ring.zero)) * s0i
        x.append(v % modulus if modulus else v)
    return x


# ---------------------------------------------------------------------------
# q-series


class QSeries:
    """Laurent series sum c_e q^e, dense from exponent ``lead`` to ``trunc``.

    The coefficients are put in the ring's canonical form on construction.
    """

    __slots__ = ("ring", "lead", "coeffs")

    def __init__(self, ring, lead: int, coeffs: list):
        self.ring = ring
        self.lead = lead
        self.coeffs = ring.normalize(coeffs)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, ring, trunc: int) -> "QSeries":
        return cls(ring, 0, [ring.zero] * (trunc + 1))

    @classmethod
    def one(cls, ring, trunc: int) -> "QSeries":
        return cls(ring, 0, [ring.one] + [ring.zero] * trunc)

    @classmethod
    def constant(cls, ring, c, trunc: int) -> "QSeries":
        return cls(ring, 0, [ring.coerce(c)] + [ring.zero] * trunc)

    # -- structure ---------------------------------------------------------

    @property
    def trunc(self) -> int:
        return self.lead + len(self.coeffs) - 1

    def coeff(self, e: int):
        """Coefficient of q^e; exact zero below lead, error above trunc."""
        if e > self.trunc:
            raise TruncationError(
                f"coefficient q^{e} beyond truncation order {self.trunc}")
        if e < self.lead:
            return self.ring.zero
        return self.coeffs[e - self.lead]

    def valuation(self):
        """Smallest exponent with a nonzero coefficient, or None if zero."""
        for i, c in enumerate(self.coeffs):
            if c:
                return self.lead + i
        return None

    def is_zero(self) -> bool:
        return self.valuation() is None

    def truncate(self, n: int) -> "QSeries":
        """The series valid to q^n; below its lead, the empty series to q^n."""
        if n > self.trunc:
            raise TruncationError(f"cannot extend truncation {self.trunc} to {n}")
        if n < self.lead:
            return QSeries(self.ring, n + 1, [])
        return QSeries(self.ring, self.lead, self.coeffs[: n - self.lead + 1])

    def shift(self, k: int) -> "QSeries":
        """Multiply by q^k."""
        return QSeries(self.ring, self.lead + k, list(self.coeffs))

    # -- arithmetic --------------------------------------------------------

    def _check_ring(self, other):
        """Both operands are series over one ring; scalars go through ``scale``."""
        if not isinstance(other, QSeries):
            raise TypeError(f"series operand expected, got {type(other).__name__}")
        if self.ring is not other.ring and self.ring.name != other.ring.name:
            raise InputError(f"mixed rings {self.ring.name} / {other.ring.name}")

    def _padded(self, lead: int, n: int) -> list:
        """The n coefficients of q^lead.. for lead <= self.lead, n <= trunc - lead + 1."""
        k = self.lead - lead
        return [self.ring.zero] * min(k, n) + self.coeffs[:max(n - k, 0)]

    def __add__(self, other):
        self._check_ring(other)
        lead = min(self.lead, other.lead)
        n = min(self.trunc, other.trunc) - lead + 1
        return QSeries(self.ring, lead, [a + b for a, b in zip(self._padded(lead, n),
                                                               other._padded(lead, n))])

    def __neg__(self):
        return QSeries(self.ring, self.lead, [-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c) -> "QSeries":
        c = self.ring.coerce(c)
        return QSeries(self.ring, self.lead, [c * v for v in self.coeffs])

    def __mul__(self, other):
        self._check_ring(other)
        lead = self.lead + other.lead
        trunc = min(self.trunc + other.lead, other.trunc + self.lead)
        n_out = trunc - lead + 1
        if n_out <= 0:  # no coefficient is known: an empty series up to trunc
            return QSeries(self.ring, trunc + 1, [])
        a, b, ring = self.coeffs, other.coeffs, self.ring
        if isinstance(ring, PrimeField):
            return QSeries(ring, lead, _kron_mul(a, b, n_out, ring.ell))
        if isinstance(ring, IntegerRing) and _kron_pays(a, b, n_out):
            return QSeries(ring, lead, _kron_mul(a, b, n_out))
        return QSeries(ring, lead, _schoolbook(a, b, n_out, ring.zero))

    def __pow__(self, e: int):
        return binary_power(self, e, QSeries.one(self.ring, max(self.trunc, 0)))

    def inverse(self) -> "QSeries":
        """Multiplicative inverse of a series with invertible leading coefficient."""
        return QSeries.one(self.ring, len(self.coeffs) - 1) / self

    def __truediv__(self, other):
        """f / g for g with invertible leading coefficient, the one series quotient.

        For g = q^v (u_0 + u_1 q + ...) the quotient has lead f.lead - v and
        min(len(f), len(u)) terms.  Over F_l it is f times the Newton
        inverse of u.  Over any other ring it solves u x = f term by term,
        with no inverse series and no product.
        """
        self._check_ring(other)
        v = other.valuation()
        if v is None:
            raise ZeroDivisionError("division by the zero series")
        u = other.coeffs[v - other.lead:]
        ring = self.ring
        if isinstance(ring, PrimeField):
            return self * QSeries(ring, -v, _inverse_gf(u, ring.ell))
        n = min(len(self.coeffs), len(u))
        return QSeries(ring, self.lead - v, _solve_triangular(u, self.coeffs[:n], ring))

    def q_derivative(self) -> "QSeries":
        """q d/dq: sends c q^e to e c q^e."""
        return QSeries(self.ring, self.lead,
                       [(self.lead + i) * c for i, c in enumerate(self.coeffs)])

    def log_derivative(self) -> "QSeries":
        """q f'/f for f with invertible leading coefficient, from q^0.

        The quotient of q f' by f, both from f's valuation v: over ZZ and QQ
        the terms are L_k = ((v + k) s_k - sum_{i=1..k} s_i L_{k-i}) / s_0
        for f = q^v (s_0 + s_1 q + ...).
        """
        v = self.valuation()
        if v is None:
            raise ZeroDivisionError("zero series has no log derivative")
        f = QSeries(self.ring, v, self.coeffs[v - self.lead:])
        return f.q_derivative() / f

    def reduce_mod(self, ell: int) -> "QSeries":
        ring = _reduction_ring(self.ring, ell)
        return QSeries(ring, self.lead, [ring.coerce(c) for c in self.coeffs])

    # -- comparison / rendering --------------------------------------------

    def __eq__(self, other):
        """Equality of coefficients up to the smaller truncation order."""
        if not isinstance(other, QSeries):
            return NotImplemented
        if self.ring.name != other.ring.name:
            return False
        lead = min(self.lead, other.lead)
        n = min(self.trunc, other.trunc) - lead + 1
        return self._padded(lead, n) == other._padded(lead, n)

    def __str__(self):
        terms = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            e = self.lead + i
            cs = str(c)
            if e == 0:
                terms.append(cs)
            elif e == 1:
                terms.append(f"{cs}*q")
            else:
                terms.append(f"{cs}*q^{e}")
        return " + ".join(terms) if terms else "0"

    def __repr__(self):
        return f"QSeries({self.ring.name}, O(q^{self.trunc + 1}): {self})"


# ---------------------------------------------------------------------------
# dense polynomials


class Poly:
    """Dense polynomial over a ring; coefficients ascending from x^0.

    The coefficients are put in the ring's canonical form on construction.
    """

    __slots__ = ("ring", "coeffs")

    def __init__(self, ring, coeffs: list):
        coeffs = ring.normalize(coeffs)
        end = len(coeffs)  # past the last nonzero coefficient, or 1
        while end > 1 and not coeffs[end - 1]:
            end -= 1
        self.ring = ring
        self.coeffs = coeffs[:end] or [ring.zero]

    @classmethod
    def from_ints(cls, ring, ints) -> "Poly":
        return cls(ring, [ring.coerce(c) for c in ints])

    @classmethod
    def x_minus(cls, ring, r) -> "Poly":
        return cls(ring, [-ring.coerce(r), ring.one])

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return len(self.coeffs) == 1 and not self.coeffs[0]

    @property
    def leading(self):
        return self.coeffs[-1]

    def __add__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        n = max(len(self.coeffs), len(other.coeffs))
        a = self.coeffs + [self.ring.zero] * (n - len(self.coeffs))
        b = other.coeffs + [self.ring.zero] * (n - len(other.coeffs))
        return Poly(self.ring, [x + y for x, y in zip(a, b)])

    def __neg__(self):
        return Poly(self.ring, [-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return Poly(self.ring, _schoolbook(self.coeffs, other.coeffs,
                                           len(self.coeffs) + len(other.coeffs) - 1,
                                           self.ring.zero))

    def __pow__(self, e: int):
        return binary_power(self, e, Poly(self.ring, [self.ring.one]))

    @staticmethod
    def _check_poly(other):
        if not isinstance(other, Poly):
            raise TypeError(f"polynomial operand expected, got {type(other).__name__}")

    def divmod(self, other: "Poly") -> tuple["Poly", "Poly"]:
        """Division with remainder; divisor leading coefficient must be a unit."""
        self._check_poly(other)
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        ring = self.ring
        inv = ring.inverse(other.leading)
        rem = list(self.coeffs)
        dq = len(rem) - len(other.coeffs)
        if dq < 0:
            return Poly(ring, [ring.zero]), Poly(ring, rem)
        quo = [ring.zero] * (dq + 1)
        top = other.degree
        for i in range(dq, -1, -1):
            c = rem[i + top] * inv
            quo[i] = c
            if c:  # normalized at each step, so entries over GF(l) stay small
                rem[i:i + top + 1] = ring.normalize(
                    [r - c * b for r, b in zip(rem[i:i + top + 1], other.coeffs)])
        return Poly(ring, quo), Poly(ring, rem[: max(top, 1)])

    def __mod__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self.divmod(other)[1]

    def divides(self, other: "Poly") -> bool:
        """True iff self divides other exactly."""
        self._check_poly(other)
        if self.is_zero():
            return other.is_zero()
        return other.divmod(self)[1].is_zero()

    def gcd(self, other: "Poly") -> "Poly":
        """Monic gcd (over a field)."""
        self._check_poly(other)
        a, b = self, other
        while not b.is_zero():
            a, b = b, a % b
        return a.monic() if not a.is_zero() else a

    def monic(self) -> "Poly":
        inv = self.ring.inverse(self.leading)
        return Poly(self.ring, [c * inv for c in self.coeffs])

    def derivative(self) -> "Poly":
        if self.degree == 0:
            return Poly(self.ring, [self.ring.zero])
        return Poly(self.ring, [i * c for i, c in enumerate(self.coeffs)][1:])

    def is_squarefree(self) -> bool:
        return self.gcd(self.derivative()).degree == 0

    def reduce_mod(self, ell: int) -> "Poly":
        ring = _reduction_ring(self.ring, ell)
        return Poly(ring, [ring.coerce(c) for c in self.coeffs])

    def __eq__(self, other):
        return (isinstance(other, Poly) and self.ring.name == other.ring.name
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.ring.name, tuple(self.coeffs)))

    def __str__(self):
        terms = []
        for i in range(self.degree, -1, -1):
            c = self.coeffs[i]
            if not c:
                continue
            cs = str(c)
            if i == 0:
                terms.append(cs)
            else:
                x = "x" if i == 1 else f"x^{i}"
                terms.append(x if cs == "1" else f"{cs}*{x}")
        return " + ".join(terms) if terms else "0"

    def __repr__(self):
        return f"Poly({self.ring.name}: {self})"


# ---------------------------------------------------------------------------
# classical expansions


def eisenstein(k: int, n: int, ring=QQ) -> QSeries:
    """E_k = 1 - (2k/B_k) sum sigma_{k-1}(m) q^m to order n.

    k = 2 is allowed (the quasi-modular E_2, same expansion).  Over F_l with
    (l - 1) | k the series is 1: by von Staudt-Clausen l divides the
    denominator of B_k once and not its numerator, so l | 2k/B_k.  At
    k <= l - 3 B_k mod l is ``bernoulli_mod``'s power sum, so over F_l only
    k > l - 1 takes the exact B_k.  An l dividing B_k raises InputError.
    """
    if k < 2 or k % 2:
        raise InputError(f"Eisenstein weight must be even and >= 2, got {k}")
    # over F_l the divisor sums are reduced as they are summed
    modulus = ring.ell if isinstance(ring, PrimeField) else None
    if modulus and k % (modulus - 1) == 0:
        return QSeries.one(ring, n)
    coeffs = [ring.one]
    if n >= 1:
        b = bernoulli_mod(k, modulus) if modulus and k < modulus else bernoulli(k)
        if not b:
            raise InputError(f"{modulus} divides B_{k}, so E_{k} has no reduction mod {modulus}")
        c = ring.coerce(Fraction(-2 * k) / b)
        coeffs += [c * s for s in sigma_prefix(k - 1, n, modulus)[1:]]
    return QSeries(ring, 0, coeffs)


def pentagonal(n: int):
    """(e, (-1)^j) for the generalized pentagonal numbers e = j(3j - 1)/2 < n,
    j in Z, ascending: Euler's prod_(k >= 1) (1 - q^k) = sum_j (-1)^j q^e."""
    if n > 0:
        yield 0, 1
    j = 1
    while True:
        sign = -1 if j & 1 else 1
        for e in (j * (3 * j - 1) // 2, j * (3 * j + 1) // 2):
            if e >= n:
                return
            yield e, sign
        j += 1


def delta(n: int, ring=ZZ) -> QSeries:
    """The discriminant cusp form q prod (1-q^m)^24 to order n, from monomial_forms."""
    if n < 1:
        raise InputError("delta needs truncation order >= 1")
    return monomial_forms([(1, 0, 0)], n, ring)[0]


_J_CACHE: dict[str, QSeries] = {}


def jfunction(n: int, ring=ZZ) -> QSeries:
    """j = E4^3 / Delta, a Laurent series with lead -1, to order n."""
    if n < -1:
        raise InputError("jfunction needs truncation order >= -1")
    key = ring.name
    cached = _J_CACHE.get(key)
    if cached is None or cached.trunc < n:
        e4_cubed, disc = monomial_forms([(0, 3, 0), (1, 0, 0)], max(n, 2) + 2, ring)
        cached = e4_cubed / disc
        _J_CACHE[key] = cached
    return cached.truncate(n)


def monomial_basis(k: int, cusp_only: bool = False) -> list[tuple[int, int, int]]:
    """Basis monomials Delta^a E4^b E6^c of weight k = 12a + 4b + 6c.

    Fixes the minimal (b, c0) with 4b + 6c0 = k mod 12 and ladders the
    remaining weight between Delta and E6^2, so the monomials have distinct
    q-valuations a and are linearly independent; their number is dim M_k,
    and the a >= 1 subset is a basis of the cusp forms S_k.
    """
    if k < 0 or k % 2:
        return []
    for de, ep in ((0, 0), (2, 1), (1, 0), (0, 1), (2, 0), (1, 1)):
        if (k - 4 * de - 6 * ep) % 12 == 0 and k - 4 * de - 6 * ep >= 0:
            break
    else:
        return []
    m = (k - 4 * de - 6 * ep) // 12
    basis = [(a, de, ep + 2 * (m - a)) for a in range(m, -1, -1)]
    if cusp_only:
        basis = [t for t in basis if t[0] >= 1]
    return basis


def monomial_forms(monos, n: int, ring) -> list[QSeries]:
    """Delta^a E4^b E6^c over ZZ, QQ or GF(l >= 5) to order n, for each (a, b, c).

    E4 and E6 come from their divisor sums, and Delta from (E4^3 - E6^2)
    / 1728, an identity over Z that holds mod every l >= 5.  Each power of
    E4, E6 and Delta is formed once, as an int list, and shared by all the
    monomials; every product is one Kronecker product, over ZZ or over
    F_l.  The forms are integral, so over QQ they are the ZZ forms with
    Fraction coefficients.  Each series starts at q^a, its valuation.
    """
    ell = ring.ell if isinstance(ring, PrimeField) else None
    if ell is not None and ell < 5:
        raise InputError(f"Delta = (E4^3 - E6^2)/1728 needs l >= 5, got {ell}")

    powers: dict[tuple[str, int], list[int]] = {}

    def power(name, e):
        key = (name, e)
        if key not in powers:
            if e % 2 == 0:
                half = power(name, e // 2)
                f = _kron_mul(half, half, n + 1, ell)
            elif e > 1:
                f = _kron_mul(power(name, e - 1), power(name, 1), n + 1, ell)
            elif name == "Delta" and ell:
                inv = pow(1728, -1, ell)
                f = [(x - y) * inv % ell for x, y in zip(power("E4", 3), power("E6", 2))]
            elif name == "Delta":  # exact: 1728 divides every coefficient
                f = [(x - y) // 1728 for x, y in zip(power("E4", 3), power("E6", 2))]
            else:  # 1 + factor sum sigma_(k-1)(m) q^m, reduced over F_l
                k, factor = (4, 240) if name == "E4" else (6, -504)
                f = ring.normalize([1] + [factor * s for s in sigma_prefix(k - 1, n, ell)[1:]])
            powers[key] = f
        return powers[key]

    out = []
    for mono in monos:
        f = None
        for name, e in zip(("Delta", "E4", "E6"), mono):
            if e:
                f = power(name, e) if f is None else _kron_mul(f, power(name, e), n + 1, ell)
        a = mono[0]  # Delta^a starts at q^a
        f = (f or [1] + [0] * n)[a:]
        out.append(QSeries(ring, a, list(map(Fraction, f)) if ring is QQ else f))
    return out
