"""Truncated Laurent q-series and dense polynomials over a declared ring.

Rings are ZZ, QQ, GF(l), and their quadratic extensions QuadField(D) /
QuadRing(l, D); coefficients are plain ints, Fractions, Mod or QuadExt
values, and all series arithmetic is exact.  Truncation orders are
explicit everywhere: a series knows its leading exponent and the last
exponent it is valid to, and every operation propagates validity
conservatively (no global precision state).

Classical expansions live here too: Eisenstein series, the discriminant
cusp form (via the pentagonal-number sparse product), the j-function,
rewriting weight-0 series as polynomials in j, weight-k monomial bases in
Delta/E4/E6, and the Gauss-sum coefficients of the twisted cyclotomic
factor P_D.
"""

from __future__ import annotations

import cmath
import operator
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate

from .arith import (Mod, QuadExt, bernoulli, is_fundamental_discriminant,
                    kronecker, sigma_prefix)
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

    def __repr__(self):
        return self.name


class PrimeField:
    def __init__(self, ell: int):
        self.ell = ell
        self.name = f"GF({ell})"
        self.zero = Mod(0, ell)
        self.one = Mod(1, ell)

    def coerce(self, x):
        if isinstance(x, Mod):
            if x.modulus != self.ell:
                raise InputError("mixed moduli")
            return x
        if isinstance(x, int):
            return Mod(x, self.ell)
        if isinstance(x, Fraction):
            from .arith import frac_mod
            return frac_mod(x, self.ell)
        raise InputError(f"cannot coerce {x!r} into {self.name}")

    def __repr__(self):
        return self.name


class QuadExtRing:
    """Q(sqrt(D)) over QQ, or F_l[sqrt(D)] over GF(l)."""

    def __init__(self, base, D: int):
        if not is_fundamental_discriminant(D) or D <= 1:
            raise InputError(f"D must be a fundamental discriminant > 1, got {D}")
        self.base = base
        self.D = D
        self.name = f"{base.name}[sqrt({D})]"
        self.zero = QuadExt(base.zero, base.zero, D)
        self.one = QuadExt(base.one, base.zero, D)

    def coerce(self, x):
        if isinstance(x, QuadExt):
            if x.D != self.D:
                raise InputError("mixed discriminants")
            return x
        s = self.base.coerce(x)
        return QuadExt(s, self.base.zero, self.D)

    def __repr__(self):
        return self.name


ZZ = IntegerRing()
QQ = RationalRing()


@lru_cache(maxsize=None)
def GF(ell: int) -> PrimeField:
    return PrimeField(ell)


@lru_cache(maxsize=None)
def QuadField(D: int) -> QuadExtRing:
    return QuadExtRing(QQ, D)


@lru_cache(maxsize=None)
def QuadRing(ell: int, D: int) -> QuadExtRing:
    return QuadExtRing(GF(ell), D)


def _invert_unit(x):
    if isinstance(x, int):
        if x in (1, -1):
            return x
        raise InputError(f"{x} is not a unit in ZZ")
    if isinstance(x, Fraction):
        return 1 / x
    return x.inverse()


def _kron_mul_gf(a: list[int], b: list[int], ell: int, n_out: int) -> list[int]:
    """Convolution mod l by Kronecker substitution into one big integer."""
    bound = (ell - 1) ** 2 * min(len(a), len(b)) + 1
    nb = (bound.bit_length() + 7) // 8
    A = int.from_bytes(b"".join(v.to_bytes(nb, "little") for v in a), "little")
    B = int.from_bytes(b"".join(v.to_bytes(nb, "little") for v in b), "little")
    buf = (A * B).to_bytes(nb * (len(a) + len(b)), "little")
    total = len(a) + len(b) - 1
    out = [int.from_bytes(buf[i * nb:(i + 1) * nb], "little") % ell
           for i in range(min(n_out, total))]
    out.extend([0] * (n_out - len(out)))
    return out


def _kron_pack_signed(a: list[int], nb: int) -> int:
    """sum a_i 2^(8 nb i) for signed a_i, as positive part minus negative part."""
    zero = bytes(nb)
    pos = b"".join(v.to_bytes(nb, "little") if v > 0 else zero for v in a)
    neg = b"".join((-v).to_bytes(nb, "little") if v < 0 else zero for v in a)
    return int.from_bytes(pos, "little") - int.from_bytes(neg, "little")


def _kron_mul_zz(a: list[int], b: list[int], n_out: int) -> list[int]:
    """Integer convolution to n_out terms by signed Kronecker substitution.

    Each slot is wide enough that every output coefficient lies strictly
    inside (-2^(w-1), 2^(w-1)); the low n_out slots of the product, read
    as nonnegative digits, are turned back into signed ones by carrying.
    """
    a, b = a[:n_out], b[:n_out]
    bound = max(map(abs, a)) * max(map(abs, b)) * min(len(a), len(b))
    if not bound:
        return [0] * n_out
    nb = (bound.bit_length() + 8) // 8
    width = 8 * nb
    low = (_kron_pack_signed(a, nb) * _kron_pack_signed(b, nb)) & ((1 << (width * n_out)) - 1)
    buf = low.to_bytes(nb * n_out, "little")
    half, full = 1 << (width - 1), 1 << width
    out, carry = [], 0
    for i in range(0, nb * n_out, nb):
        v = int.from_bytes(buf[i:i + nb], "little") + carry
        carry = v >= half
        out.append(v - full if carry else v)
    return out


# Costs in microseconds on CPython, measured, for choosing the ZZ product.
_TERM_US = 0.15         # one schoolbook term a_i b_k of small integers
_BITS2_PER_US = 4.5e5   # extra for b1- and b2-bit integers: b1 b2 / this
_SLOT_US = 0.6          # packing and unpacking one Kronecker slot
_MBIT_US = 1.4e5        # Karatsuba product of two 10^6-bit integers


def _kron_pays(a: list[int], b: list[int], n_out: int) -> bool:
    """Is the Kronecker product of a and b to n_out terms estimated cheaper?

    Kronecker substitution does one big product whose slots all take the
    width of the largest output coefficient, so it loses to the schoolbook
    loop when an operand is sparse or its coefficient sizes vary widely.
    """
    abits = [v.bit_length() for v in a[:n_out]]
    bbits = [v.bit_length() for v in b[:n_out]]
    if not (any(abits) and any(bbits)):
        return False
    # schoolbook: a_i meets the b_k with k < n_out - i; prefix sums over b
    # of the nonzero terms and of their bits, padded to n_out + 1 entries
    count = list(accumulate(map(bool, bbits), initial=0))
    total = list(accumulate(bbits, initial=0))
    pad = n_out + 1 - len(count)
    count += count[-1:] * pad
    total += total[-1:] * pad
    school = (_TERM_US * sum(map(operator.mul, map(bool, abits), reversed(count)))
              + sum(map(operator.mul, abits, reversed(total))) / _BITS2_PER_US)
    la = len(abits) - next(i for i, x in enumerate(reversed(abits)) if x)
    lb = len(bbits) - next(i for i, x in enumerate(reversed(bbits)) if x)
    width = max(abits) + max(bbits) + min(la, lb).bit_length() + 1
    small, big = sorted((la * width / 1e6, lb * width / 1e6))
    kron = _SLOT_US * (la + lb + n_out) + _MBIT_US * big * small ** 0.585
    # the estimates are within a factor 2 (the schoolbook one ignores that
    # CPython multiplies integers of over 2100 bits by Karatsuba), so switch
    # only when Kronecker promises at least that much
    return 2 * kron < school


def _inverse_gf(u: list[int], ell: int) -> list[int]:
    """len(u) coefficients of 1/u over F_l by Newton iteration g <- g + g (1 - u g).

    Values are ints in [0, l) and u[0] is nonzero.  Each step doubles the
    number of correct terms with two Kronecker products.
    """
    g = [pow(u[0], -1, ell)]
    n, k = len(u), 1
    while k < n:
        k2 = min(2 * k, n)
        err = _kron_mul_gf(u[:k2], g, ell, k2)[k:]  # u g = 1 + q^k err + O(q^k2)
        g += [-c % ell for c in _kron_mul_gf(g, err, ell, k2 - k)]
        k = k2
    return g


def _solve_triangular(s: list, rhs: list, zero) -> list:
    """x with s x = rhs to len(rhs) terms, for power series s with unit s[0].

    x_k = (rhs_k - sum_{i=1..k} s_i x_{k-i}) / s_0: one inner product per
    term.  Trailing zeros of s are dropped first, so a polynomial s costs
    only its degree per term.
    """
    s0i = _invert_unit(s[0])
    top = max(i for i, c in enumerate(s) if c)
    tail = s[1:top + 1]
    x = []
    for k, r in enumerate(rhs):
        x.append((r - sum(map(operator.mul, tail, reversed(x)), zero)) * s0i)
    return x


# ---------------------------------------------------------------------------
# q-series


class QSeries:
    """Laurent series sum c_e q^e, dense from exponent ``lead`` to ``trunc``."""

    __slots__ = ("ring", "lead", "coeffs")

    def __init__(self, ring, lead: int, coeffs: list):
        self.ring = ring
        self.lead = lead
        self.coeffs = coeffs

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
        if n > self.trunc:
            raise TruncationError(f"cannot extend truncation {self.trunc} to {n}")
        return QSeries(self.ring, self.lead, self.coeffs[: n - self.lead + 1])

    def shift(self, k: int) -> "QSeries":
        """Multiply by q^k."""
        return QSeries(self.ring, self.lead + k, list(self.coeffs))

    # -- arithmetic --------------------------------------------------------

    def _check_ring(self, other: "QSeries"):
        if self.ring is not other.ring and self.ring.name != other.ring.name:
            raise InputError(f"mixed rings {self.ring.name} / {other.ring.name}")

    def _lift_scalar(self, c) -> "QSeries":
        return QSeries.constant(self.ring, c, max(self.trunc, 0))

    def __add__(self, other):
        if not isinstance(other, QSeries):
            other = self._lift_scalar(other)
        self._check_ring(other)
        lead = min(self.lead, other.lead)
        trunc = min(self.trunc, other.trunc)
        out = []
        for e in range(lead, trunc + 1):
            a = self.coeffs[e - self.lead] if self.lead <= e <= self.trunc else self.ring.zero
            b = other.coeffs[e - other.lead] if other.lead <= e <= other.trunc else self.ring.zero
            out.append(a + b)
        return QSeries(self.ring, lead, out)

    __radd__ = __add__

    def __neg__(self):
        return QSeries(self.ring, self.lead, [-c for c in self.coeffs])

    def __sub__(self, other):
        if not isinstance(other, QSeries):
            other = self._lift_scalar(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def scale(self, c) -> "QSeries":
        c = self.ring.coerce(c)
        return QSeries(self.ring, self.lead, [c * v for v in self.coeffs])

    def __mul__(self, other):
        if not isinstance(other, QSeries):
            return self.scale(other)
        self._check_ring(other)
        lead = self.lead + other.lead
        trunc = min(self.trunc + other.lead, other.trunc + self.lead)
        n_out = trunc - lead + 1
        if n_out <= 0:
            return QSeries(self.ring, lead, [self.ring.zero])
        if isinstance(self.ring, PrimeField):
            raw = _kron_mul_gf([c.value for c in self.coeffs],
                               [c.value for c in other.coeffs],
                               self.ring.ell, n_out)
            return QSeries(self.ring, lead, [Mod(v, self.ring.ell) for v in raw])
        if isinstance(self.ring, IntegerRing) and _kron_pays(self.coeffs, other.coeffs, n_out):
            return QSeries(self.ring, lead,
                           _kron_mul_zz(self.coeffs, other.coeffs, n_out))
        # generic schoolbook, outer loop over the sparser operand
        a, b = self, other
        if sum(1 for c in a.coeffs if c) > sum(1 for c in b.coeffs if c):
            a, b = b, a
        out = [self.ring.zero] * n_out
        nb = len(b.coeffs)
        for i, ca in enumerate(a.coeffs):
            if not ca:
                continue
            top = min(nb, n_out - i)
            for k in range(top):
                cb = b.coeffs[k]
                if cb:
                    out[i + k] = out[i + k] + ca * cb
        return QSeries(self.ring, lead, out)

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if e < 0:
            return self.inverse() ** (-e)
        if e == 0:
            return QSeries.one(self.ring, max(self.trunc, 0))
        out = None
        base = self
        while True:
            if e & 1:
                out = base if out is None else out * base
            e >>= 1
            if not e:
                return out
            base = base * base

    def inverse(self) -> "QSeries":
        """Multiplicative inverse of a series with invertible leading coefficient."""
        v = self.valuation()
        if v is None:
            raise ZeroDivisionError("zero series has no inverse")
        u = self.coeffs[v - self.lead:]
        ring = self.ring
        if isinstance(ring, PrimeField):
            inv = _inverse_gf([c.value for c in u], ring.ell)
            return QSeries(ring, -v, [Mod(c, ring.ell) for c in inv])
        rhs = [ring.one] + [ring.zero] * (len(u) - 1)
        return QSeries(ring, -v, _solve_triangular(u, rhs, ring.zero))

    def __truediv__(self, other):
        if not isinstance(other, QSeries):
            return self.scale(_invert_unit(self.ring.coerce(other)))
        return self * other.inverse()

    def q_derivative(self) -> "QSeries":
        """q d/dq: sends c q^e to e c q^e."""
        return QSeries(self.ring, self.lead,
                       [(self.lead + i) * c for i, c in enumerate(self.coeffs)])

    def log_derivative(self) -> "QSeries":
        """q f'/f for f with invertible leading coefficient, from q^0.

        Over F_l this is q f' times the Newton inverse of f.  Over any other
        ring it solves f L = q f' term by term, with no inverse series: for
        f = q^v (s_0 + s_1 q + ...), L_k = ((v + k) s_k - sum_{i=1..k} s_i
        L_{k-i}) / s_0.
        """
        v = self.valuation()
        if v is None:
            raise ZeroDivisionError("zero series has no log derivative")
        s = self.coeffs[v - self.lead:]
        if isinstance(self.ring, PrimeField):
            f = QSeries(self.ring, v, s)
            return f.q_derivative() * f.inverse()
        rhs = [(v + k) * c for k, c in enumerate(s)]
        return QSeries(self.ring, 0, _solve_triangular(s, rhs, self.ring.zero))

    def map_coefficients(self, fn, ring) -> "QSeries":
        return QSeries(ring, self.lead, [fn(c) for c in self.coeffs])

    def reduce_mod(self, ell: int) -> "QSeries":
        from .arith import frac_mod
        ring = GF(ell)
        return self.map_coefficients(lambda c: frac_mod(c, ell)
                                     if isinstance(c, (int, Fraction))
                                     else ring.coerce(c), ring)

    # -- comparison / rendering --------------------------------------------

    def __eq__(self, other):
        """Equality of coefficients up to the smaller truncation order."""
        if not isinstance(other, QSeries):
            return NotImplemented
        if self.ring.name != other.ring.name:
            return False
        trunc = min(self.trunc, other.trunc)
        for e in range(min(self.lead, other.lead), trunc + 1):
            a = self.coeffs[e - self.lead] if self.lead <= e else self.ring.zero
            b = other.coeffs[e - other.lead] if other.lead <= e else self.ring.zero
            if a != b:
                return False
        return True

    def __str__(self):
        terms = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            e = self.lead + i
            cs = str(c.value) if isinstance(c, Mod) else str(c)
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
    """Dense polynomial over a ring; coefficients ascending from x^0."""

    __slots__ = ("ring", "coeffs")

    def __init__(self, ring, coeffs: list):
        while len(coeffs) > 1 and not coeffs[-1]:
            coeffs = coeffs[:-1]
        self.ring = ring
        self.coeffs = coeffs if coeffs else [ring.zero]

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
            c = self.ring.coerce(other)
            return Poly(self.ring, [c * v for v in self.coeffs])
        out = [self.ring.zero] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for k, b in enumerate(other.coeffs):
                if b:
                    out[i + k] = out[i + k] + a * b
        return Poly(self.ring, out)

    __rmul__ = __mul__

    def __pow__(self, e: int):
        out = Poly(self.ring, [self.ring.one])
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def divmod(self, other: "Poly") -> tuple["Poly", "Poly"]:
        """Division with remainder; divisor leading coefficient must be a unit."""
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        inv = _invert_unit(other.leading)
        rem = list(self.coeffs)
        dq = len(rem) - len(other.coeffs)
        if dq < 0:
            return Poly(self.ring, [self.ring.zero]), Poly(self.ring, rem)
        quo = [self.ring.zero] * (dq + 1)
        for i in range(dq, -1, -1):
            c = rem[i + other.degree] * inv
            quo[i] = c
            if c:
                for k, b in enumerate(other.coeffs):
                    rem[i + k] = rem[i + k] - c * b
        return Poly(self.ring, quo), Poly(self.ring, rem[: max(other.degree, 1)])

    def __mod__(self, other):
        return self.divmod(other)[1]

    def divides(self, other: "Poly") -> bool:
        """True iff self divides other exactly."""
        if self.is_zero():
            return other.is_zero()
        return other.divmod(self)[1].is_zero()

    def gcd(self, other: "Poly") -> "Poly":
        """Monic gcd (over a field)."""
        a, b = self, other
        while not b.is_zero():
            a, b = b, a % b
        return a.monic() if not a.is_zero() else a

    def monic(self) -> "Poly":
        inv = _invert_unit(self.leading)
        return Poly(self.ring, [c * inv for c in self.coeffs])

    def derivative(self) -> "Poly":
        if self.degree == 0:
            return Poly(self.ring, [self.ring.zero])
        return Poly(self.ring, [i * c for i, c in enumerate(self.coeffs)][1:])

    def is_squarefree(self) -> bool:
        return self.gcd(self.derivative()).degree == 0

    def evaluate(self, x):
        acc = self.ring.zero
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def evaluate_series(self, s: QSeries) -> QSeries:
        """Horner evaluation at a q-series argument."""
        acc = QSeries.constant(s.ring, self.coeffs[-1], max(s.trunc, 0))
        for c in reversed(self.coeffs[:-1]):
            acc = acc * s + QSeries.constant(s.ring, c, max(s.trunc, 0))
        return acc

    def reduce_mod(self, ell: int) -> "Poly":
        from .arith import frac_mod
        return Poly(GF(ell), [frac_mod(c, ell) for c in self.coeffs])

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
            cs = str(c.value) if isinstance(c, Mod) else str(c)
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
    denominator of B_k once and not its numerator, so l | 2k/B_k, and no
    Bernoulli number is computed.
    """
    if k < 2 or k % 2:
        raise InputError(f"Eisenstein weight must be even and >= 2, got {k}")
    if isinstance(ring, PrimeField) and k % (ring.ell - 1) == 0:
        return QSeries.one(ring, n)
    factor = Fraction(-2 * k) / bernoulli(k)
    coeffs = [ring.one]
    if n >= 1:
        if isinstance(ring, PrimeField):
            c = ring.coerce(factor)
            sig = sigma_prefix(k - 1, n, ring.ell)
            coeffs += [c * sig[m] for m in range(1, n + 1)]
        else:
            sig = sigma_prefix(k - 1, n)
            coeffs += [ring.coerce(factor * sig[m]) for m in range(1, n + 1)]
    return QSeries(ring, 0, coeffs)


def euler_product(n: int, ring=ZZ) -> QSeries:
    """prod (1 - q^m) to order n via the pentagonal number theorem."""
    coeffs = [ring.zero] * (n + 1)
    coeffs[0] = ring.one
    k = 1
    while True:
        g1 = k * (3 * k - 1) // 2
        g2 = k * (3 * k + 1) // 2
        if g1 > n and g2 > n:
            break
        s = ring.one if k % 2 == 0 else -ring.one
        if g1 <= n:
            coeffs[g1] = s
        if g2 <= n:
            coeffs[g2] = s
        k += 1
    return QSeries(ring, 0, coeffs)


def delta(n: int, ring=ZZ) -> QSeries:
    """The discriminant cusp form q prod (1-q^m)^24 to order n."""
    if n < 1:
        raise InputError("delta needs truncation order >= 1")
    return (euler_product(n - 1, ring) ** 24).shift(1)


_J_CACHE: dict[str, QSeries] = {}


def jfunction(n: int, ring=ZZ) -> QSeries:
    """j = E4^3 / Delta, a Laurent series with lead -1, to order n."""
    if n < -1:
        raise InputError("jfunction needs truncation order >= -1")
    key = ring.name
    cached = _J_CACHE.get(key)
    if cached is None or cached.trunc < n:
        m = max(n, 2)
        cached = (eisenstein(4, m + 2, ring) ** 3) / delta(m + 2, ring)
        _J_CACHE[key] = cached
    return cached.truncate(n)


def as_j_polynomial(f: QSeries) -> Poly:
    """Write a weight-0 series, holomorphic away from infinity, as P(j).

    Repeatedly subtracts c*j^e to kill the most negative exponent; the
    residual must vanish identically up to f's truncation order.
    """
    if f.trunc < 0:
        raise TruncationError("need the series through its constant term")
    ring = f.ring
    v = f.valuation()
    m = max(0, -v) if v is not None else 0
    out = [ring.zero] * (m + 1)
    g = f
    if m > 0:
        j = jfunction(f.trunc + m - 1, ring)
        jpow: dict[int, QSeries] = {1: j}
        for e in range(2, m + 1):
            jpow[e] = jpow[e - 1] * j
        for e in range(m, 0, -1):
            c = g.coeff(-e)
            if c:
                out[e] = c
                g = g - jpow[e].truncate(g.trunc).scale(c)
    out[0] = g.coeff(0)
    g = g - QSeries.constant(ring, out[0], g.trunc)
    if not g.is_zero():
        raise InputError(
            f"not a polynomial in j: residual at q^{g.valuation()}")
    return Poly(ring, out)


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


def monomial_form(a: int, b: int, c: int, n: int, ring) -> QSeries:
    """Expansion of Delta^a E4^b E6^c to order n."""
    f = QSeries.one(ring, n)
    if a:
        f = f * delta(n, ring) ** a
    if b:
        f = f * eisenstein(4, n, ring) ** b
    if c:
        f = f * eisenstein(6, n, ring) ** c
    return f.truncate(n)


# ---------------------------------------------------------------------------
# Gauss sums for the twisted factor P_D


def f2(D: int, r: int) -> QuadExt:
    """sum over k of (D/k) zeta_D^{kr} as an element of Q(sqrt(D)).

    Classical Gauss-sum evaluation: equals (D/r) sqrt(D) for fundamental
    D > 1 (cross-checked numerically in the test suite).
    """
    if D <= 1 or not is_fundamental_discriminant(D):
        raise InputError(f"D must be a fundamental discriminant > 1, got {D}")
    if r < 1:
        raise InputError(f"index must be >= 1, got {r}")
    return QuadExt(Fraction(0), Fraction(kronecker(D, r)), D)


def f2_numeric(D: int, r: int) -> complex:
    """Direct floating-point Gauss sum, the validation oracle for f2."""
    return sum(kronecker(D, k) * cmath.exp(2j * cmath.pi * k * r / D)
               for k in range(1, D))


def pd_log_coeffs(D: int, n: int) -> list[QuadExt]:
    """Coefficients of -t d/dt log P_D(t) for t^1..t^n; entry r is f2(D, r)."""
    return [f2(D, r) for r in range(1, n + 1)]
