"""Binary quadratic forms, Hurwitz class numbers, and class polynomials.

Class polynomials are computed analytically: evaluate the exact integer
q-expansion of j at each CM point to a proven tail bound, multiply out
the factors, round, and verify the rounding twice (coefficient distance
to the nearest integer, and residuals of the rounded polynomial at the
roots recomputed with 20 extra digits, relative to the size of the
terms).  The precision is chosen once, from a bound on the coefficient
size (Enge, Math. Comp. 2009), so there are no retries: a verification
failure at that precision is a bug.  The arithmetic is the standard
library's ``decimal`` (libmpdec in CPython), with a complex number held
as a (real, imaginary) pair.  Results are cached on disk as
decimal-coefficient documents.

The Hurwitz convention is used throughout: imprimitive forms are counted,
with weights 2 and 3 for the scalings of x^2+y^2 and x^2+xy+y^2.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from decimal import Decimal, getcontext, localcontext
from fractions import Fraction
from functools import lru_cache
from itertools import count, islice

from .arith import Record, is_prime, kronecker
from .errors import (InputError, InternalConsistencyError,
                     NotADiscriminantError, PrecisionError)
from .qseries import GF, ZZ, Poly, jfunction
from .ssforms import supersingular_poly


class QuadForm(Record):
    """Reduced positive definite form a x^2 + b xy + c y^2 of discriminant -d."""

    __slots__ = ("a", "b", "c", "weight")  # weight 3 for k(x^2+xy+y^2), 2 for k(x^2+y^2), else 1

    @property
    def discriminant(self) -> int:
        return self.b * self.b - 4 * self.a * self.c


def _check_discriminant(d: int) -> None:
    if d <= 0 or d % 4 not in (0, 3):
        raise NotADiscriminantError(
            f"d = {d}: -d is not a negative discriminant (need d > 0, d = 0, 3 mod 4)")


def reduced_forms(d: int) -> list[QuadForm]:
    """One reduced representative per class of discriminant -d, Hurwitz style.

    Includes imprimitive classes; both fundamental and non-fundamental d
    are accepted.
    """
    _check_discriminant(d)
    out = []
    a = 1
    while 3 * a * a <= d:  # reduced forms have |b| <= a <= c, so d >= 3a^2
        for b in range(-a + 1, a + 1):
            if (b * b + d) % (4 * a):
                continue
            c = (b * b + d) // (4 * a)
            if c < a:
                continue
            if b < 0 and (a == c or -b == a):
                continue  # reduction demands b >= 0 when |b| = a or a = c
            w = 3 if a == b == c else 2 if (b == 0 and a == c) else 1
            out.append(QuadForm(a, b, c, w))
        a += 1
    return sorted(out, key=lambda f: (f.a, f.b))


def hurwitz_class_number(d: int) -> Fraction:
    """Hurwitz-Kronecker class number: classes weighted by 1/weight."""
    return sum((Fraction(1, f.weight) for f in reduced_forms(d)), Fraction(0))


# ---------------------------------------------------------------------------
# singular moduli


def _terms_needed(d: int, a: int, prec: int) -> int:
    """Truncation order of the j-series so the tail stays below 10^-(prec+4).

    Uses |c_n| <= e^(4 pi sqrt(n)) and |q| = e^(-pi sqrt(d)/a); the order
    found makes the term bound decay geometrically with ratio < 1/2.
    """
    logq = -math.pi * math.sqrt(d) / a
    target = -(prec + 5) * math.log(10)
    n = 4
    while True:
        ratio = 2 * math.pi / math.sqrt(n) + logq
        bound = 4 * math.pi * math.sqrt(n) + n * logq
        if ratio < -math.log(2) and bound + math.log(2.0) < target:
            return n
        n += 1


@lru_cache(maxsize=64)
def _pi(digits: int) -> Decimal:
    """pi to ``digits`` significant digits, by Machin's formula on ints."""
    scale = 10 ** (digits + 10)

    def arccot(x: int) -> int:  # scale * arctan(1/x), truncated termwise
        power = total = scale // x
        n, x2 = 1, x * x
        while power:
            power //= x2
            n += 2
            total += -(power // n) if n % 4 == 3 else power // n
        return total

    with localcontext() as ctx:
        ctx.prec = digits
        return Decimal(16 * arccot(5) - 4 * arccot(239)).scaleb(-digits - 10)


@lru_cache(maxsize=64)
def _abs_q(d: int, a: int, digits: int) -> Decimal:
    """|q| = e^(-pi sqrt(d)/a) to ``digits`` digits, the same for every b."""
    with localcontext() as ctx:
        ctx.prec = digits
        return (-_pi(digits) * Decimal(d).sqrt() / a).exp()


def _cos_sin(theta: Decimal) -> tuple[Decimal, Decimal]:
    """(cos theta, sin theta) for |theta| <= pi, in the current context.

    Taylor series at theta/256, then 8 doublings, which cost about 3 of
    the caller's guard digits.
    """
    x = theta / 256
    x2, eps = x * x, -getcontext().prec - 2
    c = tc = Decimal(1)
    s = ts = x
    k = 2
    while tc and tc.adjusted() >= eps:
        tc = -tc * x2 / (k * (k - 1))
        ts = -ts * x2 / (k * (k + 1))
        c, s, k = c + tc, s + ts, k + 2
    for _ in range(8):
        c, s = c * c - s * s, 2 * c * s
    return c, s


def singular_modulus(Q: QuadForm, prec: int = 40) -> tuple[Decimal, Decimal]:
    """j(alpha_Q) for alpha_Q = (-b + i sqrt(d)) / 2a, accurate to 10^-prec.

    Returned as a (real, imaginary) pair of Decimals.  Evaluates the exact
    integer q-expansion of j at q = e^(2 pi i alpha) with a proven tail
    bound; working precision carries enough extra digits to cover the
    magnitude of the leading q^-1 term, so the accuracy is absolute.
    """
    if prec < 1:
        raise InputError("precision must be positive")
    d = -Q.discriminant
    n_terms = _terms_needed(d, Q.a, prec)
    js = jfunction(n_terms, ZZ)
    size_digits = int(math.pi * math.sqrt(d) / Q.a / math.log(10)) + 1
    with localcontext() as ctx:
        ctx.prec = prec + 10 + size_digits
        r = _abs_q(d, Q.a, ctx.prec)
        c, s = _cos_sin(-_pi(ctx.prec) * Q.b / Q.a)
        q_re, q_im = r * c, r * s
        re, im = _horner([js.coeff(n) for n in range(-1, n_terms + 1)], (q_re, q_im))
        r2 = r * r  # that was q j; j = (q j) conj(q) / |q|^2
        return (re * q_re + im * q_im) / r2, (im * q_re - re * q_im) / r2


def _horner(coeffs, z: tuple[Decimal, Decimal]) -> tuple[Decimal, Decimal]:
    """sum of coeffs[k] z^k at a complex z = (re, im), in the current context."""
    z_re, z_im = z
    z_sum, z_diff = z_re + z_im, z_im - z_re  # three real products per step
    re = im = Decimal(0)
    for c in reversed(coeffs):
        k = z_re * (re + im)
        re, im = k - im * z_sum + c, k + re * z_diff
    return re, im


def _singular_moduli(qs: list[QuadForm], prec: int) -> list[tuple[Decimal, Decimal]]:
    """singular_modulus of each form, evaluated once per pair (a, +-b, c).

    (a, -b, c) has the root -conj(alpha), and j has real coefficients, so
    its singular modulus is the conjugate of that of (a, b, c).
    """
    done = {(Q.a, Q.b): singular_modulus(Q, prec) for Q in qs if Q.b >= 0}
    out = []
    for Q in qs:
        re, im = done[Q.a, abs(Q.b)]
        out.append((re, im) if Q.b >= 0 else (re, im.copy_negate()))
    return out


# ---------------------------------------------------------------------------
# class polynomials


class WeightedClassPoly(Record):
    """Hurwitz-weighted class polynomial: (monic integer factor, weight) pairs."""

    __slots__ = ("d", "components", "h", "precision_used", "residual_bound", "cached")
    __setattr__, __delattr__, __hash__ = object.__setattr__, object.__delattr__, None

    def _key(self) -> tuple:  # equality ignores cached
        return super()._key()[:-1]

    def product_mod(self, ell: int) -> Poly:
        """Product of the components over F_l, weights ignored (the radical)."""
        out = Poly(GF(ell), [GF(ell).one])
        for poly, _ in self.components:
            out = out * poly.reduce_mod(ell)
        return out

    def to_document(self) -> dict:
        return {
            "d": self.d,
            "components": [{
                "coeffs": [str(c) for c in poly.coeffs],
                "weight": f"{w.numerator}/{w.denominator}",
            } for poly, w in self.components],
            "precision_used": self.precision_used,
            "residual_bound": self.residual_bound,
        }

    @classmethod
    def from_document(cls, doc: dict) -> "WeightedClassPoly":
        """Rebuild a ``to_document`` document; ValueError if it is malformed.

        Each component must be a monic polynomial of positive degree with
        decimal-string coefficients and a positive "num/den" weight.
        """
        try:
            comps = [(Poly.from_ints(ZZ, [int(_text(c)) for c in item["coeffs"]]),
                      Fraction(_text(item["weight"])))
                     for item in doc["components"]]
            d = doc["d"]
            prec = doc.get("precision_used", 0)
            resid = doc.get("residual_bound", 0.0)
        except (TypeError, KeyError, AttributeError, ZeroDivisionError) as exc:
            raise ValueError(f"malformed class polynomial document: {exc}") from exc
        if not (type(d) is int and type(prec) is int
                and type(resid) in (int, float) and comps
                and all(p.degree >= 1 and p.leading == 1 and w > 0
                        for p, w in comps)):
            raise ValueError("malformed class polynomial document")
        h = sum((w * p.degree for p, w in comps), Fraction(0))
        return cls(d, comps, h, prec, resid, True)


def _text(value) -> str:
    if not isinstance(value, str):
        raise TypeError(f"expected a string, got {value!r}")
    return value


def default_cache_dir() -> str:
    env = os.environ.get("BPX_CACHE_DIR")
    if env:
        return env
    return os.path.join(os.path.expanduser("~"), ".cache", "bpx")


_CACHE_STATS = {"hits": 0, "misses": 0}


def cache_stats() -> dict[str, int]:
    """Running disk-cache hit/miss counts for class polynomial lookups."""
    return dict(_CACHE_STATS)


def _precision_bound(d: int, groups: dict[int, list[QuadForm]]) -> int:
    """Digits that make every class polynomial coefficient round correctly.

    Enge's bound: a coefficient of prod (x - j_i) is at most
    C(h, h/2) prod max(1, |j_i|), and |j(alpha_Q)| is about
    e^(pi sqrt(d) / a).  So the size in digits is pi sqrt(d) sum 1/a / ln 10
    plus log10 C(h_w, h_w/2) for the largest weight group, and 20 guard
    digits go on top, floored at 30.
    """
    inv_a = sum(1 / f.a for qs in groups.values() for f in qs)
    size = math.pi * math.sqrt(d) * inv_a / math.log(10)
    h_w = max(len(qs) for qs in groups.values())
    size += math.log10(math.comb(h_w, h_w // 2))
    return max(int(size) + 20, 30)


def _expand_and_round(roots) -> tuple[list[int], float]:
    """Multiply out prod (x - r), round to integers, return max rounding error.

    Roots are (real, imaginary) pairs; arithmetic is in the current context.
    """
    re, im = [Decimal(1)], [Decimal(0)]
    for r_re, r_im in roots:
        re, im = [Decimal(0)] + re, [Decimal(0)] + im  # x times the product
        for i in range(len(re) - 1):  # then minus r times it
            c_re, c_im = re[i + 1], im[i + 1]
            re[i] -= r_re * c_re - r_im * c_im
            im[i] -= r_re * c_im + r_im * c_re
    rounded, err = [], 0.0
    for c_re, c_im in zip(re, im):
        n = int(c_re.to_integral_value())
        err = max(err, math.hypot(float(c_re - n), float(c_im)))
        rounded.append(n)
    return rounded, err


def hilbert_class_poly(d: int, cache_dir: str | None = None) -> WeightedClassPoly:
    """Weighted class polynomial of discriminant -d, verified and cached.

    Computed once, at the precision of ``_precision_bound``.  Raises
    PrecisionError if verification fails at that precision, which would
    indicate a bug, not bad input.
    """
    _check_discriminant(d)
    cache_dir = cache_dir if cache_dir is not None else default_cache_dir()
    path = os.path.join(cache_dir, f"hd_{d}.json")
    if os.path.exists(path):
        try:
            with open(path) as fh:
                cached = WeightedClassPoly.from_document(json.load(fh))
        except ValueError:
            cached = None
        # a malformed document, one for another d or missing h(d), or one whose
        # roots are not CM j-invariants is corrupt: recompute and overwrite it
        if (cached is not None and cached.d == d
                and cached.h == hurwitz_class_number(d)
                and _roots_reduce_supersingular(cached)):
            _CACHE_STATS["hits"] += 1
            return cached
    _CACHE_STATS["misses"] += 1
    groups: dict[int, list[QuadForm]] = {}
    for f in reduced_forms(d):
        groups.setdefault(f.weight, []).append(f)
    prec = _precision_bound(d, groups)
    comps, residual = _build_components(groups, prec)
    h = hurwitz_class_number(d)
    got = sum((w * p.degree for p, w in comps), Fraction(0))
    if got != h:
        raise InternalConsistencyError(
            f"degree/weight sum {got} != h({d}) = {h}")
    wcp = WeightedClassPoly(d, comps, h, prec, residual, False)
    _write_cache(path, wcp.to_document())
    return wcp


def _roots_reduce_supersingular(wcp: WeightedClassPoly) -> bool:
    """Does every component P mod p divide s_p^(deg P), at three inert p?

    Deuring: a j-invariant with CM by an order in Q(sqrt(-d)) reduces to a
    supersingular one mod every p >= 5 inert there and prime to d, so each
    root of a genuine P mod p is a root of s_p.  Squaring s_p mod P until
    the exponent reaches deg P tests that.  The uncached s_p leaves the
    per-l cache to the eligibility scans.
    """
    d = wcp.d
    inert = (p for p in count(5)
             if d % p and is_prime(p) and kronecker(-d, p) == -1)
    for p in islice(inert, 3):
        s_p = supersingular_poly.__wrapped__(p)
        for poly, _ in wcp.components:
            reduced = poly.reduce_mod(p)
            power, e = s_p % reduced, 1
            while e < reduced.degree:
                power, e = power * power % reduced, 2 * e
            if not power.is_zero():
                return False
    return True


def _build_components(groups, prec) -> tuple[list[tuple[Poly, Fraction]], float]:
    """Round each weight group's polynomial and verify it at ``prec`` digits.

    The residual at each root is taken relative to max(1, sum |c_k| |r|^k),
    the size of the terms it sums (the 1 keeps the root j = 0 well
    defined), and must stay below 10^-(prec/2).
    """
    comps = []
    worst = 0.0
    for w in sorted(groups):
        qs = groups[w]
        with localcontext() as ctx:
            ctx.prec = prec + 10
            ints, err = _expand_and_round(_singular_moduli(qs, prec))
        if err > 1e-6:
            raise PrecisionError(f"rounding error {err:.2e} at {prec} digits")
        poly = Poly.from_ints(ZZ, ints)
        # verify at higher precision: residuals of the rounded polynomial
        with localcontext() as ctx:
            ctx.prec = prec + 30
            tol = Decimal(1).scaleb(-prec).sqrt()  # 10^-(prec/2)
            for r_re, r_im in _singular_moduli(qs, prec + 20):
                v_re, v_im = _horner(poly.coeffs, (r_re, r_im))
                r_abs, size = (r_re * r_re + r_im * r_im).sqrt(), Decimal(0)
                for c in reversed(poly.coeffs):
                    size = size * r_abs + abs(c)
                resid = (v_re * v_re + v_im * v_im).sqrt() / max(1, size)
                if resid > tol:
                    raise PrecisionError(
                        f"relative residual {float(resid):.2e} at {prec} digits")
                worst = max(worst, float(resid))
        comps.append((poly, Fraction(1, w)))
    return comps, worst


def _write_cache(path: str, doc: dict) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            json.dump(doc, fh, sort_keys=True)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# ---------------------------------------------------------------------------
# eligibility


class EligibilityReport(Record):
    __slots__ = ("d", "ell", "divides", "squarefree", "class_poly_mod_ell")


def degree_rules_out(d: int, ell: int) -> bool:
    """Rule out H_d mod l | s_l by degree: H_d has one root per reduced form."""
    return len(reduced_forms(d)) > supersingular_poly(ell).degree


def eligibility(d: int, ell: int, cache_dir: str | None = None) -> EligibilityReport:
    """Does the class polynomial of -d divide s_l over F_l, and squarefreely?"""
    prod = hilbert_class_poly(d, cache_dir=cache_dir).product_mod(ell)
    return EligibilityReport(d, ell, prod.divides(supersingular_poly(ell)),
                             prod.is_squarefree(), prod)
