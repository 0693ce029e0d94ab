"""Binary quadratic forms, Hurwitz class numbers, and class polynomials.

Class polynomials are computed analytically: evaluate the exact integer
q-expansion of j at each CM point to a proven tail bound, multiply out
the factors, round, and verify the rounding twice (coefficient distance
to the nearest integer, and residuals of the rounded polynomial at the
roots recomputed with 20 extra digits).  Failures retry at doubled
precision.  Results are cached on disk as decimal-coefficient documents.

The Hurwitz convention is used throughout: imprimitive forms are counted,
with weights 2 and 3 for the scalings of x^2+y^2 and x^2+xy+y^2.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from dataclasses import dataclass, field
from fractions import Fraction

from .arith import is_fundamental_discriminant, kronecker
from .errors import (InputError, InternalConsistencyError,
                     NotADiscriminantError, PrecisionError)
from .qseries import GF, ZZ, Poly, jfunction
from .ssforms import supersingular_poly


@dataclass(frozen=True)
class QuadForm:
    """Reduced positive definite form a x^2 + b xy + c y^2 of discriminant -d."""

    a: int
    b: int
    c: int
    weight: int  # 3 for scalings of x^2+xy+y^2, 2 for x^2+y^2, else 1

    @property
    def discriminant(self) -> int:
        return self.b * self.b - 4 * self.a * self.c


def _check_discriminant(d: int) -> None:
    if d <= 0 or d % 4 not in (0, 3):
        raise NotADiscriminantError(
            f"-{d} is not a negative discriminant (need d > 0, d = 0, 3 mod 4)")


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


def singular_modulus(Q: QuadForm, prec: int = 40) -> mpmath.mpc:
    """j(alpha_Q) for alpha_Q = (-b + i sqrt(d)) / 2a, accurate to 10^-prec.

    Evaluates the exact integer q-expansion of j at q = e^(2 pi i alpha)
    with a proven tail bound; working precision carries enough extra
    digits to cover the magnitude of the leading q^-1 term, so the
    accuracy is absolute.
    """
    import mpmath  # the compute path only: a warm cache never loads it

    if prec < 1:
        raise InputError("precision must be positive")
    d = -Q.discriminant
    n_terms = _terms_needed(d, Q.a, prec)
    js = jfunction(n_terms, ZZ)
    size_digits = int(math.pi * math.sqrt(d) / Q.a / math.log(10)) + 1
    with mpmath.workdps(prec + 10 + size_digits):
        t = -mpmath.pi / Q.a
        q = mpmath.exp(mpmath.mpc(t * mpmath.sqrt(d), t * Q.b))
        acc = mpmath.mpc(0)
        qn = 1 / q
        for n in range(-1, n_terms + 1):
            acc += js.coeff(n) * qn
            qn *= q
        return acc


# ---------------------------------------------------------------------------
# class polynomials


@dataclass
class WeightedClassPoly:
    """Hurwitz-weighted class polynomial: (monic integer factor, weight) pairs."""

    d: int
    components: list[tuple[Poly, Fraction]]
    h: Fraction
    precision_used: int = 0
    residual_bound: float = 0.0
    cached: bool = field(default=False, compare=False)

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
        return cls(d, comps, h, prec, resid, cached=True)


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


def _base_precision(d: int, forms: list[QuadForm]) -> int:
    # coefficient sizes are governed by exp(pi sqrt(d) sum 1/a); 20 guard
    # digits on top, floored at 30
    size = math.pi * math.sqrt(d) * sum(1 / f.a for f in forms) / math.log(10)
    return max(int(size) + 20, 30)


def _expand_and_round(roots) -> tuple[list[int], float]:
    """Multiply out prod (x - r), round to integers, return max rounding error."""
    import mpmath

    coeffs = [mpmath.mpc(1)]
    for r in roots:
        nxt = [mpmath.mpc(0)] * (len(coeffs) + 1)
        for i, c in enumerate(coeffs):
            nxt[i + 1] += c
            nxt[i] -= r * c
        coeffs = nxt
    rounded, err = [], 0.0
    for c in coeffs:
        n = int(mpmath.nint(c.real))
        err = max(err, float(abs(c - n)))
        rounded.append(n)
    return rounded, err


def hilbert_class_poly(d: int, cache_dir: str | None = None) -> WeightedClassPoly:
    """Weighted class polynomial of discriminant -d, verified and cached.

    Raises PrecisionError only if verification still fails after three
    precision doublings (which would indicate a bug, not bad input).
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
        # a malformed document, one for another d, or one whose degrees and
        # weights miss h(d) is corrupt: recompute it and overwrite it
        if (cached is not None and cached.d == d
                and cached.h == hurwitz_class_number(d)):
            _CACHE_STATS["hits"] += 1
            return cached
    _CACHE_STATS["misses"] += 1
    forms = reduced_forms(d)
    groups: dict[int, list[QuadForm]] = {}
    for f in forms:
        groups.setdefault(f.weight, []).append(f)
    base = _base_precision(d, forms)
    last_exc: Exception | None = None
    for attempt in range(4):
        prec = base * (2 ** attempt)
        try:
            comps, residual = _build_components(groups, prec)
            break
        except PrecisionError as exc:
            last_exc = exc
    else:
        raise PrecisionError(
            f"class polynomial for d={d} failed verification at "
            f"{base * 8} digits") from last_exc
    h = hurwitz_class_number(d)
    got = sum((w * p.degree for p, w in comps), Fraction(0))
    if got != h:
        raise InternalConsistencyError(
            f"degree/weight sum {got} != h({d}) = {h}")
    wcp = WeightedClassPoly(d, comps, h, prec, residual)
    _write_cache(path, wcp.to_document())
    return wcp


def _build_components(groups, prec) -> tuple[list[tuple[Poly, Fraction]], float]:
    import mpmath

    comps = []
    worst = 0.0
    for w in sorted(groups):
        qs = groups[w]
        with mpmath.workdps(prec + 10):
            roots = [singular_modulus(Q, prec) for Q in qs]
            ints, err = _expand_and_round(roots)
        if err > 1e-6:
            raise PrecisionError(f"rounding error {err:.2e} at {prec} digits")
        poly = Poly.from_ints(ZZ, ints)
        # verify at higher precision: residuals of the rounded polynomial
        with mpmath.workdps(prec + 30):
            for Q in qs:
                r = singular_modulus(Q, prec + 20)
                val = mpmath.mpc(0)
                for c in reversed(poly.coeffs):
                    val = val * r + c
                resid = float(abs(val))
                if resid > 1e-3:
                    raise PrecisionError(
                        f"residual {resid:.2e} at {prec} digits")
                worst = max(worst, resid)
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


@dataclass(frozen=True)
class EligibilityReport:
    d: int
    ell: int
    divides: bool
    squarefree: bool


def eligibility(d: int, ell: int, cache_dir: str | None = None) -> EligibilityReport:
    """Does the class polynomial of -d divide s_l over F_l, and squarefreely?"""
    wcp = hilbert_class_poly(d, cache_dir=cache_dir)
    prod = wcp.product_mod(ell)
    s_ell = supersingular_poly(ell)
    return EligibilityReport(d, ell, prod.divides(s_ell), prod.is_squarefree())


@dataclass(frozen=True)
class CorollaryReport:
    D: int
    d: int
    ell: int
    inert: bool
    kron: bool
    range_ok: bool

    @property
    def all_hold(self) -> bool:
        return self.inert and self.kron and self.range_ok


def corollary_conditions(D: int, d: int, ell: int) -> CorollaryReport:
    """The inertia / Kronecker / size conditions that imply eligibility."""
    if not is_fundamental_discriminant(-d):
        raise InputError(f"-{d} is not a fundamental discriminant")
    if D != 1 and not (D > 0 and is_fundamental_discriminant(D)):
        raise InputError(f"{D} is not a positive fundamental discriminant")
    if not is_fundamental_discriminant(-D * d):
        raise InputError(f"-{D * d} is not a fundamental discriminant")
    return CorollaryReport(
        D, d, ell,
        inert=kronecker(-D * d, ell) == -1,
        kron=kronecker(ell, D * d) == 1,
        range_ok=ell > D * d,
    )
