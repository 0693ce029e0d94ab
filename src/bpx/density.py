"""Characteristic-polynomial densities in GL2(F_l) and the delta tables.

The asymptotic side is pure group theory: the proportion of GL2(F_l) with
a given trace and determinant, summed over the classes a congruence
formula maps to a given residue t (for rank 2 the two matrix factors are
coupled through a common determinant).  The empirical side runs over all
primes p < X, computing the curve trace at p for the level l = 11, 17, 19
curves (or exact eigenform coefficients for other moduli), and tallies
the formula value per residue class.
"""

from __future__ import annotations

import json
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from . import kernel
from .arith import is_prime, kronecker, sieve
from .borcherds import CongruenceFormula
from .errors import CapabilityError, InputError, InternalConsistencyError
from .ssforms import eigenbasis


# ---------------------------------------------------------------------------
# GL2 characteristic polynomial frequencies


def gl2_order(ell: int) -> int:
    return (ell * ell - 1) * (ell * ell - ell)


class CharpolyCount(NamedTuple):
    count: int
    proportion: Fraction


def charpoly_count(ell: int, a: int, b: int) -> CharpolyCount:
    """Elements of GL2(F_l) with trace a and determinant b (b nonzero).

    The proportion depends only on whether a^2/4 - b is a nonresidue, a
    nonzero residue, or zero mod l.
    """
    if ell < 3 or not is_prime(ell):
        raise InputError(f"need an odd prime, got {ell}")
    if b % ell == 0:
        raise InputError("determinant 0 is not in GL2")
    disc = (a * a * pow(4, -1, ell) - b) % ell
    chi = kronecker(disc, ell)
    if chi == -1:
        prop = Fraction(1, (ell - 1) * (ell + 1))
    elif chi == 1:
        prop = Fraction(1, (ell - 1) ** 2)
    else:
        prop = Fraction(ell, (ell - 1) ** 2 * (ell + 1))
    count = prop * gl2_order(ell)
    if count.denominator != 1:
        raise InternalConsistencyError("non-integral class count")
    return CharpolyCount(count.numerator, prop)


def charpoly_table_bruteforce(ell: int) -> dict[tuple[int, int], int]:
    """Literal enumeration of GL2(F_l): counts per (trace, det), small l only."""
    if ell > 13:
        raise InputError("brute-force enumeration is for l <= 13")
    table: Counter = Counter()
    for w in range(ell):
        for x in range(ell):
            for y in range(ell):
                xy = x * y
                for z in range(ell):
                    det = (w * z - xy) % ell
                    if det:
                        table[((w + z) % ell, det)] += 1
    return dict(table)


def charpoly_count_bruteforce(ell: int, a: int, b: int) -> int:
    return charpoly_table_bruteforce(ell).get((a % ell, b % ell), 0)


# ---------------------------------------------------------------------------
# elliptic curves


@dataclass(frozen=True)
class EllCurve:
    """Integral Weierstrass model y^2 + a1 xy + a3 y = x^3 + a2 x^2 + a4 x + a6."""

    a1: int
    a2: int
    a3: int
    a4: int
    a6: int
    label: str = ""

    @property
    def b_invariants(self) -> tuple[int, int, int, int]:
        b2 = self.a1 ** 2 + 4 * self.a2
        b4 = 2 * self.a4 + self.a1 * self.a3
        b6 = self.a3 ** 2 + 4 * self.a6
        b8 = (self.a1 ** 2 * self.a6 + 4 * self.a2 * self.a6
              - self.a1 * self.a3 * self.a4 + self.a2 * self.a3 ** 2
              - self.a4 ** 2)
        return b2, b4, b6, b8

    @property
    def discriminant(self) -> int:
        b2, b4, b6, b8 = self.b_invariants
        return -b2 * b2 * b8 - 8 * b4 ** 3 - 27 * b6 * b6 + 9 * b2 * b4 * b6

    @property
    def short_form(self) -> tuple[int, int]:
        """(A, B) with y^2 = x^3 + Ax + B isomorphic to the curve when p >= 5."""
        b2, b4, b6, _ = self.b_invariants
        c4 = b2 * b2 - 24 * b4
        c6 = -b2 ** 3 + 36 * b2 * b4 - 216 * b6
        return -27 * c4, -54 * c6

    def __post_init__(self):
        if self.discriminant == 0:
            raise InputError("singular Weierstrass model")


X0_CURVES = {
    11: EllCurve(0, -1, 1, -10, -20, "X0(11)"),
    17: EllCurve(1, -1, 1, -6, -4, "X0(17)"),
    19: EllCurve(0, 1, 1, -9, -15, "X0(19)"),
}


def _trace_tiny(E: EllCurve, p: int) -> int:
    """Points on the full Weierstrass model by enumeration; used for p = 2, 3."""
    npts = 1
    for x in range(p):
        for y in range(p):
            lhs = (y * y + E.a1 * x * y + E.a3 * y) % p
            rhs = (x ** 3 + E.a2 * x * x + E.a4 * x + E.a6) % p
            if lhs == rhs:
                npts += 1
    return p + 1 - npts


def ec_trace(E: EllCurve, p: int,
             naive_limit: int = kernel.NAIVE_LIMIT) -> int:
    """Trace of Frobenius a(p) = p + 1 - #E(F_p) at a good-reduction prime."""
    if not is_prime(p):
        raise InputError(f"{p} is not prime")
    if E.discriminant % p == 0:
        raise InputError(f"{E.label or 'curve'} has bad reduction at {p}")
    if p < 5:
        return _trace_tiny(E, p)
    A, B = E.short_form
    return kernel.ec_trace(A, B, p, naive_limit)


def ec_traces(E: EllCurve, primes, naive_limit: int = kernel.NAIVE_LIMIT,
              threads: int = 1) -> list[int]:
    """Traces at many good primes; parallel over blocks, deterministic merge."""
    primes = list(primes)
    small = [p for p in primes if p < 5]
    big = [p for p in primes if p >= 5]
    A, B = E.short_form
    out_small = [_trace_tiny(E, p) for p in small]
    if threads <= 1 or len(big) < 4096:
        out_big = kernel.ec_traces(A, B, big, naive_limit)
    else:
        blocks = [big[i:i + 4096] for i in range(0, len(big), 4096)]
        with ThreadPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(
                lambda blk: kernel.ec_traces(A, B, blk, naive_limit), blocks))
        out_big = [t for part in parts for t in part]
    merged = dict(zip(small, out_small))
    merged.update(zip(big, out_big))
    return [merged[p] for p in primes]


# ---------------------------------------------------------------------------
# density tables


@dataclass
class DensityTable:
    """Per-residue densities of the congruence values, exact or empirical."""

    d: int
    ell: int
    kind: str  # "asymptotic" | "empirical"
    entries: dict  # t -> Fraction, or t -> count
    x: int | None = None
    total: int | None = None  # pi(X) for empirical tables

    def ratio(self, t: int) -> float:
        if self.kind == "asymptotic":
            return float(self.entries.get(t, Fraction(0)))
        return self.entries.get(t, 0) / self.total

    def to_rows(self) -> list[dict]:
        rows = []
        for t in range(self.ell):
            if self.kind == "asymptotic":
                frac = self.entries.get(t, Fraction(0))
                rows.append({"t": t,
                             "density": f"{frac.numerator}/{frac.denominator}",
                             "decimal": f"{float(frac):.6f}"})
            else:
                count = self.entries.get(t, 0)
                rows.append({"t": t, "count": count,
                             "ratio": f"{count / self.total:.4f}"})
        return rows

    def to_csv(self) -> str:
        rows = self.to_rows()
        header = ",".join(rows[0].keys())
        return "\n".join([header] + [",".join(str(v) for v in r.values())
                                     for r in rows]) + "\n"

    def to_json(self) -> str:
        doc = {"d": self.d, "ell": self.ell, "kind": self.kind,
               "x": self.x, "total": self.total, "rows": self.to_rows()}
        return json.dumps(doc, indent=2, sort_keys=True)


def asymptotic_table(F: CongruenceFormula) -> DensityTable:
    """Chebotarev limit of the congruence-value distribution, exact rationals.

    Rank 1 weights each (det b, trace a) by its GL2 proportion; rank 2
    weights pairs of classes sharing a determinant by count1 * count2 over
    the order of the determinant-coupled product group.
    """
    ell = F.ell
    r = F.rank
    base = (-24 * F.c0.value) % ell
    acc: dict[int, Fraction] = {}
    if r == 0:
        acc[base] = Fraction(1)
    elif r == 1:
        c1 = F.c[0].value
        for b in range(1, ell):
            invb = pow(b, -1, ell)
            for a in range(ell):
                t = (base + c1 * (a - 1) * invb) % ell
                w = charpoly_count(ell, a, b).proportion
                acc[t] = acc.get(t, Fraction(0)) + w
    elif r == 2:
        c1, c2 = F.c[0].value, F.c[1].value
        counts = [[0] * ell] + [[charpoly_count(ell, a, b).count
                                 for a in range(ell)] for b in range(1, ell)]
        group = Fraction(gl2_order(ell) ** 2, ell - 1)
        for b in range(1, ell):
            invb = pow(b, -1, ell)
            for a1 in range(ell):
                n1 = counts[b][a1]
                if not n1:
                    continue
                for a2 in range(ell):
                    n2 = counts[b][a2]
                    if not n2:
                        continue
                    t = (base + (c1 * (a1 - 1) + c2 * (a2 - 1)) * invb) % ell
                    acc[t] = acc.get(t, Fraction(0)) + Fraction(n1 * n2) / group
    else:
        raise CapabilityError(
            f"asymptotic tables are implemented for rank <= 2, got {r}")
    if sum(acc.values(), Fraction(0)) != 1:
        raise InternalConsistencyError("asymptotic densities do not sum to 1")
    return DensityTable(F.d, ell, "asymptotic", acc)


EXPANSION_LIMIT = 100_000


def empirical_table(F: CongruenceFormula, x: int, threads: int = 1,
                    naive_limit: int = kernel.NAIVE_LIMIT) -> DensityTable:
    """Tally of the congruence values over primes p < x.

    Traces come from the level l modular curve for l in {11, 17, 19}
    (any x), otherwise from exact eigenform expansions (x capped).  p = l
    is excluded from the tallies but counted in the denominator pi(x).
    """
    if x < 3:
        raise InputError(f"need X >= 3 so that some prime lies below X, got {x}")
    ell = F.ell
    primes = sieve(x).primes
    total = len(primes)
    eligible = [p for p in primes if p != ell]
    base = (-24 * F.c0.value) % ell
    counts: Counter = Counter()
    if F.rank == 0:
        counts[base] = len(eligible)
    elif ell in X0_CURVES and F.rank == 1:
        curve = X0_CURVES[ell]
        c1 = F.c[0].value
        traces = ec_traces(curve, eligible, naive_limit, threads)
        for p, ap in zip(eligible, traces):
            t = (base + c1 * (ap - 1) * pow(p, ell - 2, ell)) % ell
            counts[t] += 1
    else:
        if x > EXPANSION_LIMIT:
            raise CapabilityError(
                f"l={ell} is not curve-backed; eigenform-expansion mode "
                f"supports x <= {EXPANSION_LIMIT}")
        basis = eigenbasis(ell, order=max(x - 1, 4))
        cs = [c.value for c in F.c]
        series = [[c.value for c in form.coeffs] for form in basis.forms]
        lead = [form.lead for form in basis.forms]
        for p in eligible:
            acc = 0
            for ci, coeffs, ld in zip(cs, series, lead):
                acc += ci * (coeffs[p - ld] - 1)
            t = (base + acc * pow(p, ell - 2, ell)) % ell
            counts[t] += 1
    return DensityTable(F.d, ell, "empirical", dict(counts), x=x, total=total)
