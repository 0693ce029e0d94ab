"""Characteristic-polynomial densities in GL2(F_l) and the delta tables.

The asymptotic side is pure group theory: the r eigenform representations
are coupled only through their common determinant, so one sum over that
determinant, of the convolved GL2 trace-class counts, gives the exact
proportion of each residue t for any rank r.  The empirical side runs
over all primes p < X, taking the curve trace at p for the level l = 11,
17, 19 curves (or exact eigenform coefficients for other moduli) as
columns of a_i(p), and tallies the congruence values at those primes.
At l = 11 on the pure-Python kernel, up to X = EXPANSION_LIMIT, the
traces are the coefficients of an eta-product, from one transform square
on ``decimal`` that is faster than the point counts.
"""

from __future__ import annotations

import os
from array import array
from collections import Counter
from fractions import Fraction

from . import kernel
from .arith import Record, is_prime, kronecker, sieve
from .borcherds import CongruenceFormula, formula_eval_primes
from .errors import CapabilityError, InputError, InternalConsistencyError
from .qseries import _square_at, pentagonal, transform_decimal
from .ssforms import eigenbasis


# ---------------------------------------------------------------------------
# GL2 characteristic polynomial frequencies


def gl2_order(ell: int) -> int:
    return (ell * ell - 1) * (ell * ell - ell)


class CharpolyCount(Record):
    __slots__ = ("ell", "count")  # int, int

    @property
    def proportion(self) -> Fraction:
        return Fraction(self.count, gl2_order(self.ell))


def charpoly_count(ell: int, a: int, b: int) -> CharpolyCount:
    """Elements of GL2(F_l) with trace a and determinant b (b nonzero).

    The count is l (l + chi(a^2 - 4b)), chi the Legendre symbol mod l with
    chi(0) = 0: the characteristic polynomial x^2 - a x + b has two roots
    in F_l, none, or one repeated root.
    """
    if ell < 3 or not is_prime(ell):
        raise InputError(f"need an odd prime, got {ell}")
    if b % ell == 0:
        raise InputError("determinant 0 is not in GL2")
    count = ell * (ell + kronecker((a * a - 4 * b) % ell, ell))
    return CharpolyCount(ell, count)


# ---------------------------------------------------------------------------
# elliptic curves


class EllCurve(Record):
    """Integral Weierstrass model y^2 + a1 xy + a3 y = x^3 + a2 x^2 + a4 x + a6."""

    __slots__ = ("a1", "a2", "a3", "a4", "a6", "label")

    def __init__(self, a1: int, a2: int, a3: int, a4: int, a6: int, label: str = ""):
        super().__init__(a1, a2, a3, a4, a6, label)
        if self.discriminant == 0:
            raise InputError("singular Weierstrass model")

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


def ec_trace(E: EllCurve, p: int) -> int:
    """Trace of Frobenius a(p) = p + 1 - #E(F_p) at a good-reduction prime."""
    if not is_prime(p):
        raise InputError(f"{p} is not prime")
    if E.discriminant % p == 0:
        raise InputError(f"{E.label or 'curve'} has bad reduction at {p}")
    return ec_traces(E, [p])[0]


def _usable_cpus() -> int:
    """Number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        return os.cpu_count() or 1


def ec_traces(E: EllCurve, primes, naive_limit: int = kernel.NAIVE_LIMIT) -> list[int]:
    """Traces at many good primes, in prime order whatever the thread count.

    With the compiled kernel, whose trace loop releases the GIL, blocks of
    4096 primes run on one thread per usable CPU, at most one per block.
    The pure-Python kernel holds the GIL, so there threads would only add
    overhead and none are started.
    """
    primes = list(primes)
    small = [p for p in primes if p < 5]
    big = [p for p in primes if p >= 5]
    A, B = E.short_form
    out_small = [_trace_tiny(E, p) for p in small]
    blocks = [big[i:i + 4096] for i in range(0, len(big), 4096)]
    workers = min(_usable_cpus(), len(blocks)) if kernel.BACKEND == "compiled" else 1
    if workers <= 1:
        out_big = kernel.ec_traces(A, B, big, naive_limit)
    else:
        from concurrent.futures import ThreadPoolExecutor  # this branch only

        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(
                lambda blk: kernel.ec_traces(A, B, blk, naive_limit), blocks))
        out_big = [t for part in parts for t in part]
    merged = dict(zip(small, out_small))
    merged.update(zip(big, out_big))
    return [merged[p] for p in primes]


def x0_11_eta_traces(primes: list[int]) -> list[int]:
    """a(p) of X0(11) at ascending primes p != 11, from its weight 2 newform.

    The newform is the eta-quotient q prod (1 - q^n)^2 (1 - q^(11n))^2
    (Martin, Trans. AMS 348, 1996), that is q F^2 with F = E(q) E(q^11)
    for Euler's pentagonal series E, so a(p) = [q^(p-1)] F^2.  F comes from
    the sparse terms of the two series, and F^2 from one transform square,
    ``qseries._square_at``, read at the slots p - 1, with no point count.
    """
    n = primes[-1] if primes else 0
    f = array("b", bytes(n))
    terms = list(pentagonal(n))
    for e11, s11 in pentagonal(-(-n // 11)):
        base = 11 * e11
        for e, s in terms:
            if base + e >= n:
                break
            f[base + e] += s * s11
    return _square_at(f, [p - 1 for p in primes])


# ---------------------------------------------------------------------------
# density tables


class DensityTable(Record):
    """Per-residue densities of the congruence values: kind "asymptotic" maps t
    to a Fraction, "empirical" to a count of the primes p < x, total = pi(x)."""

    __slots__ = ("d", "ell", "kind", "entries", "x", "total")
    __setattr__, __delattr__, __hash__ = object.__setattr__, object.__delattr__, None

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

    def to_document(self) -> dict:
        return {"d": self.d, "ell": self.ell, "kind": self.kind,
                "x": self.x, "total": self.total, "rows": self.to_rows()}


def asymptotic_table(F: CongruenceFormula) -> DensityTable:
    """Chebotarev limit of the congruence-value distribution, exact rationals.

    The r eigenform representations are coupled only through their common
    determinant b, so for each b the value sum c_i (a_i - 1) is distributed
    as the convolution over Z/l of the r trace distributions, weighted by
    the GL2 class counts; t = base + s b^-1 then tallies integer masses
    over N = (l-1) (|GL2(F_l)| / (l-1))^r elements in all, for any rank r.
    """
    ell = F.ell
    base = (-24 * F.c0) % ell
    tally = [0] * ell
    for b in range(1, ell):
        counts = [charpoly_count(ell, a, b).count for a in range(ell)]
        dist = [1] + [0] * (ell - 1)
        for ci in F.c:
            factor = [0] * ell
            for a, n in enumerate(counts):
                factor[ci * (a - 1) % ell] += n
            dist = [sum(dist[u] * factor[(s - u) % ell] for u in range(ell))
                    for s in range(ell)]
        invb = pow(b, -1, ell)
        for s, mass in enumerate(dist):
            tally[(base + s * invb) % ell] += mass
    total = (ell - 1) * (gl2_order(ell) // (ell - 1)) ** F.rank
    if sum(tally) != total:
        raise InternalConsistencyError("asymptotic densities do not sum to 1")
    acc = {t: Fraction(n, total) for t, n in enumerate(tally) if n}
    return DensityTable(F.d, ell, "asymptotic", acc, None, None)


EXPANSION_LIMIT = 100_000


def empirical_table(F: CongruenceFormula, x: int) -> DensityTable:
    """Tally of the congruence values over primes p < x.

    Traces come from the level l modular curve for l in {11, 17, 19}
    (any x), otherwise from exact eigenform expansions (x capped).  p = l
    is excluded from the tallies but counted in the denominator pi(x).
    At l = 11 they are read from X0(11)'s eta-product when the trace kernel
    is the pure-Python one, x <= EXPANSION_LIMIT and ``decimal`` is the C
    libmpdec: there one transform square takes a fraction of the point
    counts' time.  The compiled kernel's traces are faster than the square,
    and past the limit the square's memory grows faster than the traces'
    (measured in benchmarks/bench_kernels.py); X0(17) and X0(19) are not
    eta-quotients.  Both routes give the same a(p).
    """
    if x < 3:
        raise InputError(f"need X >= 3 so that some prime lies below X, got {x}")
    ell = F.ell
    curve = ell in X0_CURVES and F.rank == 1
    if F.rank and not curve and x > EXPANSION_LIMIT:
        raise CapabilityError(
            f"l={ell} is not curve-backed; eigenform-expansion mode "
            f"supports x <= {EXPANSION_LIMIT}")
    primes = sieve(x).primes
    total = len(primes)
    eligible = [p for p in primes if p != ell]
    if curve:
        if (ell == 11 and kernel.BACKEND == "python" and x <= EXPANSION_LIMIT
                and transform_decimal()):
            columns = [x0_11_eta_traces(eligible)]
        else:
            columns = [ec_traces(X0_CURVES[ell], eligible)]
    elif F.rank:
        basis = eigenbasis(ell, order=max(x - 1, 4))
        columns = [[form.coeffs[p - form.lead] for p in eligible]
                   for form in basis.forms]
    else:
        columns = []
    counts = Counter(formula_eval_primes(F, eligible, columns))
    return DensityTable(F.d, ell, "empirical", dict(counts), x, total)
