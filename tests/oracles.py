"""Independent reference computations used only by the tests.

Each one computes by a different or more literal route something the
package computes fast, so the tests can compare the two.  The
pentagonal-number product here is the independent route to Delta, which
the package builds only from E4 and E6, and the j-series route here is
the independent route to the log derivative of a class polynomial, which
the package builds from E2, E4^3 and Delta with no j.  The package takes
s_l and the twisted inverse nu from their closed forms; the factorization
of E_(l-1) and the Dirichlet inversion recurrence here are their checks,
and one Moebius sum per n checks the exponents' divisor sieve.
The kernel's baby-step/giant-step search is checked against one scalar
multiplication per N in the window.  The corollary's sufficient
conditions for eligibility are here as well, checked against the class
polynomials themselves.
"""

import cmath
from collections import Counter
from math import isqrt
from typing import NamedTuple

from bpx._eckernel_py import _ec_mul
from bpx.arith import divisors, is_fundamental_discriminant, kronecker, moebius
from bpx.classpoly import hilbert_class_poly
from bpx.errors import InputError, TruncationError
from bpx.qseries import (GF, QQ, ZZ, Poly, QSeries, eisenstein, jfunction,
                         monomial_basis, monomial_forms)


def f2_numeric(D: int, r: int) -> complex:
    """Direct floating-point Gauss sum sum_k (D/k) zeta_D^(kr).

    Its closed form for fundamental D > 1 is (D/r) sqrt(D).
    """
    return sum(kronecker(D, k) * cmath.exp(2j * cmath.pi * k * r / D)
               for k in range(1, D))


def pd_log_coeffs(D: int, n: int) -> list[complex]:
    """Coefficients of -t d/dt log P_D(t) for t^1..t^n, in complex floats.

    P_D(t) = prod_k (1 - zeta_D^k t)^((D/k)) is expanded as a power series
    factor by factor, and L = -t P'/P is read from -t P' = L P term by
    term; entry r should be the Gauss sum (D/r) sqrt(D).
    """
    p = [1] + [0] * n
    for k in range(1, D):
        z = cmath.exp(2j * cmath.pi * k / D)
        if kronecker(D, k) == 1:  # times 1 - z t
            p = [p[0]] + [p[i] - z * p[i - 1] for i in range(1, n + 1)]
        elif kronecker(D, k) == -1:  # divided by 1 - z t
            for i in range(1, n + 1):
                p[i] += z * p[i - 1]
    coeffs = []
    for r in range(1, n + 1):
        coeffs.append(-r * p[r] - sum(coeffs[j - 1] * p[r - j] for j in range(1, r)))
    return coeffs


def _ring_inverse(x):
    if isinstance(x, int):
        if x in (1, -1):
            return x
    elif x:
        return 1 / x
    raise InputError("no Dirichlet inverse: f(1) is not invertible")


def dirichlet_inverse(f) -> list:
    """Convolution inverse nu of f(1..N): (f*nu)(1) = 1, (f*nu)(n>1) = 0.

    The inversion recurrence, over any ring whose elements support +, -
    and * and in which f(1) is invertible; raises InputError otherwise.
    Applied to the character (D/r) it is the oracle for the closed form
    of borcherds.nu.
    """
    if not f:
        return []
    inv1 = _ring_inverse(f[0])
    nu = [inv1]
    for n in range(2, len(f) + 1):
        s = None
        for d in divisors(n):
            if d == n:
                continue
            term = nu[d - 1] * f[n // d - 1]
            s = term if s is None else s + term
        nu.append(-inv1 * s if s is not None else -inv1 * 0)
    return nu


def dirichlet_convolve(f, g) -> list:
    """(f*g)(n) = sum over d|n of f(d) g(n/d); inputs are f(1..N), g(1..N)."""
    out = []
    for n in range(1, min(len(f), len(g)) + 1):
        terms = [f[d - 1] * g[n // d - 1] for d in divisors(n)]
        out.append(sum(terms[1:], terms[0]))
    return out


def moebius_exponents(coeffs) -> list:
    """(1/n) sum over m|n of mu(n/m) L_m for n = 1..len(coeffs) - 1, one
    Moebius sum per n: the oracle for the divisor sieve of exact_exponents,
    with coeffs L_0, L_1, ... the log derivative's."""
    return [sum(moebius(n // m) * coeffs[m] for m in divisors(n)) / n
            for n in range(1, len(coeffs))]


def charpoly_table_bruteforce(ell: int) -> dict[tuple[int, int], int]:
    """Literal enumeration of GL2(F_l): counts per (trace, det), small l only."""
    table: Counter = Counter()
    for w in range(ell):
        for x in range(ell):
            for y in range(ell):
                for z in range(ell):
                    det = (w * z - x * y) % ell
                    if det:
                        table[((w + z) % ell, det)] += 1
    return dict(table)


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


def monomial_form_by_euler_product(a: int, b: int, c: int, n: int, ring) -> QSeries:
    """Delta^a E4^b E6^c to order n, each factor built on its own.

    Delta is q prod (1 - q^m)^24 from the pentagonal-number series, and
    every power is a separate chain of series products.
    """
    f = QSeries.one(ring, n)
    if a:
        f = f * (euler_product(n - 1, ring) ** 24).shift(1) ** a
    if b:
        f = f * eisenstein(4, n, ring) ** b
    if c:
        f = f * eisenstein(6, n, ring) ** c
    return f.truncate(n)


def zagier_g1(n: int) -> QSeries:
    """g_1 = theta_1(tau) E4(4 tau) / eta(4 tau)^6 = q^-1 - 2 + 248 q^3 - ..., to order n.

    Zagier ("Traces of singular moduli", 2002): A(1, d) = -b(d) for the
    coefficients b of this weight 3/2 form, theta_1 = sum (-1)^k q^(k^2).
    E4(4 tau) and eta(4 tau)^6 = q prod (1 - q^(4m))^6 are series in q^4, so
    their quotient is taken in q^4 and then spread out; no class polynomial
    and no j-series is involved.
    """
    m = (n + 1) // 4
    quotient = eisenstein(4, m, ZZ) / euler_product(m) ** 6
    spread = [0] * (n + 2)
    spread[::4] = quotient.coeffs  # q^(4i) for i = 0..m
    theta = [0] * (n + 2)
    for k in range(isqrt(n + 1) + 1):
        theta[k * k] = 1 if k == 0 else 2 * (-1) ** k
    return (QSeries(ZZ, 0, theta) * QSeries(ZZ, 0, spread)).shift(-1)


def evaluate_series(poly: Poly, s: QSeries) -> QSeries:
    """Horner evaluation of a polynomial at a q-series argument."""
    acc = QSeries.constant(s.ring, poly.coeffs[-1], max(s.trunc, 0))
    for c in reversed(poly.coeffs[:-1]):
        acc = acc * s + QSeries.constant(s.ring, c, max(s.trunc, 0))
    return acc


def log_derivative_by_j(d: int, n: int, ring) -> QSeries:
    """-q d/dq log of the weighted class polynomial at j, through the j-series.

    Each factor P (reduced mod l over GF(l)) is evaluated at j, S = P(j),
    and q S'/S is one series quotient; over ZZ the weighted sum is over QQ.
    """
    out_ring = QQ if ring is ZZ else ring
    j = jfunction(n, ring)
    total = QSeries.zero(out_ring, n)
    for poly, w in hilbert_class_poly(d).components:
        if ring is not ZZ:
            poly = poly.reduce_mod(ring.ell)
        li = evaluate_series(poly, j).log_derivative().truncate(n)
        total = total - QSeries(out_ring, li.lead, li.coeffs).scale(w)
    return total


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


def supersingular_poly_by_eisenstein(ell: int) -> Poly:
    """s_l from the weight factorization of E_(l-1) mod l.

    Divide E_(l-1) by Delta^m E4^d E6^e, where l - 1 = 12m + 4d + 6e,
    rewrite the weight-0 quotient as a polynomial in j, and reattach
    x^d (x - 1728)^e: the route the closed form of supersingular_poly is
    checked against.
    """
    m, de, ep = monomial_basis(ell - 1)[0]
    ring = GF(ell)
    # the quotient by Delta^m (valuation m) starts at q^-m and is known
    # only to q^(n - 2m)
    n = 2 * m + 8
    divisor, = monomial_forms([(m, de, ep)], n, ring)
    etilde = as_j_polynomial(eisenstein(ell - 1, n, ring) / divisor)
    x = Poly(ring, [ring.zero, ring.one])
    s = (x ** de) * (Poly.x_minus(ring, 1728) ** ep) * etilde
    return s.monic()


def charpoly(mat: list[list[int]], ell: int) -> Poly:
    """det(x I - M) over F_l by cofactor expansion over Poly; fine for small M."""
    ring = GF(ell)
    x = Poly(ring, [0, 1])
    entries = [[x - Poly(ring, [v]) if i == j else Poly(ring, [-v])
                for j, v in enumerate(row)] for i, row in enumerate(mat)]
    return _det_poly(entries)


def _det_poly(m: list[list[Poly]]) -> Poly:
    if len(m) == 1:
        return m[0][0]
    out = None
    for col in range(len(m)):
        minor = [row[:col] + row[col + 1:] for row in m[1:]]
        term = m[0][col] * _det_poly(minor)
        term = term if col % 2 == 0 else -term
        out = term if out is None else out + term
    return out


def charpoly_roots(mat: list[list[int]], ell: int) -> list[int]:
    """The distinct roots in F_l of det(x I - M), largest first, by a full scan."""
    coeffs = charpoly(mat, ell).coeffs
    return [t for t in range(ell - 1, -1, -1)
            if not sum(c * t ** i for i, c in enumerate(coeffs)) % ell]


def supersingular_j_invariants(ell: int) -> list[int]:
    """The supersingular j-invariants lying in F_l, by the literal point count."""
    nonres = next(n for n in range(2, ell) if kronecker(n, ell) == -1)
    return sorted(j // ell for j in supersingular_js_by_point_count(ell, nonres)
                  if j % ell == 0)


def supersingular_js_by_point_count(ell: int, nonres: int) -> list[int]:
    """Supersingular j in F_(l^2), encoded u*l + v with v <= (l-1)/2.

    Counts the points of y^2 = x^3 + c x + c, whose j-invariant is
    6912 c / (4 c + 27), over F_(l^2) = F_l(w), w^2 = nonres, by tallying
    the square of every y; j = 0 and 1728 take y^2 = x^3 + 1 and
    y^2 = x^3 + x.  The curve is supersingular iff l divides its trace.
    """
    elems = [(u, v) for u in range(ell) for v in range(ell)]

    def mul(x, y):
        return ((x[0] * y[0] + nonres * x[1] * y[1]) % ell,
                (x[0] * y[1] + x[1] * y[0]) % ell)

    def add(x, y):
        return (x[0] + y[0]) % ell, (x[1] + y[1]) % ell

    def inv(x):
        norm = pow((x[0] * x[0] - nonres * x[1] * x[1]) % ell, -1, ell)
        return x[0] * norm % ell, -x[1] * norm % ell

    roots = Counter(mul(y, y) for y in elems)

    def trace(a, b):
        points = 1 + sum(roots[add(add(mul(mul(x, x), x), mul(a, x)), b)]
                         for x in elems)
        return ell * ell + 1 - points

    one, zero = (1, 0), (0, 0)
    out = []
    for j in elems:
        if j[1] > (ell - 1) // 2:
            continue
        if j == zero:
            a, b = zero, one
        elif j == (1728 % ell, 0):
            a, b = one, zero
        else:
            # 6912 c / (4 c + 27) = j  <=>  c = 27 j / (6912 - 4 j)
            c = mul(mul((27 % ell, 0), j),
                    inv(add((6912 % ell, 0), mul(((-4) % ell, 0), j))))
            a, b = c, c
        if trace(a, b) % ell == 0:
            out.append(j[0] * ell + j[1])
    return out


def annihilators_bruteforce(P, a: int, p: int, lo: int, hi: int) -> list[int]:
    """Every N in [lo, hi] with N*P = O on y^2 = x^3 + a x + b over F_p."""
    return [N for N in range(lo, hi + 1) if _ec_mul(N, P, a, p) is None]


class CorollaryReport(NamedTuple):
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
    """The inertia / Kronecker / size conditions that imply eligibility of (d, l)."""
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
