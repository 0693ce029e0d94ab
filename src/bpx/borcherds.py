"""Exact product exponents of class polynomials and their congruences mod l.

The generating identity: writing the weighted class polynomial evaluated
at j as q^(-h(d)) prod (1-q^n)^A(n^2,d), the negated logarithmic
q-derivative L(q) has constant term h(d) and [q^n] L = sum over m|n of
m A(m^2,d).  One routine computes 6 L over either ring, with no j-series
and no rationals: each factor P of degree k becomes the holomorphic form
T = Delta^k P(E4^3/Delta), and its share of 6 L is 6 w (k E2 - q T'/T)
for its Hurwitz weight w in {1, 1/2, 1/3}.  Over Z it gives the
exponents, solved by even and odd sections and recovered by an integer
Moebius inversion whose exactness is asserted, not assumed; over F_l,
with P reduced mod l and the forms built mod l, it gives the
congruences.  ``check`` needs only A mod l and
the divisibility 6n | 6nA, so it solves and inverts in Z/M for
M = 6 l lcm(1..n_max) (``exponent_residues``).  Every divisor inversion
here (exponents, fitted congruence, twisted round trip) is
``_divisor_sieve``.

Fitting: over F_l the series L is a combination of E_{l+1} and the
weight l+1 cusp eigenforms; the constant term gives c0 and an r x r
linear solve on coefficients q^1..q^r gives c_1..c_r, after which the
whole series identity is re-verified to the requested order.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .arith import (Record, divisors, is_fundamental_discriminant, kronecker,
                    moebius, sigma)
from .classpoly import degree_rules_out, eligibility, hilbert_class_poly
from .errors import (IneligiblePairError, InputError,
                     InternalConsistencyError, TruncationError)
from .qseries import (GF, QQ, ZZ, QSeries, _solve_sections, _solve_triangular,
                      eisenstein, monomial_basis, monomial_forms)
from .ssforms import _solve_linear_mod, eigenbasis


class ExponentTable(Record):
    """Exact exponents A(n^2, d) for 1 <= n <= n_max."""

    __slots__ = ("d", "n_max", "values")  # int, int, tuple[int, ...]

    def __getitem__(self, n: int) -> int:
        if not 1 <= n <= self.n_max:
            raise InputError(f"index {n} outside 1..{self.n_max}")
        return self.values[n - 1]

    def to_document(self) -> dict:
        return {"d": self.d, "n_max": self.n_max, "values": list(self.values)}


def _log_derivative(d: int, n: int, ring, cache_dir: str | None,
                    modulus: int | None = None) -> QSeries:
    """6 L, for L = -q d/dq log of the weighted class polynomial at j, to order n.

    ring is ZZ or GF(l) (each factor is reduced mod l first), and the
    series stays in it: a factor of weight w in {1, 1/2, 1/3} enters with
    the integer 6 w.  A monic factor P of degree k gives the holomorphic
    form T = Delta^k P(E4^3/Delta) with constant term 1, built by
    homogeneous Horner from E4^3 and Delta^1..Delta^k, all from one
    ``monomial_forms`` table shared by every factor.  Since
    q Delta'/Delta = E2, the factor's -q S'/S for S = P(j) is
    k E2 - q T'/T: no j-series, and T's coefficients grow only
    polynomially.  For P = x and x - 1728, T = E4^3 and E6^2, and q T'/T
    is m q R'/R for R = E4, m = 3 and R = E6, m = 2 in any ring; R comes
    from the same table, and if every factor is one of these no E4^3,
    Delta^k or T is built.  The constant term is 6 h(d) (checked).

    Over ZZ, q T'/T is ``_solve_sections``'s solve.  With a modulus M it
    is the direct solve mod M, where a split only widens the divisor, so
    the series is congruent to 6 L mod M; its constant term, which the
    solve does not touch, stays the integer.
    """
    wcp = hilbert_class_poly(d, cache_dir=cache_dir)
    roots = {(0, 1): ((0, 1, 0), 3), (-1728, 1): ((0, 0, 1), 2)}
    keys = [tuple(p.coeffs) for p, _ in wcp.components]
    k_max = max((len(key) - 1 for key in keys if key not in roots), default=0)
    monos = [roots[key][0] for key in keys if key in roots]
    if k_max:
        monos += [(0, 3, 0)] + [(a, 0, 0) for a in range(1, k_max + 1)]
    forms = dict(zip(monos, monomial_forms(monos, n, ring)))
    e2 = eisenstein(2, n, ring)
    total = QSeries.zero(ring, n)
    for (poly, w), key in zip(wcp.components, keys):
        mono, m = roots.get(key, (None, 1))
        t = forms.get(mono)
        if t is None:
            if ring is not ZZ:
                poly = poly.reduce_mod(ring.ell)
            *rest, top = poly.coeffs
            t = QSeries.constant(ring, top, n)
            for a, c in enumerate(reversed(rest), 1):
                t = t * forms[(0, 3, 0)] + forms[(a, 0, 0)].scale(c)
        if ring is not ZZ:
            dlog = t.log_derivative()
        else:  # T_0 = 1, so q T'/T is the triangular solve itself
            s, qs = t.coeffs, t.q_derivative().coeffs
            dlog = QSeries(ring, 0, _solve_triangular(s, qs, ring, modulus)
                           if modulus else _solve_sections(s, qs))
        total = total + (e2.scale(poly.degree) - dlog.scale(m)).scale(6 * w)
    if total.coeff(0) != ring.coerce(6 * wcp.h):
        raise InternalConsistencyError(
            f"constant term {total.coeff(0)} != 6 h({d}) = {6 * wcp.h} over {ring.name}")
    return total


def log_derivative_exact(d: int, n: int, cache_dir: str | None = None) -> QSeries:
    """-q d/dq log of the weighted class polynomial at j, over Q, to order n."""
    six_l = _log_derivative(d, n, ZZ, cache_dir)
    return QSeries(QQ, 0, [Fraction(c, 6) for c in six_l.coeffs])


def _divisor_sieve(B: list[int], chi=None) -> list[int]:
    """Invert B(n) = sum_{m|n} chi(n/m) b(m) in place, for n = 1..len(B) - 1.

    chi lists chi(0..len(B) - 1), completely multiplicative with
    chi(1) = 1; None is chi = 1, the Moebius inversion.  For n ascending,
    B[n] has lost the terms of its proper divisors, so it is b(n), and
    chi(k) b(n) is taken off B[kn] for every k >= 2.
    """
    n_max = len(B) - 1
    if chi is None:
        chi = [1] * (n_max + 1)
    for n in range(1, n_max // 2 + 1):
        for k, kn in enumerate(range(2 * n, n_max + 1, n), 2):
            B[kn] -= chi[k] * B[n]
    return B


def _exponent_quotients(d: int, n_max: int, cache_dir: str | None,
                        modulus: int | None = None) -> list[int]:
    """b(n) / (6 n) for n = 1..n_max, b the divisor sieve of 6 L (mod modulus).

    b(n) = 6 n A(n^2, d) must divide exactly; the first n where it does
    not is reported.  With a modulus M that 6 n divides, b(n) mod M
    divides exactly when b(n) does, with the same gcd, so the check and
    its first failing n are the same; the quotient is then A(n^2, d) mod
    M / (6 n), and the message's numerator is known mod M / gcd.
    """
    if n_max < 0:
        raise InputError(f"n_max must be >= 0, got {n_max}")
    B = _divisor_sieve(_log_derivative(d, n_max, ZZ, cache_dir, modulus).coeffs)
    out = []
    for n in range(1, n_max + 1):
        b = B[n] % modulus if modulus else B[n]
        a, r = divmod(b, 6 * n)
        if r:
            g = gcd(b, 6 * n)
            known = f" (numerator mod {modulus // g})" if modulus else ""
            raise InternalConsistencyError(
                f"exponent A({n}^2,{d}) = {b // g}/{6 * n // g}{known} is not an integer")
        out.append(a)
    return out


def exact_exponents(d: int, n_max: int, cache_dir: str | None = None) -> ExponentTable:
    """A(n^2, d) for n = 1..n_max by Moebius inversion of the log derivative.

    The inversion runs over the integers, on the coefficients of 6 L, and
    its exactness is checked (``_exponent_quotients``).
    """
    return ExponentTable(d, n_max, tuple(_exponent_quotients(d, n_max, cache_dir)))


def exponent_residues(d: int, ell: int, n_max: int,
                      cache_dir: str | None = None) -> list[int]:
    """A(n^2, d) mod l for n = 1..n_max, from 6 L in Z/M for M = 6 l lcm(1..n_max).

    Reduction mod M is a ring homomorphism, and the solve for q T'/T and
    the divisor sieve are ring operations, so the sieve gives
    b(n) = 6 n A(n^2, d) mod M.  As 6 n divides M, the integrality check
    is the one ``exact_exponents`` makes; as 6 n l divides M, b(n) mod
    6 n l is 6 n (A mod l).  M has hundreds of bits where the exponents
    have thousands.
    """
    if ell < 1:
        raise InputError(f"ell must be >= 1, got {ell}")
    modulus = 6 * ell * lcm(*range(1, n_max + 1))
    return [a % ell for a in _exponent_quotients(d, n_max, cache_dir, modulus)]


def log_derivative_mod(d: int, ell: int, n: int,
                       cache_dir: str | None = None) -> QSeries:
    """The log derivative computed over F_l directly, for eligible (d, l)."""
    if (degree_rules_out(d, ell)
            or not eligibility(d, ell, cache_dir=cache_dir).divides):
        raise IneligiblePairError(
            f"H_{d} mod {ell} does not divide s_{ell}: the weight l+1 "
            f"membership hypothesis fails for (d={d}, l={ell})")
    return _log_derivative(d, n, GF(ell), cache_dir).scale(pow(6, -1, ell))


class CongruenceFormula(Record):
    """Fitted data: A(n^2,d) = (1/n) sum_{m|n} mu(n/m)(-24 c0 sigma_1(m) + sum c_i a_i(m)) mod l."""

    __slots__ = ("d", "ell", "c0", "c", "basis", "verified_to")

    @property
    def rank(self) -> int:
        return len(self.c)

    def series(self, n: int) -> QSeries:
        """The fitted log derivative c0 E_2 + sum c_i f_i over F_l to order n:
        E_(l+1) = E_2 mod l by Kummer's congruence and Fermat, so no B_(l+1)."""
        out = eisenstein(2, n, GF(self.ell)).scale(self.c0)
        for ci, form in zip(self.c, self.basis.forms):
            out = out + form.truncate(n).scale(ci)
        return out

    def to_document(self) -> dict:
        return {
            "d": self.d,
            "ell": self.ell,
            "c0": self.c0,
            "c": list(self.c),
            "basis": [self.basis.describe(i) for i in range(self.basis.dim)],
            "t2_eigenvalues": list(self.basis.t2_eigenvalues),
            "verified_to": self.verified_to,
        }


def fit_congruence(d: int, ell: int, verify_to: int | None = None,
                   cache_dir: str | None = None) -> CongruenceFormula:
    """Fit c0, c_1..c_r and verify the full series identity to the stated order.

    The fit solves for the coefficients of q^0..q^r, so verify_to must be at
    least r + 1 for the verification to test anything.
    """
    r = len(monomial_basis(ell + 1, cusp_only=True))
    if verify_to is not None and verify_to <= r:
        raise InputError(
            f"verify_to must be at least r + 1 = {r + 1} for l={ell}: the fit "
            f"solves for q^0..q^{r}, so a lower order verifies nothing")
    n = verify_to if verify_to is not None else max(200, 3 * r)
    # eligibility before the costlier eigenbasis, so an ineligible pair
    # is reported as such
    lbar = log_derivative_mod(d, ell, n, cache_dir=cache_dir)
    basis = eigenbasis(ell, order=n)
    c0 = lbar.coeff(0)
    e2 = eisenstein(2, r, GF(ell))
    rows = [[basis.coefficient(i, m) for i in range(r)] for m in range(1, r + 1)]
    rhs = [lbar.coeff(m) - c0 * e2.coeff(m) for m in range(1, r + 1)]
    try:
        cvec = _solve_linear_mod(rows, rhs, ell)
    except InputError as exc:
        raise InternalConsistencyError(
            f"eigenform coefficient matrix is singular for l={ell}: "
            f"{exc}") from exc
    F = CongruenceFormula(d, ell, c0, tuple(cvec), basis, n)
    m = (lbar - F.series(n)).valuation()
    if m is not None:
        raise InternalConsistencyError(
            f"congruence verification failed at q^{m} for (d={d}, l={ell})")
    return F


def formula_eval(F: CongruenceFormula, n: int) -> int:
    """Evaluate the fitted congruence at n coprime to l (D = 1, nu = mu)."""
    ell = F.ell
    if n % ell == 0:
        raise InputError(f"theorem hypothesis l does not divide n violated: {n}")
    if F.basis.dim and F.basis.order < n:
        raise TruncationError(
            f"eigenform expansions only reach order {F.basis.order} < {n}")
    total = 0
    for m in divisors(n):
        mu = moebius(n // m)
        if mu:
            total += mu * (-24 * F.c0 * sigma(1, m)
                           + sum(ci * form.coeff(m) for ci, form in zip(F.c, F.basis.forms)))
    # division by n via the Fermat inverse n^(l-2)
    return total * pow(n, ell - 2, ell) % ell


def formula_eval_primes(F: CongruenceFormula, primes, columns) -> list[int]:
    """The congruence at primes: -24 c0 + p^(-1) sum c_i (a_i(p) - 1) mod l.

    columns holds one list of plain-int a_i(p) per eigenform, aligned with
    primes; the residues t come back in the same order.  The sum runs one
    pass per column, and p^(-1) comes from a table of the inverses mod l.
    """
    ell = F.ell
    bad = next((p for p in primes if p % ell == 0), None)
    if bad is not None:
        raise InputError(f"theorem hypothesis l does not divide n violated: {bad}")
    base = (-24 * F.c0) % ell
    if not F.c:
        return [base] * len(primes)
    acc = [0] * len(primes)
    for ci, col in zip(F.c, columns):
        acc = [s + ci * (a - 1) for s, a in zip(acc, col)]
    inv = [0, *(pow(u, -1, ell) for u in range(1, ell))]
    return [(base + s * inv[p % ell]) % ell for s, p in zip(acc, primes)]


def verify_congruence(d: int, ell: int, n_max: int,
                      cache_dir: str | None = None) -> tuple[int, int]:
    """A mod l by the integer route vs the formula, n <= n_max, l not dividing n.

    The integer route is ``exponent_residues``: the exact exponents'
    solve and sieve run in Z/M for M = 6 l lcm(1..n_max), which gives
    the same integrality failures and the same A mod l as the full
    integers, at a fraction of their size.  The formula is the divisor
    sieve of the fitted series c0 E_2 + sum c_i f_i, whose n-th value is
    n A(n^2, d) mod l.  Returns (verified, skipped); raises
    InternalConsistencyError with the first failing index otherwise.
    """
    F = fit_congruence(d, ell, verify_to=max(n_max, 200), cache_dir=cache_dir)
    residues = exponent_residues(d, ell, n_max, cache_dir=cache_dir)
    b = _divisor_sieve(F.series(n_max).coeffs)
    verified = skipped = 0
    for n in range(1, n_max + 1):
        if n % ell == 0:
            skipped += 1
            continue
        want = b[n] * pow(n, -1, ell) % ell
        if residues[n - 1] != want:
            raise InternalConsistencyError(
                f"exact A({n}^2,{d}) = {residues[n - 1]} mod {ell} != formula value {want}")
        verified += 1
    return verified, skipped


# ---------------------------------------------------------------------------
# the twisted (D > 1) machinery, in ints: every Gauss sum is (D/r) sqrt(D)


def _check_twist(D: int) -> None:
    if D <= 1 or not is_fundamental_discriminant(D):
        raise InputError(f"D must be a fundamental discriminant > 1, got {D}")


def nu(D: int, m: int) -> int:
    """mu(m) (D/m), the Dirichlet inverse at m of the character r -> (D/r).

    (D/r) is completely multiplicative, so its inverse is mu (D/.); the
    inverse of the Gauss sums f2(D, r) = (D/r) sqrt(D) is nu(m) / sqrt(D).
    """
    _check_twist(D)
    if m < 1:
        raise InputError(f"index must be >= 1, got {m}")
    return moebius(m) * kronecker(D, m)


def twisted_forward(D: int, a_seq) -> list[int]:
    """G(n) = sum_{m|n} m A(m) (D/(n/m)) for n = 1..len(a_seq).

    The twisted log-derivative coefficients are g(n) = G(n) sqrt(D).
    """
    _check_twist(D)
    n_max = len(a_seq)
    chi = [kronecker(D, k) for k in range(n_max + 1)]
    G = [0] * (n_max + 1)
    for m, a in enumerate(a_seq, 1):
        for k, km in enumerate(range(m, n_max + 1, m), 1):
            G[km] += chi[k] * m * a
    return G[1:]


def twisted_roundtrip(D: int, a_seq, n_max: int | None = None) -> list[int]:
    """Push a synthetic exponent sequence through G and invert it again.

    The divisor sieve with chi = (D/.) gives n A(n) back from G, and the
    division by n must be exact.
    """
    a_seq = list(a_seq)
    n_max = len(a_seq) if n_max is None else n_max
    if not 0 <= n_max <= len(a_seq):
        raise InputError(
            f"n_max must satisfy 0 <= n_max <= len(a_seq) = {len(a_seq)}, got {n_max}")
    chi = [kronecker(D, k) for k in range(n_max + 1)]
    b = _divisor_sieve([0, *twisted_forward(D, a_seq[:n_max])], chi)
    out = []
    for n in range(1, n_max + 1):
        a, r = divmod(b[n], n)
        if r:
            raise InternalConsistencyError(
                f"twisted inversion at n={n} is not integral: {Fraction(b[n], n)}")
        out.append(a)
    return out
