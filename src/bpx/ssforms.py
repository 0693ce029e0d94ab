"""Supersingular polynomials, Hecke operators, and eigenbases mod l.

The supersingular polynomial s_l comes from Kaneko and Zagier's closed
form, a truncated hypergeometric series in 1728/j mod l; brute-force
point counting over F_(l^2) is the independent oracle.  Level-1 Hecke
operators act on q-expansions, and for the weight l+1 cusp space we
diagonalize T_2 over F_l to get the normalized eigenforms the exponent
congruences are expressed in.

The eigenforms are fixed on the monomials Delta^a E4^b E6^c to order
2r + 2, r = dim S_(l+1).  Their long expansions come from r other cusp
forms, chosen by rank mod l on q^1..q^r: first the Eisenstein pairs
E_a E_(l+1-a) - E_(l+1), one series product each (E_(l+1) = E_2 mod l),
then monomials where the pairs fall short.  At l = 31 the pairs a = 4
and 6 span S_32 mod 31, so an expansion to order n takes two products of
length n where the monomial ladder took seven.
"""

from __future__ import annotations

from functools import lru_cache

from . import kernel
from .arith import Record, bernoulli_mod, is_prime, kronecker
from .errors import InputError, InternalConsistencyError, TruncationError
from .qseries import (GF, Poly, QSeries, _kron_mul, eisenstein, monomial_basis,
                      monomial_forms)


@lru_cache(maxsize=None)
def supersingular_poly(ell: int) -> Poly:
    """Monic s_l(x) over F_l whose roots are the supersingular j-invariants.

    Kaneko and Zagier's closed form: with l - 1 = 12m + 4d + 6e, s_l is
    x^d (x - 1728)^e times x^m 2F1(a/12, b/12; 1; 1728/x) cut after
    (1728/x)^m, where (a, b) = (1, 5) if e = 0 and (7, 11) if e = 1.
    Computed once per l (Poly values are never mutated in place).
    """
    if ell < 5 or not is_prime(ell):
        raise InputError(f"need a prime l >= 5, got {ell}")
    # the first basis monomial is the one with a = m: l - 1 = 12m + 4d + 6e
    m, de, ep = monomial_basis(ell - 1)[0]
    a, b = (7, 11) if ep else (1, 5)
    c = [1]  # c_i is the coefficient of x^(m-i); each i + 1 <= m < l is a unit
    for i in range(m):
        c.append(12 * (a + 12 * i) * (b + 12 * i) * c[-1]
                 * pow((i + 1) * (i + 1), -1, ell) % ell)
    ring = GF(ell)
    return Poly(ring, [0] * de + c[::-1]) * Poly.x_minus(ring, 1728) ** ep


def _nonresidue(ell: int) -> int:
    n = 2
    while kronecker(n, ell) != -1:
        n += 1
    return n


# largest l for the point-count oracle (0.6 s at l = 199 on the kernel's
# character-sum correlation)
BRUTEFORCE_MAX_ELL = 200


def _ss_encoded(ell: int) -> tuple[int, list[int]]:
    if ell < 5 or ell > BRUTEFORCE_MAX_ELL or not is_prime(ell):
        raise InputError("brute-force enumeration expects a prime "
                         f"5 <= l <= {BRUTEFORCE_MAX_ELL}")
    ns = _nonresidue(ell)
    return ns, kernel.supersingular_js_fq2(ell, ns)


def supersingular_poly_bruteforce(ell: int) -> Poly:
    """Product of (x - j) over all supersingular j in F_(l^2), by point counting.

    The independent oracle for supersingular_poly: j-invariants are found
    by counting points (trace divisible by l over F_(l^2)) through the
    kernel's character-sum correlation, the same on both backends;
    conjugate pairs u +- v sqrt(ns) assemble into quadratic factors.
    """
    ring = GF(ell)
    ns, js = _ss_encoded(ell)
    out = Poly(ring, [ring.one])
    for j in js:
        u, v = divmod(j, ell)
        if v == 0:
            out = out * Poly.x_minus(ring, u)
        else:
            norm = (u * u - ns * v * v) % ell
            out = out * Poly.from_ints(ring, [norm, -2 * u, 1])
    return out


# ---------------------------------------------------------------------------
# Hecke operators and eigenbases


def hecke_Tp(f: QSeries, p: int, k: int, out_order: int | None = None) -> QSeries:
    """Level-1 T_p on weight k: a(n) -> a(pn) + p^(k-1) a(n/p).

    The input must be supplied to order p*out_order.
    """
    if not is_prime(p):
        raise InputError(f"T_p needs p prime, got {p}")
    if f.lead < 0:
        raise InputError("T_p here acts on holomorphic expansions (lead >= 0)")
    n_out = f.trunc // p if out_order is None else out_order
    if f.trunc < p * n_out:
        raise TruncationError(
            f"T_{p} to order {n_out} needs input order {p * n_out}, have {f.trunc}")
    ring = f.ring
    pk = ring.coerce(p ** (k - 1))
    out = []
    for n in range(n_out + 1):
        c = f.coeff(p * n)
        if n % p == 0:
            c = c + pk * f.coeff(n // p)
        out.append(c)
    return QSeries(ring, 0, out)


class EigenformBasis(Record):
    """Normalized Hecke eigenforms spanning the weight l+1 cusp space mod l."""

    __slots__ = ("ell", "order", "forms", "t2_eigenvalues", "monomial_combos")

    @property
    def dim(self) -> int:
        return len(self.forms)

    def coefficient(self, i: int, n: int) -> int:
        return self.forms[i].coeff(n)

    def describe(self, i: int) -> str:
        parts = []
        for (a, b, c), coef in self.monomial_combos[i]:
            factors = [f"{name}^{e}" if e > 1 else name
                       for name, e in (("Delta", a), ("E4", b), ("E6", c)) if e]
            mono = "*".join(factors) if factors else "1"
            parts.append(mono if coef == 1 else f"{coef}*{mono}")
        return " + ".join(parts)


def _row_reduce(rows: list[list[int]], ell: int) -> tuple[list[list[int]], list[int]]:
    """Gauss-Jordan over F_l: the reduced row echelon form and its pivot columns."""
    a = [[v % ell for v in row] for row in rows]
    pivots: list[int] = []
    for col in range(len(a[0]) if a else 0):
        top = len(pivots)
        piv = next((i for i in range(top, len(a)) if a[i][col]), None)
        if piv is None:
            continue
        a[top], a[piv] = a[piv], a[top]
        inv = pow(a[top][col], -1, ell)
        a[top] = [v * inv % ell for v in a[top]]
        for i, row in enumerate(a):
            f = row[col]
            if i != top and f:
                a[i] = [(u - f * v) % ell for u, v in zip(row, a[top])]
        pivots.append(col)
    return a, pivots


def _solve_linear_mod(rows: list[list[int]], rhs: list[int], ell: int) -> list[int]:
    """x with rows x = rhs over F_l; raises on a singular system."""
    n = len(rows)
    reduced, pivots = _row_reduce([row + [b] for row, b in zip(rows, rhs)], ell)
    if pivots != list(range(n)):
        raise InputError("singular linear system over F_l")
    return [row[n] for row in reduced]


def eigenbasis(ell: int, order: int = 60) -> EigenformBasis:
    """Simultaneous normalized T_p eigenforms of S_{l+1} over F_l.

    Requires T_2 to act with distinct eigenvalues in F_l; eigenforms are
    ordered by decreasing T_2 eigenvalue representative.  The eigenforms
    are found on the monomial generators to order 2r + 2, which fixes
    them, since a cusp form mod l is determined by q^1..q^r.  Each long
    expansion is then the combination of the r forms of
    ``cusp_generators`` with the same q^1..q^r, mostly Eisenstein-pair
    products of one series product each, and must agree with its
    monomial eigenform to q^(2r+2).
    """
    if ell < 5 or not is_prime(ell):
        raise InputError(f"need a prime l >= 5, got {ell}")
    k = ell + 1
    monos = monomial_basis(k, cusp_only=True)
    r = len(monos)
    if r == 0:
        return EigenformBasis(ell, order, (), (), ())
    ring = GF(ell)
    short = 2 * r + 2
    n = max(order, short)
    gens = monomial_forms(monos, short, ring)
    # matrix of T_2 in the monomial basis from coefficients q^1..q^r: one
    # elimination of [B | H], B's column i the generator gens[i] and H's
    # column i T_2 gens[i], leaves [I | M], M[j][i] the coefficient of
    # gens[j] in T_2 gens[i]
    t2 = [hecke_Tp(g, 2, k, out_order=r).coeffs for g in gens]
    reduced, pivots = _row_reduce([[g.coeff(m) for g in gens] + [h[m] for h in t2]
                                   for m in range(1, r + 1)], ell)
    if pivots != list(range(r)):
        raise InputError("singular linear system over F_l")
    mat = [row[r:] for row in reduced]
    pairs = _eigenpairs(mat, ell)
    small, combos = [], []
    for _, vec in pairs:
        a1 = sum(v * g.coeff(1) for v, g in zip(vec, gens)) % ell
        if not a1:
            raise InputError("eigenform cannot be normalized: a(1) = 0")
        inv = pow(a1, -1, ell)
        vec = [v * inv % ell for v in vec]
        small.append([sum(v * g.coeff(m) for v, g in zip(vec, gens)) % ell
                      for m in range(short + 1)])
        combos.append(tuple((monos[i], v) for i, v in enumerate(vec) if v))
    chosen = cusp_generators(ell, short)
    rows = [[f[m] for _, f in chosen] for m in range(1, r + 1)]
    long = _generator_forms([key for key, _ in chosen], n, ell)
    forms = []
    for want in small:
        (x0, g0), *rest = [(x, g) for x, g in
                           zip(_solve_linear_mod(rows, want[1:r + 1], ell), long) if x]
        acc = [x0 * v for v in g0]
        for x, g in rest:
            acc = [s + x * v for s, v in zip(acc, g)]
        form = QSeries(ring, 0, acc)
        if form.coeffs[:short + 1] != want:
            raise InternalConsistencyError(
                f"eigenform from the cusp generators differs from its "
                f"monomial combination below q^{short + 1} at l={ell}")
        forms.append(form)
    return EigenformBasis(ell, n, tuple(forms), tuple(lam for lam, _ in pairs),
                          tuple(combos))


def _candidates(ell: int):
    """The keys of the cusp forms of weight k = l + 1 that may span S_k mod l.

    First ("pair", a), for E_a E_(k-a) - E_k with a = 4, 6, ... <= k/2,
    skipping a pair when l divides the numerator of B_a or of B_(k-a), so
    that E_a or E_(k-a) has no reduction mod l.  Then ("monomial", (a, b,
    c)) for each cusp monomial Delta^a E4^b E6^c, which span S_k on their
    own.  B_a and B_(k-a) mod l are two power sums (``bernoulli_mod``).
    """
    k = ell + 1
    for a in range(4, k // 2 + 1, 2):
        if bernoulli_mod(a, ell) and bernoulli_mod(k - a, ell):
            yield "pair", a
    for mono in monomial_basis(k, cusp_only=True):
        yield "monomial", mono


def _generator_forms(keys, n: int, ell: int) -> list[list[int]]:
    """The forms of the given candidate keys to order n, as int lists from q^0.

    E_a E_(k-a) - E_k is one product of divisor-sum series, with E_k = E_2
    mod l by Kummer's congruence and Fermat; its entries lie in (-l, l).
    The monomials come from one ``monomial_forms`` table.
    """
    k = ell + 1
    pairs = [a for kind, a in keys if kind == "pair"]
    monos = [mono for kind, mono in keys if kind == "monomial"]
    out = {}
    if pairs:
        e2 = eisenstein(2, n, GF(ell)).coeffs
        for a in pairs:
            ea = eisenstein(a, n, GF(ell)).coeffs
            eb = ea if 2 * a == k else eisenstein(k - a, n, GF(ell)).coeffs
            out["pair", a] = [x - y for x, y in zip(_kron_mul(ea, eb, n + 1, ell), e2)]
    for mono, f in zip(monos, monomial_forms(monos, n, GF(ell))):
        out["monomial", mono] = [0] * f.lead + f.coeffs
    return [out[key] for key in keys]


def cusp_generators(ell: int, order: int) -> list[tuple[tuple, list[int]]]:
    """r cusp forms of weight l + 1, independent mod l, with their expansions.

    Candidates are taken in ``_candidates``' order, each built only to
    ``order`` (at least r), and kept when its q^1..q^r row raises the
    rank mod l, until the rank is r = dim S_(l+1).  A cusp form mod l is
    determined by q^1..q^r (the Miller basis is q^i + O(q^(r+1))), so
    the kept forms span S_(l+1) mod l.  Returns (key, int list to
    q^order) for each.
    """
    r = len(monomial_basis(ell + 1, cusp_only=True))
    if order < r:
        raise InputError(f"cusp generators of weight {ell + 1} need order >= r = {r}, "
                         f"not {order}")
    chosen: list[tuple[tuple, list[int]]] = []
    candidates = _candidates(ell)  # the monomials alone reach rank r
    while len(chosen) < r:
        key = next(candidates)
        f = _generator_forms([key], order, ell)[0]
        _, pivots = _row_reduce([g[1:r + 1] for _, g in chosen] + [f[1:r + 1]], ell)
        if len(pivots) > len(chosen):
            chosen.append((key, f))
    return chosen


def _eigenpairs(mat: list[list[int]], ell: int) -> list[tuple[int, list[int]]]:
    """Eigenvalues t of a small matrix over F_l, each with a kernel vector of M - t I.

    The t are the elements of F_l, largest representative first, at which
    M - t I loses rank, and each vector is read from the same elimination.
    Unless there are as many as rows, some eigenvalue is repeated or lies
    outside F_l, and the eigenbasis is not defined over F_l.
    """
    r = len(mat)
    pairs = []
    for t in range(ell - 1, -1, -1):
        reduced, pivots = _row_reduce(
            [[v - t if i == j else v for j, v in enumerate(row)]
             for i, row in enumerate(mat)], ell)
        free = next((c for c in range(r) if c not in pivots), None)
        if free is None:
            continue
        vec = [0] * r
        vec[free] = 1
        for row, col in zip(reduced, pivots):
            vec[col] = -row[free] % ell
        pairs.append((t, vec))
    if len(pairs) != r:
        raise InputError(
            f"eigenbasis not defined over F_{ell}: T_2 eigenvalues are not "
            f"distinct elements of F_{ell}")
    return pairs
