"""Pure-Python kernels: prime sieve, elliptic-curve traces, supersingular scan.

Same API as the compiled ``bpx._eckernel``; ``bpx.kernel`` picks whichever
is available.  The compiled module twins the sieve and the traces and
serves this module's supersingular scan itself, which beats a direct C sum
from l of about 23 on.  One call, ``ec_traces``, traces a curve at a list
of primes: by naive point counting below ``naive_limit`` and by
baby-step/giant-step group-order search above it.
The search lists every N in the Hasse window with N*P = O for one point P
and drops the candidates that a further point does not annihilate until
one is left (Shanks-Mestre, Cohen GTM 138, 7.4.3); no point order is
computed.  Given the order t of a rational torsion subgroup it lists only
multiples of t (Sutherland, "Order computations in generic groups", 2007).
Its baby steps are keyed by x alone, so each covers jP and -jP (Mestre),
and every step is an affine formula on local ints.  Points are chosen
deterministically (seeded), on twists isomorphic to the curve so that no
square root is taken: results never depend on run order or thread count.
``NAIVE_LIMIT`` is this backend's measured crossover: BSGS is as cheap as
counting from p of about 300 on and several times cheaper from 500 on.
Batching the inversions (Montgomery's trick), as the compiled kernel does,
was measured slower here: one ``pow(x, -1, p)`` costs less than the
interpreted products and lists that replace it.
"""

from __future__ import annotations

from itertools import compress
from math import isqrt

_M64 = (1 << 64) - 1
NAIVE_LIMIT = 500


def primes_below(limit: int) -> list[int]:
    """Ascending list of all primes p < limit."""
    if limit <= 2:
        return []
    flags = bytearray(b"\x01") * limit
    flags[0:2] = b"\x00\x00"
    for i in range(2, isqrt(limit - 1) + 1):
        if flags[i]:
            flags[i * i :: i] = bytearray(len(range(i * i, limit, i)))
    return list(compress(range(limit), flags))


# ---------------------------------------------------------------------------
# curve arithmetic on y^2 = x^3 + a*x + b over F_p, affine + None for infinity

def _ec_add(P, Q, a, p):
    if P is None:
        return Q
    if Q is None:
        return P
    x1, y1 = P
    x2, y2 = Q
    if x1 == x2:
        if (y1 + y2) % p == 0:
            return None
        lam = (3 * x1 * x1 + a) * pow(2 * y1, -1, p) % p
    else:
        lam = (y2 - y1) * pow(x2 - x1, -1, p) % p
    x3 = (lam * lam - x1 - x2) % p
    y3 = (lam * (x1 - x3) - y1) % p
    return (x3, y3)


def _ec_mul(k, P, a, p):
    if k < 0:
        k, P = -k, (P[0], (-P[1]) % p) if P else None
    R = None
    while k:
        if k & 1:
            R = _ec_add(R, P, a, p)
        k >>= 1
        if k:
            P = _ec_add(P, P, a, p)
    return R


def _trace_naive(a, b, p):
    counts = [0] * p
    for y in range(p):
        counts[y * y % p] += 1
    npts = 1  # point at infinity
    for x in range(p):
        npts += counts[(x * x % p * x + a * x + b) % p]
    return p + 1 - npts


def _next_point(state, a, b, p):
    """Deterministic next point and its curve's a, xorshift64 walk over x.

    For f = x^3 + a x + b a nonzero square (one Euler test), (f x, f^2) lies
    on y^2 = x^3 + a f^2 x + b f^3, the twist of the curve by f and so
    isomorphic to it: no square root is taken.  A root x of f gives (x, 0)
    on the curve itself, so the walk ends even where every point has y = 0.
    """
    while True:
        state ^= (state << 13) & _M64
        state ^= state >> 7
        state ^= (state << 17) & _M64
        x = state % p
        f = (x * x % p * x + a * x + b) % p
        if f == 0 or pow(f, (p - 1) // 2, p) == 1:
            u = f or 1  # f = 0: (x, 0) on the curve itself
            return state, (u * x % p, f * f % p), a * u * u % p


def _annihilators(P, a, p, lo, hi):
    """Every N in [lo, hi] with N*P = O, sorted, or None when P has tiny order.

    Baby steps store x(jP) -> j for 1 <= j <= m, m = isqrt((hi - lo)//2) + 1,
    and y(jP) by j: one x stands for both jP and -jP (Mestre).  Giant steps
    N0*P, from N0 = lo + m by the stride s = 2m + 1, meet the table at
    N0 - j when the y values agree and at N0 + j when they are opposite
    (both when y = 0); a giant step on O is N0 itself.  The windows
    [N0 - m, N0 + m] tile [lo, hi], so every N is found, in order.  A
    repeated baby x, jP = O for some j <= m + 1, or sP = O means P has
    order at most 2m + 1, and P is skipped.  Every step is an affine
    formula on local ints; ``_ec_add`` and ``_ec_mul`` serve only the rare
    giant or start step whose two x coincide.
    """
    m = isqrt((hi - lo) // 2) + 1
    x1, y1 = P
    if y1 == 0:
        return None  # 2P = O
    baby = {x1: 1}
    bx, by = [0, x1], [0, y1]  # x(jP) and y(jP) by j
    lam = (3 * x1 * x1 + a) * pow(2 * y1, -1, p) % p
    x = (lam * lam - 2 * x1) % p
    y = (lam * (x1 - x) - y1) % p
    for j in range(2, m + 1):  # (x, y) = jP
        if x in baby:
            return None  # jP = -iP for some i < j, or (j+1)P = O at x = x1
        baby[x] = j
        bx.append(x)
        by.append(y)
        lam = (y - y1) * pow(x - x1, -1, p) % p
        nx = (lam * lam - x - x1) % p
        y = (lam * (x1 - nx) - y1) % p
        x = nx
    # (x, y) = (m+1)P, so S = mP + (m+1)P = sP
    xm, ym = bx[m], by[m]
    if x == xm:
        return None  # (m+1)P = -mP: sP = O
    lam = (y - ym) * pow(x - xm, -1, p) % p
    sx = (lam * lam - x - xm) % p
    sy = (lam * (xm - sx) - ym) % p
    s = 2 * m + 1
    # the first giant step N0 = lo + m = q*s + r, |r| <= m: q*S + r*P
    first = lo + m
    q, r = divmod(first + m, s)
    r -= m
    x, y, inline = sx, sy, True
    for bit in bin(q)[3:]:  # q*S, left to right
        if y == 0:
            inline = False
            break
        lam = (3 * x * x + a) * pow(2 * y, -1, p) % p
        nx = (lam * lam - 2 * x) % p
        y = (lam * (x - nx) - y) % p
        x = nx
        if bit == "1":
            if x == sx:
                inline = False
                break
            lam = (y - sy) * pow(x - sx, -1, p) % p
            nx = (lam * lam - x - sx) % p
            y = (lam * (sx - nx) - sy) % p
            x = nx
    if r and inline:
        rx, ry = bx[abs(r)], by[r] if r > 0 else -by[-r] % p
        if x == rx:
            inline = False
        else:
            lam = (y - ry) * pow(x - rx, -1, p) % p
            nx = (lam * lam - x - rx) % p
            y = (lam * (rx - nx) - ry) % p
            x = nx
    if not inline:
        Q = _ec_add(_ec_mul(q, (sx, sy), a, p), _ec_mul(r, P, a, p), a, p)
        x, y = Q if Q else (None, None)
    found = []
    last = lo + (hi - lo) // s * s + m
    for n0 in range(first, last + 1, s):
        if x is None:  # n0 P = O
            if n0 <= hi:
                found.append(n0)
            x, y = sx, sy
            continue
        j = baby.get(x)
        if j is not None:
            yj = by[j]
            if y == yj and n0 - j <= hi:
                found.append(n0 - j)
            if y == (-yj) % p and n0 + j <= hi:
                found.append(n0 + j)
        if n0 == last:
            break
        if x == sx:
            Q = _ec_add((x, y), (sx, sy), a, p)
            x, y = Q if Q else (None, None)
        else:
            lam = (y - sy) * pow(x - sx, -1, p) % p
            nx = (lam * lam - x - sx) % p
            y = (lam * (sx - nx) - sy) % p
            x = nx
    return found


def _trace_bsgs(a, b, p, torsion=1):
    """Group order by Shanks-Mestre: the one N in the Hasse window that
    annihilates every point tried (#E is always among the candidates).
    A ``torsion`` t dividing #E(F_p) narrows it to N = t M: the M in
    [lo/t, hi/t] that annihilate tP for the first point P with tP != O,
    filtered by N*P = O at later points."""
    w = isqrt(4 * p)  # floor(2 sqrt p)
    lo, hi = -(-(p + 1 - w) // torsion), (p + 1 + w) // torsion
    if lo > hi:
        raise AssertionError("no group-order candidate in the Hasse window")
    state = (p * 0x9E3779B97F4A7C15 + 0x243F6A8885A308D3) & _M64 or 1
    cands = None
    for _ in range(20):
        state, P, ap = _next_point(state, a, b, p)
        if cands is None:
            Q = _ec_mul(torsion, P, ap, p)
            cands = None if Q is None else _annihilators(Q, ap, p, lo, hi)
            if cands is None:
                continue
            cands = [torsion * M for M in cands]
        else:
            cands = [N for N in cands if _ec_mul(N, P, ap, p) is None]
        if not cands:
            raise AssertionError("no group-order candidate in the Hasse window")
        if len(cands) == 1:
            return p + 1 - cands[0]
    # ambiguity persists (tiny group exponent); count honestly
    return _trace_naive(a, b, p)


def ec_traces(a: int, b: int, primes, naive_limit: int = NAIVE_LIMIT,
              torsion: int = 1) -> list[int]:
    """Traces of Frobenius of y^2 = x^3 + a*x + b at each given prime p >= 5;
    the search tries only multiples of ``torsion``, which must divide #E."""
    if torsion < 1:
        raise ValueError(f"torsion must be >= 1, got {torsion}")
    out = []
    for p in primes:
        ap, bp = a % p, b % p
        if (4 * ap * ap % p * ap + 27 * bp * bp) % p == 0:
            raise ValueError(f"singular curve mod {p}")
        out.append(_trace_naive(ap, bp, p) if p < naive_limit
                   else _trace_bsgs(ap, bp, p, torsion))
    return out


def supersingular_js_fq2(ell: int, nonres: int) -> list[int]:
    """Supersingular j-invariants in F_(l^2), by point counting over F_(l^2).

    Elements u + v*w (w^2 = nonres) are encoded as u*l + v.  Only
    representatives with v <= (l-1)/2 are returned; the conjugate of
    u + v*w is u - v*w.  A curve with invariant j is supersingular iff
    l divides its trace over F_(l^2), which is -S for the character sum
    S = sum over x of chi(x^3 + a x + b).

    j = 0 and 1728 are summed directly.  Any other j takes
    y^2 = x^3 + k s, s = 3x + 2, k = j/(1728 - j).  For s != 0,
    chi(x^3 + k s) = chi(s) chi(x^3/s + k), and s = 0 adds chi(x^3) = 1
    (x = -2/3 lies in F_l), so S(k) = 1 + sum_r w[r] chi(r + k), with w[r]
    the sum of chi(s) over the x with x^3/s = r.  That cyclic correlation
    over the additive group of F_(l^2) comes for every k at once from one
    Kronecker-packed integer product: O(l^2) steps besides the product,
    where a direct sum takes all O(l^4) terms.
    """
    n2 = ell * ell
    inv = [0] + [pow(i, -1, ell) for i in range(1, ell)]
    # quadratic character: s is a square in F_(l^2) iff its norm is in F_l
    leg = [-1] * ell
    for i in range(1, ell):
        leg[i * i % ell] = 1
    leg[0] = 0
    char = [leg[(u * u - v * v * nonres) % ell]
            for u in range(ell) for v in range(ell)]
    # (u, v) of every x and of x^3
    rows = []
    for xu in range(ell):
        for xv in range(ell):
            su, sv = (xu * xu + xv * xv * nonres) % ell, 2 * xu * xv % ell
            rows.append((xu, xv, (su * xu + sv * xv * nonres) % ell,
                         (su * xv + sv * xu) % ell))
    w = [0] * n2
    for xu, xv, cu, cv in rows:
        su, sv = (3 * xu + 2) % ell, 3 * xv % ell
        if su or sv:
            nm = (su * su - sv * sv * nonres) % ell
            iu, iv = su * inv[nm], -sv * inv[nm]
            w[(cu * iu + cv * iv * nonres) % ell * ell
              + (cu * iv + cv * iu) % ell] += leg[nm]
    # row u of each factor is d = 2l slots of nb bytes, so the rows of the
    # product (v up to 2l - 2) do not overlap; slot v holds chi(u, v) + 1 in
    # one factor and w(-u, -v) + 3 in the other, so no product slot is
    # negative, and 24 l^2 bounds every slot before and after the folds
    d, nb = 2 * ell, (24 * n2).bit_length() // 8 + 1
    fa, fb = bytearray(ell * d * nb), bytearray(ell * d * nb)
    for u in range(ell):
        at, neg = u * d * nb, (-u) % ell * ell
        fa[at:at + ell * nb:nb] = bytes(c + 1
                                        for c in char[u * ell:u * ell + ell])
        fb[at:at + ell * nb:nb] = bytes(w[neg + (-v) % ell] + 3
                                        for v in range(ell))
    prod = int.from_bytes(fa, "little") * int.from_bytes(fb, "little")
    bits = len(fa) * 8
    prod = (prod & ((1 << bits) - 1)) + (prod >> bits)  # u mod l
    prod += prod >> (ell * nb * 8)  # v mod l, in the slots v < l
    corr = prod.to_bytes(len(fa), "little")
    enc1728 = 1728 % ell
    out = []
    for ju in range(ell):
        for jv in range((ell + 1) // 2):
            if ju == jv == 0:  # y^2 = x^3 + 1
                t = sum([char[(cu + 1) % ell * ell + cv]
                         for _, _, cu, cv in rows])
            elif ju == enc1728 and jv == 0:  # y^2 = x^3 + x
                t = sum([char[(cu + xu) % ell * ell + (cv + xv) % ell]
                         for xu, xv, cu, cv in rows])
            else:
                du, dv = enc1728 - ju, -jv
                nm = inv[(du * du - dv * dv * nonres) % ell]
                ku = (ju * du - jv * dv * nonres) * nm % ell
                kv = (jv * du - ju * dv) * nm % ell
                at = (ku * d + kv) * nb
                # chi and w each sum to 0 over F_(l^2): the offsets add 3 l^2
                t = 1 + int.from_bytes(corr[at:at + nb], "little") - 3 * n2
            if t % ell == 0:
                out.append(ju * ell + jv)
    return out
