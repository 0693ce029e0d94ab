"""Pure-Python kernels: prime sieve and elliptic-curve traces.

Same API as the compiled ``bpx._eckernel``; ``bpx.kernel`` picks whichever
is available.  Traces are computed by naive point counting below
``naive_limit`` and by baby-step/giant-step group-order search above it.
The search lists every N in the Hasse window with N*P = O for one point P
and drops the candidates that a further point does not annihilate until
one is left (Shanks-Mestre, Cohen GTM 138, 7.4.3); no point order is
computed.  Points are chosen deterministically (seeded), so results never
depend on run order or thread count.  ``NAIVE_LIMIT`` is this backend's
measured crossover: BSGS is as cheap as counting from p of about 300 on
and several times cheaper from 1000 on.
"""

from __future__ import annotations

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
    return [i for i in range(limit) if flags[i]]


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


def _sqrt_mod(n, p):
    """A square root of n mod p, or None if n is a nonresidue."""
    n %= p
    if n == 0:
        return 0
    if pow(n, (p - 1) // 2, p) != 1:
        return None
    if p % 4 == 3:
        return pow(n, (p + 1) // 4, p)
    # Tonelli-Shanks
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(n, q, p), pow(n, (q + 1) // 2, p)
    while t != 1:
        t2, i = t, 0
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c, t, r = i, b * b % p, t * b * b % p, r * b % p
    return r


def _trace_naive(a, b, p):
    counts = [0] * p
    for y in range(p):
        counts[y * y % p] += 1
    npts = 1  # point at infinity
    for x in range(p):
        npts += counts[(x * x % p * x + a * x + b) % p]
    return p + 1 - npts


def _next_point(state, a, b, p):
    """Deterministic next affine point, xorshift64 walk over x."""
    while True:
        state ^= (state << 13) & _M64
        state ^= state >> 7
        state ^= (state << 17) & _M64
        x = state % p
        y = _sqrt_mod((x * x % p * x + a * x + b) % p, p)
        if y is not None:
            return state, (x, y)


def _annihilators(P, a, p, lo, hi):
    """Every N in [lo, hi] with N*P = O, or None when P has tiny order.

    Baby steps (lo + j)P for 0 <= j < m meet giant steps -(i*m)P at
    N = lo + i*m + j, with m = isqrt(hi - lo + 1).  A giant step on O means
    the order of P divides i*m: P hardly narrows the window, and an order
    below m (repeated baby steps) always shows this way, since i runs to
    at least m - 1.
    """
    m = isqrt(hi - lo + 1)
    baby = {}
    R = _ec_mul(lo, P, a, p)
    for j in range(m):
        baby.setdefault(R, j)
        R = _ec_add(R, P, a, p)
    G = _ec_mul(-m, P, a, p)
    found = []
    U = None  # -(i*m) P
    for i in range((hi - lo) // m + 1):
        if i and U is None:
            return None
        j = baby.get(U)
        if j is not None and lo + i * m + j <= hi:
            found.append(lo + i * m + j)
        U = _ec_add(U, G, a, p)
    return found


def _trace_bsgs(a, b, p):
    """Group order by Shanks-Mestre: the one N in the Hasse window that
    annihilates every point tried (#E is always among the candidates)."""
    w = isqrt(4 * p)  # floor(2 sqrt p)
    lo, hi = p + 1 - w, p + 1 + w
    state = (p * 0x9E3779B97F4A7C15 + 0x243F6A8885A308D3) & _M64 or 1
    cands = None
    for _ in range(20):
        state, P = _next_point(state, a, b, p)
        if cands is None:
            cands = _annihilators(P, a, p, lo, hi)
            if cands is None:
                continue
        else:
            cands = [N for N in cands if _ec_mul(N, P, a, p) is None]
        if not cands:
            raise AssertionError("no group-order candidate in the Hasse window")
        if len(cands) == 1:
            return p + 1 - cands[0]
    # ambiguity persists (tiny group exponent); count honestly
    return _trace_naive(a, b, p)


def ec_trace(a: int, b: int, p: int, naive_limit: int = NAIVE_LIMIT) -> int:
    """Trace of Frobenius of y^2 = x^3 + a*x + b over F_p (p >= 5 prime)."""
    a %= p
    b %= p
    if (4 * a * a % p * a + 27 * b * b) % p == 0:
        raise ValueError(f"singular curve mod {p}")
    if p < naive_limit:
        return _trace_naive(a, b, p)
    return _trace_bsgs(a, b, p)


def ec_traces(a: int, b: int, primes,
              naive_limit: int = NAIVE_LIMIT) -> list[int]:
    """Traces of the global curve y^2 = x^3 + a*x + b at each given prime."""
    return [ec_trace(a, b, p, naive_limit) for p in primes]


def supersingular_js_fq2(ell: int, nonres: int) -> list[int]:
    """Supersingular j-invariants in F_(l^2), by point counting over F_(l^2).

    Elements u + v*w (w^2 = nonres) are encoded as u*l + v.  Only
    representatives with v <= (l-1)/2 are returned; the conjugate of
    u + v*w is u - v*w.  A curve with invariant j is supersingular iff
    l divides its trace over F_(l^2).
    """
    n2 = ell * ell
    enc1728 = (1728 % ell) * ell

    def mul(x, y):
        xu, xv = divmod(x, ell)
        yu, yv = divmod(y, ell)
        return (xu * yu + xv * yv * nonres) % ell * ell + (xu * yv + xv * yu) % ell

    def inv(x):
        xu, xv = divmod(x, ell)
        n = (xu * xu - xv * xv * nonres) % ell
        ni = pow(n, -1, ell)
        return (xu * ni) % ell * ell + (-xv * ni) % ell

    def sub(x, y):
        xu, xv = divmod(x, ell)
        yu, yv = divmod(y, ell)
        return (xu - yu) % ell * ell + (xv - yv) % ell

    one = ell  # the element 1 is encoded as u=1, v=0
    # quadratic-character table: chi[z] = 1 for nonzero squares, else 0
    chi = bytearray(n2)
    for u in range(ell):
        for v in range(ell):
            chi[(u * u + v * v * nonres) % ell * ell + (2 * u * v) % ell] = 1
    chi[0] = 0
    cube = [mul(mul(x, x), x) for x in range(n2)]
    out = []
    for ju in range(ell):
        for jv in range((ell + 1) // 2):
            j = ju * ell + jv
            if j == 0:
                a, b = 0, one           # y^2 = x^3 + 1
            elif j == enc1728:
                a, b = one, 0           # y^2 = x^3 + x
            else:
                k = mul(j, inv(sub(enc1728, j)))
                a, b = mul(3 * ell, k), mul(2 * ell, k)
            t = 0
            if a == 0:
                for x in range(n2):
                    fx = cube[x]
                    fu, fv = divmod(fx, ell)
                    bu, bv = divmod(b, ell)
                    fx = (fu + bu) % ell * ell + (fv + bv) % ell
                    if fx:
                        t += 1 if chi[fx] else -1
            else:
                for x in range(n2):
                    ax = mul(a, x)
                    cu, cv = divmod(cube[x], ell)
                    au, av = divmod(ax, ell)
                    bu, bv = divmod(b, ell)
                    fx = (cu + au + bu) % ell * ell + (cv + av + bv) % ell
                    if fx:
                        t += 1 if chi[fx] else -1
            if t % ell == 0:  # trace over F_(l^2) is -t
                out.append(j)
    return out
