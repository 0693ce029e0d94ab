/* Compiled kernels: prime sieve and elliptic-curve traces.
 *
 * C twin of bpx._eckernel_py: the same API, algorithms and results, bit for
 * bit, with one batch trace call, ec_traces, for any list of primes.  Traces
 * are counted below NAIVE_LIMIT and found above it by the Shanks-Mestre
 * candidate filter (Cohen, GTM 138, 7.4.3) over the pure kernel's seeded
 * xorshift walk of points on isomorphic twists, with the same multiples of a
 * known torsion, +-j baby steps, giant stride and tiny-order rule, so the
 * same candidate lists.  Where the pure kernel steps one affine addition at a
 * time, this one runs the baby and giant steps in batches that share one
 * inversion (Montgomery, Math. Comp. 48, 1987) and multiplies by a scalar in
 * Jacobian coordinates, as one extended Euclid per addition would otherwise
 * dominate.  The trace loop releases the GIL, so bpx.density runs blocks of
 * primes on one thread per usable CPU.  Primes are limited to p < 2^31, so
 * every product of two residues fits in 64 bits; the seed and hash products
 * wrap mod 2^64 on purpose.  The supersingular scan is the pure kernel's own
 * function (see PyInit__eckernel).
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>

#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* Below this prime counting beats the search (benchmarks/bench_kernels.py). */
#define NAIVE_LIMIT 600
#define MAX_PRIME (1ULL << 31)
/* p < 2^31 keeps the Hasse window below 2^18 points, so m = isqrt(width/2) + 1 <= 305 */
#define MAX_M 512
#define HASH_MULT 0x9E3779B97F4A7C15ULL
#define SEED_ADD 0x243F6A8885A308D3ULL

typedef uint64_t u64;
typedef int64_t i64;
enum { TRACE_OK, TRACE_NOMEM, TRACE_NOCAND };  /* status of a trace run without the GIL */

static u64 powmod(u64 b, u64 e, u64 p)
{
    u64 r = 1;
    for (b %= p; e; e >>= 1) {
        if (e & 1)
            r = r * b % p;
        b = b * b % p;
    }
    return r;
}

static u64 invmod(u64 a, u64 p)
{
    i64 t = 0, newt = 1, r = (i64)p, newr = (i64)a, q, tmp;
    while (newr) {
        q = r / newr;
        tmp = t - q * newt; t = newt; newt = tmp;
        tmp = r - q * newr; r = newr; newr = tmp;
    }
    return (u64)(t < 0 ? t + (i64)p : t);
}

/* floor(sqrt(n)), exact from the correctly rounded double for n < 2^50 */
static u64 isqrt(u64 n)
{
    return (u64)sqrt((double)n);
}

/* ------------------------------------------------------------------------
 * curve arithmetic on y^2 = x^3 + a*x + b over F_p, affine coordinates */

typedef struct { u64 x, y; int inf; } Pt;
typedef struct { u64 X, Y, Z; } Jac;  /* the point (X/Z^2, Y/Z^3); Z = 0 is O */

static const Pt INF = {0, 0, 1};

/* Affine P + Q for Q.x != P.x, given 1/(Q.x - P.x) or 1/(2 P.y) when Q = P. */
static Pt pt_add_inv(Pt P, Pt Q, u64 inv, u64 a, u64 p)
{
    u64 lam, x3;
    if (P.x == Q.x)
        lam = (3 * (P.x * P.x % p) + a) % p * inv % p;
    else
        lam = (Q.y + p - P.y) % p * inv % p;
    x3 = (lam * lam % p + 2 * p - P.x - Q.x) % p;
    return (Pt){x3, (lam * ((P.x + p - x3) % p) % p + p - P.y) % p, 0};
}

static Pt pt_add(Pt P, Pt Q, u64 a, u64 p)
{
    if (P.inf)
        return Q;
    if (Q.inf)
        return P;
    if (P.x == Q.x && (P.y + Q.y) % p == 0)
        return INF;
    return pt_add_inv(P, Q, invmod(P.x == Q.x ? 2 * P.y % p : (Q.x + p - P.x) % p, p), a, p);
}

/* k*P, left to right in Jacobian coordinates: one inversion in all. */
static Pt pt_mul(u64 k, Pt P, u64 a, u64 p)
{
    Jac R = {0, 1, 0};
    u64 zz, zi;
    int bit = 63;
    if (P.inf || k == 0)
        return INF;
    while (!(k >> bit & 1))
        bit--;
    for (; bit >= 0; bit--) {
        if (R.Z) {  /* R = 2R: s = 4 X Y^2, t = 3 X^2 + a Z^4 */
            u64 yy = R.Y * R.Y % p, z2 = R.Z * R.Z % p;
            u64 s = 4 * (R.X * yy % p) % p, t = (3 * (R.X * R.X % p) + a * (z2 * z2 % p)) % p;
            u64 x3 = (t * t % p + 2 * p - 2 * s) % p;
            R.Z = 2 * (R.Y * R.Z % p) % p;
            R.Y = (t * ((s + p - x3) % p) % p + p - 8 * (yy * yy % p) % p) % p;
            R.X = x3;
        }
        if (!(k >> bit & 1))
            continue;
        if (R.Z == 0) {  /* R = O + P */
            R = (Jac){P.x, P.y, 1};
        } else {  /* R = R + P: h = x Z^2 - X, r = y Z^3 - Y */
            u64 z2 = R.Z * R.Z % p, h = (P.x * z2 % p + p - R.X) % p;
            u64 r = (P.y * (z2 * R.Z % p) % p + p - R.Y) % p, hh, hhh, v, x3;
            if (h == 0) {  /* R = +-P: 2P or O, now rare enough for affine */
                Pt D = r ? INF : pt_add(P, P, a, p);
                R = D.inf ? (Jac){0, 1, 0} : (Jac){D.x, D.y, 1};
                continue;
            }
            hh = h * h % p; hhh = h * hh % p; v = R.X * hh % p;
            x3 = (r * r % p + 3 * p - hhh - 2 * v) % p;
            R.Y = (r * ((v + p - x3) % p) % p + p - R.Y * hhh % p) % p;
            R.X = x3;
            R.Z = R.Z * h % p;
        }
    }
    if (R.Z == 0)
        return INF;
    zi = invmod(R.Z, p);
    zz = zi * zi % p;
    return (Pt){R.X * zz % p, R.Y * (zz * zi % p) % p, 0};
}

/* Trace by counting: y^2 and x^3 + a x + b advance by finite differences. */
static int trace_naive(u64 a, u64 b, u64 p, i64 *trace)
{
    unsigned char *roots = calloc(p, 1);  /* number of square roots of each residue */
    u64 x, y, sq = 0, dsq = 1 % p, f = b, d1 = (1 + a) % p, d2 = 6 % p;
    u64 npts = 1, six = 6 % p, two = 2 % p;
    if (roots == NULL)
        return TRACE_NOMEM;
    for (y = 0; y < p; y++) {
        roots[sq]++;
        if ((sq += dsq) >= p) sq -= p;          /* (y+1)^2 - y^2 = 2y + 1 */
        if ((dsq += two) >= p) dsq -= p;
    }
    for (x = 0; x < p; x++) {
        npts += roots[f];
        if ((f += d1) >= p) f -= p;             /* f(x+1) - f(x) = 3x^2 + 3x + 1 + a */
        if ((d1 += d2) >= p) d1 -= p;           /* its difference: 6x + 6 */
        if ((d2 += six) >= p) d2 -= p;
    }
    free(roots);
    *trace = (i64)(p + 1) - (i64)npts;
    return TRACE_OK;
}

/* Deterministic next point, xorshift64 walk over x: for f = x^3 + a x + b a
 * nonzero square (one Euler test), (f x, f^2) on y^2 = x^3 + a f^2 x + b f^3,
 * the twist by f, isomorphic to the curve; *ap gets that curve's a f^2.  A
 * root x of f gives (x, 0) on the curve itself, so the walk always ends. */
static Pt next_point(u64 *state, u64 a, u64 b, u64 p, u64 *ap)
{
    u64 x, f, u;
    do {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        x = *state % p;
        f = (x * x % p * x + a * x + b) % p;
    } while (f != 0 && powmod(f, (p - 1) / 2, p) != 1);
    u = f ? f : 1;
    *ap = a * (u * u % p) % p;
    return (Pt){u * x % p, f * f % p, 0};
}

/* Replace each of the n nonzero d[i] by its inverse mod p with one invmod
 * (Montgomery's simultaneous inversion); pre is scratch of n entries. */
static void invert_all(u64 *d, u64 n, u64 p, u64 *pre)
{
    u64 acc = 1, inv, t, i;
    for (i = 0; i < n; i++) {
        pre[i] = acc;
        acc = acc * d[i] % p;
    }
    inv = invmod(acc, p);
    for (i = n; i-- > 0;) {
        t = inv * pre[i] % p;
        inv = inv * d[i] % p;
        d[i] = t;
    }
}

/* Slot of x in a table of 2^bits slots: where its linear probe starts. */
static u64 slot_of(u64 x, int bits)
{
    return x * HASH_MULT >> (64 - bits);
}

/* Every N in [lo, hi] with N*P = O, written to found in order; returns their
 * count, or -1 when P has tiny order.
 *
 * Baby steps key x(jP) -> j for 1 <= j <= m, m = isqrt((hi - lo)/2) + 1, in
 * a hash table; one x stands for both jP and -jP (Mestre).  Giant steps
 * N0*P, from N0 = lo + m by the stride s = 2m + 1, meet the table at N0 - j
 * when the y values agree and at N0 + j when they are opposite (both when
 * y = 0); a giant step on O is N0 itself.  A repeated baby x, jP = O for
 * some j <= m + 1, or sP = O means P has order at most 2m + 1: P is
 * skipped.  The same rules as the pure kernel's, so the same lists.  Both
 * step runs go in rounds that double what is known, each round one batch
 * of additions with one shared inversion: jP + tP for j <= t from the
 * multiples 1..t of P, and G_i + tS for i < t from the giant points
 * G_0..G_(t-1).  The values found are multiples of the order of P, which
 * is at least 2m, so there are at most m + 1 of them. */
static i64 annihilators(Pt P, u64 a, u64 p, u64 lo, u64 hi, u64 *found)
{
    u64 tab[2 * MAX_M];  /* j of the slot's x; 0 marks a free slot */
    Pt B[MAX_M + 2], G[MAX_M + 2], T, S;
    u64 d[MAX_M + 2], pre[MAX_M + 2];
    unsigned char slow[MAX_M + 2];
    u64 m = isqrt((hi - lo) / 2) + 1, s = 2 * m + 1, g = (hi - lo) / s + 1;
    u64 t, top, n, i, j, h, mask, q, r, n0, cnt = 0;
    int bits = 2;
    if (P.y == 0)
        return -1;  /* 2P = O */
    while ((1ULL << bits) < 2 * m)
        bits++;
    mask = (1ULL << bits) - 1;
    memset(tab, 0, (mask + 1) * sizeof(u64));
    B[0] = INF;
    B[1] = P;
    tab[slot_of(P.x, bits)] = 1;
    for (t = 1; t <= m; t = top) {  /* (t + j)P = jP + tP for 1 <= j <= n */
        top = 2 * t < m + 1 ? 2 * t : m + 1;
        n = top - t;
        if (n == t && B[t].y == 0)
            return -1;  /* 2tP = O */
        for (j = 1; j <= n; j++)
            d[j - 1] = j == t ? 2 * B[t].y % p : (B[t].x + p - B[j].x) % p;
        invert_all(d, n, p, pre);
        for (j = 1; j <= n; j++)
            B[t + j] = pt_add_inv(B[j], B[t], d[j - 1], a, p);
        for (j = t + 1; j <= top && j <= m; j++) {
            for (h = slot_of(B[j].x, bits); tab[h]; h = (h + 1) & mask)
                if (B[tab[h]].x == B[j].x)
                    return -1;  /* jP = +-iP, i < j */
            tab[h] = j;
        }
    }
    if (B[m + 1].x == B[m].x)
        return -1;  /* (m+1)P = -mP: sP = O */
    S = pt_add(B[m], B[m + 1], a, p);
    /* the first giant step N0 = lo + m = q*s + r, |r| <= m: q*S + r*P */
    q = (lo + 2 * m) / s;
    r = lo + 2 * m - q * s;  /* r - m in [-m, m] */
    G[0] = pt_add(pt_mul(q, S, a, p),
                  r == m ? INF : r > m ? B[r - m] : (Pt){B[m - r].x, (p - B[m - r].y) % p, 0},
                  a, p);
    for (t = 1, T = S; t < g; t += n) {  /* G_(t+i) = G_i + T, T = tS */
        int dbl = 2 * t < g;
        n = t < g - t ? t : g - t;
        for (i = 0; i < n; i++) {
            slow[i] = G[i].inf || T.inf || G[i].x == T.x;
            d[i] = slow[i] ? 1 : (T.x + p - G[i].x) % p;
        }
        slow[n] = T.inf || T.y == 0;
        d[n] = slow[n] ? 1 : 2 * T.y % p;
        invert_all(d, n + dbl, p, pre);
        for (i = 0; i < n; i++)
            G[t + i] = slow[i] ? pt_add(G[i], T, a, p) : pt_add_inv(G[i], T, d[i], a, p);
        if (dbl)
            T = slow[n] ? pt_add(T, T, a, p) : pt_add_inv(T, T, d[n], a, p);
    }
    for (i = 0, n0 = lo + m; i < g; i++, n0 += s) {
        if (G[i].inf) {
            if (n0 <= hi)
                found[cnt++] = n0;
            continue;
        }
        for (h = slot_of(G[i].x, bits); tab[h] && B[tab[h]].x != G[i].x; h = (h + 1) & mask)
            ;
        if ((j = tab[h]) == 0)
            continue;
        if (G[i].y == B[j].y && n0 - j <= hi)
            found[cnt++] = n0 - j;
        if (G[i].y == (p - B[j].y) % p && n0 + j <= hi)
            found[cnt++] = n0 + j;
    }
    return (i64)cnt;
}

/* Group order by Shanks-Mestre: the one N in the Hasse window that
 * annihilates every point tried (#E is always among the candidates).  A
 * torsion t dividing #E(F_p) narrows it to N = t M: the M in [lo/t, hi/t]
 * that annihilate tP for the first P with tP != O, filtered at later P. */
static int trace_bsgs(u64 a, u64 b, u64 p, u64 t, i64 *trace)
{
    u64 w = isqrt(4 * p), lo = (p + t - w) / t, hi = (p + 1 + w) / t, ap;
    u64 state = p * HASH_MULT + SEED_ADD, cands[MAX_M];
    i64 n = -1, k, kept;
    int trial;
    if (lo > hi)
        return TRACE_NOCAND;
    if (state == 0)
        state = 1;
    for (trial = 0; trial < 20; trial++) {
        Pt P = next_point(&state, a, b, p, &ap), Q;
        if (n < 0) {
            if ((Q = pt_mul(t, P, ap, p)).inf || (n = annihilators(Q, ap, p, lo, hi, cands)) < 0)
                continue;
            for (k = 0; k < n; k++)
                cands[k] *= t;
        } else {
            for (k = kept = 0; k < n; k++)
                if (pt_mul(cands[k], P, ap, p).inf)
                    cands[kept++] = cands[k];
            n = kept;
        }
        if (n == 0)
            return TRACE_NOCAND;
        if (n == 1) {
            *trace = (i64)(p + 1) - (i64)cands[0];
            return TRACE_OK;
        }
    }
    return trace_naive(a, b, p, trace);  /* ambiguity persists (tiny group exponent) */
}

/* ------------------------------------------------------------------------
 * Python entry points */

typedef struct { u64 a, b, p; i64 trace; } Job;

/* Reduce a, b mod p into job; raise on p outside [2, 2^31) or a singular curve. */
static int job_init(Job *job, PyObject *a, PyObject *b, PyObject *pobj)
{
    int overflow;
    long long p = PyLong_AsLongLongAndOverflow(pobj, &overflow);
    PyObject *ra = NULL, *rb = NULL;
    if (p == -1 && PyErr_Occurred())
        return -1;
    if (overflow > 0 || p >= (long long)MAX_PRIME) {
        PyErr_SetString(PyExc_OverflowError, "compiled kernel supports p < 2**31");
        return -1;
    }
    if (overflow < 0 || p < 2) {
        PyErr_Format(PyExc_ValueError, "%lld is not a prime", p);
        return -1;
    }
    if ((ra = PyNumber_Remainder(a, pobj)) && (rb = PyNumber_Remainder(b, pobj))) {
        job->a = PyLong_AsUnsignedLongLong(ra);
        job->b = PyLong_AsUnsignedLongLong(rb);
    }
    Py_XDECREF(ra);
    Py_XDECREF(rb);
    if (rb == NULL || PyErr_Occurred())
        return -1;
    job->p = (u64)p;
    if ((4 * job->a % job->p * job->a % job->p * job->a
         + 27 * job->b % job->p * job->b) % job->p == 0) {
        PyErr_Format(PyExc_ValueError, "singular curve mod %lld", p);
        return -1;
    }
    return 0;
}

static PyObject *ec_traces(PyObject *Py_UNUSED(self), PyObject *args, PyObject *kwargs)
{
    static char *kwlist[] = {"a", "b", "primes", "naive_limit", "torsion", NULL};
    PyObject *a, *b, *primes, *seq, *t, *out = NULL;
    long long naive_limit = NAIVE_LIMIT, torsion = 1;
    int status = TRACE_OK;
    Py_ssize_t n, i;
    Job *jobs;
    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "OOO|LL:ec_traces", kwlist,
                                     &a, &b, &primes, &naive_limit, &torsion))
        return NULL;
    if (torsion < 1)
        return PyErr_Format(PyExc_ValueError, "torsion must be >= 1, got %lld", torsion);
    if ((seq = PySequence_Tuple(primes)) == NULL)  /* a copy no callback can change */
        return NULL;
    n = PyTuple_GET_SIZE(seq);
    if ((jobs = PyMem_RawMalloc((n + 1) * sizeof(Job))) == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    /* the reductions need Python-int arithmetic: do them up front */
    for (i = 0; i < n; i++)
        if (job_init(&jobs[i], a, b, PyTuple_GET_ITEM(seq, i)) < 0)
            goto done;
    Py_BEGIN_ALLOW_THREADS
    for (i = 0; i < n && status == TRACE_OK; i++)
        status = (long long)jobs[i].p < naive_limit
            ? trace_naive(jobs[i].a, jobs[i].b, jobs[i].p, &jobs[i].trace)
            : trace_bsgs(jobs[i].a, jobs[i].b, jobs[i].p, (u64)torsion, &jobs[i].trace);
    Py_END_ALLOW_THREADS
    if (status == TRACE_NOMEM)
        PyErr_NoMemory();
    else if (status == TRACE_NOCAND)
        PyErr_SetString(PyExc_AssertionError, "no group-order candidate in the Hasse window");
    else
        out = PyList_New(n);
    for (i = 0; out && i < n; i++)
        if ((t = PyLong_FromLongLong(jobs[i].trace)) == NULL)
            Py_CLEAR(out);
        else
            PyList_SET_ITEM(out, i, t);
done:
    PyMem_RawFree(jobs);
    Py_DECREF(seq);
    return out;
}

/* Ascending list of the count indices whose flag is set. */
static PyObject *flagged_list(const unsigned char *flags, u64 size, u64 count)
{
    PyObject *out = PyList_New((Py_ssize_t)count), *v;
    u64 i, k = 0;
    for (i = 0; out && i < size; i++)
        if (flags[i] && (v = PyLong_FromUnsignedLongLong(i)) == NULL)
            Py_CLEAR(out);
        else if (flags[i])
            PyList_SET_ITEM(out, (Py_ssize_t)k++, v);
    return out;
}

static PyObject *primes_below(PyObject *Py_UNUSED(self), PyObject *arg)
{
    int overflow;
    long long limit = PyLong_AsLongLongAndOverflow(arg, &overflow);
    unsigned char *flags;
    u64 n, i, j, count = 0;
    PyObject *out;
    if (limit == -1 && PyErr_Occurred())
        return NULL;
    if (overflow > 0)
        return PyErr_NoMemory();
    if (overflow < 0 || limit <= 2)
        return PyList_New(0);
    if ((flags = PyMem_RawMalloc(n = (u64)limit)) == NULL)
        return PyErr_NoMemory();
    Py_BEGIN_ALLOW_THREADS
    memset(flags, 1, n);
    flags[0] = flags[1] = 0;
    for (j = 4; j < n; j += 2)
        flags[j] = 0;
    for (i = 3; i * i < n; i += 2)
        if (flags[i])
            for (j = i * i; j < n; j += 2 * i)
                flags[j] = 0;
    for (i = 0; i < n; i++)
        count += flags[i];
    Py_END_ALLOW_THREADS
    out = flagged_list(flags, n, count);
    PyMem_RawFree(flags);
    return out;
}

static PyMethodDef methods[] = {
    {"primes_below", primes_below, METH_O,
     "primes_below(limit)\n--\n\nAscending list of all primes p < limit."},
    {"ec_traces", (PyCFunction)(void (*)(void))ec_traces, METH_VARARGS | METH_KEYWORDS,
     "ec_traces(a, b, primes, naive_limit=NAIVE_LIMIT, torsion=1)\n--\n\n"
     "Traces of Frobenius of y^2 = x^3 + a*x + b at each given prime p >= 5;\n"
     "torsion must divide every #E(F_p)."},
    {NULL, NULL, 0, NULL}
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT, .m_name = "bpx._eckernel", .m_size = -1, .m_methods = methods,
    .m_doc = "Compiled kernels: prime sieve and elliptic-curve traces (C twin of\n"
             "bpx._eckernel_py; primes p < 2**31), and that module's supersingular scan.",
};

PyMODINIT_FUNC PyInit__eckernel(void)
{
    PyObject *m = PyModule_Create(&module), *pure = NULL, *scan = NULL;
    /* The pure kernel's O(l^2) character-sum correlation beats a direct C sum
     * over all O(l^4) terms from l of about 23 on, so this module serves that
     * very function: callers look supersingular_js_fq2 up by name on either
     * backend (bpx.kernel, and bpxbench's tracer and kernel-call replay). */
    if (m == NULL || PyModule_AddIntConstant(m, "NAIVE_LIMIT", NAIVE_LIMIT) < 0
        || (pure = PyImport_ImportModule("bpx._eckernel_py")) == NULL
        || (scan = PyObject_GetAttrString(pure, "supersingular_js_fq2")) == NULL
        || PyModule_AddObjectRef(m, "supersingular_js_fq2", scan) < 0)
        Py_CLEAR(m);
    Py_XDECREF(scan);
    Py_XDECREF(pure);
    return m;
}
