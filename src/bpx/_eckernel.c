/* Compiled kernels: prime sieve and elliptic-curve traces.
 *
 * C twin of bpx._eckernel_py: the same API, algorithms and results, bit for
 * bit.  Traces are counted below NAIVE_LIMIT and found above it by the
 * Shanks-Mestre candidate filter (Cohen, GTM 138, 7.4.3) over the pure
 * kernel's seeded xorshift point walk.  The trace loop and the supersingular
 * scan release the GIL.  Primes are limited to p < 2^31, so every product
 * of two residues fits in 64 bits; the seed and hash products wrap mod 2^64
 * on purpose.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>

#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* Below this prime counting beats the search (benchmarks/bench_kernels.py). */
#define NAIVE_LIMIT 2000
#define MAX_PRIME (1ULL << 31)
/* p < 2^31 keeps the Hasse window below 2^18 points, so its root m <= 430 */
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

/* A square root of n mod p in *root (Tonelli-Shanks); 0 for a nonresidue. */
static int sqrtmod(u64 n, u64 p, u64 *root)
{
    u64 q, s = 0, z = 2, m, c, t, r, b, t2, i;
    if ((n %= p) == 0 || p % 4 == 3) {
        *root = powmod(n, (p + 1) / 4, p);
        return n == 0 || *root * *root % p == n;
    }
    if (powmod(n, (p - 1) / 2, p) != 1)
        return 0;
    for (q = p - 1; q % 2 == 0; q /= 2)
        s++;
    while (powmod(z, (p - 1) / 2, p) != p - 1)
        z++;
    m = s; c = powmod(z, q, p); t = powmod(n, q, p); r = powmod(n, (q + 1) / 2, p);
    while (t != 1) {
        for (t2 = t, i = 0; t2 != 1; i++)
            t2 = t2 * t2 % p;
        b = powmod(c, 1ULL << (m - i - 1), p);
        m = i; c = b * b % p; t = t * c % p; r = r * b % p;
    }
    *root = r;
    return 1;
}

/* floor(sqrt(n)), exact from the correctly rounded double for n < 2^50 */
static u64 isqrt(u64 n)
{
    return (u64)sqrt((double)n);
}

/* ------------------------------------------------------------------------
 * curve arithmetic on y^2 = x^3 + a*x + b over F_p, affine coordinates */

typedef struct { u64 x, y; int inf; } Pt;

static const Pt INF = {0, 0, 1};

static Pt pt_add(Pt P, Pt Q, u64 a, u64 p)
{
    u64 lam, x3;
    if (P.inf)
        return Q;
    if (Q.inf)
        return P;
    if (P.x == Q.x && (P.y + Q.y) % p == 0)
        return INF;
    if (P.x == Q.x)
        lam = (3 * (P.x * P.x % p) + a) % p * invmod(2 * P.y % p, p) % p;
    else
        lam = (Q.y + p - P.y) % p * invmod((Q.x + p - P.x) % p, p) % p;
    x3 = (lam * lam % p + 2 * p - P.x - Q.x) % p;
    return (Pt){x3, (lam * ((P.x + p - x3) % p) % p + p - P.y) % p, 0};
}

static Pt pt_mul(u64 k, Pt P, u64 a, u64 p)
{
    Pt R = INF;
    for (; k; k >>= 1) {
        if (k & 1)
            R = pt_add(R, P, a, p);
        if (k > 1)
            P = pt_add(P, P, a, p);
    }
    return R;
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

/* Deterministic next affine point, xorshift64 walk over x. */
static Pt next_point(u64 *state, u64 a, u64 b, u64 p)
{
    Pt P = {0, 0, 0};  /* y is set by sqrtmod */
    do {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        P.x = *state % p;
    } while (!sqrtmod((P.x * P.x % p * P.x + a * P.x + b) % p, p, &P.y));
    return P;
}

typedef struct { u64 x, y, j1; } Slot;  /* j1 = j + 1; 0 marks a free slot */

/* Slot of point P in a table of 2^bits slots: where its linear probe starts. */
static u64 slot_of(Pt P, int bits)
{
    return (P.x * HASH_MULT + P.y) * HASH_MULT >> (64 - bits);
}

/* Every N in [lo, hi] with N*P = O, written to found; returns their count,
 * or -1 when P has tiny order.
 *
 * Baby steps (lo + j)P for 0 <= j < m meet giant steps -(i*m)P at
 * N = lo + i*m + j, with m = isqrt(hi - lo + 1).  A giant step on O means
 * the order of P divides i*m: P hardly narrows the window, and an order
 * below m (repeated baby steps) always shows this way, since i runs to at
 * least m - 1.  At most (hi - lo) / m + 1 <= m + 3 values are found, one per i. */
static i64 annihilators(Pt P, u64 a, u64 p, u64 lo, u64 hi, u64 *found)
{
    Slot tab[2 * MAX_M];
    u64 m = isqrt(hi - lo + 1), i, j, h, mask, n = 0;
    int bits = 2;
    i64 inf_j = -1;  /* first j with (lo + j)P = O */
    Pt R = pt_mul(lo, P, a, p), U = INF, G = pt_mul(m, (Pt){P.x, (p - P.y) % p, 0}, a, p);
    while ((1ULL << bits) < 2 * m)
        bits++;
    mask = (1ULL << bits) - 1;
    memset(tab, 0, (mask + 1) * sizeof(Slot));
    for (j = 0; j < m; j++, R = pt_add(R, P, a, p)) {
        if (R.inf) {
            if (inf_j < 0)
                inf_j = (i64)j;
            continue;
        }
        for (h = slot_of(R, bits); tab[h].j1; h = (h + 1) & mask)
            if (tab[h].x == R.x && tab[h].y == R.y)
                break;  /* keep the first j */
        if (!tab[h].j1)
            tab[h] = (Slot){R.x, R.y, j + 1};
    }
    for (i = 0; i <= (hi - lo) / m; i++, U = pt_add(U, G, a, p)) {
        i64 hit = -1;
        if (U.inf && i)
            return -1;
        if (U.inf)
            hit = inf_j;
        else
            for (h = slot_of(U, bits); tab[h].j1 && hit < 0; h = (h + 1) & mask)
                if (tab[h].x == U.x && tab[h].y == U.y)
                    hit = (i64)tab[h].j1 - 1;
        if (hit >= 0 && lo + i * m + (u64)hit <= hi)
            found[n++] = lo + i * m + (u64)hit;
    }
    return (i64)n;
}

/* Group order by Shanks-Mestre: the one N in the Hasse window that
 * annihilates every point tried (#E is always among the candidates). */
static int trace_bsgs(u64 a, u64 b, u64 p, i64 *trace)
{
    u64 w = isqrt(4 * p), lo = p + 1 - w, hi = p + 1 + w;
    u64 state = p * HASH_MULT + SEED_ADD, cands[MAX_M];
    i64 n = -1, k, kept;
    int trial;
    if (state == 0)
        state = 1;
    for (trial = 0; trial < 20; trial++) {
        Pt P = next_point(&state, a, b, p);
        if (n < 0) {
            if ((n = annihilators(P, a, p, lo, hi, cands)) < 0)
                continue;
        } else {
            for (k = kept = 0; k < n; k++)
                if (pt_mul(cands[k], P, a, p).inf)
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

/* Trace every job with the GIL released; raise and return -1 on failure. */
static int run_jobs(Job *jobs, Py_ssize_t n, long long naive_limit)
{
    u64 limit = naive_limit < 0 ? 0 : (u64)naive_limit;
    int status = TRACE_OK;
    Py_ssize_t i;
    Py_BEGIN_ALLOW_THREADS
    for (i = 0; i < n && status == TRACE_OK; i++)
        status = (jobs[i].p < limit ? trace_naive : trace_bsgs)(
            jobs[i].a, jobs[i].b, jobs[i].p, &jobs[i].trace);
    Py_END_ALLOW_THREADS
    if (status == TRACE_NOMEM)
        PyErr_NoMemory();
    else if (status == TRACE_NOCAND)
        PyErr_SetString(PyExc_AssertionError, "no group-order candidate in the Hasse window");
    return status == TRACE_OK ? 0 : -1;
}

static PyObject *ec_trace(PyObject *Py_UNUSED(self), PyObject *args, PyObject *kwargs)
{
    static char *kwlist[] = {"a", "b", "p", "naive_limit", NULL};
    PyObject *a, *b, *p;
    long long naive_limit = NAIVE_LIMIT;
    Job job;
    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "OOO|L:ec_trace", kwlist,
                                     &a, &b, &p, &naive_limit)
        || job_init(&job, a, b, p) < 0 || run_jobs(&job, 1, naive_limit) < 0)
        return NULL;
    return PyLong_FromLongLong(job.trace);
}

static PyObject *ec_traces(PyObject *Py_UNUSED(self), PyObject *args, PyObject *kwargs)
{
    static char *kwlist[] = {"a", "b", "primes", "naive_limit", NULL};
    PyObject *a, *b, *primes, *seq, *t, *out = NULL;
    long long naive_limit = NAIVE_LIMIT;
    Py_ssize_t n, i;
    Job *jobs;
    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "OOO|L:ec_traces", kwlist,
                                     &a, &b, &primes, &naive_limit)
        || (seq = PySequence_Tuple(primes)) == NULL)  /* a copy no callback can change */
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
    if (run_jobs(jobs, n, naive_limit) < 0 || (out = PyList_New(n)) == NULL)
        goto done;
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

/* ------------------------------------------------------------------------
 * supersingular scan over F_(l^2) = F_l(w), w^2 = nonres */

typedef struct { u64 u, v; } F2;

static F2 f2_mul(F2 x, F2 y, u64 l, u64 ns)
{
    return (F2){(x.u * y.u + x.v * y.v % l * ns) % l, (x.u * y.v + x.v * y.u) % l};
}

static F2 f2_inv(F2 x, u64 l, u64 ns)
{
    u64 ni = invmod((x.u * x.u + (l - x.v * x.v % l * ns % l)) % l, l);
    return (F2){x.u * ni % l, (l - x.v) % l * ni % l};
}

/* Supersingular j = u + v*w in F_(l^2), encoded u*l + v with v <= (l-1)/2:
 * a curve with invariant j is supersingular iff l divides its trace over
 * F_(l^2), minus the sum over x of the quadratic character of x^3 + a x + b. */
static PyObject *supersingular_js_fq2(PyObject *Py_UNUSED(self), PyObject *args)
{
    long long ell, nonres, t;
    u64 l, ns, n2, xu, xv, ju, jv, nfound = 0;
    F2 *cube, one = {1, 0}, zero = {0, 0};
    signed char *chi;
    unsigned char *hit;
    PyObject *out;
    if (!PyArg_ParseTuple(args, "LL:supersingular_js_fq2", &ell, &nonres))
        return NULL;
    if (ell < 3 || ell >= (1LL << 20))
        return PyErr_Format(PyExc_ValueError, "l = %lld is outside 3 <= l < 2**20", ell);
    l = (u64)ell;
    ns = (u64)(nonres % ell + ell) % l;
    n2 = l * l;
    if ((cube = PyMem_RawCalloc(n2, sizeof(F2) + 2)) == NULL)
        return PyErr_NoMemory();
    chi = (signed char *)(cube + n2);
    hit = (unsigned char *)(chi + n2);
    Py_BEGIN_ALLOW_THREADS
    /* quadratic character: 1 on nonzero squares, -1 on nonsquares, 0 at 0 */
    memset(chi, -1, n2);
    for (xu = 0; xu < l; xu++)
        for (xv = 0; xv < l; xv++) {
            F2 x = {xu, xv}, sq = f2_mul(x, x, l, ns);
            chi[sq.u * l + sq.v] = 1;
            cube[xu * l + xv] = f2_mul(sq, x, l, ns);
        }
    chi[0] = 0;
    for (ju = 0; ju < l; ju++)
        for (jv = 0; jv < (l + 1) / 2; jv++) {
            F2 ca = zero, cb = one, k;                  /* j = 0: y^2 = x^3 + 1 */
            if (ju == 1728 % l && jv == 0 && ju) {
                ca = one;                               /* j = 1728: y^2 = x^3 + x */
                cb = zero;
            } else if (ju || jv) {                      /* a = 3k, b = 2k, k = j/(1728 - j) */
                k = f2_mul((F2){ju, jv}, f2_inv((F2){(1728 % l + l - ju) % l, (l - jv) % l},
                                                l, ns), l, ns);
                ca = f2_mul((F2){3 % l, 0}, k, l, ns);
                cb = f2_mul((F2){2 % l, 0}, k, l, ns);
            }
            for (t = 0, xu = 0; xu < l; xu++) {
                const F2 *c = cube + xu * l;
                u64 fu = cb.u + ca.u * xu, fv = cb.v + ca.v * xu, avn = ca.v * ns;
                for (xv = 0; xv < l; xv++)
                    t += chi[(c[xv].u + fu + avn * xv) % l * l + (c[xv].v + fv + ca.u * xv) % l];
            }
            if (t % ell == 0) {
                hit[ju * l + jv] = 1;
                nfound++;
            }
        }
    Py_END_ALLOW_THREADS
    out = flagged_list(hit, n2, nfound);
    PyMem_RawFree(cube);
    return out;
}

static PyMethodDef methods[] = {
    {"primes_below", primes_below, METH_O,
     "primes_below(limit)\n--\n\nAscending list of all primes p < limit."},
    {"ec_trace", (PyCFunction)(void (*)(void))ec_trace, METH_VARARGS | METH_KEYWORDS,
     "ec_trace(a, b, p, naive_limit=NAIVE_LIMIT)\n--\n\n"
     "Trace of Frobenius of y^2 = x^3 + a*x + b over F_p (p >= 5 prime)."},
    {"ec_traces", (PyCFunction)(void (*)(void))ec_traces, METH_VARARGS | METH_KEYWORDS,
     "ec_traces(a, b, primes, naive_limit=NAIVE_LIMIT)\n--\n\n"
     "Traces of the global curve y^2 = x^3 + a*x + b at each given prime."},
    {"supersingular_js_fq2", supersingular_js_fq2, METH_VARARGS,
     "supersingular_js_fq2(ell, nonres)\n--\n\n"
     "Supersingular j-invariants in F_(l^2) by point counting, encoded\n"
     "u*l + v for u + v*w (w^2 = nonres), one of each conjugate pair."},
    {NULL, NULL, 0, NULL}
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT, .m_name = "bpx._eckernel", .m_size = -1, .m_methods = methods,
    .m_doc = "Compiled kernels: prime sieve and elliptic-curve traces (C twin of\n"
             "bpx._eckernel_py; primes p < 2**31).",
};

PyMODINIT_FUNC PyInit__eckernel(void)
{
    PyObject *m = PyModule_Create(&module);
    if (m && PyModule_AddIntConstant(m, "NAIVE_LIMIT", NAIVE_LIMIT) < 0)
        Py_CLEAR(m);
    return m;
}
