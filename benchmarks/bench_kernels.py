"""Benchmark: compiled kernel vs pure-Python fallback on the hot paths.

Run:  python benchmarks/bench_kernels.py [--full]

Covers the three kernel entry points: prime sieving, elliptic-curve
traces (the inner loop of the empirical density tables), and the
supersingular j-invariant scan over F_(l^2), one character-sum
correlation that both backends share, so its rows have one column.
The trace rows run the search over the whole Hasse window (t = 1) and
over the multiples of the curve's rational torsion (t = 5), as
``bpx.kernel`` does for this curve.
The crossover table times counting against the BSGS search per prime on
each backend, at t = 1 and t = 5; each backend's NAIVE_LIMIT sits where
the t = 1 search becomes the cheaper one.
The pool row times ``bpx.density.ec_traces``, which runs blocks of 4096
primes on one thread per usable CPU with the compiled kernel, against one
compiled ``bpx.kernel.ec_traces`` call on the same primes.
The eta row times ``bpx.density.x0_11_eta_traces``, X0(11)'s a(p) at every
good p < 10^5 from one transform square of its eta-product, against the
pure-Python trace search on the same primes, each in a fresh process that
reports its peak RSS; the two processes differ only in the route.  The row
also shows k, the decimal digits per slot of the square: the least with
10^k > 2 sum F_i^2, as ``bpx.qseries._square_at`` chooses it.  Beside the trace
rows for p < 10^5 it shows which route is faster on each backend.
The compiled rows need the extension built where ``bpx`` is imported
from (``python setup.py build_ext --inplace`` or ``pip install .``).
"""

import argparse
import subprocess
import sys
import time

import bpx._eckernel_py as pure
from bpx import density, kernel

try:
    import bpx._eckernel as compiled
except ImportError:
    compiled = None

A11, B11 = -27 * 496, -54 * 20008  # short model of the level 11 curve
T11 = 5  # the order of its rational torsion, which divides every #E(F_p)


def timed(fn, *args):
    t0 = time.perf_counter()
    out = fn(*args)
    return time.perf_counter() - t0, out


def row(name, pure_fn, comp_fn, *args):
    tp, want = timed(pure_fn, *args)
    if comp_fn is None:
        print(f"{name:<46} pure {tp:9.4f}s   compiled       n/a")
        return
    tc, got = timed(comp_fn, *args)
    assert got == want, f"backend disagreement in {name}"
    print(f"{name:<46} pure {tp:9.4f}s   compiled {tc:9.4f}s   x{tp / tc:6.1f}")


def trace_rows(name, primes, c):
    """One row per torsion: the whole Hasse window, then multiples of 5."""
    for t in (1, T11):
        row(f"{name}, t = {t}", pure.ec_traces, c.ec_traces if c else None,
            A11, B11, primes, 2, t)


def pool_row():
    """X0(11) at every good p < 10^6: the automatic thread pool against one call."""
    name = "X0(11), all good p < 10^6, compiled"
    if kernel.BACKEND != "compiled":
        print(f"{name:<46} pool n/a (pure kernel: no pool)")
        return
    curve = density.X0_CURVES[11]
    A, B = curve.short_form
    primes = [p for p in pure.primes_below(10 ** 6) if p >= 5 and p != 11]
    t1, want = timed(kernel.ec_traces, A, B, primes)
    tp, got = timed(density.ec_traces, curve, primes)
    assert got == want, "pooled traces differ from one call"
    print(f"{name:<46} one call {t1:9.4f}s   pool on {density._usable_cpus()} CPUs "
          f"{tp:9.4f}s   x{t1 / tp:6.1f}")


# One route for X0(11) at the good p < 10^5 in a fresh process: seconds and
# the peak RSS of the process in MB.
ROUTE = """
import resource, sys, time
import bpx._eckernel_py as pure
from bpx import density
primes = [p for p in pure.primes_below(10 ** 5) if p != 11]
A, B = density.X0_CURVES[11].short_form
t0 = time.perf_counter()
if sys.argv[1] == "eta":
    out = density.x0_11_eta_traces(primes)[2:]
else:  # the short model is good from p = 5 on
    out = pure.ec_traces(A, B, primes[2:], pure.NAIVE_LIMIT, 5)
seconds = time.perf_counter() - t0
peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
k = 0
if sys.argv[1] == "eta":  # after the timing: F again, to read its slot width
    seen = []
    density._square_at = lambda f, positions: seen.append(f) or []
    density.x0_11_eta_traces(primes)
    k = len(str(2 * sum(v * v for v in seen[0])))
print(seconds, peak, k, hash(tuple(out)))
"""


def eta_row():
    """X0(11) at every good p < 10^5: the eta-product route against the
    pure trace search, with each process's peak RSS and the square's slot
    width."""
    (te, me, k, he), (tt, mt, _, ht) = (
        map(float, subprocess.run([sys.executable, "-c", ROUTE, route],
                                  capture_output=True, text=True,
                                  check=True).stdout.split())
        for route in ("eta", "traces"))
    assert he == ht, "eta route and traces disagree"
    name = "X0(11) a(p), all good p < 10^5, eta route"
    print(f"{name:<46} eta {te:9.4f}s {me:5.1f} MB k = {k:.0f}   pure traces "
          f"{tt:9.4f}s {mt:5.1f} MB")


def crossover(backends):
    """Microseconds per prime, counting vs BSGS at t = 1 and t = 5, over 40
    primes from lo on."""
    print("\nper-prime cost, counting / BSGS t = 1 / BSGS t = 5 (us)")
    print(f"{'p from':>8}" + "".join(f"{name:>30}" for name in backends))
    for lo in (300, 500, 600, 1000, 2000, 4000, 10 ** 4):
        primes = [p for p in pure.primes_below(2 * lo) if p >= lo][:40]
        cells = []
        for mod in backends.values():
            us = [min(timed(mod.ec_traces, A11, B11, primes, limit, t)[0]
                      for _ in range(3)) / len(primes) * 1e6
                  for limit, t in ((10 ** 9, 1), (2, 1), (2, T11))]
            cells.append("{:10.1f} /{:8.1f} /{:8.1f}".format(*us))
        print(f"{lo:>8}" + "".join(f"{c:>30}" for c in cells))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--full", action="store_true",
                    help="benchmark the full X = 10^6 trace workload")
    args = ap.parse_args()

    backends = {"pure": pure}
    if compiled is not None:
        backends["compiled"] = compiled
    print(f"compiled kernel available: {compiled is not None}")
    print("naive/BSGS crossover: " + ", ".join(
        f"{name} p < {mod.NAIVE_LIMIT}" for name, mod in backends.items()) + "\n")
    c = compiled
    row("primes_below(10^7)", pure.primes_below,
        c.primes_below if c else None, 10 ** 7)

    primes = [p for p in pure.primes_below(10 ** 6)
              if p >= 5 and p != 11]
    trace_rows("ec_traces, 400 primes near 10^6 (BSGS)", primes[-400:], c)
    # the primes of the curve tally of density --empirical 100000
    trace_rows("ec_traces, all primes < 10^5 (BSGS)",
               [p for p in primes if p < 10 ** 5], c)

    # naive on both sides, whatever each backend's crossover
    small = [p for p in primes if p < 10000][-300:]
    row("ec_traces, 300 primes < 10^4 (naive)", pure.ec_traces,
        c.ec_traces if c else None, A11, B11, small, 10 ** 9)

    # (l, a nonresidue mod l); 199 is the largest l the oracle accepts
    for ell, ns in ((19, 2), (47, 5), (199, 3)):
        name = f"supersingular_js_fq2({ell})"
        print(f"{name:<46} both {timed(pure.supersingular_js_fq2, ell, ns)[0]:9.4f}s")

    eta_row()
    pool_row()
    if args.full:
        trace_rows(f"ec_traces, all {len(primes)} primes < 10^6", primes, c)

    crossover(backends)


if __name__ == "__main__":
    main()
