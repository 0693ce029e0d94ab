"""Benchmark: compiled kernel vs pure-Python fallback on the hot paths.

Run:  python benchmarks/bench_kernels.py [--full]

Covers the three kernel entry points: prime sieving, elliptic-curve
traces (the inner loop of the empirical density tables), and the
supersingular j-invariant scan over F_(l^2).  The crossover table times
counting against the BSGS search per prime on each backend; each
backend's NAIVE_LIMIT sits where the search becomes the cheaper one.
The compiled rows need the extension built where ``bpx`` is imported
from (``python setup.py build_ext --inplace`` or ``pip install .``).
"""

import argparse
import time

import bpx._eckernel_py as pure

try:
    import bpx._eckernel as compiled
except ImportError:
    compiled = None

A11, B11 = -27 * 496, -54 * 20008  # short model of the level 11 curve


def timed(fn, *args):
    t0 = time.perf_counter()
    out = fn(*args)
    return time.perf_counter() - t0, out


def row(name, pure_fn, comp_fn, *args):
    tp, want = timed(pure_fn, *args)
    if comp_fn is None:
        print(f"{name:<42} pure {tp:9.3f}s   compiled      n/a")
        return
    tc, got = timed(comp_fn, *args)
    assert got == want, f"backend disagreement in {name}"
    print(f"{name:<42} pure {tp:9.3f}s   compiled {tc:8.3f}s   x{tp / tc:6.1f}")


def crossover(backends):
    """Microseconds per prime, counting vs BSGS, over 40 primes from lo on."""
    print("\nper-prime cost, counting / BSGS (us)")
    print(f"{'p from':>8}" + "".join(f"{name:>22}" for name in backends))
    for lo in (300, 500, 1000, 2000, 4000, 10 ** 4):
        primes = [p for p in pure.primes_below(2 * lo) if p >= lo][:40]
        cells = []
        for mod in backends.values():
            tn = min(timed(mod.ec_traces, A11, B11, primes, 10 ** 9)[0]
                     for _ in range(3))
            tb = min(timed(mod.ec_traces, A11, B11, primes, 2)[0]
                     for _ in range(3))
            cells.append(f"{tn / len(primes) * 1e6:10.1f} /{tb / len(primes) * 1e6:8.1f}")
        print(f"{lo:>8}" + "".join(f"{c:>22}" for c in cells))


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
    band = primes[-400:]
    row("ec_traces, 400 primes near 10^6 (BSGS)", pure.ec_traces,
        c.ec_traces if c else None, A11, B11, band)

    # naive on both sides, whatever each backend's crossover
    small = [p for p in primes if p < 10000][-300:]
    row("ec_traces, 300 primes < 10^4 (naive)", pure.ec_traces,
        c.ec_traces if c else None, A11, B11, small, 10 ** 9)

    row("supersingular_js_fq2(47)", pure.supersingular_js_fq2,
        c.supersingular_js_fq2 if c else None, 47, 5)

    if args.full:
        row(f"ec_traces, all {len(primes)} primes < 10^6", pure.ec_traces,
            c.ec_traces if c else None, A11, B11, primes)

    crossover(backends)


if __name__ == "__main__":
    main()
