"""Benchmark: a cold ``hilbert_class_poly(d)`` in two checkouts, alternating.

Run:  python benchmarks/bench_classpoly.py PARENT_DIR CHANGE_DIR [--d D ...] [--pairs N]

For each d (default 239, 719 and 2351) it runs N pairs (default 7) of
fresh processes, one per tree, with the tree's ``src`` first on the path;
the parent goes first in even pairs and second in odd ones.  A process
warms the j-series to the order that the largest singular modulus of d
needs at 20 digits past the precision bound, then times one
``hilbert_class_poly(d)`` into an empty cache directory, in process with
``time.perf_counter``: the singular moduli, the rounding, the checks
and the cache write.  Prints the min and median per side in
milliseconds, and the change's median over the parent's.
"""

import argparse
import statistics
import subprocess
import sys
from pathlib import Path

CHILD = """
import sys, tempfile, time
sys.path.insert(0, sys.argv[1] + "/src")
from bpx import classpoly
from bpx.qseries import jfunction
d = int(sys.argv[2])
groups = {}
for f in classpoly.reduced_forms(d):
    groups.setdefault(f.weight, []).append(f)
prec = classpoly._precision_bound(d, groups)
jfunction(classpoly._terms_needed(d, 1, prec + 20))
with tempfile.TemporaryDirectory() as cache:
    t0 = time.perf_counter()
    classpoly.hilbert_class_poly(d, cache_dir=cache)
    print(time.perf_counter() - t0)
"""


def cold_seconds(tree: Path, d: int) -> float:
    out = subprocess.run([sys.executable, "-c", CHILD, str(tree), str(d)],
                         check=True, capture_output=True, text=True).stdout
    return float(out)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--d", type=int, nargs="+", default=[239, 719, 2351])
    ap.add_argument("--pairs", type=int, default=7)
    args = ap.parse_args(argv)
    trees = (args.parent.resolve(), args.change.resolve())
    print(f"{'d':>5} {'parent min':>11} {'median':>8} {'change min':>11} {'median':>8}"
          f" {'ratio':>6}")
    for d in args.d:
        times = ([], [])
        for i in range(args.pairs):
            for side in ((0, 1) if i % 2 == 0 else (1, 0)):
                times[side].append(cold_seconds(trees[side], d))
        mins = [1000 * min(t) for t in times]
        medians = [1000 * statistics.median(t) for t in times]
        print(f"{d:>5} {mins[0]:11.1f} {medians[0]:8.1f} {mins[1]:11.1f} {medians[1]:8.1f}"
              f" {medians[1] / medians[0]:6.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
