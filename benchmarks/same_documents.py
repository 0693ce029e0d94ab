"""Check that two checkouts give the same documents for every benchmark command.

Run:  python benchmarks/same_documents.py PARENT_DIR CHANGE_DIR

Reads the commands of both workloads (main ops, every pool entry, and the
probes) from each tree's ``bpxbench/run.py``, adds the fixed
``EXTRA_COMMANDS`` for routes the benchmark does not reach, and runs each
one in both trees as ``python -m bpx.cli ... --format FORMAT``, once each
as json, text and csv, with the tree's ``src`` on PYTHONPATH and one
fresh cache directory per tree.  The two sides of a run go at the same
time.  A json document is compared as written, less its ``meta`` and
``cache`` keys, which describe the run rather than the result, and a
class polynomial's ``precision_used`` and ``residual_bound``, which
describe how it was verified rather than what it is (as the gate
``FIELDS`` of bpxbench/run.py does); every mathematical field is
compared.  Its bytes must also be those of ``json.dumps(indent=2,
sort_keys=True)`` plus a newline in each tree, so a change of layout
counts as a difference.  A text or csv document holds no run
description, so it is compared byte for byte (a command with no CSV form
must then fail alike in both trees).  The exit status and standard error
must match too.  Prints one line per document and exits 1 if any
differs.
"""

import argparse
import importlib.util
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

# run descriptions and the precision strategy, not results
RUN_KEYS = ("meta", "cache", "precision_used", "residual_bound")
FORMATS = ("json", "text", "csv")
# s_l at l = 1, 5, 7 and 11 mod 12 and at a large l, the point-count
# check at l = 97 and at its largest l, 199, divisibility scans at two
# other l than the benchmark's, a pair that the degree of H_d alone rules
# out (exit 2), two pairs of rank 0 (no cusp form of weight l + 1),
# class polynomials computed at 248 to 549 digits, exponents whose
# integer series products have class-polynomial-sized coefficients on both
# sides of the Kronecker/schoolbook choice, the l = 11 curve tally at tiny
# X (one, two or four primes, so F is cut to 2, 3 or 7 slots), at
# another d and just past the eta-product route's limit, where the traces
# take over, the curve tallies of l = 17 and 19, which always take the
# traces, the exact exponents, fit and check at d = 12, 16 and 27,
# whose class polynomials carry the Hurwitz weights 1/3, 1/2 and 1/3
# beside weight 1, check at rank 0 (l = 5) and at d = 3 to n = 725,
# past every multiple of 11 up to 715, and check at n = 1 and n = l,
# where its modulus 6 l lcm(1..n) is smallest, and at n = 600, past the
# benchmark's n, and exponents at d = 80, 239 and 1151, where the width
# rule takes Kronecker at Horner steps that the old cost model gave the
# schoolbook loop, and the eigenform tallies at l = 37, where a monomial
# completes the Eisenstein-pair generators, and at l = 31 past the
# benchmark's X, and the l = 37 fit, whose document prints that basis and
# its T_2 eigenvalues (the pair a = 6 is skipped, since 37 divides B_32)
EXTRA_COMMANDS = [f"supersingular --ell {ell}"
                  for ell in (5, 7, 13, 97, 199, 1009, 10007)]
EXTRA_COMMANDS += ["table2 --ell 31 --dmax 100", "table2 --ell 17 --dmax 150",
                   "congruence --d 239 --ell 11", "congruence --d 3 --ell 5",
                   "density --d 7 --ell 13"]
EXTRA_COMMANDS += [f"classpoly --d {d}" for d in (719, 2351, 2624)]
EXTRA_COMMANDS += ["exponents --d 719 --n 200", "exponents --d 2351 --n 100"]
EXTRA_COMMANDS += ["density --d 4 --ell 11 --empirical 3",
                   "density --d 4 --ell 11 --empirical 5",
                   "density --d 4 --ell 11 --empirical 13",
                   "density --d 16 --ell 11 --empirical 50000",
                   "density --d 4 --ell 11 --empirical 100001",
                   "density --d 3 --ell 17 --empirical 100000",
                   "density --d 4 --ell 19 --empirical 20000"]
EXTRA_COMMANDS += [f"exponents --d {d} --n 300" for d in (12, 16, 27)]
EXTRA_COMMANDS += ["congruence --d 12 --ell 11", "check --d 12 --ell 11 --n 300"]
EXTRA_COMMANDS += ["check --d 16 --ell 11 --n 300", "check --d 27 --ell 11 --n 300",
                   "check --d 3 --ell 11 --n 725", "check --d 3 --ell 5 --n 200"]
EXTRA_COMMANDS += ["check --d 4 --ell 11 --n 1", "check --d 20 --ell 31 --n 31",
                   "check --d 40 --ell 31 --n 600"]
EXTRA_COMMANDS += ["exponents --d 80 --n 300", "exponents --d 239 --n 200",
                   "exponents --d 1151 --n 150"]
EXTRA_COMMANDS += ["density --d 8 --ell 37 --empirical 10000",
                   "density --d 20 --ell 31 --empirical 30000"]
EXTRA_COMMANDS += ["congruence --d 8 --ell 37 --verify-to 400"]


def benchmark_commands(tree: Path) -> list[str]:
    """Every command of every workload in tree/bpxbench/run.py, in order."""
    spec = importlib.util.spec_from_file_location(
        "bpxbench_run", tree / "bpxbench" / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    out = []
    for workload in run.WORKLOADS.values():
        for op in workload["pass"] + workload["probes"]:
            if op is None:  # the PROBES marker
                continue
            pool = op[1]
            out += [pool] if isinstance(pool, str) else pool
    return out


def start(tree: Path, command: str, fmt: str, cache: str) -> subprocess.Popen:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(tree / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    argv = [sys.executable, "-m", "bpx.cli", *command.split(),
            "--format", fmt, "--cache-dir", cache]
    return subprocess.Popen(argv, cwd=tree, env=env, text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)


def result(proc: subprocess.Popen, fmt: str) -> tuple[int, str, str, bool]:
    """(exit status, document less any run keys, standard error, and whether
    a json document is laid out as json.dumps(indent=2, sort_keys=True))."""
    stdout, stderr = proc.communicate()
    if fmt != "json":
        return proc.returncode, stdout, stderr, True
    try:
        doc = json.loads(stdout)
    except ValueError:
        return proc.returncode, stdout, stderr, True
    layout = stdout == json.dumps(doc, indent=2, sort_keys=True) + "\n"
    for key in RUN_KEYS:
        doc.pop(key, None)
    return proc.returncode, json.dumps(doc, indent=2, sort_keys=True), stderr, layout


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    args = ap.parse_args(argv)
    if hasattr(sys, "set_int_max_str_digits"):  # exponents past 4300 digits
        sys.set_int_max_str_digits(0)
    trees = (args.parent.resolve(), args.change.resolve())
    commands = list(dict.fromkeys(benchmark_commands(trees[0])
                                  + benchmark_commands(trees[1])
                                  + EXTRA_COMMANDS))
    runs = [(command, fmt) for command in commands for fmt in FORMATS]
    differ = 0
    with tempfile.TemporaryDirectory() as c0, tempfile.TemporaryDirectory() as c1:
        for command, fmt in runs:
            procs = [start(tree, command, fmt, cache)
                     for tree, cache in zip(trees, (c0, c1))]
            old, new = (result(p, fmt) for p in procs)
            if old == new and old[3]:
                print(f"same     {fmt:<5} {command}")
                continue
            differ += 1
            print(f"DIFFERS  {fmt:<5} {command}")
            for name, before, after in zip(("exit status", "document", "stderr"), old, new):
                if before != after:
                    print(f"         {name}: parent {str(before)[:200]!r}")
                    print(f"         {' ' * len(name)}  change {str(after)[:200]!r}")
            for side, (*_, layout) in zip(("parent", "change"), (old, new)):
                if not layout:
                    print(f"         {side}: json not laid out as json.dumps(indent=2, sort_keys=True)")
    print(f"{len(runs) - differ} of {len(runs)} documents identical")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
