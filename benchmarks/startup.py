"""Time ``import bpx.cli`` in fresh processes from two checkouts.

Run:  python benchmarks/startup.py PARENT_DIR CHANGE_DIR [--pairs N] [--site]

Copies each tree's ``src`` into a temporary directory, less any
``__pycache__``, and runs ``python -S -c "import bpx.cli"`` against each
copy with PYTHONDONTWRITEBYTECODE=1, so both sides compile ``bpx`` from
source on every run.  ``--site`` drops ``-S``: the interpreter then runs
the site hooks first, and a ``.pth`` file there may import modules that
``bpx`` would otherwise load itself.  Each pair runs both trees once,
the parent first in even pairs and the change first in odd ones, and the
time is the wall clock of the whole process.  Prints each side's min and
median and the number of pairs in which the change was faster.
"""

import argparse
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path


def run_once(src: Path, flags: list[str]) -> float:
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    start = time.perf_counter()
    subprocess.run([sys.executable, *flags, "-c", "import bpx.cli"],
                   cwd=src, env=env, check=True)
    return time.perf_counter() - start


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--pairs", type=int, default=20)
    ap.add_argument("--site", action="store_true",
                    help="run the site hooks (no -S)")
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    flags = [] if args.site else ["-S"]
    with tempfile.TemporaryDirectory() as tmp:
        srcs = []
        for side, tree in (("parent", args.parent), ("change", args.change)):
            dest = Path(tmp) / side
            shutil.copytree(tree / "src", dest,
                            ignore=shutil.ignore_patterns("__pycache__"))
            srcs.append(dest)
        times = ([], [])
        for i in range(args.pairs):
            order = (0, 1) if i % 2 == 0 else (1, 0)
            for side in order:
                times[side].append(run_once(srcs[side], flags))
    print(f"import bpx.cli, {args.pairs} pairs, {'site' if args.site else '-S'}")
    for side, ts in zip(("parent", "change"), times):
        print(f"{side}  min {min(ts) * 1e3:.1f} ms  median "
              f"{statistics.median(ts) * 1e3:.1f} ms")
    won = sum(c < p for p, c in zip(*times))
    print(f"change faster in {won} of {args.pairs} pairs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
