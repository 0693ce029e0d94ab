"""List the functions of ``bpx`` that no benchmark command enters.

Run:  python benchmarks/reachability.py [TREE]     (Python 3.11 or later)

TREE is a checkout, by default the one this script is in.  The commands
are those of benchmarks/same_documents.py: every command of both
workloads in TREE's ``bpxbench/run.py`` and its ``EXTRA_COMMANDS``.
Each runs in this process through ``bpx.cli.run``, once each as json,
text and csv, with ``--out`` to a temporary file and one fresh cache
directory for the whole run, under a ``sys.settrace`` hook that records
every code object called.  Every function of TREE's ``src/bpx`` that
none of them enters is then printed with its code lines (the lines that
carry bytecode, its ``def`` line among them), and the totals last.  A
comprehension, generator expression or lambda is part of the function
that contains it, and module and class bodies, which run on import, are
not listed.
"""

import argparse
import contextlib
import io
import inspect
import os
import sys
import tempfile
import threading
from pathlib import Path

from same_documents import EXTRA_COMMANDS, FORMATS, benchmark_commands


def functions(path: Path) -> dict:
    """{(line, qualified name): code lines} for every function in path,
    each comprehension and lambda folded into the function around it."""
    out = {}

    def walk(code, owner):
        if code.co_flags & inspect.CO_NEWLOCALS and not code.co_name.startswith("<"):
            owner = (code.co_firstlineno, code.co_qualname)
            out[owner] = set()
        if owner is not None:
            out[owner].update(line for _, _, line in code.co_lines()
                              if line is not None)
        for const in code.co_consts:
            if hasattr(const, "co_lines"):
                walk(const, owner)

    walk(compile(path.read_text(), str(path), "exec"), None)
    return {key: len(lines) for key, lines in out.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("tree", type=Path, nargs="?",
                    default=Path(__file__).resolve().parent.parent)
    tree = ap.parse_args(argv).tree.resolve()
    src = tree / "src" / "bpx"
    sys.path.insert(0, str(tree / "src"))
    from bpx import cli

    entered = set()

    def hook(frame, event, arg):
        code = frame.f_code
        entered.add((code.co_filename, code.co_firstlineno, code.co_qualname))

    commands = list(dict.fromkeys(benchmark_commands(tree) + EXTRA_COMMANDS))
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "out")
        threading.settrace(hook)
        sys.settrace(hook)
        try:  # an input a command refuses prints its reason on stderr: not shown
            for command in commands:
                for fmt in FORMATS:
                    with contextlib.redirect_stderr(io.StringIO()):
                        cli.run(command.split() + ["--format", fmt, "--out", out,
                                                   "--cache-dir", os.path.join(tmp, "cache")])
        finally:
            sys.settrace(None)
            threading.settrace(None)

    missed = total = lines = 0
    for path in sorted(src.glob("*.py")):
        name = str(path)
        for (first, qualname), count in functions(path).items():
            total += 1
            if (name, first, qualname) not in entered:
                missed += 1
                lines += count
                print(f"{path.stem}.{qualname}  {count}")
    print(f"{missed} of {total} functions, {lines} code lines, "
          f"entered by none of {len(commands)} commands in {len(FORMATS)} formats")
    return 0


if __name__ == "__main__":
    sys.exit(main())
