"""Run one bpx CLI command in this process, with layer spans and counters.

Usage: python traced_op.py OUT.json [--record-kernel] -- <bpx cli arguments>

The wrappers live here, outside the program: each public function the
benchmark names is replaced, in every ``bpx`` module that holds a
reference to it, by a wrapper that records a span (name, start, end,
parent) and updates counters.  ``QSeries.__mul__`` spans are named by the
coefficient ring.  The command's document goes to stdout as usual; spans,
counters and (with --record-kernel) the arguments and results of every
``bpx.kernel`` call go to OUT.json when the command ends.

BPXBENCH_T0 in the environment is the parent's ``time.perf_counter()``
just before it started this process; on Linux that clock is
CLOCK_MONOTONIC, shared by all processes, so the interpreter start-up is
part of the ``cli.import`` span.
"""

import os
import sys
import time

T_SPAWN = float(os.environ["BPXBENCH_T0"])

import bpx.cli  # noqa: E402  (the import is what cli.import measures)

T_IMPORTED = time.perf_counter()

import functools  # noqa: E402
import json  # noqa: E402

from bpx import classpoly, qseries  # noqa: E402

# module -> public functions wrapped with a span of the same name
TARGETS = {
    "qseries": ("jfunction",),
    "borcherds": ("log_derivative_exact", "exact_exponents", "fit_congruence",
                  "formula_eval", "verify_congruence"),
    "classpoly": ("singular_modulus", "hilbert_class_poly", "eligibility"),
    "ssforms": ("supersingular_poly", "supersingular_poly_bruteforce",
                "eigenbasis", "hecke_Tp"),
    "density": ("asymptotic_table", "empirical_table", "charpoly_count"),
    "kernel": ("primes_below", "ec_traces", "supersingular_js_fq2"),
}
BACKEND_MODULES = ("bpx._eckernel", "bpx._eckernel_py")
RING_SUFFIX = {"ZZ": "zz", "QQ": "qq"}


class Tracer:
    def __init__(self, record_kernel: bool):
        self.spans = []  # [name, start, end, parent index or -1]
        self.stack = []
        self.counters = {}
        self.precisions = set()  # (discriminant, prec) seen at singular_modulus
        self.kernel_calls = [] if record_kernel else None

    def count(self, key, n=1):
        self.counters[key] = self.counters.get(key, 0) + n

    def high(self, key, value):
        self.counters[key] = max(self.counters.get(key, value), value)

    def span(self, name, fn, *args, **kwargs):
        parent = self.stack[-1] if self.stack else -1
        idx = len(self.spans)
        rec = [name, time.perf_counter(), None, parent]
        self.spans.append(rec)
        self.stack.append(idx)
        try:
            return fn(*args, **kwargs)
        finally:
            rec[2] = time.perf_counter()
            self.stack.pop()

    def wrap(self, name, fn, observe=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if observe is not None:
                observe(*args, **kwargs)
            out = self.span(name, fn, *args, **kwargs)
            if self.kernel_calls is not None and name.startswith("kernel."):
                self.kernel_calls.append(
                    {"fn": name[len("kernel."):], "args": _plain(args),
                     "kwargs": _plain(kwargs), "result": _plain(out)})
            return out
        return wrapper


def _plain(value):
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    return value


def _rebind(orig, replacement):
    """Point every bpx module's reference to ``orig`` at ``replacement``."""
    for name, mod in list(sys.modules.items()):
        if not name.startswith("bpx") or name in BACKEND_MODULES or mod is None:
            continue
        for attr, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, attr, replacement)


def install(tr: Tracer) -> None:
    def on_singular_modulus(Q, prec=40):
        tr.precisions.add((-Q.discriminant, prec))
        tr.high("classpoly.singular_modulus.max_digits", prec)

    def on_jfunction(n, ring=None):
        tr.high("qseries.max_order", n)

    def on_ec_traces(a, b, primes, naive_limit=10000):
        primes = list(primes)
        tr.count("kernel.ec_traces.primes", len(primes))
        tr.count("kernel.ec_traces.naive_primes",
                 sum(1 for p in primes if p < naive_limit))

    observers = {"classpoly.singular_modulus": on_singular_modulus,
                 "qseries.jfunction": on_jfunction,
                 "kernel.ec_traces": on_ec_traces}
    for modname, names in TARGETS.items():
        mod = sys.modules[f"bpx.{modname}"]
        for fname in names:
            span = f"{modname}.{fname}"
            orig = getattr(mod, fname)
            _rebind(orig, tr.wrap(span, orig, observers.get(span)))

    QSeries = qseries.QSeries
    mul, inverse = QSeries.__mul__, QSeries.inverse

    def traced_mul(self, other):
        if not isinstance(other, QSeries):
            return mul(self, other)  # scalar multiple: not a series product
        ring = self.ring.name
        suffix = "gf" if ring.startswith("GF(") else RING_SUFFIX.get(ring, "other")
        out = tr.span(f"qseries.mul_{suffix}", mul, self, other)
        tr.high("qseries.max_order", out.trunc)
        return out

    def traced_inverse(self):
        out = tr.span("qseries.inverse", inverse, self)
        tr.high("qseries.max_order", out.trunc)
        return out

    QSeries.__mul__ = QSeries.__rmul__ = traced_mul
    QSeries.inverse = traced_inverse


def precision_attempts(seen) -> int:
    """Precision attempts, from the (d, prec) pairs seen at singular_modulus.

    hilbert_class_poly computes roots at prec = base * 2^k (base >= 30) and
    verifies them at prec + 20, so a prec whose prec - 20 was also seen for
    the same d is a verification call, not a new attempt.
    """
    return sum(1 for d, p in seen if (d, p - 20) not in seen)


def main(argv) -> int:
    sep = argv.index("--")
    out_path, flags, cli_args = argv[0], argv[1:sep], argv[sep + 1:]
    tr = Tracer(record_kernel="--record-kernel" in flags)
    install(tr)
    stats_before = classpoly.cache_stats()
    try:
        return tr.span("cli.run", bpx.cli.run, cli_args)
    finally:
        stats_after = classpoly.cache_stats()
        tr.count("classpoly.cache_hits", stats_after["hits"] - stats_before["hits"])
        tr.count("classpoly.cache_misses",
                 stats_after["misses"] - stats_before["misses"])
        tr.count("classpoly.precision_attempts", precision_attempts(tr.precisions))
        record = {"t_spawn": T_SPAWN, "t_imported": T_IMPORTED,
                  "spans": tr.spans, "counters": tr.counters}
        if tr.kernel_calls is not None:
            record["kernel_calls"] = tr.kernel_calls
        with open(out_path, "w") as fh:
            json.dump(record, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
