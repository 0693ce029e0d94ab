"""Kernel backend selection.

The compiled C extension ``bpx._eckernel`` is used when it is importable;
otherwise the pure-Python fallback ``bpx._eckernel_py`` with the identical
API and identical results: one prime sieve, one batch trace call
``ec_traces`` (a single prime is a list of one), and one supersingular
scan, the pure kernel's character-sum correlation on both backends.
"""

from __future__ import annotations

try:
    from . import _eckernel as _impl  # type: ignore[attr-defined]
    BACKEND = "compiled"
except ImportError:
    from . import _eckernel_py as _impl
    BACKEND = "python"

# The prime below which the active backend's ec_traces counts points rather
# than searching by BSGS, measured on each backend
# (benchmarks/bench_kernels.py); it is the default of every naive_limit.
NAIVE_LIMIT = _impl.NAIVE_LIMIT

primes_below = _impl.primes_below
supersingular_js_fq2 = _impl.supersingular_js_fq2

# Order of E(Q)_tors of the short models (density.EllCurve.short_form) of
# X0(11), X0(17) and X0(19).  It embeds in E(F_p) at every good p >= 3, so
# it divides #E(F_p) and the trace search needs only its multiples.
RATIONAL_TORSION = {(-13392, -1080432): 5, (-7371, -240570): 4,
                    (-12096, -544752): 3}


def ec_traces(a: int, b: int, primes,
              naive_limit: int = NAIVE_LIMIT) -> list[int]:
    """Traces of the global curve y^2 = x^3 + a*x + b at each given prime.

    Four arguments, as bpxbench's tracer observes them and its replay
    passes them to each backend, so the torsion is looked up here."""
    t = RATIONAL_TORSION.get((a, b), 1)
    return _impl.ec_traces(a, b, primes, naive_limit, t)


def backend() -> str:
    """Name of the active kernel backend: 'compiled' or 'python'."""
    return BACKEND
