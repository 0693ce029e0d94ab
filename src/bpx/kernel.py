"""Kernel backend selection.

The compiled C extension ``bpx._eckernel`` is used when it is importable;
otherwise the pure-Python fallback ``bpx._eckernel_py`` with the identical
API and identical results.
"""

from __future__ import annotations

try:
    from . import _eckernel as _impl  # type: ignore[attr-defined]
    BACKEND = "compiled"
except ImportError:
    from . import _eckernel_py as _impl
    BACKEND = "python"

# The prime below which the active backend's ec_trace counts points rather
# than searching by BSGS, measured on each backend
# (benchmarks/bench_kernels.py); it is the default of every naive_limit.
NAIVE_LIMIT = _impl.NAIVE_LIMIT

primes_below = _impl.primes_below
ec_trace = _impl.ec_trace
ec_traces = _impl.ec_traces
supersingular_js_fq2 = _impl.supersingular_js_fq2


def backend() -> str:
    """Name of the active kernel backend: 'compiled' or 'python'."""
    return BACKEND
