"""Kernel backend selection.

The compiled Cython extension is used when it is importable; otherwise the
pure-Python fallback with the identical API.  Set ``BPX_FORCE_PURE=1`` to
force the fallback (used by the backend-parity tests and benchmarks).
"""

from __future__ import annotations

import os

from . import _eckernel_py

if os.environ.get("BPX_FORCE_PURE") == "1":
    _impl = _eckernel_py
    BACKEND = "python"
else:
    try:
        from . import _eckernel as _impl  # type: ignore[attr-defined]
        BACKEND = "compiled"
    except ImportError:
        _impl = _eckernel_py
        BACKEND = "python"

# The prime below which each backend's ec_trace counts points rather than
# searching by BSGS, measured on each (benchmarks/bench_kernels.py); it is
# the default of that backend's naive_limit argument.
NAIVE_LIMITS = {"compiled": 10_000, "python": _eckernel_py.NAIVE_LIMIT}
NAIVE_LIMIT = NAIVE_LIMITS[BACKEND]

primes_below = _impl.primes_below
ec_trace = _impl.ec_trace
ec_traces = _impl.ec_traces
supersingular_js_fq2 = _impl.supersingular_js_fq2


def backend() -> str:
    """Name of the active kernel backend: 'compiled' or 'python'."""
    return BACKEND
