"""Replay recorded bpx.kernel calls on each kernel backend.

Usage: python replay.py CALLS.json OUT.json

CALLS.json is a list of {"fn", "args", "kwargs", "result"} records taken
by traced_op.py.  Every call is run on the pure-Python backend
``bpx._eckernel_py`` and, when it imports, on the compiled
``bpx._eckernel``.  OUT.json gets per-function times for each backend and
the list of calls whose result differs from the recorded one.
"""

import importlib
import json
import sys
import time


def load_backends():
    backends = {"python": importlib.import_module("bpx._eckernel_py")}
    try:
        backends["compiled"] = importlib.import_module("bpx._eckernel")
    except ImportError:
        pass
    return backends


def main(calls_path, out_path) -> int:
    with open(calls_path) as fh:
        calls = json.load(fh)
    backends = load_backends()
    times = {name: {} for name in backends}
    mismatches = []
    for i, call in enumerate(calls):
        for name, mod in backends.items():
            fn = getattr(mod, call["fn"])
            t0 = time.perf_counter()
            got = fn(*call["args"], **call["kwargs"])
            dt = time.perf_counter() - t0
            times[name][call["fn"]] = times[name].get(call["fn"], 0.0) + dt
            if list(got) != call["result"]:
                mismatches.append({"call": i, "fn": call["fn"], "backend": name})
    with open(out_path, "w") as fh:
        json.dump({"backends": sorted(backends), "times": times,
                   "mismatches": mismatches}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
