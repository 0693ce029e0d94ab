"""Benchmark: the exact exponent solve q T'/T, direct and by sections.

Run:  PYTHONPATH=src python benchmarks/bench_solve.py [--repeat N]

For each (d, n) it records the divisors T and right-hand sides q T' that
``borcherds._log_derivative(d, n, ZZ, None)`` hands to
``qseries._solve_sections`` (one pair per class-polynomial factor; E4 or
E6 for the factors x and x - 1728), then times, summed over the pairs:

- ``direct``: ``qseries._solve_triangular``, one term at a time;
- ``rule``: ``qseries._solve_sections``, with the number of sections its
  width rule chose for each pair (1 is the direct solve);
- ``2``, ``4``, ``8``: the same even/odd split at a fixed depth of 1, 2
  and 3, with no rule.

Each time is the min of N runs (default 5), in seconds, and every route
is checked equal to the direct one.
"""

import argparse
import time

from bpx import borcherds, qseries
from bpx.qseries import ZZ, _kron_mul, _solve_sections, _solve_triangular

CASES = [(4, 700), (7, 660), (20, 500), (71, 200), (719, 100), (2351, 40)]
DEPTHS = (1, 2, 3)


def solve_pairs(d, n):
    """The (T, q T') pairs of the exact exponent route at (d, n)."""
    pairs = []

    def spy(s, rhs):
        pairs.append((s, rhs))
        return _solve_sections(s, rhs)

    borcherds._solve_sections = spy
    try:
        borcherds._log_derivative(d, n, ZZ, None)
    finally:
        borcherds._solve_sections = _solve_sections
    return pairs


def sections_chosen(s, rhs):
    """How many direct solves ``_solve_sections`` runs on (s, rhs)."""
    calls = []

    def spy(*args):
        calls.append(1)
        return _solve_triangular(*args)

    qseries._solve_triangular = spy
    try:
        _solve_sections(s, rhs)
    finally:
        qseries._solve_triangular = _solve_triangular
    return len(calls)


def split_at_depth(s, rhs, depth):
    """The split of ``_solve_sections``, taken exactly depth times."""
    if not depth:
        return _solve_triangular(s, rhs, ZZ)
    n = len(rhs)
    neg = [-c if i & 1 else c for i, c in enumerate(s[:n])]
    u = _kron_mul(s, neg, n)[0::2]
    v = _kron_mul(rhs, neg, n)
    v[0::2], v[1::2] = (split_at_depth(u, v[0::2], depth - 1),
                        split_at_depth(u, v[1::2], depth - 1))
    return v


def best(fn, pairs, repeat, want):
    times = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        got = [fn(s, rhs) for s, rhs in pairs]
        times.append(time.perf_counter() - t0)
        assert got == want, "a route disagrees with the direct solve"
    return min(times)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=5)
    args = parser.parse_args()
    head = f"{'d':>5} {'n':>4} {'direct':>8} {'rule':>8} {'sections':>8}"
    print(head + "".join(f" {2 ** k:>8}" for k in DEPTHS))
    for d, n in CASES:
        pairs = solve_pairs(d, n)
        want = [_solve_triangular(s, rhs, ZZ) for s, rhs in pairs]
        direct = best(lambda s, rhs: _solve_triangular(s, rhs, ZZ), pairs, args.repeat, want)
        rule = best(_solve_sections, pairs, args.repeat, want)
        chosen = "+".join(str(sections_chosen(s, rhs)) for s, rhs in pairs)
        fixed = [best(lambda s, rhs, k=k: split_at_depth(s, rhs, k), pairs, args.repeat, want)
                 for k in DEPTHS]
        print(f"{d:>5} {n:>4} {direct:8.4f} {rule:8.4f} {chosen:>8}"
              + "".join(f" {t:8.4f}" for t in fixed))


if __name__ == "__main__":
    main()
