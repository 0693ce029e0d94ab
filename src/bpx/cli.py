"""Command-line front end.

Subcommands: exponents, congruence, density, check, supersingular,
classpoly, table2.  Every run echoes its resolved configuration into the
output document; identical configurations produce byte-identical output,
whatever the number of CPUs the compiled kernel's curve traces run on.
Exit codes: 0 success, 2 invalid input or an unmet hypothesis (an expected
state), 1 broken internal invariant (a bug).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import __version__
from .borcherds import exact_exponents, fit_congruence, verify_congruence
from .classpoly import (cache_stats, default_cache_dir, degree_rules_out,
                        eligibility, hilbert_class_poly, hurwitz_class_number)
from .density import asymptotic_table, empirical_table
from .errors import InputError, InternalConsistencyError
from .kernel import backend
from .ssforms import (BRUTEFORCE_MAX_ELL, supersingular_poly,
                      supersingular_poly_bruteforce)


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="bpx",
        description="Borcherds product exponents of class polynomials: "
                    "exact tables, congruences mod l, density tables.")
    top.add_argument("--version", action="version", version=f"bpx {__version__}")
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, d=False, ell=False, n=None):
        if d:
            p.add_argument("--d", type=int, required=True,
                           help="positive d with -d a negative discriminant")
        if ell:
            p.add_argument("--ell", type=int, required=True, help="odd prime modulus")
        if n is not None:
            p.add_argument("--n", type=_positive_int, default=n, help="index bound")
        p.add_argument("--format", choices=("text", "json", "csv"), default="text")
        p.add_argument("--cache-dir", default=None,
                       help="class polynomial cache directory")
        p.add_argument("--out", default=None, help="write output to a file")

    p = sub.add_parser("exponents", help="exact exponents A(n^2, d)")
    common(p, d=True, n=10)

    p = sub.add_parser("congruence", help="fit the congruence constants mod l")
    common(p, d=True, ell=True)
    p.add_argument("--verify-to", type=_positive_int, default=None)

    p = sub.add_parser("density", help="asymptotic or empirical density table")
    common(p, d=True, ell=True)
    p.add_argument("--empirical", dest="x", type=int, default=None,
                   metavar="X", help="tally primes below X instead of the limit table")

    p = sub.add_parser("check", help="verify exact exponents against the formula")
    common(p, d=True, ell=True, n=300)

    p = sub.add_parser("supersingular", help="supersingular polynomial s_l")
    common(p, ell=True)

    p = sub.add_parser("classpoly", help="weighted class polynomial of -d")
    common(p, d=True)

    p = sub.add_parser("table2", help="d <= dmax whose class polynomial divides s_l")
    common(p, ell=True)
    p.add_argument("--dmax", type=int, required=True)
    return top


def _emit(doc: dict, args, text_lines: list[str]) -> None:
    doc["meta"] = {
        "tool": f"bpx {__version__}",
        "kernel_backend": backend(),
        "config": {k: v for k, v in sorted(vars(args).items())
                   if k not in ("format", "out")},
    }
    if args.format == "json" and args.command == "exponents":
        body = _exponents_json(doc)
    elif args.format == "json":
        body = json.dumps(doc, indent=2, sort_keys=True, default=str) + "\n"
    elif args.format == "csv":
        body = _csv(doc)
    else:
        body = "\n".join(text_lines) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(body)
    else:
        sys.stdout.write(body)


def _exponents_json(doc: dict) -> str:
    """json.dumps(doc, indent=2, sort_keys=True) + "\n" for an exponents document.

    Each A(n^2, d) goes to decimal once, with ``str``, for both its
    ``values`` entry and its ``rows`` entry {"n": n, "A": A}; json's
    pure-Python indenting encoder would convert it twice.  The other keys
    go through json; "rows" and "values" sort after all of them (cache,
    d, meta, n_max), so the two arrays close the document.
    """
    strs = [str(a) for a in doc["values"]]
    rest = {k: v for k, v in doc.items() if k not in ("rows", "values")}
    head = json.dumps(rest, indent=2, sort_keys=True, default=str)[:-2]  # less "\n}"
    rows = ",\n".join(f'    {{\n      "A": {a},\n      "n": {n}\n    }}'
                      for n, a in enumerate(strs, 1))
    values = ",\n".join(f"    {a}" for a in strs)
    rows, values = (f"[\n{body}\n  ]" if strs else "[]" for body in (rows, values))
    return f'{head},\n  "rows": {rows},\n  "values": {values}\n}}\n'


_NO_CSV = "this command has no CSV form; use --format json"


def _csv(doc: dict) -> str:
    rows = doc.get("rows")
    if not rows:
        raise InputError(_NO_CSV)
    header = list(rows[0].keys())
    lines = [",".join(header)]
    lines += [",".join(str(r[k]) for k in header) for r in rows]
    return "\n".join(lines) + "\n"


def _cmd_exponents(args) -> tuple[dict, list[str]]:
    table = exact_exponents(args.d, args.n, cache_dir=args.cache_dir)
    rows = [{"n": n, "A": table[n]} for n in range(1, args.n + 1)]
    doc = table.to_document()
    doc["rows"] = rows
    text = []
    if args.format == "text":  # one line per exponent, printed only as text
        text = [f"A(n^2, {args.d}) for n = 1..{args.n}:"]
        text += [f"  n={r['n']:>4}  {r['A']}" for r in rows]
    return doc, text


def _cmd_congruence(args) -> tuple[dict, list[str]]:
    F = fit_congruence(args.d, args.ell, verify_to=args.verify_to,
                       cache_dir=args.cache_dir)
    doc = F.to_document()
    text = [f"congruence for A(n^2, {args.d}) mod {args.ell}:",
            f"  c0 = {doc['c0']}   c = {doc['c']}",
            f"  eigenforms: {doc['basis']}",
            f"  verified to order {doc['verified_to']}"]
    return doc, text


def _cmd_density(args) -> tuple[dict, list[str]]:
    F = fit_congruence(args.d, args.ell, cache_dir=args.cache_dir)
    if args.x is None:
        tab = asymptotic_table(F)
    else:
        tab = empirical_table(F, args.x)
    doc = tab.to_document()
    doc["csv"] = _csv(doc)
    text = [f"{tab.kind} density of A(p^2, {args.d}) mod {args.ell}"
            + (f" for p < {args.x}" if args.x else "")]
    for row in tab.to_rows():
        if tab.kind == "asymptotic":
            text.append(f"  t={row['t']:>2}  {row['density']:>14}  {row['decimal']}")
        else:
            text.append(f"  t={row['t']:>2}  count={row['count']:>8}  {row['ratio']}")
    return doc, text


def _cmd_check(args) -> tuple[dict, list[str]]:
    verified, skipped = verify_congruence(args.d, args.ell, args.n,
                                          cache_dir=args.cache_dir)
    doc = {"d": args.d, "ell": args.ell, "n": args.n,
           "verified": verified, "skipped": skipped, "ok": True}
    text = [f"OK: {verified} indices verified ({skipped} skipped, l|n)"]
    return doc, text


def _cmd_supersingular(args) -> tuple[dict, list[str]]:
    s = supersingular_poly(args.ell)
    doc = {"ell": args.ell, "s": str(s), "degree": s.degree,
           "coeffs": s.coeffs}
    if args.ell <= BRUTEFORCE_MAX_ELL:
        brute = supersingular_poly_bruteforce(args.ell)
        doc["bruteforce_match"] = brute == s
    text = [f"s_{args.ell}(x) = {s}"]
    if "bruteforce_match" in doc:
        text.append(f"matches point-counting enumeration: {doc['bruteforce_match']}")
    return doc, text


def _cmd_classpoly(args) -> tuple[dict, list[str]]:
    w = hilbert_class_poly(args.d, cache_dir=args.cache_dir)
    doc = w.to_document()
    doc["h"] = str(w.h)
    doc["cached"] = w.cached
    text = [f"weighted class polynomial for -{args.d} (h = {w.h}):"]
    text += [f"  ({poly})^({wt})" for poly, wt in w.components]
    return doc, text


def _cmd_table2(args) -> tuple[dict, list[str]]:
    flagged = []
    for d in range(3, args.dmax + 1):
        if d % 4 not in (0, 3) or degree_rules_out(d, args.ell):
            continue
        rep = eligibility(d, args.ell, cache_dir=args.cache_dir)
        if rep.divides:
            flagged.append({
                "d": d,
                "h": str(hurwitz_class_number(d)),
                "class_poly_mod_ell": str(rep.class_poly_mod_ell),
                "squarefree": rep.squarefree,
            })
    s = supersingular_poly(args.ell)
    doc = {"ell": args.ell, "dmax": args.dmax, "s_ell": str(s),
           "d_list": [r["d"] for r in flagged], "rows": flagged}
    text = [f"d <= {args.dmax} with class polynomial dividing "
            f"s_{args.ell} = {s} over F_{args.ell}:",
            "  " + ", ".join(str(r["d"]) for r in flagged)]
    return doc, text


_COMMANDS = {
    "exponents": _cmd_exponents,
    "congruence": _cmd_congruence,
    "density": _cmd_density,
    "check": _cmd_check,
    "supersingular": _cmd_supersingular,
    "classpoly": _cmd_classpoly,
    "table2": _cmd_table2,
}

# commands whose documents never have rows; table2's rows can be empty,
# so its CSV form is decided by _csv after the scan
_ROWLESS = ("congruence", "check", "supersingular", "classpoly")


def run(argv=None) -> int:
    args = _parser().parse_args(argv)
    if args.cache_dir is None:
        args.cache_dir = default_cache_dir()
    if args.out and not os.path.isdir(os.path.dirname(os.path.abspath(args.out))):
        print(f"error: the directory of --out {args.out} does not exist",
              file=sys.stderr)
        return 2
    if args.out and os.path.isdir(args.out):
        print(f"error: --out {args.out} is a directory", file=sys.stderr)
        return 2
    if args.format == "csv" and args.command in _ROWLESS:
        print(f"error: {_NO_CSV}", file=sys.stderr)
        return 2
    # exact exponents outgrow the default 4300-digit int/str conversion limit
    digits_limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if digits_limit is not None:
        sys.set_int_max_str_digits(0)
    before = cache_stats()
    try:
        doc, text = _COMMANDS[args.command](args)
        after = cache_stats()
        doc["cache"] = {k: after[k] - before[k] for k in after}
        _emit(doc, args, text)
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InternalConsistencyError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 1
    finally:
        if digits_limit is not None:
            sys.set_int_max_str_digits(digits_limit)
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
