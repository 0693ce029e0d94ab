#!/usr/bin/env python3
"""Write reference.json: the reference content of every benchmark input.

Usage (from the root of a checkout): python3 bpxbench/make_reference.py

Runs every main-op pool member and every probe once through the CLI and stores the
mathematical fields of its document (large fields as a digest).  Run it
only at a commit whose outputs are known to be right: the gate trusts
this file.  It refuses to write when an independent anchor fails.
"""

import json
import shutil
import sys
import time

import run


def main() -> int:
    keys = sorted({key for spec in run.WORKLOADS.values()
                   for item in spec["pass"] if item is not run.PROBES
                   for key in item[1]}
                  | {key for spec in run.WORKLOADS.values()
                     for _, key in spec["probes"]})
    run.WORK.mkdir(exist_ok=True)
    work = run.WORK / "reference"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    runner = run.Runner(work, time.perf_counter() + 3600)
    out, bad = {}, False
    try:
        for key in keys:
            op = runner.op("reference", key, work / "cache")
            doc = json.loads(open(op["stdout"]).read()) if op["exit"] == 0 else None
            problems = (["exit code %d" % op["exit"]] if doc is None
                        else run.anchor_problems(key, doc))
            print(f"{op['wall']:8.2f}s  {key}  {'; '.join(problems) or 'ok'}",
                  flush=True)
            if problems:
                bad = True
                continue
            out[key] = run.reference_form(key, doc)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if bad:
        print("not written: an op failed or an anchor does not hold",
              file=sys.stderr)
        return 1
    with open(run.BENCH / "reference.json", "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
