#!/usr/bin/env python3
"""End-to-end benchmark of the bpx command-line tool.

Usage (from the root of a checkout):

    python3 bpxbench/run.py --workload exact|density \
        --seed N --seconds S --trace 0|1

A closed loop with one client: each op is a fresh ``python -m bpx.cli``
process with the default ``--threads 1``, run one at a time, on whichever
kernel backend the package selects.  The benchmark repeats passes over
the workload's ops for about S seconds, checks every op's document
against stored reference content (reference.json) and independent
anchors, and prints one JSON result as its last line of stdout.

--trace 0 reports the end-to-end metrics, all from untraced processes.
--trace 1 alternates untraced and traced passes (traced_op.py wraps the
program's public functions with spans), replays the recorded kernel calls
on both kernel backends (replay.py) and reports the per-layer metrics.
See README.md for the workloads, metrics, and known defects.
"""

import argparse
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bpxbench_work"
RUN_LIMIT_S = 170  # every op is killed by then, so the run ends within 180 s
SETUP_REPS = 5
WARM_DMAX = 40  # the warm cache holds every discriminant d <= WARM_DMAX
# The yardstick's typical mean time over a run on the machine the
# benchmark was sized on: the reference speed end-to-end times are scaled
# to, by the square root of the ratio (README.md, "Speed scaling").
YARDSTICK_REF_S = 0.046

# Each op is (metric, pool).  Pool entry 0 is the default-seed input;
# any other seed draws from the whole pool, whose members cost about the
# same (README.md, "Seeds").  A one-entry pool is a fixed input.
EXPONENTS = ["exponents --d 4 --n 700", "exponents --d 3 --n 725",
             "exponents --d 7 --n 660", "exponents --d 8 --n 640"]
CONGRUENCE = ["congruence --d 4 --ell 11 --verify-to 700",
              "congruence --d 3 --ell 11 --verify-to 725",
              "congruence --d 11 --ell 11 --verify-to 630"]
CHECK = ["check --d 20 --ell 31 --n 400", "check --d 28 --ell 31 --n 400",
         "check --d 35 --ell 31 --n 380", "check --d 40 --ell 31 --n 370"]
ASYMPTOTIC_RANK1 = ["density --d 4 --ell 11", "density --d 3 --ell 11",
                    "density --d 11 --ell 11"]
ASYMPTOTIC_RANK2 = ["density --d 20 --ell 31", "density --d 7 --ell 31",
                    "density --d 28 --ell 31", "density --d 35 --ell 31"]
CURVE = ["density --d 4 --ell 11 --empirical 100000",
         "density --d 3 --ell 11 --empirical 100000",
         "density --d 11 --ell 11 --empirical 100000",
         "density --d 16 --ell 11 --empirical 100000"]
EXPANSION = ["density --d 20 --ell 31 --empirical 10000",
             "density --d 7 --ell 31 --empirical 10000",
             "density --d 8 --ell 31 --empirical 10000",
             "density --d 19 --ell 31 --empirical 10000"]
SUPERSINGULAR = ["supersingular --ell 37"]

# Probes: small fixed ops that give a workload a value for the per-command
# metrics of commands it is not about, since every run reports every
# end-to-end metric.  A probe is one short process whose time varies by up
# to 2x with the machine's state, so an untraced pass runs the probe block
# at each PROBES mark, spread between the main ops: a run then gets 5 to 12
# samples of each probe.  A traced pass runs the block once.  A probe in
# COLD_PROBES runs in a new empty cache directory, so it computes and
# writes its class polynomials instead of reading the warm cache.
PROBE_ASYMPTOTIC = ("density_asymptotic_s", "density --d 4 --ell 11")
PROBE_CURVE = ("density_curve_s", "density --d 4 --ell 11 --empirical 2000")
PROBE_EXPANSION = ("density_expansion_s",
                   "density --d 20 --ell 31 --empirical 500")
PROBE_SUPERSINGULAR = ("supersingular_s", "supersingular --ell 11")
PROBE_EXPONENTS = ("exponents_s", "exponents --d 4 --n 100")
PROBE_CHECK = ("check_s", "check --d 4 --ell 11 --n 100")
PROBE_CLASSPOLY = ("classpoly_s", "classpoly --d 20")
PROBE_TABLE2 = ("table2_s", "table2 --ell 11 --dmax 24")
PROBE_CLASSPOLY_COLD = ("classpoly_s", "classpoly --d 239")
PROBE_TABLE2_COLD = ("table2_s", "table2 --ell 11 --dmax 100")
COLD_PROBES = {PROBE_CLASSPOLY_COLD[1], PROBE_TABLE2_COLD[1]}
PROBES = None

WORKLOADS = {
    # Warm cache.  Schoolbook ZZ series multiply, inverse and jfunction;
    # the classpoly layer only reads the cache.  The short check runs twice
    # per pass, for samples.
    "exact": {"pass": [("exponents_s", EXPONENTS), ("check_s", CHECK), PROBES,
                       ("congruence_s", CONGRUENCE), ("check_s", CHECK),
                       PROBES],
              "probes": [PROBE_CLASSPOLY, PROBE_TABLE2, PROBE_ASYMPTOTIC,
                         PROBE_CURVE, PROBE_EXPANSION, PROBE_SUPERSINGULAR]},
    # Warm cache.  Kernel (sieve, traces, supersingular scan), F_l series
    # and ssforms work; the class-polynomial probes run cold, so singular
    # moduli, rounding, verification and cache writes are measured here.
    # Every main op but the long, steady curve tally runs twice per pass,
    # for samples.
    "density": {"pass": [("density_asymptotic_s", ASYMPTOTIC_RANK1),
                         ("density_asymptotic_s", ASYMPTOTIC_RANK2),
                         ("supersingular_s", SUPERSINGULAR),
                         ("density_expansion_s", EXPANSION),
                         ("density_curve_s", CURVE), PROBES,
                         ("density_asymptotic_s", ASYMPTOTIC_RANK1),
                         ("density_asymptotic_s", ASYMPTOTIC_RANK2),
                         ("density_expansion_s", EXPANSION),
                         ("supersingular_s", SUPERSINGULAR), PROBES],
                "probes": [PROBE_EXPONENTS,
                           ("congruence_s", "congruence --d 20 --ell 31"),
                           PROBE_CHECK, PROBE_CLASSPOLY_COLD,
                           PROBE_TABLE2_COLD]},
}

COMMAND_METRICS = ("exponents_s", "congruence_s", "check_s", "classpoly_s",
                   "table2_s", "density_asymptotic_s", "density_curve_s",
                   "density_expansion_s", "supersingular_s")

# ---------------------------------------------------------------------------
# correctness gate

# The mathematical fields of each command's document.  Run descriptions
# (meta, cache, cached, precision_used, residual_bound, csv) are left out,
# so a change of precision strategy is not read as a wrong answer.
FIELDS = {
    "exponents": ("d", "n_max", "values"),
    "congruence": ("d", "ell", "c0", "c", "basis", "t2_eigenvalues",
                   "verified_to"),
    "check": ("d", "ell", "n", "verified", "skipped", "ok"),
    "density": ("d", "ell", "kind", "x", "total", "rows"),
    "supersingular": ("ell", "s", "degree", "coeffs", "bruteforce_match"),
    "classpoly": ("d", "h", "components"),
    "table2": ("ell", "dmax", "s_ell", "d_list", "rows"),
}
INLINE_CHARS = 400  # larger reference fields are stored as a digest

# Independent anchors, from the paper and its stated tables.
C9_TABLE2_ELL11 = [3, 4, 11, 12, 15, 20, 67, 115, 148, 163, 267]


def field_ref(value):
    """Reference form of one field: the value itself, or its digest."""
    text = json.dumps(value, sort_keys=True)
    if len(text) <= INLINE_CHARS:
        return value
    return {"sha256": hashlib.sha256(text.encode()).hexdigest(),
            "chars": len(text)}


def reference_form(key, doc):
    return {f: field_ref(doc.get(f)) for f in FIELDS[key.split()[0]]}


def anchor_problems(key, doc):
    argv = key.split()
    cmd = argv[0]
    opts = dict(zip(argv[1::2], argv[2::2]))
    pair = (opts.get("--d"), opts.get("--ell"))
    out = []
    if cmd == "exponents" and opts["--d"] == "4":
        if doc["values"][:3] != [492, 143376, 51180012]:
            out.append("A(n^2,4) for n=1..3 is not 492, 143376, 51180012")
    if cmd == "congruence" and pair == ("4", "11"):
        if (doc["c0"], doc["c"]) != (6, [9]):
            out.append("(4, 11) does not give c0=6, c=[9]")
    if cmd == "congruence" and pair == ("20", "31"):
        if (doc["c0"], doc["c"]) != (2, [22, 1]):
            out.append("(20, 31) does not give c0=2, c=[22, 1]")
    if cmd == "table2" and opts["--ell"] == "11":
        dmax = int(opts["--dmax"])
        if doc["d_list"] != sorted(d for d in C9_TABLE2_ELL11 + [16, 27]
                                   if d <= dmax):
            out.append("table2 for l=11 is not the C9 list plus 16 and 27, "
                       "up to dmax")
    if cmd == "supersingular" and doc.get("bruteforce_match") is not True:
        out.append("bruteforce_match is not true")
    return out


def check_op(op, reference):
    """Problems with one finished op; an empty list means it passed."""
    if op["exit"] != 0:
        return [f"exit code {op['exit']}"]
    err = Path(op["stderr"]).read_text(errors="replace")
    if "Traceback" in err:
        return ["traceback on stderr"]
    try:
        doc = json.loads(Path(op["stdout"]).read_text())
    except ValueError:
        return ["stdout is not a JSON document"]
    want = reference.get(op["key"])
    if want is None:
        return ["no stored reference for this input"]
    try:
        got = reference_form(op["key"], doc)
        problems = [f"field {f} differs from the reference"
                    for f in want if got.get(f) != want[f]]
        return problems + anchor_problems(op["key"], doc)
    except (KeyError, TypeError, IndexError) as exc:
        return [f"document lacks an expected field: {exc!r}"]


# ---------------------------------------------------------------------------
# running ops

_BIG = [(7919 * i) ** 9 for i in range(1, 41)]
_SMALL = list(range(1, 121))


def yardstick() -> float:
    """Seconds taken by a fixed piece of pure-Python work.

    Schoolbook products of big-integer and mod-31 coefficient lists, the
    kind of work bpx spends its time on.  It runs in the benchmark's own
    process before every op, so its mean over a run measures how fast the
    shared machine was during that run.
    """
    t0 = time.perf_counter()
    for _ in range(20):
        c = [0] * (2 * len(_BIG))
        for i, x in enumerate(_BIG):
            for j, y in enumerate(_BIG):
                c[i + j] += x * y
        m = [0] * (2 * len(_SMALL))
        for i, x in enumerate(_SMALL):
            for j, y in enumerate(_SMALL):
                m[i + j] = (m[i + j] + x * y) % 31
    return time.perf_counter() - t0


class Runner:
    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        self.serial = 0
        self.yardstick_s = []
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p])

    def spawn(self, argv, stdout_path, stderr_path):
        """Run argv to completion: (exit code, wall s, cpu s, max RSS kB)."""
        env = dict(self.env)
        timeout = max(1.0, self.deadline - time.perf_counter())
        with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
            t0 = time.perf_counter()
            env["BPXBENCH_T0"] = repr(t0)
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env,
                                    cwd=ROOT)
            timer = threading.Timer(timeout, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return (proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                usage.ru_maxrss)

    def pace(self):
        """Time the yardstick once, between two timed steps."""
        self.yardstick_s.append(yardstick())

    def op(self, metric, key, cache, traced=False, record_kernel=False):
        self.pace()
        self.serial += 1
        base = self.work / f"op{self.serial}"
        if key in COLD_PROBES:
            cache = self.work / f"cold{self.serial}"
        cli = key.split() + ["--format", "json", "--cache-dir", str(cache)]
        trace_path = f"{base}.trace.json" if traced else None
        if not traced:
            argv = [sys.executable, "-m", "bpx.cli"] + cli
        else:
            flags = ["--record-kernel"] if record_kernel else []
            argv = [sys.executable, str(BENCH / "traced_op.py"),
                    str(trace_path)] + flags + ["--"] + cli
        before = cache_bytes(cache)
        code, wall, cpu, rss = self.spawn(argv, f"{base}.out", f"{base}.err")
        written = cache_bytes(cache) - before
        if key in COLD_PROBES:
            shutil.rmtree(cache, ignore_errors=True)
        return {"metric": metric, "key": key, "exit": code, "wall": wall,
                "cpu": cpu, "rss_kb": rss, "stdout": f"{base}.out",
                "stderr": f"{base}.err", "trace": trace_path,
                "bytes_written": written}

    def timed_out(self):
        return time.perf_counter() >= self.deadline


def cache_bytes(cache: Path) -> int:
    if not cache.is_dir():
        return 0
    return sum(p.stat().st_size for p in cache.iterdir() if p.is_file())


# ---------------------------------------------------------------------------
# set-up


PROBE_CODE = """
import importlib.util, json, os, platform, bpx, bpx.kernel, mpmath.libmp
print(json.dumps({"bpx_file": bpx.__file__, "nproc": os.cpu_count(),
    "python": platform.python_version(), "mpmath_backend": mpmath.libmp.BACKEND,
    "kernel_backend": bpx.kernel.backend(),
    "cython": importlib.util.find_spec("Cython") is not None}))
"""


def setup(runner, work):
    """Check the program imports from this checkout; fill the warm cache.

    Repeated SETUP_REPS times from scratch; returns the machine facts, the
    warm cache directory of the last repetition, and each repetition's time.
    """
    times, facts, cache = [], None, None
    for rep in range(SETUP_REPS):
        runner.pace()
        t0 = time.perf_counter()
        out, err = work / f"setup{rep}.out", work / f"setup{rep}.err"
        code = runner.spawn([sys.executable, "-c", PROBE_CODE], out, err)[0]
        if code != 0:
            raise SetupError("bpx does not import from src/: "
                             + err.read_text(errors="replace")[-400:])
        facts = json.loads(out.read_text())
        if not Path(facts["bpx_file"]).resolve().is_relative_to(SRC):
            raise SetupError(f"bpx imported from {facts['bpx_file']}, not src/")
        cache = work / f"warm{rep}"
        code = runner.spawn(
            [sys.executable, "-m", "bpx.cli", "table2", "--ell", "11",
             "--dmax", str(WARM_DMAX), "--cache-dir", str(cache)],
            out, err)[0]
        if code != 0:
            raise SetupError("filling the warm cache failed: "
                             + err.read_text(errors="replace")[-400:])
        times.append(time.perf_counter() - t0)
    return facts, cache, times


class SetupError(Exception):
    pass


def choose_inputs(workload, seed, once=False):
    """The op sequence of one pass; with `once`, each distinct op only once.

    A pool listed more than once in a pass gives the same input each time.
    """
    spec = WORKLOADS[workload]
    rng = random.Random(seed)
    picks, ops = {}, []
    for item in spec["pass"]:
        for metric, inputs in spec["probes"] if item is PROBES else [item]:
            key = inputs  # a probe's fixed input
            if isinstance(inputs, list):
                if id(inputs) not in picks:
                    pick = rng.randrange(len(inputs))
                    picks[id(inputs)] = inputs[0] if seed == 0 else inputs[pick]
                key = picks[id(inputs)]
            if not (once and (metric, key) in ops):
                ops.append((metric, key))
    return ops


# ---------------------------------------------------------------------------
# passes


def run_pass(runner, ops, cache, traced=False, record_kernel=False):
    results = []
    for metric, key in ops:
        results.append(runner.op(metric, key, cache, traced, record_kernel))
        if runner.timed_out():
            break
    return results


def run_cycle(runner, ops, cache, seconds):
    """Cycle through the pass's ops until the next would end after `seconds`.

    The first pass always completes; the last one may stop part way, so
    the whole window is measured.
    """
    results, last = [], {}
    t0 = time.perf_counter()
    for i in range(10 ** 6):
        metric, key = ops[i % len(ops)]
        if runner.timed_out() or (
                i >= len(ops) and time.perf_counter() - t0 + last[key] > seconds):
            break
        results.append(runner.op(metric, key, cache))
        last[key] = results[-1]["wall"]
    return results


def layer_totals(results):
    """Self time and calls per span name, and counters, over one traced pass."""
    self_s, calls, counters = {}, {}, {}
    covered = imports = 0.0
    kernel_calls = []
    for r in results:
        try:
            with open(r["trace"]) as fh:
                rec = json.load(fh)
        except (OSError, ValueError):
            continue  # the op failed before writing its record
        spans = rec["spans"]
        child = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (name, start, end, parent) in enumerate(spans):
            self_s[name] = self_s.get(name, 0.0) + (end - start) - child[i]
            calls[name] = calls.get(name, 0) + 1
            if parent < 0:
                covered += end - start
        import_s = rec["t_imported"] - rec["t_spawn"]
        imports += import_s
        covered += import_s
        for k, v in rec["counters"].items():
            if k.endswith(("max_order", "max_digits")):
                counters[k] = max(counters.get(k, 0), v)
            else:
                counters[k] = counters.get(k, 0) + v
        counters["classpoly.cache_bytes_written"] = (
            counters.get("classpoly.cache_bytes_written", 0)
            + r["bytes_written"])
        kernel_calls += rec.get("kernel_calls", [])
    wall = sum(r["wall"] for r in results)
    return {"self_s": self_s, "calls": calls, "counters": counters,
            "coverage": covered / wall, "import_s": imports / len(results),
            "run_self_s": self_s.get("cli.run", 0.0),
            "kernel_calls": kernel_calls}


LAYER_SELF = ("qseries.mul_zz", "qseries.mul_gf", "qseries.inverse",
              "qseries.jfunction", "borcherds.log_derivative_exact",
              "borcherds.exact_exponents", "borcherds.fit_congruence",
              "borcherds.formula_eval", "classpoly.singular_modulus",
              "ssforms.supersingular_poly",
              "ssforms.supersingular_poly_bruteforce", "ssforms.eigenbasis",
              "ssforms.hecke_Tp", "density.asymptotic_table",
              "density.empirical_table", "kernel.primes_below",
              "kernel.ec_traces", "kernel.supersingular_js_fq2")
LAYER_CALLS = ("qseries.jfunction", "borcherds.formula_eval",
               "classpoly.singular_modulus", "classpoly.hilbert_class_poly",
               "classpoly.eligibility", "ssforms.supersingular_poly",
               "density.charpoly_count")
LAYER_COUNTERS = {"qseries.max_order": "count",
                  "classpoly.singular_modulus.max_digits": "digits",
                  "classpoly.precision_attempts": "count",
                  "classpoly.cache_hits": "count",
                  "classpoly.cache_misses": "count",
                  "classpoly.cache_bytes_written": "bytes",
                  "kernel.ec_traces.primes": "count",
                  "kernel.ec_traces.naive_primes": "count"}
KERNEL_FNS = ("primes_below", "ec_traces", "supersingular_js_fq2")
NOT_AVAILABLE = -1.0  # replay time of a kernel backend that does not import


def replay_kernel(runner, calls):
    """Per-backend replay times of the recorded kernel calls, and mismatches."""
    calls_path = runner.work / "kernel_calls.json"
    out_path = runner.work / "replay.json"
    calls_path.write_text(json.dumps(calls))
    code = runner.spawn([sys.executable, str(BENCH / "replay.py"),
                         str(calls_path), str(out_path)],
                        runner.work / "replay.out", runner.work / "replay.err")[0]
    if code != 0:
        return None
    return json.loads(out_path.read_text())


def layer_metrics(untraced, traced, totals, replay):
    """Per-layer metrics: medians over the traced passes' totals."""
    med = statistics.median
    m = {}
    for name in LAYER_SELF:
        m[f"{name}.self_s"] = (med([t["self_s"].get(name, 0.0) for t in totals]),
                               "s")
    for name in LAYER_CALLS:
        m[f"{name}.calls"] = (med([t["calls"].get(name, 0) for t in totals]),
                              "count")
    for name, unit in LAYER_COUNTERS.items():
        m[name] = (med([t["counters"].get(name, 0) for t in totals]), unit)
    for fn in KERNEL_FNS:
        for backend in ("python", "compiled"):
            value = NOT_AVAILABLE
            if replay and backend in replay["backends"]:
                value = replay["times"][backend].get(fn, 0.0)
            m[f"kernel.{fn}.{backend}_s"] = (value, "s")
    m["cli.import_s"] = (med([t["import_s"] for t in totals]), "s")
    m["cli.run.self_s"] = (med([t["run_self_s"] for t in totals]), "s")
    m["cli.cpu_s"] = (med([sum(r["cpu"] for r in p) for p in untraced]), "s")
    m["trace.coverage"] = (med([t["coverage"] for t in totals]), "ratio")
    wall_u = med([sum(r["wall"] for r in p) for p in untraced])
    wall_t = med([sum(r["wall"] for r in p) for p in traced])
    m["trace.overhead_frac"] = (wall_t / wall_u - 1.0, "ratio")
    return m


def end_to_end_metrics(ops, results, setup_times, scale, attempted, failed):
    """Each op's time is the mean of its samples in the run.

    A per-command metric sums its ops' times, and wall_s sums the times of
    the ops of one pass.  Set-up is the median of its repetitions.  Every
    time is multiplied by `scale`, from the machine's speed during the run
    relative to the reference speed (README.md, "Speed scaling").
    """
    samples = {}
    for r in results:
        samples.setdefault(r["key"], []).append(r["wall"])
    mean = {key: statistics.fmean(walls) * scale
            for key, walls in samples.items()}
    m = {"setup_s": (statistics.median(setup_times) * scale, "s"),
         "wall_s": (sum(mean[key] for _, key in ops), "s")}
    for name in COMMAND_METRICS:
        m[name] = (sum(mean[key] for key in {k for mt, k in ops if mt == name}),
                   "s")
    m["ops_ok_frac"] = ((attempted - failed) / attempted, "ratio")
    m["peak_rss_mb"] = (max(r["rss_kb"] for r in results) / 1024.0, "MB")
    return m


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=55)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    t_start = time.perf_counter()
    if not (SRC / "bpx" / "cli.py").is_file():
        print(f"error: no bpx sources under {SRC}", file=sys.stderr)
        return 2
    reference = json.loads((BENCH / "reference.json").read_text())
    ops = choose_inputs(args.workload, args.seed, once=bool(args.trace))
    WORK.mkdir(exist_ok=True)
    work = WORK / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    runner = Runner(work, t_start + RUN_LIMIT_S)
    try:
        try:
            facts, cache, setup_times = setup(runner, work)
        except SetupError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2

        untraced, traced, done = [], [], []
        if args.trace:
            t_loop = time.perf_counter()
            while not runner.timed_out():
                for passes, is_traced in ((untraced, False), (traced, True)):
                    results = run_pass(runner, ops, cache, is_traced,
                                       is_traced and not traced)
                    done += results
                    if len(results) == len(ops):
                        passes.append(results)
                elapsed = time.perf_counter() - t_loop
                if elapsed * (1 + 1 / max(len(traced), 1)) > args.seconds:
                    break
        else:
            done = run_cycle(runner, ops, cache, args.seconds)
        if len(done) < len(ops) or (args.trace and not traced):
            print("error: no pass completed in time", file=sys.stderr)
            return 1

        problems = []
        for r in done:
            bad = check_op(r, reference)
            if bad:
                problems.append({"op": r["key"], "problems": bad})
        attempted, failed = len(done), len(problems)

        if args.trace:
            totals = [layer_totals(p) for p in traced]
            calls = totals[0]["kernel_calls"]
            replay = replay_kernel(runner, calls) if calls else None
            if calls and replay is None:
                failed += 1
                problems.append({"op": "kernel replay", "problems": ["crashed"]})
            for bad in (replay or {}).get("mismatches", []):
                failed += 1
                problems.append({"op": "kernel replay",
                                 "problems": [f"result differs: {bad}"]})
            metrics = layer_metrics(untraced, traced, totals, replay)
        else:
            scale = (YARDSTICK_REF_S / statistics.fmean(runner.yardstick_s)) ** 0.5
            metrics = end_to_end_metrics(ops, done, setup_times, scale,
                                         attempted, failed)

        for p in problems:
            print(f"FAILED {p['op']}: {'; '.join(p['problems'])}",
                  file=sys.stderr)
        print(json.dumps({
            "workload": args.workload, "seed": args.seed,
            "inputs": [key for _, key in ops], "machine": facts,
            "ops_run": len(done), "ops_per_pass": len(ops),
            "traced_passes": len(traced), "setup_times_s": setup_times,
            "yardstick_mean_s": statistics.fmean(runner.yardstick_s),
            "problems": problems}))
        print(json.dumps({
            "correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in metrics.items()}}))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
