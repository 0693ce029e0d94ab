import contextlib
import copy
import io
import json
import os
import pickle
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bpx
from bpx.arith import Record, sieve
from bpx.borcherds import ExponentTable, fit_congruence
from bpx.classpoly import (QuadForm, WeightedClassPoly, degree_rules_out,
                           eligibility, hilbert_class_poly, hurwitz_class_number)
from bpx.cli import _exponents_json, run
from bpx.density import EllCurve, asymptotic_table, charpoly_count
from bpx.errors import InputError
from bpx.ssforms import eigenbasis
from oracles import corollary_conditions


def invoke(capsys, *args):
    code = run(list(args))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_exponents_text(capsys):
    code, out, _ = invoke(capsys, "exponents", "--d", "4", "--n", "3")
    assert code == 0
    assert "492" in out and "143376" in out and "51180012" in out


def test_exponents_invalid_d(capsys):
    code, _, err = invoke(capsys, "exponents", "--d", "5", "--n", "1")
    assert code == 2
    assert "not a negative discriminant" in err


def test_congruence_json(capsys):
    code, out, _ = invoke(capsys, "congruence", "--d", "4", "--ell", "11",
                          "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["c0"] == 6 and doc["c"] == [9]
    assert doc["meta"]["tool"].startswith("bpx ")
    assert doc["meta"]["config"]["d"] == 4
    assert "cache" in doc


def test_congruence_ineligible_exit_2(capsys):
    code, _, err = invoke(capsys, "congruence", "--d", "4", "--ell", "13")
    assert code == 2
    assert "does not divide" in err


def test_density_csv(capsys):
    code, out, _ = invoke(capsys, "density", "--d", "4", "--ell", "11",
                          "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "t,density,decimal"
    assert lines[9].startswith("8,119/1200")


def test_density_empirical(capsys):
    code, out, _ = invoke(capsys, "density", "--d", "4", "--ell", "11",
                          "--empirical", "3000", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "empirical"
    assert doc["total"] == 430  # pi(3000)


def test_density_empirical_thread_count_invariance(capsys, monkeypatch):
    # the compiled kernel's trace pool takes one thread per usable CPU; the
    # document, echoed configuration included, must not depend on it
    docs = []
    for cpus in (1, 4):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, n=cpus: set(range(n)),
                            raising=False)
        docs.append(invoke(capsys, "density", "--d", "4", "--ell", "11",
                           "--empirical", "20000", "--format", "json")[1])
    assert docs[0] == docs[1]
    assert sorted(json.loads(docs[0])["meta"]["config"]) == \
        ["cache_dir", "command", "d", "ell", "x"]


_EVERY_COMMAND = [
    ["exponents", "--d", "4"], ["congruence", "--d", "4", "--ell", "11"],
    ["density", "--d", "4", "--ell", "11"], ["check", "--d", "4", "--ell", "11"],
    ["supersingular", "--ell", "11"], ["classpoly", "--d", "4"],
    ["table2", "--ell", "11", "--dmax", "10"],
]


@pytest.mark.parametrize("argv, gone", [
    *(pytest.param(argv, ["--threads", "4"], id=argv[0]) for argv in _EVERY_COMMAND),
    # table2 --D took only 1, and --x was an alias of density --empirical
    pytest.param(["table2", "--ell", "11", "--dmax", "10"], ["--D", "1"], id="table2-D"),
    pytest.param(["density", "--d", "4", "--ell", "11"], ["--x", "500"], id="density-x"),
])
def test_threads_option_is_gone(argv, gone, capsys):
    # each removed option is refused by the parser, not ignored
    with pytest.raises(SystemExit) as exc:
        run(argv + gone)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(gone)}" in capsys.readouterr().err


def test_check_command(capsys):
    code, out, _ = invoke(capsys, "check", "--d", "4", "--ell", "11", "--n", "60")
    assert code == 0
    assert out.strip() == "OK: 55 indices verified (5 skipped, l|n)"
    # the text states the count of the JSON document
    code, doc, _ = invoke(capsys, "check", "--d", "4", "--ell", "11", "--n", "60",
                          "--format", "json")
    assert code == 0
    assert out.split()[1] == str(json.loads(doc)["verified"])


def test_supersingular_command(capsys):
    code, out, _ = invoke(capsys, "supersingular", "--ell", "31")
    assert code == 0
    assert "x^3 + 2*x^2 + 22*x + 2" in out
    assert "matches point-counting enumeration: True" in out


def test_supersingular_above_bruteforce_bound(capsys):
    # s_l is computed for l past the brute-force bound; the cross-check is
    # left out instead of failing
    code, out, err = invoke(capsys, "supersingular", "--ell", "211",
                            "--format", "json")
    assert code == 0, err
    doc = json.loads(out)
    assert doc["degree"] == 18 and "bruteforce_match" not in doc


def test_supersingular_at_a_large_ell(capsys):
    # the closed form reaches l = 100003 (7 mod 12) with no q-series
    ell = 100003
    code, out, err = invoke(capsys, "supersingular", "--ell", str(ell),
                            "--format", "json")
    assert code == 0, err
    doc = json.loads(out)
    assert doc["degree"] == ell // 12 + {1: 0, 5: 1, 7: 1, 11: 2}[ell % 12]


def test_classpoly_command(capsys):
    code, out, _ = invoke(capsys, "classpoly", "--d", "20")
    assert code == 0
    assert "x^2 + -1264000*x + -681472000" in out and "h = 2" in out


def test_table2_small(capsys):
    code, out, _ = invoke(capsys, "table2", "--ell", "11", "--dmax", "30",
                          "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["d_list"] == [3, 4, 11, 12, 15, 16, 20, 27]
    assert all("class_poly_mod_ell" in r for r in doc["rows"])


def test_out_file(tmp_path, capsys):
    path = str(tmp_path / "out.json")
    code, out, _ = invoke(capsys, "exponents", "--d", "4", "--n", "2",
                          "--format", "json", "--out", path)
    assert code == 0 and out == ""
    with open(path) as fh:
        doc = json.load(fh)
    assert doc["values"] == [492, 143376]


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("bpx ")


def test_internal_error_exit_1(capsys, monkeypatch):
    import bpx.cli as cli
    from bpx.errors import InternalConsistencyError

    def boom(args):
        raise InternalConsistencyError("invariant X broke")

    monkeypatch.setitem(cli._COMMANDS, "exponents", boom)
    code, _, err = invoke(capsys, "exponents", "--d", "4", "--n", "1")
    assert code == 1
    assert "internal error" in err


def test_density_rank2_cli(capsys):
    code, out, _ = invoke(capsys, "density", "--d", "20", "--ell", "31",
                          "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["rows"][0]["density"] == "871/27000"


def test_exponents_csv(capsys):
    code, out, _ = invoke(capsys, "exponents", "--d", "4", "--n", "2",
                          "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "n,A"
    assert out.splitlines()[1] == "1,492"


def test_cache_dir_flag(tmp_path, capsys):
    cache = str(tmp_path / "cache")
    code, out, _ = invoke(capsys, "classpoly", "--d", "7", "--format", "json",
                          "--cache-dir", cache)
    assert code == 0
    assert os.path.exists(os.path.join(cache, "hd_7.json"))
    doc = json.loads(out)
    assert doc["cache"]["misses"] == 1
    code, out, _ = invoke(capsys, "classpoly", "--d", "7", "--format", "json",
                          "--cache-dir", cache)
    doc = json.loads(out)
    assert doc["cache"]["hits"] == 1 and doc["cache"]["misses"] == 0


def test_corrupt_cache_document_recomputed(tmp_path, capsys):
    # a cache document of the wrong shape is recomputed, not a traceback
    cache = tmp_path / "cache"
    cache.mkdir()
    (cache / "hd_4.json").write_text("[]")
    code, out, err = invoke(capsys, "exponents", "--d", "4", "--n", "5",
                            "--cache-dir", str(cache))
    assert (code, err) == (0, "")
    assert "492" in out and "8806299845100" in out


def test_cache_document_with_a_wrong_coefficient_recomputed(tmp_path, capsys):
    # right shape, d and weight sum, but x - 1729 for x - 1728: its root is
    # not supersingular mod the primes inert in Q(i), so the document is
    # recomputed and rewritten instead of giving A(1, 4) = 985/2
    path = tmp_path / "hd_4.json"
    path.write_text(json.dumps({
        "d": 4, "components": [{"coeffs": ["-1729", "1"], "weight": "1/2"}],
        "precision_used": 30, "residual_bound": 0.0}))
    code, out, err = invoke(capsys, "exponents", "--d", "4", "--n", "2",
                            "--format", "json", "--cache-dir", str(tmp_path))
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert doc["values"] == [492, 143376]
    assert doc["cache"] == {"hits": 0, "misses": 1}
    rewritten = json.loads(path.read_text())
    assert rewritten["components"] == [{"coeffs": ["-1728", "1"], "weight": "1/2"}]


def test_no_command_imports_mpmath(tmp_path):
    # bpx computes with the stdlib alone; mpmath is a test oracle.  Import
    # the CLI, compute a class polynomial and a divisibility scan cold, and
    # answer again from the warm cache: mpmath must never load
    cache = str(tmp_path / "cache")
    script = (
        "import sys, bpx.cli\n"
        "loaded = ['mpmath' in sys.modules]\n"
        "for argv in (['classpoly', '--d', '23', '--cache-dir', sys.argv[1]],\n"
        "             ['classpoly', '--d', '23', '--cache-dir', sys.argv[1]],\n"
        "             ['table2', '--ell', '11', '--dmax', '24', '--cache-dir', sys.argv[2]]):\n"
        "    loaded.append(bpx.cli.run(argv))\n"
        "    loaded.append('mpmath' in sys.modules)\n"
        "print(*loaded, file=sys.stderr)\n")
    src = os.path.dirname(os.path.dirname(bpx.__file__))
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", script, cache, str(tmp_path / "scan")],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.split() == ["False", "0", "False", "0", "False", "0", "False"]


def test_table2_reads_each_class_polynomial_once(tmp_path, capsys):
    # a cold scan computes each d it does not rule out by degree once, and
    # builds its row from that one polynomial: no cache hits
    cache = str(tmp_path / "cache")
    code, out, _ = invoke(capsys, "table2", "--ell", "11", "--dmax", "100",
                          "--format", "json", "--cache-dir", cache)
    assert code == 0
    doc = json.loads(out)
    assert doc["d_list"] == [3, 4, 11, 12, 15, 16, 20, 27, 67]
    assert doc["cache"] == {"hits": 0, "misses": len(os.listdir(cache))}


def _loaded_after_cli_import(*modules, flags=()):
    """The given modules that a fresh ``import bpx.cli`` leaves loaded, with
    the interpreter flags given."""
    script = f"import sys, bpx.cli\nprint([m for m in {modules!r} if m in sys.modules])\n"
    src = os.path.dirname(os.path.dirname(bpx.__file__))
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, *flags, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_cli_import_leaves_the_thread_pool_unloaded():
    # only the pooled compiled branch of density.ec_traces needs it
    assert _loaded_after_cli_import("concurrent.futures") == "[]\n"


def test_cli_import_leaves_dataclasses_and_inspect_unloaded():
    # the records are slotted arith.Record classes: dataclasses would
    # load inspect, ast, dis and tokenize at every start
    assert _loaded_after_cli_import("dataclasses", "inspect") == "[]\n"


def test_cli_import_leaves_typing_unloaded():
    # no bpx module imports typing; -S, since a site .pth file may import it
    # before bpx does
    assert _loaded_after_cli_import("typing", flags=("-S",)) == "[]\n"


# One of each frozen record type, and whether it hashes: a record hashes as
# its fields do, so the two that hold series (which are unhashable) do not.
# Every one but the test oracle's CorollaryReport is an arith.Record.
_FROZEN_RECORDS = {
    "PrimeStream": (lambda: sieve(30), True),
    "ExponentTable": (lambda: ExponentTable(4, 2, (492, 143376)), True),
    "QuadForm": (lambda: QuadForm(1, 0, 1, 2), True),
    "CharpolyCount": (lambda: charpoly_count(11, 0, 1), True),
    "EligibilityReport": (lambda: eligibility(4, 11), True),
    "CorollaryReport": (lambda: corollary_conditions(1, 4, 11), True),
    "EllCurve": (lambda: EllCurve(0, -1, 1, -10, -20, "X0(11)"), True),
    "EigenformBasis": (lambda: eigenbasis(11, 60), False),
    "CongruenceFormula": (lambda: fit_congruence(4, 11), False),
}


@pytest.mark.parametrize("name", sorted(_FROZEN_RECORDS))
def test_frozen_records_compare_hash_copy_and_refuse_assignment(name):
    make, hashable = _FROZEN_RECORDS[name]
    a, b = make(), make()
    assert type(a).__name__ == name
    assert isinstance(a, Record) == (name != "CorollaryReport")
    assert a == b and not a != b and a != object()
    assert copy.copy(a) == a and pickle.loads(pickle.dumps(a)) == a
    if hashable:
        assert hash(a) == hash(b) and len({a, b}) == 1
    else:
        with pytest.raises(TypeError):
            hash(a)
    field = type(a)._fields[0] if hasattr(type(a), "_fields") else type(a).__slots__[0]
    with pytest.raises(AttributeError):
        setattr(a, field, getattr(b, field))
    with pytest.raises(AttributeError):
        delattr(a, field)
    assert a == b


def test_mutable_records_compare_by_value_and_do_not_hash():
    F = fit_congruence(4, 11)
    tables = asymptotic_table(F), asymptotic_table(F)
    w = hilbert_class_poly(4)
    polys = w, WeightedClassPoly(w.d, w.components, w.h, w.precision_used,
                                 w.residual_bound, not w.cached)
    for a, b in (tables, polys):
        assert a == b and copy.copy(a) == a and pickle.loads(pickle.dumps(a)) == a
        with pytest.raises(TypeError):
            hash(a)
    # equality ignores whether the class polynomial came from the cache
    assert polys[0].cached != polys[1].cached
    tables[1].x = 5
    polys[1].d = 7
    assert tables[0] != tables[1] and polys[0] != polys[1]


def test_singular_curve_is_refused():
    with pytest.raises(InputError, match="singular Weierstrass model"):
        EllCurve(0, 0, 0, 0, 0)


def test_degree_rule_agrees_with_the_full_computation(capsys):
    # The rule skips d with more reduced forms than deg s_l.  Every d it
    # skips must fail the full divisibility test, and table2 must list the
    # rows of a scan that calls eligibility on every d.  One shared cache.
    for ell in (11, 17, 19, 31):
        full, skipped = [], 0
        for d in range(3, 301):
            if d % 4 not in (0, 3):
                continue
            rep = eligibility(d, ell)
            if degree_rules_out(d, ell):
                skipped += 1
                assert not rep.divides, (d, ell)
            if rep.divides:
                full.append({"d": d, "h": str(hurwitz_class_number(d)),
                             "class_poly_mod_ell":
                                 str(hilbert_class_poly(d).product_mod(ell)),
                             "squarefree": rep.squarefree})
        assert skipped > 50, ell
        code, out, _ = invoke(capsys, "table2", "--ell", str(ell),
                              "--dmax", "300", "--format", "json")
        assert code == 0
        assert json.loads(out)["rows"] == full


def test_congruence_ruled_out_by_degree_computes_no_class_polynomial(capsys, tmp_path):
    # H_239 has 15 roots and s_11 two, so the gate answers before H_239 is built
    code, out, err = invoke(capsys, "congruence", "--d", "239", "--ell", "11",
                            "--cache-dir", str(tmp_path))
    assert (code, out) == (2, "")
    assert err == ("error: H_239 mod 11 does not divide s_11: the weight l+1 "
                   "membership hypothesis fails for (d=239, l=11)\n")
    assert not (tmp_path / "hd_239.json").exists()


def test_congruence_text_golden(capsys):
    _, out, _ = invoke(capsys, "congruence", "--d", "4", "--ell", "11")
    assert out == (
        "congruence for A(n^2, 4) mod 11:\n"
        "  c0 = 6   c = [9]\n"
        "  eigenforms: ['Delta']\n"
        "  verified to order 200\n"
    )


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="no int/str conversion limit in this Python")
def test_exponents_document_beyond_int_str_limit(capsys):
    # A(250^2, 4) has about 680 digits, over a limit lowered to 640
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        code, out, err = invoke(capsys, "exponents", "--d", "4", "--n", "250",
                                "--format", "json")
        assert sys.get_int_max_str_digits() == 640  # restored by run
    finally:
        sys.set_int_max_str_digits(saved)
    assert code == 0, err
    assert len(str(json.loads(out)["values"][-1])) > 640


def test_exponents_json_writer_matches_json_dumps(capsys):
    # the one-str-per-exponent writer against json.dumps on random
    # documents of the exponents shape, zero and negative values included
    rng = random.Random(26)
    for n_max in [0, 1, 2, 3, 17] + [rng.randrange(4, 60) for _ in range(20)]:
        values = [rng.choice([0, -1, 1, rng.randrange(-10**40, 10**40)])
                  for _ in range(n_max)]
        doc = {"d": rng.randrange(3, 1000), "n_max": n_max, "values": values,
               "rows": [{"n": n, "A": a} for n, a in enumerate(values, 1)],
               "cache": {"hits": rng.randrange(3), "misses": 0},
               "meta": {"tool": "bpx 0", "kernel_backend": "python",
                        "config": {"cache_dir": "cache \u00e9\"dir\"", "d": 4, "n": n_max}}}
        assert _exponents_json(doc) == json.dumps(doc, indent=2, sort_keys=True,
                                                  default=str) + "\n"
    # and the command's document as written
    code, out, _ = invoke(capsys, "exponents", "--d", "3", "--n", "30", "--format", "json")
    assert code == 0
    assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"


def test_density_empirical_below_3_exit_2(capsys):
    code, out, err = invoke(capsys, "density", "--d", "4", "--ell", "11",
                            "--empirical", "2")
    assert code == 2 and out == ""
    assert "X >= 3" in err


def test_out_into_missing_directory_exit_2(tmp_path, capsys):
    path = str(tmp_path / "missing" / "out.json")
    code, out, err = invoke(capsys, "exponents", "--d", "4", "--n", "2",
                            "--out", path)
    assert code == 2 and out == ""
    assert "does not exist" in err and not os.path.exists(path)


def test_out_onto_a_directory_exit_2(tmp_path, capsys):
    code, out, err = invoke(capsys, "exponents", "--d", "4", "--n", "3",
                            "--out", str(tmp_path))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "Traceback" not in err


def test_out_onto_a_directory_fails_before_the_command_runs(tmp_path, capsys,
                                                            monkeypatch):
    import bpx.cli as cli
    calls = []
    monkeypatch.setitem(cli._COMMANDS, "exponents",
                        lambda args: calls.append(args) or ({}, []))
    code, out, err = invoke(capsys, "exponents", "--d", "4", "--n", "3",
                            "--out", str(tmp_path))
    assert code == 2 and out == ""
    assert "is a directory" in err and calls == []
    assert os.listdir(tmp_path) == []


def test_cache_dir_under_a_regular_file_exit_2(tmp_path, capsys):
    blocker = tmp_path / "F"
    blocker.write_text("not a directory\n")
    code, out, err = invoke(capsys, "classpoly", "--d", "23",
                            "--cache-dir", str(blocker / "sub"))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "Traceback" not in err
    assert blocker.read_text() == "not a directory\n"


@pytest.mark.parametrize("argv, shown", [
    (["exponents", "--d", "0"], "d = 0:"),
    (["classpoly", "--d", "-3"], "d = -3:"),
], ids=["zero", "negative"])
def test_discriminant_message_shows_d_as_given(argv, shown, capsys):
    code, out, err = invoke(capsys, *argv)
    assert code == 2 and out == ""
    assert shown in err and "is not a negative discriminant" in err
    assert "--3" not in err and "-0 " not in err


@pytest.mark.parametrize("argv", [
    ["exponents", "--d", "4", "--n", "0"],
    ["check", "--d", "4", "--ell", "11", "--n", "-3"],
    ["congruence", "--d", "4", "--ell", "11", "--verify-to", "0"],
], ids=["n", "negative-n", "verify-to"])
def test_counts_below_1_exit_2(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2
    assert "must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("order", ["1", "2"])
def test_verify_to_within_the_fitted_terms_exit_2(order, capsys):
    # rank 2 at l = 31: the fit solves for q^0..q^2, so orders 1 and 2
    # would verify nothing
    code, out, err = invoke(capsys, "congruence", "--d", "20", "--ell", "31",
                            "--verify-to", order)
    assert code == 2 and out == ""
    assert "verify_to must be at least r + 1 = 3" in err


def test_verify_to_one_past_the_fitted_terms(capsys):
    code, out, _ = invoke(capsys, "congruence", "--d", "20", "--ell", "31",
                          "--verify-to", "3", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert (doc["c0"], doc["c"], doc["verified_to"]) == (2, [22, 1], 3)


def test_csv_without_rows_exit_2(capsys):
    code, out, err = invoke(capsys, "congruence", "--d", "4", "--ell", "11",
                            "--format", "csv")
    assert code == 2 and out == ""
    assert "no CSV form" in err


@pytest.mark.parametrize("argv", [
    ["congruence", "--d", "4", "--ell", "11"],
    ["check", "--d", "3", "--ell", "5", "--n", "10"],
    ["supersingular", "--ell", "11"],
    ["classpoly", "--d", "20"],
], ids=lambda argv: argv[0])
def test_csv_without_rows_fails_before_the_command_runs(argv, capsys,
                                                        monkeypatch):
    import bpx.cli as cli
    calls = []
    monkeypatch.setitem(cli._COMMANDS, argv[0],
                        lambda args: calls.append(args) or ({}, []))
    code, out, err = invoke(capsys, *argv, "--format", "csv")
    assert code == 2 and out == ""
    assert err == "error: this command has no CSV form; use --format json\n"
    assert calls == []


# Well-formed argv: every subcommand, with values that parse but need not
# make sense (d that is no discriminant, l that is no prime, an empty scan).
_D = st.sampled_from(["-4", "0", "3", "4", "5", "7", "12", "15", "20"])
_ELL = st.sampled_from(["-11", "2", "3", "5", "9", "11", "13", "17", "19"])
_ARGV = st.one_of(
    st.tuples(st.just("exponents"), st.just("--d"), _D,
              st.just("--n"), st.sampled_from(["1", "5"])),
    st.tuples(st.just("classpoly"), st.just("--d"), _D),
    st.tuples(st.just("congruence"), st.just("--d"), _D, st.just("--ell"), _ELL,
              st.sampled_from([(), ("--verify-to", "30")])),
    st.tuples(st.just("density"), st.just("--d"), _D, st.just("--ell"), _ELL,
              st.sampled_from([(), ("--empirical", "500")])),
    st.tuples(st.just("check"), st.just("--d"), _D, st.just("--ell"), _ELL,
              st.just("--n"), st.just("20")),
    st.tuples(st.just("supersingular"), st.just("--ell"), _ELL),
    st.tuples(st.just("table2"), st.just("--ell"), _ELL,
              st.just("--dmax"), st.sampled_from(["-1", "3", "20"])),
)


def _flatten(parts):
    return [w for part in parts
            for w in (part if isinstance(part, tuple) else (part,))]


@settings(max_examples=60, deadline=None)
@given(_ARGV, st.sampled_from(["text", "json", "csv"]))
def test_well_formed_argv_answers_or_exits_2(parts, fmt):
    # run() must return: an exception escaping it is a traceback at the shell
    argv = _flatten(parts) + ["--format", fmt]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    assert code in (0, 2), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert err.getvalue().startswith("error: ") and out.getvalue() == ""


def test_eigenbasis_capability_limit_exit_2(capsys):
    # the fit needs T_2 on S_(l+1) to have distinct eigenvalues in F_l; for
    # l = 23, 29 and every prime from 41 to 79 it does not, so there is no
    # eigenbasis over F_l to fit against
    code, out, err = invoke(capsys, "congruence", "--d", "3", "--ell", "41")
    assert code == 2 and out == ""
    assert "eigenbasis not defined over F_41" in err
    assert "Traceback" not in err


def test_ineligible_pair_reported_before_eigenbasis(capsys):
    # 41 = 1 mod 4, so j = 1728 is ordinary mod 41 and H_4 does not divide
    # s_41; that is the reason given, though there is no eigenbasis either
    code, out, err = invoke(capsys, "congruence", "--d", "4", "--ell", "41")
    assert code == 2 and out == ""
    assert "does not divide" in err
    assert "eigenbasis" not in err


# Argument vectors of all seven commands, with values in and out of range:
# d that is no discriminant, l that is 0, 1 or no prime, X below 3, an
# empty table2 scan.  Every count that argparse checks is >= 1 here.  The
# d (of -d = 0 or 1 mod 4), the l (primes) and the pairs (d, l) that the
# fit admits come first, so most vectors reach the work.
_D = st.one_of(st.integers(1, 15).map(lambda k: 4 * k),
               st.integers(1, 15).map(lambda k: 4 * k - 1), st.integers(-4, 60))
_ELL = st.one_of(st.sampled_from([5, 7, 11, 13, 17, 19, 23, 29, 31, 37]),
                 st.integers(0, 37))
_PAIR = st.one_of(st.sampled_from([(4, 11), (3, 5), (7, 13), (16, 11), (20, 31),
                                   (8, 37), (3, 17), (4, 19), (27, 11)]),
                  st.tuples(_D, _ELL))


def _option(name, values, absent=True):
    present = values.map(lambda v: (name, str(v)))
    return st.one_of(present, st.just(())) if absent else present


_VECTORS = st.one_of(
    st.tuples(st.just(("exponents",)), _option("--d", _D, False),
              _option("--n", st.integers(1, 60))),
    st.tuples(st.just(("classpoly",)), _option("--d", _D, False)),
    st.tuples(st.just(("supersingular",)), _option("--ell", _ELL, False)),
    st.tuples(st.just(("table2",)), _option("--ell", _ELL, False),
              _option("--dmax", st.integers(-2, 40), False)),
    *(st.tuples(st.just((command,)),
                _PAIR.map(lambda pair: ("--d", str(pair[0]), "--ell", str(pair[1]))),
                option)
      for command, option in [
          ("congruence", _option("--verify-to", st.integers(1, 80))),
          ("density", _option("--empirical", st.integers(-2, 2000))),
          ("check", _option("--n", st.integers(1, 60), False))]),
).map(lambda parts: [word for part in parts for word in part])


@pytest.fixture(scope="module")
def vectors_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli-vectors")  # one cache for every vector


@settings(max_examples=150, deadline=None, derandomize=True)
@given(argv=_VECTORS)
def test_every_command_and_format_answers_or_exits_2(argv, vectors_dir):
    docs = {}
    for fmt in ("json", "text", "csv"):
        path = vectors_dir / f"out.{fmt}"
        path.unlink(missing_ok=True)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(argv + ["--format", fmt, "--out", str(path),
                               "--cache-dir", str(vectors_dir / "cache")])
        assert code in (0, 2), (argv, fmt, err.getvalue())
        assert out.getvalue() == ""
        if code == 2:
            assert err.getvalue().startswith("error: "), (argv, fmt, err.getvalue())
        else:
            docs[fmt] = path.read_text()
    rows = json.loads(docs["json"]).get("rows") if "json" in docs else None
    if rows:  # the CSV rows are the JSON rows, as strings
        assert "csv" in docs, argv
        header, *lines = docs["csv"].splitlines()
        header = header.split(",")
        assert [line.split(",") for line in lines] == [
            [str(row[k]) for k in header] for row in rows], argv
