import contextlib
import io
import json
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bpx
from bpx.cli import run


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


def test_density_empirical_thread_count_invariance(capsys):
    _, out1, _ = invoke(capsys, "density", "--d", "4", "--ell", "11",
                        "--empirical", "20000", "--format", "json", "--threads", "1")
    _, out4, _ = invoke(capsys, "density", "--d", "4", "--ell", "11",
                        "--empirical", "20000", "--format", "json", "--threads", "4")
    d1, d4 = json.loads(out1), json.loads(out4)
    assert d1["rows"] == d4["rows"]
    # full byte identity apart from the echoed thread count
    d1["meta"]["config"].pop("threads")
    d4["meta"]["config"].pop("threads")
    assert d1 == d4


def test_check_command(capsys):
    code, out, _ = invoke(capsys, "check", "--d", "4", "--ell", "11", "--n", "60")
    assert code == 0
    assert out.strip() == "OK: 60 indices verified (5 skipped, l|n)"


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


def test_warm_cache_run_never_imports_mpmath(tmp_path, capsys):
    # mpmath serves only the class-polynomial compute path; importing the
    # CLI, or answering from a warm cache, must not load it
    cache = str(tmp_path / "cache")
    code, _, _ = invoke(capsys, "classpoly", "--d", "23", "--cache-dir", cache)
    assert code == 0
    script = (
        "import sys, bpx.cli\n"
        "loaded = ['mpmath' in sys.modules]\n"
        "code = bpx.cli.run(['classpoly', '--d', '23', '--cache-dir', sys.argv[1]])\n"
        "loaded.append('mpmath' in sys.modules)\n"
        "print(code, *loaded, file=sys.stderr)\n")
    src = os.path.dirname(os.path.dirname(bpx.__file__))
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", script, cache], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.split() == ["0", "False", "False"]


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


@pytest.mark.parametrize("argv", [
    ["exponents", "--d", "4", "--threads", "0"],
    ["exponents", "--d", "4", "--n", "0"],
    ["check", "--d", "4", "--ell", "11", "--n", "-3"],
    ["congruence", "--d", "4", "--ell", "11", "--verify-to", "0"],
], ids=["threads", "n", "negative-n", "verify-to"])
def test_counts_below_1_exit_2(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2
    assert "must be >= 1" in capsys.readouterr().err


def test_csv_without_rows_exit_2(capsys):
    code, out, err = invoke(capsys, "congruence", "--d", "4", "--ell", "11",
                            "--format", "csv")
    assert code == 2 and out == ""
    assert "no CSV form" in err


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
              st.just("--dmax"), st.sampled_from(["-1", "3", "20"]),
              st.just("--D"), st.sampled_from(["1", "5"])),
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
    code, out, err = invoke(capsys, "congruence", "--d", "4", "--ell", "41")
    assert code == 2 and out == ""
    assert "eigenbasis not defined over F_41" in err
    assert "Traceback" not in err
