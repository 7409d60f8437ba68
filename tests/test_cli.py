"""Command line surface: grammar, JSON bytes, exit codes, settings."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

import pytest

import groupspec.cli as cli
from groupspec.arith import UsageError, odd_prime_power, save_factor_cache
from groupspec.coset import field_coset_spectrum, graph_coset
from groupspec.oracle.groups import make_field
import groupspec.oracle.spectrum as oracle_spectrum
from groupspec.spectra import GroupSpec, Spectrum


def clean_env(env=None):
    """os.environ without GROUPSPEC_* settings, updated by env."""
    full_env = {k: v for k, v in os.environ.items() if not k.startswith("GROUPSPEC_")}
    full_env.update(env or {})
    return full_env


def run_cli(*args, env=None, timeout=None):
    """Run the CLI in a fresh process; returns (exit code, stdout bytes, stderr text)."""
    proc = subprocess.run([sys.executable, "-m", "groupspec.cli", *args],
                          capture_output=True, env=clean_env(env), timeout=timeout)
    return proc.returncode, proc.stdout, proc.stderr.decode()


GOLDEN = [
    (("spectrum", "PSL(3,3)"),
     b'{"generators":[13,8,6],"spec":"PSL(3,3)"}\n'),
    (("spectrum", "Omega-(4,3)"),
     b'{"generators":[5,4],"part":"p_prime","spec":"Omega-(4,3)"}\n'),
    (("coset-spectrum", "PSL(4,3)"),
     b'{"coset":"graph","pieces":[{"constraint":"p_prime_only","generators":[2],'
     b'"multiplier":2},{"constraint":"p_prime_only","generators":[5,4],"multiplier":2},'
     b'{"constraint":"p_divisible","generators":[9,6],"multiplier":2}],"spec":"PSL(4,3)"}\n'),
    (("coset-spectrum", "PGL(4,3)"),
     b'{"coset":"graph","pieces":[{"constraint":"none","generators":[12,9,5],'
     b'"multiplier":2}],"spec":"PGL(4,3)"}\n'),
    (("tau-test", "PSU(4,3)"),
     b'{"all_triggered_cases":[[3,18],[4,10]],"case":3,"spec":"PSU(4,3)",'
     b'"verdict":"witness","witness":18}\n'),
    (("admissible", "PSL(4,25)"),
     b'{"b":2,"class_nontrivial":2,"class_total":3,"d":4,"diagnostics":[],"eta":"d",'
     b'"generators":["f","f t"],"phi_hat":"f","psi":"1","rows":["C-field","C-field-tau"],'
     b'"spec":"PSL(4,25)","tau_verdict":"witness"}\n'),
    (("admissible", "PSU(4,3)"),
     b'{"b":1,"class_nontrivial":0,"class_total":1,"d":4,"diagnostics":[],"eta":"d",'
     b'"generators":[],"phi_hat":"1","psi":"1","rows":["U-empty"],"spec":"PSU(4,3)",'
     b'"tau_verdict":"witness"}\n'),
    (("coset-spectrum", "PSL(3,343)", "--field-k", "3"),
     b'{"diag":0,"field_k":3,"pieces":[{"constraint":"none","generators":[19,16,14,6],'
     b'"multiplier":3}],"spec":"PSL(3,343)","variant":"plain"}\n'),
    (("coset-spectrum", "PSU(3,9)", "--field-k", "2", "--variant", "graph"),
     b'{"diag":0,"field_k":2,"pieces":[{"constraint":"none","generators":[6,4],'
     b'"multiplier":4}],"spec":"PSU(3,9)","variant":"graph"}\n'),
    (("coset-spectrum", "PSU(3,9)", "--generator", "f"),
     b'{"generator":"f","generator_order":4,"maxima":[80,73,30,24],"pieces":'
     b'[{"constraint":"none","generators":[6,4],"multiplier":4},{"constraint":"none",'
     b'"generators":[10,8,6],"multiplier":2},{"constraint":"none","generators":[80,73,30],'
     b'"multiplier":1}],"spec":"PSU(3,9)"}\n'),
    (("coset-spectrum", "PSL(4,3)", "--generator", "d"),
     b'{"generator":"d","generator_order":2,"spec":"PSL(4,3)","supported":false}\n'),
    (("gamma-check", "--q", "3", "1,0;0,1"),
     b'{"conjugate_to_inverse":true,"det_square_class":"square","in_gamma":true,"n":2,'
     b'"partition_minus":[],"partition_plus":[[1,2]],"q":3}\n'),
]


@pytest.mark.parametrize("args,expect", GOLDEN, ids=lambda x: " ".join(x) if isinstance(x, tuple) else "")
def test_golden_output(args, expect):
    code, out, err = run_cli(*args)
    assert code == 0, err
    assert out == expect


def test_verify_full_golden():
    code, out, err = run_cli("verify", "PSL(3,3)", "--mode", "full")
    assert code == 0, err
    assert out == (
        b'{"attained":[1,2,3,4,6,8,13],"formula":[13,8,6],"group":"SL_3(3)","kind":"SL",'
        b'"missing":[],"mode":"full","n":3,"order_kind":"projective","q":3,'
        b'"sampler":"enumeration","samples":5616,"seed":0,"spec":"PSL(3,3)",'
        b'"target":"PSL_3(3)","threads":1,"verdict":"PASS","violations":[]}\n')


def test_output_is_deterministic():
    first = run_cli("verify", "PSL(2,5)", "--mode", "sample", "--samples", "2000")
    second = run_cli("verify", "PSL(2,5)", "--mode", "sample", "--samples", "2000")
    assert first == second
    assert first[0] == 0


def test_pretty_mode():
    code, out, _ = run_cli("spectrum", "PSL(3,3)", "--pretty")
    assert code == 0
    assert out == b"PSL(3,3) maximal orders: 13 8 6\n"
    code, out, _ = run_cli("verify", "PSL(3,3)", "--mode", "full", "--pretty")
    assert code == 0
    assert out == b"PASS: PSL_3(3) [full, projective, sampler enumeration]\n"


# ---------------------------------------------------------------------------
# exit codes and diagnostics


def test_parse_error_reports_position():
    code, _, err = run_cli("spectrum", "PSL(3;3)")
    assert code == 2
    assert "expected ',' at position 5" in err


@pytest.mark.parametrize("group,fragment", [
    ("Sp(3,3)", "even dimension"),
    ("PSL(3,8)", "odd prime powers"),
    ("PSL(3,12)", "prime power"),
    ("PXL(3,3)", "family"),
])
def test_group_grammar_rejections(group, fragment):
    code, _, err = run_cli("spectrum", group)
    assert code == 2
    assert fragment in err


@pytest.mark.parametrize("q", [0, 1, 2, 8, 12, 15])
def test_bad_q_gets_one_message_everywhere(q, capsys):
    with pytest.raises(UsageError) as want:
        odd_prime_power(q)
    msg = str(want.value)
    for call in (lambda: GroupSpec.from_q("PSL", 3, q), lambda: make_field("GL", q),
                 lambda: graph_coset(3, q),
                 lambda: field_coset_spectrum(3, q, 1, 0, 1, "plain")):
        with pytest.raises(UsageError) as got:
            call()
        assert str(got.value) == msg
    for argv in (["spectrum", f"PSL(3,{q})"], ["gamma-check", "--q", str(q), "1,0;0,1"]):
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == f"error: {msg}\n"


def test_composite_q_past_the_twelve_base_bound_exits_2():
    # 1287836182261 * 2575672364521 passes the strong test to every prime
    # base up to 41
    q = 3317044064679887385961981
    code, out, err = run_cli("spectrum", f"PSL(3,{q})", timeout=60)
    assert (code, out) == (2, b"")
    assert err == f"error: q = {q} is not a prime power\n"


def test_bound_exit_code():
    code, _, err = run_cli("verify", "PSL(3,3)", "--mode", "full", "--enum-bound", "100")
    assert code == 3
    assert "retry with --mode sample" in err


def test_full_verify_beyond_the_bound_exits_3(monkeypatch, capsys):
    # the closed forms and the order bound come after the enumeration bound
    def computed_too_early(*args, **kwargs):
        raise AssertionError("computed before the enumeration bound was checked")
    for name in ("spectrum", "graph_coset", "order_bound_fact"):
        monkeypatch.setattr(oracle_spectrum, name, computed_too_early)
    for extra in ([], ["--order-kind", "tau_coset"]):
        assert cli.main(["verify", "PSL(60,3)", "--mode", "full", *extra]) == 3
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == ("error: 3^3600 candidate matrices exceed the bound 30000000 "
                           "(retry with --mode sample, or raise --enum-bound)\n")


@pytest.mark.parametrize("q", [47, 1021])
def test_sampling_over_a_field_without_tables_exits_2(q, monkeypatch, capsys):
    # GU_3(q) lives over F_{q^2}, past the tables; the sampler used to draw
    # with scalar arithmetic first, for seconds, and PSU(3,1021) overflowed
    def computed_too_early(*args, **kwargs):
        raise AssertionError("computed before the field was refused")
    for name in ("order_bound_fact", "sample_matrices"):
        monkeypatch.setattr(oracle_spectrum, name, computed_too_early)
    assert cli.main(["verify", f"PSU(3,{q})", "--mode", "sample"]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == f"error: field of size {q * q} is too large for the matrix oracle\n"


def test_sampling_a_bound_of_large_primes_finishes():
    # factoring the whole order bound of PSL_12(2039) ran past 60 s; its
    # cyclotomic parts take milliseconds
    code, out, _ = run_cli("verify", "PSL(12,2039)", "--mode", "sample",
                           "--samples", "8", timeout=60)
    assert code == 0
    assert json.loads(out)["verdict"] == "PASS"


def test_closed_form_beyond_the_table_bound_exits_3(capsys):
    for argv in (["spectrum", "PSL(5000,3)"], ["spectrum", "PSL(200,3)"],
                 ["spectrum", "Sp(112,3)"], ["coset-spectrum", "PSL(5000,3)"]):
        start = time.perf_counter()
        assert cli.main(argv) == 3, argv
        assert time.perf_counter() - start < 5, argv
        out = capsys.readouterr()
        assert out.out == "", argv
        assert "closed-form lcm table" in out.err and "bound" in out.err, argv
        assert "--enum-bound" not in out.err, argv


def test_usage_exit_codes():
    assert run_cli("coset-spectrum", "PSL(3,9)", "--variant", "plain")[0] == 2
    assert run_cli("coset-spectrum", "PSL(3,9)", "--field-k", "2",
                   "--generator", "f")[0] == 2
    assert run_cli("tau-test", "PGL(3,3)")[0] == 2
    assert run_cli("coset-spectrum", "PSL(4,3)", "--generator", "x")[0] == 2
    code, _, err = run_cli("verify", "PSL(4,3)", "--order-kind", "tau_delta_coset",
                           "--mode", "full")
    assert code == 2 and "the tau delta probe is sampling-only" in err


@pytest.mark.parametrize("group, kind, message", [
    ("PSL(3,3)", "tau_delta_coset", "is its tau coset"),     # d = gcd(3, 2) = 1
    ("Sp(4,3)", "tau_delta_coset", "covers PSL/PGL over eps = +1"),
    ("PSU(4,3)", "tau_delta_coset", "covers PSL/PGL over eps = +1"),
    ("PSU(4,3)", "tau_coset", "covers PSL/PGL over eps = +1"),
])
def test_tau_kinds_outside_their_groups_exit_2(group, kind, message):
    # a timeout turns a hang into a failure instead of stalling the suite
    code, out, err = run_cli("verify", group, "--order-kind", kind, "--samples", "50",
                             "--pretty", timeout=60)
    assert (code, out) == (2, b"")
    assert message in err


def test_empty_outer_word_is_a_usage_error(capsys):
    spec = GroupSpec.from_q("PSL", 3, 5)
    for word in ("", "  "):
        with pytest.raises(UsageError, match="empty outer word"):
            cli.parse_out_word(word, spec)
    assert str(cli.parse_out_word(" 1 ", spec)) == "1"
    assert cli.main(["coset-spectrum", "PSL(3,5)", "--generator", ""]) == 2
    assert capsys.readouterr().out == ""


def test_verify_failure_exit_code(monkeypatch, capsys):
    # tamper with the closed form so the oracle disagrees
    monkeypatch.setattr(oracle_spectrum, "spectrum",
                        lambda spec: Spectrum((5,)))
    code = cli.main(["verify", "PSL(2,5)", "--mode", "sample", "--samples", "500"])
    out = capsys.readouterr().out
    assert code == 1
    report = json.loads(out)
    assert report["verdict"] == "FAIL"
    assert report["violations"]


# ---------------------------------------------------------------------------
# settings: flags beat environment, environment beats config file


def _seed_of(stdout: bytes) -> int:
    return json.loads(stdout)["seed"]


def test_env_overrides_default():
    args = ("verify", "PSL(2,5)", "--mode", "sample", "--samples", "300")
    assert _seed_of(run_cli(*args)[1]) == 0
    assert _seed_of(run_cli(*args, env={"GROUPSPEC_SEED": "7"})[1]) == 7


def test_flag_overrides_env():
    args = ("verify", "PSL(2,5)", "--mode", "sample", "--samples", "300", "--seed", "9")
    assert _seed_of(run_cli(*args, env={"GROUPSPEC_SEED": "7"})[1]) == 9


def test_config_file_lowest_precedence(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"seed": 4, "samples": 250}))
    env = {"GROUPSPEC_CONFIG": str(config)}
    args = ("verify", "PSL(2,5)", "--mode", "sample")
    report = json.loads(run_cli(*args, env=env)[1])
    assert report["seed"] == 4 and report["samples"] == 250
    env["GROUPSPEC_SEED"] = "6"
    report = json.loads(run_cli(*args, env=env)[1])
    assert report["seed"] == 6 and report["samples"] == 250


def test_invalid_settings_rejected():
    code, _, err = run_cli("verify", "PSL(2,5)", "--samples", "-5")
    assert code == 2
    code, _, err = run_cli("verify", "PSL(2,5)",
                           env={"GROUPSPEC_SAMPLES": "many"})
    assert code == 2


def test_factor_cache_round_trip(tmp_path):
    # verify factorizes its order bound 312 = 2^3 3 13; the closed forms and
    # the check on q factorize nothing
    cache = tmp_path / "factors.txt"
    code, first, _ = run_cli("verify", "PSL(3,3)", "--cache", str(cache))
    assert code == 0
    assert "312: 2^3 3 13" in cache.read_text()
    code, second, _ = run_cli("verify", "PSL(3,3)", "--cache", str(cache))
    assert code == 0
    assert first == second


def test_large_composite_q_is_refused_at_once():
    # q = (10^18 + 3)(3 10^18 + 37): factorizing it would take rho about
    # 10^9 steps; a timeout turns a hang into a failure
    q = (10**18 + 3) * (3 * 10**18 + 37)
    code, out, err = run_cli("spectrum", f"PSL(3,{q})", timeout=30)
    assert (code, out) == (2, b"")
    assert f"q = {q} is not a prime power" in err


def test_factor_cache_missing_directory(tmp_path):
    cache = tmp_path / "missing_dir" / "f.txt"
    code, out, err = run_cli("spectrum", "PSL(3,3)", "--cache", str(cache))
    assert code == 2
    assert out == b""
    assert err.startswith("error: ") and "Traceback" not in err
    assert not cache.parent.exists()


def test_factor_cache_write_error_is_a_usage_error(tmp_path):
    with pytest.raises(UsageError, match="cannot write factor cache"):
        save_factor_cache(str(tmp_path))       # a directory, not a file


@pytest.mark.parametrize("line,fragment", [
    (b"abc: 2", "does not parse"),
    (b"9: 9", "non-prime factor 9"),
    (b"7: 7^99999999999999", "does not multiply back"),
    (b"\xff\xfe: 3", "cannot read factor cache"),
])
def test_bad_factor_cache_line(tmp_path, line, fragment):
    cache = tmp_path / "factors.txt"
    cache.write_bytes(line + b"\n")
    code, out, err = run_cli("spectrum", "PSL(3,9)", "--cache", str(cache))
    assert code == 2
    assert out == b""
    assert fragment in err


def test_closed_form_commands_skip_numpy():
    # numpy is the oracle's dependency alone; the closed forms never load it
    script = (
        "import contextlib, io, sys\n"
        "from groupspec.cli import main\n"
        "calls = [['spectrum', 'PSL(3,3)'], ['coset-spectrum', 'PSL(4,3)'],\n"
        "         ['coset-spectrum', 'PSU(3,9)', '--generator', 'f'],\n"
        "         ['coset-spectrum', 'PSL(3,343)', '--field-k', '3'],\n"
        "         ['tau-test', 'PSU(4,3)'], ['admissible', 'PSL(4,25)'],\n"
        "         ['spectrum', 'PSL(3,12)']]\n"
        "with contextlib.redirect_stdout(io.StringIO()), \\\n"
        "        contextlib.redirect_stderr(io.StringIO()):\n"
        "    codes = [main(argv) for argv in calls]\n"
        "print(codes, 'numpy' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          env=clean_env())
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout == b"[0, 0, 0, 0, 0, 0, 2] False\n"


def test_verify_refusals_skip_numpy():
    # refusals decided from the arguments alone come before the oracle loads
    script = (
        "import contextlib, io, sys\n"
        "from groupspec.cli import main\n"
        "calls = [['verify', 'PSL(5,3)', '--mode', 'full'],\n"
        "         ['verify', 'PGL(4,7)', '--mode', 'full'],\n"
        "         ['verify', 'PSL(60,3)', '--mode', 'full', '--order-kind', 'tau_coset'],\n"
        "         ['verify', 'PSL(3,3)', '--order-kind', 'tau_delta_coset']]\n"
        "out, err = io.StringIO(), io.StringIO()\n"
        "with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):\n"
        "    codes = [main(argv) for argv in calls]\n"
        "print(codes, 'numpy' in sys.modules, repr(out.getvalue()))\n"
        "print(err.getvalue(), end='')\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          env=clean_env())
    assert proc.returncode == 0, proc.stderr.decode()
    retry = "(retry with --mode sample, or raise --enum-bound)"
    assert proc.stdout.decode().splitlines() == [
        "[3, 3, 3, 2] False ''",
        f"error: 3^25 candidate matrices exceed the bound 30000000 {retry}",
        f"error: 7^16 candidate matrices exceed the bound 30000000 {retry}",
        f"error: 3^3600 candidate matrices exceed the bound 30000000 {retry}",
        "error: the tau delta coset of GL_3(3) is its tau coset: gcd(n, q - 1) = 1"]


def test_cold_imports_load_nothing_unused():
    # -S: no site packages, so no .pth file of the host imports anything
    src = os.path.dirname(os.path.dirname(cli.__file__))
    script = (
        "import sys\n"
        "import groupspec.cli, groupspec.coset, groupspec.outer, groupspec.oracle\n"
        "print([m for m in ('dataclasses', 'inspect', 'numpy') if m in sys.modules])\n"
    )
    proc = subprocess.run([sys.executable, "-S", "-c", script], capture_output=True,
                          env=clean_env({"PYTHONPATH": src}))
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout == b"[]\n"


def test_spectrum_skips_coset_and_outer():
    # only the coset, tau and admissibility commands need those modules
    script = (
        "import contextlib, io, sys\n"
        "from groupspec.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = main(['spectrum', 'PSU(4,3)'])\n"
        "print(code, 'groupspec.coset' in sys.modules, 'groupspec.outer' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          env=clean_env())
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout == b"0 False False\n"


# ---------------------------------------------------------------------------
# in-process odds and ends


def test_main_returns_zero_in_process(capsys):
    assert cli.main(["spectrum", "PSp(4,3)"]) == 0
    assert capsys.readouterr().out == '{"generators":[12,9,5],"spec":"PSp(4,3)"}\n'


def test_gamma_check_rejects_singular(capsys):
    for q, matrix in (("3", "1,1;1,1"), ("3", "1,2,0;0,1,1;1,0,1"), ("9", "2,7;2,7")):
        assert cli.main(["gamma-check", "--q", q, matrix]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: matrix is singular\n"


def test_gamma_check_nonsquare_class(capsys):
    assert cli.main(["gamma-check", "--q", "3", "2,0;0,1"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["det_square_class"] == "nonsquare"
    assert report["in_gamma"] is False


def test_gamma_check_computes_one_smith_form(monkeypatch, capsys):
    import numpy as np

    import groupspec.oracle.wall as wall
    from groupspec.oracle.field import FiniteField
    real, calls = wall.invariant_factors, []

    def counted(F, H):
        calls.append(H)
        return real(F, H)
    monkeypatch.setattr(wall, "invariant_factors", counted)
    for q, matrix in (("3", "1,1;0,1"), ("3", "2,0;0,2"), ("3", "1,1,0;0,1,0;0,0,2"),
                      ("5", "0,1;1,0"), ("5", "2,0;0,1"), ("9", "1,3;0,1")):
        calls.clear()
        assert cli.main(["gamma-check", "--q", q, matrix]) == 0
        report = json.loads(capsys.readouterr().out)
        assert len(calls) == 1, matrix
        F = FiniteField(*{"3": (3, 1), "5": (5, 1), "9": (3, 2)}[q])
        h = np.array([[int(e) for e in row.split(",")] for row in matrix.split(";")], np.int16)
        monkeypatch.setattr(wall, "invariant_factors", real)
        assert report["in_gamma"] == wall.gamma_membership(F, h), matrix
        assert report["conjugate_to_inverse"] == wall._self_reciprocal(
            F, wall.invariant_factors(F, h)), matrix
        for key, lam in (("partition_plus", 1), ("partition_minus", F.neg(1))):
            want = sorted(([k, v] for k, v in wall.partition_at(F, h, lam).items()), reverse=True)
            assert report[key] == want, (matrix, key)
        monkeypatch.setattr(wall, "invariant_factors", counted)


def test_parse_out_word_forms(capsys):
    assert cli.main(["coset-spectrum", "PSL(3,343)", "--generator", "1"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["generator"] == "1" and report["generator_order"] == 1
    assert cli.main(["coset-spectrum", "PSL(3,343)", "--generator", "f^2 t"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["generator_order"] == 6
