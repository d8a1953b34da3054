"""CLI contract: flags, exit codes, deterministic reports, config files."""
import json
import time
import warnings

import numpy as np
import pytest

from elliptop import cli
from elliptop.cli import (EXIT_NUMERICAL, EXIT_OK, EXIT_USAGE, format_complex,
                          main, parse_complex)
from elliptop.elliptic import EllipticParams, PoleProximityError
from elliptop.fourier import verify_identity
from elliptop.models import make_model


def run(args):
    return main(args)


def load(path):
    return json.loads(path.read_text())


def payload_bytes(report: dict) -> bytes:
    body = {k: v for k, v in report.items() if k != "meta"}
    return json.dumps(body, sort_keys=True).encode()


@pytest.mark.parametrize("argv", [
    ["identities", "--N", "0"],
    ["identities", "--N", "2", "--M", "0"],
    ["lax-check", "--model", "gaudin-lattice", "--N", "2", "--K", "0"],
    ["lax-check", "--model", "matrix-top", "--N", "2", "--M", "0"],
    ["evolve", "--model", "nonrel-top", "--N", "2", "--t-end", "0"],
    ["evolve", "--model", "nonrel-top", "--N", "2", "--dt", "0"],
    ["evolve", "--model", "nonrel-top", "--N", "2", "--dt", "nan"],
    ["evolve", "--model", "nonrel-top", "--N", "2", "--record-every", "0"],
    ["evolve", "--model", "nonrel-top", "--N", "2", "--probes", "0"],
    ["evolve", "--model", "nonrel-top", "--N", "2", "--probes", "-1"],
    ["evolve", "--model", "nonrel-top", "--N", "2", "--amplitude", "0"],
    ["evolve", "--model", "nonrel-top", "--N", "2", "--amplitude", "-0.25"],
    ["evolve", "--model", "nonrel-top", "--N", "2", "--amplitude", "nan"],
    ["evolve", "--model", "nonrel-top", "--N", "2", "--amplitude", "inf"],
    ["rmatrix", "--N", "0"],
    ["rmatrix", "--N", "2", "--M", "0"],
    ["identities", "--N", "2", "--tol", "-1"],
    ["lax-check", "--model", "nonrel-top", "--N", "2", "--tol", "nan"],
    ["evolve", "--model", "nonrel-top", "--N", "2", "--tol", "0"],
    ["rmatrix", "--N", "2", "--tol", "inf"],
], ids="_".join)
def test_nonpositive_sizes_and_steps_exit_2(argv, tmp_path):
    # these once exited 1 as numerical failures, or 0 with nothing checked
    if argv[0] == "evolve":
        argv = argv + ["--out-dir", str(tmp_path)]
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == EXIT_USAGE


# each command's core call; the rmatrix run checks unitarity only
CORE_CALLS = {
    "identities": ("elliptop.cli.verify_identity",
                   ["identities", "--N", "2", "--ids", "e913", "--samples", "1"]),
    "lax-check": ("elliptop.cli.lax_residual", ["lax-check", "--model", "nonrel-top",
                                                 "--N", "2"]),
    "evolve": ("elliptop.cli.integrate", ["evolve", "--model", "nonrel-top", "--N", "2",
                                          "--t-end", "0.01", "--record-every", "1"]),
    "rmatrix": ("elliptop.rmatrix.symmetric_unitarity_residual",
                ["rmatrix", "--N", "2", "--checks", "unitarity"]),
}


@pytest.mark.parametrize("error, code", [
    (ValueError("rejected input"), EXIT_USAGE),
    (RuntimeError("could not draw"), EXIT_NUMERICAL),
    (PoleProximityError("z", 0j, 0.0, 1e-8), EXIT_NUMERICAL),
], ids=lambda v: type(v).__name__ if isinstance(v, Exception) else str(v))
@pytest.mark.parametrize("command", list(CORE_CALLS))
def test_exit_code_follows_the_exception_type(command, error, code, monkeypatch,
                                              tmp_path, capsys):
    # main alone maps what a command raises: a ValueError is a rejected input
    # (exit 2; a ValueError raised after the inputs were accepted once exited
    # 1), an EllipticError or RuntimeError a numerical failure; neither
    # writes a report
    target, argv = CORE_CALLS[command]

    def fail(*args, **kwargs):
        raise error

    monkeypatch.setattr(target, fail)
    if command == "evolve":
        report = tmp_path / "run" / "summary.json"
        argv = argv + ["--out-dir", str(report.parent)]
    else:
        report = tmp_path / "r.json"
        argv = argv + ["--out", str(report)]
    if code == EXIT_USAGE:
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == EXIT_USAGE
        assert capsys.readouterr().err.endswith(f"error: {error}\n")
    else:
        assert run(argv) == EXIT_NUMERICAL
        # identities names what failed: the identity, N, M and tau
        where = (f"identity 'e913' at N = 2, M = 1, tau = {format_complex(0.3 + 1.1j)}: "
                 if command == "identities" else "")
        assert capsys.readouterr().err == f"elliptop: numerical failure: {where}{error}\n"
    assert not report.exists()


def recorder(monkeypatch, target):
    """Replace ``target`` by a stub that records its calls and runs nothing."""
    calls = []
    monkeypatch.setattr(target, lambda *args, **kwargs: calls.append(args))
    return calls


class TestRejectedBeforeAnyWork:
    """Inputs that once failed only after the computation had run, or after
    the model was built, are usage errors (exit 2) that name the flag or
    path before any command starts."""

    @pytest.fixture
    def started(self, monkeypatch):
        # every command builds its EllipticParams before anything else
        return recorder(monkeypatch, "elliptop.cli.EllipticParams")

    def exits_2(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == EXIT_USAGE
        return capsys.readouterr().err

    def test_out_in_a_missing_directory(self, tmp_path, capsys, started):
        # once a FileNotFoundError traceback (exit 1) after every identity ran
        out = tmp_path / "nodir" / "r.json"
        err = self.exits_2(CORE_CALLS["identities"][1] + ["--out", str(out)], capsys)
        assert f"--out {str(out)!r}" in err
        assert started == [] and not out.parent.exists()

    def test_out_is_a_directory(self, tmp_path, capsys, started):
        # once an IsADirectoryError traceback (exit 1) after the checks ran
        err = self.exits_2(CORE_CALLS["rmatrix"][1] + ["--out", str(tmp_path)], capsys)
        assert f"--out {str(tmp_path)!r}" in err
        assert started == [] and list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("below", ["", "sub"])
    def test_out_dir_is_a_file(self, tmp_path, capsys, started, below):
        # os.makedirs once raised FileExistsError only after integrate
        afile = tmp_path / "afile"
        afile.write_text("kept\n")
        out_dir = afile / below if below else afile
        err = self.exits_2(CORE_CALLS["evolve"][1] + ["--out-dir", str(out_dir)], capsys)
        assert f"--out-dir {str(out_dir)!r} cannot be made: {str(afile)!r}" in err
        assert started == [] and afile.read_text() == "kept\n"

    @pytest.mark.parametrize("command", list(CORE_CALLS))
    def test_negative_seed(self, command, capsys, started):
        # numpy once rejected it after the model was built, without naming --seed
        err = self.exits_2(CORE_CALLS[command][1] + ["--seed", "-1"], capsys)
        assert "argument --seed: must be at least 0, got -1" in err
        assert started == []

    def test_negative_seed_in_config(self, tmp_path, capsys, started):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = -3\n")
        err = self.exits_2(CORE_CALLS["lax-check"][1] + ["--config", str(cfg)], capsys)
        assert "argument --seed: must be at least 0, got -3" in err
        assert started == []

    def test_repeated_identity(self, monkeypatch, capsys):
        # once two e913 results, so the name no longer identified a result
        verified = recorder(monkeypatch, "elliptop.cli.verify_identity")
        err = self.exits_2(["identities", "--N", "3", "--ids", "e913,w91,e913"], capsys)
        assert "--ids names e913 more than once" in err
        assert verified == []

    def test_repeated_check(self, monkeypatch, capsys):
        # once two aybe results from different draws
        checked = recorder(monkeypatch, "elliptop.rmatrix.check_aybe_symmetric")
        err = self.exits_2(["rmatrix", "--N", "2", "--checks", "aybe, unitarity,aybe"],
                           capsys)
        assert "--checks names aybe more than once" in err
        assert checked == []


class TestComplexSyntax:
    @pytest.mark.parametrize("text,value", [
        ("0.3+1.1i", 0.3 + 1.1j),
        ("0.3-1.1i", 0.3 - 1.1j),
        ("-2e-1+0.5i", -0.2 + 0.5j),
        ("0.25", 0.25),
    ])
    def test_parse(self, text, value):
        assert parse_complex(text) == value

    def test_reject_spaces(self):
        import argparse
        with pytest.raises(argparse.ArgumentTypeError):
            parse_complex("0.3 + 1.1i")

    def test_round_trip(self):
        z = 0.317 - 2.25j
        assert parse_complex(format_complex(z)) == z

    @pytest.mark.parametrize("flag,value,key", [
        ("--tau", "-0.45+0.9i", "tau"), ("--eta", "-0.1+0.2i", "eta")])
    def test_leading_minus_is_a_value(self, tmp_path, flag, value, key):
        # argparse once read the value as an unknown option and exited 2
        out = tmp_path / "r.json"
        assert run(["lax-check", "--model", "rel-top", "--N", "2", flag, value,
                    "--out", str(out)]) == EXIT_OK
        assert load(out)["params"][key] == format_complex(parse_complex(value))

    def test_leading_minus_in_config(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("tau = -0.45+0.9i\neta=-0.1+0.2i\n")
        out = tmp_path / "r.json"
        assert run(["lax-check", "--model", "rel-top", "--N", "2", "--config", str(cfg),
                    "--out", str(out)]) == EXIT_OK
        params = load(out)["params"]
        assert params["tau"] == format_complex(-0.45 + 0.9j)
        assert params["eta"] == format_complex(-0.1 + 0.2j)


class TestIdentitiesCommand:
    def test_small_run_passes(self, tmp_path):
        out = tmp_path / "r.json"
        code = run(["identities", "--N", "2", "--samples", "4", "--seed", "42",
                    "--ids", "e913,e9051,w86", "--out", str(out)])
        assert code == EXIT_OK
        rep = load(out)
        assert {r["check"] for r in rep["results"]} == {"e913", "e9051", "w86"}
        assert all(r["pass"] for r in rep["results"])

    def test_e9051_report_is_exact(self, tmp_path):
        out = tmp_path / "r.json"
        assert run(["identities", "--N", "3", "--ids", "e9051", "--samples", "1",
                    "--out", str(out)]) == EXIT_OK
        rep = load(out)
        assert rep["results"][0]["max_abs_residual"] < 1e-13

    def test_noncoprime_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            run(["identities", "--N", "2", "--M", "4"])
        assert exc.value.code == EXIT_USAGE

    def test_unknown_id_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            run(["identities", "--N", "2", "--ids", "e999"])
        assert exc.value.code == EXIT_USAGE

    @pytest.mark.parametrize("ids", [",", " , ,", ""])
    def test_empty_id_list_exits_2(self, ids, capsys):
        # a list that names nothing once exited 0 with "results": []
        with pytest.raises(SystemExit) as exc:
            run(["identities", "--N", "2", "--ids", ids])
        assert exc.value.code == EXIT_USAGE
        assert "--ids names nothing" in capsys.readouterr().err

    @pytest.mark.parametrize("m", ["1", "2"])
    def test_n1_exits_2(self, m, tmp_path, capsys):
        # Z_1^2 has only the zero mode: 8 of the 21 identities (11 of 26 at
        # M = 2) once swept nothing and passed with residual 0, exit 0
        out = tmp_path / "r.json"
        with pytest.raises(SystemExit) as exc:
            run(["identities", "--N", "1", "--M", m, "--out", str(out)])
        assert exc.value.code == EXIT_USAGE
        assert "identities need N >= 2" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_tau_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            run(["identities", "--N", "2", "--tau", "0.3-1.1i"])
        assert exc.value.code == EXIT_USAGE

    @pytest.mark.parametrize("samples", ["0", "-3"])
    def test_sample_count_below_one_exits_2(self, samples):
        # these once reported every identity as passing with residual 0
        with pytest.raises(SystemExit) as exc:
            run(["identities", "--N", "2", "--samples", samples])
        assert exc.value.code == EXIT_USAGE

    @pytest.mark.parametrize("m, ids, message", [
        ("1", "e913,e914,w91,nope", "unknown identity id: 'nope'"),
        ("1", "e913,e914,w91,w33", "identity 'w33' needs the GL_NxGL_M setting"),
    ], ids=["unknown", "needs-m"])
    def test_names_checked_before_any_verification(self, monkeypatch, capsys,
                                                   m, ids, message):
        # a bad last name once exited 2 only after verifying the ones before it
        calls = []

        def counted(ident, *args, **kw):
            calls.append(ident)
            return verify_identity(ident, *args, **kw)

        monkeypatch.setattr("elliptop.cli.verify_identity", counted)
        with pytest.raises(SystemExit) as exc:
            run(["identities", "--N", "5", "--M", m, "--ids", ids])
        assert exc.value.code == EXIT_USAGE
        assert message in capsys.readouterr().err
        assert calls == []

    @pytest.mark.parametrize("n, point", [("5", "0.08000000000000002j"),
                                          ("7", "0.08571428571428573j")])
    def test_guard_point_on_the_lattice_exits_2_before_any_work(
            self, monkeypatch, capsys, tmp_path, n, point):
        # w52's guard point omega_(0, 4) (N = 5) or omega_(0, 6) (N = 7) lies
        # within 0.02 of tau = 0.1i whatever the sample, so every draw was
        # rejected and the run once exited 1 after 500 redraws
        calls = []
        monkeypatch.setattr("elliptop.cli.verify_identity",
                            lambda ident, *args, **kw: calls.append(ident))
        out = tmp_path / "r.json"
        with pytest.raises(SystemExit) as exc:
            run(["identities", "--N", n, "--tau", "0+0.1i", "--out", str(out)])
        assert exc.value.code == EXIT_USAGE
        err = capsys.readouterr().err
        assert f"identity 'w52' has the sample-independent guard point {point}" in err
        assert calls == [] and not out.exists()

    def test_numerical_failure_names_the_identity(self, tmp_path, capsys):
        # this once printed only "theta overflowed ...": the first identity,
        # w16, sweeps z + N tw_ta, whose theta overflows at Im tau = 6
        out = tmp_path / "r.json"
        assert run(["identities", "--N", "3", "--M", "4", "--tau", "0+6i",
                    "--out", str(out)]) == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert err.startswith("elliptop: numerical failure: identity 'w16' at "
                              "N = 3, M = 4, tau = 0+6i: theta overflowed"), err
        assert err.count("\n") == 1 and not out.exists()

    def test_determinism_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        argv = ["identities", "--N", "2", "--samples", "4", "--seed", "7",
                "--ids", "e913,e922"]
        assert run(argv + ["--out", str(a)]) == EXIT_OK
        assert run(argv + ["--out", str(b)]) == EXIT_OK
        assert payload_bytes(load(a)) == payload_bytes(load(b))


@pytest.mark.parametrize("argv", [
    ["identities", "--N", "2"],
    ["lax-check", "--model", "nonrel-top", "--N", "2"],
], ids=lambda argv: argv[0])
def test_infinite_tau_exits_2(argv, capsys):
    # Im tau = 1e400 parses to inf: identities once exited 2 with "cannot
    # convert float NaN to integer", lax-check 1 with numpy warnings and a
    # ThetaOverflowError
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(SystemExit) as exc:
            run(argv + ["--tau", "0.3+1e400i"])
    assert exc.value.code == EXIT_USAGE
    err = capsys.readouterr().err
    assert "tau must be finite" in err
    assert "Warning" not in err and not caught


@pytest.mark.parametrize("argv", [
    ["identities", "--N", "2"],
    ["rmatrix", "--N", "2"],
    ["lax-check", "--model", "nonrel-top", "--N", "2"],
    ["evolve", "--model", "nonrel-top", "--N", "2"],
], ids=lambda argv: argv[0])
def test_tau_below_the_pole_guard_exits_2(argv, capsys):
    # Im tau = 1e-9 leaves no room for pole_guard = 1e-8: identities exited
    # 2 and the other commands 1, as a numerical failure
    with pytest.raises(SystemExit) as exc:
        run(argv + ["--tau", "0.3+1e-9i"])
    assert exc.value.code == EXIT_USAGE
    assert "pole_guard must be below" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["identities"],
    ["rmatrix"],
    ["lax-check", "--model", "coupled", "--K", "2"],
    ["evolve", "--model", "coupled", "--K", "2"],
], ids=lambda argv: argv[0])
def test_noncoprime_sizes_exit_2(argv, tmp_path, capsys):
    # one library check, check_coprime, serves every command
    if argv[0] == "evolve":
        argv = argv + ["--out-dir", str(tmp_path)]
    with pytest.raises(SystemExit) as exc:
        run(argv + ["--N", "2", "--M", "4"])
    assert exc.value.code == EXIT_USAGE
    assert "N = 2 and M = 4 must be coprime" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["lax-check", "evolve"])
@pytest.mark.parametrize("model", [
    ["nonrel-top"], ["rel-top"], ["matrix-top", "--M", "3"],
    ["gaudin-lattice", "--K", "2"], ["coupled", "--M", "3", "--K", "2"],
], ids=lambda m: m[0])
def test_n1_exits_2(command, model, tmp_path, capsys):
    # Z_1^2 has only the zero mode, so dL/dt = [L, M] = 0 exactly; the four
    # kinds other than coupled once exited 0 with nothing checked
    argv = [command, "--model", *model, "--N", "1"]
    if command == "evolve":
        argv += ["--out-dir", str(tmp_path / "run")]
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == EXIT_USAGE
    assert f"the {model[0]} model needs N >= 2" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("command", ["lax-check", "evolve"])
def test_coupled_eta_near_a_pole_of_its_own_lattice_exits_2(command, tmp_path, capsys):
    # eta/M + omega_A is 6.7e-9 from the lattice at A = (5, 0) of Z_6^2, while
    # eta + omega_a is 2e-8 from it at a = (1, 0) of Z_2^2: the check once
    # measured the second, passed, and the run exited 1 naming 'z'
    argv = [command, "--model", "coupled", "--N", "2", "--M", "3", "--K", "2",
            "--eta", "0.50000002"]
    if command == "evolve":
        argv += ["--out-dir", str(tmp_path / "run")]
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.split("error: ", 1)[1].startswith(
        "eta = (0.50000002+0j) puts the Lax coefficient")
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("command", ["lax-check", "evolve"])
@pytest.mark.parametrize("model", [["nonrel-top"], ["rel-top"]], ids=lambda m: m[0])
def test_eta_is_reported_where_it_is_read(command, model, tmp_path):
    # nonrel-top has no coupling; its params once named the --eta it ignored
    argv = [command, "--model", *model, "--N", "2", "--eta", "0.3+0.1i"]
    if command == "evolve":
        argv += ["--t-end", "0.01", "--out-dir", str(tmp_path / "run")]
        out = tmp_path / "run" / "summary.json"
    else:
        out = tmp_path / "r.json"
        argv += ["--out", str(out)]
    assert run(argv) == EXIT_OK
    params = load(out)["params"]
    if model[0] == "nonrel-top":
        assert "eta" not in params
    else:
        assert params["eta"] == format_complex(0.3 + 0.1j)


class TestLaxCheckCommand:
    def test_rel_top(self, tmp_path):
        out = tmp_path / "r.json"
        code = run(["lax-check", "--model", "rel-top", "--N", "3",
                    "--eta", "0.17+0.05i", "--seed", "1", "--out", str(out)])
        assert code == EXIT_OK
        rep = load(out)
        assert rep["results"][0]["max_rel_residual"] < 1e-9

    def test_negative_control_expected_fail(self, tmp_path):
        out = tmp_path / "r.json"
        code = run(["lax-check", "--model", "coupled", "--N", "2", "--M", "3",
                    "--K", "2", "--no-constraints", "--out", str(out)])
        assert code == EXIT_OK
        rep = load(out)
        assert rep["results"][0]["expected_fail"] is True
        assert rep["results"][0]["max_rel_residual"] > 1e-3

    def test_invalid_combination_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            run(["lax-check", "--model", "nonrel-top", "--N", "2",
                 "--no-constraints"])
        assert exc.value.code == EXIT_USAGE

    @pytest.mark.parametrize("model", [
        ["matrix-top", "--N", "3", "--M", "1"], ["gaudin-lattice", "--N", "2", "--K", "1"],
        ["coupled", "--N", "2", "--M", "3", "--K", "1"],
    ], ids=lambda m: m[0])
    def test_negative_control_with_1x1_blocks_exits_2(self, model, capsys):
        # with 1 x 1 blocks the unconstrained field still satisfies the Lax
        # equation (residual 0 to 1e-14), so the control once exited 1
        with pytest.raises(SystemExit) as exc:
            run(["lax-check", "--model", *model, "--no-constraints"])
        assert exc.value.code == EXIT_USAGE
        assert "--no-constraints needs blocks larger than 1 x 1" in capsys.readouterr().err

    @pytest.mark.parametrize("model, size", [
        (["nonrel-top", "--M", "3", "--K", "2"], "M = 3"),
        (["rel-top", "--M", "3"], "M = 3"), (["rel-top", "--K", "2"], "K = 2"),
        (["matrix-top", "--M", "3", "--K", "2"], "K = 2"),
        (["gaudin-lattice", "--M", "3", "--K", "2"], "M = 3"),
    ], ids=lambda m: "_".join(m) if isinstance(m, list) else None)
    def test_unread_size_exits_2(self, model, size, tmp_path, capsys):
        # nonrel-top --N 2 --M 3 --K 2 once exited 0 with a report naming
        # M = 3 and K = 2 for the N = 2 scalar top it had checked
        out = tmp_path / "r.json"
        with pytest.raises(SystemExit) as exc:
            run(["lax-check", "--model", model[0], "--N", "2", *model[1:],
                 "--out", str(out)])
        assert exc.value.code == EXIT_USAGE
        assert f"model '{model[0]}' reads no size {size[0]}: got {size}," in capsys.readouterr().err
        assert not out.exists()

    def test_zero_points_exits_2(self):
        # this once failed inside numpy with a zero-size reduction
        with pytest.raises(SystemExit) as exc:
            run(["lax-check", "--model", "nonrel-top", "--N", "2", "--points", "0"])
        assert exc.value.code == EXIT_USAGE

    def test_coupled_n1_exits_2(self):
        # Z_1^2 has no non-zero modes: a usage error, not a numpy failure
        with pytest.raises(SystemExit) as exc:
            run(["lax-check", "--model", "coupled", "--N", "1", "--M", "3",
                 "--K", "2"])
        assert exc.value.code == EXIT_USAGE

    @pytest.mark.parametrize("model", [
        ["rel-top"], ["matrix-top", "--M", "2"], ["gaudin-lattice", "--K", "2"],
        ["coupled", "--M", "3", "--K", "2"],
    ], ids=lambda m: m[0])
    def test_eta_on_the_lattice_exits_2(self, model, capsys):
        # these once exited 1, and rel-top named the argument 'z'
        with pytest.raises(SystemExit) as exc:
            run(["lax-check", "--model", *model, "--N", "2", "--eta", "0"])
        assert exc.value.code == EXIT_USAGE
        err = capsys.readouterr().err
        assert "eta = 0j" in err and "'z'" not in err

    @pytest.mark.parametrize("model", [["rel-top"], ["coupled", "--M", "3", "--K", "2"]],
                             ids=lambda m: m[0])
    def test_infinite_eta_exits_2(self, model, capsys):
        # 1e400 parses to inf; this once exited 1 with numpy RuntimeWarnings
        # and a ThetaOverflowError
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(SystemExit) as exc:
                run(["lax-check", "--model", *model, "--N", "2", "--eta", "1e400"])
        assert exc.value.code == EXIT_USAGE
        err = capsys.readouterr().err
        assert "eta must be finite" in err
        assert "Warning" not in err and not caught

    def test_elliptic_failure_exits_1(self, capsys):
        # Im(tau) = 0.001: the theta series cannot converge within its cap
        code = run(["lax-check", "--model", "rel-top", "--N", "2",
                    "--eta", "0.17+0.05i", "--tau", "0.1+0.001i"])
        assert code == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert err.startswith("elliptop: numerical failure: ")
        assert "Traceback" not in err


# the eight tau of the lax-check scan, from near-trigonometric (Im tau 4.5)
# down to Im tau 0.15
SCAN_TAUS = ("0.3+1.1i", "0.5+2i", "0.2+0.35i", "0.1+0.2i", "0.4+3i", "-0.45+0.9i",
             "0+0.15i", "0.5+4.5i")


@pytest.mark.parametrize("tau", SCAN_TAUS)
@pytest.mark.parametrize("model", [
    ["coupled", "--N", "2", "--M", "3", "--K", "2"],
    ["coupled", "--N", "3", "--M", "2", "--K", "2"],
    ["gaudin-lattice", "--N", "3", "--K", "2"],
], ids=lambda m: "-".join(m[0::2]))
def test_lax_check_tau_sweep(model, tau, tmp_path):
    # the constrained runs pass and the unconstrained controls fail clearly
    # over the whole tau range, not only at the default tau
    out = tmp_path / "r.json"
    for seed in (0, 1):
        argv = ["lax-check", "--model", *model, f"--tau={tau}", "--seed", str(seed),
                "--out", str(out)]
        assert run(argv) == EXIT_OK, (seed, "constrained")
        assert run(argv + ["--no-constraints"]) == EXIT_OK, (seed, "control")
        assert load(out)["results"][0]["max_rel_residual"] > 1e-3


class TestEvolveCommand:
    def test_outputs_and_summary(self, tmp_path):
        outdir = tmp_path / "run"
        code = run(["evolve", "--model", "rel-top", "--N", "2", "--dt", "1e-3",
                    "--t-end", "0.2", "--out-dir", str(outdir), "--seed", "3"])
        assert code == EXIT_OK
        assert (outdir / "trajectory.csv").exists()
        assert (outdir / "monitor_0.csv").exists()
        rep = load(outdir / "summary.json")
        drift = {r["check"]: r["max_abs_residual"] for r in rep["results"]}
        assert drift["eigenvalue-drift"] < 1e-8
        assert drift["constraint-drift"] == 0.0

    def test_z2_reduction_run(self, tmp_path):
        outdir = tmp_path / "run"
        code = run(["evolve", "--model", "nonrel-top", "--N", "3",
                    "--reduction", "z2-nonrel", "--dt", "1e-3",
                    "--t-end", "0.2", "--out-dir", str(outdir)])
        assert code == EXIT_OK
        rep = load(outdir / "summary.json")
        drift = {r["check"]: r["max_abs_residual"] for r in rep["results"]}
        assert drift["constraint-drift"] < 1e-8


    @pytest.mark.parametrize("argv", [
        ["--model", "rel-top", "--N", "2", "--reduction", "gaudin-constraints"],
        ["--model", "matrix-top", "--N", "2", "--M", "3",
         "--reduction", "gaudin-constraints"],
        ["--model", "gaudin-lattice", "--N", "3", "--K", "2", "--reduction", "z2-nonrel"],
        ["--model", "rel-top", "--N", "3", "--reduction", "z2-nonrel"],
    ], ids=" ".join)
    def test_reduction_of_another_model_exits_2(self, argv, tmp_path, capsys):
        # these once ran: the first two exited 0 with a projection that never
        # ran or ran under the Gaudin name, the last two exited 1 on drift
        outdir = tmp_path / "run"
        with pytest.raises(SystemExit) as exc:
            run(["evolve", *argv, "--out-dir", str(outdir)])
        assert exc.value.code == EXIT_USAGE
        assert "belongs to model kind" in capsys.readouterr().err
        assert not outdir.exists()

    @pytest.mark.parametrize("dt", ["0.3", "0.4"])
    def test_t_end_off_the_step_grid_exits_2(self, dt, tmp_path, capsys):
        # these once exited 0, stopping at t = 0.9 and 0.8 while the summary
        # said t_end = 1
        outdir = tmp_path / "run"
        with pytest.raises(SystemExit) as exc:
            run(["evolve", "--model", "nonrel-top", "--N", "2", "--dt", dt,
                 "--t-end", "1.0", "--out-dir", str(outdir)])
        assert exc.value.code == EXIT_USAGE
        assert "whole number of steps" in capsys.readouterr().err
        assert not outdir.exists()

    def test_first_state_is_the_drawn_field(self, tmp_path):
        # the drawn field is the one projection of a run: it was once
        # projected a second time, which moved it by 2.5e-16
        outdir = tmp_path / "run"
        code = run(["evolve", "--model", "coupled", "--N", "2", "--M", "3", "--K", "2",
                    "--seed", "5", "--t-end", "1e-3", "--out-dir", str(outdir)])
        assert code == EXIT_OK
        model = make_model("coupled", 2, EllipticParams(0.3 + 1.1j), eta=0.17 + 0.05j,
                           m=3, k=2)
        with open(outdir / "trajectory.csv") as fh:
            first = [float(x) for x in fh.readlines()[1].split(",")[1:]]
        want = model.random_field(5, scale=0.25).reshape(-1)
        assert np.array(first[0::2]).tobytes() == want.real.tobytes()
        assert np.array(first[1::2]).tobytes() == want.imag.tobytes()

    def test_non_finite_initial_field_exits_2(self, tmp_path, capsys):
        # this once exited 2 with numpy's "Array must not contain infs or
        # NaNs" from the first snapshot's eigenvalues, and then with an
        # overflow RuntimeWarning and a message that did not name the amplitude
        for kind in ("nonrel-top", "rel-top"):
            outdir = tmp_path / kind
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                with pytest.raises(SystemExit) as exc:
                    run(["evolve", "--model", kind, "--N", "2", "--eta", "0.17+0.05i",
                         "--amplitude", "1.7e308", "--out-dir", str(outdir)])
            assert exc.value.code == EXIT_USAGE
            assert not caught
            err = capsys.readouterr().err
            named = [line for line in err.splitlines() if "1.7e+308" in line]
            assert len(named) == 1 and "amplitude" in named[0]
            assert "initial field would have non-finite entries" in named[0]
            assert "Warning" not in err
            assert not outdir.exists()

    @pytest.mark.parametrize("seed", ["3", "8"])
    def test_coupled_gauge_keeps_norm_bounded(self, tmp_path, seed):
        # with [C, A] in the eom these seeds grew the field norm 3.1 -> 3e5
        # and 4.9e5 by t = 1 and failed the trace and constraint gates
        outdir = tmp_path / "run"
        code = run(["evolve", "--model", "coupled", "--N", "2", "--M", "3",
                    "--K", "2", "--seed", seed, "--out-dir", str(outdir)])
        assert code == EXIT_OK
        rep = load(outdir / "summary.json")
        assert all(r["pass"] for r in rep["results"])
        assert rep["params"]["t_end"] == 1.0
        snaps = np.loadtxt(outdir / "trajectory.csv", delimiter=",", skiprows=1)
        norms = np.linalg.norm(snaps[:, 1:], axis=1)
        assert snaps[-1, 0] == 1.0
        assert norms.max() <= 10 * norms[0]


class TestRmatrixCommand:
    def test_belavin_checks(self, tmp_path):
        out = tmp_path / "r.json"
        code = run(["rmatrix", "--N", "2", "--checks",
                    "aybe,unitarity,fourier-swap", "--out", str(out)])
        assert code == EXIT_OK

    def test_symmetric_checks(self, tmp_path):
        out = tmp_path / "r.json"
        code = run(["rmatrix", "--N", "2", "--M", "3", "--checks",
                    "sym-unitarity,sym-aybe,sublattice", "--out", str(out)])
        assert code == EXIT_OK

    @pytest.mark.parametrize("n,m", [(2, 5), (5, 2)])
    def test_aybe_checks_at_size_1000(self, tmp_path, n, m):
        # d = (NM)^3 = 1000: the leg contraction costs d^2 NM where the dense
        # product of embedded operators cost d^3 (about 1 s for the two
        # checks together, against 0.06-0.08 s for the whole command with the
        # residual reduced by row blocks, on 2 vCPUs; the bound is coarse)
        out = tmp_path / "r.json"
        start = time.perf_counter()
        code = run(["rmatrix", "--N", str(n), "--M", str(m), "--checks",
                    "sym-aybe,rational-aybe", "--out", str(out)])
        assert time.perf_counter() - start < 0.5
        assert code == EXIT_OK
        assert [r["check"] for r in load(out)["results"]] == ["sym-aybe", "rational-aybe"]

    def test_n1_trivial(self, tmp_path):
        out = tmp_path / "r.json"
        assert run(["rmatrix", "--N", "1", "--out", str(out)]) == EXIT_OK
        rep = load(out)
        assert all(r["pass"] for r in rep["results"])

    def test_unknown_check_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            run(["rmatrix", "--N", "2", "--checks", "qybe"])
        assert exc.value.code == EXIT_USAGE

    @pytest.mark.parametrize("checks", [",", " , ,", ""])
    def test_empty_check_list_exits_2(self, checks, capsys):
        # a list that names nothing once exited 0 with "results": []
        with pytest.raises(SystemExit) as exc:
            run(["rmatrix", "--N", "2", "--checks", checks])
        assert exc.value.code == EXIT_USAGE
        assert "--checks names nothing" in capsys.readouterr().err


class TestClassicalLimitCommand:
    # each (N, tau, seed) exited 1 under the fixed fit window k = 3..10 of an
    # h = 2^-k sweep: at large Im tau an h^3 term led the window, at small
    # Im tau h = 2^-3 was not yet asymptotic
    @pytest.mark.parametrize("n, tau, seed", [
        *[(2, "0.5+2i", s) for s in range(4)],
        *[(2, "0.4+3i", s) for s in range(5)],
        *[(2, "0.5+4.5i", s) for s in range(5)],
        (2, "0.1+0.2i", 1),
        *[(3, "0+0.15i", s) for s in range(5)],
    ])
    def test_formerly_failing_runs_pass(self, n, tau, seed, tmp_path):
        out = tmp_path / "r.json"
        code = run(["rmatrix", "--N", str(n), "--tau", tau, "--seed", str(seed),
                    "--out", str(out)])
        assert code == EXIT_OK
        (entry,) = [r for r in load(out)["results"] if r["check"] == "classical-limit"]
        assert entry["tol"] == 1e-9 and entry["max_abs_residual"] < 1e-9
        assert "ratios" not in entry and "reason" not in entry
        assert 0 < entry["radius"] <= 0.3 / n and entry["tail"] < 1e-7

    def test_circle_inside_the_pole_guard_exits_1(self, tmp_path, monkeypatch, capsys):
        # at N = 7 the circle's radius 0.3 / 7 is below pole_guard = 0.05
        monkeypatch.setattr(cli, "EllipticParams",
                            lambda tau: EllipticParams(tau, pole_guard=0.05))
        out = tmp_path / "r.json"
        code = run(["rmatrix", "--N", "7", "--checks", "classical-limit",
                    "--out", str(out)])
        assert code == EXIT_NUMERICAL and not out.exists()
        assert "pole_guard = 5.0e-02" in capsys.readouterr().err


class TestParserBuiltOnce:
    """``build_parser`` is cached, so one parser serves every ``main`` call
    of a process; no run may leave anything in it for the next."""

    def test_one_parser_per_process(self):
        assert cli.build_parser() is cli.build_parser()

    @staticmethod
    def payload(argv, tmp_path):
        if argv[0] == "evolve":
            argv, path = argv + ["--out-dir", str(tmp_path / "ev")], tmp_path / "ev/summary.json"
        else:
            path = tmp_path / "r.json"
            argv = argv + ["--out", str(path)]
        return run(argv), payload_bytes(load(path))

    def test_reports_match_runs_alone(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = 4\npoints = 3\ntau = 0.5+2i\n")
        lax = ["lax-check", "--model", "gaudin-lattice", "--N", "3", "--K", "2"]
        coupled = ["lax-check", "--model", "coupled", "--N", "2", "--M", "3", "--K", "2"]
        pairs = [(lax + ["--no-constraints"], lax),
                 (coupled + ["--config", str(cfg)], coupled),
                 (["evolve", "--model", "rel-top", "--N", "2", "--t-end", "0.1"],
                  ["rmatrix", "--N", "2", "--seed", "3"])]
        for first, second in pairs:
            cli.build_parser.cache_clear()
            together = [self.payload(argv, tmp_path) for argv in (first, second)]
            alone = []
            for argv in (first, second):
                cli.build_parser.cache_clear()
                alone.append(self.payload(argv, tmp_path))
            assert together == alone, first
            assert all(code == EXIT_OK for code, _ in together), first


class TestConfigFile:
    @pytest.mark.parametrize("command,tol", [
        (["identities", "--N", "2"], 1e-8),
        (["lax-check", "--model", "nonrel-top", "--N", "2"], 1e-8),
        (["evolve", "--model", "nonrel-top", "--N", "2"], 1e-6),
        (["rmatrix", "--N", "2"], 1e-9),
    ], ids=lambda v: v[0] if isinstance(v, list) else None)
    def test_tol_default_and_config_override(self, tmp_path, command, tol):
        parser = cli.build_parser()
        assert parser.parse_args(command).tol == tol
        cfg = tmp_path / "run.cfg"
        cfg.write_text("tol = 3e-5\n")
        args = cli._apply_config(parser.parse_args(command + ["--config", str(cfg)]),
                                 parser, command + ["--config", str(cfg)])
        assert args.tol == 3e-5

    def test_config_supplies_defaults_flags_override(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("N = 3\nsamples = 4\nids = e9051\nseed = 5\n")
        out = tmp_path / "r.json"
        code = run(["identities", "--N", "2", "--config", str(cfg),
                    "--out", str(out)])
        assert code == EXIT_OK
        rep = load(out)
        # explicit flag wins over the config value
        assert rep["params"]["N"] == 2
        assert rep["params"]["samples"] == 4

    def test_indented_comments(self, tmp_path):
        # '  # note' once exited 2 as a malformed line, and an indented
        # '# tau = ...' was read as a flag
        command = ["rmatrix", "--N", "2"]
        cfg = tmp_path / "run.cfg"
        cfg.write_text("  # note\n\t# tau = 0.5+1i\nseed = 3\n")
        parser = cli.build_parser()
        args = cli._apply_config(parser.parse_args(command + ["--config", str(cfg)]),
                                 parser, command + ["--config", str(cfg)])
        assert args.tau == 0.3 + 1.1j and args.seed == 3

    def test_malformed_config_exits_2(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("this is not a key value pair\n")
        with pytest.raises(SystemExit) as exc:
            run(["identities", "--N", "2", "--config", str(cfg)])
        assert exc.value.code == EXIT_USAGE
