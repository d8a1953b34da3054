"""CLI contract: flags, exit codes, deterministic reports, config files."""
import json

import pytest

from elliptop.cli import (EXIT_NUMERICAL, EXIT_OK, EXIT_USAGE, format_complex,
                          main, parse_complex)


def run(args):
    return main(args)


def load(path):
    return json.loads(path.read_text())


def payload_bytes(report: dict) -> bytes:
    body = {k: v for k, v in report.items() if k != "meta"}
    return json.dumps(body, sort_keys=True).encode()


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

    def test_bad_tau_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            run(["identities", "--N", "2", "--tau", "0.3-1.1i"])
        assert exc.value.code == EXIT_USAGE

    def test_determinism_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        argv = ["identities", "--N", "2", "--samples", "4", "--seed", "7",
                "--ids", "e913,e922"]
        assert run(argv + ["--out", str(a)]) == EXIT_OK
        assert run(argv + ["--out", str(b)]) == EXIT_OK
        assert payload_bytes(load(a)) == payload_bytes(load(b))


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

    def test_nonrel_top(self, tmp_path):
        out = tmp_path / "r.json"
        assert run(["lax-check", "--model", "nonrel-top", "--N", "2",
                    "--out", str(out)]) == EXIT_OK

    def test_coupled_n1_exits_2(self):
        # Z_1^2 has no non-zero modes: a usage error, not a numpy failure
        with pytest.raises(SystemExit) as exc:
            run(["lax-check", "--model", "coupled", "--N", "1", "--M", "3",
                 "--K", "2"])
        assert exc.value.code == EXIT_USAGE

    def test_elliptic_failure_exits_1(self, capsys):
        # Im(tau) = 0.001: the theta series cannot converge within its cap
        code = run(["lax-check", "--model", "rel-top", "--N", "2",
                    "--eta", "0.17+0.05i", "--tau", "0.1+0.001i"])
        assert code == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert err.startswith("elliptop: numerical failure: ")
        assert "Traceback" not in err


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

    def test_n1_trivial(self, tmp_path):
        out = tmp_path / "r.json"
        assert run(["rmatrix", "--N", "1", "--out", str(out)]) == EXIT_OK
        rep = load(out)
        assert all(r["pass"] for r in rep["results"])

    def test_unknown_check_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            run(["rmatrix", "--N", "2", "--checks", "qybe"])
        assert exc.value.code == EXIT_USAGE


class TestThreadCap:
    def test_env_var_caps_workers(self, monkeypatch):
        from elliptop.parallel import max_workers, thread_map
        monkeypatch.setenv("ELLIPTOP_THREADS", "1")
        assert max_workers() == 1
        assert thread_map(lambda x: x * x, [1, 2, 3]) == [1, 4, 9]
        monkeypatch.setenv("ELLIPTOP_THREADS", "4")
        assert max_workers() == 4
        assert thread_map(lambda x: x + 1, range(8)) == list(range(1, 9))
        monkeypatch.setenv("ELLIPTOP_THREADS", "zebra")
        with pytest.raises(ValueError):
            max_workers()

    def test_results_independent_of_threads(self, monkeypatch, tmp_path):
        outs = []
        for threads in ("1", "4"):
            monkeypatch.setenv("ELLIPTOP_THREADS", threads)
            out = tmp_path / f"t{threads}.json"
            assert run(["identities", "--N", "2", "--samples", "6", "--seed", "3",
                        "--ids", "e913,w92", "--out", str(out)]) == EXIT_OK
            outs.append(payload_bytes(load(out)))
        assert outs[0] == outs[1]


class TestConfigFile:
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

    def test_malformed_config_exits_2(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("this is not a key value pair\n")
        with pytest.raises(SystemExit) as exc:
            run(["identities", "--N", "2", "--config", str(cfg)])
        assert exc.value.code == EXIT_USAGE
