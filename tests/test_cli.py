"""Exit codes, output files, determinism, and the validate suites."""

import hashlib
import json

import numpy as np
import pytest

from strongcouple import cli
from strongcouple.cli import _write_csv, main
from strongcouple.errors import NumericalError
from strongcouple.experiment import ExperimentConfig, run

QUICK = {"t_max": 2.0, "n_samples": 401}


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("run")
    cfg = write_json(tmp / "cfg.json", QUICK)
    out = tmp / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    return out


class TestRunCommand:
    def test_files_written(self, run_dir):
        names = {p.name for p in run_dir.iterdir()}
        assert {"thermo_system.csv", "thermo_environment.csv",
                "info_measures.csv", "diagnostics.csv", "manifest.json",
                "plot_thermo.py", "plot_info.py"} <= names

    def test_csv_shapes(self, run_dir):
        lines = (run_dir / "thermo_system.csv").read_text().splitlines()
        assert lines[0] == "t,W,Q,C,dU"
        assert len(lines) == 402
        info = (run_dir / "info_measures.csv").read_text().splitlines()
        assert info[0].startswith("t,entropy_system,")
        assert len(info) == 402

    def test_manifest_hashes(self, run_dir):
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["tool"] == "strongcouple"
        assert manifest["config"]["t_max"] == 2.0
        for name, meta in manifest["outputs"].items():
            blob = (run_dir / name).read_bytes()
            assert hashlib.sha256(blob).hexdigest() == meta["sha256"]

    def test_rerun_is_byte_identical(self, run_dir, tmp_path):
        cfg = write_json(tmp_path / "cfg.json", QUICK)
        out2 = tmp_path / "out2"
        assert main(["run", "--config", cfg, "--out", str(out2)]) == 0
        for name in ("thermo_system.csv", "thermo_environment.csv",
                     "info_measures.csv", "diagnostics.csv"):
            assert (run_dir / name).read_bytes() == (out2 / name).read_bytes()

    def test_plot_scripts_compile(self, run_dir):
        for name in ("plot_thermo.py", "plot_info.py"):
            compile((run_dir / name).read_text(), name, "exec")


def _reference_fmt(value) -> str:
    """Per-value CSV formatting, the rule the table writer must keep."""
    if isinstance(value, str):
        return value.replace(",", ";")
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".12g")


class TestCsvWriter:
    def test_bytes_match_per_value_formatting(self, tmp_path):
        edges = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, -5e-324,
                 2.2250738585072014e-308, 1e16, -1e16, 1e16 + 2.0,
                 0.1, 1.0 / 3.0, 123456789012.5, 1e-300, 1.7976931348623157e308]
        bits = np.random.default_rng(3).integers(
            0, 2 ** 63, size=700 - len(edges), dtype=np.int64)
        floats = np.concatenate([edges, bits.view(np.float64)])
        ints = np.arange(-350, 350, dtype=np.int64) * 10 ** 15
        small = list(range(700))
        text = [f"row {i}, part {i % 3},," if i % 2 else "" for i in range(700)]
        columns = (floats, ints, small, text)
        header = ("x", "n", "k", "error")
        meta = _write_csv(tmp_path / "t.csv", header, columns)
        expected = ",".join(header) + "\n" + "".join(
            ",".join(_reference_fmt(v) for v in row) + "\n"
            for row in zip(*columns))
        blob = (tmp_path / "t.csv").read_bytes()
        assert blob == expected.encode()
        assert meta == {"rows": 700,
                        "sha256": hashlib.sha256(blob).hexdigest()}

    def test_empty_table_writes_header(self, tmp_path):
        meta = _write_csv(tmp_path / "e.csv", ("a", "b"), ([], []))
        assert (tmp_path / "e.csv").read_text() == "a,b\n"
        assert meta["rows"] == 0


class TestRunErrors:
    def test_unknown_key(self, tmp_path):
        cfg = write_json(tmp_path / "cfg.json", {"alpha": 0.5, "spin": 2})
        assert main(["run", "--config", cfg,
                     "--out", str(tmp_path / "o")]) == 2

    def test_unknown_integrator_key(self, tmp_path, capsys):
        # the integrator block is gone: any content fails on its name
        cfg = write_json(tmp_path / "cfg.json",
                         {"integrator": {"closure_tolerance": 1e-4}})
        assert main(["run", "--config", cfg,
                     "--out", str(tmp_path / "o")]) == 2
        assert "unknown config field 'integrator'" in capsys.readouterr().err

    def test_bad_json(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{not json")
        assert main(["run", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 2
        # no UTF-8 text, and nesting too deep for the parser: named, no
        # traceback
        for blob in (b"\xff\xfe{}", b"[" * 200000):
            cfg.write_bytes(blob)
            capsys.readouterr()
            assert main(["run", "--config", str(cfg),
                         "--out", str(tmp_path / "o")]) == 2
            err = capsys.readouterr().err
            assert str(cfg) in err
            assert "Traceback" not in err

    @pytest.mark.parametrize("blob", [b"{not json", b"\xff\xfe{}",
                                      b"[" * 200000],
                             ids=["not_json", "not_utf8", "too_deep"])
    def test_bad_sweep_grid_file(self, tmp_path, capsys, blob):
        grid = tmp_path / "grid.json"
        grid.write_bytes(blob)
        assert main(["sweep", "--grid", str(grid),
                     "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert str(grid) in err
        assert "Traceback" not in err

    def test_missing_file(self, tmp_path):
        assert main(["run", "--config", str(tmp_path / "absent.json"),
                     "--out", str(tmp_path / "o")]) == 2

    def test_wrong_type(self, tmp_path):
        cfg = write_json(tmp_path / "cfg.json", {"alpha": "big"})
        assert main(["run", "--config", cfg,
                     "--out", str(tmp_path / "o")]) == 2

    def test_removed_endpoint_subdivision_rejected(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "cfg.json",
                         {"integrator": {"endpoint_subdivision": 32}})
        assert main(["run", "--config", cfg,
                     "--out", str(tmp_path / "o")]) == 2
        assert "unknown config field 'integrator'" in capsys.readouterr().err

    @pytest.mark.parametrize("field", ["t_max", "gamma"])
    def test_non_finite_field_named(self, tmp_path, capsys, field):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(f'{{"{field}": Infinity}}')
        assert main(["run", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 2
        assert field in capsys.readouterr().err

    def test_closure_violation(self, tmp_path, capsys, broken_system_bloch):
        cfg = write_json(tmp_path / "cfg.json", {"n_samples": 101})
        assert main(["run", "--config", cfg,
                     "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert "first-law closure residual" in err
        assert "refine the time grid" not in err


class TestUnusableOutputPath:
    """An --out path that cannot be a directory is bad input, exit 2."""

    @pytest.mark.parametrize("under", [False, True],
                             ids=["existing_file", "under_a_file"])
    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_named_without_traceback(self, tmp_path, capsys, command,
                                     under):
        blocker = tmp_path / "taken"
        blocker.write_text("not a directory")
        out = blocker / "out" if under else blocker
        args = [command, "--out", str(out)]
        if command == "sweep":
            args += ["--grid", write_json(tmp_path / "grid.json",
                                          {"t_max": 2.0, "n_samples": 11})]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert f"cannot create output directory {out}" in err
        assert "Traceback" not in err
        assert blocker.read_text() == "not a directory"

    @pytest.mark.parametrize("command, name", [("run", "manifest.json"),
                                               ("sweep", "summary.csv")])
    def test_unwritable_output_file(self, tmp_path, capsys, command, name):
        # a directory where the command writes one of its files
        out = tmp_path / "out"
        (out / name).mkdir(parents=True)
        args = [command, "--out", str(out)]
        if command == "sweep":
            args += ["--grid", write_json(tmp_path / "grid.json",
                                          {"t_max": 2.0, "n_samples": 11})]
        else:
            args += ["--config", write_json(tmp_path / "cfg.json", QUICK)]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert f"cannot write output file {out / name}" in err
        assert "Traceback" not in err


class TestSweepCommand:
    def test_grid_run(self, tmp_path):
        grid = write_json(tmp_path / "grid.json",
                          {"alpha": [0.0, 1.0], "t_max": 2.0,
                           "n_samples": 401})
        out = tmp_path / "sw"
        assert main(["sweep", "--grid", grid, "--out", str(out)]) == 0
        lines = (out / "summary.csv").read_text().splitlines()
        assert len(lines) == 3
        assert lines[0].startswith("alpha,beta,gamma,")
        assert (out / "manifest.json").exists()

    def test_gamma_t_max_scaling(self, tmp_path, capsys):
        grid = write_json(tmp_path / "grid.json",
                          {"gamma": [1.0, 2.0], "gamma_t_max": 2.0,
                           "n_samples": 401})
        out = tmp_path / "sw"
        assert main(["sweep", "--grid", grid, "--out", str(out)]) == 0
        rows = (out / "summary.csv").read_text().splitlines()[1:]
        t_maxes = [float(r.split(",")[3]) for r in rows]
        assert t_maxes == [2.0, 1.0]
        # on a shared dimensionless horizon the curves must collapse
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["scaled_horizon_collapse"] is True
        assert manifest["scaled_horizon_spread"] <= 1e-9
        assert "collapse across gamma" in capsys.readouterr().out

    def test_all_runs_failing_exits_nonzero(self, tmp_path,
                                            broken_system_bloch):
        # a wrong Bloch line fails the closure gate of every run
        grid = write_json(tmp_path / "grid.json",
                          {"alpha": [0.3, 0.7], "n_samples": 101})
        out = tmp_path / "sw"
        assert main(["sweep", "--grid", grid, "--out", str(out)]) == 3
        lines = (out / "summary.csv").read_text().splitlines()
        assert len(lines) == 3

    def test_partial_failure_still_succeeds(self, tmp_path,
                                            break_system_bloch_when):
        # both rows share a grid, so they run as one block
        grid = write_json(tmp_path / "grid.json",
                          {"alpha": [0.5], "gamma": [1.0, 40.0],
                           "t_max": 2.0, "n_samples": 401})
        clean = tmp_path / "clean"
        assert main(["sweep", "--grid", grid, "--out", str(clean)]) == 0
        out = tmp_path / "sw"
        # a wrong Bloch line on the gamma = 40 row fails its closure gate
        break_system_bloch_when(lambda params: params.gamma_rate == 40.0)
        assert main(["sweep", "--grid", grid, "--out", str(out)]) == 0
        rows = (out / "summary.csv").read_text().splitlines()[1:]
        assert len(rows) == 2
        # the passing row is the clean sweep's, field for field
        assert rows[0] == (clean / "summary.csv").read_text().splitlines()[1]
        # the failing row holds the message its run raises alone
        with pytest.raises(NumericalError, match="closure") as failure:
            run(ExperimentConfig(alpha=0.5, gamma=40.0, t_max=2.0,
                                 n_samples=401))
        assert rows[1].split(",")[-1] == str(failure.value).replace(",", ";")

    def test_conflicting_horizons(self, tmp_path):
        grid = write_json(tmp_path / "grid.json",
                          {"t_max": 1.0, "gamma_t_max": 1.0})
        assert main(["sweep", "--grid", grid,
                     "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("grid, field", [
        ({"gamma": [0.0, 1.0], "gamma_t_max": 5}, "gamma"),
        ({"gamma": [1.0, -2.0], "gamma_t_max": 5}, "gamma"),
        ({"gamma": "inf", "gamma_t_max": 5}, "gamma"),
        ({"gamma_t_max": 0}, "gamma_t_max"),
        ({"gamma_t_max": -1}, "gamma_t_max"),
        ({"gamma_t_max": "inf"}, "gamma_t_max"),
    ], ids=["gamma_zero", "gamma_negative", "gamma_inf", "horizon_zero",
            "horizon_negative", "horizon_inf"])
    def test_bad_scaled_horizon_named(self, tmp_path, capsys, grid, field):
        # checked before the horizon is divided by each gamma
        path = write_json(tmp_path / "grid.json", grid)
        assert main(["sweep", "--grid", path,
                     "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert f"error: {field} must be positive and finite" in err

    @pytest.mark.parametrize("grid", [
        {"gamma": [1e-320], "gamma_t_max": 5},
        {"gamma": [1.0, 1e300], "gamma_t_max": 1e-300},
    ], ids=["overflow", "underflow"])
    def test_scaled_horizon_out_of_range_named(self, tmp_path, capsys, grid):
        # each factor is valid, their quotient is not; the grid has no
        # t_max field to blame
        path = write_json(tmp_path / "grid.json", grid)
        assert main(["sweep", "--grid", path,
                     "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "gamma and gamma_t_max are too far apart" in err
        assert "t_max must" not in err

    @pytest.mark.parametrize("command, data", [
        ("sweep --grid", {"gamma": [10 ** 400]}),
        ("sweep --grid", {"beta": 10 ** 400}),
        ("sweep --grid", {"gamma_t_max": 10 ** 400}),
        ("run --config", {"t_max": 10 ** 400}),
    ], ids=["gamma", "beta", "gamma_t_max", "config"])
    def test_integer_beyond_float_range_named(self, tmp_path, capsys,
                                              command, data):
        # JSON integers have no size limit; one that has no float is bad
        # input that names its field, not an OverflowError traceback, and
        # grid and config files name it with one converter
        path = write_json(tmp_path / "input.json", data)
        assert main([*command.split(), path,
                     "--out", str(tmp_path / "o")]) == 2
        field = next(iter(data))
        assert (f"error: field '{field}' must be a real number in the "
                "float range" in capsys.readouterr().err)

    def test_unknown_grid_key(self, tmp_path):
        grid = write_json(tmp_path / "grid.json", {"p": [0.1]})
        assert main(["sweep", "--grid", grid,
                     "--out", str(tmp_path / "o")]) == 2

    def test_empty_axis(self, tmp_path):
        grid = write_json(tmp_path / "grid.json", {"alpha": []})
        assert main(["sweep", "--grid", grid,
                     "--out", str(tmp_path / "o")]) == 2


@pytest.fixture(scope="module")
def default_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("default") / "out"
    assert main(["run", "--out", str(out)]) == 0
    return out


class TestDefaultRun:
    def test_default_grid_size(self, default_dir):
        lines = (default_dir / "thermo_system.csv").read_text().splitlines()
        assert len(lines) == 2002

    def test_late_time_disentangled(self, default_dir):
        rows = (default_dir / "info_measures.csv").read_text().splitlines()
        header = rows[0].split(",")
        last = dict(zip(header, (float(v) for v in rows[-1].split(","))))
        assert last["heat_asymmetry"] < 1e-3
        assert last["negativity"] < 1e-3


class TestValidateCommand:
    def test_default_suites_pass(self, capsys):
        assert main(["validate"]) == 0
        out = capsys.readouterr().out
        assert "[FAIL]" not in out
        assert out.count("[PASS]") == 10

    def test_strict_suites_pass(self, capsys):
        assert main(["validate", "--strict"]) == 0
        out = capsys.readouterr().out
        assert out.count("[PASS]") == 13


class TestParser:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "strongcouple" in capsys.readouterr().out

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_parser_built_once(self, tmp_path, capsys):
        # one parser serves every call of a process; a failed parse leaves
        # it as it was, so the calls after it behave as in a new process
        assert cli._build_parser() is cli._build_parser()
        cfg = write_json(tmp_path / "cfg.json", QUICK)

        def run_files(name):
            out = tmp_path / name
            assert main(["run", "--config", cfg, "--out", str(out)]) == 0
            outputs = json.loads((out / "manifest.json").read_text())[
                "outputs"]
            return outputs, {p.name: p.read_bytes() for p in out.iterdir()
                             if p.name != "manifest.json"}

        first = run_files("first")
        with pytest.raises(SystemExit) as exc:
            main(["run", "--no-such-flag", "--out", str(tmp_path / "bad")])
        assert exc.value.code == 2
        assert "unrecognized arguments: --no-such-flag" \
            in capsys.readouterr().err
        assert not (tmp_path / "bad").exists()
        grid = write_json(tmp_path / "grid.json",
                          {"alpha": [0.0, 1.0], **QUICK})
        out = tmp_path / "sw"
        assert main(["sweep", "--grid", grid, "--out", str(out)]) == 0
        assert len((out / "summary.csv").read_text().splitlines()) == 3
        again = run_files("again")
        assert len(again[1]) == 6
        assert again == first
