"""Exit codes, output files, determinism, and the validate suites."""

import errno
import hashlib
import json
import os
import runpy
import sys
import types
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from conftest import _peak

from strongcouple import __version__, cli, validation
from strongcouple.cli import _CSV_BLOCK, _csv_column, _csv_table, main
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

    def test_plot_scripts_run(self, run_dir, monkeypatch):
        # matplotlib is optional, so a stub stands in for it: each script
        # must read its CSVs, plot every series at full length and save
        # its figure next to itself
        for name, figure in (("plot_thermo.py", "thermo.png"),
                             ("plot_info.py", "info.png")):
            fig, axes = mock.MagicMock(), [mock.MagicMock() for _ in range(2)]
            pyplot = types.ModuleType("matplotlib.pyplot")
            pyplot.subplots = mock.MagicMock(return_value=(fig, axes))
            matplotlib = types.ModuleType("matplotlib")
            matplotlib.pyplot = pyplot
            monkeypatch.setitem(sys.modules, "matplotlib", matplotlib)
            monkeypatch.setitem(sys.modules, "matplotlib.pyplot", pyplot)
            runpy.run_path(str(run_dir / name))
            fig.savefig.assert_called_once()
            saved = fig.savefig.call_args.args[0]
            assert saved == run_dir.resolve() / figure
            series = [a for ax in axes for c in ax.plot.call_args_list
                      for a in c.args[:2]]
            assert series and all(len(s) == QUICK["n_samples"]
                                  for s in series)

    def test_output_memory_does_not_grow_with_the_grid(self, tmp_path):
        # the tables stream to their files a block at a time: at 20001
        # points the command's traced peak stays within 1 MiB of the
        # library run's, where whole tables took about 5.3 MB more
        config = {"n_samples": 20001}
        args = ["run", "--config", write_json(tmp_path / "cfg.json", config),
                "--out", str(tmp_path / "out")]
        command = _peak(lambda: main(args))
        library = _peak(lambda: run(cli.config_from_dict(config)))
        assert command - library < 2 ** 20


def _reference_fmt(value) -> str:
    """Per-value CSV formatting, the rule the table writer must keep."""
    if isinstance(value, bytes):
        return value.decode()
    if isinstance(value, str):
        return value.replace(",", ";")
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".12g")


def _reference_table(header, columns) -> bytes:
    return (",".join(header) + "\n" + "".join(
        ",".join(_reference_fmt(v) for v in row) + "\n"
        for row in zip(*columns))).encode()


CONSTANT_COLUMNS = {
    "zero": np.zeros(5),
    "negative_zero": np.full(5, -0.0),
    "nan": np.full(5, np.nan),
    "inf": np.full(5, np.inf),
    "int": np.full(5, -7, dtype=np.int64),
    "bool": np.ones(5, dtype=bool),
}


def _streamed(header, columns) -> tuple:
    """The chunks of ``_csv_table`` joined, and the record it set.

    The table must yield its header and then one chunk per block, set
    its record only once exhausted, and record the row count of the
    columns as given and the sha256 of exactly the bytes it yielded.
    """
    record = {}
    chunks = []
    for chunk in _csv_table(header, columns, record):
        assert record == {}
        chunks.append(chunk)
    blob = b"".join(chunks)
    rows = len(columns[0])
    assert len(chunks) == 1 + -(-rows // _CSV_BLOCK)
    assert chunks[0] == ",".join(header).encode() + b"\n"
    assert record == {"rows": rows,
                      "sha256": hashlib.sha256(blob).hexdigest()}
    return blob, record


class TestCsvWriter:
    def test_bytes_match_per_value_formatting(self):
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
        blob, record = _streamed(header, columns)
        assert blob == _reference_table(header, columns)
        assert record["rows"] == 700

    @pytest.mark.parametrize("name", sorted(CONSTANT_COLUMNS))
    def test_constant_column_matches_per_value_formatting(self, name):
        column = CONSTANT_COLUMNS[name]
        if name != "nan":  # a NaN column may take either path
            assert _csv_column(column)[1] is None
        columns = (np.linspace(0.0, 1.0, 5), column, np.arange(5))
        blob, record = _streamed(("t", name, "k"), columns)
        assert blob == _reference_table(("t", name, "k"), columns)
        assert record["rows"] == 5

    def test_signed_zeros_not_merged(self):
        zeros = np.array([0.0, -0.0, 0.0, -0.0, -0.0])
        assert _csv_column(zeros)[1] is not None
        blob, _ = _streamed(("z",), (zeros,))
        assert blob == _reference_table(("z",), (zeros,))
        assert blob == b"z\n0\n-0\n0\n-0\n-0\n"

    def test_all_constant_table_writes_every_row(self):
        columns = (np.zeros(3), np.full(3, 2, dtype=np.int64),
                   np.full(3, -0.0))
        blob, record = _streamed(("a", "b", "c"), columns)
        assert blob == _reference_table(("a", "b", "c"), columns)
        assert blob == b"a,b,c\n0,2,-0\n0,2,-0\n0,2,-0\n"
        assert record["rows"] == 3

    def test_formatted_bytes_column_passes_through(self):
        times = np.array([b"0", b"0.5", b"1e-05", b"inf"])
        columns = (times, np.array([1.5, -0.0, np.nan, 2.0]))
        blob, _ = _streamed(("t", "x"), columns)
        assert blob == _reference_table(("t", "x"), columns)
        assert blob == b"t,x\n0,1.5\n0.5,-0\n1e-05,nan\ninf,2\n"

    @pytest.mark.parametrize("count", [_CSV_BLOCK - 1, _CSV_BLOCK,
                                       _CSV_BLOCK + 1, 2 * _CSV_BLOCK + 1])
    def test_block_edges_match_per_value_formatting(self, count):
        floats = np.random.default_rng(count).standard_normal(count)
        times = np.array([b"%d" % i for i in range(count)])
        columns = (times, floats, np.zeros(count), np.arange(count))
        header = ("t", "x", "w", "k")
        blob, record = _streamed(header, columns)
        assert blob == _reference_table(header, columns)
        assert record["rows"] == count
        assert blob.count(b"\n") == count + 1

    def test_empty_table_writes_header(self):
        blob, record = _streamed(("a", "b"), ([], []))
        assert blob == _reference_table(("a", "b"), ([], []))
        assert blob == b"a,b\n"
        assert record["rows"] == 0


class TestRunTables:
    """Every table of ``run`` matches the per-value reference applied to
    the run's own series, also where columns are constant or the grid
    crosses a block edge."""

    @pytest.mark.parametrize("config", [
        {"alpha": 0, "beta": "inf", "n_samples": 3},
        {"alpha": 1},
        {"n_samples": 257},
    ])
    def test_tables_match_per_value_formatting(self, tmp_path, config):
        out = tmp_path / "out"
        assert main(["run", "--config", write_json(tmp_path / "c.json",
                                                   config),
                     "--out", str(out)]) == 0
        result = run(cli.config_from_dict(config))
        info = result.info
        metrics = sorted(result.diagnostics)
        tables = {
            "info_measures.csv": (
                ("t", "entropy_system", "entropy_environment",
                 "coherence_system", "coherence_environment", "negativity",
                 "mutual_information", "heat_asymmetry"),
                (info.times, info.entropy_s, info.entropy_e,
                 info.coherence_s, info.coherence_e, info.negativity,
                 info.mutual_information, info.heat_asymmetry)),
            "diagnostics.csv": (
                ("metric", "value"),
                (metrics, [result.diagnostics[m] for m in metrics])),
        }
        for name, traj in (("thermo_system.csv", result.thermo_s),
                           ("thermo_environment.csv", result.thermo_e)):
            tables[name] = (("t", "W", "Q", "C", "dU"),
                            (traj.times, traj.work, traj.heat,
                             traj.coherent_energy,
                             traj.internal_energy_change))
        for name, (header, columns) in tables.items():
            assert (out / name).read_bytes() == \
                _reference_table(header, columns), name


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

    @pytest.mark.parametrize("command, data", [
        ("run --config", {"t_max": 5e-324, "n_samples": 3}),
        ("sweep --grid", {"alpha": [0.5, 1.0], "t_max": 5e-324,
                          "n_samples": 3}),
    ], ids=["run", "sweep"])
    def test_grid_that_cannot_rise_named(self, tmp_path, capsys, command,
                                         data):
        # the grid [0, 0, 5e-324] does not rise: the configuration is
        # refused where it is built, before any row runs or file is
        # written
        path = write_json(tmp_path / "input.json", data)
        out = tmp_path / "o"
        assert main([*command.split(), path, "--out", str(out)]) == 2
        assert ("error: t_max must be positive and finite with a rising "
                "grid of 3 points, got 5e-324") in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, data", [
        ("run --config", {"n_samples": 10**11}),
        ("sweep --grid", {"alpha": [0.5, 1.0], "n_samples": 10**11}),
    ], ids=["run", "sweep"])
    def test_grid_too_large_to_allocate_named(self, tmp_path, capsys,
                                              command, data):
        # numpy refuses the 745 GiB grid before it allocates any of it;
        # the command names n_samples instead of raising numpy's
        # MemoryError, and leaves no output directory behind
        path = write_json(tmp_path / "input.json", data)
        out = tmp_path / "o"
        assert main([*command.split(), path, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(
            "error: n_samples is too large for memory: ")
        assert not out.exists()

    @pytest.mark.parametrize("command, data, message", [
        ("run --config", [1], "configuration must be a JSON object"),
        ("run --config", {"n_samples": 2001.0},
         "field 'n_samples' must be an integer, got 2001.0"),
        ("run --config", {"n_samples": True},
         "field 'n_samples' must be an integer, got True"),
        ("sweep --grid", [1], "grid must be a JSON object"),
    ], ids=["config_not_object", "float_count", "bool_count",
            "grid_not_object"])
    def test_malformed_input_named(self, tmp_path, capsys, command, data,
                                   message):
        # valid JSON of the wrong shape or type is refused before any
        # row runs or file is written
        path = write_json(tmp_path / "input.json", data)
        out = tmp_path / "o"
        assert main([*command.split(), path, "--out", str(out)]) == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_closure_violation(self, tmp_path, capsys, broken_system_bloch):
        cfg = write_json(tmp_path / "cfg.json", {"n_samples": 101})
        out = tmp_path / "o"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "first-law closure residual" in err
        assert "refine the time grid" not in err
        assert not out.exists()


class _FullAfterFirstWrite:
    """A binary file handle whose writes after the first fail as on a
    full disk."""

    def __init__(self, handle):
        self._handle = handle
        self._writes = 0

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self._handle.close()

    def __getattr__(self, name):
        return getattr(self._handle, name)

    def write(self, chunk):
        self._writes += 1
        if self._writes > 1:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return self._handle.write(chunk)


def _output_path(tmp_path, fresh):
    """An ``--out`` under ``tmp_path``: a fresh one two directories below
    a fresh one, or an existing one that holds a file of its own."""
    if fresh:
        return tmp_path / "out" / "a" / "b"
    out = tmp_path / "out"
    out.mkdir()
    (out / "notes.txt").write_text("kept")
    return out


def _assert_left_as_found(tmp_path, out, fresh):
    """A failed command removed what it created of ``out``: all of a
    fresh one, and every file but the one that was there before of an
    existing one."""
    if fresh:
        assert not (tmp_path / "out").exists()
    else:
        assert [p.name for p in out.iterdir()] == ["notes.txt"]
        assert (out / "notes.txt").read_text() == "kept"


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
        # a directory where the command writes one of its files; the
        # command leaves no file behind, and a file it does not write stays
        out = tmp_path / "out"
        (out / name).mkdir(parents=True)
        (out / "notes.txt").write_text("kept")
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
        assert sorted(p.name for p in out.iterdir()) == sorted(
            [name, "notes.txt"])
        assert list((out / name).iterdir()) == []
        assert (out / "notes.txt").read_text() == "kept"

    @pytest.mark.parametrize("command, name, fresh", [
        ("run", "info_measures.csv", False),
        ("run", "info_measures.csv", True),
        ("sweep", "summary.csv", True),
    ], ids=["existing_out", "fresh_nested_out", "sweep_fresh_nested_out"])
    def test_write_failure_mid_table(self, tmp_path, capsys, monkeypatch,
                                     command, name, fresh):
        # the disk fills on the first block of a table, after its header:
        # bad input naming that file, and the files and directories the
        # command created, the tables written before it included, go
        out = _output_path(tmp_path, fresh)
        opened = Path.open

        def open_full_after_header(path, mode="r", *args, **kwargs):
            handle = opened(path, mode, *args, **kwargs)
            return (_FullAfterFirstWrite(handle) if path.name == name
                    else handle)

        monkeypatch.setattr(Path, "open", open_full_after_header)
        args = [command, "--out", str(out)]
        if command == "sweep":
            args += ["--grid", write_json(tmp_path / "grid.json",
                                          {"t_max": 2.0, "n_samples": 11})]
        else:
            args += ["--config", write_json(tmp_path / "cfg.json", QUICK)]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert (f"cannot write output file {out / name}: "
                f"{os.strerror(errno.ENOSPC)}") in err
        assert "Traceback" not in err
        _assert_left_as_found(tmp_path, out, fresh)

    @pytest.mark.parametrize("fresh", [False, True],
                             ids=["existing_out", "fresh_nested_out"])
    def test_formatting_failure_removes_created_files(self, tmp_path,
                                                      monkeypatch, fresh):
        # tables are formatted as they are written, after every file is
        # open: an error formatting the negativity column propagates,
        # and the files and directories the command created go first
        out = _output_path(tmp_path, fresh)
        results = []
        library_run, column = cli.run, cli._csv_column

        def keep_result(config):
            results.append(library_run(config))
            return results[-1]

        def failing_column(col):
            if col is results[0].info.negativity:
                assert (out / "manifest.json").exists()
                assert (out / "thermo_system.csv").stat().st_size > 0
                raise RuntimeError("formatting failed")
            return column(col)

        monkeypatch.setattr(cli, "run", keep_result)
        monkeypatch.setattr(cli, "_csv_column", failing_column)
        with pytest.raises(RuntimeError, match="formatting failed"):
            main(["run", "--out", str(out), "--config",
                  write_json(tmp_path / "cfg.json", QUICK)])
        _assert_left_as_found(tmp_path, out, fresh)

    def test_directory_filled_meanwhile_stays(self, tmp_path, monkeypatch):
        # a directory the command created but something else filled
        # while it ran is kept, with what it holds; the empty ones the
        # command created below it go
        out = _output_path(tmp_path, fresh=True)

        def failing_column(col):
            (tmp_path / "out" / "other.txt").write_text("kept")
            raise RuntimeError("formatting failed")

        monkeypatch.setattr(cli, "_csv_column", failing_column)
        with pytest.raises(RuntimeError, match="formatting failed"):
            main(["run", "--out", str(out)])
        assert [p.name for p in (tmp_path / "out").iterdir()] == ["other.txt"]

    def test_failed_run_keeps_earlier_outputs(self, tmp_path):
        # no file of an earlier run is truncated or rewritten when a
        # later run into the same directory cannot write its manifest
        out = tmp_path / "out"
        assert main(["run", "--out", str(out), "--config",
                     write_json(tmp_path / "cfg.json", QUICK)]) == 0
        (out / "manifest.json").unlink()
        (out / "manifest.json").mkdir()
        earlier = {p.name: p.read_bytes() for p in out.iterdir()
                   if p.is_file()}
        other = write_json(tmp_path / "other.json", dict(QUICK, alpha=0.3))
        assert main(["run", "--out", str(out), "--config", other]) == 2
        assert {p.name: p.read_bytes() for p in out.iterdir()
                if p.is_file()} == earlier


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

    def test_manifest_spells_infinity(self, tmp_path):
        # json.loads accepts the extension Infinity in a grid; the
        # manifest copies the grid as standard JSON, with "inf" as a run's
        # manifest spells it
        grid = tmp_path / "grid.json"
        grid.write_text('{"beta": [1.0, Infinity], "n_samples": 11}')
        out = tmp_path / "sw"
        assert main(["sweep", "--grid", str(grid), "--out", str(out)]) == 0

        def refuse(constant):
            raise ValueError(f"{constant} is not standard JSON")

        manifest = json.loads((out / "manifest.json").read_text(),
                              parse_constant=refuse)
        assert manifest["config"] == {"beta": [1.0, "inf"], "n_samples": 11}

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

    def test_gamma_t_max_with_one_gamma(self, tmp_path, capsys):
        # no two rows of one (alpha, beta) differ in gamma, so there is no
        # collapse to read: the manifest has no scaled_horizon keys and no
        # collapse line is printed
        grid = write_json(tmp_path / "grid.json",
                          {"alpha": [0.3, 0.7], "gamma": [2.0],
                           "gamma_t_max": 2.0, "n_samples": 101})
        out = tmp_path / "sw"
        assert main(["sweep", "--grid", grid, "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert not [key for key in manifest
                    if key.startswith("scaled_horizon")]
        printed = capsys.readouterr().out
        assert "gamma-scaled" not in printed
        assert printed.startswith("sweep complete: 2 runs, 0 failed")

    def test_sweep27_peaks_collapse(self, tmp_path):
        # each row's peak time is t* = ln 2 / gamma, so gamma t* is ln 2
        # on every row, to round-off, and the peaks are equal
        grid = write_json(tmp_path / "grid.json",
                          {"alpha": [0.3, 0.7, 0.95],
                           "beta": [0.05, 1.0, "inf"],
                           "gamma": [0.5, 1.0, 4.0], "gamma_t_max": 5.0,
                           "n_samples": 501})
        out = tmp_path / "sw"
        assert main(["sweep", "--grid", grid, "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["scaled_horizon_collapse"] is True
        assert manifest["scaled_horizon_spread"] <= 1e-9

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
        assert out.count("[PASS]") == 13

    def test_strict_suites_pass(self, capsys):
        # --strict is still accepted, changes nothing and is not offered
        assert main(["validate"]) == 0
        plain = capsys.readouterr().out
        assert main(["validate", "--strict"]) == 0
        assert capsys.readouterr().out == plain
        with pytest.raises(SystemExit) as exc:
            main(["validate", "--help"])
        assert exc.value.code == 0
        assert "--strict" not in capsys.readouterr().out

    def test_a_suite_that_raises_fails_its_row(self, monkeypatch, capsys):
        # a suite that raises a StrongcoupleError is a FAIL row naming the
        # exception, the suites after it still run, and validate exits 3
        def raising():
            raise NumericalError("no convergence")

        suites = list(validation._SUITES)
        suites[2] = (suites[2][0], raising)
        monkeypatch.setattr(validation, "_SUITES", suites)
        assert main(["validate"]) == 3
        out = capsys.readouterr().out
        assert ("[FAIL] route consistency: raised NumericalError: "
                "no convergence\n") in out
        assert out.count("[PASS]") == 12
        assert out.endswith("12/13 suites passed\n")


class TestParser:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "strongcouple" in capsys.readouterr().out

    def test_module_entry_point(self, monkeypatch, capsys):
        # python -m strongcouple.cli --version: the module runs as
        # __main__, in a namespace of its own, and exits through main()
        monkeypatch.setattr(sys, "argv", ["strongcouple", "--version"])
        monkeypatch.delitem(sys.modules, "strongcouple.cli")
        with pytest.raises(SystemExit) as exc:
            runpy.run_module("strongcouple.cli", run_name="__main__")
        assert exc.value.code == 0
        assert capsys.readouterr().out == f"strongcouple {__version__}\n"

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
