"""Command-line interface: run, validate, sweep.

Exit codes: 0 on success, 2 for input problems (bad flags, malformed or
unknown configuration fields, unreadable input files, output paths that
cannot be written), 3 for numerical
failures (closure violations, integrity-check failures, failed
validation suites).

``run`` writes CSV tables, a pair of plotting scripts, and a manifest
with row counts and content hashes into the output directory. The CSV
files are deterministic: re-running the same configuration reproduces
them byte for byte. ``validate`` prints one [PASS]/[FAIL] line per
suite of :mod:`strongcouple.validation`. ``sweep`` expands a
parameter grid into configurations and writes one summary row per run.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import itertools
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .errors import InputError, NumericalError, _as_float
from .experiment import ExperimentConfig, SweepSummary, run, sweep
from .validation import run_suites

_CONFIG_KEYS = {f.name for f in dataclasses.fields(ExperimentConfig)}
_GRID_KEYS = {"alpha", "beta", "gamma", "t_max", "gamma_t_max", "n_samples"}
_CSV_BLOCK = 256


def _float_field(value, name):
    """A float field of parsed JSON: the spelling ``"inf"`` is infinity;
    :func:`_as_float` converts the rest and refuses a boolean."""
    if isinstance(value, str) and value == "inf":
        return math.inf
    return _as_float(value, f"field '{name}'")


def _int_field(value, name):
    if isinstance(value, bool) or not isinstance(value, int):
        raise InputError(f"field '{name}' must be an integer, got {value!r}")
    return value


def config_from_dict(data) -> ExperimentConfig:
    """Build a run configuration from parsed JSON; the configuration
    checks its values as it is built."""
    if not isinstance(data, dict):
        raise InputError("configuration must be a JSON object")
    unknown = set(data) - _CONFIG_KEYS
    if unknown:
        raise InputError(f"unknown config field '{sorted(unknown)[0]}'; "
                         f"allowed: {sorted(_CONFIG_KEYS)}")
    return ExperimentConfig(**{
        name: (_int_field if name == "n_samples" else _float_field)(value, name)
        for name, value in data.items()})


def _load_json(path: Path):
    """The JSON of the UTF-8 file ``path``; a file that cannot be read
    or parsed, also one that nests too deeply, is bad input naming it."""
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise InputError(f"{path} is not valid JSON: {exc}") from exc


def _output_dir(path) -> Path:
    """Create the output directory ``path``; a path that cannot be a
    directory, such as an existing file or a path under one, is bad input.
    """
    out_dir = Path(path)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise InputError(f"cannot create output directory {out_dir}: "
                         f"{exc.strerror}") from exc
    return out_dir


def _write_file(path: Path, blob: bytes) -> None:
    """Write ``blob`` to ``path``; a path that cannot be written, such as
    a directory, is bad input."""
    try:
        path.write_bytes(blob)
    except OSError as exc:
        raise InputError(f"cannot write output file {path}: "
                         f"{exc.strerror}") from exc


def _csv_column(values):
    """The ``%`` format of one CSV column and its values as an array.

    Floats get 12 significant digits, integers and booleans are written
    as integers, and anything else as text with commas replaced by
    semicolons.
    """
    col = np.asarray(values)
    if col.dtype.kind == "f":
        return "%.12g", col
    if col.dtype.kind in "biu":
        return "%d", col
    return "%s", np.array([str(v).replace(",", ";") for v in col.tolist()])


def _write_csv(path: Path, header, columns) -> dict:
    """Write equal-length columns under ``header``; return rows and hash.

    Each row is formatted with one ``%`` on a format string built from
    the column kinds. Rows become Python values and then text
    ``_CSV_BLOCK`` at a time, and each block is joined into one string,
    so no whole table is ever held as one Python object per value or
    per row.
    """
    formats, cols = zip(*map(_csv_column, columns))
    row_format = ",".join(formats)
    count = len(cols[0])
    chunks = [",".join(header)]
    for start in range(0, count, _CSV_BLOCK):
        stop = start + _CSV_BLOCK
        chunks.append("\n".join(row_format % row for row in
                                zip(*(c[start:stop].tolist() for c in cols))))
    blob = ("\n".join(chunks) + "\n").encode()
    _write_file(path, blob)
    return {"rows": count, "sha256": hashlib.sha256(blob).hexdigest()}


def _config_as_dict(config: ExperimentConfig) -> dict:
    return {name: "inf" if math.isinf(value) else value
            for name, value in dataclasses.asdict(config).items()}


def _write_manifest(out_dir: Path, command, config_block, outputs, elapsed,
                    extra=None):
    manifest = {
        "tool": "strongcouple",
        "version": __version__,
        "command": command,
        "config": config_block,
        "outputs": outputs,
        "wall_time_seconds": round(elapsed, 3),
    }
    if extra:
        manifest.update(extra)
    _write_file(out_dir / "manifest.json", (
        json.dumps(manifest, indent=2, sort_keys=True) + "\n").encode())


_PLOT_THERMO = '''\
"""Plot the first-law decomposition written by a run.

Requires matplotlib; reads the CSV files next to this script.
"""
import csv
from pathlib import Path

import matplotlib.pyplot as plt

here = Path(__file__).resolve().parent


def load(name):
    with open(here / name, newline="") as fh:
        rows = list(csv.DictReader(fh))
    return {k: [float(r[k]) for r in rows] for k in rows[0]}

fig, axes = plt.subplots(1, 2, figsize=(10, 4), sharex=True)
for ax, name, label in [(axes[0], "thermo_system.csv", "system"),
                        (axes[1], "thermo_environment.csv", "environment")]:
    d = load(name)
    ax.plot(d["t"], d["Q"], label="heat Q")
    ax.plot(d["t"], d["C"], label="coherent C")
    ax.plot(d["t"], d["W"], label="work W")
    ax.plot(d["t"], d["dU"], "k--", label="dU")
    ax.set_xlabel("t")
    ax.set_title(label)
    ax.legend()
axes[0].set_ylabel("energy")
fig.tight_layout()
fig.savefig(here / "thermo.png", dpi=150)
print("wrote", here / "thermo.png")
'''

_PLOT_INFO = '''\
"""Plot entropies, coherences, negativity, and heat asymmetry of a run.

Requires matplotlib; reads info_measures.csv next to this script.
"""
import csv
from pathlib import Path

import matplotlib.pyplot as plt

here = Path(__file__).resolve().parent
with open(here / "info_measures.csv", newline="") as fh:
    rows = list(csv.DictReader(fh))
d = {k: [float(r[k]) for r in rows] for k in rows[0]}

fig, axes = plt.subplots(1, 2, figsize=(10, 4), sharex=True)
axes[0].plot(d["t"], d["entropy_system"], label="S system")
axes[0].plot(d["t"], d["entropy_environment"], label="S environment")
axes[0].plot(d["t"], d["coherence_system"], label="l1 coherence system")
axes[0].plot(d["t"], d["coherence_environment"], label="l1 coherence environment")
axes[0].set_xlabel("t")
axes[0].legend()

axes[1].plot(d["t"], d["negativity"], label="negativity")
axes[1].plot(d["t"], d["heat_asymmetry"], label="|Q_S + Q_E|")
axes[1].plot(d["t"], d["mutual_information"], label="mutual information")
axes[1].set_xlabel("t")
axes[1].legend()
fig.tight_layout()
fig.savefig(here / "info.png", dpi=150)
print("wrote", here / "info.png")
'''


def _cmd_run(args) -> int:
    config = config_from_dict(_load_json(Path(args.config))) \
        if args.config else ExperimentConfig()
    out_dir = _output_dir(args.out)

    started = time.perf_counter()
    result = run(config)
    outputs = {}

    for name, traj in (("thermo_system.csv", result.thermo_s),
                       ("thermo_environment.csv", result.thermo_e)):
        outputs[name] = _write_csv(
            out_dir / name, ("t", "W", "Q", "C", "dU"),
            (traj.times, traj.work, traj.heat, traj.coherent_energy,
             traj.internal_energy_change))
    info = result.info
    outputs["info_measures.csv"] = _write_csv(
        out_dir / "info_measures.csv",
        ("t", "entropy_system", "entropy_environment",
         "coherence_system", "coherence_environment", "negativity",
         "mutual_information", "heat_asymmetry"),
        (info.times, info.entropy_s, info.entropy_e, info.coherence_s,
         info.coherence_e, info.negativity, info.mutual_information,
         info.heat_asymmetry))
    metrics = sorted(result.diagnostics)
    outputs["diagnostics.csv"] = _write_csv(
        out_dir / "diagnostics.csv", ("metric", "value"),
        (metrics, [result.diagnostics[m] for m in metrics]))

    _write_file(out_dir / "plot_thermo.py", _PLOT_THERMO.encode())
    _write_file(out_dir / "plot_info.py", _PLOT_INFO.encode())
    _write_manifest(out_dir, "run", _config_as_dict(config), outputs,
                    time.perf_counter() - started)
    print(f"run complete: {len(outputs)} tables in {out_dir}")
    return 0


def _expand_grid(data) -> list:
    """One configuration per point of the grid's alpha x beta x gamma
    product, each built by :func:`config_from_dict`; a field the grid
    leaves out takes the configuration's default."""
    if not isinstance(data, dict):
        raise InputError("grid must be a JSON object")
    unknown = set(data) - _GRID_KEYS
    if unknown:
        raise InputError(f"unknown grid field '{sorted(unknown)[0]}'; "
                         f"allowed: {sorted(_GRID_KEYS)}")
    if "t_max" in data and "gamma_t_max" in data:
        raise InputError("grid accepts either 't_max' or 'gamma_t_max', not both")
    axes = []
    for name in ("alpha", "beta", "gamma"):
        values = data.get(name, getattr(ExperimentConfig, name))
        values = values if isinstance(values, list) else [values]
        if not values:
            raise InputError(f"grid field '{name}' must not be empty")
        axes.append(values)
    fields = {name: data[name] for name in ("t_max", "n_samples")
              if name in data}
    rows = [{"alpha": a, "beta": b, "gamma": g, **fields}
            for a, b, g in itertools.product(*axes)]
    if "gamma_t_max" in data:
        # checked by name here: the horizon divides by each gamma, and a
        # bad t_max would name a field the grid does not have
        horizon = _float_field(data["gamma_t_max"], "gamma_t_max")
        if not 0.0 < horizon < math.inf:
            raise InputError("gamma_t_max must be positive and finite, "
                             f"got {horizon}")
        for row in rows:
            g = row["gamma"] = _float_field(row["gamma"], "gamma")
            if not 0.0 < g < math.inf:
                raise InputError(
                    f"gamma must be positive and finite, got {g}")
            row["t_max"] = horizon / g
            if not 0.0 < row["t_max"] < math.inf:
                raise InputError(
                    f"the horizon gamma_t_max / gamma = {horizon} / {g} = "
                    f"{row['t_max']} is not positive and finite; gamma and "
                    "gamma_t_max are too far apart in scale")
    return [config_from_dict(row) for row in rows]


def _collapse_spread(rows) -> float | None:
    """Worst spread of peak height and scaled peak time across gamma.

    On a shared dimensionless horizon the negativity curve depends on
    gamma only through the product ``gamma t``, so rows that differ only
    in gamma must report the same peak negativity at the same
    ``gamma * t_peak``. Returns the largest spread over groups of rows
    that agree in alpha and beta, or ``None`` when no group contains two
    successful runs with distinct gamma.
    """
    groups = {}
    for r in rows:
        if not r.error:
            groups.setdefault((r.alpha, r.beta), []).append(r)
    spread = None
    for members in groups.values():
        if len({m.gamma for m in members}) < 2:
            continue
        peaks = [m.peak_negativity for m in members]
        scaled = [m.gamma * m.peak_negativity_time for m in members]
        worst = max(max(peaks) - min(peaks), max(scaled) - min(scaled))
        spread = worst if spread is None else max(spread, worst)
    return spread


def _cmd_sweep(args) -> int:
    grid_block = _load_json(Path(args.grid))
    configs = _expand_grid(grid_block)
    out_dir = _output_dir(args.out)

    started = time.perf_counter()
    rows = sweep(configs)
    header = tuple(f.name for f in dataclasses.fields(SweepSummary))
    outputs = {"summary.csv": _write_csv(
        out_dir / "summary.csv", header,
        [[getattr(r, name) for r in rows] for name in header])}

    extra = None
    if "gamma_t_max" in grid_block:
        spread = _collapse_spread(rows)
        if spread is not None:
            collapsed = spread <= 1e-9
            extra = {"scaled_horizon_collapse": collapsed,
                     "scaled_horizon_spread": spread}
            state = "collapse" if collapsed else "DO NOT collapse"
            print(f"gamma-scaled curves {state} across gamma "
                  f"(spread {spread:.2e})")

    _write_manifest(out_dir, "sweep", grid_block, outputs,
                    time.perf_counter() - started, extra=extra)
    failed = [r for r in rows if r.error]
    print(f"sweep complete: {len(rows)} runs, {len(failed)} failed, "
          f"summary in {out_dir}")
    for r in failed:
        print(f"  alpha={r.alpha:g} beta={r.beta:g} gamma={r.gamma:g}: "
              f"{r.error}")
    return 3 if failed and len(failed) == len(rows) else 0


def _cmd_validate(args) -> int:
    total = failures = 0
    for name, ok, detail in run_suites(strict=args.strict):
        print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
        total += 1
        failures += not ok
    print(f"{total - failures}/{total} suites passed")
    return 0 if failures == 0 else 3


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="strongcouple",
        description="First-law energy decomposition and information "
                    "measures for a qubit exchanging one excitation with "
                    "a single-qubit thermal environment.")
    parser.add_argument("--version", action="version",
                        version=f"strongcouple {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one configuration and write tables")
    p_run.add_argument("--config", help="JSON configuration file "
                                        "(defaults used when omitted)")
    p_run.add_argument("--out", required=True, help="output directory")

    p_val = sub.add_parser("validate", help="run built-in consistency suites")
    p_val.add_argument("--strict", action="store_true",
                       help="also run the slower shape and scaling suites")

    p_sweep = sub.add_parser("sweep", help="run a parameter grid")
    p_sweep.add_argument("--grid", required=True, help="JSON grid file")
    p_sweep.add_argument("--out", required=True, help="output directory")
    return parser


def main(argv=None) -> int:
    """Run the command ``argv`` names and return its exit code; the
    parser is built once per process and shared by every call."""
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "validate":
            return _cmd_validate(args)
        return _cmd_sweep(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
