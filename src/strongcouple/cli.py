"""Command-line interface: run, validate, sweep.

Exit codes: 0 on success, 2 for input problems (bad flags, malformed or
unknown configuration fields, unreadable input files, output paths that
cannot be written, grids too large to allocate), 3 for numerical
failures (closure violations, integrity-check failures, failed
validation suites).

``run`` writes CSV tables, a pair of plotting scripts, and a manifest
with row counts and content hashes into the output directory. The CSV
files are deterministic: re-running the same configuration reproduces
them byte for byte. ``run`` and ``sweep`` each hand their tables to
one :func:`_publish` call, which streams them, any further files and
the manifest through :func:`_write_files`. That creates the output
directory, opens every file before it writes any and formats each table
block by block as it writes it, so a command that fails leaves no file
or directory of its own behind. ``validate`` prints one
[PASS]/[FAIL] line per suite of :mod:`strongcouple.validation`.
``sweep`` expands a parameter grid into configurations and writes one
summary row per run. Each manifest copies its command's input, a run's
configuration or a sweep's grid, with every infinity spelled ``"inf"``
(:func:`_spelled`), so that it is standard JSON.
"""

from __future__ import annotations

import argparse
import contextlib
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
        key: (_int_field if key == "n_samples" else _float_field)(value, key)
        for key, value in data.items()})


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


def _write_files(out, files: dict) -> Path:
    """Create the directory ``out`` and its missing parents, write each
    ``name: content`` of ``files`` under it, in order, and return it;
    ``content`` is bytes or an iterable of byte chunks, such as a
    :func:`_csv_table`, which is consumed as it is written.

    Every file is opened, without truncating it, before any is written,
    so a file that cannot be opened, such as a directory of its name,
    leaves every file as it was. Each file is then truncated and written
    chunk by chunk. A directory that cannot be created, or a file that
    cannot be opened or written, is bad input; any other exception, such
    as one raised while a table is formatted, propagates. Either way the
    files this call created are removed first, then the directories it
    created, innermost first. A directory is removed only while empty,
    so one that something else filled stays. Files that were there
    before stay, and those it had reached keep what it wrote to them.
    """
    out_dir = path = Path(out)
    missing, created = [], []
    try:
        missing += itertools.takewhile(lambda d: not d.exists(),
                                       (out_dir, *out_dir.parents))
        out_dir.mkdir(parents=True, exist_ok=True)
        with contextlib.ExitStack() as stack:
            opened = []
            for name in files:
                path = out_dir / name
                if not path.exists():
                    created.append(path)
                opened.append((path, stack.enter_context(path.open("ab"))))
            for (path, handle), content in zip(opened, files.values()):
                handle.truncate(0)
                for chunk in ((content,) if isinstance(content, bytes)
                              else content):
                    handle.write(chunk)
                handle.flush()
    except BaseException as exc:
        for done in created:
            done.unlink(missing_ok=True)
        for folder in missing:
            with contextlib.suppress(OSError):
                folder.rmdir()
        if isinstance(exc, OSError):
            what = ("create output directory" if path is out_dir
                    else "write output file")
            raise InputError(f"cannot {what} {path}: {exc.strerror}") from exc
        raise
    return out_dir


def _csv_column(col):
    """The bytes ``%`` format of the CSV column ``col``, an array, and
    the array of values it takes, or ``None`` when the format holds the
    values already.

    Floats get 12 significant digits, integers and booleans are written
    as integers, and anything else as UTF-8 text with commas replaced by
    semicolons. A bytes (``S``) column is text already formatted, and is
    passed through. A numeric column whose entries share one bit
    pattern, such as an all-zero work column, is formatted once into
    the format as text; bits, not values, are compared, so ``0.0`` and
    ``-0.0`` stay apart.
    """
    kind = col.dtype.kind
    if kind == "S":
        return b"%s", col
    if kind not in "biuf":
        return b"%s", np.array([str(v).replace(",", ";").encode()
                                for v in col.tolist()])
    fmt = b"%.12g" if kind == "f" else b"%d"
    bits = col.view(f"V{col.itemsize}")
    if len(col) and (bits == bits[0]).all():
        return fmt % col[0].item(), None
    return fmt, col


def _csv_table(header, columns, record: dict):
    """Yield equal-length columns under ``header`` as CSV bytes: the
    header line, then one chunk per ``_CSV_BLOCK`` rows. Once exhausted,
    it sets the table's manifest entry in ``record``: ``rows``, the row
    count, and ``sha256``, the hash of every chunk it yielded.

    Each row is formatted with one bytes ``%`` on a format built from
    the columns (see :func:`_csv_column`), which takes only the columns
    whose values vary; the row count is that of the columns as given.
    Nothing is formatted before the first chunk is asked for, and rows
    become Python values and then bytes one block at a time, so no
    whole table is ever held, neither as bytes nor as one Python object
    per value or per row.
    """
    cols = [np.asarray(c) for c in columns]
    formats, live = zip(*map(_csv_column, cols))
    live = [c for c in live if c is not None]
    row_format = b",".join(formats) + b"\n"
    count = len(cols[0])
    chunk = ",".join(header).encode() + b"\n"
    digest = hashlib.sha256(chunk)
    yield chunk
    for start in range(0, count, _CSV_BLOCK):
        stop = min(start + _CSV_BLOCK, count)
        rows = (zip(*(c[start:stop].tolist() for c in live)) if live
                else itertools.repeat((), stop - start))
        chunk = b"".join(map(row_format.__mod__, rows))
        digest.update(chunk)
        yield chunk
    record.update(rows=count, sha256=digest.hexdigest())


def _spelled(value):
    """Parsed JSON with every infinity spelled ``"inf"``, as
    :func:`_float_field` reads it, so that a manifest is standard JSON."""
    if isinstance(value, dict):
        return {name: _spelled(item) for name, item in value.items()}
    if isinstance(value, list):
        return [_spelled(item) for item in value]
    return "inf" if value == math.inf else value


def _publish(out, command, config_block, started, tables, files=None,
             extra=None) -> Path:
    """Write a command's output into the directory ``out`` through
    :func:`_write_files`, and return the directory: each table ``name:
    (header, columns)`` of ``tables`` as a :func:`_csv_table`, then the
    bytes of each ``name: content`` of ``files``, then ``manifest.json``.

    The manifest is built only when it is written, after the tables it
    lists: it reads their rows and hashes from their records, and its
    ``wall_time_seconds`` runs from ``started`` to then, the writing of
    the tables included. ``extra`` adds its keys to it.
    """
    outputs = {name: {} for name in tables}
    contents = {name: _csv_table(header, columns, outputs[name])
                for name, (header, columns) in tables.items()}
    contents.update(files or {})

    def manifest():
        block = {"tool": "strongcouple", "version": __version__,
                 "command": command, "config": config_block,
                 "outputs": outputs,
                 "wall_time_seconds": round(time.perf_counter() - started,
                                            3),
                 **(extra or {})}
        yield (json.dumps(block, indent=2, sort_keys=True) + "\n").encode()

    contents["manifest.json"] = manifest()
    return _write_files(out, contents)


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
    """Run one configuration and stream its four CSV tables, the plot
    scripts and, last, the manifest into ``--out``; beyond the run's
    result and the formatted time column, the output holds one block of
    one table at a time."""
    config = config_from_dict(_load_json(Path(args.config))) \
        if args.config else ExperimentConfig()
    started = time.perf_counter()
    result = run(config)
    # every series of a run shares its grid: format the times once
    times = np.array(list(map(b"%.12g".__mod__, result.times.tolist())),
                     dtype=bytes)
    info = result.info
    metrics = sorted(result.diagnostics)
    tables = {
        name: (("t", "W", "Q", "C", "dU"),
               (times, traj.work, traj.heat, traj.coherent_energy,
                traj.internal_energy_change))
        for name, traj in (("thermo_system.csv", result.thermo_s),
                           ("thermo_environment.csv", result.thermo_e))}
    tables["info_measures.csv"] = (
        ("t", "entropy_system", "entropy_environment",
         "coherence_system", "coherence_environment", "negativity",
         "mutual_information", "heat_asymmetry"),
        (times, info.entropy_s, info.entropy_e, info.coherence_s,
         info.coherence_e, info.negativity, info.mutual_information,
         info.heat_asymmetry))
    tables["diagnostics.csv"] = (
        ("metric", "value"),
        (metrics, [result.diagnostics[m] for m in metrics]))

    out_dir = _publish(args.out, "run", _spelled(dataclasses.asdict(config)),
                       started, tables,
                       {"plot_thermo.py": _PLOT_THERMO.encode(),
                        "plot_info.py": _PLOT_INFO.encode()})
    print(f"run complete: {len(tables)} tables in {out_dir}")
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
        raise InputError(
            "grid accepts either 't_max' or 'gamma_t_max', not both")
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
    started = time.perf_counter()
    rows = sweep(configs)
    header = tuple(f.name for f in dataclasses.fields(SweepSummary))
    summary = (header, [[getattr(r, name) for r in rows] for name in header])

    spread = (_collapse_spread(rows) if "gamma_t_max" in grid_block
              else None)
    extra = None if spread is None else {
        "scaled_horizon_collapse": spread <= 1e-9,
        "scaled_horizon_spread": spread}
    out_dir = _publish(args.out, "sweep", _spelled(grid_block), started,
                       {"summary.csv": summary}, extra=extra)
    if extra:
        state = ("collapse" if extra["scaled_horizon_collapse"]
                 else "DO NOT collapse")
        print(f"gamma-scaled curves {state} across gamma "
              f"(spread {spread:.2e})")
    failed = [r for r in rows if r.error]
    print(f"sweep complete: {len(rows)} runs, {len(failed)} failed, "
          f"summary in {out_dir}")
    for r in failed:
        print(f"  alpha={r.alpha:g} beta={r.beta:g} gamma={r.gamma:g}: "
              f"{r.error}")
    return 3 if failed and len(failed) == len(rows) else 0


def _cmd_validate() -> int:
    total = failures = 0
    for name, ok, detail in run_suites():
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

    p_run = sub.add_parser("run",
                           help="run one configuration and write tables")
    p_run.add_argument("--config", help="JSON configuration file "
                                        "(defaults used when omitted)")
    p_run.add_argument("--out", required=True, help="output directory")

    p_val = sub.add_parser("validate", help="run built-in consistency suites")
    # every suite runs; the switch stays for the scripts that pass it
    p_val.add_argument("--strict", action="store_true",
                       help=argparse.SUPPRESS)

    p_sweep = sub.add_parser("sweep", help="run a parameter grid")
    p_sweep.add_argument("--grid", required=True, help="JSON grid file")
    p_sweep.add_argument("--out", required=True, help="output directory")
    return parser


def main(argv=None) -> int:
    """Run the command ``argv`` names and return its exit code; the
    parser is built once per process and shared by every call."""
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "validate":
            return _cmd_validate()
        try:
            return (_cmd_run if args.command == "run" else _cmd_sweep)(args)
        except MemoryError as exc:
            # the grid's length is the one size run and sweep are given
            raise InputError(
                f"n_samples is too large for memory: {exc}") from exc
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
