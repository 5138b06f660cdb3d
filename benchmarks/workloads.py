"""Workload definitions: inputs from a seed, one operation, output checks.

Each workload drives a public entry point of ``strongcouple`` the way a
user does. ``build`` makes the inputs (deterministic in the seed),
``prepare`` resets per-operation state outside the timed region, ``op``
is the timed call, and ``check`` inspects the outputs afterwards and
returns an :class:`Outcome`.

A unit is what ``failed_frac`` counts: one sweep row on ``sweep27``, one
operation elsewhere. An operation fails when it raises, exits non-zero
or fails its output check; then all its units count as failed. A sweep
row that reports a named gate is a correct output of the sweep, but its
unit is not ok.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import os
import random
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH_DIR = Path(__file__).resolve().parent

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")

# windows from tests/test_acceptance.py, criterion 2
Q_S_WINDOW = (0.102, 0.106)
Q_E_WINDOW = (-0.106, -0.102)
RUN_CSVS = ("thermo_system.csv", "thermo_environment.csv",
            "info_measures.csv", "diagnostics.csv")

FINE_GRID_SAMPLES = 4001
SWEEP_ALPHA_BANDS = ((0.25, 0.4), (0.6, 0.8), (0.9, 0.97))
SWEEP_BETAS = (0.05, 1.0, "inf")
SWEEP_GAMMAS = (0.5, 1.0, 4.0)
# spacing 0.01 in gamma*t, as on a 1001-point grid to gamma*t = 10: the
# closure residuals, failing rows and gamma collapse are the same, the
# negativity peak (gamma*t = 0.69) is inside, and an op costs half
SWEEP_GAMMA_T_MAX = 5.0
SWEEP_SAMPLES = 501
SWEEP_ROWS = len(SWEEP_ALPHA_BANDS) * len(SWEEP_BETAS) * len(SWEEP_GAMMAS)
# phrases the gates of the run pipeline raise, as a sweep error row holds
# them (lower case): first-law closure, work on a static Hamiltonian,
# energy balance, negativity cross-check, eigenbranch tracking
GATE_PHRASES = ("closure residual", "static hamiltonian", "energy change",
                "negativity routes", "branch matching")
VALIDATE_SUITES = 13
CHILD_TIMEOUT_S = 170


class SetupError(RuntimeError):
    """The checkout does not hold the package the benchmark drives."""


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def cap_threads() -> dict:
    """Cap BLAS/OpenMP pools at ``nproc``; must run before numpy loads."""
    caps = {var: str(nproc()) for var in THREAD_VARS}
    os.environ.update(caps)
    return caps


def import_package():
    """Import ``strongcouple`` from this checkout's ``src``, nowhere else."""
    if not (SRC / "strongcouple" / "__init__.py").is_file():
        raise SetupError(f"no strongcouple package under {SRC}")
    sys.path.insert(0, str(SRC))
    import strongcouple
    import strongcouple.cli
    origin = Path(strongcouple.__file__).resolve().parent
    if origin != (SRC / "strongcouple").resolve():
        raise SetupError(f"strongcouple imported from {origin}, not {SRC}")
    return strongcouple


@dataclass
class Outcome:
    ok: bool
    units: int
    ok_units: int
    detail: str = ""


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _last_q(path: Path) -> float:
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    return float(rows[-1]["Q"])


def _heat_in_windows(q_s, q_e) -> str:
    if Q_S_WINDOW[0] <= q_s <= Q_S_WINDOW[1] \
            and Q_E_WINDOW[0] <= q_e <= Q_E_WINDOW[1]:
        return ""
    return f"Q_S(t_max) = {q_s:.6f}, Q_E(t_max) = {q_e:.6f} outside windows"


def check_run_dir(out: Path, reference: dict | None) -> str:
    """Problems with a ``strongcouple run`` output directory, or ''.

    Every CSV must match the hash the manifest recorded for it, the final
    heats must sit in the acceptance windows, and the bytes must equal
    ``reference`` (file name to bytes) when one is given.
    """
    try:
        outputs = json.loads((out / "manifest.json").read_text())["outputs"]
        for name in RUN_CSVS:
            if _sha256(out / name) != outputs[name]["sha256"]:
                return f"{name} does not match its manifest hash"
            if reference is not None \
                    and (out / name).read_bytes() != reference[name]:
                return f"{name} differs from the first operation's"
        return _heat_in_windows(_last_q(out / "thermo_system.csv"),
                                _last_q(out / "thermo_environment.csv"))
    except (OSError, KeyError, ValueError, IndexError) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}"


def check_sweep_dir(out: Path, grid: dict) -> tuple[str, int]:
    """Problems with a ``strongcouple sweep`` output directory, and ok rows.

    The summary must hold one row per grid point, the manifest must
    report the gamma collapse, and each error row must name its gate.
    """
    try:
        manifest = json.loads((out / "manifest.json").read_text())
        with open(out / "summary.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
    except (OSError, ValueError) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}", 0
    if len(rows) != SWEEP_ROWS:
        return f"{len(rows)} summary rows, expected {SWEEP_ROWS}", 0
    expected = {(float(a), float(b), float(g)) for a in grid["alpha"]
                for b in grid["beta"] for g in grid["gamma"]}
    try:
        seen = {(float(r["alpha"]), float(r["beta"]), float(r["gamma"]))
                for r in rows}
    except (KeyError, ValueError) as exc:
        return f"malformed summary row: {exc}", 0
    if seen != expected:
        return "summary rows do not cover the grid", 0
    if manifest.get("scaled_horizon_collapse") is not True:
        return "manifest does not report scaled_horizon_collapse", 0
    ok_rows = 0
    for r in rows:
        error = r.get("error", "")
        if not error:
            ok_rows += 1
        elif not any(g in error.lower() for g in GATE_PHRASES):
            return f"error row names no gate: {error!r}", 0
    return "", ok_rows


class DefaultRun:
    """``strongcouple run`` on the paper configuration, all outputs."""

    name = "default"
    in_process = True
    units = 1

    def build(self, seed, work: Path, pkg):
        self.out = work / "default_out"
        self.reference = None

    def prepare(self):
        shutil.rmtree(self.out, ignore_errors=True)

    def op(self, pkg):
        with contextlib.redirect_stdout(io.StringIO()):
            return pkg.cli.main(["run", "--out", str(self.out)])

    def check(self, rc) -> Outcome:
        if rc != 0:
            return Outcome(False, 1, 0, f"exit code {rc}")
        problem = check_run_dir(self.out, self.reference)
        if not problem and self.reference is None:
            self.reference = {n: (self.out / n).read_bytes()
                              for n in RUN_CSVS}
        return Outcome(not problem, 1, 0 if problem else 1, problem)


class FineGrid:
    """``run(ExperimentConfig(n_samples=4001))`` through the library."""

    name = "fine_grid"
    in_process = True
    units = 1

    def build(self, seed, work: Path, pkg):
        self.config = pkg.ExperimentConfig(n_samples=FINE_GRID_SAMPLES)

    def prepare(self):
        pass

    def op(self, pkg):
        return pkg.run(self.config)

    def check(self, result) -> Outcome:
        try:
            problem = _heat_in_windows(float(result.thermo_s.heat[-1]),
                                       float(result.thermo_e.heat[-1]))
        except (AttributeError, IndexError, TypeError) as exc:
            problem = f"malformed result: {exc}"
        return Outcome(not problem, 1, 0 if problem else 1, problem)


def sweep_grid(seed: int) -> dict:
    """The 27-point grid; the seed draws one alpha from each band.

    Alphas are rounded so that the summary CSV (12 significant digits)
    repeats them exactly.
    """
    rng = random.Random(seed)
    return {"alpha": [round(rng.uniform(lo, hi), 4)
                      for lo, hi in SWEEP_ALPHA_BANDS],
            "beta": list(SWEEP_BETAS), "gamma": list(SWEEP_GAMMAS),
            "gamma_t_max": SWEEP_GAMMA_T_MAX, "n_samples": SWEEP_SAMPLES}


class Sweep27:
    """``strongcouple sweep`` over alpha x beta x gamma, 27 short runs."""

    name = "sweep27"
    in_process = True
    units = SWEEP_ROWS

    def build(self, seed, work: Path, pkg):
        self.grid = sweep_grid(seed)
        self.grid_path = work / "grid.json"
        self.grid_path.write_text(json.dumps(self.grid))
        self.out = work / "sweep_out"

    def prepare(self):
        shutil.rmtree(self.out, ignore_errors=True)

    def op(self, pkg):
        with contextlib.redirect_stdout(io.StringIO()):
            return pkg.cli.main(["sweep", "--grid", str(self.grid_path),
                                 "--out", str(self.out)])

    def check(self, rc) -> Outcome:
        if rc != 0:
            return Outcome(False, SWEEP_ROWS, 0, f"exit code {rc}")
        problem, ok_rows = check_sweep_dir(self.out, self.grid)
        return Outcome(not problem, SWEEP_ROWS, ok_rows, problem)


@dataclass
class ChildResult:
    rc: int
    stdout: str
    op_s: float | None = None
    maxrss_kb: int = 0
    trace: dict | None = None
    speed: dict | None = None


def run_child(args, work: Path) -> ChildResult:
    """Run ``child.py`` with ``args``; it reports back through a file."""
    result_path = work / "child_result.json"
    result_path.unlink(missing_ok=True)
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "child.py"), *args,
         "--result", str(result_path)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True, timeout=CHILD_TIMEOUT_S, check=False)
    try:
        report = json.loads(result_path.read_text())
    except (OSError, ValueError):
        report = {}
    return ChildResult(proc.returncode, proc.stdout, report.get("op_s"),
                       report.get("maxrss_kb", 0), report.get("trace"),
                       report.get("speed"))


class Validate:
    """``strongcouple validate --strict`` in a fresh interpreter per op."""

    name = "validate"
    in_process = False
    units = 1

    def build(self, seed, work: Path, pkg):
        self.work = work

    def prepare(self):
        pass

    def op(self, pkg, trace=False):
        return run_child(["validate"] + (["--trace"] if trace else []),
                         self.work)

    def check(self, child: ChildResult) -> Outcome:
        summary = f"{VALIDATE_SUITES}/{VALIDATE_SUITES} suites passed"
        if child.rc != 0:
            problem = f"exit code {child.rc}"
        elif summary not in child.stdout:
            problem = f"missing '{summary}'"
        else:
            problem = ""
        return Outcome(not problem, 1, 0 if problem else 1, problem)


WORKLOADS = {w.name: w for w in (DefaultRun, FineGrid, Sweep27, Validate)}


def time_setup(workload: str, seed: int, work: Path) -> float:
    """Wall time of a fresh interpreter importing and building inputs."""
    start = time.perf_counter()
    child = run_child(["setup", "--workload", workload, "--seed", str(seed),
                       "--work", str(work)], work)
    elapsed = time.perf_counter() - start
    if child.rc != 0:
        raise SetupError(f"setup probe failed ({child.rc}): {child.stdout}")
    return elapsed
