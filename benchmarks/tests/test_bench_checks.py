"""Tests for the benchmark's output checks on hand-made output files.

Run from the repository root: ``python3 -m pytest benchmarks/tests -q``.
"""

import csv
import hashlib
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import workloads as wl  # noqa: E402


def write_run_dir(out: Path, q_s=0.1035, q_e=-0.1035) -> dict:
    out.mkdir()
    tables = {
        "thermo_system.csv": f"t,W,Q,C,dU\n0,0,0,0,0\n10,0,{q_s},0,0\n",
        "thermo_environment.csv": f"t,W,Q,C,dU\n0,0,0,0,0\n10,0,{q_e},0,0\n",
        "info_measures.csv": "t,negativity\n0,0\n",
        "diagnostics.csv": "metric,value\nratio_mean,1\n",
    }
    outputs = {}
    for name, text in tables.items():
        (out / name).write_text(text)
        outputs[name] = {"rows": 1, "sha256": hashlib.sha256(
            text.encode()).hexdigest()}
    (out / "manifest.json").write_text(json.dumps({"outputs": outputs}))
    return {name: text.encode() for name, text in tables.items()}


def test_run_check_accepts_consistent_output(tmp_path):
    reference = write_run_dir(tmp_path / "run")
    assert wl.check_run_dir(tmp_path / "run", None) == ""
    assert wl.check_run_dir(tmp_path / "run", reference) == ""


def test_run_check_catches_csv_altered_after_the_fact(tmp_path):
    out = tmp_path / "run"
    reference = write_run_dir(out)
    with open(out / "info_measures.csv", "a") as fh:
        fh.write("10,0\n")
    assert "manifest hash" in wl.check_run_dir(out, reference)


def test_run_check_catches_bytes_unlike_first_op(tmp_path):
    reference = write_run_dir(tmp_path / "first")
    out = tmp_path / "second"
    write_run_dir(out, q_s=0.1036)
    assert "first operation" in wl.check_run_dir(out, reference)


def test_run_check_applies_acceptance_windows(tmp_path):
    out = tmp_path / "run"
    write_run_dir(out, q_s=0.1065)
    assert "outside windows" in wl.check_run_dir(out, None)


def write_sweep_dir(out: Path, grid: dict, errors: dict, collapse=True):
    out.mkdir()
    with open(out / "summary.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["alpha", "beta", "gamma", "peak_negativity",
                         "error"])
        for a in grid["alpha"]:
            for b in grid["beta"]:
                for g in grid["gamma"]:
                    beta = float(b)
                    # the sweep writes commas in a message as ';'
                    error = errors.get(beta, "").replace(",", ";")
                    writer.writerow([repr(a), f"{beta:g}", f"{g:g}", "0.1",
                                     error])
    (out / "manifest.json").write_text(json.dumps(
        {"scaled_horizon_collapse": collapse}))


def test_sweep_check_counts_ok_rows(tmp_path):
    grid = wl.sweep_grid(3)
    write_sweep_dir(tmp_path / "s", grid,
                    {0.05: "first-law closure residual 7e-4 exceeds 1e-4"})
    assert wl.check_sweep_dir(tmp_path / "s", grid) == ("", 18)


# error rows as the program's gates word them (firstlaw.py, experiment.py,
# infomeasures.py), and failures that are not gates
GATE_ERRORS = (
    "first-law closure residual 1.743e-04 exceeds tolerance 1.0e-04; "
    "refine the time grid",
    "work 2.000e-09 on a static Hamiltonian exceeds 1e-12",
    "system plus environment energy change 3.000e-09 exceeds 1e-10; "
    "total energy must be conserved",
    "negativity routes disagree by 1.000e-08 (trace norm 1.0e-01, "
    "eigenvalue sum 1.0e-01)",
    "branch matching ambiguous at step 7 (t index 7): best overlap 0.5000 "
    "<= 0.7071; refine the time grid",
)
NON_GATE_ERRORS = (
    "something went wrong",
    "Jacobi did not converge in 100 sweeps, off-diagonal norm 1.000e-03",
    "matrix has eigenvalue -1.000e-09 below -1e-10",
)


def test_sweep_check_accepts_each_gate_phrase(tmp_path):
    grid = wl.sweep_grid(3)
    for i, error in enumerate(GATE_ERRORS):
        write_sweep_dir(tmp_path / f"g{i}", grid, {0.05: error})
        assert wl.check_sweep_dir(tmp_path / f"g{i}", grid) == ("", 18)


def test_sweep_check_requires_named_gate_and_collapse(tmp_path):
    grid = wl.sweep_grid(3)
    for i, error in enumerate(NON_GATE_ERRORS):
        write_sweep_dir(tmp_path / f"n{i}", grid, {0.05: error})
        problem, _ = wl.check_sweep_dir(tmp_path / f"n{i}", grid)
        assert "names no gate" in problem
    write_sweep_dir(tmp_path / "b", grid, {}, collapse=False)
    problem, _ = wl.check_sweep_dir(tmp_path / "b", grid)
    assert "scaled_horizon_collapse" in problem


def test_sweep_grid_follows_seed_within_bands():
    assert wl.sweep_grid(5) == wl.sweep_grid(5)
    assert wl.sweep_grid(5) != wl.sweep_grid(6)
    for alpha, (lo, hi) in zip(wl.sweep_grid(5)["alpha"],
                               wl.SWEEP_ALPHA_BANDS):
        assert lo <= alpha <= hi
