"""Golden digests: the bytes of the CLI's outputs, pinned.

Each entry of ``golden.json`` is the sha256 of one output of the CLI
or of a demo: the default ``run``'s four CSVs and two plot scripts, its
manifest less ``wall_time_seconds``, the ``validate`` text, the
sweep summary on the 27-point alpha x beta x gamma grid for three seeds
and, for the first seed, on one fixed ``t_max`` in place of
``gamma_t_max``, and the stdout of the heat-asymmetry demo. The digests
depend on the numpy version and the platform's libm, so the file records
the numpy version they were taken with, and a mismatch names both
versions.

A change that alters an output on purpose rewrites the file with
``PYTHONPATH=src python tests/test_golden.py``, which prints ``name: old
-> new`` for each digest it changes and nothing when none does, and
records those lines.
"""

import contextlib
import hashlib
import io
import json
import random
import runpy
from pathlib import Path

import numpy as np
import pytest

from strongcouple import validation
from strongcouple.cli import main

GOLDEN = Path(__file__).with_name("golden.json")
RUN_FILES = ("thermo_system.csv", "thermo_environment.csv",
             "info_measures.csv", "diagnostics.csv", "plot_thermo.py",
             "plot_info.py")
SWEEP_SEEDS = (1, 2, 3)
DEMO = (Path(__file__).resolve().parent.parent / "demos"
        / "demo_heat_asymmetry_negativity.py")


def _sha256(blob: bytes) -> str:
    return hashlib.sha256(blob).hexdigest()


def sweep_grid(seed: int) -> dict:
    """The 27-point sweep grid of the benchmark's ``sweep27`` workload:
    one alpha drawn from each band, rounded so that the summary repeats
    it exactly, three betas and three gammas on a horizon of gamma t =
    5 at 501 points."""
    rng = random.Random(seed)
    return {"alpha": [round(rng.uniform(lo, hi), 4)
                      for lo, hi in ((0.25, 0.4), (0.6, 0.8), (0.9, 0.97))],
            "beta": [0.05, 1.0, "inf"], "gamma": [0.5, 1.0, 4.0],
            "gamma_t_max": 5.0, "n_samples": 501}


def digests(work: Path) -> dict:
    """The sha256 of every pinned output, by name; CLI chatter on stdout
    is discarded except for ``validate``'s and the demo's."""
    out = {}
    run_dir = work / "run"
    assert main(["run", "--out", str(run_dir)]) == 0
    for name in RUN_FILES:
        out[f"run/{name}"] = _sha256((run_dir / name).read_bytes())
    manifest = json.loads((run_dir / "manifest.json").read_text())
    del manifest["wall_time_seconds"]
    out["run/manifest.json"] = _sha256(
        json.dumps(manifest, indent=2, sort_keys=True).encode())
    for seed in SWEEP_SEEDS:
        grid = work / f"grid{seed}.json"
        grid.write_text(json.dumps(sweep_grid(seed)))
        sweep_dir = work / f"sweep{seed}"
        assert main(["sweep", "--grid", str(grid),
                     "--out", str(sweep_dir)]) == 0
        out[f"sweep27/seed{seed}/summary.csv"] = _sha256(
            (sweep_dir / "summary.csv").read_bytes())
    # each of the 27 rows on one t_max is a series of its own, and rows
    # that differ only in gamma share their Bloch coefficients
    grid = dict(sweep_grid(SWEEP_SEEDS[0]), t_max=5.0)
    del grid["gamma_t_max"]
    (work / "grid_t_max.json").write_text(json.dumps(grid))
    assert main(["sweep", "--grid", str(work / "grid_t_max.json"),
                 "--out", str(work / "sweep_t_max")]) == 0
    out["sweep_t_max/summary.csv"] = _sha256(
        (work / "sweep_t_max" / "summary.csv").read_bytes())
    with contextlib.redirect_stdout(io.StringIO()) as text:
        runpy.run_path(str(DEMO), run_name="__main__")
    out[f"demos/{DEMO.name}"] = _sha256(text.getvalue().encode())
    return out


def _validate_text(capsys) -> str:
    # validate caches its default run per process; an earlier test's
    # fault must not reach the digest
    validation._default_run.cache_clear()
    capsys.readouterr()
    assert main(["validate"]) == 0
    return capsys.readouterr().out


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_outputs_match_golden_digests(golden, tmp_path, capsys):
    actual = digests(tmp_path)
    actual["validate"] = _sha256(_validate_text(capsys).encode())
    changed = sorted(name for name in golden["sha256"]
                     if actual.get(name) != golden["sha256"][name])
    assert set(actual) == set(golden["sha256"])
    assert not changed, (
        f"outputs changed: {changed}; digests recorded with numpy "
        f"{golden['numpy']}, running numpy {np.__version__}")


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp, \
            contextlib.redirect_stdout(io.StringIO()) as text:
        table = digests(Path(tmp))
        text.truncate(0)
        text.seek(0)
        main(["validate"])
    table["validate"] = _sha256(text.getvalue().encode())
    # the old -> new record of each changed digest; silent when none is
    before = json.loads(GOLDEN.read_text())["sha256"]
    for name in sorted(before.keys() | table.keys()):
        if before.get(name) != table.get(name):
            print(f"{name}: {before.get(name)} -> {table.get(name)}")
    GOLDEN.write_text(json.dumps({"numpy": np.__version__,
                                  "sha256": table}, indent=2,
                                 sort_keys=True) + "\n")
