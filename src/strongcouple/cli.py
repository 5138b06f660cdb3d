"""Command-line interface: run, validate, sweep.

Exit codes: 0 on success, 2 for input problems (bad flags, malformed or
unknown configuration fields, unreadable files), 3 for numerical
failures (closure violations, integrity-check failures, failed
validation suites).

``run`` writes CSV tables, a pair of plotting scripts, and a manifest
with row counts and content hashes into the output directory. The CSV
files are deterministic: re-running the same configuration reproduces
them byte for byte. ``validate`` executes the built-in consistency
suites and prints one [PASS]/[FAIL] line per suite. ``sweep`` expands a
parameter grid into configurations and writes one summary row per run.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from . import channels as ch
from .errors import InputError, NumericalError, StrongcoupleError
from .experiment import (ExperimentConfig, IntegratorSettings, SweepSummary,
                         markov_convergence, run, sweep)
from .firstlaw import thermo_trajectory
from .infomeasures import proportionality_report
from .spectra import DensityOperator, eig_hermitian, partial_trace

_CONFIG_KEYS = {"alpha", "beta", "gamma", "t_max", "n_samples", "integrator"}
_INTEGRATOR_KEYS = {"endpoint_subdivision", "closure_tolerance"}
_GRID_KEYS = {"alpha", "beta", "gamma", "t_max", "gamma_t_max",
              "n_samples", "integrator"}


def _float_field(value, name):
    if isinstance(value, str) and value == "inf":
        return math.inf
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InputError(f"field '{name}' must be a number, got {value!r}")
    return float(value)


def _int_field(value, name):
    if isinstance(value, bool) or not isinstance(value, int):
        raise InputError(f"field '{name}' must be an integer, got {value!r}")
    return value


def _integrator_from_dict(data) -> IntegratorSettings:
    if not isinstance(data, dict):
        raise InputError("field 'integrator' must be an object")
    unknown = set(data) - _INTEGRATOR_KEYS
    if unknown:
        raise InputError(
            f"unknown integrator field '{sorted(unknown)[0]}'; "
            f"allowed: {sorted(_INTEGRATOR_KEYS)}")
    kwargs = {}
    if "endpoint_subdivision" in data:
        kwargs["endpoint_subdivision"] = _int_field(
            data["endpoint_subdivision"], "endpoint_subdivision")
    if "closure_tolerance" in data:
        kwargs["closure_tolerance"] = _float_field(
            data["closure_tolerance"], "closure_tolerance")
    return IntegratorSettings(**kwargs)


def config_from_dict(data) -> ExperimentConfig:
    """Build a validated run configuration from parsed JSON."""
    if not isinstance(data, dict):
        raise InputError("configuration must be a JSON object")
    unknown = set(data) - _CONFIG_KEYS
    if unknown:
        raise InputError(f"unknown config field '{sorted(unknown)[0]}'; "
                         f"allowed: {sorted(_CONFIG_KEYS)}")
    kwargs = {}
    for name in ("alpha", "beta", "gamma", "t_max"):
        if name in data:
            kwargs[name] = _float_field(data[name], name)
    if "n_samples" in data:
        kwargs["n_samples"] = _int_field(data["n_samples"], "n_samples")
    if "integrator" in data:
        kwargs["integrator"] = _integrator_from_dict(data["integrator"])
    config = ExperimentConfig(**kwargs)
    config.validate()
    return config


def _load_json(path: Path):
    try:
        text = path.read_text()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"{path} is not valid JSON: {exc}") from exc


def _fmt(value) -> str:
    if isinstance(value, str):
        return value.replace(",", ";")
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".12g")


def _write_csv(path: Path, header, rows) -> dict:
    lines = [",".join(header)]
    count = 0
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
        count += 1
    blob = ("\n".join(lines) + "\n").encode()
    path.write_bytes(blob)
    return {"rows": count, "sha256": hashlib.sha256(blob).hexdigest()}


def _config_as_dict(config: ExperimentConfig) -> dict:
    return {
        "alpha": config.alpha,
        "beta": "inf" if math.isinf(config.beta) else config.beta,
        "gamma": config.gamma,
        "t_max": config.t_max,
        "n_samples": int(config.n_samples),
        "integrator": {
            "endpoint_subdivision": int(config.integrator.endpoint_subdivision),
            "closure_tolerance": config.integrator.closure_tolerance,
        },
    }


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
    (out_dir / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n")


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
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    started = time.perf_counter()
    result = run(config)
    outputs = {}

    if result.thermo_s is not None:
        for name, traj in (("thermo_system.csv", result.thermo_s),
                           ("thermo_environment.csv", result.thermo_e)):
            rows = zip(traj.times, traj.work, traj.heat,
                       traj.coherent_energy, traj.internal_energy_change)
            outputs[name] = _write_csv(out_dir / name,
                                       ("t", "W", "Q", "C", "dU"), rows)
    if result.info is not None:
        info = result.info
        rows = zip(info.times, info.entropy_s, info.entropy_e,
                   info.coherence_s, info.coherence_e,
                   info.negativity, info.mutual_information,
                   info.heat_asymmetry)
        outputs["info_measures.csv"] = _write_csv(
            out_dir / "info_measures.csv",
            ("t", "entropy_system", "entropy_environment",
             "coherence_system", "coherence_environment", "negativity",
             "mutual_information", "heat_asymmetry"), rows)
    if result.diagnostics:
        rows = sorted(result.diagnostics.items())
        outputs["diagnostics.csv"] = _write_csv(
            out_dir / "diagnostics.csv", ("metric", "value"), rows)

    (out_dir / "plot_thermo.py").write_text(_PLOT_THERMO)
    (out_dir / "plot_info.py").write_text(_PLOT_INFO)
    _write_manifest(out_dir, "run", _config_as_dict(config), outputs,
                    time.perf_counter() - started)
    print(f"run complete: {len(outputs)} tables in {out_dir}")
    return 0


def _expand_grid(data) -> list:
    if not isinstance(data, dict):
        raise InputError("grid must be a JSON object")
    unknown = set(data) - _GRID_KEYS
    if unknown:
        raise InputError(f"unknown grid field '{sorted(unknown)[0]}'; "
                         f"allowed: {sorted(_GRID_KEYS)}")
    if "t_max" in data and "gamma_t_max" in data:
        raise InputError("grid accepts either 't_max' or 'gamma_t_max', not both")

    def axis(name, default):
        if name not in data:
            return [default]
        value = data[name]
        if isinstance(value, list):
            if not value:
                raise InputError(f"grid field '{name}' must not be empty")
            return [_float_field(v, name) for v in value]
        return [_float_field(value, name)]

    base = ExperimentConfig()
    alphas = axis("alpha", base.alpha)
    betas = axis("beta", base.beta)
    gammas = axis("gamma", base.gamma)
    n_samples = _int_field(data.get("n_samples", base.n_samples), "n_samples")
    integrator = _integrator_from_dict(data["integrator"]) \
        if "integrator" in data else base.integrator

    configs = []
    for a in alphas:
        for b in betas:
            for g in gammas:
                if "gamma_t_max" in data:
                    t_max = _float_field(data["gamma_t_max"],
                                         "gamma_t_max") / g
                else:
                    t_max = _float_field(data.get("t_max", base.t_max),
                                         "t_max")
                cfg = ExperimentConfig(alpha=a, beta=b, gamma=g, t_max=t_max,
                                       n_samples=n_samples,
                                       integrator=integrator)
                cfg.validate()
                configs.append(cfg)
    return configs


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
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    started = time.perf_counter()
    rows = sweep(configs)
    header = tuple(f.name for f in dataclasses.fields(SweepSummary))
    outputs = {"summary.csv": _write_csv(
        out_dir / "summary.csv", header,
        (tuple(getattr(r, name) for name in header) for r in rows))}

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


def _suite_kraus_completeness():
    worst = 0.0
    rng = np.random.default_rng(7)
    for _ in range(25):
        pr = ch.GadcParams(alpha=float(rng.uniform(0, 1)),
                           w0=float(rng.uniform(0, 1)),
                           p=float(rng.uniform(0, 1)))
        for channel in (ch.system_kraus(pr), ch.environment_kraus(pr)):
            total = sum(k.conj().T @ k for k in channel.operators)
            worst = max(worst, float(np.max(np.abs(total - np.eye(2)))))
    return worst <= 1e-12, f"max |sum K^+K - I| = {worst:.2e}"


def _suite_channel_preserves_states():
    rng = np.random.default_rng(11)
    worst_trace, worst_eig = 0.0, 0.0
    for _ in range(50):
        pr = ch.GadcParams(alpha=float(rng.uniform(0, 1)),
                           w0=float(rng.uniform(0, 1)),
                           p=float(rng.uniform(0, 1)))
        m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        rho = m @ m.conj().T
        rho /= np.trace(rho).real
        out = ch.apply_channel(ch.system_kraus(pr), DensityOperator(rho))
        worst_trace = max(worst_trace,
                          abs(float(np.trace(out.matrix).real) - 1.0))
        worst_eig = max(worst_eig,
                        max(0.0, -float(eig_hermitian(out).eigenvalues[0])))
    ok = worst_trace <= 1e-12 and worst_eig <= 1e-12
    return ok, f"trace dev {worst_trace:.2e}, negative part {worst_eig:.2e}"


def _suite_route_consistency():
    from .experiment import _route_consistency
    worst = _route_consistency(ch.GadcParams(alpha=0.5, w0=0.7), n_triples=20)
    return worst <= 1e-12, f"max route deviation {worst:.2e}"


def _suite_marginals():
    pr = ExperimentConfig().params
    worst = 0.0
    for t in np.linspace(0.0, 10.0, 41):
        joint = ch.joint_state_closed_form(pr, t)
        ds = partial_trace(joint, keep=0, dims=(2, 2)).matrix \
            - ch.system_state(pr, t).matrix
        de = partial_trace(joint, keep=1, dims=(2, 2)).matrix \
            - ch.environment_state(pr, t).matrix
        worst = max(worst, float(np.max(np.abs(ds))),
                    float(np.max(np.abs(de))))
    return worst <= 1e-12, f"max marginal deviation {worst:.2e}"


def _suite_unitarity():
    worst_u = 0.0
    for p in np.linspace(0.0, 1.0, 100):
        u = ch.gadc_unitary(p)
        worst_u = max(worst_u,
                      float(np.max(np.abs(u @ u.conj().T - np.eye(4)))))
    pr = ExperimentConfig().params
    lam0 = eig_hermitian(ch.joint_state(pr, 0.0)).eigenvalues
    drift = max(float(np.max(np.abs(
        eig_hermitian(ch.joint_state(pr, t)).eigenvalues - lam0)))
        for t in np.linspace(0.0, 10.0, 41))
    ok = worst_u <= 1e-12 and drift <= 1e-12
    return ok, f"unitarity dev {worst_u:.2e}, joint spectrum drift {drift:.2e}"


@functools.lru_cache(maxsize=1)
def _default_run():
    """One shared default run for the suites that inspect it.

    The run is deterministic, so sharing it between suites changes
    nothing but the wall time.
    """
    return run(ExperimentConfig())


def _suite_first_law():
    result = _default_run()
    d = result.diagnostics
    ok = (d["closure_system_max"] <= 1e-6
          and d["closure_environment_max"] <= 1e-4
          and d["work_system_max_abs"] <= 1e-12
          and d["energy_balance_max"] <= 1e-10)
    return ok, (f"closure {d['closure_system_max']:.2e}/"
                f"{d['closure_environment_max']:.2e}, "
                f"work {d['work_system_max_abs']:.2e}, "
                f"balance {d['energy_balance_max']:.2e}")


def _suite_closure_refinement():
    pr = ExperimentConfig().params
    h = ch.environment_hamiltonian(pr)
    states = functools.partial(ch.environment_states, pr)
    residuals = []
    for n in (1001, 2001):
        traj = thermo_trajectory(h, states, np.linspace(0.0, 10.0, n))
        residuals.append(traj.max_closure_residual)
    ratio = residuals[0] / residuals[1]
    return 3.0 <= ratio <= 5.0, (
        f"residual ratio {ratio:.2f} on grid halving "
        f"({residuals[0]:.2e} -> {residuals[1]:.2e})")


def _suite_mutation_control():
    """Negative control: a deliberately mismatched dilation must be caught.

    Replacing the decay probability by its complement keeps the dilation
    unitary but breaks agreement with the Kraus route, so the route
    comparison must report a large deviation. Passing here means the
    consistency checks have teeth.
    """
    pr = ch.GadcParams(alpha=0.6, w0=0.7, p=0.3)
    u = ch.gadc_unitary(1.0 - pr.p)
    unitary_dev = float(np.max(np.abs(u @ u.conj().T - np.eye(4))))
    joint = u @ ch.joint_initial_state(pr).matrix @ u.conj().T
    mutated = partial_trace(DensityOperator(joint), keep=0, dims=(2, 2))
    honest = ch.apply_channel(ch.system_kraus(pr), ch.system_initial_state(pr))
    dev = float(np.max(np.abs(mutated.matrix - honest.matrix)))
    ok = unitary_dev <= 1e-12 and dev > 1e-2
    return ok, (f"mutated route still unitary ({unitary_dev:.2e}) "
                f"but deviates by {dev:.3f} as required")


def _suite_closure_gate():
    """Negative control: a coarse grid must trip the closure tolerance."""
    pr = ExperimentConfig().params
    h = ch.environment_hamiltonian(pr)
    try:
        thermo_trajectory(h, functools.partial(ch.environment_states, pr),
                          np.linspace(0.0, 10.0, 101),
                          closure_tolerance=1e-8)
    except NumericalError as exc:
        return True, f"coarse grid rejected as expected ({exc})"
    return False, "coarse grid with tight tolerance was not rejected"


def _suite_reference_values():
    """Characteristic numbers of the default configuration.

    Anchors: the thermal ground population ``1/(1 + e^-1)``, its binary
    entropy as the conserved joint entropy, and the long-time system
    heat, which the closed forms put near ``0.1035`` for this setup.
    """
    result = _default_run()
    d = result.diagnostics
    w0 = result.params.w0
    q_final = d["heat_system_final"]
    s_joint = d["joint_entropy_unitary_family"]
    ok = (abs(w0 - 0.7310585786) <= 1e-9
          and abs(q_final - 0.1035) <= 1e-3
          and abs(s_joint - 0.8399) <= 1e-3)
    return ok, (f"w0 = {w0:.8f}, final Q_S = {q_final:.4f}, "
                f"joint entropy = {s_joint:.4f} bits")


def _suite_negativity_shape():
    result = _default_run()
    d = result.diagnostics
    neg0 = float(result.info.negativity[0])
    ok = (neg0 <= 1e-12
          and d["negativity_peak_count"] == 1.0
          and d["negativity_final"] <= 1e-3
          and 0.0 < d["negativity_peak_time"] < result.config.t_max)
    return ok, (f"N(0) = {neg0:.1e}, single peak {d['negativity_peak']:.4f} "
                f"at t = {d['negativity_peak_time']:.3f}, "
                f"N(t_max) = {d['negativity_final']:.1e}")


def _suite_proportionality():
    result = _default_run()
    info = result.info
    report = proportionality_report(info.heat_asymmetry, info.negativity,
                                    5e-3)
    ok = report.max_relative_spread <= 0.05
    return ok, (f"ratio mean {report.ratio_mean:.4f}, spread "
                f"{100 * report.max_relative_spread:.2f}% over "
                f"{report.mask_count} points")


def _suite_markov():
    rows = markov_convergence(ExperimentConfig().params)
    devs = [dev for _, dev in rows]
    monotone = all(d1 > d2 for d1, d2 in zip(devs, devs[1:]))
    ok = monotone and devs[-1] <= 1e-3
    detail = ", ".join(f"n={n}: {dev:.2e}" for n, dev in rows)
    return ok, detail


_SUITES = [
    ("kraus completeness", _suite_kraus_completeness),
    ("channel preserves states", _suite_channel_preserves_states),
    ("route consistency", _suite_route_consistency),
    ("closed-form marginals", _suite_marginals),
    ("dilation unitarity and spectrum", _suite_unitarity),
    ("first-law closure", _suite_first_law),
    ("closure refinement rate", _suite_closure_refinement),
    ("mutation control", _suite_mutation_control),
    ("closure gate control", _suite_closure_gate),
    ("reference values", _suite_reference_values),
]

_STRICT_SUITES = [
    ("negativity shape", _suite_negativity_shape),
    ("asymmetry-negativity proportionality", _suite_proportionality),
    ("markov limit", _suite_markov),
]


def _cmd_validate(args) -> int:
    suites = list(_SUITES)
    if args.strict:
        suites += _STRICT_SUITES
    failures = 0
    for name, fn in suites:
        try:
            ok, detail = fn()
        except StrongcoupleError as exc:
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        tag = "PASS" if ok else "FAIL"
        print(f"[{tag}] {name}: {detail}")
        failures += 0 if ok else 1
    total = len(suites)
    print(f"{total - failures}/{total} suites passed")
    return 0 if failures == 0 else 3


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
