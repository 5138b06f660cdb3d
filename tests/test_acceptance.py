"""Acceptance gate: thirteen numbered criteria, one report line each.

Every test prints a [PASS]/[FAIL] line with the measured values before
asserting, so a failing run still documents what was observed. The
default-configuration run is shared by the criteria that inspect it and
its wall time is part of criterion 2.
"""

import math
import time

import numpy as np
import pytest

from strongcouple.channels import (GadcParams, apply_channel,
                                   environment_initial_state,
                                   environment_kraus, environment_states,
                                   joint_states,
                                   system_initial_state, system_kraus,
                                   system_state_from_dilation, system_states)
from strongcouple.experiment import ExperimentConfig, run
from strongcouple.firstlaw import _track, thermo_trajectory
from strongcouple.infomeasures import von_neumann_entropies
from strongcouple.spectra import eigh_stack
from strongcouple.validation import markov_convergence


@pytest.fixture(scope="module")
def default_run():
    config = ExperimentConfig()
    start = time.perf_counter()
    result = run(config)
    elapsed = time.perf_counter() - start
    return result, elapsed


def report(number, ok, detail):
    tag = "PASS" if ok else "FAIL"
    print(f"\n[{tag}] criterion {number}: {detail}")
    assert ok, f"criterion {number}: {detail}"


def test_criterion_01_thermal_weights():
    start = time.perf_counter()
    pr = GadcParams.from_inverse_temperature(alpha=1.0 / math.sqrt(2.0),
                                             beta=1.0)
    elapsed = time.perf_counter() - start
    ok = (0.7305 <= pr.w0 <= 0.7315 and pr.w1 == 1.0 - pr.w0
          and elapsed < 1e-3)
    report(1, ok, f"w0 = {pr.w0:.6f} in [0.7305, 0.7315], "
                  f"w1 = {pr.w1:.6f}, computed in {1e3 * elapsed:.3f} ms")


def test_criterion_02_asymptotic_heat(default_run):
    result, elapsed = default_run
    q_s = float(result.thermo_s.heat[-1])
    q_e = float(result.thermo_e.heat[-1])
    ok = (0.102 <= q_s <= 0.106 and -0.106 <= q_e <= -0.102
          and elapsed < 5.0)
    report(2, ok, f"Q_S(t_max) = {q_s:.6f}, Q_E(t_max) = {q_e:.6f} "
                  f"(target 0.104 +/- 0.002), run took {elapsed:.2f} s")


def test_criterion_03_zero_work(default_run):
    result, _ = default_run
    w_s = float(np.max(np.abs(result.thermo_s.work)))
    w_e = float(np.max(np.abs(result.thermo_e.work)))
    ok = w_s <= 1e-12 and w_e <= 1e-12
    report(3, ok, f"max |W_S| = {w_s:.2e}, max |W_E| = {w_e:.2e} "
                  f"(bound 1e-12)")


def test_criterion_04_energy_conservation(default_run):
    result, _ = default_run
    dev = float(np.max(np.abs(result.thermo_s.internal_energy_change
                              + result.thermo_e.internal_energy_change)))
    ok = dev <= 1e-10
    report(4, ok, f"max |dU_S + dU_E| = {dev:.2e} (bound 1e-10)")


def test_criterion_05_first_law_closure(default_run):
    """run()'s closure, and the halving rate of the generic route's."""
    result, _ = default_run
    res_s = result.thermo_s.max_closure_residual
    res_e = result.thermo_e.max_closure_residual
    pr = result.params

    def generic(states, n):
        times = np.linspace(0.0, 10.0, n)
        return thermo_trajectory(states(pr, times), times
                                 ).max_closure_residual

    ratio_s = generic(system_states, 1001) / generic(system_states, 2001)
    ratio_e = generic(environment_states, 1001) \
        / generic(environment_states, 2001)
    ok = (res_s <= 1e-4 and res_e <= 1e-4
          and 3.0 <= ratio_s <= 5.0 and 3.0 <= ratio_e <= 5.0)
    report(5, ok, f"closure {res_s:.2e} (system), {res_e:.2e} "
                  f"(environment) <= 1e-4; generic-route halving ratios "
                  f"{ratio_s:.2f}, {ratio_e:.2f} (expected ~4)")


def test_criterion_06_coherence_closed_forms(default_run):
    result, _ = default_run
    t = result.times
    dev_s = float(np.max(np.abs(result.info.coherence_s
                                - np.exp(-t / 2.0))))
    dev_e = float(np.max(np.abs(result.info.coherence_e
                                - np.sqrt(1.0 - np.exp(-t)))))
    ok = dev_s <= 1e-10 and dev_e <= 1e-10
    report(6, ok, f"l1 coherence vs exp(-t/2): {dev_s:.2e}; "
                  f"vs sqrt(1-exp(-t)): {dev_e:.2e} (bound 1e-10)")


def test_criterion_07_joint_entropy_constancy(default_run):
    result, _ = default_run
    pr = result.params
    s_env0 = float(von_neumann_entropies(environment_initial_state(pr)))
    series = von_neumann_entropies(joint_states(pr, result.times))
    drift = float(np.max(np.abs(series - series[0])))
    anchor = abs(float(series[0]) - s_env0)
    value = result.diagnostics["joint_entropy_unitary_family"]
    closed_form = float(np.max(np.abs(series - value)))
    ok = (drift <= 1e-10 and anchor <= 1e-10 and closed_form <= 1e-10
          and 0.835 <= value <= 0.845)
    report(7, ok, f"S[rho_SE] = {value:.6f} bits in 0.84 +/- 0.005, "
                  f"drift {drift:.2e}, offset from S[rho_E(0)] "
                  f"{anchor:.2e}, from the run's closed form "
                  f"{closed_form:.2e} (bounds 1e-10)")


def test_criterion_08_eigenvalue_closed_forms(default_run):
    result, _ = default_run
    pr = result.params
    times = result.times
    k = 2.0 * pr.w0 - 1.0
    g = np.exp(-times)
    d = 1.0 - g
    lam_s = 0.5 * np.column_stack([1.0 - np.sqrt(k * k * d * d + g),
                                   1.0 + np.sqrt(k * k * d * d + g)])
    lam_e = 0.5 * np.column_stack([1.0 - np.sqrt(k * k * g * g + d),
                                   1.0 + np.sqrt(k * k * g * g + d)])
    tracked_s, _ = _track(*eigh_stack(system_states(pr, times)), times)
    tracked_e, _ = _track(*eigh_stack(environment_states(pr, times)), times)
    dev_s = float(np.max(np.abs(tracked_s - lam_s)))
    dev_e = float(np.max(np.abs(tracked_e - lam_e)))
    ok = dev_s <= 1e-8 and dev_e <= 1e-8
    report(8, ok, f"tracked vs closed-form eigenvalues: system "
                  f"{dev_s:.2e}, environment {dev_e:.2e} (bound 1e-8)")


def test_criterion_09_negativity_endpoints_and_shape(default_run):
    result, _ = default_run
    neg = result.info.negativity
    peaks = int(result.diagnostics["negativity_peak_count"])
    ok = (neg[0] <= 1e-12 and neg[-1] <= 1e-3 and peaks == 1)
    report(9, ok, f"N(0) = {neg[0]:.1e} <= 1e-12, N(t_max) = "
                  f"{neg[-1]:.1e} <= 1e-3, interior maxima: {peaks} "
                  f"(peak {result.diagnostics['negativity_peak']:.4f} at "
                  f"t = {result.diagnostics['negativity_peak_time']:.3f})")


def test_criterion_10_proportionality(default_run):
    result, _ = default_run
    neg = result.info.negativity
    asym = result.info.heat_asymmetry
    mask = (neg > 1e-4) & (asym > 1e-4)
    ratio = asym[mask] / neg[mask]
    mean = float(np.mean(ratio))
    spread = float(np.max(np.abs(ratio - mean)) / abs(mean))
    ok = spread <= 0.05
    report(10, ok, f"Q_SE/N over {int(mask.sum())} points: mean "
                   f"{mean:.6f}, relative spread {100 * spread:.3f}% "
                   f"(bound 5%)")


def test_criterion_11_markov_limit(default_run):
    result, _ = default_run
    rows = markov_convergence(result.params, t=1.0,
                              step_counts=(10, 100, 1000))
    devs = [dev for _, dev in rows]
    r1 = devs[0] / devs[1]
    r2 = devs[1] / devs[2]
    ok = (devs[0] > devs[1] > devs[2] and devs[2] <= 1e-3
          and 5.0 <= r1 <= 20.0 and 5.0 <= r2 <= 20.0)
    report(11, ok, "deviation " + ", ".join(
        f"n={n}: {dev:.2e}" for n, dev in rows)
        + f"; decade ratios {r1:.1f}, {r2:.1f} (O(1/n))")


def test_criterion_12_channel_property_suite(rng):
    worst_trace = 0.0
    worst_psd = 0.0
    worst_complete = 0.0
    for _ in range(1000):
        pr = GadcParams(alpha=float(rng.uniform(0, 1)),
                        w0=float(rng.uniform(0, 1)))
        p = float(rng.uniform(0, 1))
        m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        rho = m @ m.conj().T
        rho /= np.trace(rho).real
        for channel in (system_kraus(pr, p), environment_kraus(pr, p)):
            total = sum(k.conj().T @ k for k in channel)
            worst_complete = max(worst_complete, float(
                np.max(np.abs(total - np.eye(2)))))
            out = apply_channel(channel, rho)
            worst_trace = max(worst_trace,
                              abs(float(np.trace(out).real) - 1.0))
            worst_psd = max(worst_psd,
                            -float(np.min(np.linalg.eigvalsh(out))))
    ok = (worst_trace <= 1e-10 and worst_psd <= 1e-10
          and worst_complete <= 1e-10)
    report(12, ok, f"1000 random inputs: trace dev {worst_trace:.2e}, "
                   f"PSD violation {worst_psd:.2e}, completeness dev "
                   f"{worst_complete:.2e} (bounds 1e-10)")


def test_criterion_13_consistency_triangle(rng):
    worst = 0.0
    for _ in range(20):
        pr = GadcParams(alpha=float(rng.uniform(0, 1)),
                        w0=float(rng.uniform(0, 1)))
        p = float(rng.uniform(0, 0.999))
        t = -math.log1p(-p)
        via_kraus = apply_channel(system_kraus(pr, p),
                                  system_initial_state(pr))
        via_dilation = system_state_from_dilation(pr, p)
        via_closed = system_states(pr, t)
        worst = max(worst,
                    float(np.max(np.abs(via_kraus - via_dilation))),
                    float(np.max(np.abs(via_kraus - via_closed))),
                    float(np.max(np.abs(via_dilation - via_closed))))
    ok = worst <= 1e-12
    report(13, ok, f"20 random (alpha, p, w0) triples, three routes: "
                   f"max entrywise deviation {worst:.2e} (bound 1e-12)")
