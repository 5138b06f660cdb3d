"""Split the energy change of a decaying qubit into work, heat, and a
coherent remainder.

A qubit prepared in an equal superposition relaxes toward a thermal
environment qubit it exchanges a single excitation with. Both local
Hamiltonians are static, so no work is ever done; the interesting split
is between heat (population transfer) and coherent energy (rotation of
the state eigenbasis away from the energy eigenbasis). The two ledgers
close against the exact internal energy change, and the system and
environment changes cancel because the pair conserves total energy.

Run from the repository root after installing the package:

    python3 demos/demo_first_law_decomposition.py
"""
import numpy as np

from strongcouple import (ExperimentConfig, GadcParams,
                          qubit_thermo_trajectory, run, system_bloch)
from strongcouple.channels import QUBIT_HAMILTONIAN

result = run(ExperimentConfig())
t = result.times
sysled, envled = result.thermo_s, result.thermo_e

print("First-law split for the default configuration")
print(f"  alpha = {result.config.alpha:.6f}, beta = {result.config.beta},"
      f" w0 = {result.params.w0:.6f}")
print()
print("        t      Q_S        C_S        dU_S       Q_E        C_E")
for t_ref in (0.25, 0.5, 1.0, 2.0, 5.0, 10.0):
    i = int(np.argmin(np.abs(t - t_ref)))
    print(f"  {t[i]:7.2f}  {sysled.heat[i]:+.6f}  "
          f"{sysled.coherent_energy[i]:+.6f}  "
          f"{sysled.internal_energy_change[i]:+.6f}  "
          f"{envled.heat[i]:+.6f}  {envled.coherent_energy[i]:+.6f}")

print()
print(f"max |W| over both ledgers: "
      f"{max(np.max(np.abs(sysled.work)), np.max(np.abs(envled.work))):.2e}"
      " (static Hamiltonians do no work)")
print(f"max |dU_S + dU_E|: "
      f"{np.max(np.abs(sysled.internal_energy_change + envled.internal_energy_change)):.2e}"
      " (total energy conserved)")
print(f"worst closure residual |dU - (W + Q + C)|: "
      f"{max(sysled.max_closure_residual, envled.max_closure_residual):.2e}")

# The coherent ledger exists only because the initial state carries
# coherence. Diagonal initial states, alpha in {0, 1}, shut it off.
print()
print("coherent energy needs initial coherence:")
for alpha in (0.0, 1.0 / np.sqrt(2.0), 1.0):
    pr = GadcParams(alpha=alpha, w0=result.params.w0)
    ledger = qubit_thermo_trajectory(
        QUBIT_HAMILTONIAN, system_bloch(pr, np.linspace(0.0, 10.0, 2001)))
    c_max = float(np.max(np.abs(ledger.coherent_energy)))
    print(f"  alpha = {alpha:.4f}: max |C_S| = {c_max:.3e}")
