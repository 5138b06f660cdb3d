"""Entropies, coherences, and mutual information along the decay.

The run tracks two bookkeeping families for the joint state. A true
unitary dilation keeps the joint spectrum, and hence the joint entropy,
exactly constant; a closed-form variant reproduces both marginals
exactly at every time but lets the joint entropy drift. The package
computes the marginal quantities and the mutual information
S_s + S_e - S_se from the closed-form family, all three entropies of one
state. It records the unitary family's joint entropy, which a run takes
in closed form as S[rho_E(0)]. The demo diagonalises the unitary family
on the run's grid to show that this entropy stays constant, next to the
drift the run reports for the closed-form family.
"""
import numpy as np

from strongcouple import (ExperimentConfig, joint_states, run,
                          von_neumann_entropies)

result = run(ExperimentConfig())
info = result.info
d = result.diagnostics
t = result.times

print("      t     S_s      S_e      C_s      C_e      I(S:E)")
for t_ref in (0.0, 0.3, 0.7, 1.5, 3.0, 10.0):
    i = int(np.argmin(np.abs(t - t_ref)))
    print(f"  {t[i]:6.2f}  {info.entropy_s[i]:.4f}   {info.entropy_e[i]:.4f}"
          f"   {info.coherence_s[i]:.4f}   {info.coherence_e[i]:.4f}"
          f"   {info.mutual_information[i]:.4f}")

print()
print("closed-form checks: C_s = exp(-t/2), C_e = sqrt(1 - exp(-t))")
dev_s = np.max(np.abs(info.coherence_s - np.exp(-t / 2.0)))
dev_e = np.max(np.abs(info.coherence_e - np.sqrt(1.0 - np.exp(-t))))
print(f"  max deviations {dev_s:.2e}, {dev_e:.2e}")

print()
print("two-family bookkeeping:")
s_joint = von_neumann_entropies(joint_states(result.params, t))
print(f"  joint entropy (unitary family)      "
      f"{d['joint_entropy_unitary_family']:.6f} bits, drift "
      f"{np.max(np.abs(s_joint - s_joint[0])):.2e}")
print(f"  joint entropy drift (closed forms)  "
      f"{d['entropy_drift_closed_form_family']:.2e}"
      "  <- price of exact marginals")

# S_s + S_e depends on time only through u = g (1 - g), as the
# negativity does, so the two local entropy rates cancel where the
# negativity peaks, gamma t = ln 2. They are read by central differences
# at the interior grid point nearest that peak; their sum is off zero by
# the grid's distance from it.
rate_s = np.gradient(info.entropy_s, t)
rate_e = np.gradient(info.entropy_e, t)
i = 1 + int(np.argmin(np.abs(t[1:-1] - d["negativity_peak_time"])))
print()
print(f"entropy rates at t = {t[i]:.3f}: dS_s/dt = {rate_s[i]:+.3f}, "
      f"dS_e/dt = {rate_e[i]:+.3f} (sum {rate_s[i] + rate_e[i]:+.3f})")
