"""Recover the exact decay by composing many short memoryless steps.

Feeding the system a fresh thermal environment qubit for each of n short
steps of size t/n defines a repeated-interaction approximation. Its
distance to the exact closed form falls off as 1/n: the composition
linearizes the decay factor (1 - gamma t / n)^n -> exp(-gamma t), so
halving the step size halves the error. The exact treatment used
everywhere else in the package is the n = 1 dilation with the full decay
probability, which is what the repeated interactions converge to.
"""
import numpy as np

from strongcouple import ExperimentConfig, iterate_map_check, markov_convergence, system_states

params = ExperimentConfig().params

print("composed steps vs closed form at t = 1:")
rows = markov_convergence(params, t=1.0,
                          step_counts=(10, 30, 100, 300, 1000, 3000))
for n, dev in rows:
    print(f"  n = {n:5d}   max deviation = {dev:.3e}   n * dev = {n * dev:.4f}")
print("  (n * dev approaching a constant is the 1/n signature)")

print()
print("doubling the step count halves the error:")
for n in (50, 100, 200, 400):
    dev = markov_convergence(params, t=1.0, step_counts=(n,))[0][1]
    print(f"  n = {n:4d}: {dev:.4e}")

# A single step is already accurate when the decay probability is small,
# which is the regime where a memoryless description is justified.
print()
print("single step at short times:")
for t in (0.001, 0.01, 0.1, 1.0):
    exact = system_states(params, t)
    one = iterate_map_check(params, t, 1)
    print(f"  t = {t:6.3f}: deviation {np.max(np.abs(one - exact)):.2e}")
