"""
Checking the covariance decomposition by simulation
===================================================

The closed-form covariance split can be checked against brute force: draw
class probabilities from the Dirichlet, draw labels from those
probabilities, and measure the three covariance layers empirically. The
law of total covariance says the label covariance is the mean
within-draw covariance plus the covariance of the means.
"""

import numpy as np

from evidunc import covariance_batch

rng = np.random.default_rng(42)
alpha = np.array([2.0, 3.0, 5.0])
draws = 200_000

# Bi-level sampling: mu ~ Dirichlet(alpha) via normalized gammas, then a
# one-hot label per mu.
gamma = rng.standard_gamma(alpha, size=(draws, alpha.size))
mu = gamma / gamma.sum(axis=1, keepdims=True)
u = rng.random(draws)
labels = (u[:, None] >= np.cumsum(mu, axis=1)).sum(axis=1)
onehot = np.zeros((draws, alpha.size))
onehot[np.arange(draws), labels] = 1.0

empirical_total = np.cov(onehot.T, ddof=1)
empirical_aleatoric = np.diag(mu.mean(axis=0)) - mu.T @ mu / draws
empirical_epistemic = np.cov(mu.T, ddof=1)

# One prediction is a one-row alpha matrix for the batch kernel.
closed_total, closed_aleatoric, closed_epistemic, _ = (
    m[0] for m in covariance_batch(alpha[None, :])
)

np.set_printoptions(precision=4, suppress=True)
for name, emp, ref in (
    ("total", empirical_total, closed_total),
    ("aleatoric", empirical_aleatoric, closed_aleatoric),
    ("epistemic", empirical_epistemic, closed_epistemic),
):
    gap = np.abs(emp - ref).max()
    print(f"{name:9s} closed form:\n{ref}")
    print(f"{name:9s} simulated, max entry gap {gap:.1e}:\n{emp}\n")

# The two empirical pieces reassemble the empirical total up to sampling
# noise, mirroring the exact identity of the closed forms.
recon = np.abs(empirical_total - (empirical_aleatoric + empirical_epistemic)).max()
print(f"empirical total vs aleatoric + epistemic: max gap {recon:.1e}")
exact = np.abs(closed_total - (closed_aleatoric + closed_epistemic)).max()
print(f"closed-form identity residual: {exact:.1e}")
