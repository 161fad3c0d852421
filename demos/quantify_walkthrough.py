"""
Quantifying uncertainty for Dirichlet predictions
=================================================

An evidential classifier emits one alpha vector per sample. Everything
this library reports about a sample derives from that vector. This
walkthrough stacks three hand-picked alphas into one (3, C) matrix, runs
each batch kernel once on it, and shows the numbers that come out row by
row.
"""

import numpy as np

from evidunc import (
    checked_alpha,
    class_variances_batch,
    covariance_batch,
    entropy_uncertainties_batch,
    predict_class_batch,
    variance_uncertainties_batch,
)

np.set_printoptions(precision=4, suppress=True)

# Three regimes: confident (lots of evidence for one class), conflicted
# (evidence split between two classes), and ignorant (no evidence beyond
# the uniform prior).
cases = {
    "confident": (20.0, 1.0, 1.0),
    "conflicted": (8.0, 8.0, 1.0),
    "ignorant": (1.0, 1.0, 1.0),
}
alpha = checked_alpha(list(cases.values()))

predicted = predict_class_batch(alpha)
# The variance view splits the predictive covariance into an aleatoric
# part (data noise, stays as evidence grows) and an epistemic part
# (missing evidence, shrinks like 1/(alpha0+1)).
var_total, var_aleatoric, var_epistemic = variance_uncertainties_batch(alpha)
class_total = class_variances_batch(alpha)[0]
# The entropy view decomposes expected Shannon entropy the same way.
ent_total, ent_aleatoric, ent_epistemic = entropy_uncertainties_batch(alpha)
# Off-diagonal covariance says which classes compete for probability
# mass. For the conflicted alpha the first two classes are strongly
# anti-correlated: mass granted to one is taken from the other.
correlation = covariance_batch(alpha)[3]

for i, (name, values) in enumerate(cases.items()):
    print(f"--- {name}: alpha = {values}, predicted class {predicted[i]}")
    print(f"variance  total {var_total[i]:.4f} = "
          f"aleatoric {var_aleatoric[i]:.4f} + epistemic {var_epistemic[i]:.4f}")
    print(f"per class total variance: {class_total[i]}")
    print(f"entropy   total {ent_total[i]:.4f} = "
          f"aleatoric {ent_aleatoric[i]:.4f} + epistemic {ent_epistemic[i]:.4f}")
    print(f"class correlation matrix:\n{correlation[i]}\n")

# The ratio aleatoric/epistemic equals the Dirichlet strength exactly, so
# evidence strength can be read off the split itself. One prediction is a
# one-row matrix.
alpha = checked_alpha([(2.0, 3.0, 5.0)])
_, aleatoric, epistemic = variance_uncertainties_batch(alpha)
print(f"alpha = (2, 3, 5): aleatoric/epistemic = "
      f"{aleatoric[0] / epistemic[0]:.1f}, strength = {alpha.sum():.1f}")
