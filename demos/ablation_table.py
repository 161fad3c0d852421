"""
Ablating the adaptation stages
==============================

Each stage of the method can be switched off independently: uncertainty
guidance (UG, an unsupervised loss on unlabeled target samples),
uncertainty sampling (US, spending the oracle budget), and certainty
sampling (CS, free pseudo labels). The standard five-row ablation adds
them one at a time, averaging over seeds.

This is the library-level version of ``evidunc ablate``; the command line
writes the same table to disk together with per-seed run directories.
"""

import numpy as np

from evidunc import ABLATION_ROWS, parse_config, run_rows

config = parse_config({
    "mode": "variance",
    "seeds": [0, 1, 2],
    "hidden_layers": [32, 32],
    "domain": {
        "num_classes": 5,
        "feature_dim": 2,
        "samples_per_domain": 600,
        "class_scale": 1.0,
        "shift_rotation_degrees": 26.0,
    },
    "train": {"epochs": 20, "batch_size": 32, "learning_rate": 0.05,
              "momentum": 0.9, "weight_decay": 0.001, "lr_schedule": "inverse-decay"},
    "loss": {"lambda_a": 0.1, "lambda_e": 1.0},
    "sampling": {"budget_fraction": 0.05},
})

# Rows with the same UG switch train identically up to the first sampling
# round, so run_rows trains that part once per seed, a chunk of seeds at a
# time in lockstep, and finishes each row from a copy; EVID_NUM_WORKERS caps
# its worker processes.
results = run_rows([config.with_switches(**flags) for _, flags in ABLATION_ROWS])

print(f"{'row':<12} {'mean':>7} {'std':>7}   per-seed final target accuracy")
for (name, _), reports in zip(ABLATION_ROWS, results):
    finals = [report.final_accuracy for report in reports]
    arr = np.asarray(finals)
    shown = ", ".join(f"{v:.3f}" for v in finals)
    print(f"{name:<12} {arr.mean():7.4f} {arr.std():7.4f}   [{shown}]")

# Typical picture: UG alone nudges accuracy, the oracle budget does the
# heavy lifting, and certainty sampling adds a little more at zero cost.
