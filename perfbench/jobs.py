"""Workload definitions: what each workload runs and the inputs it gets.

A job is a plain JSON-ready dict built from the workload name and the
workload seed. The program never sees the workload seed: it receives only
the config documents, program seeds and alpha files derived from it here.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

# Why each workload exists; BENCHMARK.json carries the same lines.
WORKLOADS = {
    "desk_seed": "one seed of the acceptance desk study with +UG+US+CS: the SGD hot path "
    "(special functions, loss kernels, forward/backward, update)",
    "ablate_grid": "the 5-row ablate grid over 2 seeds through the CLI: process pools, "
    "shared training prefixes, rows without UG, output writing",
    "quantify_file": "quantify on a file of 10-class alphas: per-record dirichlet kernels, "
    "JSON encoding and output writing, no training",
    "pool_rounds": "5 selection rounds on a 50k-sample pool with an untrained model: "
    "acquisition, sampling, special on large arrays, auroc",
}

# The desk-scale study of the acceptance suite (criteria 7 to 9): five
# classes in two dimensions, 26 degree rotation shift, 2000 samples per
# domain, 20 epochs, 5% oracle budget over five rounds.
DESK_DOCUMENT = {
    "mode": "variance",
    "hidden_layers": [64, 64],
    "domain": {
        "num_classes": 5,
        "feature_dim": 2,
        "samples_per_domain": 2000,
        "class_scale": 1.0,
        "shift_rotation_degrees": 26.0,
    },
    "train": {
        "epochs": 20,
        "batch_size": 32,
        "learning_rate": 0.05,
        "momentum": 0.9,
        "weight_decay": 0.001,
        "lr_schedule": "inverse-decay",
    },
    "loss": {"lambda_a": 0.1, "lambda_e": 1.0},
    "sampling": {"budget_fraction": 0.05},
    "ablation": {"ug": True, "us": True, "cs": True},
}

DESK_SEEDS = 8  # desk_seed cycles through these, so seeds repeat within a run
ABLATE_SEEDS = 2
QUANTIFY_RECORDS = 1000
QUANTIFY_CLASSES = 10
POOL = {
    "samples_per_domain": 50000,
    "num_classes": 10,
    "feature_dim": 8,
    "shift_rotation_degrees": 26.0,
    "hidden": [64, 64],
    "rounds": 5,
    "budget_fraction": 0.05,
    "kappa": 10,
    "mode": "entropy",
}

# Toy sizes for the benchmark's self-test only.
TOY_SAMPLES = 200
TOY_RECORDS = 20
TOY_POOL_SAMPLES = 500


def program_seeds(workload: str, seed: int, count: int) -> list:
    """Distinct nonnegative program seeds derived from the workload seed."""
    rng = np.random.default_rng([seed, list(WORKLOADS).index(workload)])
    seeds = []
    while len(seeds) < count:
        s = int(rng.integers(0, 2**31))
        if s not in seeds:
            seeds.append(s)
    return seeds


def _desk_document(seeds, toy):
    document = json.loads(json.dumps(DESK_DOCUMENT))
    document["seeds"] = seeds
    if toy:
        document["domain"]["samples_per_domain"] = TOY_SAMPLES
    return document


def make_job(workload: str, seed: int, toy: bool = False) -> dict:
    """Everything the workload process and the checker need, as plain data."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {sorted(WORKLOADS)}")
    job = {"workload": workload, "seed": seed, "toy": toy}
    if workload == "desk_seed":
        job["document"] = _desk_document(program_seeds(workload, seed, DESK_SEEDS), toy)
    elif workload == "ablate_grid":
        document = _desk_document(program_seeds(workload, seed, ABLATE_SEEDS), toy)
        del document["ablation"]  # the grid sets every row's switches itself
        job["document"] = document
    elif workload == "quantify_file":
        job["records"] = TOY_RECORDS if toy else QUANTIFY_RECORDS
        job["classes"] = QUANTIFY_CLASSES
    else:
        params = dict(POOL)
        if toy:
            params["samples_per_domain"] = TOY_POOL_SAMPLES
        params["data_seed"], params["init_seed"], params["order_seed"] = program_seeds(
            workload, seed, 3)
        job["pool"] = params
    return job


def quantify_alphas(job: dict) -> np.ndarray:
    """The alpha matrix the quantify_file workload feeds the program."""
    rng = np.random.default_rng([job["seed"], list(WORKLOADS).index("quantify_file")])
    return np.exp(rng.uniform(-2.0, 2.5, size=(job["records"], job["classes"])))


def write_inputs(job: dict, tmp: Path) -> None:
    """Write the job's input files under tmp and record their paths in it."""
    if "document" in job:
        document = dict(job["document"], output_dir=str(tmp / "out"))
        job["config_path"] = str(tmp / "config.json")
        Path(job["config_path"]).write_text(json.dumps(document, indent=2))
    if job["workload"] == "quantify_file":
        job["alphas_path"] = str(tmp / "alphas.json")
        Path(job["alphas_path"]).write_text(json.dumps(quantify_alphas(job).tolist()))
