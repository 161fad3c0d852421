"""Per-unit correctness checks.

References are computed here, from the documented behaviour, without
calling evidunc: the synthetic domains, the network's forward pass, the
Dirichlet quantities (in extended precision), the two-step and certainty
selections and a pair-counting AUROC. For the training workloads an
independent retrain would double a run, so their units are checked
against what the benchmark can derive from the trained model (accuracy,
selection bookkeeping, class summaries) and, on the default workload
seed, against values stored in reference_seed0.json.

``check_units`` returns one entry per unit: None when the unit passed,
otherwise the reason it failed.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

import jobs

REFERENCE_FILE = Path(__file__).with_name("reference_seed0.json")
DEFAULT_SEED = 0
REL_TOL = 1e-12
LOGIT_CLAMP = 30.0
TRIPLE = ("total", "aleatoric", "epistemic")
ABLATION_ROWS = (
    ("source-only", {"ug": False, "us": False, "cs": False}),
    ("+UG", {"ug": True, "us": False, "cs": False}),
    ("+US", {"ug": False, "us": True, "cs": False}),
    ("+UG+US", {"ug": True, "us": True, "cs": False}),
    ("+UG+US+CS", {"ug": True, "us": True, "cs": True}),
)
SEED_FILES = ("report.json", "selection_log.csv", "loss_curve.csv", "histograms.csv",
              "checkpoint.json")


# --- independent references -------------------------------------------------


def component_seeds(seed: int):
    """(data, init, train) seeds a program seed expands into."""
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(3, dtype=np.uint64)]


def domain_pair(num_classes, feature_dim, samples, rotation_degrees, seed):
    """((source features, labels), (target features, labels)): Gaussian
    clusters of unit scale around class means on a radius-4 circle, with
    balanced 1-based labels; the target is rotated in its first two
    dimensions."""
    means = np.zeros((num_classes, feature_dim))
    angles = 2.0 * math.pi * np.arange(num_classes) / num_classes
    means[:, 0] = 4.0 * np.cos(angles)
    means[:, 1] = 4.0 * np.sin(angles)
    counts = np.full(num_classes, samples // num_classes)
    counts[: samples - counts.sum()] += 1
    labels = np.repeat(np.arange(1, num_classes + 1), counts)
    domains = []
    for stream in np.random.SeedSequence(seed).spawn(2):
        noise = np.random.default_rng(stream).normal(size=(samples, feature_dim))
        domains.append(means[labels - 1] + 1.0 * noise)
    theta = math.radians(rotation_degrees)
    rot = np.eye(feature_dim)
    rot[0, 0] = rot[1, 1] = math.cos(theta)
    rot[0, 1] = -math.sin(theta)
    rot[1, 0] = math.sin(theta)
    target = domains[1] @ rot.T + np.zeros(feature_dim)
    return (domains[0], labels), (target, labels)


def mlp_init(sizes, seed):
    """Uniform init in +-sqrt(6/(fan_in+fan_out)), zero biases."""
    rng = np.random.default_rng(seed)
    weights = [rng.uniform(-np.sqrt(6.0 / (i + o)), np.sqrt(6.0 / (i + o)), size=(i, o))
               for i, o in zip(sizes, sizes[1:])]
    return weights, [np.zeros(o) for o in sizes[1:]]


def forward_alpha(weights, biases, x):
    h = np.asarray(x, dtype=np.float64)
    for w, b in zip(weights[:-1], biases[:-1]):
        h = np.maximum(h @ np.asarray(w) + np.asarray(b), 0.0)
    logits = h @ np.asarray(weights[-1]) + np.asarray(biases[-1])
    return np.exp(np.clip(logits, -LOGIT_CLAMP, LOGIT_CLAMP))


def digamma_ld(x):
    """Digamma in extended precision: shift to x + 24, then the asymptotic
    series with Bernoulli coefficients B_2n / 2n."""
    x = np.asarray(x, dtype=np.longdouble)
    one = np.longdouble(1)
    shift = 24
    y = x + shift
    acc = sum(one / (x + i) for i in range(shift))
    z = one / (y * y)
    series = np.zeros_like(y)
    for num, den in ((1, 12), (-691, 32760), (1, 132), (-1, 240), (1, 252), (-1, 120), (1, 12)):
        series = series * z + np.longdouble(num) / den
    return np.log(y) - 0.5 / y - series * z - acc


def dirichlet_reference(alpha):
    """Every quantity of a quantify record, per row, in extended precision."""
    a = np.asarray(alpha, dtype=np.longdouble)
    a0 = a.sum(axis=1)
    mu = a / a0[:, None]
    alea_scale, epis_scale = a0 / (a0 + 1), 1 / (a0 + 1)
    var_total = 1 - (mu * mu).sum(axis=1)
    class_total = mu * (1 - mu)
    cov = -mu[:, :, None] * mu[:, None, :]
    idx = np.arange(a.shape[1])
    cov[:, idx, idx] = class_total
    sigma = np.sqrt(class_total)
    ent_total = -(mu * np.log(mu)).sum(axis=1)
    ent_alea = (mu * (digamma_ld(a0 + 1)[:, None] - digamma_ld(a + 1))).sum(axis=1)
    out = {
        "var_sample": np.stack([var_total, alea_scale * var_total, epis_scale * var_total], 1),
        "var_class": np.stack([class_total, alea_scale[:, None] * class_total,
                               epis_scale[:, None] * class_total], 1),
        "ent_sample": np.stack([ent_total, ent_alea, ent_total - ent_alea], 1),
        "covariance": cov,
        "covariance_aleatoric": alea_scale[:, None, None] * cov,
        "covariance_epistemic": epis_scale[:, None, None] * cov,
        "correlation": cov / (sigma[:, :, None] * sigma[:, None, :]),
    }
    return {k: v.astype(np.float64) for k, v in out.items()}


def entropy_uncertainties(alpha):
    """(aleatoric, epistemic) entropy-mode sample uncertainties per row."""
    ent = dirichlet_reference(alpha)["ent_sample"]
    return ent[:, 1], ent[:, 2]


def auroc_pairs(scores, positives) -> float:
    """AUROC by counting, for each positive, the negatives it beats (ties half)."""
    scores = np.asarray(scores, dtype=np.float64)
    positives = np.asarray(positives, dtype=bool)
    pos, neg = scores[positives], np.sort(scores[~positives])
    below = np.searchsorted(neg, pos, "left")
    tied = np.searchsorted(neg, pos, "right") - below
    return (2 * int(below.sum()) + int(tied.sum())) / (2 * pos.size * neg.size)


def round_sizes(num_target, rounds=5, budget_fraction=0.05, certain_percent=1):
    """(b_u, [b_c per round]) of the default round plans."""
    b_u = int(round(budget_fraction * num_target)) // rounds
    return b_u, [k * certain_percent * num_target // 100 for k in range(1, rounds + 1)]


def pool_selection_reference(job):
    """Selected ids, pseudo labels and target AUROCs of one pool_rounds pass."""
    p = job["pool"]
    _, (features, labels) = domain_pair(p["num_classes"], p["feature_dim"],
                                        p["samples_per_domain"], p["shift_rotation_degrees"],
                                        p["data_seed"])
    order = np.random.default_rng(p["order_seed"]).permutation(labels.size)
    features, labels = features[order], labels[order]
    sizes = [p["feature_dim"], *p["hidden"], p["num_classes"]]
    alpha = forward_alpha(*mlp_init(sizes, p["init_seed"]), features)
    au, eu = entropy_uncertainties(alpha)
    predicted = (np.argmax(alpha, axis=1) + 1).tolist()
    au_l, eu_l = au.tolist(), eu.tolist()
    b_u, b_cs = round_sizes(p["samples_per_domain"], p["rounds"], p["budget_fraction"])
    remaining = set(range(p["samples_per_domain"]))
    rounds = []
    for k, b_c in enumerate(b_cs, start=1):
        by_eu = sorted(remaining, key=lambda i: (-eu_l[i], i))[: p["kappa"] * b_u]
        chosen_u = sorted(by_eu, key=lambda i: (-au_l[i], i))[:b_u]
        remaining.difference_update(chosen_u)
        most_certain = sorted(remaining, key=lambda i: (eu_l[i], -i))
        if k % 2 == 0:
            chosen_c = _balanced(most_certain, predicted, b_c, p["num_classes"])
        else:
            chosen_c = most_certain[:b_c]
        remaining.difference_update(chosen_c)
        rounds.append([chosen_u, chosen_c, [predicted[i] for i in chosen_c]])
    wrong = np.asarray(predicted) != labels
    return {"rounds": rounds, "auroc": [auroc_pairs(eu, wrong), auroc_pairs(au, wrong)]}


def _balanced(most_certain, predicted, b_c, num_classes):
    """floor(b_c/C) most certain per predicted class, then the most certain rest."""
    quota = b_c // num_classes
    taken = {c: 0 for c in range(1, num_classes + 1)}
    picked = []
    if quota:
        for i in most_certain:
            if taken[predicted[i]] < quota:
                taken[predicted[i]] += 1
                picked.append(i)
    chosen = set(picked)
    fill = [i for i in most_certain if i not in chosen]
    return picked + fill[: min(b_c, len(most_certain)) - len(picked)]


# --- checks ------------------------------------------------------------------


def load_reference(job):
    """Stored values for the default workload seed at full size, else None;
    quantify_file has none, its reference is always computed."""
    if job["seed"] != DEFAULT_SEED or job["toy"] or not REFERENCE_FILE.exists():
        return None
    return json.loads(REFERENCE_FILE.read_text()).get(job["workload"])


def run_summary(report: dict) -> dict:
    """The values of a seed run that must equal the stored reference."""
    picks = [[r["round"], r["sample_id"], r["selection_type"]] for r in report["selection_log"]]
    return {
        "final_accuracy": report["final_accuracy"],
        "round_accuracies": report["round_accuracies"],
        "auroc_epistemic": report["auroc_epistemic"],
        "auroc_aleatoric": report["auroc_aleatoric"],
        "selected_sha": hashlib.sha256(json.dumps(picks).encode()).hexdigest(),
    }


def _target(document, seed):
    d = document["domain"]
    _, target = domain_pair(d["num_classes"], d["feature_dim"], d["samples_per_domain"],
                            d["shift_rotation_degrees"], component_seeds(seed)[0])
    return target


def _close(value, reference) -> bool:
    value, reference = np.asarray(value, dtype=np.float64), np.asarray(reference)
    return value.shape == reference.shape and bool(
        np.all(np.abs(value - reference) <= REL_TOL * np.abs(reference)))


def check_run(report, weights, biases, target, flags) -> list:
    """What can be derived about one seed run from its trained model."""
    features, labels = target
    n = labels.size
    alpha = forward_alpha(weights, biases, features)
    predicted = np.argmax(alpha, axis=1) + 1
    errors = []
    if report["final_accuracy"] != float(np.mean(predicted == labels)):
        errors.append("final_accuracy differs from the model's accuracy on the target")
    b_u, b_cs = round_sizes(n)
    log = report["selection_log"]
    for k, b_c in enumerate(b_cs, start=1):
        for kind, want in (("uncertain", b_u if flags["us"] else 0),
                           ("certain", b_c if flags["cs"] else 0)):
            got = sum(1 for r in log if r["round"] == k and r["selection_type"] == kind)
            if got != want:
                errors.append(f"round {k}: {got} {kind} picks, expected {want}")
    ids = [r["sample_id"] for r in log]
    if len(set(ids)) != len(ids) or any(not 0 <= i < n for i in ids):
        errors.append("selected ids repeat or fall outside the target")
    elif any(r["true_class"] != labels[r["sample_id"]] for r in log):
        errors.append("selection log true_class differs from the target labels")
    if report["budget_spent"] != (5 * b_u if flags["us"] else 0):
        errors.append("budget_spent differs from the plans")
    certain = [r for r in log if r["selection_type"] == "certain"]
    pseudo = (sum(r["predicted_class"] == r["true_class"] for r in certain) / len(certain)
              if certain else None)
    if report["pseudo_label_accuracy"] != pseudo:
        errors.append("pseudo_label_accuracy differs from the selection log")
    accs = report["round_accuracies"] + [report["auroc_epistemic"], report["auroc_aleatoric"]]
    if len(report["round_accuracies"]) != 5 or any(
            v is not None and not 0.0 <= v <= 1.0 for v in accs):
        errors.append("round accuracies or AUROCs missing or outside [0, 1]")
    mu = alpha / alpha.sum(axis=1)[:, None]
    a0 = alpha.sum(axis=1)
    total = mu * (1.0 - mu)
    summary = report["class_uncertainty_target"]
    for key, part in (("total", total), ("aleatoric", total * (a0 / (a0 + 1.0))[:, None]),
                      ("epistemic", total / (a0 + 1.0)[:, None])):
        if not _close(summary[key], part.mean(axis=0)):
            errors.append(f"class_uncertainty_target.{key} differs from the model")
    return errors


def _compare_reference(summary, reference, where) -> list:
    if reference is None:
        return []
    return [f"{where}: {key} differs from the stored reference"
            for key in reference if summary[key] != reference[key]]


def _check_seed(out, target, flags, reference):
    report = json.loads(out["report"])
    seed = out["seed"]
    errors = check_run(report, out["weights"], out["biases"], target, flags)
    return errors + _compare_reference(run_summary(report),
                                       reference and reference[str(seed)], f"seed {seed}")


def _check_desk(job, units, reference):
    flags = job["document"]["ablation"]
    first = {}
    targets = {}
    results = []
    for unit in units:
        out = unit["output"]
        seed = out["seed"]
        if seed not in targets:
            targets[seed] = _target(job["document"], seed)
        errors = _guarded(_check_seed, out, targets[seed], flags, reference)
        if first.setdefault(seed, out) != out:
            errors.append(f"seed {seed}: output differs from an earlier run of the same seed")
        results.append(errors)
    return results


def _check_grid(base: Path, job, reference) -> list:
    seeds = job["document"]["seeds"]
    files = [p for p in base.rglob("*") if p.is_file()]
    errors = []
    if len(files) != 1 + len(ABLATION_ROWS) * (2 + len(SEED_FILES) * len(seeds)):
        errors.append(f"grid wrote {len(files)} files")
    table = json.loads((base / "ablation.json").read_text())
    if [r["row"] for r in table] != [name for name, _ in ABLATION_ROWS]:
        return errors + ["ablation.json rows are not the five grid rows"]
    for entry, (name, flags) in zip(table, ABLATION_ROWS):
        if any(entry[k] != v for k, v in flags.items()):
            errors.append(f"{name}: switches differ")
        (run_dir,) = (base / "ablation" / name).iterdir()
        aggregate = json.loads((run_dir / "aggregate.json").read_text())
        finals = []
        for seed in seeds:
            seed_dir = run_dir / f"seed{seed}"
            report = json.loads((seed_dir / "report.json").read_text())
            checkpoint = json.loads((seed_dir / "checkpoint.json").read_text())
            where = f"{name} seed {seed}"
            errors += [f"{where}: {e}" for e in check_run(
                report, checkpoint["weights"], checkpoint["biases"],
                _target(job["document"], seed), flags)]
            errors += _compare_reference(run_summary(report),
                                         reference and reference[name][str(seed)], where)
            for csv_name, rows in (("selection_log.csv", len(report["selection_log"])),
                                   ("loss_curve.csv", job["document"]["train"]["epochs"]),
                                   ("histograms.csv",
                                    2 * job["document"]["domain"]["samples_per_domain"])):
                lines = (seed_dir / csv_name).read_text().splitlines()
                if len(lines) != rows + 1:
                    errors.append(f"{where}: {csv_name} has {len(lines) - 1} rows, expected {rows}")
            finals.append(report["final_accuracy"])
        if aggregate["final_accuracy_per_seed"] != finals or not _close(
                aggregate["final_accuracy_mean"], np.mean(finals)):
            errors.append(f"{name}: aggregate.json disagrees with the seed reports")
        if entry["final_accuracy_mean"] != aggregate["final_accuracy_mean"]:
            errors.append(f"{name}: ablation.json disagrees with aggregate.json")
    return errors


def _schema(value):
    if isinstance(value, dict):
        return {k: _schema(v) for k, v in sorted(value.items())}
    if isinstance(value, list):
        inner = [_schema(v) for v in value]
        return ["list", len(value), inner[0] if inner and inner.count(inner[0]) == len(inner)
                else "mixed"]
    return type(value).__name__


def record_schema(classes: int):
    vec = ["list", classes, "float"]
    mat = ["list", classes, vec]
    triple = {k: "float" for k in TRIPLE}
    return {
        "alpha": vec,
        "uncertainty": {"variance": {"sample": triple, "class": {k: vec for k in TRIPLE}},
                        "entropy": {"sample": triple}},
        "covariance": mat, "covariance_aleatoric": mat, "covariance_epistemic": mat,
        "correlation": mat, "predicted_class": "int",
    }


def _check_records(path: Path, job) -> list:
    records = json.loads(path.read_text())
    alpha = jobs.quantify_alphas(job)
    if not isinstance(records, list) or len(records) != alpha.shape[0]:
        return ["record count differs from the input"]
    expected = record_schema(alpha.shape[1])
    if any(_schema(r) != expected for r in records):
        return ["record schema differs"]
    errors = []
    if [r["alpha"] for r in records] != alpha.tolist():
        errors.append("alpha differs from the input")
    if [r["predicted_class"] for r in records] != (np.argmax(alpha, axis=1) + 1).tolist():
        errors.append("predicted_class differs")
    got = {
        "var_sample": [[r["uncertainty"]["variance"]["sample"][k] for k in TRIPLE] for r in records],
        "var_class": [[r["uncertainty"]["variance"]["class"][k] for k in TRIPLE] for r in records],
        "ent_sample": [[r["uncertainty"]["entropy"]["sample"][k] for k in TRIPLE] for r in records],
        **{k: [r[k] for r in records] for k in
           ("covariance", "covariance_aleatoric", "covariance_epistemic", "correlation")},
    }
    for key, reference in dirichlet_reference(alpha).items():
        if not _close(got[key], reference):
            errors.append(f"{key} differs from the reference by more than {REL_TOL} relative")
    return errors


def _guarded(check, *args) -> list:
    """A malformed output is a failed unit, not a crash of the benchmark."""
    try:
        return check(*args)
    except Exception as exc:
        return [f"output unreadable: {exc!r}"[:200]]


def _check_files(job, units, check_one):
    """Check each distinct output once; every unit must match unit 0's bytes."""
    verdicts = {}
    results = []
    for unit in units:
        out = unit["output"]
        if out["path"] not in verdicts:
            verdicts[out["path"]] = _guarded(check_one, Path(out["path"]), job)
        errors = [f"exit code {out['exit_code']}"] if out["exit_code"] != 0 else []
        errors += verdicts[out["path"]]
        if out["sha"] != units[0]["output"]["sha"]:
            errors.append("output bytes differ from the first unit's")
        results.append(errors)
    return results


def _check_pool(job, units, reference):
    expected = pool_selection_reference(job)
    results = []
    for unit in units:
        out = unit["output"]
        errors = _guarded(_check_pass, out, expected, reference)
        if out != units[0]["output"]:
            errors.append("output differs from the first pass")
        results.append(errors)
    return results


def _check_pass(out, expected, reference):
    errors = []
    for k, (got, want) in enumerate(zip(out["rounds"], expected["rounds"]), start=1):
        for part, g, w in zip(("uncertain ids", "certain ids", "pseudo labels"), got, want):
            if g != w:
                errors.append(f"round {k}: {part} differ from the reference")
    if len(out["rounds"]) != len(expected["rounds"]) or out["auroc"] != expected["auroc"]:
        errors.append("round count or target AUROC differs from the reference")
    if reference is not None and (
            hashlib.sha256(json.dumps(out["rounds"]).encode()).hexdigest()
            != reference["rounds_sha"] or out["auroc"] != reference["auroc"]):
        errors.append("selection or AUROC differs from the stored reference")
    return errors


def check_units(job, units) -> list:
    """None for each unit that passed, otherwise a message saying why not."""
    done = [u for u in units if "error" not in u]
    reference = load_reference(job)
    workload = job["workload"]
    if workload == "desk_seed":
        results = _check_desk(job, done, reference)
    elif workload == "ablate_grid":
        results = _check_files(job, done, lambda base, j: _check_grid(base, j, reference))
    elif workload == "quantify_file":
        results = _check_files(job, done, _check_records)
    else:
        results = _check_pool(job, done, reference)
    verdicts = iter("; ".join(e[:3]) if e else None for e in results)
    return [u["error"].strip().splitlines()[-1] if "error" in u else next(verdicts)
            for u in units]
