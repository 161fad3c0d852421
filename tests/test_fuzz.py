"""Seeded fuzz tests of the two inputs evidunc reads from outside: config
documents and alpha files.

Config documents are valid documents with random fields set to values of
every JSON type, or deleted. Each either raises ConfigError or parses to a
config that serializes and parses back to an equal config with the same
hash; each ablation row of a parsed config either builds or raises
ConfigError. Where a document's keys, version and grouping are sound, the
constructor called with its fields raises the same problems or builds the
same config. A config that parses also runs: ``evidunc run`` on each small
one exits 0, or 3 naming a diverged seed. Alpha files are CSV and JSON
files with random tokens, rows and bytes changed; ``evidunc quantify`` on
each exits 0 with valid JSON or 2 with a message, never with an exception.
The numpy generator is seeded and the fields are visited in sorted order,
so every run sees the same inputs.
"""

import copy
import json
from dataclasses import fields

import numpy as np
import pytest

from evidunc.cli import main
from evidunc.config import (
    AblationSwitches,
    ConfigError,
    ExperimentConfig,
    config_hash,
    parse_config,
)
from evidunc.enn import TrainConfig
from evidunc.experiments import ABLATION_ROWS
from evidunc.losses import LossConfig
from evidunc.sampling import RoundPlan
from evidunc.synthetic import DomainSpec
from test_config import tiny_document

# The fields a document may set, by section, plus one that no section has.
SECTION_FIELDS = {
    "": ["schema_version", "mode", "seeds", "output_dir", "hidden_layers", "domain", "train",
         "loss", "sampling", "ablation"],
    "domain": [f.name for f in fields(DomainSpec)],
    "train": [f.name for f in fields(TrainConfig)],
    "loss": [f.name for f in fields(LossConfig)],
    "sampling": ["plans", "schedule", "budget_fraction", "auroc_epoch"],
    "ablation": [f.name for f in fields(AblationSwitches)],
    "plan": [f.name for f in fields(RoundPlan)],
}
PLAN = {"round_index": 1, "b_u": 2, "b_c": 3, "kappa": 2}

# JSON values of every type, in and out of each field's range. Integers are
# small or far beyond 2**63, so no value asks numpy for a large allocation
# that it could grant.
CONFIG_VALUES = [
    None, True, False,
    -1, 0, 1, 2, 3, 4, 5, 6, 10, 18, 20, 80, 2000, 10**30, 10**400,
    -0.5, 0.0, 0.05, 0.1, 0.5, 0.9, 1.0, 1.5, 6.0, 1e300, float("nan"), float("inf"),
    "", "variance", "entropy", "constant", "inverse-decay", "mean", "sum", "bogus",
    [], [0], [1, 1], [0, 1], [3, 5], [-1], [8], [0.5, 1.0], [True], ["a"], [[]], [10**30], [1, 10**400],
    [PLAN], [PLAN, dict(PLAN, round_index=2)], [dict(PLAN, b_u=-1)], [{"b_u": 1}], [3, PLAN],
    {}, {"x": 1}, PLAN, {"ug": False}, {"epochs": 6}, {"num_classes": 3},
]

# The desk study document and the benchmark's grid document beside the
# small test document and the empty one.
DESK = {
    "seeds": [0, 1], "hidden_layers": [64, 64],
    "domain": {"num_classes": 5, "feature_dim": 2, "samples_per_domain": 2000,
               "class_scale": 1.0, "shift_rotation_degrees": 26.0},
    "train": {"epochs": 20, "batch_size": 32, "learning_rate": 0.05, "momentum": 0.9,
              "weight_decay": 0.001, "lr_schedule": "inverse-decay"},
    "loss": {"lambda_a": 0.1, "lambda_e": 1.0},
    "sampling": {"budget_fraction": 0.05},
}
BASE_DOCUMENTS = [tiny_document(), {}, DESK, dict(DESK, ablation={"ug": True, "us": False})]


def _paths(node, path=()):
    """Every (container, key) in a document, and each section's absent fields."""
    if isinstance(node, dict):
        section = "plan" if path and isinstance(path[-1], int) else (path[-1] if path else "")
        for key in sorted(set(node) | set(SECTION_FIELDS.get(section, [])) | {"extra"}):
            yield node, key
            if key in node:
                yield from _paths(node[key], path + (key,))
    elif isinstance(node, list):
        for i, item in enumerate(node):
            yield node, i
            yield from _paths(item, path + (i,))


def mutated_document(rng, bases=BASE_DOCUMENTS) -> dict:
    """A base document with one to three fields set to a random value or
    deleted."""
    document = copy.deepcopy(bases[rng.integers(len(bases))])
    for _ in range(rng.integers(1, 4)):
        targets = list(_paths(document))
        node, key = targets[rng.integers(len(targets))]
        if rng.random() < 0.15 and isinstance(node, dict):
            node.pop(key, None)
        else:
            node[key] = copy.deepcopy(CONFIG_VALUES[rng.integers(len(CONFIG_VALUES))])
    return document


def test_config_documents_parse_or_raise_config_error():
    rng = np.random.default_rng(20231119)
    parsed = 0
    for _ in range(2000):
        document = mutated_document(rng)
        try:
            config = parse_config(document)
        except ConfigError:
            continue
        parsed += 1
        again = parse_config(config.to_document())
        assert again == config
        assert config_hash(again) == config_hash(config)
        for _, flags in ABLATION_ROWS:
            try:
                config.with_switches(**flags)
            except ConfigError:
                pass
    assert 10 < parsed < 1900  # both outcomes are exercised


def test_constructor_checks_what_parse_config_checks():
    # parse_config checks the layout of a document and passes the values on
    # as they stand, so where the layout is sound the constructor decides.
    rng = np.random.default_rng(20231119)
    compared = 0
    for _ in range(2000):
        document = mutated_document(rng)
        version, sampling = document.get("schema_version", 1), document.get("sampling", {})
        if (type(version) is not int or version != 1 or not isinstance(sampling, dict)
                or not set(document) <= set(SECTION_FIELDS[""])
                or not set(sampling) <= set(SECTION_FIELDS["sampling"])):
            continue
        compared += 1
        flattened = {key: value for key, value in document.items()
                     if key not in ("schema_version", "sampling")}
        try:
            config = parse_config(document)
        except ConfigError as exc:
            with pytest.raises(ConfigError) as err:
                ExperimentConfig(**flattened, **sampling)
            assert err.value.problems == exc.problems, document
            continue
        assert ExperimentConfig(**flattened, **sampling) == config, document
    assert compared > 1000


def test_parsed_documents_run(tmp_path, capsys, monkeypatch):
    # Only the cost filters what runs: samples, epochs, hidden units, seeds.
    monkeypatch.setenv("EVID_NUM_WORKERS", "1")
    rng = np.random.default_rng(20231122)
    path, codes = tmp_path / "config.json", []
    for _ in range(1200):
        document = mutated_document(rng, [tiny_document()])
        try:
            config = parse_config(document)
        except ConfigError:
            continue
        if (config.domain_spec(0).samples_per_domain > 200 or config.train_config(0).epochs > 20
                or sum(config.hidden_layers) > 64 or len(config.seeds) > 2):
            continue
        path.write_text(json.dumps(document))
        try:
            code = main(["run", "--config", str(path), "--out", str(tmp_path / "out")])
        except Exception as exc:  # numpy's RuntimeWarnings are errors in this suite
            pytest.fail(f"{exc!r} running {json.dumps(document)}")
        err = capsys.readouterr().err
        assert code == 0 or code == 3 and "non-finite" in err, (document, err)
        assert "Traceback" not in err
        codes.append(code)
    assert codes.count(0) > 50 and 3 in codes  # both outcomes are exercised


ALPHA_TOKENS = ["", " ", "0", "-1", "1", "2.5", "1e-12", "1e200", "1e400", "1e-400", "nan",
                "inf", "-inf", "abc", "1,2", "true", "null", "1" + "0" * 400, "3 ", "0x10",
                "[1, 2]", "[", "}", "\ufeff1"]
ALPHA_VALUES = [None, True, 0, -1, 1, 2.5, 1e-12, 1e300, 10**400, "1", [], [1], [2, 3],
                [[1, 2]], {}, {"a": 1}, [True, 1], [1e308, 1e308]]


def _alpha_csv(rng) -> bytes:
    rows = [[f"{v:.6g}" for v in rng.uniform(0.1, 20.0, rng.integers(1, 5))]
            for _ in range(rng.integers(0, 6))]
    for _ in range(rng.integers(0, 4)):
        if not rows:
            rows.append([])
        row = rows[rng.integers(len(rows))]
        action = rng.integers(3)
        if action == 0 and row:
            row[rng.integers(len(row))] = ALPHA_TOKENS[rng.integers(len(ALPHA_TOKENS))]
        elif action == 1:
            row.append(ALPHA_TOKENS[rng.integers(len(ALPHA_TOKENS))])
        else:
            rows.insert(rng.integers(len(rows) + 1), [])
    return "\n".join(",".join(row) for row in rows).encode()


def _alpha_json(rng) -> bytes:
    document = [rng.uniform(0.1, 20.0, rng.integers(1, 5)).tolist()
                for _ in range(rng.integers(0, 6))]
    for _ in range(rng.integers(0, 4)):
        value = copy.deepcopy(ALPHA_VALUES[rng.integers(len(ALPHA_VALUES))])
        if not isinstance(document, list) or rng.random() < 0.1:
            document = value
        elif document and rng.random() < 0.6:
            row = document[rng.integers(len(document))]
            if isinstance(row, list) and row:
                row[rng.integers(len(row))] = value
            else:
                document[rng.integers(len(document))] = value
        else:
            document.append(value)
    text = json.dumps(document)
    if rng.random() < 0.2:  # a truncated or spliced file
        cut = rng.integers(len(text) + 1)
        text = text[:cut] + ALPHA_TOKENS[rng.integers(len(ALPHA_TOKENS))]
    return text.encode()


@pytest.mark.parametrize("suffix", [".csv", ".json"])
def test_alpha_files_exit_zero_or_two(tmp_path, capsys, suffix):
    rng = np.random.default_rng(20231120 + len(suffix))
    make = _alpha_csv if suffix == ".csv" else _alpha_json
    path, out = tmp_path / f"alphas{suffix}", tmp_path / "records.json"
    for k in range(150):
        data = make(rng)
        if rng.random() < 0.1:  # not UTF-8
            cut = rng.integers(len(data) + 1)
            data = data[:cut] + b"\xff\xfe" + data[cut:]
        path.write_bytes(data)
        to_file = k % 2 == 1
        code = main(["quantify", str(path), *(["--out", str(out)] if to_file else [])])
        captured = capsys.readouterr()
        assert code in (0, 2), (data, captured.err)
        assert "Traceback" not in captured.err
        if code == 0:
            json.loads(out.read_text() if to_file else captured.out)
        else:
            assert captured.err.startswith("error: "), (data, captured.err)
