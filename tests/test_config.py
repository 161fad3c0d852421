"""Config parsing and the multi-seed experiment driver."""

import json

import numpy as np
import pytest

from evidunc.config import (
    AblationSwitches,
    ConfigError,
    ExperimentConfig,
    config_hash,
    load_config,
    parse_config,
)
from evidunc.experiments import (
    ABLATION_ROWS,
    aggregate_reports,
    run_ablation,
    run_experiment,
    run_seed,
)


def tiny_document(**overrides):
    """Smallest config that still exercises both sampling stages."""
    document = {
        "schema_version": 1,
        "mode": "variance",
        "seeds": [0, 1],
        "output_dir": "out",
        "hidden_layers": [8],
        "domain": {
            "num_classes": 2,
            "feature_dim": 2,
            "samples_per_domain": 80,
            "class_scale": 0.7,
            "shift_rotation_degrees": 40.0,
        },
        "train": {"epochs": 6, "batch_size": 16, "learning_rate": 0.05},
        "sampling": {
            "plans": [
                {"round_index": 1, "b_u": 4, "b_c": 4, "kappa": 2},
                {"round_index": 2, "b_u": 4, "b_c": 4, "kappa": 2},
            ],
            "schedule": [3, 5],
            "budget_fraction": 0.1,
        },
        "ablation": {"ug": True, "us": True, "cs": True},
    }
    document.update(overrides)
    return document


class TestParsing:
    def test_round_trip_identity(self):
        config = parse_config(tiny_document())
        again = parse_config(json.loads(config.to_json()))
        assert again == config

    def test_defaults_fill_in(self):
        config = parse_config({})
        assert config.mode == "variance"
        assert config.seeds == (0, 1, 2)
        assert config.hidden_layers == (64, 64)
        assert config.ablation == AblationSwitches()

    def test_desk_scale_plan_defaults(self):
        config = parse_config({"domain": {"samples_per_domain": 2000}})
        plans = config.resolved_plans()
        assert len(plans) == 5
        assert all(p.b_u == 20 and p.kappa == 10 for p in plans)
        assert [p.b_c for p in plans] == [20, 40, 60, 80, 100]
        assert config.resolved_schedule() == [10, 12, 14, 16, 18]

    def test_explicit_plans_win(self):
        config = parse_config(tiny_document())
        assert [p.b_u for p in config.resolved_plans()] == [4, 4]
        assert config.resolved_schedule() == [3, 5]

    def test_errors_name_every_bad_field(self):
        document = tiny_document(mode="bogus", seeds=[1, 1])
        document["domain"]["typo"] = 3
        document["ablation"]["ug"] = "yes"
        with pytest.raises(ConfigError) as info:
            parse_config(document)
        message = str(info.value)
        for needle in ("mode:", "seeds:", "domain.typo", "ablation.ug"):
            assert needle in message

    def test_section_validation_surfaces(self):
        with pytest.raises(ConfigError, match="train: momentum"):
            parse_config(tiny_document(train={"momentum": 2.0}))

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="config.extra"):
            parse_config(tiny_document(extra=1))

    def test_schema_version_checked(self):
        with pytest.raises(ConfigError, match="schema_version"):
            parse_config(tiny_document(schema_version=99))

    def test_class_means_is_not_a_config_key(self):
        document = tiny_document()
        document["domain"]["class_means"] = [[0.0, 0.0], [1.0, 1.0]]
        with pytest.raises(ConfigError, match=r"domain\.class_means: unknown field"):
            parse_config(document)

    def test_boolean_seeds_rejected(self):
        with pytest.raises(ConfigError, match="seeds"):
            parse_config(tiny_document(seeds=[True, 2]))

    def test_bad_plan_reported_with_index(self):
        document = tiny_document()
        document["sampling"]["plans"][1] = {"round_index": 2, "b_u": -1, "kappa": 2}
        with pytest.raises(ConfigError, match=r"sampling\.plans\[1\]"):
            parse_config(document)

    def test_ill_typed_plan_fields_reported_with_index(self):
        document = tiny_document()
        document["sampling"]["plans"][0].update(b_u=1.5, kappa=True)
        with pytest.raises(ConfigError) as info:
            parse_config(document)
        message = str(info.value)
        assert "sampling.plans[0].b_u: expected integer, got 1.5" in message
        assert "sampling.plans[0].kappa: expected integer, got true" in message
        assert "missing" not in message

    def test_plan_missing_field_reported_with_path(self):
        document = {"sampling": {"plans": [{"round_index": 1, "b_u": 1}], "schedule": [10]}}
        with pytest.raises(ConfigError) as info:
            parse_config(document)
        message = str(info.value)
        assert "sampling.plans[0].b_c: missing field" in message
        assert "__init__" not in message

    @pytest.mark.parametrize("document, needles", [
        ({"sampling": {"plans": [{"round_index": 1, "b_u": 1.5, "b_c": 0}],
                       "budget_fraction": 2}},
         ["sampling.plans[0].b_u: expected integer", "sampling.budget_fraction: must lie"]),
        ({"train": {"epochs": 6.0, "batch_size": 0}},
         ["train.epochs: expected integer", "train: batch_size must be positive"]),
    ])
    def test_ill_typed_entry_keeps_sibling_checks(self, document, needles):
        with pytest.raises(ConfigError) as info:
            parse_config(document)
        for needle in needles:
            assert needle in str(info.value)

    def test_load_reports_json_line(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{\n  "mode": variance\n}\n')
        with pytest.raises(ConfigError, match=r"broken\.json:2"):
            load_config(path)

    def test_sub_configs_construct(self):
        config = parse_config(tiny_document())
        assert config.domain_spec(7).seed == 7
        assert config.train_config(9).seed == 9
        assert config.loss_config().mode == "variance"


class TestHashing:
    def test_hashes_pinned(self):
        assert config_hash(parse_config(tiny_document())) == "1b9765f728b5"
        assert config_hash(parse_config({})) == "d199f9b56a67"

    def test_output_dir_does_not_move_hash(self):
        a = parse_config(tiny_document(output_dir="here"))
        b = parse_config(tiny_document(output_dir="there"))
        assert config_hash(a) == config_hash(b)

    def test_substantive_change_moves_hash(self):
        a = parse_config(tiny_document())
        b = parse_config(tiny_document(mode="entropy"))
        assert config_hash(a) != config_hash(b)

    def test_ablation_switch_moves_hash(self):
        a = parse_config(tiny_document())
        assert config_hash(a) != config_hash(a.with_switches(cs=False))


class TestRunSeed:
    def test_same_seed_reproduces(self):
        config = parse_config(tiny_document())
        first, *_ = run_seed(config, 0)
        second, *_ = run_seed(config, 0)
        assert first.to_json() == second.to_json()

    def test_seeds_change_data_and_outcome(self):
        config = parse_config(tiny_document())
        _, _, source_a, _ = run_seed(config, 0)
        _, _, source_b, _ = run_seed(config, 1)
        assert not np.array_equal(source_a.features, source_b.features)

    def test_report_carries_config_seed(self):
        config = parse_config(tiny_document())
        report, *_ = run_seed(config, 1)
        assert report.seed == 1
        report.validate()


class TestAggregation:
    def test_mean_and_std_by_hand(self):
        config = parse_config(tiny_document())
        reports = [run_seed(config, s)[0] for s in (0, 1)]
        summary = aggregate_reports(reports)
        finals = summary["final_accuracy_per_seed"]
        assert summary["final_accuracy_mean"] == pytest.approx(np.mean(finals))
        assert summary["final_accuracy_std"] == pytest.approx(np.std(finals))
        assert summary["num_seeds"] == 2
        assert len(summary["round_accuracy_mean"]) == 2

    def test_missing_auroc_averaged_over_present(self):
        summary = aggregate_reports(
            [
                {
                    "seed": 0,
                    "final_accuracy": 0.5,
                    "round_accuracies": [0.5],
                    "auroc_epistemic": None,
                    "auroc_aleatoric": 0.8,
                    "pseudo_label_accuracy": None,
                    "model_accuracy_on_unlabeled": None,
                    "budget_spent": 0,
                },
                {
                    "seed": 1,
                    "final_accuracy": 0.7,
                    "round_accuracies": [0.7],
                    "auroc_epistemic": 0.6,
                    "auroc_aleatoric": 0.6,
                    "pseudo_label_accuracy": None,
                    "model_accuracy_on_unlabeled": None,
                    "budget_spent": 0,
                },
            ]
        )
        assert summary["auroc_epistemic_mean"] == pytest.approx(0.6)
        assert summary["auroc_aleatoric_mean"] == pytest.approx(0.7)
        assert summary["pseudo_label_accuracy_mean"] is None


class TestRunExperiment:
    def test_directory_tree_and_rerun_bytes(self, tmp_path, monkeypatch):
        monkeypatch.setenv("EVID_NUM_WORKERS", "1")
        config = parse_config(tiny_document(output_dir=str(tmp_path / "out")))
        summary = run_experiment(config)
        base = tmp_path / "out" / summary["config_hash"]
        expected = [
            "aggregate.json",
            "config.json",
            "seed0/checkpoint.json",
            "seed0/histograms.csv",
            "seed0/loss_curve.csv",
            "seed0/report.json",
            "seed0/selection_log.csv",
        ]
        for rel in expected:
            assert (base / rel).is_file(), rel
        before = {rel: (base / rel).read_bytes() for rel in expected}
        run_experiment(config)
        after = {rel: (base / rel).read_bytes() for rel in expected}
        assert before == after

    def test_parallel_matches_serial(self, tmp_path, monkeypatch):
        config = parse_config(tiny_document(output_dir=str(tmp_path / "a")))
        monkeypatch.setenv("EVID_NUM_WORKERS", "2")
        parallel = run_experiment(config)
        monkeypatch.setenv("EVID_NUM_WORKERS", "1")
        serial = run_experiment(config, out_dir=tmp_path / "b")
        assert parallel == serial
        h = parallel["config_hash"]
        assert (tmp_path / "a" / h / "seed1" / "report.json").read_bytes() == (
            tmp_path / "b" / h / "seed1" / "report.json"
        ).read_bytes()

    def test_aggregate_file_matches_return(self, tmp_path, monkeypatch):
        monkeypatch.setenv("EVID_NUM_WORKERS", "1")
        config = parse_config(
            tiny_document(output_dir=str(tmp_path / "out"), seeds=[3])
        )
        summary = run_experiment(config)
        base = tmp_path / "out" / summary["config_hash"]
        assert json.loads((base / "aggregate.json").read_text()) == summary


class TestAblation:
    def test_five_rows_in_order(self, tmp_path, monkeypatch):
        monkeypatch.setenv("EVID_NUM_WORKERS", "1")
        config = parse_config(
            tiny_document(output_dir=str(tmp_path / "out"), seeds=[0])
        )
        table = run_ablation(config)
        assert [row["row"] for row in table] == [name for name, _ in ABLATION_ROWS]
        assert [row["row"] for row in table] == [
            "source-only",
            "+UG",
            "+US",
            "+UG+US",
            "+UG+US+CS",
        ]
        flags = [(row["ug"], row["us"], row["cs"]) for row in table]
        assert flags == [
            (False, False, False),
            (True, False, False),
            (False, True, False),
            (True, True, False),
            (True, True, True),
        ]
        written = json.loads((tmp_path / "out" / "ablation.json").read_text())
        assert written == table
        for row in table:
            row_dir = tmp_path / "out" / "ablation" / row["row"] / row["config_hash"]
            assert (row_dir / "aggregate.json").is_file()

    def test_row_names_are_the_switch_labels(self):
        for name, flags in ABLATION_ROWS:
            assert AblationSwitches(**flags).row_name() == name

    def test_rows_checked_before_any_runs(self, tmp_path):
        # Over budget only once the +US rows switch uncertainty sampling on.
        document = tiny_document(output_dir=str(tmp_path / "out"), seeds=[0])
        document["sampling"]["plans"][0]["b_u"] = 40
        document["ablation"]["us"] = False
        config = parse_config(document)
        with pytest.raises(ConfigError, match=r"sampling\.plans: .*budget"):
            run_ablation(config)
        assert not (tmp_path / "out").exists()

    def test_rows_share_datasets(self, tmp_path):
        config = parse_config(tiny_document(seeds=[0]))
        _, _, source_plain, _ = run_seed(config.with_switches(ug=False, us=False, cs=False), 0)
        _, _, source_full, _ = run_seed(config, 0)
        assert np.array_equal(source_plain.features, source_full.features)
