"""Config parsing and the multi-seed experiment driver."""

import json
import os
import pickle
import re
import stat
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest

from evidunc.cli import main
from evidunc.config import (
    MAX_EPOCHS,
    MAX_SEED,
    AblationSwitches,
    ConfigError,
    ExperimentConfig,
    config_hash,
    load_config,
    parse_config,
)
from evidunc import experiments
from evidunc.enn import EvidentialMLP, checkpoint_text, load_checkpoint
from evidunc.metrics import AdaRunReport
from evidunc.sampling import RoundPlan, default_round_plans
from evidunc.special import DomainError
from evidunc.synthetic import generate_domain_pair
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
        plans = config.plans
        assert len(plans) == 5
        assert all(p.b_u == 20 and p.kappa == 10 for p in plans)
        assert tuple(p.b_c for p in plans) == (20, 40, 60, 80, 100)
        assert config.schedule == (10, 12, 14, 16, 18)

    def test_explicit_plans_win(self):
        config = parse_config(tiny_document())
        assert tuple(p.b_u for p in config.plans) == (4, 4)
        assert config.schedule == (3, 5)

    def test_default_rounds_are_held_as_written_out(self):
        # A config holds the rounds it runs: the defaults are filled in when
        # it is built, so it prints and compares as the written-out form.
        written = {"sampling": {
            "plans": [{"round_index": k, "b_u": 20, "b_c": 20 * k, "kappa": 10}
                      for k in range(1, 6)],
            "schedule": [10, 12, 14, 16, 18],
        }}
        assert parse_config({}) == parse_config(written)
        assert parse_config({}).to_json() == parse_config(written).to_json()

    @pytest.mark.parametrize("name, flags", ABLATION_ROWS, ids=[n for n, _ in ABLATION_ROWS])
    def test_switched_defaults_equal_the_document_that_sets_them(self, name, flags):
        assert parse_config({}).with_switches(**flags) == parse_config({"ablation": flags})

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

    @pytest.mark.parametrize("document, bad_rounds", [
        ({"sampling": {"plans": [{"round_index": 1, "b_u": 2, "b_c": 0, "kappa": 100000}],
                       "schedule": [10]}}, [1]),
        ({"sampling": {"budget_fraction": 1.0}}, [1, 2, 3, 4, 5]),
    ])
    def test_oversized_candidate_window_rejected(self, document, bad_rounds):
        with pytest.raises(ConfigError) as info:
            parse_config(document)
        lines = str(info.value).splitlines()[1:]
        assert [line.split()[2] for line in lines] == [str(i) for i in bad_rounds]
        assert all(line.startswith("  sampling.plans: round ") for line in lines)

    @pytest.mark.parametrize("cs, kappa, left", [(True, 17, None), (True, 18, 72),
                                                 (False, 18, None), (False, 20, 76)])
    def test_candidate_window_counts_earlier_picks(self, cs, kappa, left):
        # 80 target samples; round 1 takes 4 oracle labels and, with CS on,
        # 4 pseudo labels, so round 2 chooses among 72 or 76.
        document = tiny_document(ablation={"ug": True, "us": True, "cs": cs})
        document["sampling"]["plans"][1]["kappa"] = kappa
        if left is None:
            parse_config(document)
            return
        with pytest.raises(ConfigError, match=f"round 2 .* only {left} are left"):
            parse_config(document)

    @pytest.mark.parametrize("sampling, epochs, unset", [
        ({}, 15, "sampling.schedule and sampling.plans"),
        ({}, 0, "sampling.schedule and sampling.plans"),
        ({"plans": [{"round_index": 1, "b_u": 2, "b_c": 0, "kappa": 2}]}, 5, "sampling.schedule"),
    ], ids=["short", "zero-epochs", "plans-set"])
    def test_short_run_names_the_default_schedule(self, sampling, epochs, unset):
        # The epochs come from the default schedule, which the document
        # never wrote, so the message says so and names what to set.
        with pytest.raises(ConfigError) as info:
            parse_config({"train": {"epochs": epochs}, "sampling": sampling})
        want = "[10]" if sampling else "[10, 12, 14, 16, 18]"
        assert str(info.value).splitlines()[1:] == [
            f"  sampling.schedule: the default schedule's epochs {want} must fall within the "
            f"training run, 1..{epochs}; a run this short must set {unset}"
        ]

    @pytest.mark.parametrize("indexes", [(1, 1), (2, 1), (2, 3)], ids=["repeated", "swapped",
                                                                       "shifted"])
    def test_round_indexes_out_of_place_exit_two(self, tmp_path, capsys, indexes):
        # The selection log labels each round by its round_index, so two
        # rounds that both say 1 could not be told apart.
        document = tiny_document()
        for plan, k in zip(document["sampling"]["plans"], indexes):
            plan["round_index"] = k
        problem = (f"sampling.plans: round_index values {list(indexes)} must number the "
                   f"plans 1..2 in order")
        with pytest.raises(ConfigError) as info:
            parse_config(document)
        assert info.value.problems == [problem]
        path = tmp_path / "config.json"
        path.write_text(json.dumps(document))
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        assert f"\n  {problem}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("sampling, problems", [
        ({"schedule": [3, 5]},
         ["sampling.schedule: one round plan per scheduled epoch is required, got 5 for [3, 5]"]),
        ({"budget_fraction": 1.0},
         [f"sampling.plans: round {k} selects from 4000 unlabeled samples (kappa*b_u), but only "
          f"{2400 - 400 * k} are left" for k in range(1, 6)]),
    ], ids=["schedule-set", "whole-budget"])
    def test_round_errors_name_the_default_plans(self, sampling, problems):
        # The plans come from the defaults, which the document never wrote,
        # so each message from the plans says so and names what to set.
        with pytest.raises(ConfigError) as info:
            parse_config({"sampling": sampling})
        note = "; the 5 plans are the defaults, so set sampling.plans"
        assert str(info.value).splitlines()[1:] == [f"  {p}{note}" for p in problems]

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


class TestConstructorValidates:
    """ExperimentConfig(...), replace and with_switches reject what
    parse_config rejects."""

    @pytest.mark.parametrize("field, value, where", [
        ("seeds", (), "seeds"),
        ("seeds", (1, 1), "seeds"),
        ("hidden_layers", (0,), "hidden_layers"),
        ("mode", "bogus", "mode"),
        ("budget_fraction", 2.0, "sampling.budget_fraction"),
        ("train", {"epochs": "x"}, "train.epochs"),
        ("train", {"bogus": 1}, "train.bogus"),
        ("domain", {"num_classes": "x"}, "domain.num_classes"),
        ("loss", {"lambda_a": "x"}, "loss.lambda_a"),
        ("train", {"learning_rate": float("nan")}, "train.learning_rate"),
        ("domain", {"shift_translation": (1.0, float("inf"))}, "domain.shift_translation"),
        ("train", {"epochs": np.int64(6)}, "train.epochs"),  # no JSON type
        ("seeds", 5, "seeds"),
        ("seeds", ("a",), "seeds"),
        ("hidden_layers", ("x",), "hidden_layers"),
        ("budget_fraction", "x", "sampling.budget_fraction"),
        ("auroc_epoch", "x", "sampling.auroc_epoch"),
        ("plans", ({"round_index": 1},), "sampling.plans[0].b_u"),
        ("output_dir", 3, "output_dir"),
        ("output_dir", Path("x"), "output_dir"),  # would reach config_hash
        ("ablation", [1], "ablation"),
    ])
    def test_constructor_rejects_bad_value(self, field, value, where):
        with pytest.raises(ConfigError, match=rf"\n  {re.escape(where)}: "):
            ExperimentConfig(**{field: value})

    def test_constructor_builds_sections_from_objects(self):
        plan = {"round_index": 1, "b_u": 2, "b_c": 3, "kappa": 2}
        config = ExperimentConfig(ablation={"ug": False}, plans=(plan,), schedule=[3], seeds=[4])
        assert config.ablation == AblationSwitches(ug=False)
        assert config.plans == (RoundPlan(**plan),) and config.seeds == (4,)
        assert replace(config) == config  # built sections pass through

    def test_replace_rejects_bad_value(self):
        with pytest.raises(ConfigError, match="seeds: need at least one seed"):
            replace(parse_config(tiny_document()), seeds=())

    def test_with_switches_checks_the_budget(self):
        # Over budget only once uncertainty sampling is switched on.
        document = tiny_document()
        document["sampling"]["plans"][0]["b_u"] = 40
        document["ablation"]["us"] = False
        config = parse_config(document)
        with pytest.raises(ConfigError, match=r"sampling\.plans: .*budget"):
            config.with_switches(us=True)

    @pytest.mark.parametrize("domain", [{"samples_per_domain": 10**400},
                                        {"shift_translation": [10**400, 1]}])
    def test_number_beyond_a_float_reported_under_domain(self, domain):
        # A size meets the bound on numpy array dimensions first.
        message = ("samples_per_domain must be at most" if "samples_per_domain" in domain
                   else "int too large to convert to float")
        with pytest.raises(ConfigError, match=f"domain: {message}"):
            parse_config({"domain": domain})

    @pytest.mark.parametrize("where", [
        "train.weight_decay", "train.learning_rate", "train.lr_gamma", "train.lr_beta",
        "loss.lambda_a", "loss.lambda_e", "loss.lambda_reg", "loss.pseudo_label_weight",
        "domain.class_scale", "domain.shift_rotation_degrees",
        "domain.shift_noise_multiplier", "sampling.budget_fraction",
    ])
    def test_float_field_integer_beyond_a_float_rejected(self, where):
        section, key = where.split(".")
        for value in (10**400, -(10**400)):
            document = tiny_document()
            document.setdefault(section, {})[key] = value
            with pytest.raises(ConfigError, match=rf"\n  {where}: integer too large for a float"):
                parse_config(document)

    def test_float_field_integer_a_float_holds_kept_as_written(self):
        document = tiny_document(loss={"lambda_e": int(sys.float_info.max)})
        assert parse_config(document).loss["lambda_e"] == int(sys.float_info.max)

    @pytest.mark.parametrize("seed", [-1, MAX_SEED + 1, 10**400])
    def test_seed_outside_64_bits_rejected(self, seed):
        message = rf"seeds: every entry must be an integer in 0\.\.{MAX_SEED}"
        with pytest.raises(ConfigError, match=message):
            parse_config(tiny_document(seeds=[0, seed]))
        assert parse_config(tiny_document(seeds=[MAX_SEED])).seeds == (MAX_SEED,)

    def test_largest_64_bit_seed_accepted(self):
        # By its value, so that a narrower bound fails here too.
        largest = 18446744073709551615
        assert parse_config(tiny_document(seeds=[largest])).seeds == (largest,)

    @pytest.mark.parametrize("override, where", [({"train": {"learning_rate": 10**400}},
                                                   "train.learning_rate"),
                                                  ({"seeds": [10**400]}, "seeds")])
    def test_number_beyond_a_float_exits_two_from_the_cli(self, tmp_path, capsys, override, where):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(tiny_document(**override)))
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        assert f"\n  {where}: " in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("document, problem", [
        ({"mode": 10**5000}, "mode: expected string, got an integer too long to show"),
        ({"mode": [1, 10**5000]},
         "mode: expected string, got a value holding an integer too long to show"),
        ({"mode": list(range(100))},
         "mode: expected string, got " + str(list(range(100)))[:57] + "..."),
        ({"train": {"epochs": "x" * 100}},
         'train.epochs: expected integer, got "' + "x" * 56 + "..."),
    ], ids=["huge-integer", "list-with-huge-integer", "long-list", "long-string"])
    def test_mistyped_value_shown_bounded_under_its_path(self, document, problem):
        # The JSON text of an integer past Python's digit limit raises ValueError.
        with pytest.raises(ConfigError) as err:
            parse_config(document)
        assert err.value.problems == [problem]

    def test_value_nested_past_the_recursion_limit_is_a_config_error(self):
        # Too deep for json.dumps to show in the message, on Pythons whose
        # encoder shares the recursion limit; reported under its path anyway.
        nested = 0.5
        for _ in range(sys.getrecursionlimit()):
            nested = [nested]
        with pytest.raises(ConfigError) as err:
            parse_config({"loss": {"lambda_a": nested}})
        [problem] = err.value.problems
        assert problem.startswith("loss.lambda_a: expected number, got ")

    def test_epochs_bounded(self, tmp_path, capsys):
        for epochs in (MAX_EPOCHS + 1, 10**30):
            message = rf"\n  train\.epochs: must be at most {MAX_EPOCHS}$"
            with pytest.raises(ConfigError, match=message):
                parse_config(tiny_document(train={"epochs": epochs}))
        document = tiny_document(train={"epochs": MAX_EPOCHS})
        assert parse_config(document).train_config(0).epochs == MAX_EPOCHS
        path = tmp_path / "config.json"
        path.write_text(json.dumps(tiny_document(train={"epochs": 10**30})))
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        assert f"\n  train.epochs: must be at most {MAX_EPOCHS}" in capsys.readouterr().err

    def test_batch_size_bounded(self, tmp_path, capsys):
        # An epoch's batch arithmetic runs in numpy's int64.
        limit = 2**63 - 1
        for batch_size in (limit + 1, 10**30):
            message = rf"\n  train: batch_size must be at most {limit}$"
            with pytest.raises(ConfigError, match=message):
                parse_config(tiny_document(train={"batch_size": batch_size}))
        path = tmp_path / "config.json"
        path.write_text(json.dumps(tiny_document(seeds=[0], train={"batch_size": limit})))
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
        path.write_text(json.dumps(tiny_document(train={"batch_size": 10**30})))
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "never")]) == 2
        assert "\n  train: batch_size must be at most" in capsys.readouterr().err
        assert not (tmp_path / "never").exists()

    def test_integer_of_too_many_digits_is_a_config_error(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text('{"seeds": [' + "1" * 5000 + "]}")
        with pytest.raises(ConfigError, match="config.json: Exceeds the limit"):
            load_config(path)


class TestHashing:
    def test_hashes_pinned(self):
        assert config_hash(parse_config(tiny_document())) == "1b9765f728b5"
        assert config_hash(parse_config({})) == "320aa7d77ee1"

    def test_default_rounds_hash_as_written_out(self, monkeypatch):
        # The hash covers the rounds that run, not only those a document writes.
        config = parse_config({})
        written = {"sampling": {"plans": [asdict(p) for p in config.plans],
                                "schedule": list(config.schedule)}}
        before = config_hash(config)
        assert config_hash(parse_config(written)) == before

        def changed(*args, **kwargs):
            first, *rest = default_round_plans(*args, **kwargs)
            return [replace(first, b_c=first.b_c + 1), *rest]

        monkeypatch.setattr("evidunc.config.default_round_plans", changed)
        assert config_hash(parse_config({})) != before

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

    def test_datasets_are_the_generated_pair(self):
        config = parse_config(tiny_document())
        for seed in (0, 1):
            _, _, source, target = run_seed(config, seed)
            spec = config.domain_spec(experiments._component_seeds(seed)[0])
            for got, want in zip((source, target), generate_domain_pair(spec)):
                assert got.domain == want.domain
                for a, b in ((got.features, want.features), (got.labels, want.labels)):
                    assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())

    def test_report_carries_config_seed(self):
        config = parse_config(tiny_document())
        report, *_ = run_seed(config, 1)
        assert report.seed == 1
        report.validate()

    def test_matches_the_seed_a_worker_trained_in_a_chunk(self, tmp_path, monkeypatch):
        # Two workers of 4 usable CPUs cut seeds 0, 1, 2 into chunks (0, 1)
        # and (2,), trained in pool workers; run_seed trains seed 1 alone in
        # this process.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
        monkeypatch.setenv("EVID_NUM_WORKERS", "2")
        config = parse_config(tiny_document(seeds=[0, 1, 2]))
        run_experiment(config, out_dir=tmp_path)
        report, model, _, _ = run_seed(config, 1)
        [seed_dir] = tmp_path.glob("*/seed1")
        assert (seed_dir / "report.json").read_text() == report.to_json() + "\n"
        assert (seed_dir / "checkpoint.json").read_text() == checkpoint_text(model)


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

    def test_no_reports_rejected(self):
        with pytest.raises(DomainError, match="^need at least one report$"):
            aggregate_reports([])

    def test_missing_auroc_averaged_over_present(self):
        summary = aggregate_reports(
            [
                AdaRunReport(mode="variance", seed=0, final_accuracy=0.5, round_accuracies=[0.5],
                             auroc_aleatoric=0.8),
                AdaRunReport(mode="variance", seed=1, final_accuracy=0.7, round_accuracies=[0.7],
                             auroc_epistemic=0.6, auroc_aleatoric=0.6),
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

    def test_config_file_lists_the_default_rounds(self, tmp_path, monkeypatch):
        # config.json records the rounds that ran, and names its directory.
        monkeypatch.setenv("EVID_NUM_WORKERS", "1")
        document = tiny_document(seeds=[0], train={"epochs": 18, "batch_size": 16})
        document["domain"]["samples_per_domain"] = 300
        del document["sampling"]
        run_experiment(parse_config(document), out_dir=tmp_path)
        [path] = tmp_path.glob("*/config.json")
        written = json.loads(path.read_text())["sampling"]
        assert [plan["b_c"] for plan in written["plans"]] == [3, 6, 9, 12, 15]
        assert written["schedule"] == [10, 12, 14, 16, 18]
        assert config_hash(load_config(path)) == path.parent.name

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


@pytest.fixture
def seed_dir(tmp_path):
    """A seed directory written from a hand-made report: one selection row,
    a two-epoch loss curve, and an identity model over 30 source and 20
    target samples."""
    report = AdaRunReport(
        mode="variance",
        seed=0,
        loss_curve=[(1, 0.5, 0.1), (2, 0.4, 0.05)],
        selection_log=[
            {
                "round": 1,
                "sample_id": 4,
                "selection_type": "uncertain",
                "epistemic": 0.25,
                "aleatoric": 0.5,
                "predicted_class": 2,
                "true_class": 1,
            }
        ],
    )
    rng = np.random.default_rng(41)
    source, target = rng.normal(size=(30, 2)), rng.normal(size=(20, 2))
    model = EvidentialMLP([np.eye(2)], [np.zeros(2)])
    alphas = (model.forward_batch(source), model.forward_batch(target))
    experiments._write_seed_outputs(tmp_path / "seed0", report, model, alphas)
    return tmp_path / "seed0"


class TestRunDirectoryFiles:
    def test_loss_curve_csv(self, seed_dir):
        lines = (seed_dir / "loss_curve.csv").read_text().strip().splitlines()
        assert lines[0] == "epoch,supervised_loss,ug_loss"
        assert len(lines) == 3

    def test_selection_log_csv(self, seed_dir):
        lines = (seed_dir / "selection_log.csv").read_text().strip().splitlines()
        assert lines[0].startswith("round,sample_id,selection_type")
        assert lines[1] == "1,4,uncertain,0.25,0.5,2,1"

    def test_histograms_csv(self, seed_dir):
        lines = (seed_dir / "histograms.csv").read_text().strip().splitlines()
        assert lines[0] == "domain,aleatoric,epistemic"
        assert len(lines) == 51

    def test_checkpoint_loads_back(self, seed_dir):
        loaded = load_checkpoint(seed_dir / "checkpoint.json")
        np.testing.assert_array_equal(loaded.weights[0], np.eye(2))
        np.testing.assert_array_equal(loaded.biases[0], np.zeros(2))

    def test_csv_lines_end_in_crlf(self, tmp_path, monkeypatch):
        # As csv.writer writes them; rerun-versus-rerun bytes cannot see a switch to \n.
        monkeypatch.setenv("EVID_NUM_WORKERS", "1")
        config = parse_config(tiny_document(output_dir=str(tmp_path / "out"), seeds=[0]))
        seed0 = tmp_path / "out" / run_experiment(config)["config_hash"] / "seed0"
        for name in ("loss_curve.csv", "selection_log.csv", "histograms.csv"):
            data = (seed0 / name).read_bytes()
            assert data.endswith(b"\r\n"), name
            assert data.count(b"\n") == data.count(b"\r\n") > 2, name

    @pytest.mark.parametrize("failing", ["write", "replace"])
    def test_failed_rerun_write_keeps_the_earlier_file(self, tmp_path, monkeypatch, failing):
        monkeypatch.setenv("EVID_NUM_WORKERS", "1")
        config = parse_config(tiny_document(output_dir=str(tmp_path / "out"), seeds=[0]))
        target = tmp_path / "out" / run_experiment(config)["config_hash"] / "seed0" / "histograms.csv"
        before = target.read_bytes()

        def failing_open(path, *args, **kwargs):
            fh = open(path, *args, **kwargs)
            if Path(path).name.startswith(target.name):
                fh.write("half a file")
                fh.close()
                raise OSError("disk full")
            return fh

        replace = os.replace

        def failing_replace(src, dst):
            if Path(dst) == target:
                raise OSError("disk full")
            replace(src, dst)

        if failing == "write":
            monkeypatch.setattr(experiments, "open", failing_open, raising=False)
        else:
            monkeypatch.setattr(os, "replace", failing_replace)
        with pytest.raises(OSError, match="disk full"):
            run_experiment(config)
        assert target.read_bytes() == before
        assert list(tmp_path.rglob("*.tmp")) == []

    def test_temporary_file_is_per_process_with_default_mode(self, tmp_path, monkeypatch):
        replaced = []
        replace = os.replace

        def recording(src, dst):
            replaced.append((Path(src), stat.S_IMODE(os.stat(src).st_mode)))
            replace(src, dst)

        monkeypatch.setattr(os, "replace", recording)
        experiments._write_atomic(tmp_path / "a.json", "{}\n")
        plain = tmp_path / "plain.json"
        plain.write_text("{}\n")
        [(tmp, mode)] = replaced
        assert tmp.parent == tmp_path and tmp.name.endswith(".tmp")
        assert str(os.getpid()) in tmp.name  # two processes never share a name
        assert mode == stat.S_IMODE(plain.stat().st_mode)  # not mkstemp's 0600
        assert (tmp_path / "a.json").read_bytes() == plain.read_bytes()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.json", "plain.json"]


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


def finished_row(state, config):
    """A copy of the prefix task's ``state`` with ``config``'s row finished,
    as a row task finishes it; returns the run and the reports."""
    run = pickle.loads(state)
    switches = config.ablation
    return run, run.finish(switches.us, switches.cs, switches.class_balanced)


def tree_bytes(base):
    """Relative path -> bytes of every file under base."""
    return {str(p.relative_to(base)): p.read_bytes() for p in sorted(base.rglob("*")) if p.is_file()}


class TestSharedPrefix:
    """The grid trains each (UG group, seed) prefix once and finishes every
    row from a copy; what it writes must equal per-row unshared runs."""

    @pytest.mark.parametrize("workers", ["1", "2"])
    @pytest.mark.parametrize("auroc_epoch", [None, 4], ids=["auroc-default", "auroc-after-round"])
    def test_grid_matches_per_row_runs(self, tmp_path, monkeypatch, workers, auroc_epoch):
        monkeypatch.setenv("EVID_NUM_WORKERS", workers)
        document = tiny_document()
        document["sampling"]["auroc_epoch"] = auroc_epoch
        config = parse_config(document)
        run_ablation(config, out_dir=tmp_path / "grid")
        for name, flags in ABLATION_ROWS:
            row_config = parse_config(config.with_switches(**flags).to_document())
            run_experiment(row_config, out_dir=tmp_path / "rows" / "ablation" / name)
        shared = tree_bytes(tmp_path / "grid" / "ablation")
        assert len(shared) == 5 * (2 + 2 * 5)
        assert shared == tree_bytes(tmp_path / "rows" / "ablation")
        if auroc_epoch is not None:
            report = json.loads(next((tmp_path / "grid").rglob("report.json")).read_text())
            assert report["auroc_epoch"] == 4

    @pytest.mark.parametrize("ug", [True, False])
    def test_rows_finished_in_reverse_give_the_same_bytes(self, ug):
        config = parse_config(tiny_document())
        group = [config.with_switches(**flags) for _, flags in ABLATION_ROWS
                 if flags["ug"] == ug]

        def outputs(configs):
            state = experiments._prefix_task(configs, [1])
            rows = []
            for c in configs:
                run, reports = finished_row(state, c)
                [report], [model] = reports, run.trainer.model.seed_views()
                rows.append((report.to_json(),
                             b"".join(w.tobytes() for w in model.weights + model.biases)))
            return rows

        forward = outputs(group)
        assert outputs(group[::-1]) == forward[::-1]
        assert len(set(forward)) == len(group)

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_failed_job_leaves_no_aggregate(self, tmp_path, monkeypatch, workers):
        monkeypatch.setenv("EVID_NUM_WORKERS", workers)
        write = experiments._write_seed_outputs

        def failing(run_dir, *args):
            if "+US" in run_dir.parts and run_dir.name == "seed1":
                raise RuntimeError("disk full")
            write(run_dir, *args)

        monkeypatch.setattr(experiments, "_write_seed_outputs", failing)
        config = parse_config(tiny_document(output_dir=str(tmp_path / "out")))
        with pytest.raises(RuntimeError, match="disk full"):
            run_ablation(config)
        written = [p.name for p in (tmp_path / "out").rglob("*")]
        assert "report.json" in written
        assert "aggregate.json" not in written and "ablation.json" not in written

    def test_failed_job_cancels_queued_jobs(self, tmp_path, monkeypatch):
        monkeypatch.setenv("EVID_NUM_WORKERS", "2")
        write = experiments._write_seed_outputs
        marker = tmp_path / "failed"

        def failing_first(run_dir, *args):
            try:  # exclusive create: only the first call in any process fails
                os.close(os.open(marker, os.O_CREAT | os.O_EXCL))
            except FileExistsError:
                return write(run_dir, *args)
            raise RuntimeError("disk full")

        monkeypatch.setattr(experiments, "_write_seed_outputs", failing_first)
        config = parse_config(tiny_document(output_dir=str(tmp_path / "out"), seeds=list(range(96))))
        with pytest.raises(RuntimeError, match="disk full"):
            run_ablation(config)
        written = [p.name for p in (tmp_path / "out").rglob("*")]
        # 24 jobs, one per (UG group, chunk of 8 seeds): enough that some
        # stay queued when the first fails, and those are cancelled.
        assert written.count("report.json") < 2 * len(config.seeds)
        assert "aggregate.json" not in written and "ablation.json" not in written
