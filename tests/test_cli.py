"""Command line behavior: subcommands, exit codes, output layout."""

import json
import os
import signal
import subprocess
import sys
import time
import warnings
from pathlib import Path

import pytest

from evidunc import experiments
from evidunc.cli import main
from evidunc.dirichlet import DirichletPrediction, predict_class_batch
from oracles import per_prediction_record


def write_config(tmp_path, **overrides):
    document = {
        "mode": "variance",
        "seeds": [0, 1],
        "output_dir": str(tmp_path / "out"),
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
    path = tmp_path / "config.json"
    path.write_text(json.dumps(document))
    return path


class TestQuantify:
    def test_csv_records_both_modes(self, tmp_path, capsys):
        path = tmp_path / "alphas.csv"
        path.write_text("2,3,5\n1,1\n")
        assert main(["quantify", str(path)]) == 0
        records = json.loads(capsys.readouterr().out)
        assert len(records) == 2
        first = records[0]
        assert first["alpha"] == [2.0, 3.0, 5.0]
        assert first["predicted_class"] == 3
        assert "variance" in first["uncertainty"]
        assert "entropy" in first["uncertainty"]
        assert len(first["correlation"]) == 3

    def test_json_input_and_out_file(self, tmp_path, capsys):
        src = tmp_path / "alphas.json"
        src.write_text("[[2, 3, 5], [1, 1]]")
        dst = tmp_path / "records.json"
        assert main(["quantify", str(src), "--out", str(dst)]) == 0
        assert "2 records" in capsys.readouterr().out
        assert len(json.loads(dst.read_text())) == 2

    def test_failed_out_write_keeps_the_earlier_file(self, tmp_path, capsys, monkeypatch):
        src = tmp_path / "alphas.csv"
        src.write_text("2,3\n")
        dst = tmp_path / "records.json"
        assert main(["quantify", str(src), "--out", str(dst)]) == 0
        before = dst.read_bytes()
        src.write_text("2,3\n4,5,6\n")

        def failing_replace(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", failing_replace)
        assert main(["quantify", str(src), "--out", str(dst)]) == 3
        assert "runtime failure: disk full" in capsys.readouterr().err
        assert dst.read_bytes() == before
        assert list(tmp_path.glob("*.tmp")) == []

    def test_empty_file_empty_output(self, tmp_path, capsys):
        path = tmp_path / "alphas.csv"
        path.write_text("")
        assert main(["quantify", str(path)]) == 0
        assert json.loads(capsys.readouterr().out) == []

    def test_zero_entry_rejected_with_line(self, tmp_path, capsys):
        path = tmp_path / "alphas.csv"
        path.write_text("2,3,5\n0,1\n")
        assert main(["quantify", str(path)]) == 2
        err = capsys.readouterr().err
        assert f"{path}:2" in err
        assert "positive" in err

    def test_earliest_bad_row_named_across_class_counts(self, tmp_path, capsys):
        # Lines 2 and 3 are validated in different class-count batches; the
        # input's first bad line is reported, not the first batch's.
        path = tmp_path / "alphas.csv"
        path.write_text("1,1\n2,3,-5\n0,1\n")
        assert main(["quantify", str(path)]) == 2
        err = capsys.readouterr().err
        assert f"{path}:2:" in err
        assert "positive" in err

    def test_unparseable_row_names_line(self, tmp_path, capsys):
        path = tmp_path / "alphas.csv"
        path.write_text("2,3\nfive,6\n")
        assert main(["quantify", str(path)]) == 2
        assert f"{path}:2" in capsys.readouterr().err

    def test_broken_json_names_line(self, tmp_path, capsys):
        path = tmp_path / "alphas.json"
        path.write_text("[[2, 3],\n [oops]]")
        assert main(["quantify", str(path)]) == 2
        assert f"{path}:2" in capsys.readouterr().err

    def test_missing_file(self, tmp_path, capsys):
        assert main(["quantify", str(tmp_path / "nope.csv")]) == 2
        assert "no such file" in capsys.readouterr().err

    @pytest.mark.parametrize("name, message", [
        ("alphas.csv", "is a directory"),
        ("alphas.json", "is a directory"),
        ("file.csv/alphas.csv", "no such file"),
        ("file.csv/alphas.json", "no such file"),
    ], ids=["directory-csv", "directory-json", "through-file-csv", "through-file-json"])
    def test_path_not_a_file(self, tmp_path, capsys, name, message):
        (tmp_path / "alphas.csv").mkdir()
        (tmp_path / "alphas.json").mkdir()
        (tmp_path / "file.csv").write_text("2,3\n")
        path = tmp_path / name
        assert main(["quantify", str(path)]) == 2
        err = capsys.readouterr().err
        assert f"error: {path}: {message}\n" == err

    @pytest.mark.parametrize("text", [
        "[" * (100 * sys.getrecursionlimit()),
        '{"a": ' * (5 * sys.getrecursionlimit()),
    ], ids=["arrays", "objects"])
    def test_json_nested_too_deeply(self, tmp_path, capsys, text):
        path = tmp_path / "alphas.json"
        path.write_text(text)
        assert main(["quantify", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {path}: nested too deeply\n"

    @pytest.mark.parametrize("name", ["alphas.csv", "alphas.json"])
    def test_non_utf8_file_rejected(self, tmp_path, capsys, name):
        path = tmp_path / name
        path.write_bytes("[[2, 3]]\n".encode("utf-16"))
        assert main(["quantify", str(path)]) == 2
        assert f"{path}: not UTF-8 text" in capsys.readouterr().err

    def test_boolean_entries_rejected(self, tmp_path, capsys):
        path = tmp_path / "alphas.json"
        path.write_text("[[2, 3], [true, 2]]")
        assert main(["quantify", str(path)]) == 2
        assert f"{path}: alphas[1] is not a numeric array" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "name, text, where",
        [
            ("alphas.csv", "2,3\n1e308,1e308\n", ":2"),
            ("alphas.json", "[[2, 3], [1e308, 1e308]]", ": alphas[1]"),
        ],
    )
    def test_overflowing_strength_rejected_with_location(
        self, tmp_path, capsys, name, text, where
    ):
        path = tmp_path / name
        path.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy RuntimeWarning either
            assert main(["quantify", str(path)]) == 2
        assert f"{path}{where}: alpha strength" in capsys.readouterr().err

    def test_huge_alphas_quantified_without_warnings(self, tmp_path, capsys):
        path = tmp_path / "alphas.csv"
        path.write_text("1e200,1e200\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy's overflow RuntimeWarning included
            assert main(["quantify", str(path)]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        [record] = json.loads(out)
        assert record["uncertainty"]["variance"]["sample"]["total"] == 0.5

    def test_huge_integer_rejected_with_location(self, tmp_path, capsys):
        path = tmp_path / "alphas.json"
        path.write_text(f"[[2, 3], [{10**400}, 2]]")
        assert main(["quantify", str(path)]) == 2
        assert f"{path}: alphas[1]: int too large" in capsys.readouterr().err

    def test_one_record_per_line_in_input_order(self, tmp_path, capsys):
        rows = [[2.0, 3.0, 5.0], [1.0, 1.0], [1e-12, 4.0, 7.0, 1.0], [1e200, 1e200]]
        path = tmp_path / "alphas.csv"
        path.write_text("".join(",".join(map(repr, row)) + "\n" for row in rows))
        assert main(["quantify", str(path)]) == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert len(lines) == len(rows) + 2
        assert (lines[0], lines[-1]) == ("[", "]")
        records = json.loads(out)
        assert [len(r["alpha"]) for r in records] == [len(row) for row in rows]
        for line, record, row in zip(lines[1:-1], records, rows):
            assert json.loads(line.rstrip(",")) == record
            pred = DirichletPrediction.from_alpha(row)
            label = int(predict_class_batch(pred.alpha[None, :])[0])
            assert record == {**per_prediction_record(pred), "predicted_class": label}
        path.write_text("")
        assert main(["quantify", str(path)]) == 0
        assert capsys.readouterr().out == "[]\n"


class TestRun:
    def test_full_run_layout_and_summary(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("EVID_NUM_WORKERS", "1")
        config = write_config(tmp_path)
        assert main(["run", "--config", str(config)]) == 0
        out = capsys.readouterr().out
        assert "final target accuracy:" in out
        assert "+/-" in out
        assert "(2 seeds)" in out
        runs = list((tmp_path / "out").iterdir())
        assert len(runs) == 1
        for name in ("aggregate.json", "config.json", "seed0", "seed1"):
            assert (runs[0] / name).exists()

    def test_seed_and_out_overrides(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("EVID_NUM_WORKERS", "1")
        config = write_config(tmp_path)
        other = tmp_path / "elsewhere"
        assert main(
            ["run", "--config", str(config), "--seeds", "5", "--out", str(other)]
        ) == 0
        run_dir = next(other.iterdir())
        assert (run_dir / "seed5").is_dir()
        assert not (run_dir / "seed0").exists()
        capsys.readouterr()

    def test_invalid_config_exit_two(self, tmp_path, capsys):
        config = write_config(tmp_path, mode="bogus", seeds=[1, 1])
        assert main(["run", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert "mode:" in err and "seeds:" in err

    @pytest.mark.parametrize("command, name, message", [
        pytest.param("run", "nope.json", "no such file", id="run"),
        pytest.param("ablate", "nope.json", "no such file", id="ablate"),
        pytest.param("run", "conf.d", "is a directory", id="run-directory"),
        pytest.param("ablate", "conf.d", "is a directory", id="ablate-directory"),
        pytest.param("run", "config.json/x", "no such file", id="run-through-file"),
        pytest.param("ablate", "config.json/x", "no such file", id="ablate-through-file"),
    ])
    def test_missing_config_exit_two(self, tmp_path, capsys, command, name, message):
        write_config(tmp_path)
        (tmp_path / "conf.d").mkdir()
        path = tmp_path / name
        assert main([command, "--config", str(path)]) == 2
        assert f"{path}: {message}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("text, where", [
        ("[" * (100 * sys.getrecursionlimit()), None),
        ('{"a": ' * (5 * sys.getrecursionlimit()), None),
        ('{"loss": {"lambda_a": %s0.5%s}}' % ("[" * sys.getrecursionlimit(),
                                              "]" * sys.getrecursionlimit()), "loss.lambda_a"),
    ], ids=["arrays", "objects", "float-field"])
    def test_config_nested_too_deeply_exit_two(self, tmp_path, capsys, text, where):
        # A value in a field either stops the decoder or, nested a little
        # less, is reported under its field path.
        path = tmp_path / "config.json"
        path.write_text(text)
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert f"error: {path}: nested too deeply\n" == err or where and f"\n  {where}: " in err
        assert not (tmp_path / "out").exists()

    def test_non_utf8_config_exit_two(self, tmp_path, capsys):
        config = write_config(tmp_path)
        config.write_bytes(config.read_text().encode("utf-16"))
        assert main(["run", "--config", str(config)]) == 2
        assert f"{config}: not UTF-8 text" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_config_read_as_utf8_under_ascii_locale(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text('{"mod\u00e9": "variance"}', encoding="utf-8")
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src), LC_ALL="C",
                   PYTHONCOERCECLOCALE="0", PYTHONUTF8="0")
        done = subprocess.run(
            [sys.executable, "-m", "evidunc.cli", "run", "--config", str(config)],
            env=env, capture_output=True, text=True, encoding="utf-8", errors="replace",
        )
        assert done.returncode == 2
        assert "unknown field" in done.stderr and "Traceback" not in done.stderr

    def test_unallocatable_domain_exit_two(self, tmp_path, capsys):
        # Too large for numpy to attempt the class-means allocation at all.
        huge = 10**30
        document = json.loads(write_config(tmp_path).read_text())
        document["domain"].update(num_classes=huge, samples_per_domain=huge)
        config = tmp_path / "huge.json"
        config.write_text(json.dumps(document))
        assert main(["run", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert "domain: " in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_unallocatable_class_means_exit_two(self, tmp_path, capsys):
        # 10**16 class means need 8*10**16 bytes, beyond a 47-bit address
        # space, so numpy's allocation fails at once whatever the overcommit
        # setting, and MemoryError is reported under the section.
        document = json.loads(write_config(tmp_path).read_text())
        document["domain"].update(num_classes=10**8, feature_dim=10**8, samples_per_domain=10**8)
        config = tmp_path / "huge.json"
        config.write_text(json.dumps(document))
        assert main(["run", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert "domain: Unable to allocate" in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_unallocatable_pool_exit_three(self, tmp_path, capsys, monkeypatch):
        # 10**16 labels need 80 PB, beyond a 47-bit address space, so numpy's
        # allocation fails at once whatever the overcommit setting.
        monkeypatch.setenv("EVID_NUM_WORKERS", "1")
        document = json.loads(write_config(tmp_path, seeds=[0]).read_text())
        document["domain"]["samples_per_domain"] = 10**16
        config = tmp_path / "huge.json"
        config.write_text(json.dumps(document))
        assert main(["run", "--config", str(config)]) == 3
        err = capsys.readouterr().err
        assert "runtime failure: Unable to allocate" in err and "Traceback" not in err

    def test_bad_seed_list_exit_two(self, tmp_path, capsys):
        config = write_config(tmp_path)
        assert main(["run", "--config", str(config), "--seeds", "1,two"]) == 2
        assert "--seeds" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field, value",
        [
            ("seeds", [-1]),
            ("seeds", [True]),
            ("hidden_layers", [True]),
            ("domain.shift_translation", 1.5),
            ("train.learning_rate", float("nan")),
            ("train.learning_rate", float("inf")),
            ("sampling.schedule", [3, True]),
            ("train", 5),
            ("sampling.plans", 3),
            ("train.batch_size", 2.5),
            ("train.epochs", 6.0),
            ("domain.samples_per_domain", 80.0),
            ("sampling.budget_fraction", True),
            ("loss.lambda_a", "x"),
            ("sampling.schedule", [3, 50]),
            ("sampling.schedule", [5, 3]),
            ("sampling.auroc_epoch", 99),
        ],
    )
    def test_bad_value_rejected_before_running(self, tmp_path, capsys, field, value):
        config = write_config(tmp_path)
        document = json.loads(config.read_text())
        *parents, key = field.split(".")
        section = document
        for name in parents:
            section = section.setdefault(name, {})
        section[key] = value
        config.write_text(json.dumps(document))
        assert main(["run", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert f"{field}:" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("field, value", [("lr_gamma", -5.0), ("lr_beta", -3.0)])
    def test_negative_lr_schedule_value_exit_two(self, tmp_path, capsys, field, value):
        config = write_config(tmp_path, train={"epochs": 6, field: value})
        assert main(["run", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert "train: " in err and field in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("bad, flags, check", [
        ({"mode": "bogus"}, ["--mode", "entropy"], lambda run: run["mode"] == "entropy"),
        ({"seeds": [1, 1]}, ["--seeds", "0"], lambda run: run["seeds"] == [0]),
        ({"output_dir": 5}, ["--out", "elsewhere"], lambda run: run["output_dir"] == "elsewhere"),
    ], ids=["mode", "seeds", "out"])
    def test_override_replaces_bad_value_in_file(self, tmp_path, capsys, monkeypatch,
                                                 bad, flags, check):
        monkeypatch.setenv("EVID_NUM_WORKERS", "1")
        monkeypatch.chdir(tmp_path)
        config = write_config(tmp_path, **{"seeds": [0], "output_dir": "out", **bad})
        assert main(["run", "--config", str(config), *flags]) == 0
        capsys.readouterr()
        [run_dir] = (tmp_path / ("elsewhere" if "--out" in flags else "out")).iterdir()
        assert check(json.loads((run_dir / "config.json").read_text()))

    @pytest.mark.parametrize("root", [[], "config", 3])
    def test_non_object_root_with_overrides_exit_two(self, tmp_path, capsys, root):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(root))
        assert main(["run", "--config", str(config), "--seeds", "0", "--mode", "entropy"]) == 2
        assert "config root must be a JSON object" in capsys.readouterr().err

    def test_negative_seed_override_exit_two(self, tmp_path, capsys):
        config = write_config(tmp_path)
        assert main(["run", "--config", str(config), "--seeds", "-1"]) == 2
        assert "seeds:" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_empty_seed_override_exit_two(self, tmp_path, capsys):
        # An empty --seeds is an error, not a missing option.
        config = write_config(tmp_path)
        assert main(["run", "--config", str(config), "--seeds", ""]) == 2
        assert "--seeds: expected comma-separated integers, got ''" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_empty_out_override_writes_under_current_directory(self, tmp_path, capsys,
                                                               monkeypatch):
        monkeypatch.setenv("EVID_NUM_WORKERS", "1")
        monkeypatch.chdir(tmp_path)
        config = write_config(tmp_path, seeds=[0])
        assert main(["run", "--config", str(config), "--out", ""]) == 0
        capsys.readouterr()
        assert not (tmp_path / "out").exists()
        [run_dir] = [d for d in tmp_path.iterdir() if (d / "aggregate.json").exists()]
        assert json.loads((run_dir / "config.json").read_text())["output_dir"] == ""

    @pytest.mark.parametrize("section, key, named", [
        ("domain", "num_classes", "domain: num_classes must be at most"),
        ("domain", "feature_dim", "domain: feature_dim must be at most"),
        ("domain", "samples_per_domain", "domain: samples_per_domain must be at most"),
        (None, "hidden_layers", "hidden_layers: "),
    ])
    def test_size_beyond_any_array_exit_two(self, tmp_path, capsys, section, key, named):
        # 10**30 is a valid JSON integer, but no numpy array dimension.
        document = json.loads(write_config(tmp_path).read_text())
        if section is None:
            document[key] = [10**30]
        else:
            document[section][key] = 10**30
        config = tmp_path / "huge.json"
        config.write_text(json.dumps(document))
        assert main(["run", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert named in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("section, key, named", [
        ("domain", "samples_per_domain", "domain: samples_per_domain x feature_dim features"),
        (None, "hidden_layers", "hidden_layers: 2 x 4611686018427387904 and "),
    ])
    def test_size_beyond_numpy_byte_limit_exit_two(self, tmp_path, capsys, section, key, named):
        # 2**62 is a valid array dimension, but 2**62 float64 rows of two
        # features (or a 2 x 2**62 weight matrix) pass numpy's byte limit.
        document = json.loads(write_config(tmp_path).read_text())
        if section is None:
            document[key] = [2**62]
        else:
            document[section][key] = 2**62
        config = tmp_path / "huge.json"
        config.write_text(json.dumps(document))
        assert main(["run", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert named in err and "numpy's limit of" in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("cap", ["abc", "0", "-1"])
    def test_bad_worker_cap_exit_two(self, tmp_path, capsys, monkeypatch, cap):
        monkeypatch.setenv("EVID_NUM_WORKERS", cap)
        config = write_config(tmp_path)
        assert main(["run", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert "EVID_NUM_WORKERS" in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_runtime_failure_exit_three(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("EVID_NUM_WORKERS", "1")
        blocker = tmp_path / "blocked"
        blocker.write_text("a file where the run directory should go")
        config = write_config(tmp_path, output_dir=str(blocker))
        assert main(["run", "--config", str(config)]) == 3
        assert "runtime failure" in capsys.readouterr().err

    def test_diverging_run_exit_three_without_warnings(self, tmp_path, capsys, monkeypatch):
        # Weight decay of 10**30 overflows the momentum update; numpy warns
        # of nothing (a RuntimeWarning is an error in this suite) and the
        # trainer names the seed.
        monkeypatch.setenv("EVID_NUM_WORKERS", "1")
        train = {"epochs": 6, "batch_size": 16, "learning_rate": 0.05, "weight_decay": 10**30}
        config = write_config(tmp_path, train=train)
        assert main(["run", "--config", str(config)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("runtime failure: seed 0: non-finite ") and "Traceback" not in err

    def test_failed_rerun_leaves_no_aggregate(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("EVID_NUM_WORKERS", "1")
        config = write_config(tmp_path, seeds=[0])
        assert main(["run", "--config", str(config)]) == 0
        [run_dir] = (tmp_path / "out").iterdir()
        assert (run_dir / "aggregate.json").exists()
        monkeypatch.setattr("evidunc.experiments._row_task", _failing_job)
        assert main(["run", "--config", str(config)]) == 3
        assert "runtime failure" in capsys.readouterr().err
        assert not (run_dir / "aggregate.json").exists()


def _failing_job(*args):
    raise RuntimeError("job failed")


class TestAblateAndReport:
    def test_ablate_prints_five_rows(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("EVID_NUM_WORKERS", "1")
        config = write_config(tmp_path, seeds=[0])
        assert main(["ablate", "--config", str(config)]) == 0
        out = capsys.readouterr().out
        for name in ("source-only", "+UG", "+US", "+UG+US", "+UG+US+CS"):
            assert name in out
        table = json.loads((tmp_path / "out" / "ablation.json").read_text())
        assert len(table) == 5

    def test_ablate_names_the_failing_row(self, tmp_path, capsys):
        # The config's own switches (CS off) fit; the +UG+US+CS row's round 2
        # window of 10*4 + 30 = 70 exceeds the 46 samples round 1 leaves.
        plans = [{"round_index": k, "b_u": 4, "b_c": 30, "kappa": 10} for k in (1, 2)]
        config = write_config(
            tmp_path,
            sampling={"plans": plans, "schedule": [3, 5], "budget_fraction": 0.1},
            ablation={"ug": True, "us": True, "cs": False},
        )
        assert main(["ablate", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert "+UG+US+CS" in err
        assert "round 2 selects from 70 unlabeled samples" in err
        assert not (tmp_path / "out").exists()

    def test_failed_rerun_leaves_no_marker(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("EVID_NUM_WORKERS", "1")
        config = write_config(tmp_path, seeds=[0])
        out = tmp_path / "out"
        assert main(["ablate", "--config", str(config)]) == 0
        assert len(list(out.rglob("aggregate.json"))) == 5
        monkeypatch.setattr("evidunc.experiments._row_task", _failing_job)
        assert main(["ablate", "--config", str(config)]) == 3
        assert "runtime failure" in capsys.readouterr().err
        assert not (out / "ablation.json").exists()
        assert not list(out.rglob("aggregate.json"))
        assert main(["report", "--out", str(out)]) == 2

    def test_report_on_run_directory(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("EVID_NUM_WORKERS", "1")
        config = write_config(tmp_path, seeds=[0])
        main(["run", "--config", str(config)])
        capsys.readouterr()
        run_dir = next((tmp_path / "out").iterdir())
        assert main(["report", "--out", str(run_dir)]) == 0
        out = capsys.readouterr().out
        assert "final target accuracy:" in out
        assert "round accuracy means:" in out

    def test_report_on_ablation_directory(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("EVID_NUM_WORKERS", "1")
        config = write_config(tmp_path, seeds=[0])
        main(["ablate", "--config", str(config)])
        capsys.readouterr()
        assert main(["report", "--out", str(tmp_path / "out")]) == 0
        assert "+UG+US+CS" in capsys.readouterr().out

    @pytest.mark.parametrize("name", ["aggregate.json", "ablation.json"])
    def test_report_on_directory_in_place_of_file_exit_two(self, tmp_path, capsys, name):
        (tmp_path / name).mkdir()
        assert main(["report", "--out", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {tmp_path / name}: is a directory\n"
        assert captured.out == ""

    def test_report_on_empty_directory(self, tmp_path, capsys):
        assert main(["report", "--out", str(tmp_path)]) == 2
        assert "no aggregate.json" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "name, text",
        [
            ("aggregate.json", '{"mode": "variance",'),
            ("aggregate.json", '{"mode": "variance"}'),
            ("aggregate.json", "[1, 2]"),
            ("ablation.json", '[{"row": "+UG"'),
            ("ablation.json", '[{"row": "+UG"}]'),
            ("ablation.json", '{"row": "+UG"}'),
            ("ablation.json", "[]"),
        ],
    )
    def test_report_on_damaged_file_exit_two(self, tmp_path, capsys, name, text):
        (tmp_path / name).write_text(text)
        assert main(["report", "--out", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert str(tmp_path / name) in captured.err
        assert captured.out == ""


class TestInterrupt:
    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_ctrl_c_exits_130_without_traceback(self, tmp_path, workers):
        # SIGINT goes to the process group, as Ctrl-C in a terminal sends it,
        # of a CLI in its own session, once the first seed directory appears.
        # 4 seeds of 3000 samples leave about a second of work after that.
        config = write_config(tmp_path, seeds=[0, 1, 2, 3], hidden_layers=[32, 32],
                              domain={"num_classes": 3, "feature_dim": 2,
                                      "samples_per_domain": 3000},
                              train={"epochs": 20}, sampling={"budget_fraction": 0.05})
        out = tmp_path / "out"
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src), EVID_NUM_WORKERS=workers)
        proc = subprocess.Popen(
            [sys.executable, "-m", "evidunc.cli", "ablate", "--config", str(config)],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            start_new_session=True,
        )
        try:
            deadline = time.monotonic() + 120
            while not any(out.rglob("seed*")):
                assert proc.poll() is None, proc.communicate()
                assert time.monotonic() < deadline
                time.sleep(0.01)
            os.killpg(proc.pid, signal.SIGINT)
            _, err = proc.communicate(timeout=120)
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
        assert proc.returncode == 130, err
        assert err == "interrupted\n"
        for marker in ("aggregate.json", "ablation.json", "*.tmp"):
            assert list(out.rglob(marker)) == []

    def test_pool_workers_ignore_sigint(self, monkeypatch):
        # Ctrl-C reaches a worker that waits for its next task, too, which
        # would end it in a traceback of its own; the parent alone reports it.
        monkeypatch.setattr(experiments, "_set_blas_threads", lambda n: None)
        monkeypatch.setattr(experiments, "_heap_setting", lambda: None)
        before = signal.getsignal(signal.SIGINT)
        try:
            experiments._start_worker()
            assert signal.getsignal(signal.SIGINT) is signal.SIG_IGN
        finally:
            signal.signal(signal.SIGINT, before)


class TestDeterminism:
    def test_rerun_is_byte_identical(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("EVID_NUM_WORKERS", "1")
        config = write_config(tmp_path, seeds=[0])
        main(["run", "--config", str(config)])
        run_dir = next((tmp_path / "out").iterdir())
        report = run_dir / "seed0" / "report.json"
        first = report.read_bytes()
        main(["run", "--config", str(config)])
        capsys.readouterr()
        assert report.read_bytes() == first

    def test_mode_override_changes_run_dir(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("EVID_NUM_WORKERS", "1")
        config = write_config(tmp_path, seeds=[0])
        main(["run", "--config", str(config)])
        main(["run", "--config", str(config), "--mode", "entropy"])
        capsys.readouterr()
        assert len(list((tmp_path / "out").iterdir())) == 2
