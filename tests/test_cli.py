import contextlib
import functools
import json
import os
import shutil
import subprocess
import sys
import threading
import time
import tracemalloc
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from pmdiag import cli, conformal, core, evaluation, model, preprocess, synth
from pmdiag.core import FaultClass, Manoeuvre, Dataset, PmDiagError, save_dataset, load_dataset

from conftest import diagnosed, members, preprocessed


SMALL_CONFIG = {
    "synth": {
        "profile": "MJ",
        "noise_sigma": 0.09,
        "amplitude_jitter": 0.05,
        "duration_jitter": 0.05,
        "seed": 21,
        "counts": {
            "Nominal": 26,
            "Obstacle": 14,
            "Friction": 14,
            "PowerSupply": 12,
            "Misalignment": 10,
        },
        "severity_range": [0.3, 1.0],
    },
    "train": {"epochs": 30, "seed": 21},
    "split": {"seed": 21},
}


@pytest.fixture()
def config_path(tmp_path):
    p = tmp_path / "config.json"
    p.write_text(json.dumps(SMALL_CONFIG))
    return str(p)


def run(argv):
    return cli.main(argv)


def assert_no_child_processes():
    """No child process is running or waiting to be reaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def no_fork(monkeypatch, how):
    """Make forking impossible: no fork start method, or a fork that fails;
    or, for "second_fork_fails", let one child start and refuse the next."""
    import multiprocessing

    if how == "no_fork_method":
        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    else:
        start = multiprocessing.process.BaseProcess.start
        starts = []

        def refuse(self):
            starts.append(self)
            if how == "fork_fails" or len(starts) == 2:
                raise BlockingIOError(11, "Resource temporarily unavailable")
            start(self)

        monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", refuse)


def output_files(out):
    """Each output file's bytes; report.json without its timestamp."""
    files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    report = json.loads(files.pop("report.json"))
    report.pop("timestamp")
    return files, report


def test_import_starts_no_multiprocessing():
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, pmdiag.cli; sys.exit('multiprocessing' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


class TestGenerate:
    def test_small_config(self, tmp_path, config_path, capsys):
        out = tmp_path / "out"
        assert run(["generate", "--config", config_path, "--out", str(out)]) == 0
        lines = (out / "dataset.jsonl").read_text().splitlines()
        assert len(lines) == 76
        captured = capsys.readouterr()
        assert "Nominal: 26" in captured.out

    def test_default_config_writes_1110(self, tmp_path):
        out = tmp_path / "out"
        assert run(["generate", "--out", str(out)]) == 0
        assert len((out / "dataset.jsonl").read_text().splitlines()) == 1110

    def test_zero_counts(self, tmp_path):
        cfg = {"synth": {"counts": {}}}
        p = tmp_path / "c.json"
        p.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        assert run(["generate", "--config", str(p), "--out", str(out)]) == 0
        assert (out / "dataset.jsonl").read_text() == ""

    def test_missing_config_exits_2(self, tmp_path):
        assert run(["generate", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize(
        "section", ["<root>", "synth", "synth.profile", "synth.counts", "preprocess", "train", "conformal", "split",
                    "paths"]
    )
    def test_unknown_key_exits_2(self, tmp_path, capsys, section):
        cfg = {"wavelets": "x"}
        if section != "<root>":
            for key in reversed(section.split(".")):
                cfg = {key: cfg}
        p = tmp_path / "c.json"
        p.write_text(json.dumps(cfg))
        assert run(["generate", "--config", str(p), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == f"config error: unknown keys in section {section!r}: ['wavelets']\n"

    @pytest.mark.parametrize(
        "cfg, flags, tail",
        [
            ({"synth": 5}, [], ""),
            ({"train": [1]}, [], ""),
            ({"split": "x"}, [], ""),
            ({"train": [["epochs", 1]]}, [], ""),
            ({"synth": {"severity_range": [0.9, 0.1]}}, [], ""),
            ({"train": {"seed": -1}}, [], ""),
            ({"split": {"seed": 2**64}}, [], ""),
            ({}, ["--seed", "-1"], ""),
            ({}, ["--seed", str(2**64)], ""),
            ({"train": {"epochs": 2.5}}, [], ""),
            ({"train": {"epochs": True}}, [], ""),
            ({"train": {"batch_size": 32.0}}, [], ""),
            ({"preprocess": {"smooth_window": 5.0}}, [], ""),
            ({"synth": {"seed": 1.5}}, [], ""),
            ({"split": {"seed": 1.5}}, [], ""),
            ({"train": {"seed": 2.5}}, [], ""),
            ({"synth": {"profile": {**asdict(synth.DEFAULT_PROFILES["MJ"]), "sample_rate": float("nan")}}}, [], ""),
            ({"synth": {"noise_sigma": float("nan")}}, [], ""),
            ({"synth": {"noise_sigma": float("inf")}}, [], ""),
            ({"train": {"learning_rate": float("nan")}}, [], ""),
            ({"train": {"class_weights": [1.0, 1.0, float("nan"), 1.0, 1.0]}}, [], ""),
            ({"train": {"learning_rate": True}}, [], "section 'train': learning_rate must be a number, not true\n"),
            ({"train": {"learning_rate": None}}, [], "section 'train': learning_rate must be a number, not null\n"),
            ({"preprocess": {"noise_floor": "x"}}, [], "section 'preprocess': noise_floor must be a number, not \"x\"\n"),
            ({"synth": {"profile": {**asdict(synth.DEFAULT_PROFILES["MJ"]), "name": 5}}}, [], ""),
            ({"train": {"class_weights": [True, 1, 1, 1, 1]}}, [], ""),
            ({"train": {"class_weights": ["2", 1, 1, 1, 1]}}, [], ""),
            ({"conformal": {"alpha": "x"}}, [], "section 'conformal': alpha must be a number, not \"x\"\n"),
            ({"conformal": {"alpha": 1.5}}, [], "section 'conformal': alpha must be in (0, 1)\n"),
            ({"synth": {"counts": {"Nominal": 2.0}}}, [], "section 'synth.counts': Nominal must be an integer, not 2.0\n"),
            ({"synth": {"counts": {"Nominal": -1}}}, [], "section 'synth.counts': Nominal must be nonnegative, not -1\n"),
        ],
        ids=["synth_number", "train_list", "split_string", "train_pairs", "severity_reversed",
             "train_seed_negative", "split_seed_2_64", "seed_negative", "seed_2_64",
             "epochs_float", "epochs_bool", "batch_size_float", "smooth_window_float", "synth_seed_float",
             "split_seed_float", "train_seed_float", "sample_rate_nan", "noise_sigma_nan",
             "noise_sigma_inf", "learning_rate_nan", "class_weight_nan", "learning_rate_bool", "learning_rate_null",
             "noise_floor_string", "profile_name_number", "class_weight_bool", "class_weight_string",
             "alpha_string", "alpha_out_of_range", "count_float", "count_negative"],
    )
    def test_malformed_config_exits_2_with_one_line(self, tmp_path, capsys, cfg, flags, tail):
        """A rejected value is spelled as JSON, as the config file holds it."""
        p = tmp_path / "c.json"
        p.write_text(json.dumps(cfg))
        code = run(["generate", "--config", str(p), "--out", str(tmp_path / "o"), *flags])
        err = capsys.readouterr().err
        assert (code, err[: len("config error: ")], err.count("\n")) == (2, "config error: ", 1)
        assert err.endswith(tail)

    def test_invalid_json_exits_2(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text("{nope")
        assert run(["generate", "--config", str(p), "--out", str(tmp_path / "o")]) == 2


class TestPipeline:
    def test_manifest_and_metrics(self, tmp_path, config_path, capsys):
        out = tmp_path / "out"
        assert run(["pipeline", "--config", config_path, "--out", str(out)]) == 0
        for name in (
            "dataset.jsonl",
            "features.jsonl",
            "model.json",
            "predictor.json",
            "report.json",
            "diagnoses.jsonl",
        ):
            assert (out / name).exists(), name
        report = json.loads((out / "report.json").read_text())
        metrics = report["metrics"]
        for key in ("precision", "fpr", "fnr", "coverage", "mean_set_size"):
            assert key in metrics
        assert 0.0 <= metrics["precision"] <= 1.0
        assert report["counts"]["dataset"]["Nominal"] == 26
        shipped = [json.loads(l) for l in (out / "diagnoses.jsonl").read_text().splitlines()]
        assert len(shipped) == sum(report["counts"]["holdout"].values())
        # the report's coverage and set size are those of the diagnoses it ships
        sets = [[member["class"] for member in row["prediction_set"]] for row in shipped]
        covered = sum(row["label"] in s for row, s in zip(shipped, sets))
        assert metrics["coverage"] == covered / len(shipped)
        assert metrics["mean_set_size"] == sum(map(len, sets)) / len(shipped)

    def test_one_forward_pass_per_test_row(self, tmp_path, config_path, monkeypatch):
        rows = []
        forward_rows = model.forward_rows

        def counted(mdl, x):
            rows.extend(row.tobytes() for row in np.asarray(x))
            return forward_rows(mdl, x)

        # every inference path, the one-row forward too, goes through forward_rows
        monkeypatch.setattr(model, "forward_rows", counted)
        out = tmp_path / "out"
        assert run(["pipeline", "--config", config_path, "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert len(rows) == len(set(rows)) == sum(report["counts"]["test"].values())

    def test_deterministic_outputs(self, tmp_path, config_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run(["pipeline", "--config", config_path, "--out", str(out1)]) == 0
        assert run(["pipeline", "--config", config_path, "--out", str(out2)]) == 0
        r1 = json.loads((out1 / "report.json").read_text())
        r2 = json.loads((out2 / "report.json").read_text())
        r1.pop("timestamp")
        r2.pop("timestamp")
        assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)
        assert (out1 / "model.json").read_bytes() == (out2 / "model.json").read_bytes()
        assert (out1 / "dataset.jsonl").read_bytes() == (out2 / "dataset.jsonl").read_bytes()

    @pytest.mark.parametrize("how", ["no_fork_method", "fork_fails"])
    def test_inline_writes_match_writer_process(self, tmp_path, config_path, monkeypatch, how):
        assert run(["pipeline", "--config", config_path, "--out", str(tmp_path / "forked")]) == 0
        no_fork(monkeypatch, how)
        assert run(["pipeline", "--config", config_path, "--out", str(tmp_path / "inline")]) == 0
        assert output_files(tmp_path / "inline") == output_files(tmp_path / "forked")
        assert_no_child_processes()

    def test_input_write_failure_exits_3_before_model(self, tmp_path, config_path, capfd):
        out = tmp_path / "out"
        (out / "dataset.jsonl").mkdir(parents=True)
        code = run(["pipeline", "--config", config_path, "--out", str(out)])
        assert_no_child_processes()
        err = capfd.readouterr().err
        assert code == 3
        # the in-process write's message alone: the writer process printed nothing
        assert err.startswith(f"i/o error: cannot write {out / 'dataset.jsonl'}: ")
        assert err.count("\n") == 1
        assert sorted(p.name for p in out.iterdir()) == ["dataset.jsonl"]

    def test_stage_failure_after_fork_leaves_complete_inputs(self, tmp_path, config_path, capsys, monkeypatch):
        ref = tmp_path / "ref"
        assert run(["generate", "--config", config_path, "--out", str(ref)]) == 0
        assert run(["preprocess", "--config", config_path, "--out", str(ref)]) == 0

        def fail(*args, **kwargs):
            raise model.DegenerateDataError("no training today")

        monkeypatch.setattr(model, "train", fail)
        out = tmp_path / "out"
        capsys.readouterr()
        code = run(["pipeline", "--config", config_path, "--out", str(out)])
        assert_no_child_processes()
        assert code == 4
        assert capsys.readouterr().err == "pipeline failure in train: no training today\n"
        assert sorted(p.name for p in out.iterdir()) == ["dataset.jsonl", "features.jsonl"]
        for name in ("dataset.jsonl", "features.jsonl"):
            assert (out / name).read_bytes() == (ref / name).read_bytes(), name

    def test_flat_signal_exits_4_naming_stage(self, tmp_path, capsys):
        cfg = synth.SynthConfig(profile=synth.DEFAULT_PROFILES["MJ"], noise_sigma=0.05)
        good = [
            synth.generate_manoeuvre(cfg, FaultClass.Nominal, 0.0, s, manoeuvre_id=f"good-{s}")
            for s in range(4)
        ]
        flat = Manoeuvre("flat-1", "MJ", 0.0, np.zeros(100), 100.0, label=FaultClass.Nominal)
        ds = Dataset(manoeuvres=(*good, flat), provenance="handmade")
        ds_path = tmp_path / "flat.jsonl"
        save_dataset(ds, ds_path)
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"paths": {"dataset": str(ds_path)}}))
        code = run(["pipeline", "--config", str(p), "--out", str(tmp_path / "o")])
        captured = capsys.readouterr()
        assert code == 4
        assert "preprocess" in captured.err
        assert "flat-1" in captured.err
        # the dataset is written before preprocessing fails
        assert (tmp_path / "o" / "dataset.jsonl").read_bytes() == ds_path.read_bytes()


    def test_unlabelled_manoeuvre_exits_4_naming_it(self, tmp_path, capsys):
        cfg = synth.SynthConfig(profile=synth.DEFAULT_PROFILES["MJ"], noise_sigma=0.05)
        ds = synth.generate_dataset({FaultClass.Nominal: 4, FaultClass.Obstacle: 4}, cfg)
        manoeuvres = list(ds)
        m = manoeuvres[2]
        manoeuvres[2] = Manoeuvre(m.id, m.technology, m.timestamp, m.samples, m.sample_rate)
        ds_path = tmp_path / "partly_labelled.jsonl"
        save_dataset(Dataset(manoeuvres=tuple(manoeuvres), provenance="handmade"), ds_path)
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"paths": {"dataset": str(ds_path)}}))
        code = run(["pipeline", "--config", str(p), "--out", str(tmp_path / "o")])
        assert_no_child_processes()
        assert code == 4
        assert capsys.readouterr().err == (
            f"pipeline failure in split: manoeuvre {m.id!r} is unlabelled; splits need labels\n"
        )

    def test_pinned_uniform_class_weights_are_kept(self, tmp_path):
        """A train section that gives class_weights, all ones included, trains
        with them; without it the weights come from the training labels."""
        weights = {}
        for name, train in [("pinned", {"class_weights": [1, 1, 1, 1, 1]}), ("derived", {})]:
            p = tmp_path / f"{name}.json"
            p.write_text(json.dumps({**SMALL_CONFIG, "train": {"epochs": 5, **train}}))
            assert run(["pipeline", "--config", str(p), "--out", str(tmp_path / name)]) == 0
            weights[name] = json.loads((tmp_path / name / "model.json").read_text())["train_config"]["class_weights"]
            report = json.loads((tmp_path / name / "report.json").read_text())
            assert report["config"]["train"]["class_weights"] == [1.0] * 5
        assert weights["pinned"] == [1.0] * 5
        assert weights["derived"] != [1.0] * 5

    def test_feature_length_sets_model_input_width(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({**SMALL_CONFIG, "preprocess": {"feature_length": 64}}))
        out = tmp_path / "out"
        assert run(["pipeline", "--config", str(p), "--out", str(out)]) == 0
        assert json.loads((out / "model.json").read_text())["layer_dims"] == [64, 64, 32, 5]
        assert run(["diagnose", "--config", str(p), "--out", str(out)]) == 0


class TestDiagnose:
    @pytest.fixture()
    def trained_out(self, tmp_path, config_path):
        out = tmp_path / "out"
        assert run(["pipeline", "--config", config_path, "--out", str(out)]) == 0
        return out

    def test_single_obstacle_trace(self, tmp_path, trained_out, config_path, capsys):
        cfg = synth.SynthConfig(
            profile=synth.DEFAULT_PROFILES["MJ"], noise_sigma=0.09, seed=5
        )
        m = synth.generate_manoeuvre(cfg, FaultClass.Obstacle, 0.9, 50, manoeuvre_id="field-1")
        ds_path = tmp_path / "one.jsonl"
        save_dataset(Dataset(manoeuvres=(m,), provenance="field"), ds_path)
        code = run([
            "diagnose", "--config", config_path, "--out", str(trained_out),
            "--dataset", str(ds_path),
        ])
        captured = capsys.readouterr()
        assert code == 0
        assert "Obstacle" in captured.out
        assert "field-1" in captured.out
        objs = [json.loads(l) for l in (trained_out / "diagnoses.jsonl").read_text().splitlines()]
        assert objs[0]["source_id"] == "field-1"
        classes = {e["class"] for e in objs[0]["prediction_set"]}
        assert "Obstacle" in classes

    def test_digest_mismatch_exits_5(self, tmp_path, trained_out, config_path):
        from pmdiag import model as mlp

        other = mlp.init_params((128, 64, 32, 5), 12345)
        other_path = tmp_path / "other_model.json"
        mlp.save_model(other, other_path)
        code = run([
            "diagnose", "--config", config_path, "--out", str(trained_out),
            "--model", str(other_path),
        ])
        assert code == 5

    def test_model_with_other_class_order_exits_3(self, trained_out, config_path, capsys):
        # output column k is FaultClass(k): a model.json that names its first
        # two columns the other way round would label Nominal's column Obstacle
        path = trained_out / "model.json"
        obj = json.loads(path.read_text())
        obj["class_names"][:2] = obj["class_names"][1::-1]
        path.write_text(json.dumps(obj, sort_keys=True))
        capsys.readouterr()
        for command in ("calibrate", "diagnose"):
            assert run([command, "--config", config_path, "--out", str(trained_out)]) == 3
            assert f"{path} is not a valid model file: class_names" in capsys.readouterr().err

    def test_width_mismatch_exits_4_before_reading_dataset(self, tmp_path, trained_out, capsys):
        p = tmp_path / "short.json"
        p.write_text(json.dumps({**SMALL_CONFIG, "preprocess": {"feature_length": 64}}))
        capsys.readouterr()
        code = run(["diagnose", "--config", str(p), "--out", str(trained_out),
                    "--dataset", str(tmp_path / "no-such-dataset.jsonl")])
        assert code == 4
        assert capsys.readouterr().err == (
            "pipeline failure in diagnose: "
            "preprocess.feature_length 64 != the model's input width 128\n"
        )

    def test_diagnose_failure_names_manoeuvre(
        self, tmp_path, trained_out, config_path, capsys, monkeypatch, forks
    ):
        # preprocess yields finite features, so two poisoned ones stand in for
        # rows the model rejects: both past the parent's chunk, so the forked
        # load and the scoring must keep the row order to name the first
        ids = [m.id for m in load_dataset(trained_out / "dataset.jsonl")]
        poisoned = {ids[-20], ids[-5]}
        real = preprocess.preprocess_rows

        def poison(manoeuvres, cfg):
            values, errors = real(manoeuvres, cfg)
            for row, m in zip(values, manoeuvres):
                if m.id in poisoned:
                    row[:] = np.nan
            return values, errors

        monkeypatch.setattr(preprocess, "preprocess_rows", poison)
        capsys.readouterr()
        code = run(["diagnose", "--config", config_path, "--out", str(trained_out)])
        assert len(forks) == 2
        assert code == 4
        assert capsys.readouterr().err == (
            f"pipeline failure in diagnose: manoeuvre {ids[-20]!r}: input value 0 is not finite\n"
        )

    def test_unlabelled_dataset_runs(self, tmp_path, trained_out, config_path):
        ds = load_dataset(trained_out / "dataset.jsonl")
        stripped = Dataset(
            manoeuvres=tuple(
                Manoeuvre(m.id, m.technology, m.timestamp, m.samples, m.sample_rate)
                for m in list(ds)[:5]
            ),
            provenance="unlabelled",
        )
        ds_path = tmp_path / "unlabelled.jsonl"
        save_dataset(stripped, ds_path)
        code = run([
            "diagnose", "--config", config_path, "--out", str(trained_out),
            "--dataset", str(ds_path),
        ])
        assert code == 0

    def test_batch_of_one_equals_batch_of_n(self, tmp_path, trained_out, config_path, forks):
        # a whole file: loaded on three processes and scored as one matrix
        picked = list(load_dataset(trained_out / "dataset.jsonl"))
        assert len(picked) >= cli.FORK_MIN_LINES
        bound = ["--model", str(trained_out / "model.json"),
                 "--predictor", str(trained_out / "predictor.json")]

        def diagnosed(manoeuvres, name):
            ds_path = tmp_path / f"{name}.jsonl"
            save_dataset(Dataset(manoeuvres=tuple(manoeuvres), provenance=name), ds_path)
            out = tmp_path / name
            assert run(["diagnose", "--config", config_path, "--out", str(out),
                        "--dataset", str(ds_path), *bound]) == 0
            return [json.loads(l) for l in (out / "diagnoses.jsonl").read_text().splitlines()]

        batch = diagnosed(picked, "batch")
        assert len(forks) == 2
        assert [row["source_id"] for row in batch] == [m.id for m in picked]
        for m, row in zip(picked, batch):
            [alone] = diagnosed([m], f"alone-{m.id}")
            assert alone == row
        assert len(forks) == 2


@pytest.fixture(scope="module")
def trained_run(tmp_path_factory):
    """A SMALL_CONFIG pipeline run: a model, its predictor and a 76-line dataset."""
    out = tmp_path_factory.mktemp("trained")
    (out / "config.json").write_text(json.dumps(SMALL_CONFIG))
    assert run(["pipeline", "--config", str(out / "config.json"), "--out", str(out)]) == 0
    return out


@pytest.mark.parametrize("alpha, shown", [(0.05, "95"), (0.025, "97.5"), (0.005, "99.5")])
def test_diagnose_prints_one_minus_alpha_unrounded(trained_run, tmp_path, capsys, alpha, shown):
    predictor = json.loads((trained_run / "predictor.json").read_text())
    predictor_path = tmp_path / "predictor.json"
    predictor_path.write_text(json.dumps({**predictor, "alpha": alpha}))
    code = run([
        "diagnose", "--config", str(trained_run / "config.json"), "--out", str(tmp_path),
        "--model", str(trained_run / "model.json"), "--predictor", str(predictor_path),
        "--dataset", str(trained_run / "dataset.jsonl"),
    ])
    lines = capsys.readouterr().out.splitlines()
    assert code == 0 and len(lines) == 76
    assert all(line.endswith(f" (set covers the true class at {shown}%)") for line in lines)


def test_diagnose_prints_one_line_per_manoeuvre_whatever_its_id(trained_run, tmp_path, capsys):
    # an id is shown as its JSON string body: a line feed or carriage return
    # in it is escaped, and an id with neither keeps its bytes
    obj = json.loads((trained_run / "dataset.jsonl").read_text().splitlines()[0])
    del obj["label"]
    ids = ["a\nb", "c\rd", "weiche-ß 7"]
    ds_path = tmp_path / "ids.jsonl"
    ds_path.write_text("".join(json.dumps({**obj, "id": mid}) + "\n" for mid in ids), encoding="utf-8")
    code = run([
        "diagnose", "--config", str(trained_run / "config.json"), "--out", str(tmp_path),
        "--model", str(trained_run / "model.json"), "--predictor", str(trained_run / "predictor.json"),
        "--dataset", str(ds_path),
    ])
    lines = capsys.readouterr().out.splitlines()
    assert code == 0 and len(lines) == 3
    assert [line.split(": ", 1)[0] for line in lines] == ["a\\nb", "c\\rd", "weiche-ß 7"]


@pytest.mark.parametrize(
    "name", ["dataset.jsonl", "features.jsonl", "model.json", "predictor.json", "config.json"]
)
def test_file_not_utf8_exits_with_one_line(trained_run, tmp_path, capsys, name):
    out = tmp_path / "out"
    shutil.copytree(trained_run, out)
    path = out / name
    path.write_bytes(path.read_bytes() + b"\xff\xfe\n")
    command = "evaluate" if name == "features.jsonl" else "diagnose"
    capsys.readouterr()
    code = run([command, "--config", str(out / "config.json"), "--out", str(out)])
    err = capsys.readouterr().err
    expected = (2, "config error: ") if name == "config.json" else (3, "i/o error: ")
    assert (code, err[: len(expected[1])]) == expected
    assert err.count("\n") == 1 and name in err
    assert_no_child_processes()


class TestJsonTypes:
    """Every reader of a JSON file takes a field's value only of its JSON
    kind: a bool or a numeric string is no number, and 128.0 and 128.9 are
    no integers. Each case edits one value of a file of a small run (the
    first line of a JSONL file) and runs the command that reads it."""

    # file: (command, exit code, stderr before the message)
    READERS = {
        "config.json": ("diagnose", 2, "config error: section 'train': "),
        "predictor.json": ("diagnose", 3, "i/o error: {path} is not a valid predictor file: "),
        "model.json": ("diagnose", 3, "i/o error: {path} is not a valid model file: "),
        "features.jsonl": ("evaluate", 4, "pipeline failure in load: line 1: "),
        "dataset.jsonl": ("diagnose", 4, "pipeline failure in load: line 1: "),
    }
    # name: (file, keys to the value, new value or a function of the old one, message);
    # {json} in a message stands for the new value as JSON
    CASES = {
        "config_number_bool": ("config.json", ["train", "learning_rate"], True,
                               "learning_rate must be a number, not true"),
        "config_number_string": ("config.json", ["train", "learning_rate"], "0.01",
                                 "learning_rate must be a number, not {json}"),
        "config_integer_whole_float": ("config.json", ["train", "epochs"], 128.0,
                                       "epochs must be an integer, not 128.0"),
        "config_integer_fraction": ("config.json", ["train", "epochs"], 128.9, "epochs must be an integer, not 128.9"),
        "predictor_number_bool": ("predictor.json", ["alpha"], True, "alpha must be a number, not true"),
        "predictor_number_string": ("predictor.json", ["qhat"], repr, "qhat must be a number, not {json}"),
        "predictor_integer_whole_float": ("predictor.json", ["n_calibration"], 128.0,
                                          "n_calibration must be an integer, not 128.0"),
        "predictor_integer_fraction": ("predictor.json", ["n_calibration"], 128.9,
                                       "n_calibration must be an integer, not 128.9"),
        "model_number_bool": ("model.json", ["weights", 0, 0, 0], True, "weights is not a numeric array"),
        # the string of the weight's own value: the file's digest still matches
        "model_number_string": ("model.json", ["weights", 0, 0, 0], repr, "weights is not a numeric array"),
        "model_bias_string": ("model.json", ["biases", 2, 4], repr, "biases is not a numeric array"),
        "model_integer_whole_float": ("model.json", ["layer_dims", 0], 128.0, "layer_dims is not an integer array"),
        "model_integer_fraction": ("model.json", ["layer_dims", 0], 128.9, "layer_dims is not an integer array"),
        "features_number_bool": ("features.jsonl", ["values", 3], True, "values is not a numeric array"),
        "features_number_string": ("features.jsonl", ["values", 3], repr, "values is not a numeric array"),
        "features_string_number": ("features.jsonl", ["source_id"], 5, "source_id must be a string, not 5"),
        "dataset_number_bool": ("dataset.jsonl", ["timestamp"], True, "timestamp must be a number, not true"),
        "dataset_number_string": ("dataset.jsonl", ["sample_rate"], repr, "sample_rate must be a number, not {json}"),
        "dataset_string_number": ("dataset.jsonl", ["id"], 5, "id must be a string, not 5"),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_value_of_another_kind_exits_with_its_readers_code(self, trained_run, tmp_path, capsys, case):
        name, keys, value, message = self.CASES[case]
        command, exit_code, prefix = self.READERS[name]
        out = tmp_path / "out"
        shutil.copytree(trained_run, out)
        path = out / name
        # a JSON file is one object, a JSONL file one per line
        first, *rest = path.read_text().splitlines(keepends=True) if name.endswith(".jsonl") else [path.read_text()]
        obj = json.loads(first)
        *parents, last = keys
        holder = functools.reduce(lambda node, key: node[key], parents, obj)
        holder[last] = value(holder[last]) if callable(value) else value
        path.write_text("".join([json.dumps(obj) + "\n", *rest]))
        capsys.readouterr()
        code = run([command, "--config", str(out / "config.json"), "--out", str(out)])
        expected = prefix.format(path=path) + message.format(json=json.dumps(holder[last])) + "\n"
        assert (code, capsys.readouterr().err) == (exit_code, expected)

    def test_written_files_load_back_equal(self, trained_run):
        """What a pipeline run writes, each reader takes back with equal values."""
        params = json.loads((trained_run / "model.json").read_text())
        mdl = model.load_model(trained_run / "model.json")
        assert mdl.layer_dims == tuple(params["layer_dims"]) and {type(d) for d in mdl.layer_dims} == {int}
        for got, written in zip([*mdl.weights, *mdl.biases], [*params["weights"], *params["biases"]]):
            assert got.dtype == np.float64 and np.array_equal(got, np.array(written))
        predictor = conformal.load_predictor(trained_run / "predictor.json")
        assert asdict(predictor) == json.loads((trained_run / "predictor.json").read_text())
        assert predictor.model_digest == model.model_digest(mdl)
        lines = [json.loads(line) for line in (trained_run / "features.jsonl").read_text().splitlines()]
        records = preprocess.load_features(trained_run / "features.jsonl")
        assert [(fv.source_id, label.name) for fv, label in records] == [(o["source_id"], o["label"]) for o in lines]
        assert np.array_equal(np.stack([fv.values for fv, _ in records]), np.array([o["values"] for o in lines]))
        lines = [json.loads(line) for line in (trained_run / "dataset.jsonl").read_text().splitlines()]
        manoeuvres = load_dataset(trained_run / "dataset.jsonl").manoeuvres
        assert [core._manoeuvre_to_obj(m) for m in manoeuvres] == lines
        assert all(np.array_equal(m.samples, np.array(o["samples"])) for m, o in zip(manoeuvres, lines))


@pytest.fixture()
def forks(monkeypatch):
    """Load on three processes whatever the host has, and count the forks."""
    import multiprocessing

    started = []
    start = multiprocessing.process.BaseProcess.start

    def counted(self):
        started.append(self)
        start(self)

    monkeypatch.setattr(cli, "_cpus", lambda: 3)
    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", counted)
    return started


def open_fds() -> set:
    """This process's open file descriptors."""
    return set(os.listdir("/proc/self/fd"))


@contextlib.contextmanager
def fifo_fed(fifo, data: bytes):
    """Write `data` into the FIFO `fifo` from a thread while the block runs."""
    writer = threading.Thread(target=fifo.write_bytes, args=(data,))
    writer.start()
    try:
        yield
    finally:
        writer.join(timeout=60)
    assert not writer.is_alive()


@pytest.fixture(scope="module")
def long_dataset(trained_run, tmp_path_factory):
    """The pipeline's 76 lines four times over under new ids: 304 lines, so
    three processes load five pieces of 64 lines or fewer."""
    lines = (trained_run / "dataset.jsonl").read_text().splitlines()
    objs = [{**json.loads(l), "id": f"{json.loads(l)['id']}-{rep}"} for rep in range(4) for l in lines]
    path = tmp_path_factory.mktemp("long") / "long.jsonl"
    path.write_text("".join(json.dumps(obj) + "\n" for obj in objs))
    return path


class TestForkedLoad:
    def command(self, trained_run, tmp_path, name, ds_path):
        config = tmp_path / f"{name}-config.json"
        config.write_text(json.dumps({**SMALL_CONFIG, "paths": {"dataset": str(ds_path)}}))
        argv = [name, "--config", str(config), "--out", str(tmp_path / "out")]
        if name == "diagnose":
            argv += ["--model", str(trained_run / "model.json"),
                     "--predictor", str(trained_run / "predictor.json")]
        return argv

    def outcome(self, argv, out, capsys, during=contextlib.nullcontext):
        """Exit code, stdout, stderr and output files of one call, made
        inside the context `during()`; clears `out`.

        The call must leave no child process and no file descriptor open.
        """
        capsys.readouterr()
        fds = open_fds()
        with during():
            code = run(argv)
        captured = capsys.readouterr()
        assert_no_child_processes()
        assert open_fds() == fds
        files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        shutil.rmtree(out)
        return code, captured.out, captured.err, files

    def defective(self, source, tmp_path, edits):
        """The dataset file `source` with line k replaced by edits[k](object of line k)."""
        lines = source.read_text().splitlines()
        objs = [json.loads(l) for l in lines]
        for k, edit in edits.items():
            lines[k] = edit(objs, k)
        p = tmp_path / "defective.jsonl"
        p.write_text("\n".join(lines) + "\n")
        return p

    @pytest.mark.parametrize("name", ["diagnose", "preprocess"])
    def test_forked_matches_in_process(
        self, trained_run, tmp_path, capsys, monkeypatch, forks, name
    ):
        ds_path = trained_run / "dataset.jsonl"
        assert len(ds_path.read_text().splitlines()) >= cli.FORK_MIN_LINES
        argv = self.command(trained_run, tmp_path, name, ds_path)
        out = tmp_path / "out"
        forked = self.outcome(argv, out, capsys)
        assert forked[0] == 0
        assert len(forks) == 2
        # three processes: no child, or one child where the second fork fails
        for how in ("no_fork_method", "fork_fails", "second_fork_fails"):
            with monkeypatch.context() as patch:
                no_fork(patch, how)
                assert self.outcome(argv, out, capsys) == forked, how
        if name == "preprocess":
            text, _ = self.reference(ds_path)
            assert forked[3]["features.jsonl"] == text.encode()

    DEFECTS = {
        "broken_json": lambda objs, k: "{oops",
        "non_finite": lambda objs, k: json.dumps({**objs[k], "samples": [float("nan")] * 100}),
        # takes the id of a manoeuvre in the other end chunk
        "duplicate_id": lambda objs, k: json.dumps({**objs[k], "id": objs[len(objs) - 1 - k]["id"]}),
        "flat_signal": lambda objs, k: json.dumps({**objs[k], "samples": [0.0] * 100}),
    }

    @pytest.mark.parametrize("where", ["first_chunk", "last_chunk"])
    @pytest.mark.parametrize("defect", sorted(DEFECTS))
    def test_error_precedence_matches_in_process(
        self, trained_run, tmp_path, capsys, monkeypatch, forks, defect, where
    ):
        n = len((trained_run / "dataset.jsonl").read_text().splitlines())
        k = 1 if where == "first_chunk" else n - 2
        ds_path = self.defective(trained_run / "dataset.jsonl", tmp_path, {k: self.DEFECTS[defect]})
        self.assert_fails_as_in_process(trained_run, tmp_path, capsys, monkeypatch, forks, ds_path)

    @pytest.mark.parametrize("where", ["first_chunk", "last_chunk"])
    def test_parse_error_outranks_earlier_preprocess_failure(
        self, trained_run, tmp_path, capsys, monkeypatch, forks, where
    ):
        n = len((trained_run / "dataset.jsonl").read_text().splitlines())
        k = 3 if where == "first_chunk" else n - 2
        ds_path = self.defective(
            trained_run / "dataset.jsonl", tmp_path,
            {1: self.DEFECTS["flat_signal"], k: self.DEFECTS["broken_json"]},
        )
        err = self.assert_fails_as_in_process(
            trained_run, tmp_path, capsys, monkeypatch, forks, ds_path
        )
        assert err.startswith(f"pipeline failure in load: line {k + 1}: invalid JSON: ")

    def test_validation_error_outranks_earlier_preprocess_failure_in_its_piece(
        self, trained_run, tmp_path, capsys, monkeypatch, forks
    ):
        # preprocess validates each loaded manoeuvre; after its first failure
        # in a piece, the piece still validates every later manoeuvre
        ds_path = self.defective(
            trained_run / "dataset.jsonl", tmp_path,
            {1: self.DEFECTS["flat_signal"], 3: self.DEFECTS["non_finite"]},
        )
        err = self.assert_fails_as_in_process(trained_run, tmp_path, capsys, monkeypatch, forks, ds_path)
        assert err.startswith("pipeline failure in load: manoeuvre ") and "NonFiniteSample" in err

    @pytest.mark.parametrize("defect", sorted(DEFECTS))
    def test_middle_piece_error_matches_in_process(
        self, trained_run, long_dataset, tmp_path, capsys, monkeypatch, forks, defect
    ):
        # line 150 lies in the third of five pieces, which three processes load
        data = long_dataset.read_bytes()
        cuts = cli._cuts(lambda n, offset: data[offset : offset + n], len(data), 3)
        assert len(cuts) - 1 == 5 and cuts[2] < len(b"".join(data.splitlines(True)[:149])) < cuts[3]
        ds_path = self.defective(long_dataset, tmp_path, {149: self.DEFECTS[defect]})
        self.assert_fails_as_in_process(trained_run, tmp_path, capsys, monkeypatch, forks, ds_path)

    def test_not_utf8_in_middle_piece_fails_as_whole_file_read(
        self, trained_run, long_dataset, tmp_path, capsys, forks
    ):
        lines = long_dataset.read_bytes().splitlines(True)
        lines[149] = lines[149][:1000] + b"\xff\xfe" + lines[149][1000:]
        ds_path = tmp_path / "not-utf8.jsonl"
        ds_path.write_bytes(b"".join(lines))
        argv = self.command(trained_run, tmp_path, "diagnose", ds_path)
        code, stdout, err, files = self.outcome(argv, tmp_path / "out", capsys)
        assert len(forks) == 2
        with pytest.raises(UnicodeDecodeError) as whole:
            ds_path.read_bytes().decode("utf-8")
        assert f"position {whole.value.start}:" in err
        assert (code, stdout, err, files) == (3, "", f"i/o error: cannot read {ds_path}: {whole.value}\n", {})

    def test_child_that_dies_after_taking_a_piece(
        self, trained_run, long_dataset, tmp_path, capsys, monkeypatch, forks
    ):
        argv = self.command(trained_run, tmp_path, "diagnose", long_dataset)
        out = tmp_path / "out"
        with monkeypatch.context() as patch:
            no_fork(patch, "no_fork_method")
            alone = self.outcome(argv, out, capsys)
        died = tmp_path / "died"
        died.mkdir()
        parent, load_piece = os.getpid(), cli._load_piece

        def load_and_die(*args):
            chunk = load_piece(*args)
            if os.getpid() != parent:
                (died / str(os.getpid())).touch()
                os._exit(1)
            return chunk

        monkeypatch.setattr(cli, "_load_piece", load_and_die)
        assert self.outcome(argv, out, capsys) == alone
        assert alone[0] == 0 and len(forks) == 2
        assert len(list(died.iterdir())) >= 1

    def test_fifo_and_one_cpu_match_file(
        self, trained_run, long_dataset, tmp_path, capsys, monkeypatch, forks
    ):
        out = tmp_path / "out"
        from_file = self.outcome(self.command(trained_run, tmp_path, "diagnose", long_dataset), out, capsys)
        assert from_file[0] == 0 and len(forks) == 2
        # a FIFO is read whole, then cut into the same pieces in memory
        fifo = tmp_path / "fifo.jsonl"
        os.mkfifo(fifo)
        argv = self.command(trained_run, tmp_path, "diagnose", fifo)
        fed = functools.partial(fifo_fed, fifo, long_dataset.read_bytes())
        assert self.outcome(argv, out, capsys, during=fed) == from_file
        assert len(forks) == 4
        monkeypatch.setattr(cli, "_cpus", lambda: 1)
        argv = self.command(trained_run, tmp_path, "diagnose", long_dataset)
        assert self.outcome(argv, out, capsys) == from_file
        assert len(forks) == 4

    def test_more_processes_than_cores_match_one_process(
        self, trained_run, long_dataset, tmp_path, capsys, monkeypatch, forks
    ):
        # eight processes share eight pieces on a host of two or four cores: a
        # token lost or taken twice would drop or repeat a diagnosis
        argv = self.command(trained_run, tmp_path, "diagnose", long_dataset)
        out = tmp_path / "out"
        monkeypatch.setattr(cli, "_cpus", lambda: 1)
        alone = self.outcome(argv, out, capsys)
        assert alone[0] == 0 and len(alone[1].splitlines()) == 304 and forks == []
        monkeypatch.setattr(cli, "_cpus", lambda: 8)
        assert self.outcome(argv, out, capsys) == alone
        assert len(forks) == 7

    def test_lone_cr_loads_as_whitespace(self, trained_run, tmp_path, capsys):
        first = (trained_run / "dataset.jsonl").read_bytes().split(b"\n")[0]
        runs = []
        for name, line in [("plain", first), ("cr", first.replace(b', "technology"', b',\r"technology"'))]:
            ds_path = tmp_path / f"{name}.jsonl"
            ds_path.write_bytes(line + b"\n")
            argv = self.command(trained_run, tmp_path, "diagnose", ds_path)
            runs.append(self.outcome(argv, tmp_path / "out", capsys))
        assert runs[0][0] == 0 and runs[1] == runs[0]

    def assert_fails_as_in_process(
        self, trained_run, tmp_path, capsys, monkeypatch, forks, ds_path
    ):
        argv = self.command(trained_run, tmp_path, "diagnose", ds_path)
        out = tmp_path / "out"
        code, stdout, err, files = self.outcome(argv, out, capsys)
        assert len(forks) == 2
        assert (code, stdout, files) == (4, "", {})
        with monkeypatch.context() as patch:
            no_fork(patch, "no_fork_method")
            assert self.outcome(argv, out, capsys) == (code, stdout, err, files)
        assert err == self.reference(ds_path)[1]
        return err

    @staticmethod
    def expected(trained_run, name, ds_path, out):
        """The outcome (see `outcome`) of a `name` call that writes into
        `out`, as one process gives it: each manoeuvre of load_dataset
        preprocessed and, for diagnose, scored and given its set alone."""
        ms = list(load_dataset(ds_path))
        values = [preprocessed([m]) for m in ms]
        if name == "preprocess":
            text = "".join(preprocess.features_lines([m.id for m in ms], np.concatenate(values), [m.label for m in ms]))
            shown = f"wrote {len(ms)} feature vectors to {out / 'features.jsonl'}\n"
            return 0, shown, "", {"features.jsonl": text.encode()}
        mdl = model.load_model(trained_run / "model.json")
        predictor = conformal.load_predictor(trained_run / "predictor.json")
        alone = [diagnosed(predictor, mdl, [m], x) for m, x in zip(ms, values)]
        text = "".join(line for m, d in zip(ms, alone) for line in conformal.diagnoses_lines(d, [m.label]))
        shown = "".join(
            f"{m.id}: {{{', '.join(f'{cls.name}:{p:.3f}' for cls, p in members(d)[0])}}}"
            " (set covers the true class at 95%)\n"
            for m, d in zip(ms, alone)
        )
        return 0, shown, "", {"diagnoses.jsonl": text.encode()}

    @pytest.mark.parametrize("cpus", [1, 2, 3, 8])
    @pytest.mark.parametrize("name", ["diagnose", "preprocess"])
    def test_any_cpu_count_gives_one_process_bytes(
        self, trained_run, long_dataset, tmp_path, capsys, monkeypatch, forks, name, cpus
    ):
        # each piece is scored and its lines encoded where it is loaded
        monkeypatch.setattr(cli, "_cpus", lambda: cpus)
        out = tmp_path / "out"
        argv = self.command(trained_run, tmp_path, name, long_dataset)
        assert self.outcome(argv, out, capsys) == self.expected(trained_run, name, long_dataset, out)
        assert len(forks) == cpus - 1

    @pytest.mark.parametrize("name", ["diagnose", "preprocess"])
    def test_fifo_gives_one_process_bytes(self, trained_run, long_dataset, tmp_path, capsys, forks, name):
        # a FIFO is read whole, then cut into pieces that are finished where loaded
        fifo = tmp_path / "fifo.jsonl"
        os.mkfifo(fifo)
        out = tmp_path / "out"
        fed = functools.partial(fifo_fed, fifo, long_dataset.read_bytes())
        got = self.outcome(self.command(trained_run, tmp_path, name, fifo), out, capsys, during=fed)
        assert got == self.expected(trained_run, name, long_dataset, out)
        assert len(forks) == 2

    @pytest.mark.parametrize("name", ["diagnose", "preprocess"])
    def test_one_manoeuvre_gives_one_process_bytes_unforked(self, trained_run, tmp_path, capsys, monkeypatch, name):
        import multiprocessing

        def refuse(self):
            pytest.fail("a one-manoeuvre file forked")

        monkeypatch.setattr(cli, "_cpus", lambda: 4)
        monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", refuse)
        ds_path = tmp_path / "one.jsonl"
        ds_path.write_text((trained_run / "dataset.jsonl").read_text().splitlines()[0] + "\n")
        out = tmp_path / "out"
        got = self.outcome(self.command(trained_run, tmp_path, name, ds_path), out, capsys)
        assert got == self.expected(trained_run, name, ds_path, out)

    @staticmethod
    def poison_features(monkeypatch, poisoned):
        """Give the manoeuvres of ids `poisoned` NaN features, which the model rejects."""
        real = preprocess.preprocess_rows

        def poison(manoeuvres, cfg=preprocess.PreprocessConfig()):
            values, errors = real(manoeuvres, cfg)
            for row, m in zip(values, manoeuvres):
                if m.id in poisoned:
                    row[:] = np.nan
            return values, errors

        monkeypatch.setattr(preprocess, "preprocess_rows", poison)

    def test_first_scoring_failure_in_dataset_order(
        self, trained_run, long_dataset, tmp_path, capsys, monkeypatch, forks
    ):
        # lines 101 and 251 lie in the second and fifth of five pieces
        ids = [json.loads(l)["id"] for l in long_dataset.read_text().splitlines()]
        self.poison_features(monkeypatch, {ids[100], ids[250]})
        argv = self.command(trained_run, tmp_path, "diagnose", long_dataset)
        failed = self.outcome(argv, tmp_path / "out", capsys)
        assert len(forks) == 2
        assert failed == (4, "", f"pipeline failure in diagnose: manoeuvre {ids[100]!r}: input value 0 is not finite\n", {})
        with monkeypatch.context() as patch:
            no_fork(patch, "no_fork_method")
            assert self.outcome(argv, tmp_path / "out", capsys) == failed

    @pytest.mark.parametrize("later", ["flat_signal", "duplicate_id"])
    def test_scoring_failure_loses_to_a_later_load_or_preprocess_failure(
        self, trained_run, long_dataset, tmp_path, capsys, monkeypatch, forks, later
    ):
        ids = [json.loads(l)["id"] for l in long_dataset.read_text().splitlines()]
        self.poison_features(monkeypatch, {ids[10]})
        ds_path = self.defective(long_dataset, tmp_path, {250: self.DEFECTS[later]})
        err = self.assert_fails_as_in_process(trained_run, tmp_path, capsys, monkeypatch, forks, ds_path)
        stage = "preprocess" if later == "flat_signal" else "load"
        assert err.startswith(f"pipeline failure in {stage}: ")

    def test_child_that_dies_after_posting_a_scored_piece(
        self, trained_run, long_dataset, tmp_path, capsys, monkeypatch
    ):
        argv = self.command(trained_run, tmp_path, "diagnose", long_dataset)
        out = tmp_path / "out"
        with monkeypatch.context() as patch:
            no_fork(patch, "no_fork_method")
            alone = self.outcome(argv, out, capsys)
        monkeypatch.setattr(cli, "_cpus", lambda: 2)
        died = tmp_path / "died"
        parent, load_piece, in_parent, in_child = os.getpid(), cli._load_piece, [], []

        def post_one_then_die(*args):
            if os.getpid() != parent:
                # the child's copy of in_child: its first piece is posted, at its second it dies
                if in_child:
                    died.touch()
                    os._exit(1)
                in_child.append(args[1])
            else:
                if not in_parent:
                    # this process takes its second token only once the child died
                    deadline = time.monotonic() + 60
                    while not died.exists() and time.monotonic() < deadline:
                        time.sleep(0.01)
                in_parent.append(args[1])
            return load_piece(*args)

        monkeypatch.setattr(cli, "_load_piece", post_one_then_die)
        assert self.outcome(argv, out, capsys) == alone
        assert alone[0] == 0 and died.exists()
        # five pieces: the one the child posted, and four loaded here, one
        # of them the piece the child took when it died
        data = long_dataset.read_bytes()
        assert len(cli._cuts(lambda n, offset: data[offset : offset + n], len(data), 2)) - 1 == 5
        assert len(in_parent) == 4 and len(set(in_parent)) == 4

    @pytest.mark.parametrize("samples", ["all", "one"])
    def test_boolean_samples_fail_to_load(
        self, trained_run, long_dataset, tmp_path, capsys, monkeypatch, forks, samples
    ):
        def bools(objs, k):
            values = objs[k]["samples"]
            as_bools = [v > 1.0 for v in values] if samples == "all" else [*values[:-1], False]
            return json.dumps({**objs[k], "samples": as_bools})

        ds_path = self.defective(long_dataset, tmp_path, {149: bools})
        err = self.assert_fails_as_in_process(trained_run, tmp_path, capsys, monkeypatch, forks, ds_path)
        assert err == "pipeline failure in load: line 150: samples is not a numeric array\n"

    @staticmethod
    def reference(ds_path):
        """(features.jsonl text, None), or (None, the stderr line of the first
        failure), of load_dataset and then preprocessing each manoeuvre in order."""
        try:
            ds = load_dataset(ds_path)
        except PmDiagError as exc:
            return None, f"pipeline failure in load: {exc}\n"
        values = []
        for m in ds:
            try:
                values.append(preprocessed([m]))
            except PmDiagError as exc:
                return None, f"pipeline failure in preprocess: manoeuvre {m.id!r}: {exc}\n"
        return "".join(preprocess.features_lines([m.id for m in ds], np.concatenate(values), [m.label for m in ds])), None

    @pytest.mark.parametrize("defect", ["none", "last_piece", "one_piece", "first_piece"])
    def test_failed_input_and_only_it_is_loaded_again_whole(
        self, trained_run, long_dataset, tmp_path, capsys, monkeypatch, defect
    ):
        ds_path = long_dataset
        if defect in ("last_piece", "first_piece"):
            line = 300 if defect == "last_piece" else 3
            ds_path = self.defective(long_dataset, tmp_path, {line: self.DEFECTS["broken_json"]})
        elif defect == "one_piece":
            ds_path = tmp_path / "short.jsonl"
            ds_path.write_text("".join(l + "\n" for l in long_dataset.read_text().splitlines()[:10]) + "{oops\n")
        data = ds_path.read_bytes()
        cuts = cli._cuts(lambda n, offset: data[offset : offset + n], len(data), 1)
        pieces = list(zip(cuts, cuts[1:]))
        assert len(pieces) == (1 if defect == "one_piece" else 5)
        monkeypatch.setattr(cli, "_cpus", lambda: 1)
        calls, load_piece = [], cli._load_piece

        def recorded(read, start, end, *args):
            calls.append((start, end))
            return load_piece(read, start, end, *args)

        monkeypatch.setattr(cli, "_load_piece", recorded)
        capsys.readouterr()
        code = run(self.command(trained_run, tmp_path, "diagnose", ds_path))
        # a failed piece stops the loads: the pieces after it are never loaded
        loads = {"last_piece": pieces + [(0, len(data))], "first_piece": pieces[:1] + [(0, len(data))]}
        assert (code, calls) == (0 if defect == "none" else 4, loads.get(defect, pieces))

    def test_short_reads_give_whole_pieces(self, trained_run, tmp_path, capsys, monkeypatch, forks):
        # one pread may return fewer bytes than it was asked for: on Linux at
        # most 0x7ffff000, here at most 4096
        out = tmp_path / "out"
        ds_path = trained_run / "dataset.jsonl"
        whole = self.outcome(self.command(trained_run, tmp_path, "diagnose", ds_path), out, capsys)
        pread = os.pread
        monkeypatch.setattr(os, "pread", lambda fd, n, offset: pread(fd, min(n, 4096), offset))
        assert self.outcome(self.command(trained_run, tmp_path, "diagnose", ds_path), out, capsys) == whole
        assert whole[0] == 0 and len(forks) == 4
        broken = self.defective(ds_path, tmp_path, {74: self.DEFECTS["broken_json"]})
        code, stdout, err, files = self.outcome(self.command(trained_run, tmp_path, "diagnose", broken), out, capsys)
        assert (code, stdout, files) == (4, "", {})
        assert err.startswith("pipeline failure in load: line 75: invalid JSON: ")

    def test_child_posts_a_failed_piece_as_none(self):
        # no error object leaves the process that met it
        clean = cli._Chunk(["m0"], np.zeros((1, 4)), [None])
        chunks = [
            clean,
            cli._Chunk(["m1"], np.empty((0, 0)), [None], error=core.ParseError(1, "invalid JSON")),
            cli._Chunk(["m2"], np.empty((0, 0)), [None],
                       failure=cli.StageError("preprocess", PmDiagError("too short"))),
        ]
        queue_end, feed_end = os.pipe()
        with open(feed_end, "wb", buffering=0) as feed:
            feed.write(b"".join(k.to_bytes(cli._TOKEN_BYTES, "little") for k in range(3)))
        posts = []
        with open(queue_end, "rb", buffering=0) as queue:
            cli._post_pieces(posts.append, queue, [0, 1, 2, 3], lambda start, end: chunks[start])
        # at the first failed piece the child drains the pipe and returns
        assert posts == [(0, clean), (1, None)]

    @pytest.mark.parametrize("lines", [1, 0, None], ids=["one_manoeuvre", "empty", "blank_lines"])
    def test_small_input_never_forks(self, trained_run, tmp_path, capsys, monkeypatch, lines):
        import multiprocessing

        def refuse(self):
            pytest.fail("a small input forked")

        monkeypatch.setattr(cli, "_cpus", lambda: 4)
        monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", refuse)
        first = (trained_run / "dataset.jsonl").read_text().splitlines()[: lines or 0]
        ds_path = tmp_path / "small.jsonl"
        ds_path.write_text("".join(l + "\n" for l in first) if lines is not None else "\n \n\r\n")
        argv = self.command(trained_run, tmp_path, "diagnose", ds_path)
        code, stdout, err, files = self.outcome(argv, tmp_path / "out", capsys)
        assert (code, err) == (0, "")
        rows = [json.loads(r) for r in files["diagnoses.jsonl"].decode().splitlines()]
        assert [r["source_id"] for r in rows] == [json.loads(l)["id"] for l in first]


@pytest.mark.parametrize("command", ["diagnose", "pipeline"])
def test_non_finite_timestamp_fails_to_load(trained_run, tmp_path, capsys, command):
    # json.loads reads NaN; taken, it would go on into a written dataset.jsonl as NaN, which is not JSON
    first = json.loads((trained_run / "dataset.jsonl").read_text().splitlines()[0])
    ds_path = tmp_path / "nan.jsonl"
    ds_path.write_text(json.dumps({**first, "timestamp": float("nan")}) + "\n")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**SMALL_CONFIG, "paths": {"dataset": str(ds_path)}}))
    out = tmp_path / "out"
    argv = [command, "--config", str(config), "--out", str(out)]
    if command == "diagnose":
        argv += ["--model", str(trained_run / "model.json"), "--predictor", str(trained_run / "predictor.json")]
    capsys.readouterr()
    expected = f"pipeline failure in load: manoeuvre {first['id']!r}: BadTimestamp (nan)\n"
    assert (run(argv), capsys.readouterr().err) == (4, expected)
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize(
    "command, first_line",
    [("diagnose", "valid"), ("diagnose", "flat_signal"), ("preprocess", "valid"),
     ("preprocess", "flat_signal"), ("pipeline", "valid")],
)
def test_each_manoeuvre_validated_once(trained_run, tmp_path, capsys, monkeypatch, command, first_line):
    # a flat first line fails preprocessing, after which the other lines of
    # its piece are still read, and validated, for a load error that would
    # outrank it; a failed file of two pieces is then loaded again as one,
    # and its second piece is never loaded, so each manoeuvre of the first
    # piece is validated once in it and once in that load, and every other
    # manoeuvre once. pipeline generates the manoeuvres of this dataset
    lines = (trained_run / "dataset.jsonl").read_text().splitlines()
    if first_line == "flat_signal":
        lines[0] = json.dumps({**json.loads(lines[0]), "samples": [0.0] * 100})
    ds_path = tmp_path / "dataset.jsonl"
    ds_path.write_text("".join(l + "\n" for l in lines))
    config = tmp_path / "config.json"
    paths = {} if command == "pipeline" else {"paths": {"dataset": str(ds_path)}}
    config.write_text(json.dumps({**SMALL_CONFIG, **paths}))
    argv = [command, "--config", str(config), "--out", str(tmp_path / "out")]
    if command == "diagnose":
        argv += ["--model", str(trained_run / "model.json"), "--predictor", str(trained_run / "predictor.json")]
    validated = count_validations(monkeypatch)
    capsys.readouterr()
    assert run(argv) == (4 if first_line == "flat_signal" else 0)
    seen = lines[: cli.FORK_MIN_LINES] + lines if first_line == "flat_signal" else lines
    assert len(lines) > cli.FORK_MIN_LINES and sorted(validated) == sorted(json.loads(l)["id"] for l in seen)


def count_validations(monkeypatch) -> list:
    """The ids of the manoeuvres validate_manoeuvre sees from now on, in
    this process, where every manoeuvre is loaded."""
    validated, real = [], core.validate_manoeuvre

    def counting(m):
        validated.append(m.id)
        return real(m)

    monkeypatch.setattr(core, "validate_manoeuvre", counting)
    monkeypatch.setattr(cli, "_cpus", lambda: 1)
    return validated


def test_pipeline_validates_its_dataset_once(trained_run, tmp_path, monkeypatch):
    # iter_manoeuvres validates each line, and preprocessing does not again
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**SMALL_CONFIG, "paths": {"dataset": str(trained_run / "dataset.jsonl")}}))
    validated = count_validations(monkeypatch)
    assert run(["pipeline", "--config", str(config), "--out", str(tmp_path / "out")]) == 0
    lines = (trained_run / "dataset.jsonl").read_text().splitlines()
    assert sorted(validated) == sorted(json.loads(l)["id"] for l in lines)


@pytest.mark.parametrize("cpus", [1, 2])
def test_pipeline_parent_holds_no_generated_trace(config_path, monkeypatch, cpus):
    # the writer generates the traces again; the parent keeps ids, labels and features
    monkeypatch.setattr(cli, "_cpus", lambda: cpus)
    cfg = cli.load_run_config(config_path)
    _, chunks, traces = cli._pipeline_inputs(cfg)
    assert_no_child_processes()
    assert len(chunks) == 2
    for chunk in [*chunks, cli._joined(chunks)]:
        assert chunk.manoeuvres == ()
        assert not any(isinstance(v, Manoeuvre) for field in chunk if isinstance(field, list) for v in field)
    generated = synth.generate_dataset(cfg.counts, cfg.synth_cfg, cfg.severity_range)
    assert list(traces()) == list(generated) == list(traces())


@pytest.mark.parametrize("invalid_at", [20, 70], ids=["first_piece", "last_piece"])
def test_generation_stops_at_an_invalid_manoeuvre(config_path, monkeypatch, invalid_at):
    # on one CPU the 76 positions are two pieces, taken in order; the piece
    # that holds the invalid manoeuvre, and the load of the whole dataset
    # again that follows it, generate no position after it
    generate, positions = synth.DatasetPlan.manoeuvre, []

    def counted(plan, position):
        positions.append(position)
        m = generate(plan, position)
        if position == invalid_at:
            return Manoeuvre(m.id, m.technology, m.timestamp, m.samples[:10], m.sample_rate, m.label)
        return m

    monkeypatch.setattr(synth.DatasetPlan, "manoeuvre", counted)
    monkeypatch.setattr(cli, "_cpus", lambda: 1)
    _, chunks, _ = cli._pipeline_inputs(cli.load_run_config(config_path))
    assert max(positions) == invalid_at and positions.count(invalid_at) == 2
    [chunk] = chunks
    assert (chunk.error, chunk.failure.stage, chunk.failure.cause.rule) == (None, "preprocess", "TooShort")


def test_position_cuts_follow_the_piece_rule():
    # the rule of _cuts written out for positions: a head of FORK_MIN_LINES,
    # pieces of at most 1/procs of the input, and no more than _MAX_PIECES
    def rule(n, procs):
        if n < cli.FORK_MIN_LINES:
            return [0, n]
        step = max(min(cli.FORK_MIN_LINES, n // procs), -(-n // cli._MAX_PIECES))
        return [*range(0, n, step), n]

    for procs in range(1, 5):
        assert [cli._position_cuts(n, procs) for n in range(3001)] == [rule(n, procs) for n in range(3001)]


def test_generate_streams(tmp_path, capsys):
    # generate writes each trace as it is made, as pipeline's writer does
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"synth": {"counts": {cls.name: 50 for cls in cli.DEFAULT_COUNTS}}}))
    argv = ["generate", "--config", str(config), "--out", str(tmp_path)]
    assert run(argv) == 0  # the first call fills caches, which a streamed write does not hold
    tracemalloc.start()
    try:
        assert run(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    path = tmp_path / "dataset.jsonl"
    assert capsys.readouterr().out.endswith(f"wrote 200 manoeuvres to {path}\n")
    assert peak < path.stat().st_size / 10


@pytest.mark.parametrize("written", ["dataset", "features"])
def test_pipeline_writers_stream(tmp_path, written):
    # each input file is written as its lines are made, never held whole
    cfg = cli.load_run_config(None)
    plan = synth.plan_dataset(dict.fromkeys(cli.DEFAULT_COUNTS, 50), cfg.synth_cfg, cfg.severity_range)
    path = tmp_path / f"{written}.jsonl"
    if written == "dataset":
        def write():
            save_dataset((plan.manoeuvre(p) for p in range(len(plan))), path)
    else:
        manoeuvres = [plan.manoeuvre(p) for p in range(len(plan))]
        values, _ = preprocess.preprocess_rows(manoeuvres, cfg.preprocess_cfg)
        ids, labels = [m.id for m in manoeuvres], [m.label for m in manoeuvres]
        del manoeuvres

        def write():
            core.atomic_write_text(path, preprocess.features_lines(ids, values, labels))
    write()  # first calls fill caches, which a streamed write does not hold
    tracemalloc.start()
    try:
        write()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(plan) == 200 and peak < path.stat().st_size / 10


# a number JSON reads as an integer beyond float range, and one of more
# digits than Python converts from a string (4300 by default)
BIG_NUMBERS = {"beyond_float": "1" + "0" * 400, "too_many_digits": "9" * 5000}
NUMBER_MARK = "@number@"


@pytest.mark.parametrize("digits", BIG_NUMBERS)
@pytest.mark.parametrize(
    "name, edit, expected",
    [
        ("dataset.jsonl", lambda o: {**o, "timestamp": NUMBER_MARK}, (4, "pipeline failure in load: line 1: ")),
        ("dataset.jsonl", lambda o: {**o, "sample_rate": NUMBER_MARK}, (4, "pipeline failure in load: line 1: ")),
        ("features.jsonl", lambda o: {**o, "values": [NUMBER_MARK, *o["values"][1:]]},
         (4, "pipeline failure in load: line 1: ")),
        ("model.json", lambda o: {**o, "biases": [[NUMBER_MARK, *o["biases"][0][1:]], *o["biases"][1:]]},
         (3, "i/o error: ")),
        ("predictor.json", lambda o: {**o, "alpha": NUMBER_MARK}, (3, "i/o error: ")),
        ("config.json", lambda o: {**o, "conformal": {"alpha": NUMBER_MARK}}, (2, "config error: ")),
    ],
    ids=["timestamp", "sample_rate", "feature", "model", "predictor", "config"],
)
def test_huge_integer_exits_with_one_line(trained_run, tmp_path, capsys, name, edit, expected, digits):
    out = tmp_path / "out"
    shutil.copytree(trained_run, out)
    path = out / name
    first, *rest = path.read_text().split("\n", 1) if name.endswith(".jsonl") else [path.read_text()]
    first = json.dumps(edit(json.loads(first))).replace(f'"{NUMBER_MARK}"', BIG_NUMBERS[digits])
    path.write_text("\n".join([first, *rest]))
    command = "evaluate" if name == "features.jsonl" else "diagnose"
    capsys.readouterr()
    code = run([command, "--config", str(out / "config.json"), "--out", str(out)])
    err = capsys.readouterr().err
    assert (code, err[: len(expected[1])]) == expected
    assert err.count("\n") == 1


def nested(depth: int) -> str:
    """A JSON array nested `depth` deep."""
    return "[" * depth + "]" * depth


@pytest.mark.parametrize(
    "name, command, at, text, expected",
    [
        ("dataset.jsonl", "diagnose", 69, nested(100_000),
         (4, "pipeline failure in load: line 70: invalid JSON: maximum recursion depth exceeded")),
        ("features.jsonl", "train", 0, nested(100_000),
         (4, "pipeline failure in load: line 1: invalid JSON: maximum recursion depth exceeded")),
        ("model.json", "diagnose", None, nested(100_000),
         (3, "i/o error: {path} is not valid JSON: maximum recursion depth exceeded")),
        ("predictor.json", "diagnose", None, nested(100_000),
         (3, "i/o error: {path} is not valid JSON: maximum recursion depth exceeded")),
        ("config.json", "diagnose", None, nested(100_000),
         (2, "config error: config {path} is not valid JSON: maximum recursion depth exceeded")),
        # parsed, then type-checked one nesting level at a time
        ("model.json", "diagnose", None, '{"weights": %s}' % nested(500),
         (3, "i/o error: {path} is not a valid model file: ")),
        ("features.jsonl", "train", 0, '{"source_id": "x", "values": %s}' % nested(500),
         (4, "pipeline failure in load: line 1: bad feature record: ")),
    ],
    ids=["dataset", "features", "model", "predictor", "config", "model_weights_500", "feature_values_500"],
)
def test_deeply_nested_value_exits_with_one_line(trained_run, tmp_path, capsys, name, command, at, text, expected):
    # `at` is the index of the line replaced in a JSONL file; a JSON file is replaced whole
    out = tmp_path / "out"
    shutil.copytree(trained_run, out)
    path = out / name
    if at is None:
        path.write_text(text)
    else:
        lines = path.read_text().splitlines(keepends=True)
        lines[at] = text + "\n"
        path.write_text("".join(lines))
        # the dataset's line lies in its second piece
        assert name != "dataset.jsonl" or cli.FORK_MIN_LINES <= at < len(lines)
    capsys.readouterr()
    code = run([command, "--config", str(out / "config.json"), "--out", str(out)])
    err = capsys.readouterr().err
    prefix = expected[1].format(path=path)
    assert (code, err[: len(prefix)]) == (expected[0], prefix)
    assert err.count("\n") == 1
    assert_no_child_processes()


class TestPipelineOnEveryCpu:
    """pipeline generates and preprocesses on every CPU, and a writer child
    writes its input files while it trains: every output byte is that of one
    process doing it all, also when the writer finishes late or dies."""

    @pytest.fixture()
    def argv(self, tmp_path, config_path):
        return ["pipeline", "--config", config_path, "--out", str(tmp_path / "out")]

    def outcome(self, argv, capsys, during=contextlib.nullcontext):
        """Exit code, stdout, stderr and output files of one call, made
        inside the context `during()`; the call must leave no child process
        and no file descriptor open."""
        out = Path(argv[argv.index("--out") + 1])
        capsys.readouterr()
        fds = open_fds()
        with during():
            code = run(argv)
        captured = capsys.readouterr()
        assert_no_child_processes()
        assert open_fds() == fds
        files = output_files(out) if code == 0 else {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        shutil.rmtree(out)
        return code, captured.out, captured.err, files

    @pytest.fixture()
    def alone(self, argv, capsys, monkeypatch):
        """The outcome of one process doing all the work."""
        with monkeypatch.context() as patch:
            no_fork(patch, "no_fork_method")
            result = self.outcome(argv, capsys)
        assert result[0] == 0
        return result

    @pytest.mark.parametrize("cpus", [1, 2, 3, 8])
    def test_any_cpu_count_matches_one_process(self, argv, alone, capsys, monkeypatch, forks, cpus):
        monkeypatch.setattr(cli, "_cpus", lambda: cpus)
        assert self.outcome(argv, capsys) == alone
        # 76 positions make at least `cpus` pieces: a child per further CPU, and the writer
        assert len(forks) == cpus

    def test_writer_that_finishes_after_training(self, argv, alone, capsys, monkeypatch, tmp_path):
        monkeypatch.setattr(cli, "_cpus", lambda: 2)
        trained = tmp_path / "trained"
        train, save_inputs = model.train, cli._save_inputs

        def train_then_mark(*args, **kwargs):
            result = train(*args, **kwargs)
            trained.touch()
            return result

        def save_after_training(*args):
            deadline = time.monotonic() + 60
            while not trained.exists() and time.monotonic() < deadline:
                time.sleep(0.01)
            save_inputs(*args)

        monkeypatch.setattr(model, "train", train_then_mark)
        monkeypatch.setattr(cli, "_save_inputs", save_after_training)
        assert self.outcome(argv, capsys) == alone

    def test_writer_that_dies_mid_write(self, argv, alone, capsys, monkeypatch, tmp_path):
        # the child has written dataset.jsonl and dies before features.jsonl
        monkeypatch.setattr(cli, "_cpus", lambda: 2)
        died = tmp_path / "died"
        parent, features_lines = os.getpid(), preprocess.features_lines

        def die_in_child(*args):
            if os.getpid() != parent:
                if (Path(argv[-1]) / "dataset.jsonl").exists():
                    died.touch()
                os._exit(1)
            return features_lines(*args)

        monkeypatch.setattr(preprocess, "features_lines", die_in_child)
        assert self.outcome(argv, capsys) == alone
        assert died.exists()

    def test_first_preprocess_failure_in_dataset_order(self, argv, tmp_path, capsys, monkeypatch, forks):
        ref = tmp_path / "ref"
        assert run(["generate", "--config", argv[2], "--out", str(ref)]) == 0
        ids = [json.loads(l)["id"] for l in (ref / "dataset.jsonl").read_text().splitlines()]
        # positions 30 and 60 lie in the second and third of four pieces
        poisoned = {ids[30], ids[60]}
        real = preprocess.preprocess_rows

        def poison(manoeuvres, cfg=preprocess.PreprocessConfig()):
            values, errors = real(manoeuvres, cfg)
            return values, [PmDiagError("poisoned") if m.id in poisoned else e for m, e in zip(manoeuvres, errors)]

        monkeypatch.setattr(preprocess, "preprocess_rows", poison)
        monkeypatch.setattr(cli, "_cpus", lambda: 3)
        code, stdout, err, files = self.outcome(argv, capsys)
        assert len(forks) == 2
        assert (code, stdout, err) == (4, "", f"pipeline failure in preprocess: manoeuvre {ids[30]!r}: poisoned\n")
        assert files == {"dataset.jsonl": (ref / "dataset.jsonl").read_bytes()}

    @pytest.mark.parametrize("rule", ["NonFiniteSample", "TooShort"])
    @pytest.mark.parametrize(
        "invalid_at, reported_at", [(40, 30), (28, 28), (10, 10)],
        ids=["after_failure_in_piece", "first_in_piece", "in_earlier_piece"],
    )
    def test_invalid_generated_manoeuvre_is_a_preprocess_failure(
        self, argv, tmp_path, capsys, monkeypatch, forks, rule, invalid_at, reported_at
    ):
        # positions 28, 30 and 40 lie in the second of four pieces, 10 in the
        # first: an invalid manoeuvre fails preprocessing unless a manoeuvre
        # before it in its piece failed first
        ref = tmp_path / "ref"
        assert run(["generate", "--config", argv[2], "--out", str(ref)]) == 0
        ids = [json.loads(l)["id"] for l in (ref / "dataset.jsonl").read_text().splitlines()]
        generate, real = synth.DatasetPlan.manoeuvre, preprocess.preprocess_rows

        def invalid(plan, position):
            m = generate(plan, position)
            if position != invalid_at:
                return m
            samples = np.full(m.samples.size, np.nan) if rule == "NonFiniteSample" else m.samples[:10]
            return Manoeuvre(m.id, m.technology, m.timestamp, samples, m.sample_rate, m.label)

        def poison(manoeuvres, cfg=preprocess.PreprocessConfig()):
            values, errors = real(manoeuvres, cfg)
            return values, [PmDiagError("poisoned") if m.id == ids[30] else e for m, e in zip(manoeuvres, errors)]

        monkeypatch.setattr(synth.DatasetPlan, "manoeuvre", invalid)
        monkeypatch.setattr(preprocess, "preprocess_rows", poison)
        code, stdout, err, files = self.outcome(argv, capsys)
        assert len(forks) == 2
        mid = ids[reported_at]
        detail = "0" if rule == "NonFiniteSample" else f"length 10 < {core.MIN_SAMPLES}"
        # a ValidationError names its manoeuvre, and the failure names it once
        cause = f"manoeuvre {mid!r}: poisoned" if reported_at == 30 else core.ValidationError(mid, rule, detail)
        assert (code, stdout, err) == (4, "", f"pipeline failure in preprocess: {cause}\n")
        assert list(files) == ["dataset.jsonl"]

    def test_profile_too_slow_to_sample_fails_preprocessing(self, tmp_path, capsys, forks):
        # at 1 Hz a 5-s move gives manoeuvres too short to preprocess
        profile = {"name": "slow", "supply": "AC", "sample_rate": 1.0, "nominal_peak_amps": 8.0,
                   "plateau_amps": 3.0, "move_duration": 5.0}
        config = tmp_path / "slow.json"
        config.write_text(json.dumps({"synth": {**SMALL_CONFIG["synth"], "profile": profile}}))
        ref = tmp_path / "ref"
        assert run(["generate", "--config", str(config), "--out", str(ref)]) == 0
        argv = ["pipeline", "--config", str(config), "--out", str(tmp_path / "out")]
        code, stdout, err, files = self.outcome(argv, capsys)
        expected = "pipeline failure in preprocess: manoeuvre 'synth-Obstacle-4': TooShort (length 11 < 32)\n"
        assert (code, stdout, err) == (4, "", expected)
        assert files == {"dataset.jsonl": (ref / "dataset.jsonl").read_bytes()}

    def test_no_generated_manoeuvre_fails_the_split(self, tmp_path, capsys):
        config = tmp_path / "none.json"
        config.write_text(json.dumps({"synth": {"counts": {cls.name: 0 for cls in FaultClass}}}))
        outcome = self.outcome(["pipeline", "--config", str(config), "--out", str(tmp_path / "out")], capsys)
        files = {"dataset.jsonl": b"", "features.jsonl": b""}
        assert outcome == (4, "", "pipeline failure in split: no manoeuvres to split\n", files)


class TestLoadedPipelineOnEveryCpu:
    """pipeline with paths.dataset loads its dataset as diagnose does, in
    pieces on every CPU (`cli._load`): every output byte, and every failure,
    is that of one process that loads the whole file."""

    outcome = TestPipelineOnEveryCpu.outcome
    defective = TestForkedLoad.defective
    DEFECTS = TestForkedLoad.DEFECTS

    @staticmethod
    def command(tmp_path, ds_path):
        config = tmp_path / "pipeline-config.json"
        config.write_text(json.dumps({**SMALL_CONFIG, "paths": {"dataset": str(ds_path)}}))
        return ["pipeline", "--config", str(config), "--out", str(tmp_path / "out")]

    @pytest.fixture()
    def alone(self, tmp_path, long_dataset, capsys, monkeypatch):
        """The outcome of one process loading and doing all the work."""
        with monkeypatch.context() as patch:
            no_fork(patch, "no_fork_method")
            result = self.outcome(self.command(tmp_path, long_dataset), capsys)
        assert result[0] == 0
        assert result[3][0]["dataset.jsonl"] == long_dataset.read_bytes()
        assert sum(result[3][1]["counts"]["dataset"].values()) == 304
        return result

    @pytest.mark.parametrize("cpus", [1, 2, 3, 8])
    def test_any_cpu_count_matches_one_process(
        self, tmp_path, long_dataset, alone, capsys, monkeypatch, forks, cpus
    ):
        monkeypatch.setattr(cli, "_cpus", lambda: cpus)
        assert self.outcome(self.command(tmp_path, long_dataset), capsys) == alone
        # a child per further CPU loads pieces, and the writer writes the inputs
        assert len(forks) == cpus

    def test_children_parse_lines(self, tmp_path, long_dataset, alone, capsys, monkeypatch, forks):
        parsers = tmp_path / "parsers"
        parsers.mkdir()
        parse = cli.iter_manoeuvres

        def recorded(*args):
            (parsers / str(os.getpid())).touch()
            return parse(*args)

        monkeypatch.setattr(cli, "iter_manoeuvres", recorded)
        assert self.outcome(self.command(tmp_path, long_dataset), capsys) == alone
        assert {int(p.name) for p in parsers.iterdir()} - {os.getpid()}

    def fails(self, tmp_path, ds_path, capsys, monkeypatch, during=contextlib.nullcontext):
        """The outcome of a failed call on every CPU, which must be that of one process."""
        argv = self.command(tmp_path, ds_path)
        failed = self.outcome(argv, capsys, during)
        with monkeypatch.context() as patch:
            no_fork(patch, "no_fork_method")
            assert self.outcome(argv, capsys, during) == failed
        return failed

    @pytest.mark.parametrize(
        "edits",
        [{149: "broken_json"}, {149: "non_finite"}, {149: "duplicate_id"}, {10: "flat_signal", 250: "broken_json"}],
        ids=["broken_json", "non_finite", "duplicate_id", "flat_then_broken_json"],
    )
    def test_load_error_writes_nothing(self, tmp_path, long_dataset, capsys, monkeypatch, forks, edits):
        ds_path = self.defective(long_dataset, tmp_path, {k: self.DEFECTS[d] for k, d in edits.items()})
        err = TestForkedLoad.reference(ds_path)[1]
        assert err.startswith("pipeline failure in load: ")
        assert self.fails(tmp_path, ds_path, capsys, monkeypatch) == (4, "", err, {})

    def test_preprocess_failure_leaves_the_dataset(self, tmp_path, long_dataset, capsys, monkeypatch, forks):
        ds_path = self.defective(long_dataset, tmp_path, {149: self.DEFECTS["flat_signal"]})
        err = TestForkedLoad.reference(ds_path)[1]
        assert err.startswith("pipeline failure in preprocess: ")
        files = {"dataset.jsonl": ds_path.read_bytes()}
        assert self.fails(tmp_path, ds_path, capsys, monkeypatch) == (4, "", err, files)

    def test_unlabelled_line_fails_the_split(self, tmp_path, long_dataset, capsys, monkeypatch, forks):
        def unlabelled(objs, k):
            return json.dumps({key: v for key, v in objs[k].items() if key != "label"})

        ds_path = self.defective(long_dataset, tmp_path, {149: unlabelled})
        text, _ = TestForkedLoad.reference(ds_path)
        mid = json.loads(ds_path.read_text().splitlines()[149])["id"]
        err = f"pipeline failure in split: manoeuvre {mid!r} is unlabelled; splits need labels\n"
        files = {"dataset.jsonl": ds_path.read_bytes(), "features.jsonl": text.encode()}
        assert self.fails(tmp_path, ds_path, capsys, monkeypatch) == (4, "", err, files)
        # on every CPU, two children load pieces and the writer child writes the input files
        assert len(forks) == 3

    @pytest.mark.parametrize("text", ["", "\n \n\r\n"], ids=["empty", "blank_lines"])
    def test_no_manoeuvre_fails_the_split(self, tmp_path, capsys, monkeypatch, text):
        ds_path = tmp_path / "none.jsonl"
        ds_path.write_text(text)
        files = {"dataset.jsonl": b"", "features.jsonl": b""}
        expected = (4, "", "pipeline failure in split: no manoeuvres to split\n", files)
        assert self.fails(tmp_path, ds_path, capsys, monkeypatch) == expected

    @pytest.mark.parametrize("what", ["missing", "directory"])
    def test_unreadable_path_exits_3(self, tmp_path, capsys, monkeypatch, what):
        ds_path = tmp_path / what
        if what == "directory":
            ds_path.mkdir()
        with pytest.raises(OSError) as read:
            ds_path.read_bytes()
        expected = (3, "", f"i/o error: cannot read {ds_path}: {read.value}\n", {})
        assert self.fails(tmp_path, ds_path, capsys, monkeypatch) == expected

    def test_not_utf8_in_middle_piece_fails_as_whole_file_read(
        self, tmp_path, long_dataset, capsys, monkeypatch, forks
    ):
        lines = long_dataset.read_bytes().splitlines(True)
        lines[149] = lines[149][:1000] + b"\xff\xfe" + lines[149][1000:]
        ds_path = tmp_path / "not-utf8.jsonl"
        ds_path.write_bytes(b"".join(lines))
        with pytest.raises(UnicodeDecodeError) as whole:
            ds_path.read_bytes().decode("utf-8")
        expected = (3, "", f"i/o error: cannot read {ds_path}: {whole.value}\n", {})
        assert self.fails(tmp_path, ds_path, capsys, monkeypatch) == expected

    def test_fifo_matches_regular_file(self, tmp_path, long_dataset, alone, capsys, forks):
        # the same path, so that report.json names the same dataset
        ds_path = tmp_path / "in.jsonl"
        shutil.copyfile(long_dataset, ds_path)
        from_file = self.outcome(self.command(tmp_path, ds_path), capsys)
        # model.json and report.json name the dataset's path
        assert from_file[0] == 0 and from_file[3][0]["features.jsonl"] == alone[3][0]["features.jsonl"]
        ds_path.unlink()
        os.mkfifo(ds_path)
        fed = functools.partial(fifo_fed, ds_path, long_dataset.read_bytes())
        assert self.outcome(self.command(tmp_path, ds_path), capsys, during=fed) == from_file


class TestStageCommands:
    def test_preprocess_train_calibrate_evaluate(self, tmp_path, config_path, capsys):
        out = tmp_path / "out"
        assert run(["generate", "--config", config_path, "--out", str(out)]) == 0
        assert run(["preprocess", "--config", config_path, "--out", str(out)]) == 0
        assert (out / "features.jsonl").exists()
        assert run(["train", "--config", config_path, "--out", str(out)]) == 0
        assert (out / "model.json").exists()
        assert run(["calibrate", "--config", config_path, "--out", str(out)]) == 0
        assert (out / "predictor.json").exists()
        assert run(["evaluate", "--config", config_path, "--out", str(out)]) == 0
        assert (out / "report.json").exists()
        assert (out / "diagnoses.jsonl").exists()

    def test_train_keeps_pinned_uniform_class_weights(self, tmp_path, config_path):
        out = tmp_path / "out"
        assert run(["generate", "--config", config_path, "--out", str(out)]) == 0
        assert run(["preprocess", "--config", config_path, "--out", str(out)]) == 0
        pinned = tmp_path / "pinned.json"
        pinned.write_text(json.dumps({**SMALL_CONFIG, "train": {"epochs": 5, "class_weights": [1, 1, 1, 1, 1]}}))
        assert run(["train", "--config", str(pinned), "--out", str(out)]) == 0
        assert json.loads((out / "model.json").read_text())["train_config"]["class_weights"] == [1.0] * 5

    def test_nan_feature_exits_4_naming_manoeuvre(self, tmp_path, config_path, capsys):
        out = tmp_path / "out"
        assert run(["pipeline", "--config", config_path, "--out", str(out)]) == 0
        lines = (out / "features.jsonl").read_text().splitlines()
        k = next(i for i, l in enumerate(lines) if json.loads(l)["label"] == "Obstacle")
        obj = json.loads(lines[k])
        obj["values"][10] = float("nan")
        lines[k] = json.dumps(obj)
        (out / "features.jsonl").write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        code = run(["evaluate", "--config", config_path, "--out", str(out)])
        assert code == 4
        assert obj["source_id"] in capsys.readouterr().err

    RAGGED = {
        "short_row": lambda values: values[:64],
        "nested_row": lambda values: [values],
    }

    @pytest.mark.parametrize("defect", sorted(RAGGED))
    @pytest.mark.parametrize("command", ["train", "calibrate", "evaluate"])
    def test_feature_rows_of_another_shape_exit_4(
        self, trained_run, tmp_path, capsys, command, defect
    ):
        out = tmp_path / "out"
        shutil.copytree(trained_run, out)
        lines = (out / "features.jsonl").read_text().splitlines()
        obj = json.loads(lines[5])
        obj["values"] = self.RAGGED[defect](obj["values"])
        lines[5] = json.dumps(obj)
        (out / "features.jsonl").write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        code = run([command, "--config", str(out / "config.json"), "--out", str(out)])
        shape = {"short_row": (64,), "nested_row": (1, 128)}[defect]
        assert (code, capsys.readouterr().err) == (4, (
            f"pipeline failure in load: line 6: values of {obj['source_id']!r} have shape {shape}, "
            "not (128,) as in the first record\n"
        ))

    @pytest.mark.parametrize("command", ["train", "calibrate", "evaluate"])
    def test_feature_rows_without_values_exit_4(self, trained_run, tmp_path, capsys, command):
        # every row is empty, so each has the shape of the first; train
        # would build a model of input width 0
        out = tmp_path / "out"
        shutil.copytree(trained_run, out)
        objs = [json.loads(l) for l in (out / "features.jsonl").read_text().splitlines()]
        (out / "features.jsonl").write_text("".join(json.dumps({**obj, "values": []}) + "\n" for obj in objs))
        capsys.readouterr()
        code = run([command, "--config", str(out / "config.json"), "--out", str(out)])
        assert (code, capsys.readouterr().err) == (
            4, f"pipeline failure in load: line 1: no values in features of {objs[0]['source_id']!r}\n")

    @pytest.mark.parametrize("command", ["train", "calibrate", "evaluate"])
    def test_repeated_feature_id_exits_4(self, trained_run, tmp_path, capsys, command):
        # a features file names each manoeuvre once, as a dataset does
        out = tmp_path / "out"
        shutil.copytree(trained_run, out)
        objs = [json.loads(l) for l in (out / "features.jsonl").read_text().splitlines()]
        for k in (2, 30, 60):
            objs[k]["source_id"] = "dup"
        (out / "features.jsonl").write_text("".join(json.dumps(obj) + "\n" for obj in objs))
        before = output_files(out)
        capsys.readouterr()
        code = run([command, "--config", str(out / "config.json"), "--out", str(out)])
        assert (code, capsys.readouterr().err) == (4, "pipeline failure in load: duplicate manoeuvre id 'dup'\n")
        assert output_files(out) == before

    @pytest.mark.parametrize("command", ["calibrate", "evaluate"])
    def test_features_narrower_than_the_model_exit_4_naming_no_manoeuvre(self, trained_run, tmp_path, capsys, command):
        out = tmp_path / "out"
        shutil.copytree(trained_run, out)
        narrow = tmp_path / "narrow.json"
        narrow.write_text(json.dumps({**SMALL_CONFIG, "preprocess": {"feature_length": 64}}))
        assert run(["preprocess", "--config", str(narrow), "--out", str(out)]) == 0
        capsys.readouterr()
        code = run([command, "--config", str(narrow), "--out", str(out)])
        assert (code, capsys.readouterr().err) == (
            4, f"pipeline failure in {command}: input length 64 != layer_dims[0] 128\n")

    @staticmethod
    def split_of(run_dir):
        """The (train, calibration) manoeuvres of a pipeline run's dataset, split as its config splits them."""
        spec = cli.load_run_config(str(run_dir / "config.json")).split_spec
        ds = load_dataset(run_dir / "dataset.jsonl").manoeuvres
        train_at, test_at = evaluation.stratified_split([m.id for m in ds], [m.label for m in ds], spec)
        test = [ds[p] for p in test_at]
        cal_at = evaluation.split_calibration([m.id for m in test], [m.label for m in test], spec)[0]
        return [ds[p] for p in train_at], [test[k] for k in cal_at]

    @staticmethod
    def stage_config(run_dir, tmp_path, manoeuvres, **paths):
        """A config whose features file holds the run's feature lines of `manoeuvres`, in their order."""
        lines = {json.loads(l)["source_id"]: l for l in (run_dir / "features.jsonl").read_text().splitlines()}
        features = tmp_path / "features.jsonl"
        features.write_text("".join(lines[m.id] + "\n" for m in manoeuvres))
        config = tmp_path / "config.json"
        config.write_text(json.dumps({**SMALL_CONFIG, "paths": {"features": str(features), **paths}}))
        return str(config)

    def test_pipeline_model_equals_train_on_its_training_split(self, trained_run, tmp_path):
        train, _ = self.split_of(trained_run)
        config = self.stage_config(trained_run, tmp_path, train)
        assert run(["train", "--config", config, "--out", str(tmp_path / "out")]) == 0
        ours, pipeline = (json.loads((d / "model.json").read_text()) for d in (tmp_path / "out", trained_run))
        for key in ("layer_dims", "weights", "biases", "train_config"):
            assert ours[key] == pipeline[key], key

    def test_pipeline_predictor_equals_calibrate_on_its_calibration_half(self, trained_run, tmp_path):
        _, cal = self.split_of(trained_run)
        config = self.stage_config(trained_run, tmp_path, cal, model=str(trained_run / "model.json"))
        assert run(["calibrate", "--config", config, "--out", str(tmp_path / "out")]) == 0
        assert (tmp_path / "out" / "predictor.json").read_bytes() == (trained_run / "predictor.json").read_bytes()

    def test_seed_override_changes_dataset(self, tmp_path, config_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run(["generate", "--config", config_path, "--out", str(out1), "--seed", "1"]) == 0
        assert run(["generate", "--config", config_path, "--out", str(out2), "--seed", "2"]) == 0
        assert (out1 / "dataset.jsonl").read_bytes() != (out2 / "dataset.jsonl").read_bytes()
