import contextlib
import functools
import json
import os
import shutil
import subprocess
import sys
import threading
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from pmdiag import cli, conformal, core, evaluation, model, preprocess, synth
from pmdiag.core import FaultClass, Manoeuvre, Dataset, PmDiagError, save_dataset, load_dataset


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
    """Make forking impossible: no fork start method, or a fork that fails."""
    import multiprocessing

    if how == "no_fork_method":
        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    else:
        def refuse(self):
            raise BlockingIOError(11, "Resource temporarily unavailable")

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
        "section", ["<root>", "synth", "synth.profile", "preprocess", "train", "conformal", "split", "paths"]
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
        "cfg, flags",
        [
            ({"synth": 5}, []),
            ({"train": [1]}, []),
            ({"split": "x"}, []),
            ({"train": [["epochs", 1]]}, []),
            ({"synth": {"severity_range": [0.9, 0.1]}}, []),
            ({"train": {"seed": -1}}, []),
            ({"split": {"seed": 2**64}}, []),
            ({}, ["--seed", "-1"]),
            ({}, ["--seed", str(2**64)]),
            ({"train": {"epochs": 2.5}}, []),
            ({"train": {"epochs": True}}, []),
            ({"train": {"batch_size": 32.0}}, []),
            ({"preprocess": {"smooth_window": 5.0}}, []),
            ({"synth": {"seed": 1.5}}, []),
            ({"split": {"seed": 1.5}}, []),
            ({"train": {"seed": 2.5}}, []),
            ({"synth": {"profile": {**asdict(synth.DEFAULT_PROFILES["MJ"]), "sample_rate": float("nan")}}}, []),
            ({"synth": {"noise_sigma": float("nan")}}, []),
            ({"synth": {"noise_sigma": float("inf")}}, []),
            ({"train": {"learning_rate": float("nan")}}, []),
            ({"train": {"class_weights": [1.0, 1.0, float("nan"), 1.0, 1.0]}}, []),
        ],
        ids=["synth_number", "train_list", "split_string", "train_pairs", "severity_reversed",
             "train_seed_negative", "split_seed_2_64", "seed_negative", "seed_2_64",
             "epochs_float", "epochs_bool", "batch_size_float", "smooth_window_float", "synth_seed_float",
             "split_seed_float", "train_seed_float", "sample_rate_nan", "noise_sigma_nan",
             "noise_sigma_inf", "learning_rate_nan", "class_weight_nan"],
    )
    def test_malformed_config_exits_2_with_one_line(self, tmp_path, capsys, cfg, flags):
        p = tmp_path / "c.json"
        p.write_text(json.dumps(cfg))
        code = run(["generate", "--config", str(p), "--out", str(tmp_path / "o"), *flags])
        err = capsys.readouterr().err
        assert (code, err[: len("config error: ")], err.count("\n")) == (2, "config error: ", 1)

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
            synth.generate_nominal(cfg, s, manoeuvre_id=f"good-{s}") for s in range(4)
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
        m = synth.inject_fault(cfg, synth.FaultSpec(FaultClass.Obstacle, 0.9), 50,
                               manoeuvre_id="field-1")
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
        real = preprocess.preprocess

        def poison(m, cfg):
            fv = real(m, cfg)
            if m.id in poisoned:
                return preprocess.FeatureVector(np.full(fv.values.size, np.nan), m.id)
            return fv

        monkeypatch.setattr(preprocess, "preprocess", poison)
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
        for how in ("no_fork_method", "fork_fails"):
            with monkeypatch.context() as patch:
                no_fork(patch, how)
                assert self.outcome(argv, out, capsys) == forked, how
        if name == "preprocess":
            records, _ = self.reference(ds_path)
            preprocess.save_features(records, tmp_path / "reference.jsonl")
            assert forked[3]["features.jsonl"] == (tmp_path / "reference.jsonl").read_bytes()

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
        records = [(preprocess.preprocess(m), m.label) for m in load_dataset(ds_path)]
        reference = out.with_name("reference.jsonl")
        if name == "preprocess":
            preprocess.save_features(records, reference)
            shown = f"wrote {len(records)} feature vectors to {out / 'features.jsonl'}\n"
            return 0, shown, "", {"features.jsonl": reference.read_bytes()}
        mdl = model.load_model(trained_run / "model.json")
        predictor = conformal.load_predictor(trained_run / "predictor.json")
        rows = [(label, conformal.diagnose(predictor, mdl, fv)) for fv, label in records]
        conformal.save_diagnoses(rows, reference)
        shown = "".join(
            f"{d.source_id}: {{{', '.join(f'{cls.name}:{p:.3f}' for cls, p in d.prediction_set)}}}"
            " (set covers the true class at 95%)\n"
            for _, d in rows
        )
        return 0, shown, "", {"diagnoses.jsonl": reference.read_bytes()}

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
        real = preprocess.preprocess

        def poison(m, cfg=preprocess.PreprocessConfig()):
            fv = real(m, cfg)
            return preprocess.FeatureVector(np.full(fv.values.size, np.nan), m.id) if m.id in poisoned else fv

        monkeypatch.setattr(preprocess, "preprocess", poison)

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
        """(records, None), or (None, the stderr line of the first failure), of
        load_dataset and then preprocessing each manoeuvre in order."""
        try:
            ds = load_dataset(ds_path)
        except PmDiagError as exc:
            return None, f"pipeline failure in load: {exc}\n"
        records = []
        for m in ds:
            try:
                records.append((preprocess.preprocess(m), m.label))
            except PmDiagError as exc:
                return None, f"pipeline failure in preprocess: manoeuvre {m.id!r}: {exc}\n"
        return records, None

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


@pytest.mark.parametrize(
    "command, first_line",
    [("diagnose", "valid"), ("diagnose", "flat_signal"), ("preprocess", "valid"),
     ("preprocess", "flat_signal"), ("pipeline", "valid")],
)
def test_each_manoeuvre_validated_once(trained_run, tmp_path, capsys, monkeypatch, command, first_line):
    # a flat first line fails preprocessing, after which the other lines are
    # still read, and validated, for a load error that would outrank it;
    # pipeline generates the manoeuvres of this dataset
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
    validated, real = [], core.validate_manoeuvre

    def counting(m):
        validated.append(m.id)
        return real(m)

    for module in (core, preprocess, cli):
        monkeypatch.setattr(module, "validate_manoeuvre", counting)
    # every manoeuvre in this process, where the count is kept
    monkeypatch.setattr(cli, "_cpus", lambda: 1)
    capsys.readouterr()
    assert run(argv) == (4 if first_line == "flat_signal" else 0)
    assert sorted(validated) == sorted(json.loads(l)["id"] for l in lines)


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


class TestPipelineOnEveryCpu:
    """pipeline generates and preprocesses on every CPU, and its writer
    child takes over the epoch loss log once its files are written: every
    output byte is that of one process doing it all."""

    @pytest.fixture()
    def argv(self, tmp_path, config_path):
        return ["pipeline", "--config", config_path, "--out", str(tmp_path / "out")]

    def outcome(self, argv, capsys):
        """Exit code, stdout, stderr and output files of one call; the call
        must leave no child process and no file descriptor open."""
        out = Path(argv[argv.index("--out") + 1])
        capsys.readouterr()
        fds = open_fds()
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

    @pytest.fixture()
    def in_process_losses(self, monkeypatch):
        """Count the epoch losses this process computes; a child's count stays in the child."""
        parent, blocked_loss, counted = os.getpid(), model._blocked_loss, []

        def counting(*args):
            if os.getpid() == parent:
                counted.append(1)
            return blocked_loss(*args)

        monkeypatch.setattr(model, "_blocked_loss", counting)
        return counted

    @staticmethod
    def train_when_writer_ready(monkeypatch):
        """Start training only once the writer child has posted that its files are written."""
        train = model.train

        def after_ready(features, cfg, layer_dims, loss_log=None):
            # poll does not take the message: the first epoch end takes it
            assert loss_log.child.receiver.poll(60)
            return train(features, cfg, layer_dims, loss_log=loss_log)

        monkeypatch.setattr(model, "train", after_ready)

    @pytest.mark.parametrize("cpus", [1, 2, 3, 8])
    def test_any_cpu_count_matches_one_process(self, argv, alone, capsys, monkeypatch, forks, cpus):
        monkeypatch.setattr(cli, "_cpus", lambda: cpus)
        assert self.outcome(argv, capsys) == alone
        # 76 positions make at least `cpus` pieces: a child per further CPU, and the writer
        assert len(forks) == cpus

    def test_writer_takes_every_epoch(self, argv, alone, capsys, monkeypatch, in_process_losses):
        monkeypatch.setattr(cli, "_cpus", lambda: 2)
        self.train_when_writer_ready(monkeypatch)
        assert self.outcome(argv, capsys) == alone
        assert in_process_losses == []

    def test_writer_takes_no_epoch(self, argv, alone, capsys, monkeypatch, tmp_path, in_process_losses):
        # the writer writes only once training is over
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
        assert len(in_process_losses) == SMALL_CONFIG["train"]["epochs"]

    def test_writer_that_dies_after_taking_an_epoch(
        self, argv, alone, capsys, monkeypatch, tmp_path, in_process_losses
    ):
        monkeypatch.setattr(cli, "_cpus", lambda: 2)
        self.train_when_writer_ready(monkeypatch)
        died = tmp_path / "died"
        parent, blocked_loss = os.getpid(), model._blocked_loss

        def loss_and_die(*args):
            loss = blocked_loss(*args)
            if os.getpid() != parent:
                died.touch()
                os._exit(1)
            return loss

        monkeypatch.setattr(model, "_blocked_loss", loss_and_die)
        assert self.outcome(argv, capsys) == alone
        assert died.exists()
        # the writer took every epoch, and this process logged them all after it died
        assert len(in_process_losses) == SMALL_CONFIG["train"]["epochs"]

    def test_first_preprocess_failure_in_dataset_order(self, argv, tmp_path, capsys, monkeypatch, forks):
        ref = tmp_path / "ref"
        assert run(["generate", "--config", argv[2], "--out", str(ref)]) == 0
        ids = [json.loads(l)["id"] for l in (ref / "dataset.jsonl").read_text().splitlines()]
        # positions 30 and 60 lie in the second and third of four pieces
        poisoned = {ids[30], ids[60]}
        real = preprocess.preprocess

        def poison(m, cfg=preprocess.PreprocessConfig()):
            if m.id in poisoned:
                raise PmDiagError("poisoned")
            return real(m, cfg)

        monkeypatch.setattr(preprocess, "preprocess", poison)
        monkeypatch.setattr(cli, "_cpus", lambda: 3)
        code, stdout, err, files = self.outcome(argv, capsys)
        assert len(forks) == 2
        assert (code, stdout, err) == (4, "", f"pipeline failure in preprocess: manoeuvre {ids[30]!r}: poisoned\n")
        assert files == {"dataset.jsonl": (ref / "dataset.jsonl").read_bytes()}


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

    @staticmethod
    def split_of(run_dir):
        """The (train, calibration) manoeuvres of a pipeline run's dataset, split as its config splits them."""
        spec = cli.load_run_config(str(run_dir / "config.json")).split_spec
        train_ds, test_ds = evaluation.stratified_split(load_dataset(run_dir / "dataset.jsonl"), spec)
        return train_ds, evaluation.split_calibration(test_ds, spec)[0]

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
        train_ds, _ = self.split_of(trained_run)
        config = self.stage_config(trained_run, tmp_path, train_ds)
        assert run(["train", "--config", config, "--out", str(tmp_path / "out")]) == 0
        ours, pipeline = (json.loads((d / "model.json").read_text()) for d in (tmp_path / "out", trained_run))
        for key in ("layer_dims", "weights", "biases", "train_config"):
            assert ours[key] == pipeline[key], key

    def test_pipeline_predictor_equals_calibrate_on_its_calibration_half(self, trained_run, tmp_path):
        _, cal_ds = self.split_of(trained_run)
        config = self.stage_config(trained_run, tmp_path, cal_ds, model=str(trained_run / "model.json"))
        assert run(["calibrate", "--config", config, "--out", str(tmp_path / "out")]) == 0
        assert (tmp_path / "out" / "predictor.json").read_bytes() == (trained_run / "predictor.json").read_bytes()

    def test_seed_override_changes_dataset(self, tmp_path, config_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run(["generate", "--config", config_path, "--out", str(out1), "--seed", "1"]) == 0
        assert run(["generate", "--config", config_path, "--out", str(out2), "--seed", "2"]) == 0
        assert (out1 / "dataset.jsonl").read_bytes() != (out2 / "dataset.jsonl").read_bytes()
