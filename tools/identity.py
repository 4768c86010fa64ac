"""Byte-identity check of the pm-diag command line between two source trees.

    python tools/identity.py BASE [HEAD]

BASE and HEAD are git revisions of this repository; HEAD defaults to the
working tree. Each revision is checked out with `git worktree add --detach`
into a temporary directory, and removed again at the end. Every case runs
`python -m pmdiag.cli` with PYTHONPATH=<tree>/src, once on every CPU this
process may use and once pinned to one CPU (`os.sched_setaffinity` in the
child). Each run of a case is compared with BASE's run on every CPU: the
exit code, stdout and stderr of each command, and every output file, with
report.json's `timestamp` blanked. A command that exits with another code
than its case's counts as a difference too. One line is printed per
difference, and the exit status is 1 on any difference, else 0. A command
that runs past TIMEOUT_S is stopped and reported as exiting with None.

The cases are the default pipeline, at `--seed 3`, with uniform
`train.class_weights`, with `split.train_frac` 0.6 and
`split.calibration_frac_of_test` 0.3 (pipeline_split, whose train, test,
calibration and holdout sizes differ from every other case's), and at a
small config;
the small config's pipeline at `conformal.alpha` 0.3, then diagnose of its
dataset: at that alpha its diagnoses.jsonl holds sets of one, two and three
classes, and diagnose prints "(set covers the true class at 70%)";
the stage commands one after another, then diagnose; generate at the
default config (1110 manoeuvres), since every other input is made by
HEAD's generate and the stage commands run it at the small config only;
generate_p80, generate at the small config's counts on the P80 profile, the
one DC supply, whose PowerSupply ripple no other case draws; on a generated
4000-manoeuvre stream, diagnose, preprocess, pipeline with paths.dataset
and diagnose through /dev/stdin; error paths (a malformed config, a
duplicate id, a flat signal, a non-finite sample, an empty dataset,
diagnose with the small config's model.json whose `layer_dims[0]` reads
128.0, which exits 3, and the small config's pipeline with a 1-Hz profile,
whose generated manoeuvres are too short to preprocess: it exits 4 naming
synth-Obstacle-4 and leaves the dataset.jsonl it generated again); diagnose of the stream with a defect, each of which
a file of several pieces reports as one process would (`{oops` on line
3990, in the last piece, exits 4 with its whole-file line number; bytes
ff fe inside line 2000, in a middle piece, exit 3 with their whole-file
offset; a flat signal on line 10 plus `{oops` on line 3990 exits 4 with
the load error, not the earlier preprocess failure; a flat signal on
every 50th line from line 10, so that every piece but the short last one
holds one and every forked child meets a failed piece, exits 4 naming
line 10's manoeuvre); and
`train.batch_size` 887, which is compared BASE against HEAD on each CPU
setting only. The inputs are made once, by HEAD's `generate`, and the
small config's by HEAD's `pipeline`.

Only the standard library is used, and nothing is downloaded.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]

SMALL_CONFIG = {
    "synth": {
        "profile": "MJ", "noise_sigma": 0.09, "amplitude_jitter": 0.05, "duration_jitter": 0.05, "seed": 21,
        "counts": {"Nominal": 26, "Obstacle": 14, "Friction": 14, "PowerSupply": 12, "Misalignment": 10},
        "severity_range": [0.3, 1.0],
    },
    "train": {"epochs": 30, "seed": 21},
    "split": {"seed": 21},
}
# no command of a case takes a minute on 2 cores; a hung one is a difference
TIMEOUT_S = 600
STREAM_COUNTS = {"Nominal": 1300, "Obstacle": 1000, "Friction": 1250, "PowerSupply": 450}


def _broken(line: bytes) -> bytes:
    return b"{oops\n"


def _not_utf8(line: bytes) -> bytes:
    return line[:1000] + b"\xff\xfe" + line[1000:]


def _flat(line: bytes) -> bytes:
    """The stream line with every sample 0.0, a signal preprocessing rejects."""
    obj = json.loads(line)
    return json.dumps({**obj, "samples": [0.0] * len(obj["samples"])}).encode() + b"\n"


# each defective stream: line index to the edit of that line's bytes
STREAM_DEFECTS = {
    "broken_json_last_piece": {3989: _broken},
    "not_utf8_middle_piece": {1999: _not_utf8},
    "flat_then_broken_json": {9: _flat, 3989: _broken},
    "flat_every_piece": {k: _flat for k in range(9, 4000, 50)},
}


class Case(NamedTuple):
    """Commands run one after another with the run's directory as working
    directory, each an argv after `pm-diag`, where {out} is the case's
    output directory and {inputs} the shared input directory. A command
    whose argv ends in "<" + a path reads that file through a pipe. Every
    command is to exit with `exit_code`; a `small` case reads only the
    inputs of the small config."""

    name: str
    commands: list
    small: bool = True
    across_cpus: bool = True
    exit_code: int = 0


def _stages() -> list:
    config = ["--config", "{inputs}/small.json", "--out", "{out}"]
    trained = ["--model", "{out}/model.json", "--predictor", "{out}/predictor.json"]
    return [[stage, *config] for stage in ("generate", "preprocess", "train", "calibrate", "evaluate")] + [
        ["diagnose", *config[:3], "{out}/diagnose", *trained, "--dataset", "{out}/dataset.jsonl"]]


def _stream_diagnose(dataset: str) -> list:
    return ["diagnose", "--out", "{out}", "--model", "pipeline_default/model.json",
            "--predictor", "pipeline_default/predictor.json", "--dataset", dataset]


CASES = [
    Case("pipeline_default", [["pipeline", "--out", "{out}"]], small=False),
    Case("pipeline_seed_3", [["pipeline", "--seed", "3", "--out", "{out}"]], small=False),
    Case("pipeline_uniform_weights", [["pipeline", "--config", "{inputs}/uniform.json", "--out", "{out}"]],
         small=False),
    Case("pipeline_split", [["pipeline", "--config", "{inputs}/split.json", "--out", "{out}"]], small=False),
    Case("pipeline_small", [["pipeline", "--config", "{inputs}/small.json", "--out", "{out}"]]),
    Case("alpha_small", [["pipeline", "--config", "{inputs}/alpha.json", "--out", "{out}"],
                         ["diagnose", "--config", "{inputs}/alpha.json", "--out", "{out}/diagnose",
                          "--model", "{out}/model.json", "--predictor", "{out}/predictor.json",
                          "--dataset", "{out}/dataset.jsonl"]]),
    Case("stages_small", _stages()),
    Case("generate_default", [["generate", "--out", "{out}"]], small=False),
    Case("generate_p80", [["generate", "--config", "{inputs}/p80.json", "--out", "{out}"]]),
    Case("stream_diagnose", [_stream_diagnose("{inputs}/stream/dataset.jsonl")], small=False),
    Case("stream_preprocess", [["preprocess", "--config", "{inputs}/stream_paths.json", "--out", "{out}"]], small=False),
    Case("stream_pipeline", [["pipeline", "--config", "{inputs}/stream_paths.json", "--out", "{out}"]], small=False),
    Case("stream_stdin", [[*_stream_diagnose("/dev/stdin"), "<{inputs}/stream/dataset.jsonl"]], small=False),
    *(Case(f"error_{name}", [["pipeline", "--config", f"{{inputs}}/{name}.json", "--out", "{out}"]], exit_code=code)
      for name, code in (("malformed_config", 2), ("duplicate_id", 4), ("flat_signal", 4), ("non_finite", 4),
                         ("empty_dataset", 4))),
    *(Case(f"stream_error_{name}", [_stream_diagnose(f"{{inputs}}/stream_{name}.jsonl")], small=False,
           exit_code=3 if name == "not_utf8_middle_piece" else 4) for name in STREAM_DEFECTS),
    Case("error_generated_too_short", [["pipeline", "--config", "{inputs}/too_short.json", "--out", "{out}"]],
         exit_code=4),
    Case("error_float_layer_dims", [["diagnose", "--config", "{inputs}/small.json", "--out", "{out}",
                                     "--model", "{inputs}/float_layer_dims.json",
                                     "--predictor", "{inputs}/small/predictor.json",
                                     "--dataset", "{inputs}/small/dataset.jsonl"]], exit_code=3),
    Case("batch_size_887", [["pipeline", "--config", "{inputs}/batch_887.json", "--out", "{out}"]],
         small=False, across_cpus=False),
]


def cli(tree: Path, argv: list, cwd: Path, pinned: bool = False) -> "tuple[int | None, bytes, bytes]":
    """(exit code, stdout, stderr) of `pm-diag argv` run from `tree`'s sources,
    pinned to the lowest CPU this process may use where `pinned`; the exit
    code is None for a command stopped after TIMEOUT_S."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    cpu = min(os.sched_getaffinity(0)) if pinned else None
    stdin = None
    if argv and argv[-1].startswith("<"):
        feed = subprocess.Popen(["cat", argv[-1][1:]], stdout=subprocess.PIPE)
        stdin, argv = feed.stdout, argv[:-1]
    try:
        done = subprocess.run([sys.executable, "-m", "pmdiag.cli", *argv], cwd=cwd, env=env, stdin=stdin,
                              capture_output=True, timeout=TIMEOUT_S,
                              preexec_fn=None if cpu is None else lambda: os.sched_setaffinity(0, {cpu}))
    except subprocess.TimeoutExpired:
        return None, b"", f"stopped after {TIMEOUT_S} s".encode()
    finally:
        if stdin is not None:
            stdin.close()
            feed.wait()
    return done.returncode, done.stdout, done.stderr


def make_inputs(tree: Path, inputs: Path, small_only: bool) -> None:
    """The configs and datasets the cases read, made with `tree`'s generate."""
    inputs.mkdir(parents=True)

    def config(name: str, obj) -> None:
        (inputs / f"{name}.json").write_text(obj if isinstance(obj, str) else json.dumps(obj))

    def generate(name: str, obj: dict, command: str = "generate") -> None:
        config(name, obj)
        code, _, err = cli(tree, [command, "--config", f"{name}.json", "--out", name], inputs)
        if code != 0:
            raise RuntimeError(f"{command} {name} exited {code}: {err.decode(errors='replace')}")

    generate("small", SMALL_CONFIG, "pipeline")
    params = json.loads((inputs / "small" / "model.json").read_text())
    params["layer_dims"][0] = float(params["layer_dims"][0])
    (inputs / "float_layer_dims.json").write_text(json.dumps(params, sort_keys=True))
    config("alpha", {**SMALL_CONFIG, "conformal": {"alpha": 0.3}})
    config("p80", {**SMALL_CONFIG, "synth": {**SMALL_CONFIG["synth"], "profile": "P80"}})
    lines = (inputs / "small" / "dataset.jsonl").read_text().splitlines(keepends=True)

    def edited(k: int, **changes) -> str:
        return json.dumps({**json.loads(lines[k]), **changes}) + "\n"

    samples = json.loads(lines[5])["samples"]
    defects = {
        "duplicate_id": lines[:20] + [edited(20, id=json.loads(lines[3])["id"])],
        "flat_signal": lines[:5] + [edited(5, samples=[0.0] * len(samples))] + lines[6:],
        "non_finite": lines[:5] + [edited(5, samples=[*samples[:10], float("nan"), *samples[11:]])] + lines[6:],
        "empty_dataset": [],
    }
    for name, dataset in defects.items():
        (inputs / f"{name}.jsonl").write_text("".join(dataset))
        config(name, {**SMALL_CONFIG, "paths": {"dataset": str(inputs / f"{name}.jsonl")}})
    config("malformed_config", '{"train": {"epochs": 30,}}')
    # at 1 Hz a 5-s move gives manoeuvres of 11 samples
    config("too_short", {**SMALL_CONFIG, "synth": {**SMALL_CONFIG["synth"], "profile": {
        "name": "slow", "supply": "AC", "sample_rate": 1.0, "nominal_peak_amps": 8.0, "plateau_amps": 3.0,
        "move_duration": 5.0}}})
    if not small_only:
        generate("stream", {"synth": {"counts": STREAM_COUNTS, "seed": 5}})
        stream = (inputs / "stream" / "dataset.jsonl").read_bytes().splitlines(keepends=True)
        for name, edits in STREAM_DEFECTS.items():
            (inputs / f"stream_{name}.jsonl").write_bytes(
                b"".join(edits[k](line) if k in edits else line for k, line in enumerate(stream)))
        config("stream_paths", {"paths": {"dataset": str(inputs / "stream" / "dataset.jsonl")}})
        config("batch_887", {"train": {"batch_size": 887}})
        config("uniform", {"train": {"class_weights": [1, 1, 1, 1, 1]}})
        config("split", {"split": {"train_frac": 0.6, "calibration_frac_of_test": 0.3}})


def _timestamp_blanked(data: bytes) -> bytes:
    return re.sub(rb'"timestamp": "[^"]*"', b'"timestamp": ""', data)


def compare_dirs(a: Path, b: Path) -> list:
    """One line per output file that differs between directories `a` and `b`,
    or is in one only; report.json is compared with its timestamp blanked."""
    files_a, files_b = ({p.relative_to(d).as_posix() for p in d.rglob("*") if p.is_file()} for d in (a, b))
    differences = [f"{name} only in {'the first' if name in files_a else 'the second'}"
                   for name in sorted(files_a ^ files_b)]
    for name in sorted(files_a & files_b):
        data_a, data_b = (d.joinpath(name).read_bytes() for d in (a, b))
        if Path(name).name == "report.json":
            data_a, data_b = _timestamp_blanked(data_a), _timestamp_blanked(data_b)
        if data_a != data_b:
            differences.append(f"{name} differs")
    return differences


def run_cases(base: Path, head: Path, cases: list, work: Path, pinned: bool = True) -> list:
    """The differences (one line each) between the cases' runs from the
    source trees `base` and `head`, each run in its own directory under
    `work`, and each run whose exit code is not its case's; `pinned` adds
    the runs pinned to one CPU."""
    work = work.resolve()
    inputs = work / "inputs"
    make_inputs(head, inputs, small_only=all(case.small for case in cases))
    runs = [(side, tree, mode) for side, tree in (("base", base), ("head", head))
            for mode in ("all", "cpu0")[: 1 + (pinned and hasattr(os, "sched_setaffinity"))]]
    differences = []
    for case in cases:
        outcomes = {}
        for side, tree, mode in runs:
            run_dir = work / f"{side}-{mode}"
            run_dir.mkdir(exist_ok=True)
            fill = {"out": case.name, "inputs": str(inputs)}
            outcomes[side, mode] = [cli(tree, [arg.format(**fill) for arg in argv], run_dir, mode == "cpu0")
                                    for argv in case.commands]
            differences += [f"{case.name} {side}/{mode}: command {k + 1} exited {code}, not {case.exit_code}"
                            for k, (code, _, _) in enumerate(outcomes[side, mode]) if code != case.exit_code]
        for side, _, mode in runs[1:]:
            ref_mode = "all" if case.across_cpus else mode
            if (side, mode) == ("base", ref_mode):
                continue
            where = f"{case.name} {side}/{mode} against base/{ref_mode}:"
            for k, (got, want) in enumerate(zip(outcomes[side, mode], outcomes["base", ref_mode])):
                for part, x, y in zip(("exit code", "stdout", "stderr"), got, want):
                    if x != y:
                        differences.append(f"{where} command {k + 1} {part} differs")
            differences += [f"{where} {line}" for line in
                            compare_dirs(work / f"base-{ref_mode}" / case.name, work / f"{side}-{mode}" / case.name)]
        if case.name != "pipeline_default":  # the stream's diagnose cases read its model
            for side, _, mode in runs:
                shutil.rmtree(work / f"{side}-{mode}" / case.name, ignore_errors=True)
    return differences


def _checked_out(revision: str, into: Path) -> Path:
    subprocess.run(["git", "-C", str(ROOT), "worktree", "add", "--quiet", "--detach", str(into), revision],
                   check=True)
    return into


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", help="git revision to compare against")
    parser.add_argument("head", nargs="?", help="git revision to compare (default: the working tree)")
    args = parser.parse_args(argv)
    work = Path(tempfile.mkdtemp(prefix="identity-"))
    trees = []
    try:
        base = _checked_out(args.base, work / "base-tree")
        trees.append(base)
        head = ROOT if args.head is None else _checked_out(args.head, work / "head-tree")
        trees.append(head)
        differences = run_cases(base, head, CASES, work / "runs")
    finally:
        for tree in trees:
            if tree != ROOT:
                subprocess.run(["git", "-C", str(ROOT), "worktree", "remove", "--force", str(tree)], check=False)
        shutil.rmtree(work, ignore_errors=True)
    for line in differences:
        print(line)
    print(f"{len(differences)} differences over {len(CASES)} cases")
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())
