"""pmdiag benchmark: one workload of the pm-diag CLI and its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; the program is imported from ./src. The
workload drives ``cli.main`` in a closed loop with one caller, in one process,
with numpy's default BLAS threads. Workloads (see README.md for why each):

  pipeline_default  `pipeline` on the default config; --seed 0 is the default
                    config itself, any other seed goes in through --seed
  diagnose_stream   `diagnose` on ~4000 unlabelled MJ manoeuvres (~60 MB JSONL),
                    each call followed by `diagnose` calls on one-manoeuvre
                    files drawn from that stream

The trained model and predictor of diagnose_stream come from one untimed
default `pipeline` call. The output is a readable report, then as the
last line one JSON object with the keys correct, attempted, failed and
metrics: the end-to-end metrics named in BENCHMARK.json with --trace 0, its
per-layer metrics with --trace 1. Exit code 0 when a result was printed.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workload import WORKLOADS, tail_percentile

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"

STREAM_ROWS = 4000
# Added to the workload seed: a stream seed never equals the training seed (42).
STREAM_SEED_OFFSET = 1_000_000
# one-manoeuvre files drawn from the stream for diagnose_stream's single calls
SINGLE_POOL = 64
# A run must end within 180 s; leave room for the report.
RUN_LIMIT_S = 170.0
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def child_env() -> dict:
    paths = [str(SRC), os.environ.get("PYTHONPATH", "")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))


def _quiet_main(cli, argv: list) -> None:
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        rc = cli.main(argv)
    if rc != 0:
        raise RuntimeError(f"fixture call {argv[0]} exited {rc}")


def build_fixture(work: Path, seed: int) -> dict:
    """Untimed inputs of diagnose_stream.

    The model and predictor come from the default pipeline. The stream is
    generated with the default class mix at a seed derived from the workload
    seed, its labels kept back and its ids renamed to field-NNNNN. The single
    calls read one-manoeuvre files of SINGLE_POOL manoeuvres drawn from it.
    """
    sys.path.insert(0, str(SRC))
    from pmdiag import cli, synth
    from pmdiag.core import Dataset, save_dataset
    import numpy as np

    trained = work / "fixture"
    _quiet_main(cli, ["pipeline", "--out", str(trained)])
    model_args = ["--model", str(trained / "model.json"), "--predictor", str(trained / "predictor.json")]

    cfg = cli.load_run_config(None)
    total = sum(cfg.counts.values())
    counts = {cls: round(n * STREAM_ROWS / total) for cls, n in cfg.counts.items()}
    synth_cfg = dataclasses.replace(cfg.synth_cfg, seed=STREAM_SEED_OFFSET + seed)
    labelled = synth.generate_dataset(counts, synth_cfg, cfg.severity_range)
    field = [
        dataclasses.replace(m, id=f"field-{k:05d}", label=None) for k, m in enumerate(labelled)
    ]
    stream = work / "field.jsonl"
    save_dataset(Dataset(tuple(field), "field"), stream)
    fixture = {
        "model": model_args[1],
        "predictor": model_args[3],
        "alpha": json.loads((trained / "predictor.json").read_text(encoding="utf-8"))["alpha"],
        "stream": str(stream),
        "ids": [m.id for m in field],
        "labels": {f.id: m.label.name for f, m in zip(field, labelled)},
    }
    pool_dir = work / "single"
    pool_dir.mkdir()
    fixture["pool"] = []
    for k in np.random.default_rng([seed, 2]).choice(len(field), SINGLE_POOL, replace=False):
        path = pool_dir / f"{field[k].id}.jsonl"
        save_dataset(Dataset((field[k],), "field"), path)
        fixture["pool"].append([str(path), field[k].id])
    return fixture


def git_commit() -> "str | None":
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def environment(seed: int) -> dict:
    """What a result is comparable under: only runs on the same machine compare."""
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError, AttributeError):
        blas = None
    cpu_model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_thread_vars": {k: os.environ.get(k) for k in THREAD_VARS},
        "git_commit": git_commit(),
        "seed": seed,
    }


def headline_metrics(workload: str, result: dict) -> list:
    """The workload's headline numbers under their own names:
    (name, value, unit, sample note)."""
    q = result["quality"]
    calls = result["call_s"]
    n = f"n={len(calls)} calls"
    rows = [
        ("call_ms", 1000 * statistics.median(calls), "ms", f"median wall time, {n}"),
        ("reference_ms", 1000 * statistics.median(result["ref_s"]), "ms", f"median, n={len(result['ref_s'])}"),
    ]
    if workload == "pipeline_default":
        return rows + [
            ("pipeline_s", statistics.median(calls), "s", f"median, {n}"),
            ("holdout_accuracy", q["accuracy"], "ratio", f"test split, {q['accuracy_rows']} rows"),
            ("holdout_coverage", q["coverage"], "ratio", f"{q['set_rows']} holdout rows"),
            ("holdout_mean_set_size", q["mean_set_size"], "classes", f"{q['set_rows']} holdout rows"),
        ]
    singles = result["single_s"]
    rows += [
        ("diagnose_mps", result["rows_per_call"] / statistics.median(calls), "manoeuvres/s", f"median, {n}"),
        ("stream_accuracy", q["accuracy"], "ratio", f"{q['accuracy_rows']} rows"),
        ("stream_coverage", q["coverage"], "ratio", f"{q['set_rows']} rows"),
        ("stream_mean_set_size", q["mean_set_size"], "classes", f"{q['set_rows']} rows"),
    ]
    if not singles:
        return rows
    n = f"n={len(singles)} single calls"
    rows.append(("diagnose_one_p50_ms", 1000 * statistics.median(singles), "ms", f"median, {n}"))
    try:
        p95, beyond = tail_percentile(singles, 95)
        rows.append(("diagnose_one_p95_ms", 1000 * p95, "ms", f"{n}, {beyond} beyond it"))
    except ValueError as exc:
        rows.append(("diagnose_one_p95_ms", float("nan"), "ms", f"not reported: {exc}"))
    return rows


def end_to_end(result: dict) -> dict:
    """Value and sample count of each end-to-end metric."""
    calls = result["call_s"]
    setup = result["setup_s"]
    return {
        # means, not medians: host phases make a run's samples bimodal, and a
        # median flips between the modes while a mean weighs them by share
        "call_per_ref": (statistics.mean(calls) / statistics.mean(result["ref_s"]), len(calls)),
        "setup_s": (statistics.median(setup), len(setup)),
        "peak_rss_mb": (result["peak_rss_mb"], 1),
        "accuracy": (result["quality"]["accuracy"], result["quality"]["accuracy_rows"]),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "pmdiag" / "cli.py").is_file():
        print(f"no pmdiag source under {SRC}: run from the root of a pmdiag checkout", file=sys.stderr)
        return 2
    spec_file = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {m["name"]: m for m in spec_file["end_to_end"] + spec_file["per_layer"]}

    started = time.perf_counter()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = WORK_ROOT / f"{tag}-{os.getpid()}"
    results_dir = WORK_ROOT / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    work.mkdir()
    try:
        env = child_env()
        fixture = build_fixture(work, args.seed) if args.workload == "diagnose_stream" else None
        spec = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": bool(args.trace),
            "root": str(ROOT),
            "work": str(work),
            "fixture": fixture,
            "per_layer": [m["name"] for m in spec_file["per_layer"]],
            "result": str(work / "result.json"),
            "trace_file": str(results_dir / f"{tag}-spans.jsonl"),
        }
        (work / "spec.json").write_text(json.dumps(spec), encoding="utf-8")
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).with_name("workload.py")), str(work / "spec.json")],
            env=env,
            cwd=ROOT,
            stdout=sys.stderr.fileno(),
            timeout=max(RUN_LIMIT_S - (time.perf_counter() - started), 10.0),
        )
        if proc.returncode != 0:
            print(f"workload process exited {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads((work / "result.json").read_text(encoding="utf-8"))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if not result["call_s"] or (args.trace and "layers" not in result):
        print("too few calls succeeded:\n" + "\n".join(result["failures"]), file=sys.stderr)
        return 1
    calls = result["call_s"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  seconds {args.seconds:g}")
    print("loop: closed, 1 caller, 1 process; numpy default BLAS threads")
    env_record = environment(args.seed)
    print(f"env {json.dumps(env_record)}")
    print(
        f"inputs per call: {result['rows_per_call']} manoeuvres, "
        f"{result['bytes_per_call']:.0f} bytes of dataset JSONL"
    )
    print(f"operations: {result['attempted']} attempted, {result['failed']} failed")
    for failure in result["failures"]:
        print(f"  FAILED {failure}")
    for name, value, unit, note in headline_metrics(args.workload, result):
        print(f"  {name:<24} {value:>14.6g} {unit:<13} {note}")

    if args.trace:
        values = {name: (value, len(result["traced_s"])) for name, value in result["layers"].items()}
        print(
            f"tracing overhead: traced call median {statistics.median(result['traced_s']):.6g} s"
            f" - untraced {statistics.median(calls):.6g} s"
            f" = {result['layers']['trace.overhead_s']:.6g} s"
        )
        print("waiting time: not applicable, no layer queues work")
        failed_spans = {k: v for k, v in result["span_failures"].items() if v}
        print(f"failed spans: {failed_spans or 'none'}")
        print(f"spans written to {spec['trace_file']}")
    else:
        values = end_to_end(result)
    metrics = {}
    print(f"{'metric':<40} {'value':>14} {'unit':<13} samples")
    for name, (value, n) in values.items():
        unit = declared[name]["unit"]
        metrics[name] = {"value": value, "unit": unit}
        print(f"{name:<40} {value:>14.6g} {unit:<13} n={n}")

    summary = {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }
    record = dict(summary, environment=env_record, workload=args.workload, raw=result)
    (results_dir / f"{tag}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
