"""One benchmark workload, run in a process of its own so that its peak RSS is
the workload's alone.

    python3 perfbench/workload.py SPEC.json

run.py writes the spec (workload, seed, seconds, trace flag, fixture paths,
per-layer metric names) and reads the result file the spec names. The process
calls ``cli.main`` in a closed loop with one caller until ``seconds`` have
passed and the workload has its minimum sample count; the first, colder call
is one sample of the median like any other. Before each call it times a fixed
reference kernel, and after each call it times one fresh interpreter's
set-up. Every call's outputs are checked; a wrong output counts as a failed
operation. With tracing on, odd calls run traced and even calls run with
nothing wrapped, so the traced-minus-untraced difference is the tracing
overhead.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from tracer import Tracer, span_stats

# Wall-clock allowance past `seconds` for reaching a workload's minimum
# sample count; keeps a run whose calls all fail from looping forever.
MAX_EXTRA_S = 60.0
# diagnose_stream: one-manoeuvre diagnose calls after each stream call; with
# 12 or more stream calls a run has the 220 samples a p95 with 10 beyond needs
SINGLES_PER_CALL = 20
SETUP_CODE = "import pmdiag.cli; pmdiag.cli.build_parser()"
# reference-kernel timings before each call; their mean over the run is the
# unit of call_per_ref
REF_REPEATS = 3

SPAN_STATS = ("calls", "failed", "busy_s", "self_s")
ESTIMATE = (
    "model.train.est_grad_share",
    "model.train.est_loss_log_share",
    "model.train.est_other_share",
)


def tail_percentile(samples, q: float = 95.0) -> "tuple[float, int]":
    """Nearest-rank q-th percentile and the number of samples strictly above it.

    Raises ValueError when fewer than ten samples lie beyond it: a tail
    percentile with fewer is not reported.
    """
    ordered = sorted(samples)
    if not ordered:
        raise ValueError("no samples")
    value = ordered[max(math.ceil(q / 100.0 * len(ordered)), 1) - 1]
    beyond = sum(1 for s in ordered if s > value)
    if beyond < 10:
        raise ValueError(f"p{q:g} of {len(ordered)} samples has only {beyond} beyond it; need 10")
    return value, beyond


def peak_rss_mb() -> float:
    """This process's peak resident set, from VmHWM.

    Not ru_maxrss: Linux carries the parent's peak across fork and exec into
    it, and the parent held the fixtures.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def _read_jsonl(path: Path) -> list:
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]


def _set_classes(row: dict) -> list:
    return [member["class"] for member in row["prediction_set"]]


class PipelineDefault:
    """`pipeline` on the default config, each call into a fresh output directory.

    Correct when the call exits 0 and model.json and report.json minus its
    timestamp are identical to the first repetition's (README determinism).
    """

    min_samples = 3
    trains = True

    def __init__(self, spec: dict, work: Path):
        self.work = work
        # seed 0 is the default config, whose outputs the byte-identity rule names
        self.seed_args = ["--seed", str(spec["seed"])] if spec["seed"] else []
        self.digests = None
        self.report: dict = {}
        self.rows = self.bytes = self.test_rows = 0

    def out(self, i: int) -> Path:
        return self.work / f"pipeline-{i}"

    def argv(self, i: int) -> list:
        return ["pipeline", "--out", str(self.out(i)), *self.seed_args]

    def check(self, i: int) -> "str | None":
        out = self.out(i)
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        report.pop("timestamp")
        digests = (
            hashlib.sha256((out / "model.json").read_bytes()).hexdigest(),
            hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest(),
        )
        self.digests = self.digests or digests
        self.report = report
        self.rows = sum(report["counts"]["dataset"].values())
        self.test_rows = sum(report["counts"]["test"].values())
        self.bytes = (out / "dataset.jsonl").stat().st_size
        if digests != self.digests:
            return "model.json or report.json differs from the first repetition"
        return None

    def singles(self, i: int) -> list:
        return []

    def quality(self) -> dict:
        metrics = self.report["metrics"]
        confusion = metrics["confusion"]
        return {
            # confusion matrix of the test split: diagonal / total
            "accuracy": sum(confusion[k][k] for k in range(len(confusion)))
            / sum(map(sum, confusion)),
            "accuracy_rows": self.test_rows,
            # coverage and set size are over the holdout half of the test split
            "coverage": metrics["coverage"],
            "mean_set_size": metrics["mean_set_size"],
            "set_rows": sum(self.report["counts"]["holdout"].values()),
        }


class DiagnoseStream:
    """`diagnose` on the whole unlabelled stream file, then on single manoeuvres.

    A stream call is correct when diagnoses.jsonl has exactly one row per
    input id, in input order, and the stream's coverage is at least
    1 - alpha - 3 sd of the binomial coverage count, sqrt(alpha (1 - alpha) / n).
    After each correct stream call, SINGLES_PER_CALL one-manoeuvre files drawn
    from the stream are diagnosed, one call each. A single call is correct when
    its set members, their order and probabilities equal that manoeuvre's row
    from the stream call, so the batch-of-1 and batch-of-N paths agree.
    """

    min_samples = 3
    trains = False

    def __init__(self, spec: dict, work: Path):
        fixture = spec["fixture"]
        self.work = work
        self.model_args = ["--model", fixture["model"], "--predictor", fixture["predictor"]]
        self.labels = fixture["labels"]
        self.dataset = fixture["stream"]
        self.ids = fixture["ids"]
        self.alpha = fixture["alpha"]
        self.pool = fixture["pool"]
        self.rows = self.test_rows = len(self.ids)
        self.bytes = Path(self.dataset).stat().st_size
        self.rows_seen = self.hits = self.covered = self.set_total = 0
        self.stream_rows: dict = {}

    def out(self, i: int) -> Path:
        return self.work / f"diagnose-{i}"

    def argv(self, i: int) -> list:
        return ["diagnose", "--out", str(self.out(i)), "--dataset", self.dataset, *self.model_args]

    def check(self, i: int) -> "str | None":
        rows = _read_jsonl(self.out(i) / "diagnoses.jsonl")
        if [row["source_id"] for row in rows] != self.ids:
            return "diagnoses.jsonl rows do not match the input ids in order"
        self.stream_rows = {row["source_id"]: row for row in rows}
        covered_before = self.covered
        for row in rows:
            classes = _set_classes(row)
            label = self.labels[row["source_id"]]
            self.rows_seen += 1
            self.hits += row["argmax_class"] == label
            self.covered += label in classes
            self.set_total += len(classes)
        n = len(rows)
        coverage = (self.covered - covered_before) / n
        floor = 1.0 - self.alpha - 3.0 * math.sqrt(self.alpha * (1.0 - self.alpha) / n)
        if coverage < floor:
            return f"stream coverage {coverage:.4f} is below {floor:.4f}"
        return None

    def singles(self, i: int) -> list:
        """(argv, output directory, manoeuvre id) of the single calls after call i."""
        picks = [self.pool[(i * SINGLES_PER_CALL + j) % len(self.pool)] for j in range(SINGLES_PER_CALL)]
        return [
            (
                ["diagnose", "--out", str(self.work / f"single-{j}"), "--dataset", path, *self.model_args],
                self.work / f"single-{j}",
                mid,
            )
            for j, (path, mid) in enumerate(picks)
        ]

    def check_single(self, out: Path, mid: str) -> "str | None":
        rows = _read_jsonl(out / "diagnoses.jsonl")
        if [row["source_id"] for row in rows] != [mid]:
            return f"expected one diagnoses.jsonl row for {mid}"
        if rows[0]["prediction_set"] != self.stream_rows[mid]["prediction_set"]:
            return f"{mid}: prediction set differs from its row in the stream call"
        return None

    def quality(self) -> dict:
        n = self.rows_seen
        return {
            "accuracy": self.hits / n,
            "accuracy_rows": n,
            "coverage": self.covered / n,
            "mean_set_size": self.set_total / n,
            "set_rows": n,
        }


WORKLOADS = {
    "pipeline_default": PipelineDefault,
    "diagnose_stream": DiagnoseStream,
}


_REF_RNG = np.random.default_rng(0)
REF_ROWS = [{"id": f"r{k}", "t": _REF_RNG.standard_normal(256).tolist()} for k in range(300)]
REF_WEIGHTS = _REF_RNG.standard_normal((256, 256)) / 16


def reference_s() -> float:
    """Wall time of a fixed kernel that shares no code with pmdiag.

    It does what pmdiag's calls spend their time on, at a fixed size: a JSON
    round trip of about 1.6 MB, building an array from the parsed lists, and
    small BLAS products. Timed between the calls, it tells how fast the host
    ran during the run, so the calls' time can be stated in units of it.
    """
    t0 = time.perf_counter()
    rows = json.loads(json.dumps(REF_ROWS))
    x = np.array([row["t"] for row in rows])
    for _ in range(20):
        x = np.tanh(x @ REF_WEIGHTS)
    return time.perf_counter() - t0


def setup_s() -> float:
    """Wall time of a fresh interpreter importing pmdiag.cli and building the
    parser, which every CLI call pays before its first stage."""
    t0 = time.perf_counter()
    rc = subprocess.run([sys.executable, "-c", SETUP_CODE], stdout=subprocess.DEVNULL).returncode
    if rc != 0:
        raise RuntimeError(f"importing pmdiag.cli exited {rc}")
    return time.perf_counter() - t0


def paired_median_times(fns, repeats: int) -> list:
    """Median time of each function, timed in turn within each repeat so that
    all of them see the same host speed."""
    times: list = [[] for _ in fns]
    for _ in range(repeats):
        for samples, fn in zip(times, fns):
            t0 = time.perf_counter()
            fn()
            samples.append(time.perf_counter() - t0)
    return [statistics.median(samples) for samples in times]


def training_estimate(out: Path) -> "tuple[float, float]":
    """Estimated seconds that the call which wrote `out` spent in model.train
    on gradient steps and on the epoch loss log, from public calls only.

    Run right after that call, so that the estimate and the call's own
    model.train span see about the same host speed. train steps through
    32-row batches of arrays it stacked once, and logs the full-training-set
    loss after each epoch. The public model.grad and model.loss take row lists
    and stack them on every call, so that stacking is taken out: it is
    model.loss minus model.predict_batch on the same rows, and the epoch loss
    log costs the forward pass model.predict_batch runs. The per-call times
    are multiplied by the step and epoch counts of the run's config. The
    first rows of features.jsonl stand in for the training split, because the
    cost depends only on the shape.
    """
    from pmdiag import model, preprocess

    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    cfg = report["config"]["train"]
    n_train = sum(report["counts"]["train"].values())
    records = preprocess.load_features(out / "features.jsonl")[:n_train]
    rows = [(fv.values, label, 1.0) for fv, label in records]
    x = np.stack([fv.values for fv, _ in records])
    mdl = model.load_model(out / "model.json")
    b = cfg["batch_size"]
    grad_s, loss_b_s, forward_b_s, loss_log_s = paired_median_times(
        [
            lambda: model.grad(mdl, rows[:b]),
            lambda: model.loss(mdl, rows[:b]),
            lambda: model.predict_batch(mdl, x[:b]),
            lambda: model.predict_batch(mdl, x),
        ],
        30,
    )
    grad_s -= loss_b_s - forward_b_s
    return math.ceil(n_train / b) * cfg["epochs"] * grad_s, cfg["epochs"] * loss_log_s


def layer_metrics(names, tracer: Tracer, stats: dict, test_rows: int, extra: dict) -> dict:
    """Each per-layer metric `<span>.<stat>`: its median over the traced calls.

    A span that did not run in a call counts 0 for that call.
    """
    runs = sorted({s.run for s in tracer.spans})

    def value(run: int, span: str, stat: str) -> float:
        st = stats.get((run, span))
        if stat in SPAN_STATS:
            return st[stat] if st else 0
        if stat in ("rows", "bytes"):
            return tracer.counts.get((run, span, stat), 0)
        if stat == "samples_per_s":
            return tracer.counts.get((run, span, "samples"), 0) / st["busy_s"] if st else 0.0
        if stat == "passes_per_test_row":
            return tracer.counts.get((run, span, "rows"), 0) / test_rows
        raise ValueError(f"no rule for per-layer metric {span}.{stat}")

    return {
        name: extra[name]
        if name in extra
        else statistics.median(value(run, *name.rsplit(".", 1)) for run in runs)
        for name in names
    }


def run(spec: dict) -> dict:
    from pmdiag import cli, conformal, core, evaluation, model, preprocess, synth
    import pmdiag

    work = Path(spec["work"])
    wl = WORKLOADS[spec["workload"]](spec, work)
    tracer = (
        Tracer([pmdiag, cli, core, synth, preprocess, model, conformal, evaluation])
        if spec["trace"]
        else None
    )
    attempted = 0
    failures: list = []
    samples: dict = {key: [] for key in ("call_s", "traced_s", "single_s", "setup_s", "ref_s")}
    estimates: list = []

    def call(argv: list, check, tracing=None) -> "float | None":
        """Wall time of one checked CLI call, or None when it failed."""
        nonlocal attempted
        attempted += 1
        try:
            with tracing or contextlib.nullcontext(), contextlib.redirect_stdout(sink):
                t0 = time.perf_counter()
                rc = cli.main(argv)
                elapsed = time.perf_counter() - t0
            problem = f"exit code {rc}" if rc != 0 else check()
        except Exception:
            # a crash or an unreadable output is one failed operation; the loop goes on
            problem = traceback.format_exc(limit=3)
        if problem:
            failures.append(f"{argv[0]} call {attempted}: {problem}")
            return None
        return elapsed

    reference_s()  # the first repetitions run cold
    with open(os.devnull, "w") as sink:
        deadline = time.perf_counter() + spec["seconds"]
        i = -1
        while True:
            now = time.perf_counter()
            short = len(samples["call_s"]) < wl.min_samples or (tracer is not None and not samples["traced_s"])
            if now >= deadline and (not short or now >= deadline + MAX_EXTRA_S):
                break
            i += 1
            trace = tracer is not None and i % 2 == 1
            if trace:
                tracer.run = i
                first_span = len(tracer.spans)
            samples["ref_s"] += [reference_s() for _ in range(REF_REPEATS)]
            elapsed = call(wl.argv(i), lambda: wl.check(i), tracer if trace else None)
            # the previous call's outputs; the training estimate below reads this call's
            shutil.rmtree(wl.out(i - 1), ignore_errors=True)
            if elapsed is None:
                continue
            if tracer is not None and wl.trains:
                # after every call of a traced run, so that traced and untraced
                # calls follow the same work; only a traced call has the
                # model.train span the estimate is a share of
                grad_s, loss_log_s = training_estimate(wl.out(i))
            if trace:
                samples["traced_s"].append(elapsed)
                if wl.trains:
                    train_s = sum(s.end - s.start for s in tracer.spans[first_span:] if s.name == "model.train")
                    shares = (grad_s / train_s, loss_log_s / train_s)
                    estimates.append(dict(zip(ESTIMATE, (*shares, 1.0 - sum(shares)))))
            else:
                samples["call_s"].append(elapsed)
            for argv, out, mid in wl.singles(i):
                single = call(argv, lambda: wl.check_single(out, mid))
                shutil.rmtree(out, ignore_errors=True)
                if single is not None:
                    samples["single_s"].append(single)
            # spread over the run, so set-up sees the same host phases as the calls
            samples["setup_s"].append(setup_s())

    result = {
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:5],
        **samples,
        "rows_per_call": wl.rows,
        "bytes_per_call": wl.bytes,
        "test_rows": wl.test_rows,
        "quality": wl.quality() if samples["call_s"] or samples["traced_s"] else {},
        "peak_rss_mb": peak_rss_mb(),
    }
    traced, untraced = samples["traced_s"], samples["call_s"]
    if tracer is not None and traced and untraced:
        stats = span_stats(tracer.spans)
        extra = {
            "trace.overhead_s": statistics.median(traced) - statistics.median(untraced),
            "conformal.mean_set_size": result["quality"]["mean_set_size"],
        }
        extra.update(
            {key: statistics.median(e[key] for e in estimates) for key in ESTIMATE}
            if estimates
            else dict.fromkeys(ESTIMATE, 0.0)
        )
        result["layers"] = layer_metrics(spec["per_layer"], tracer, stats, wl.test_rows, extra)
        result["span_failures"] = {
            name: sum(st["failed"] for (_, n), st in stats.items() if n == name)
            for name in sorted({name for _, name in stats})
        }
        tracer.write(spec["trace_file"])
    return result


def main(argv) -> int:
    spec = json.loads(Path(argv[1]).read_text(encoding="utf-8"))
    sys.path.insert(0, str(Path(spec["root"]) / "src"))
    result = run(spec)
    Path(spec["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
