"""Self-tests of the benchmark's own arithmetic and tracing.

    python3 perfbench/selftest.py

Run from anywhere; the program is imported from the checkout's src/.
"""

from __future__ import annotations

import json
import sys
import unittest
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import pmdiag  # noqa: E402
from pmdiag import cli, conformal, core, evaluation, model, preprocess, synth  # noqa: E402
from tracer import Span, Tracer, public_functions, span_stats  # noqa: E402
from workload import ESTIMATE, layer_metrics, tail_percentile  # noqa: E402
from run import end_to_end  # noqa: E402

MODULES = [pmdiag, cli, core, synth, preprocess, model, conformal, evaluation]


class SelfTime(unittest.TestCase):
    def test_nested_spans_of_one_module(self):
        spans = [
            Span(0, None, 0, "cli.main", 0.0, 10.0),
            Span(1, 0, 0, "cli.cmd_pipeline", 1.0, 9.0),
            Span(2, 1, 0, "core.save_dataset", 2.0, 5.0),
            Span(3, 2, 0, "core.atomic_write_text", 4.0, 5.0),
            Span(4, 1, 0, "model.train", 6.0, 8.0, failed=True),
        ]
        stats = span_stats(spans)
        expected = {
            "cli.main": (10.0, 2.0),
            "cli.cmd_pipeline": (8.0, 3.0),
            "core.save_dataset": (3.0, 2.0),
            "core.atomic_write_text": (1.0, 1.0),
            "model.train": (2.0, 2.0),
        }
        for name, (busy, self_s) in expected.items():
            self.assertEqual(stats[(0, name)]["busy_s"], busy, name)
            self.assertEqual(stats[(0, name)]["self_s"], self_s, name)
        self.assertEqual(stats[(0, "model.train")]["failed"], 1)
        self.assertEqual(stats[(0, "cli.main")]["failed"], 0)

    def test_recursion_is_busy_once(self):
        spans = [Span(0, None, 0, "a.f", 0.0, 4.0), Span(1, 0, 0, "a.f", 1.0, 3.0)]
        st = span_stats(spans)[(0, "a.f")]
        self.assertEqual((st["calls"], st["busy_s"], st["self_s"]), (2, 4.0, 4.0))

    def test_runs_are_kept_apart(self):
        spans = [Span(0, None, 0, "a.f", 0.0, 1.0), Span(1, None, 1, "a.f", 5.0, 8.0)]
        stats = span_stats(spans)
        self.assertEqual(stats[(0, "a.f")]["busy_s"], 1.0)
        self.assertEqual(stats[(1, "a.f")]["busy_s"], 3.0)


class TailPercentile(unittest.TestCase):
    def test_p95_of_200_has_ten_beyond(self):
        value, beyond = tail_percentile(range(1, 201), 95)
        self.assertEqual((value, beyond), (190, 10))

    def test_fewer_than_ten_beyond_is_refused(self):
        with self.assertRaises(ValueError):
            tail_percentile(range(1, 200), 95)

    def test_ties_do_not_count_as_beyond(self):
        self.assertEqual(tail_percentile([1.0] * 290 + [2.0] * 10, 95), (1.0, 10))
        with self.assertRaises(ValueError):
            tail_percentile([1.0] * 295 + [2.0] * 5, 95)


class Wrapping(unittest.TestCase):
    def originals(self) -> dict:
        return {(m.__name__, name): fn for m in MODULES for name, fn in public_functions(m)}

    def test_originals_restored_after_traced_run(self):
        before = self.originals()
        mdl = model.init_params(seed=0)
        tracer = Tracer(MODULES)
        with tracer:
            # one wrapper per function, installed in every namespace holding it
            self.assertIsNot(model.forward, before[("pmdiag.model", "forward")])
            self.assertIs(conformal.forward, model.forward)
            self.assertIs(evaluation.forward, model.forward)
            conformal.forward(mdl, np.zeros(128))
        self.assertEqual(self.originals(), before)
        self.assertIs(conformal.forward, model.forward)
        self.assertEqual([s.name for s in tracer.spans], ["model.forward"])
        self.assertEqual(tracer.counts[(0, "model.forward", "rows")], 1)

    def test_failed_call_is_recorded_and_restored(self):
        before = self.originals()
        mdl = model.init_params(seed=0)
        tracer = Tracer(MODULES)
        with self.assertRaises(model.DimensionMismatchError):
            with tracer:
                model.forward(mdl, np.zeros(3))
        self.assertEqual(self.originals(), before)
        self.assertEqual([(s.name, s.failed) for s in tracer.spans], [("model.forward", True)])


class PerLayerMetrics(unittest.TestCase):
    def test_every_declared_metric_has_a_rule(self):
        bench = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
        names = [m["name"] for m in bench["per_layer"]]
        tracer = Tracer([])
        tracer.spans += [
            Span(0, None, 0, "model.train", 0.0, 2.0),
            Span(1, None, 0, "model.forward", 2.0, 3.0),
        ]
        tracer.counts[(0, "model.train", "samples")] = 1000
        tracer.counts[(0, "model.forward", "rows")] = 559
        extra = dict.fromkeys([*ESTIMATE, "trace.overhead_s", "conformal.mean_set_size"], 0.0)
        values = layer_metrics(names, tracer, span_stats(tracer.spans), 223, extra)
        self.assertEqual(list(values), names)
        self.assertEqual(values["model.train.samples_per_s"], 500.0)
        self.assertEqual(values["model.forward.passes_per_test_row"], 559 / 223)
        self.assertEqual(values["core.load_dataset.busy_s"], 0)

    def test_median_over_traced_calls(self):
        tracer = Tracer([])
        tracer.spans += [Span(run, None, run, "cli.main", 0.0, float(run)) for run in (1, 2, 9)]
        values = layer_metrics(["cli.main.busy_s"], tracer, span_stats(tracer.spans), 1, {})
        self.assertEqual(values["cli.main.busy_s"], 2.0)


class EndToEnd(unittest.TestCase):
    RESULT = {
        "call_s": [1.0, 1.0, 4.0],
        "ref_s": [0.1, 0.1, 0.1, 0.1, 0.1, 0.4],
        "setup_s": [0.2, 0.3, 0.9],
        "peak_rss_mb": 100.0,
        "quality": {"accuracy": 0.5, "accuracy_rows": 10},
    }

    def test_every_declared_metric_has_a_value(self):
        bench = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
        self.assertEqual(sorted(end_to_end(self.RESULT)), sorted(m["name"] for m in bench["end_to_end"]))

    def test_call_per_ref_divides_means(self):
        values = end_to_end(self.RESULT)
        # a median would give 1.0 / 0.1: the slow call and reference would not count
        self.assertAlmostEqual(values["call_per_ref"][0], 2.0 / 0.15)
        self.assertEqual(values["call_per_ref"][1], 3)
        self.assertEqual(values["setup_s"], (0.3, 3))


if __name__ == "__main__":
    unittest.main()
