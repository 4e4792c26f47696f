"""Self-tests of the benchmark harness.

    python3 -m unittest discover -s perfbench -t perfbench

They check that the generators are seeded, that the traced counts repeat,
and that the answer checks catch a wrong answer.
"""
from __future__ import annotations

import contextlib
import io
import json
import random
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

API = run.fresh_import()

# cheap subsets of each workload, small enough to run in a test
SMALL = {
    "pencil-det": lambda op: op.size <= 8,
    "reps-search": lambda op: op.size <= 5 and op.warm_up,
    "poly-classes": lambda op: op.size <= 40,
}


def build(name: str, seed: int, workdir: Path):
    workload = workloads.WORKLOADS[name]
    return workload.build(API, random.Random(f"{name}:{seed}"), workdir)


def fingerprint(ops) -> list:
    """Kinds, sizes and exact inputs of an op list (documents by content)."""
    def value(v):
        if isinstance(v, list):
            return [value(x) for x in v]
        if isinstance(v, str) and Path(v).is_file():
            return Path(v).read_text(encoding="utf-8")
        return repr(v)
    return [(op.kind, op.size, [value(d) for d in op.call.__defaults__ or ()]) for op in ops]


def flip(poly):
    """The polynomial with its lowest coefficient negated."""
    terms = dict(poly.terms)
    low = min(terms)
    terms[low] = -terms[low]
    return API.laurent.LaurentPoly(terms)


class GeneratorTest(unittest.TestCase):
    def test_same_seed_same_inputs_other_seed_other_inputs(self):
        with tempfile.TemporaryDirectory(dir=HERE) as tmp:
            tmp = Path(tmp)
            for name in workloads.WORKLOADS:
                with self.subTest(workload=name):
                    first = fingerprint(build(name, 7, tmp / "a"))
                    again = fingerprint(build(name, 7, tmp / "b"))
                    other = fingerprint(build(name, 8, tmp / "c"))
                    self.assertEqual(first, again)
                    self.assertNotEqual(first, other)
                    self.assertEqual(sorted(k for k, _, _ in first),
                                     sorted(k for k, _, _ in other))


class CountTest(unittest.TestCase):
    def traced_counts(self, name: str, seed: int, workdir: Path) -> dict:
        ops = [op for op in build(name, seed, workdir) if SMALL[name](op)]
        tracer = Tracer()
        tracer.install(API)
        try:
            run.Runner(ops).run_pass(tracer)
        finally:
            tracer.uninstall()
        return dict(tracer.counts)

    def test_counts_repeat_for_a_seed(self):
        expected_nonzero = {
            "pencil-det": ("seifert.det_calls", "laurent.mul_term_pairs"),
            "reps-search": ("skein.candidate_space", "skein.search_calls"),
            "poly-classes": ("laurent.mul_term_pairs",),
        }
        with tempfile.TemporaryDirectory(dir=HERE) as tmp:
            for name, keys in expected_nonzero.items():
                with self.subTest(workload=name):
                    first = self.traced_counts(name, 3, Path(tmp) / "a")
                    again = self.traced_counts(name, 3, Path(tmp) / "b")
                    self.assertEqual(first, again)
                    for key in keys:
                        self.assertGreater(first.get(key, 0), 0, key)

    def test_uninstall_restores_the_library(self):
        det, mul = API.seifert.det, API.laurent.LaurentPoly.__dict__["__mul__"]
        tracer = Tracer()
        tracer.install(API)
        self.assertIsNot(API.invariants.det, det)
        tracer.uninstall()
        self.assertIs(API.invariants.det, det)
        self.assertIs(API.seifert.det, det)
        self.assertIs(API.laurent.LaurentPoly.__dict__["__mul__"], mul)


class ReferenceTest(unittest.TestCase):
    def test_around_takes_the_median_of_the_nearest_samples(self):
        reference = run.Reference()
        reference.starts = list(range(100))
        reference.times = [1000] * 50 + [3000] * 50
        self.assertEqual(reference.around(10), 1000)
        self.assertEqual(reference.around(90), 3000)
        self.assertEqual(reference.around(50), 2000)

    def test_samples_at_most_once_per_interval(self):
        reference = run.Reference()
        reference.sample_if_due()
        reference.sample_if_due()
        self.assertEqual(len(reference.times), 1)
        reference.due = 0
        reference.sample_if_due()
        self.assertEqual(len(reference.times), 2)


class WrongAnswerTest(unittest.TestCase):
    def assert_caught(self, op, corrupt):
        """The op passes as is, and fails once its answer is corrupted."""
        runner = run.Runner([op])
        runner.run_pass()
        self.assertEqual(runner.check(), (1, 0))
        call = op.call
        op.call = lambda: corrupt(call())
        runner = run.Runner([op])
        runner.run_pass()
        runner.run_pass()
        self.assertEqual(runner.check(), (2, 2))

    def first(self, name: str, workdir: Path, kind: str):
        ops = build(name, 5, workdir)
        return min((op for op in ops if op.kind == kind), key=lambda op: op.size)

    def test_flipped_coefficient_is_a_failed_op(self):
        bal = API.balance
        with tempfile.TemporaryDirectory(dir=HERE) as tmp:
            tmp = Path(tmp)
            cases = [
                ("pencil-det", "normalized_alexander", flip),
                ("pencil-det", "z_alexander",
                 lambda c: bal.BalancedClass(flip(c.representative), c.ring)),
                ("poly-classes", "canonicalize_Q", flip),
                ("poly-classes", "first_order_at_one", lambda v: v + 1),
                ("poly-classes", "cli.canon", lambda r: (r[0], r[1].replace("1", "2", 1))),
                ("reps-search", "find_representatives.found",
                 lambda w: type(w)(True, ((-w.shifts[0][0], w.shifts[0][1]),) + w.shifts[1:])),
            ]
            for name, kind, corrupt in cases:
                with self.subTest(workload=name, kind=kind):
                    self.assert_caught(self.first(name, tmp, kind), corrupt)

    def test_later_pass_that_differs_is_a_failed_op(self):
        with tempfile.TemporaryDirectory(dir=HERE) as tmp:
            op = self.first("poly-classes", Path(tmp), "canonicalize_Z")
            runner = run.Runner([op])
            runner.run_pass()
            call = op.call
            op.call = lambda: flip(call())
            runner.run_pass()
            self.assertEqual(runner.check(), (2, 1))


class ContractTest(unittest.TestCase):
    """A short run prints exactly the metrics BENCHMARK.json names."""

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))

    def run_main(self, trace: int) -> dict:
        with tempfile.TemporaryDirectory(dir=HERE) as tmp:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = run.main(["--workload", "poly-classes", "--seed", "1", "--seconds", "0.1",
                                 "--trace", str(trace), "--out", tmp])
        self.assertEqual(code, 0)
        result = json.loads(out.getvalue().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        return result["metrics"]

    def assert_metrics(self, metrics: dict, key: str):
        want = {m["name"]: m["unit"] for m in self.spec[key]}
        self.assertEqual({k: v["unit"] for k, v in metrics.items()}, want)

    def test_untraced_run_prints_end_to_end_metrics(self):
        metrics = self.run_main(0)
        self.assert_metrics(metrics, "end_to_end")
        self.assertTrue(all(v["value"] > 0 for v in metrics.values()))

    def test_traced_run_prints_per_layer_metrics(self):
        self.assert_metrics(self.run_main(1), "per_layer")

    def test_workload_lines_match(self):
        self.assertEqual(self.spec["workloads"],
                         [{"name": w.name, "why": w.why} for w in workloads.WORKLOADS.values()])


if __name__ == "__main__":
    unittest.main()
