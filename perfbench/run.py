"""Benchmark of alexpoly: one workload per process, every answer checked.

    python3 perfbench/run.py --workload pencil-det --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  The run sets up ``SETUP_REPEATS`` times (fresh import, input
generation from the seed, warm-up) and keeps the last set-up.  It then runs
passes, single-threaded, each over one round of the workload's fixed
operation mix, until ``--seconds`` of wall time have gone, and checks every
answer.  Between ops it times a fixed reference task; an op's latency is
the median of its repeats, each divided by the reference time around it
and reported for a core where that task takes ``NOMINAL_REFERENCE_S``
(see ``Reference``).

With ``--trace 0`` it reports the end-to-end metrics.  With ``--trace 1`` it
alternates untraced and traced passes for the same time, then runs a small
probe that reaches every traced function, and reports the per-layer
metrics (see tracer.py).  Human-readable details come first; the last line
of stdout is one JSON object.  Each run also writes a result file, and the
traced run its spans, under ``--out`` (default perfbench/results).
"""
from __future__ import annotations

import argparse
import bisect
import contextlib
import gc
import hashlib
import importlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from array import array
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import workloads
from tracer import DET_BUCKETS, WINDOW_BUCKETS, Tracer

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
SETUP_REPEATS = 5
COLD_START_REPEATS = 7
REFERENCE_TERMS = 90
REFERENCE_INTERVAL_NS = 40_000_000
REFERENCE_NEAREST = 8  # samples on each side of an op, and of a set-up
NOMINAL_REFERENCE_S = 1e-3  # times are reported on a core where the reference task takes 1 ms
MODULES = ("laurent", "seifert", "balance", "invariants", "skein", "documents", "cli", "corpus")
LAYERS = MODULES + ("bench",)
CLI_COMMANDS = ("alex", "norm", "skein", "alink", "twinkle", "arf", "balanced-eq", "canon",
                "find-reps", "corpus")

# per-layer metric -> (span name, unit) for per-call medians
PER_CALL = {
    **{f"seifert.det_ms.n{n}": (f"seifert.det.n{n}", "ms") for n in DET_BUCKETS},
    "seifert.alexander_matrix_us": ("seifert.alexander_matrix", "us"),
    "seifert.normalized_matrix_us": ("seifert.normalized_matrix", "us"),
    "laurent.mul_us": ("laurent.mul", "us"),
    "laurent.exact_div_us": ("laurent.exact_div", "us"),
    "laurent.add_us": ("laurent.add", "us"),
    "laurent.parse_us": ("laurent.parse", "us"),
    "laurent.str_us": ("laurent.str", "us"),
    "balance.canonicalize_us": ("balance.canonicalize", "us"),
    "balance.z_balanced_eq_us": ("balance.z_balanced_eq", "us"),
    "balance.q_balanced_eq_us": ("balance.q_balanced_eq", "us"),
    "invariants.report_ms": ("invariants.report", "ms"),
    "invariants.normalized_alexander_ms": ("invariants.normalized_alexander", "ms"),
    "invariants.pseudo_alinking_us": ("invariants.pseudo_alinking", "us"),
    "invariants.order_at_one_us": ("invariants.order_at_one", "us"),
    **{f"skein.find_representatives_ms.w{w}": (f"skein.find_representatives.w{w}", "ms")
       for w in WINDOW_BUCKETS},
    "skein.check_pass_move_us": ("skein.check_pass_move", "us"),
    "skein.check_twist_move_us": ("skein.check_twist_move", "us"),
    "documents.parse_document_us": ("documents.parse_document", "us"),
    **{f"cli.main_ms.{c}": (f"cli.main.{c}", "ms") for c in CLI_COMMANDS},
    "corpus.run_corpus_ms": ("corpus.run_corpus", "ms"),
}
COUNTS = ("seifert.det_calls", "laurent.mul_term_pairs", "skein.candidate_space",
          "skein.search_calls")
SCALE = {"ms": 1e-6, "us": 1e-3}


# -- set-up ------------------------------------------------------------------------


def fresh_import() -> SimpleNamespace:
    """Import alexpoly from src/ anew, dropping any copy already loaded."""
    for name in [n for n in sys.modules if n == "alexpoly" or n.startswith("alexpoly.")]:
        del sys.modules[name]
    pkg = importlib.import_module("alexpoly")
    if not Path(pkg.__file__).resolve().is_relative_to(ROOT / "src"):
        raise ImportError(f"alexpoly was imported from {pkg.__file__}, not from {ROOT / 'src'}")
    return SimpleNamespace(**{m: importlib.import_module(f"alexpoly.{m}") for m in MODULES})


def set_up(workload, seed: int, workdir: Path):
    """Import, generate every round's inputs and warm up; returns (api, rounds)."""
    api = fresh_import()
    rng = random.Random(f"{workload.name}:{seed}")
    rounds = [workload.build(api, rng, workdir / str(r)) for r in range(workload.rounds)]
    smallest = {}
    for op in rounds[0]:
        if op.warm_up and (op.kind not in smallest or op.size < smallest[op.kind].size):
            smallest[op.kind] = op
    for op in smallest.values():
        op.call()
    return api, rounds


# -- measuring ---------------------------------------------------------------------


class Reference:
    """A fixed piece of pure-Python work, timed between ops at most every
    ``REFERENCE_INTERVAL_NS``.

    On a shared machine a neighbour on the same core slows everything this
    process runs, by 40-90%, for seconds to minutes at a time, so whole runs
    can fall in a slow stretch.  The reference task (a dict convolution of
    two fixed polynomials, the benchmark's own arithmetic) slows by about
    the same factor as the library's Laurent arithmetic, so an op's wall
    time divided by the median reference time around it varies far less
    from run to run than the wall time does.  The task never calls the
    library, so a change to the library moves only the numerator.  The
    full-window search of reps-search slows less than the task; there the
    quotient still moves by a few percent between quiet and slow stretches.
    """

    def __init__(self):
        rng = random.Random("reference")
        self.f = workloads.random_poly(rng, REFERENCE_TERMS, sparse=False, half=False)
        self.g = workloads.random_poly(rng, REFERENCE_TERMS, sparse=False, half=False)
        self.starts: list[int] = []
        self.times: list[int] = []
        self.due = 0

    def sample(self) -> int:
        """Time the task once; returns its time in ns."""
        start = time.perf_counter_ns()
        workloads.pmul(self.f, self.g)
        end = time.perf_counter_ns()
        self.starts.append(start)
        self.times.append(end - start)
        self.due = end + REFERENCE_INTERVAL_NS
        return end - start

    def sample_if_due(self) -> None:
        if time.perf_counter_ns() >= self.due:
            self.sample()

    def around(self, t: int) -> float:
        """Median reference time (ns) of the samples nearest to time t."""
        i = bisect.bisect_left(self.starts, t)
        near = self.times[max(0, i - REFERENCE_NEAREST):i + REFERENCE_NEAREST]
        return statistics.median(near)


class Runner:
    """Runs passes over one op list and keeps what the checks need.

    The first pass keeps every answer; later passes must give equal answers.
    ``check()`` then verifies the kept answers and counts every execution of
    an op that raised, differed from its first answer or was wrong.
    """

    def __init__(self, ops):
        self.ops = ops
        self.answers = [None] * len(ops)
        self.raised = [False] * len(ops)
        self.executions = [0] * len(ops)
        self.mismatches = 0
        self.errors: list[str] = []

    def run_pass(self, tracer: Tracer | None = None, id_base: int = 0,
                 reference: Reference | None = None) -> tuple[array, array]:
        """One pass; returns the start and the latency of each op in ns.

        Arrays keep a pass's timings small, so the peak memory of the run
        hardly depends on how many passes it makes.
        """
        first = self.executions[0] == 0
        starts, latencies = array("q"), array("q")
        clock = time.perf_counter_ns
        for i, op in enumerate(self.ops):
            if reference is not None:
                reference.sample_if_due()
            raised = False
            start = clock()
            try:
                result = op.call() if tracer is None else tracer.run_op(id_base + i, op.kind, op.call)
            except Exception as exc:  # a failing op is counted, the run goes on
                result, raised = exc, True
            latencies.append(clock() - start)
            starts.append(start)
            self.executions[i] += 1
            if raised and len(self.errors) < 10:
                self.errors.append(f"{op.kind} (size {op.size}): {type(result).__name__}: {result}")
            if first:
                self.answers[i], self.raised[i] = result, raised
            elif raised or self.raised[i] or not _equal(result, self.answers[i]):
                self.mismatches += 1
        if first:
            # Inputs and kept answers live for the whole run; frozen, they stay
            # out of the collections the library's own allocations trigger.
            gc.freeze()
        return starts, latencies

    def check(self) -> tuple[int, int]:
        """(attempted, failed) over every execution so far."""
        failed = self.mismatches
        for i, op in enumerate(self.ops):
            if not self.executions[i]:
                continue
            ok, why = False, "raised"
            if not self.raised[i]:
                try:
                    ok, why = bool(op.check(self.answers[i])), "wrong answer"
                except Exception as exc:  # a malformed answer can break its check
                    why = f"check raised {type(exc).__name__}: {exc}"
            if not ok:
                failed += self.executions[i]
                if len(self.errors) < 10:
                    self.errors.append(f"{op.kind} (size {op.size}): {why}")
        return sum(self.executions), failed


def _equal(a, b) -> bool:
    try:
        return bool(a == b)
    except Exception:  # answers of unrelated types count as different
        return False


def run_for(seconds: float, one_pass) -> None:
    """Call one_pass() until ``seconds`` of wall time have gone (at least once)."""
    deadline = time.perf_counter() + seconds
    one_pass()
    while time.perf_counter() < deadline:
        one_pass()


def tail(latencies: list[int]) -> tuple[int, float, int]:
    """Latency at the highest percentile with at least ten samples beyond it:
    (value, percentile, sample count)."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def measure(runners: list[Runner], seconds: float, setup_times: list[float], out: dict) -> dict:
    """Passes cycle through the rounds, timing each op and, between ops, the
    reference task.

    An op's latency is the median over its repeats, which are spread over
    the whole run, of its wall time divided by the reference time around it
    (see ``Reference``), in seconds on a core where the reference task takes
    ``NOMINAL_REFERENCE_S``.  The latency metrics are taken over the distinct
    ops; the same figures in wall-clock time go to the details.
    """
    passes: list[tuple[Runner, tuple[array, array]]] = []
    reference = Reference()

    def one_pass():
        runner = runners[len(passes) % len(runners)]
        passes.append((runner, runner.run_pass(reference=reference)))

    run_for(seconds, one_pass)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # before the analysis
    wall: dict[tuple[int, int], list[int]] = {}
    scaled: dict[tuple[int, int], list[float]] = {}
    for runner, (starts, times) in passes:
        for i, (start, ns) in enumerate(zip(starts, times)):
            wall.setdefault((id(runner), i), []).append(ns)
            scaled.setdefault((id(runner), i), []).append(
                ns / reference.around(start + ns // 2) * NOMINAL_REFERENCE_S)
    latencies = [statistics.median(v) for v in scaled.values()]
    wall_latencies = [statistics.median(v) for v in wall.values()]
    value, pct, count = tail(latencies)
    out["tail"] = {"percentile": pct, "distinct_ops": count}
    out["passes"] = len(passes)
    out["repeats_per_op"] = len(passes) / len(runners)
    out["reference"] = {"samples": len(reference.times),
                        "median_ms": statistics.median(reference.times) * 1e-6}
    out["wall"] = {
        "ops_per_s": len(wall_latencies) / (sum(wall_latencies) * 1e-9),
        "op_p50_ms": statistics.median(wall_latencies) * 1e-6,
        "op_tail_ms": tail(wall_latencies)[0] * 1e-6,
    }
    out["per_kind_p50_ms"] = per_kind_p50(passes)
    return {
        "ops_per_s": metric(len(latencies) / sum(latencies), "1/s"),
        "op_p50_ms": metric(statistics.median(latencies) * 1e3, "ms"),
        "op_tail_ms": metric(value * 1e3, "ms"),
        "peak_rss_mb": metric(peak_rss_mb, "MB"),
        "setup_s": metric(statistics.median(setup_times), "s"),
    }


def per_kind_p50(passes) -> dict:
    by_kind: dict[str, list[int]] = {}
    for runner, (_, times) in passes:
        for op, ns in zip(runner.ops, times):
            by_kind.setdefault(f"{op.kind}@{op.size}", []).append(ns)
    return {k: round(statistics.median(v) * 1e-6, 4) for k, v in sorted(by_kind.items())}


# -- traced run --------------------------------------------------------------------


def cold_start(out: dict) -> tuple[float, int, int]:
    """Median wall time of `python -m alexpoly corpus` minus a bare interpreter,
    one subprocess at a time; returns (ms, attempted, failed)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(ROOT / "src"), env.get("PYTHONPATH"))))
    runs = {"corpus": [], "bare": []}
    argv = {"corpus": [sys.executable, "-m", "alexpoly", "corpus"],
            "bare": [sys.executable, "-c", "pass"]}
    failed = 0
    for _ in range(COLD_START_REPEATS):
        for which in ("corpus", "bare"):
            start = time.perf_counter()
            try:
                proc = subprocess.run(argv[which], cwd=ROOT, env=env, capture_output=True,
                                      text=True, timeout=60)
            except subprocess.TimeoutExpired:
                failed += which == "corpus"
                continue
            runs[which].append(time.perf_counter() - start)
            lines = proc.stdout.splitlines()
            if which == "corpus" and (proc.returncode != 0 or not lines
                                      or not all(x.endswith(": pass") for x in lines)):
                failed += 1
    out["cold_start"] = {k: [round(x * 1e3, 2) for x in v] for k, v in runs.items()}
    if not runs["corpus"] or not runs["bare"]:
        return float("nan"), COLD_START_REPEATS, failed
    ms = (statistics.median(runs["corpus"]) - statistics.median(runs["bare"])) * 1e3
    return ms, COLD_START_REPEATS, failed


def measure_traced(api, runners: list[Runner], probe: Runner, seconds: float, out: dict):
    """Untraced and traced passes over the same round alternate; then the probe.

    Returns the metrics, the tracer and the (attempted, failed) count of the
    cold-start runs.
    """
    tracer = Tracer()
    plain, traced = [], []
    kinds: Counter = Counter()
    pass_counts: dict = {}

    def one_pair():
        runner = runners[len(traced) % len(runners)]
        plain.append(sum(runner.run_pass()[1]))
        tracer.install(api)
        try:
            traced.append(sum(runner.run_pass(tracer, id_base=tracer.op_id + 1)[1]))
        finally:
            tracer.uninstall()
        kinds.update(op.kind for op in runner.ops)
        if not pass_counts:
            pass_counts.update(tracer.counts)

    run_for(seconds, one_pair)
    self_ns, incl_ns, op_ns = dict(tracer.self_ns), dict(tracer.incl_ns), sum(traced)
    tracer.install(api)
    try:
        probe.run_pass(tracer, id_base=tracer.op_id + 1)
    finally:
        tracer.uninstall()

    metrics = {}
    for name, (span, unit) in PER_CALL.items():
        samples = tracer.durations.get(span)
        metrics[name] = metric(statistics.median(samples) * SCALE[unit] if samples else 0.0, unit)
    for name in COUNTS:
        metrics[name] = metric(pass_counts.get(name, 0), "count")
    searches = pass_counts.get("skein.search_calls", 0)
    metrics["skein.witness_found_ratio"] = metric(
        pass_counts.get("skein.witness_found", 0) / searches if searches else 0.0, "ratio")
    for layer in LAYERS:
        share = sum(v for (_, lay), v in self_ns.items() if lay == layer) / op_ns
        metrics[f"self_share.{layer}"] = metric(share, "ratio")
    for group in ("seifert.det", "skein.find_representatives"):
        share = sum(v for (_, g), v in incl_ns.items() if g == group) / op_ns
        metrics[f"incl_share.{group}"] = metric(share, "ratio")
    metrics["trace_overhead"] = metric(
        statistics.median(t / p for t, p in zip(traced, plain)), "ratio")
    cold_ms, cold_attempted, cold_failed = cold_start(out)
    metrics["cli.cold_start_ms"] = metric(cold_ms, "ms")

    out["pairs"] = len(traced)
    out["witness_found_base"] = searches
    out["counts_per_pass"] = dict(sorted(pass_counts.items()))
    out["decomposition"] = decomposition(self_ns, kinds)
    out["spans_kept"], out["spans_dropped"] = len(tracer.spans), tracer.dropped
    return metrics, tracer, (cold_attempted, cold_failed)


def decomposition(self_ns: dict, kinds: Counter) -> dict:
    """Per op kind: mean ms per op and the share of it each layer spent as self time."""
    per_kind: dict[str, dict[str, int]] = {}
    for (kind, layer), ns in self_ns.items():
        per_kind.setdefault(kind, {})[layer] = ns
    result = {}
    for kind, layers in sorted(per_kind.items()):
        total = sum(layers.values())
        result[kind] = {
            "ms_per_op": round(total * 1e-6 / kinds[kind], 4),
            "self_share": {k: round(v / total, 4) for k, v in
                           sorted(layers.items(), key=lambda kv: -kv[1])},
        }
    return result


# -- reporting ---------------------------------------------------------------------


def provenance() -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "commit": git_commit(),
        "src_sha256": digest.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "platform": platform.platform(),
    }


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=BENCH_DIR / "results",
                        help="directory for the result file and the spans")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "alexpoly" / "__init__.py").is_file():
        print(f"error: no alexpoly package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    workload = workloads.WORKLOADS[args.workload]
    workdir = BENCH_DIR / ".work" / f"{args.workload}-{os.getpid()}"
    details: dict = {}
    try:
        # Each set-up is scaled by the reference time just before and after
        # it, as ops are (see Reference), to the seconds it would take on a
        # core where the reference task takes NOMINAL_REFERENCE_S.
        reference = Reference()
        setup_wall, setup_times = [], []
        for _ in range(SETUP_REPEATS):
            gc.collect()  # every set-up starts from the same heap
            around = [reference.sample() for _ in range(REFERENCE_NEAREST)]
            start = time.perf_counter_ns()
            api, rounds = set_up(workload, args.seed, workdir)
            ns = time.perf_counter_ns() - start
            around += [reference.sample() for _ in range(REFERENCE_NEAREST)]
            setup_wall.append(ns * 1e-9)
            setup_times.append(ns / statistics.median(around) * NOMINAL_REFERENCE_S)
        details["setup_s"] = [round(x, 4) for x in setup_times]
        details["setup_wall_s"] = [round(x, 4) for x in setup_wall]
        runners = [Runner(ops) for ops in rounds]
        gc.collect()  # the earlier set-ups' modules and inputs
        if args.trace:
            probe = Runner(workloads.build_probe(api, random.Random(f"probe:{args.seed}"),
                                                 workdir / "probe"))
            metrics, tracer, cold = measure_traced(api, runners, probe, args.seconds, details)
            runners.append(probe)
        else:
            metrics = measure(runners, args.seconds, setup_times, details)
            cold = (0, 0)
        checked = [r.check() for r in runners] + [cold]
        attempted, failed = sum(a for a, _ in checked), sum(f for _, f in checked)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # other runs may still use it
            workdir.parent.rmdir()
    details["errors"] = [e for r in runners for e in r.errors][:10]

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "why": workload.why, **provenance(), "details": details,
        "result": result,
    }
    args.out.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (args.out / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    if args.trace:
        tracer.write_spans(args.out / f"{stem}.spans.jsonl")

    for key in ("passes", "repeats_per_op", "reference", "wall", "pairs", "tail", "setup_s",
                "setup_wall_s", "per_kind_p50_ms", "counts_per_pass", "witness_found_base",
                "decomposition", "cold_start", "errors"):
        if key in details:
            print(f"{key}: {json.dumps(details[key])}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
