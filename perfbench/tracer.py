"""Spans around alexpoly's public functions, installed from outside the package.

``Tracer.install`` rebinds each traced function wherever one of the
package's modules holds it, and the traced ``LaurentPoly`` methods on the class, to a
wrapper that records one span per call: its name, start, end, the span that
caused it and the top-level operation it belongs to.  ``uninstall`` puts the
originals back, so untraced passes run the unmodified code.

Per span name the tracer keeps up to ``SAMPLE_CAP`` durations.  Per (operation kind, layer) it keeps self time: a span's
duration minus the part its child spans cover.  The layer is the span name
up to the first dot.  Raw spans are kept up to ``SPAN_CAP`` and written out
as JSON lines when the run ends.
"""
from __future__ import annotations

import json
import time
from collections import Counter, defaultdict
from pathlib import Path

SAMPLE_CAP = 50_000
SPAN_CAP = 100_000

DET_BUCKETS = (2, 4, 8, 12, 16, 20)
WINDOW_BUCKETS = (3, 5, 7, 9, 11)


def bucket(value: int, edges: tuple[int, ...]) -> int:
    """Smallest edge >= value; values past the last edge share the last bucket."""
    return next((e for e in edges if value <= e), edges[-1])


def _count_mul(counts, args, result):
    a, b = args
    counts["laurent.mul_term_pairs"] += len(a.terms) * (len(b.terms) if hasattr(b, "terms") else 1)


def _count_det(counts, args, result):
    counts["seifert.det_calls"] += 1


# (module, function, span name or None for "<module>.<function>")
FUNCTIONS = (
    ("seifert", "det", None),
    ("seifert", "alexander_matrix", None),
    ("seifert", "normalized_matrix", None),
    ("balance", "canonicalize", None),
    ("balance", "z_balanced_eq", None),
    ("balance", "q_balanced_eq", None),
    ("invariants", "report", None),
    ("invariants", "z_alexander", None),
    ("invariants", "q_alexander", None),
    ("invariants", "normalized_alexander", None),
    ("invariants", "pseudo_alinking_from_poly", "invariants.pseudo_alinking"),
    ("invariants", "first_order_at_one", "invariants.order_at_one"),
    ("invariants", "second_order_at_one", "invariants.order_at_one"),
    ("invariants", "pseudo_alinking_from_pair", None),
    ("invariants", "pseudo_twinkling_from_pair", None),
    ("invariants", "arf", None),
    ("skein", "check_pass_move", None),
    ("skein", "check_twist_move", None),
    ("skein", "find_representatives", None),
    ("skein", "search_window", None),
    ("documents", "parse_document", None),
    ("documents", "load_document", None),
    ("cli", "main", None),
    ("corpus", "run_corpus", None),
)

# LaurentPoly attribute -> span name
METHODS = (
    ("__mul__", "laurent.mul"),
    ("__rmul__", "laurent.mul"),
    ("__add__", "laurent.add"),
    ("__radd__", "laurent.add"),
    ("__sub__", "laurent.sub"),
    ("__rsub__", "laurent.sub"),
    ("__neg__", "laurent.neg"),
    ("shift", "laurent.shift"),
    ("exact_div", "laurent.exact_div"),
    ("parse", "laurent.parse"),
    ("__str__", "laurent.str"),
)


class Tracer:
    def __init__(self):
        self.durations: defaultdict[str, list[int]] = defaultdict(list)
        self.self_ns: Counter = Counter()  # (op kind, layer) -> ns
        self.incl_ns: Counter = Counter()  # (op kind, group) -> ns
        self.counts: Counter = Counter()
        self.spans: list[tuple] = []
        self.dropped = 0
        self.op_id = -1
        self.op_kind = ""
        self._stack: list[list[int]] = []  # open spans: [child ns, span id]
        self._next_id = 0
        self._saved: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------------

    def call(self, name: str, group: str, fn, args=(), kwargs=None):
        """Run fn(*args, **kwargs) inside one span."""
        stack = self._stack
        parent = stack[-1][1] if stack else -1
        frame = [0, self._next_id]
        self._next_id += 1
        stack.append(frame)
        start = time.perf_counter_ns()
        try:
            return fn(*args, **(kwargs or {}))
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            dur = end - start
            if stack:
                stack[-1][0] += dur
            samples = self.durations[name]
            if len(samples) < SAMPLE_CAP:
                samples.append(dur)
            self.self_ns[self.op_kind, name.partition(".")[0]] += dur - frame[0]
            self.incl_ns[self.op_kind, group] += dur
            if len(self.spans) < SPAN_CAP:
                self.spans.append((frame[1], parent, self.op_id, name, start, end))
            else:
                self.dropped += 1

    def run_op(self, op_id: int, kind: str, fn):
        """Run one top-level operation as the root span of its own tree."""
        self.op_id, self.op_kind = op_id, kind
        return self.call("bench.op", "bench.op", fn)

    def _wrap(self, fn, name_of, group: str, count=None):
        tracer = self

        def wrapper(*args, **kwargs):
            name = name_of if isinstance(name_of, str) else name_of(*args, **kwargs)
            result = tracer.call(name, group, fn, args, kwargs)
            if count is not None:
                count(tracer.counts, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installing -----------------------------------------------------------

    def install(self, api) -> None:
        """Wrap every traced function and method of the modules in ``api``."""
        modules = list(vars(api).values())
        search_window = api.skein.search_window

        def det_name(m):
            return f"seifert.det.n{bucket(m.shape[0], DET_BUCKETS)}"

        def reps_name(cp, cm, c0):
            return f"skein.find_representatives.w{bucket(search_window(cp, cm, c0), WINDOW_BUCKETS)}"

        def count_reps(counts, args, result):
            counts["skein.search_calls"] += 1
            counts["skein.witness_found"] += bool(result.found)
            counts["skein.candidate_space"] += (4 * search_window(*args) + 2) ** 3

        def cli_name(argv=None):
            return f"cli.main.{argv[0]}"

        special = {
            ("seifert", "det"): (det_name, _count_det),
            ("skein", "find_representatives"): (reps_name, count_reps),
            ("cli", "main"): (cli_name, None),
        }
        for mod_name, attr, span in FUNCTIONS:
            orig = getattr(getattr(api, mod_name), attr, None)
            if orig is None:
                continue
            group = span or f"{mod_name}.{attr}"
            name_of, count = special.get((mod_name, attr), (group, None))
            wrapper = self._wrap(orig, name_of, group, count)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._saved.append((mod, key, value))
                        setattr(mod, key, wrapper)

        cls = api.laurent.LaurentPoly
        for attr, span in METHODS:
            orig = cls.__dict__.get(attr)
            if orig is None:
                continue
            if isinstance(orig, classmethod):
                wrapper = classmethod(self._wrap(orig.__func__, span, span))
            else:
                wrapper = self._wrap(orig, span, span, _count_mul if span == "laurent.mul" else None)
            self._saved.append((cls, attr, orig))
            setattr(cls, attr, wrapper)

    def uninstall(self) -> None:
        while self._saved:
            obj, key, value = self._saved.pop()
            setattr(obj, key, value)

    # -- reading --------------------------------------------------------------

    def write_spans(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for span_id, parent, op_id, name, start, end in self.spans:
                out.write(json.dumps({"id": span_id, "parent": parent, "op": op_id,
                                      "name": name, "start_ns": start, "end_ns": end}) + "\n")
            if self.dropped:
                out.write(json.dumps({"dropped": self.dropped}) + "\n")
