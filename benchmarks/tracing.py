"""In-memory spans around the package's layer boundaries, and the per-layer metrics.

Spans are recorded from outside the package: the functions that ``cli.main``
calls in the other modules (plus a few inner boundaries) are replaced by
timing wrappers for the duration of a traced pass, and restored afterwards.
The per-point index rebuild is too frequent for spans and only adds to an
aggregate timer.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import sys
from time import perf_counter

# Inner boundaries reached from the functions cli.main calls: set
# construction while parsing a document, and sphere sampling inside the
# frame check.
INNER = (("documents", "parse_document"), ("sphere", "sample_sphere"))
# Called once per checked point, so timed in aggregate rather than by spans.
TIMED = (("framecheck", "index_sign_arrays"),)

# Self time of these spans is charged to the metric.  ``cli._emit`` writes
# the document in the gen stage and a report in the check stages, so it is
# charged by stage (see _charged_metric).
SELF_TIME = {
    "framecheck.verify_moving_funtf": "framecheck.verify_s",
    "framecheck.witness_unbalanced": "framecheck.witness_s",
    "framecheck.witness_cross_term": "framecheck.witness_s",
    "balance.is_balanced": "balance.is_balanced_s",
    "balance.build_minimal_balanced": "balance.build_minimal_balanced_s",
    "operators.enumerate_full": "operators.enumerate_full_s",
    "operators.build_set": "operators.build_set_s",
    "documents.parse_document": "operators.build_set_s",
    "documents.read_document": "documents.read_s",
    "documents.document_dict": "documents.write_s",
    "sphere.sample_sphere": "sphere.sample_sphere_s",
    "cli.main": "cli.self_s",
}

STAGES = ("gen", "check_balance", "check_funtf")


class Tracer:
    """Spans of one traced pass: [name, start, end, parent, request, stage]."""

    def __init__(self, workload: str):
        self.workload = workload
        self.spans: list[list] = []
        self.calls: list[tuple[str, tuple, object]] = []
        self.timers: dict[str, float] = {}
        self._stack: list[int] = []
        self.request = 0
        self.stage = ""

    @contextlib.contextmanager
    def span(self, name: str):
        record = [name, perf_counter(), None,
                  self._stack[-1] if self._stack else None, self.request, self.stage]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            self.calls.append((name, args, result))
            return result
        return traced

    def timed(self, name: str, fn):
        @functools.wraps(fn)
        def timer(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.timers[name] = self.timers.get(name, 0.0) + perf_counter() - t0
        return timer

    def write(self, path) -> None:
        keys = ("name", "start", "end", "parent", "request", "stage")
        rows = [dict(zip(keys, s), workload=self.workload) for s in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"workload": self.workload, "spans": rows}, fh)


class NullTracer:
    """Stand-in for untraced passes: no spans, and functions stay unwrapped."""

    request = 0
    stage = ""
    _null = contextlib.nullcontext()

    def span(self, name: str):
        return self._null

    def wrap(self, name: str, fn):
        return fn


def _short(fn) -> str:
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


def boundaries():
    """(module, attribute, name, timed only) for each reference to replace.

    These are the names in ``cli`` bound to functions of other package
    modules, ``cli._emit``, and every package reference to the inner
    boundaries and to the functions timed in aggregate.
    """
    from movingframes import cli

    package = [m for name, m in list(sys.modules.items())
               if m is not None and (name == "movingframes" or name.startswith("movingframes."))]
    found = {}
    for attr, value in vars(cli).items():
        module = getattr(value, "__module__", None) or ""
        if (inspect.isfunction(value) and module.startswith("movingframes.")
                and module != "movingframes.cli"):
            found[(cli.__name__, attr)] = (cli, attr, _short(value), False)
    if hasattr(cli, "_emit"):
        found[(cli.__name__, "_emit")] = (cli, "_emit", "cli._emit", False)
    for targets, timed in ((INNER, False), (TIMED, True)):
        for module_name, attr in targets:
            fn = getattr(sys.modules.get(f"movingframes.{module_name}"), attr, None)
            for module in package:
                for name, value in list(vars(module).items()):
                    if fn is not None and value is fn:
                        found[(module.__name__, name)] = (module, name,
                                                          f"{module_name}.{attr}", timed)
    return list(found.values())


@contextlib.contextmanager
def patched(tracer: Tracer):
    """Replace every boundary reference by a tracing wrapper, then restore it."""
    saved = []
    wrappers = {}
    try:
        for module, attr, name, timed in boundaries():
            fn = getattr(module, attr)
            if id(fn) not in wrappers:
                wrappers[id(fn)] = (tracer.timed if timed else tracer.wrap)(name, fn)
            saved.append((module, attr, fn))
            setattr(module, attr, wrappers[id(fn)])
        yield
    finally:
        for module, attr, fn in reversed(saved):
            setattr(module, attr, fn)


def self_times(spans) -> list[float]:
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] is not None:
            own[s[3]] -= s[2] - s[1]
    return own


def _charged_metric(spans, span) -> str | None:
    """The metric a span's self time goes to: its own, else its nearest
    mapped ancestor's (boundary functions without a metric of their own,
    such as the pairing matrix inside gen-min, count for their caller)."""
    while span is not None:
        name, stage = span[0], span[5]
        if name == "cli._emit":
            return "documents.write_s" if stage == "gen" else "cli.self_s"
        if name in SELF_TIME:
            return SELF_TIME[name]
        span = None if span[3] is None else spans[span[3]]
    return None


def layer_metrics(tracer: Tracer, stage_seconds: dict[str, float],
                  document_bytes: int, output_bytes: int) -> dict[str, float]:
    """Per-layer metrics of one traced pass.

    ``stage_seconds`` is the traced pass's wall time per stage, summed over
    its decisions; the share of it that layer spans cover is reported per
    stage.
    """
    metrics = {name: 0.0 for name in set(SELF_TIME.values())}
    covered = dict.fromkeys(STAGES, 0.0)
    for span, own in zip(tracer.spans, self_times(tracer.spans)):
        metric = _charged_metric(tracer.spans, span)
        if metric is not None:
            metrics[metric] += own
            if metric != "cli.self_s":
                covered[span[5]] += own

    points = flops = nbytes = 0
    calls = records = failures = visits = 0
    for name, args, result in tracer.calls:
        if name == "framecheck.verify_moving_funtf":
            a_set, pts = args[0], result.points_checked
            m, d = len(a_set), a_set.dim
            points += pts
            flops += 2 * pts * (m + 1) * d * d
            nbytes += 8 * pts * ((m + 1) * d + d * d)
        elif name == "balance.is_balanced":
            calls += 1
            visits += len(args[0]) * args[0].dim * (args[0].dim - 1) // 2
            failures += len(result.condition_i_failures) + len(result.condition_ii_failures)
        elif name in ("documents.read_document", "documents.document_dict"):
            records += len(result) if name == "documents.read_document" else len(args[0])

    metrics.update({
        "framecheck.points_checked": points,
        "framecheck.index_arrays_share":
            tracer.timers.get("framecheck.index_sign_arrays", 0.0) / metrics["framecheck.verify_s"]
            if metrics["framecheck.verify_s"] else 0.0,
        "framecheck.flops_computed": flops,
        "framecheck.bytes_computed": nbytes,
        "balance.is_balanced_calls": calls,
        "balance.slice_visits": visits,
        "balance.failures_reported": failures,
        "documents.bytes": document_bytes,
        "documents.records": records,
        "cli.output_bytes": output_bytes,
    })
    for stage in STAGES:
        total = stage_seconds.get(stage, 0.0)
        metrics[f"trace.{stage}_covered"] = covered[stage] / total if total else 0.0
    return metrics
