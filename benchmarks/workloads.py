"""The workloads: a CLI pipeline on one large set, and a library sweep over small ones.

A decision takes one operator set from its raw description to both
verdicts, in three stages: ``gen`` (make the set), ``check_balance`` (exact
verdict) and ``check_funtf`` (numerical certificate, with the witness on
unbalanced sets).  The CLI workloads run the stages as ``movingframes``
commands; the sweep runs them as library calls.  Every stage output is
checked against a reference computed by ``inputs``.
"""

from __future__ import annotations

import contextlib
import io
import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import inputs
from tracing import STAGES

TOL = 1e-9
CALL_TIMEOUT_S = 150
# A run stops starting decisions after this long, so it ends within the
# 180 s a run may take.
RUN_LIMIT_S = 120

CLI_WORKLOADS = {
    # A few large operators in a high dimension, on the balanced path: the
    # per-point frame check and the per-operator balance loop dominate.
    "minimal-n10": {"gen": "gen-min", "n": 10, "smoke_n": 3, "drop": False},
    # Three times the operators at half the dimension, 1% of them dropped:
    # the unbalanced path, a large failure report and the witness.
    "full-minus-n5": {"gen": "gen-full", "n": 5, "smoke_n": 2, "drop": True},
}
# Thousands of small library calls, where per-call fixed costs dominate.
SWEEP = "sweep-small"
SWEEP_MIN_SETS = 1000
SMOKE_SETS = 20


class Outcome:
    """Operations attempted, the ones whose checks failed, and why."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def op(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += [f"{what}: {p}" for p in problems]


class SubprocessCli:
    """Runs ``movingframes`` commands as fresh interpreters, one at a time."""

    def __init__(self, root: Path, env: dict):
        self.root = root
        self.env = env

    def __call__(self, argv: list[str], out_path: Path):
        cmd = [sys.executable, "-m", "movingframes.cli", *argv]
        with open(out_path, "wb") as out:
            t0 = perf_counter()
            try:
                proc = subprocess.run(cmd, stdout=out, stderr=subprocess.PIPE, env=self.env,
                                      cwd=self.root, timeout=CALL_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                return perf_counter() - t0, None
            return perf_counter() - t0, proc.returncode


class InProcessCli:
    """Runs ``movingframes.cli.main`` in this process, inside a ``cli.main`` span."""

    def __init__(self, tracer):
        self.tracer = tracer

    def __call__(self, argv: list[str], out_path: Path):
        from movingframes import cli

        with open(out_path, "w", encoding="utf-8") as out, \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            t0 = perf_counter()
            with self.tracer.span("cli.main"):
                try:
                    code = cli.main(argv)
                except SystemExit as exc:
                    code = exc.code
            return perf_counter() - t0, code


class ImportTimer:
    """Wall times of fresh interpreters importing the package.

    One untimed import first leaves the byte-code cache warm.  Samples are
    taken in small batches spread over the run, so their median does not
    hang on the machine's speed during one second or two.
    """

    CMD = [sys.executable, "-c", "import movingframes"]

    def __init__(self, root: Path, env: dict, outcome: Outcome):
        self.root, self.env, self.outcome = root, env, outcome
        self.times: list[float] = []
        self._run()

    def _run(self):
        return subprocess.run(self.CMD, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              env=self.env, cwd=self.root, timeout=CALL_TIMEOUT_S)

    def sample(self, count: int = 1) -> None:
        for _ in range(count):
            t0 = perf_counter()
            proc = self._run()
            self.times.append(perf_counter() - t0)
            self.outcome.op("import", [] if proc.returncode == 0
                            else [f"exited {proc.returncode}: {proc.stderr.decode()[-200:]}"])


def _load(path: Path):
    try:
        return json.loads(path.read_text(encoding="utf-8")), []
    except (OSError, ValueError) as exc:
        return None, [f"unreadable output: {exc}"]


class Reference:
    """What one CLI workload's set must look like, for one seed."""

    def __init__(self, spec: dict, n: int, seed: int):
        self.spec, self.n, self.seed = spec, n, seed
        self.full = set(inputs.full_set(n)) if spec["drop"] else None

    def check_generated(self, doc) -> tuple[list[dict], list[str]]:
        """Check the generator's document; return the records to decide."""
        n = self.n
        records = doc.get("operators") if isinstance(doc, dict) else None
        if not records or doc.get("n") != n:
            return [], [f"document is not an operator set for n={n}"]
        if not inputs.valid_operators(*inputs.arrays(records)):
            return [], ["document holds an invalid or repeated operator"]
        if self.full is None:
            size = (2 * n - 1) * 2 ** (n - 1)
            return records, [] if len(records) == size else [f"{len(records)} operators, not {size}"]
        got = {(tuple(r["pairing"]), tuple(r["signs"])) for r in records}
        if len(records) != len(self.full) or got != self.full:
            return records, ["document is not the full set"]
        dropped = inputs.drop_indices(records, self.seed)
        return [r for i, r in enumerate(records) if i not in dropped], []


def check_balance_report(code, report, records, failures) -> list[str]:
    cond_i, cond_ii = failures
    balanced = not cond_i and not cond_ii
    problems = []
    if code != (0 if balanced else 1):
        problems.append(f"exit {code}, expected {0 if balanced else 1}")
    try:
        got_i = sorted((f["p"], f["q"], f["observed"], f["required"])
                       for f in report["condition_i_failures"])
        got_ii = sorted((f["p"], f["q"], f["r"], f["s"], f["count_plus"], f["count_minus"])
                        for f in report["condition_ii_failures"])
        if report["balanced"] is not balanced:
            problems.append(f"verdict balanced={report['balanced']}, expected {balanced}")
        if report["set_size"] != len(records):
            problems.append(f"set_size {report['set_size']}, expected {len(records)}")
        if got_i != cond_i or got_ii != cond_ii:
            problems.append("failing slices differ from the reference count")
    except (KeyError, TypeError) as exc:
        problems.append(f"malformed balance report: {exc!r}")
    return problems


def check_funtf_report(code, report, balanced: bool, k, s) -> tuple[list[str], float | None]:
    problems = []
    if code != (0 if balanced else 1):
        problems.append(f"exit {code}, expected {0 if balanced else 1}")
    try:
        deviation = max(report["max_offdiag"], report["max_diag_dev"])
        if report["tight"] is not balanced:
            problems.append(f"verdict tight={report['tight']}, but balanced={balanced}")
        if balanced and not deviation <= TOL:
            problems.append(f"worst deviation {deviation} exceeds tol {TOL}")
        if not balanced:
            witness = report["witness"]
            defect = Fraction(witness["defect"])
            entry = inputs.cross_term(k, s, witness["point"], witness["probe_pair"])
            if defect == 0 or abs(entry - float(defect)) > TOL:
                problems.append(f"witness defect {defect} but the entry is {entry}")
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        return problems + [f"malformed frame report: {exc!r}"], None
    return problems, deviation


class CliPipeline:
    """The three CLI stages on one workload's set, each call one checked operation.

    The first ``gen`` call that yields records fixes the document the checks
    read and the reference they are checked against.  Every stage may run
    again; each call is timed and checked on its own.
    """

    def __init__(self, ref: Reference, work: Path, run_cli, tracer, outcome: Outcome):
        self.ref, self.run_cli, self.tracer, self.outcome = ref, run_cli, tracer, outcome
        self.gen_path = work / "generated.json"
        self.doc_path = work / "dropped.json" if ref.spec["drop"] else self.gen_path
        self.balance_out = work / "balance.json"
        self.funtf_out = work / "funtf.json"
        self.gen_out = work / "gen.out"
        self.records = self.k = self.s = self.failures = None
        self.exits = {}
        self.deviations: list[float] = []

    @property
    def balanced(self) -> bool:
        return self.failures == ([], [])

    def gen(self) -> float:
        spec, n = self.ref.spec, self.ref.n
        self.tracer.stage = "gen"
        seconds, code = self.run_cli(
            [spec["gen"], str(n), "-o", str(self.gen_path), "--no-timestamp"], self.gen_out)
        doc, problems = _load(self.gen_path) if code == 0 else (None, [f"exit {code}, expected 0"])
        records = []
        if doc is not None:
            records, more = self.ref.check_generated(doc)
            problems += more
        self.outcome.op(spec["gen"], problems)
        if records and self.records is None:
            self.records = records
            if spec["drop"]:
                self.doc_path.write_text(json.dumps({"n": n, "operators": records}, indent=2)
                                         + "\n", encoding="utf-8")
            self.k, self.s = inputs.arrays(records)
            self.failures = inputs.balance_failures(self.k, self.s)
        return seconds

    def check_balance(self) -> float:
        self.tracer.stage = "check_balance"
        seconds, code = self.run_cli(["check-balance", str(self.doc_path)], self.balance_out)
        self.exits["check_balance_exit"] = code
        report, problems = _load(self.balance_out)
        if self.failures is None:
            problems.append("no reference: the generator failed")
        elif report is not None:
            problems += check_balance_report(code, report, self.records, self.failures)
        self.outcome.op("check-balance", problems)
        return seconds

    def check_funtf(self) -> float:
        self.tracer.stage = "check_funtf"
        seconds, code = self.run_cli(
            ["check-funtf", str(self.doc_path), "--seed", str(self.ref.seed), "--tol", repr(TOL)],
            self.funtf_out)
        self.exits["check_funtf_exit"] = code
        report, problems = _load(self.funtf_out)
        if self.failures is None:
            problems.append("no reference: the generator failed")
        elif report is not None:
            more, deviation = check_funtf_report(code, report, self.balanced, self.k, self.s)
            problems += more
            if deviation is not None:
                self.deviations.append(deviation)
        self.outcome.op("check-funtf", problems)
        return seconds

    def verdict(self) -> dict:
        failures = self.failures
        return {"balanced": self.balanced, **self.exits,
                "condition_i_failures": len(failures[0]) if failures else None,
                "condition_ii_failures": len(failures[1]) if failures else None}

    def document_bytes(self) -> int:
        if not (self.gen_path.exists() and self.doc_path.exists()):
            return 0
        return self.gen_path.stat().st_size + 2 * self.doc_path.stat().st_size

    def output_bytes(self) -> int:
        return sum(p.stat().st_size for p in (self.balance_out, self.funtf_out) if p.exists())


def cli_decision(ref: Reference, work: Path, run_cli, tracer, outcome: Outcome) -> dict:
    """One pass of gen -> check-balance -> check-funtf; returns what it measured."""
    pipeline = CliPipeline(ref, work, run_cli, tracer, outcome)
    seconds = {stage: getattr(pipeline, stage)() for stage in STAGES}
    return {
        "seconds": seconds,
        "deviation": max(pipeline.deviations, default=None),
        "verdict": pipeline.verdict(),
        "document_bytes": pipeline.document_bytes(),
        "output_bytes": pipeline.output_bytes(),
    }


def _build_set(dim: int, ops):
    from movingframes.operators import OperatorSet, make_operator

    return OperatorSet(dim, tuple(make_operator(dim, p, s) for p, s in ops))


def sweep(seed: int, min_sets: int, seconds: float, tracer, outcome: Outcome,
          every_100=None) -> dict:
    """Closed loop, one client: decide candidate sets until both ``min_sets``
    sets are decided and ``seconds`` have passed.  ``every_100`` is called,
    untimed, after every 100th set."""
    from movingframes import balance, framecheck

    calls = {"operators.build_set": _build_set,
             "balance.is_balanced": balance.is_balanced,
             "framecheck.verify_moving_funtf": framecheck.verify_moving_funtf,
             "framecheck.witness_unbalanced": framecheck.witness_unbalanced,
             "framecheck.witness_cross_term": framecheck.witness_cross_term}
    build, decide, verify, witness_of, cross_term = (
        tracer.wrap(name, fn) for name, fn in calls.items())

    source = inputs.SweepSource(seed)
    decisions = []
    counts = {"balanced": 0, "unbalanced": 0}
    worst = 0.0
    start = perf_counter()
    while len(decisions) < min_sets or perf_counter() - start < seconds:
        if perf_counter() - start > RUN_LIMIT_S:
            outcome.problems.append(f"stopped after {len(decisions)} sets at the time limit")
            break
        dim, ops, kind = source.next()
        tracer.request = len(decisions)
        tracer.stage = "gen"
        t0 = perf_counter()
        a_set = build(dim, ops)
        tracer.stage = "check_balance"
        t1 = perf_counter()
        bal = decide(a_set)
        tracer.stage = "check_funtf"
        t2 = perf_counter()
        report = verify(a_set, seed=seed)
        witness = entry = None
        if not bal.balanced:
            witness = witness_of(a_set, bal)
            entry = cross_term(a_set, witness)
        t3 = perf_counter()
        decisions.append({"gen": t1 - t0, "check_balance": t2 - t1, "check_funtf": t3 - t2})

        problems = []
        counts["balanced" if bal.balanced else "unbalanced"] += 1
        if report.tight != bal.balanced:
            problems.append(f"tight={report.tight} but balanced={bal.balanced}")
        if kind == "minimal" and not bal.balanced:
            problems.append("a relabelled minimal set is not balanced")
        if report.tight:
            deviation = max(report.max_offdiag, report.max_diag_dev)
            worst = max(worst, deviation)
            if not deviation <= TOL:
                problems.append(f"worst deviation {deviation} exceeds tol {TOL}")
        if witness is not None and (witness.defect == 0
                                    or abs(entry - float(witness.defect)) > TOL):
            problems.append(f"witness defect {witness.defect} but the entry is {entry}")
        outcome.op(f"set {len(decisions) - 1} ({kind}, dim {dim})", problems)
        if every_100 is not None and len(decisions) % 100 == 0:
            every_100()
    return {"decisions": decisions, "worst_deviation": worst, "verdicts": counts}
