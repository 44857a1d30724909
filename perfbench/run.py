"""End-to-end benchmark of the StreamTune tuner.

Usage::

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads (see ``README.md`` for why each exists):

* ``cold-start``   — campaign_smoke's queries over a 20-step trace from
  nothing on disk: history, GED k-means, GNN pretraining, online tuning,
  ledger;
* ``online-fleet`` — StreamTune over 11 queries x 20 rate changes with a
  pretrained artifact loaded during set-up;
* ``ds2-fleet``    — DS2 over 61 queries x 120 rate changes.

One operation is one tuning process: one rate change, from the new target
rate until the tuner settles on a deployment.  A single client drives the
campaigns one after another on the ``sequential`` backend of the
``flink`` engine (a closed loop: the next rate change is sent when the
previous process returns).  Each process is timed at the campaign loop's
steps from outside the program.  Every run makes exactly one pass over
the workload's plan, so every run attempts the same operations whatever
the host's speed; each plan is sized so that its pass takes at least
``run_seconds`` of ``BENCHMARK.json`` on a 2-core host.  ``--seconds``
must be at least 1 and does not change the work.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` (end-to-end metrics with
``--trace 0``, per-layer metrics with ``--trace 1``).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from checks import (
    check_assignments,
    check_ledger,
    check_processes,
    check_training_loss,
    process_ids,
    rises_with_parallelism,
    sample_rows,
)
from tracing import LAYER_METRICS, RUN_ROOT, SETUP_ROOT, Tracer, install, layer_metrics
from workloads import (
    BUILD,
    HERE,
    WORKLOADS,
    ProgramMissing,
    ensure_artifact,
    import_program,
    set_up,
)

#: Every end-to-end metric, in report order, with its unit.
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("process_ms_p50", "ms"),
    ("process_ms_p95", "ms"),
    ("process_ms_p99", "ms"),
    ("reconfigurations", "count"),
    ("final_parallelism", "instances"),
    ("peak_rss_mb", "MiB"),
)

#: Fresh-interpreter set-ups per run; ``setup_s`` is their median.
SETUP_RUNS = 5


class ProcessClock:
    """Times each tuning process and checks each fitted model between them.

    ``iter_campaign`` yields once per tuning process; the clock times each
    ``next()`` on it.  Models fitted during a process are probed for
    monotonicity right after it, with the wall clock and tracing paused,
    so the probe costs neither ``wall_s`` nor any layer's time.
    """

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.samples: list[float] = []
        self.paused = 0.0
        self.violations: set = set()
        self._pending: list = []

    def install(self) -> None:
        import repro.service.tuning as tuning
        from repro.models.svm import MonotonicSVM

        loop = tuning.iter_campaign
        fit = MonotonicSVM.fit

        def timed_campaign(engine, tuner, query, multipliers, **kwargs):
            inner = loop(engine, tuner, query, multipliers, **kwargs)
            while True:
                start = time.perf_counter()
                try:
                    item = next(inner)
                except StopIteration as stop:
                    return stop.value
                self.samples.append(time.perf_counter() - start)
                self._between_processes((query.name, item[0]))
                yield item

        @functools.wraps(fit)  # the tuner inspects fit's signature
        def fit_and_keep(model, features, labels, *args, **kwargs):
            fitted = fit(model, features, labels, *args, **kwargs)
            self._pending.append((fitted, sample_rows(features)))
            return fitted

        tuning.iter_campaign = timed_campaign
        MonotonicSVM.fit = fit_and_keep

    def _between_processes(self, process_id) -> None:
        start = time.perf_counter()
        tracing = self.tracer.enabled
        if tracing and self.tracer.depth != 1:
            raise RuntimeError("a layer span is open between tuning processes")
        self.tracer.enabled = False
        try:
            for model, rows in self._pending:
                if rises_with_parallelism(model, rows):
                    self.violations.add(process_id)
            self._pending.clear()
        finally:
            self.tracer.enabled = tracing
            self.paused += time.perf_counter() - start


@dataclass
class Round:
    """One pass of the workload's plan and everything it left behind."""

    wall_s: float
    paused_s: float
    samples: list
    outcomes: list
    failed_campaigns: list
    cache_stats: dict
    n_events: int
    ledger_lines: int
    ledger_bytes: int
    ledger: Path
    failed: set = field(default_factory=set)


def run_round(plan, pretrained, ledger: Path, clock: ProcessClock) -> Round:
    """Stream the plan once, recording every event to a JSONL ledger.

    ``clock`` must be fresh: the round takes all of its samples and pauses.
    """
    from repro.api import CacheStats, CampaignFailed, JsonlRecorder, TuningSession
    from repro.service import CampaignExecutionError

    tracer = clock.tracer
    failed_campaigns: list = []
    stats: dict = {}
    n_events = 0
    root = tracer.open(RUN_ROOT) if tracer.enabled else None
    start = time.perf_counter()
    session = TuningSession(pretrained=pretrained)
    recorder = JsonlRecorder(ledger)
    try:
        stream = session.stream(plan)
        while True:
            try:
                event = next(stream)
            except StopIteration as stop:
                outcomes = stop.value.outcomes
                break
            n_events += 1
            with tracer.span("ledger.write"):
                recorder(event)
            if isinstance(event, CampaignFailed):
                failed_campaigns.append(event.campaign)
            elif isinstance(event, CacheStats):
                stats = event.stats
    except CampaignExecutionError as error:
        outcomes = [error.outcomes[index] for index in sorted(error.outcomes)]
    finally:
        recorder.close()
    end = time.perf_counter()
    if root is not None:
        tracer.close(root)
        tracer.spans[root][1:3] = [start, end]
    return Round(
        wall_s=end - start - clock.paused,
        paused_s=clock.paused,
        samples=clock.samples,
        outcomes=outcomes,
        failed_campaigns=failed_campaigns,
        cache_stats=stats,
        n_events=n_events,
        ledger_lines=recorder.n_events,
        ledger_bytes=ledger.stat().st_size,
        ledger=ledger,
    )


def check_round(workload: str, plan, pretrained, run: Round, violations: set) -> set:
    """Every process of the round that fails an error or a correctness check."""
    from repro.api import build_engine, resolve_query
    from repro.engines.flow import _SATURATION_RTOL

    queries = {}
    for token in plan.queries:
        query = resolve_query(token, plan.engine)
        queries[query.name] = query
    n_steps = len(plan.rates)
    engine = build_engine(plan.engine, seed=plan.seed)
    failed = set(violations)
    failed |= process_ids(queries, n_steps, run.failed_campaigns)
    failed |= check_processes(
        run.outcomes, queries, engine.perf, engine.max_parallelism, _SATURATION_RTOL
    )
    failed |= check_ledger(run.ledger, run.outcomes, queries, n_steps)
    if plan.tuner == "streamtune":
        if pretrained is None:
            from repro.experiments.context import pretrained_model
            from repro.experiments.scale import resolve_scale

            pretrained = pretrained_model(plan.engine, resolve_scale(plan.scale))
        failed |= check_assignments(pretrained, queries, n_steps)
        if workload == "cold-start":
            failed |= check_training_loss(pretrained, queries, n_steps)
    return failed


#: A tail percentile is reported at a rank that leaves at least this many
#: samples beyond it; with fewer, one slow process would set the figure.
TAIL_SAMPLES = 10


def percentile(values: list, q: float) -> float:
    """Nearest-rank percentile, kept to a rank with a tail behind it.

    The rank is lowered, never below the median, until at least
    :data:`TAIL_SAMPLES` samples lie beyond it: with 40 samples a "p99"
    reads the 30th value, with 220 samples the 210th.
    """
    ordered = sorted(values)
    n = len(ordered)
    rank = min(max(1, math.ceil(q * n)), max(math.ceil(n / 2), n - TAIL_SAMPLES))
    return ordered[rank - 1]


def measure_setup(workload: str, seed: int, artifact) -> float:
    """Median wall time of :data:`SETUP_RUNS` fresh-interpreter set-ups."""
    command = [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)]
    if artifact is not None:
        command.append(str(artifact))
    times = []
    for _ in range(SETUP_RUNS):
        start = time.monotonic()
        done = subprocess.run(
            command, check=True, capture_output=True, text=True, timeout=120
        )
        times.append(float(done.stdout.split()[-1]) - start)
    return statistics.median(times)


def ledger_path(workload: str, seed: int) -> Path:
    return BUILD / "ledgers" / f"{workload}-s{seed}-p{os.getpid()}.jsonl"


def execute(workload: str, seed: int, tracer: Tracer):
    """Set up, run one pass of the plan and check it.

    Returns the plan, the artifact directory, the checked round and the
    peak resident memory at the end of the round, in MiB.
    """
    clock = ProcessClock(tracer)
    clock.install()
    artifact = ensure_artifact(workload)
    if tracer.enabled:
        root = tracer.open(SETUP_ROOT)
        plan, pretrained = set_up(workload, seed, artifact)
        tracer.close(root)
    else:
        plan, pretrained = set_up(workload, seed, artifact)
    run = run_round(plan, pretrained, ledger_path(workload, seed), clock)
    print(f"perfbench: wall_s={run.wall_s:.3f}", file=sys.stderr)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    tracer.enabled = False
    run.failed = check_round(workload, plan, pretrained, run, clock.violations)
    if not run.failed:
        run.ledger.unlink(missing_ok=True)  # a failing ledger is kept to inspect
    return plan, artifact, run, peak_rss_mb


def processes(run: Round):
    return [p for outcome in run.outcomes for p in outcome.result.processes]


def untraced(workload: str, seed: int) -> dict:
    plan, artifact, run, peak_rss_mb = execute(workload, seed, Tracer())
    setup_s = measure_setup(workload, seed, artifact)
    values = {
        "setup_s": setup_s,
        "wall_s": run.wall_s,
        "process_ms_p50": 1e3 * percentile(run.samples, 0.50),
        "process_ms_p95": 1e3 * percentile(run.samples, 0.95),
        "process_ms_p99": 1e3 * percentile(run.samples, 0.99),
        "reconfigurations": sum(p.n_reconfigurations for p in processes(run)),
        "final_parallelism": sum(p.final_total_parallelism for p in processes(run)),
        "peak_rss_mb": peak_rss_mb,
    }
    return {
        "correct": not run.failed,
        "attempted": len(plan.queries) * len(plan.rates),
        "failed": len(run.failed),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END},
    }


def traced(workload: str, seed: int) -> dict:
    """One traced round, after an untraced run in a fresh interpreter.

    The untraced run's ``wall_s`` prices the tracing itself:
    ``tracing_overhead_s`` is the traced minus the untraced wall time.
    """
    ensure_artifact(workload)
    child = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "0"],
        stdout=subprocess.PIPE, text=True, timeout=170, check=True,
    )
    baseline = json.loads(child.stdout.strip().splitlines()[-1])
    tracer = Tracer()
    install(tracer)
    tracer.enabled = True
    plan, _, run, _ = execute(workload, seed, tracer)
    tracer.counts.update({
        "engines.backpressure_final": sum(
            p.steps[-1].backpressure_after for p in processes(run) if p.steps
        ),
        "events.count": run.n_events,
        "ledger.lines": run.ledger_lines,
        "ledger.bytes": run.ledger_bytes,
    })
    for section in ("assign", "warmup", "distill", "embed"):
        for outcome in ("hits", "misses"):
            tracer.counts[f"service.cache.{section}.{outcome}"] = (
                run.cache_stats.get(section, {}).get(outcome, 0)
            )
    metrics = layer_metrics(tracer, run.paused_s)
    metrics["tracing_overhead_s"] = run.wall_s - baseline["metrics"]["wall_s"]["value"]
    units = dict(LAYER_METRICS)
    return {
        "correct": not run.failed and baseline["correct"],
        "attempted": len(plan.queries) * len(plan.rates),
        "failed": len(run.failed),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        import_program()
    except (ProgramMissing, ImportError) as error:
        print(f"perfbench: cannot import the program: {error}", file=sys.stderr)
        return 2
    if args.trace:
        result = traced(args.workload, args.seed)
    else:
        result = untraced(args.workload, args.seed)
    print(
        f"perfbench: {args.workload} seed={args.seed} attempted={result['attempted']} "
        f"failed={result['failed']} correct={result['correct']}",
        file=sys.stderr,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
