"""Self-test: the correctness checks reject corrupted outputs.

Usage: ``python3 perfbench/selftest.py``

Runs a small DS2 fleet (no pretraining needed), confirms the checks pass
its real outputs, then corrupts them in four ways and confirms each
corruption is caught, and pinned to the right tuning process where it
touches one:

* a final degree one below the smallest degree whose capacity covers the
  operator's demand within the simulator's saturation tolerance, and a
  target rate whose demand lies just outside that tolerance;
* a ledger with one ``StepCompleted`` line dropped;
* a prediction model whose bottleneck probability rises with parallelism;
* a traced run whose spans overlap, or whose pause exceeds the time no
  layer span covers.

Exits 0 when every case behaves, 1 otherwise.
"""

from __future__ import annotations

import dataclasses
import json
import sys

import numpy as np

from checks import check_ledger, check_processes, demands, rises_with_parallelism, sample_rows
from run import ProcessClock, check_round, run_round
from tracing import RUN_ROOT, Tracer, layer_metrics
from workloads import BUILD, import_program

PLAN = {
    "kind": "campaign",
    "queries": ["q1", "q5", "2-way-join/0"],
    "rates": [3, 7, 4, 2, 10],
    "engine": "flink",
    "tuner": "ds2",
    "backend": "sequential",
    "seed": 17,
}


def tolerance_limit(query, multiplier, final, perf, max_parallelism, rtol):
    """An operator and the smallest degree the tolerance lets serve it."""
    demand = demands(query.flow, query.rates_at(multiplier))
    for name in query.flow.operator_names:
        spec = query.flow.operator(name)
        for degree in range(1, max_parallelism + 1):
            if demand[name] <= perf.processing_ability(spec, degree) * (1.0 + rtol):
                break
        else:
            continue
        if degree >= 2 and final[name] >= degree:
            return name, degree
    return None


def with_multiplier(outcome, step: int, multiplier: float):
    """A copy of ``outcome`` whose process ``step`` targeted ``multiplier``."""
    result = dataclasses.replace(outcome.result, multipliers=list(outcome.result.multipliers))
    result.multipliers[step] = multiplier
    return dataclasses.replace(outcome, result=result)


def with_final_degree(outcome, step: int, operator: str, degree: int):
    """A copy of ``outcome`` whose process ``step`` ends at ``degree``."""
    result = dataclasses.replace(outcome.result, processes=list(outcome.result.processes))
    process = result.processes[step]
    last = process.steps[-1]
    parallelisms = dict(last.parallelisms, **{operator: degree})
    result.processes[step] = dataclasses.replace(
        process, steps=[*process.steps[:-1], dataclasses.replace(last, parallelisms=parallelisms)]
    )
    return dataclasses.replace(outcome, result=result)


class RisingModel:
    """A fitted model read with its parallelism column reversed."""

    def __init__(self, model) -> None:
        self.model = model

    def predict_proba(self, features):
        flipped = np.array(features, dtype=np.float64)
        flipped[:, -1] = 1.0 - flipped[:, -1]
        return self.model.predict_proba(flipped)


def main() -> int:
    import_program()
    from repro.api import build_engine, plan_from_dict, resolve_query
    from repro.engines.flow import _SATURATION_RTOL
    from repro.models.svm import MonotonicSVM

    plan = plan_from_dict(PLAN)
    ledger = BUILD / "selftest" / "ledger.jsonl"
    run = run_round(plan, None, ledger, ProcessClock(Tracer()))
    queries = {q.name: q for q in (resolve_query(t, plan.engine) for t in plan.queries)}
    n_steps = len(plan.rates)
    engine = build_engine(plan.engine, seed=plan.seed)
    results: list[tuple[str, bool]] = []

    results.append(("real outputs pass every check",
                    check_round("selftest", plan, None, run, set()) == set()))

    target = None
    for outcome in run.outcomes:
        query = queries[outcome.spec_name]
        for step, (multiplier, process) in enumerate(
            zip(outcome.result.multipliers, outcome.result.processes)
        ):
            if process.steps[-1].backpressure_after:
                continue
            limit = tolerance_limit(
                query, multiplier, process.final_parallelisms, engine.perf,
                engine.max_parallelism, _SATURATION_RTOL,
            )
            if limit is not None:
                target = (outcome, step, *limit)
                break
        if target is not None:
            break
    if target is None:
        results.append(("found a process to corrupt", False))
    else:
        outcome, step, operator, degree = target

        def flagged(new_degree: int) -> set:
            corrupted = [
                with_final_degree(o, step, operator, new_degree) if o is outcome else o
                for o in run.outcomes
            ]
            return check_processes(
                corrupted, queries, engine.perf, engine.max_parallelism, _SATURATION_RTOL
            )

        results.append((f"degree {degree} of {operator} at the tolerance limit passes",
                        flagged(degree) == set()))
        results.append((f"degree {degree - 1} of {operator}, one below the limit, fails",
                        flagged(degree - 1) == {(outcome.spec_name, step)}))

        # Demand scales with the multiplier, so rescaling the process's
        # target puts its busiest operator just inside, then just outside,
        # the saturation tolerance at its recorded degree.
        query = queries[outcome.spec_name]
        multiplier = outcome.result.multipliers[step]
        final = outcome.result.processes[step].final_parallelisms
        demand = demands(query.flow, query.rates_at(multiplier))
        load = max(
            demand[name] / engine.perf.processing_ability(query.flow.operator(name), final[name])
            for name in query.flow.operator_names
        )
        for excess, expected in ((0.5, set()), (2.0, {(outcome.spec_name, step)})):
            target = multiplier * (1.0 + excess * _SATURATION_RTOL) / load
            corrupted = [with_multiplier(o, step, target) if o is outcome else o
                         for o in run.outcomes]
            results.append((
                f"demand {excess:g}x the tolerance above capacity "
                f"{'passes' if not expected else 'fails'}",
                check_processes(corrupted, queries, engine.perf, engine.max_parallelism,
                                _SATURATION_RTOL) == expected,
            ))

    lines = ledger.read_text(encoding="utf-8").splitlines(keepends=True)
    dropped = next(i for i, line in enumerate(lines) if '"event": "StepCompleted"' in line)
    victim = json.loads(lines[dropped])
    truncated = ledger.with_name("dropped.jsonl")
    truncated.write_text("".join(lines[:dropped] + lines[dropped + 1:]), encoding="utf-8")
    results.append(("ledger with a dropped StepCompleted line fails that process",
                    check_ledger(truncated, run.outcomes, queries, n_steps)
                    == {(victim["campaign"], victim["step_index"])}))

    rng = np.random.default_rng(3)
    features = np.column_stack([rng.normal(size=(200, 4)), rng.uniform(size=200)])
    labels = (features[:, 0] - 3.0 * features[:, -1] > -1.0).astype(np.int64)
    model = MonotonicSVM(seed=5).fit(features, labels)
    rows = sample_rows(features)
    results.append(("a fitted MonotonicSVM passes the monotonicity probe",
                    not rises_with_parallelism(model, rows)))
    results.append(("a model rising with parallelism fails the probe",
                    rises_with_parallelism(RisingModel(model), rows)))

    def traced(spans, paused_s: float) -> bool:
        """Whether ``layer_metrics`` accepts these spans and pause."""
        tracer = Tracer()
        tracer.spans = [list(span) for span in spans]
        try:
            layer_metrics(tracer, paused_s)
        except RuntimeError:
            return False
        return True

    nested = [[RUN_ROOT, 0.0, 10.0, -1], ["tuner.tune", 1.0, 4.0, 0],
              ["models.fit", 2.0, 3.0, 1], ["engines.measure", 5.0, 6.0, 0]]
    results.append(("well-nested spans pass the span checks", traced(nested, 1.0)))
    overlapping = [span[:] for span in nested]
    overlapping[3][1] = 3.5
    results.append(("overlapping sibling spans fail", not traced(overlapping, 1.0)))
    outside = [span[:] for span in nested]
    outside[2][2] = 4.5
    results.append(("a child span leaving its parent fails", not traced(outside, 1.0)))
    results.append(("a pause longer than the unattributed time fails",
                    not traced(nested, 7.0)))

    for path in (ledger, truncated):
        path.unlink(missing_ok=True)
    for label, ok in results:
        print(f"{'ok  ' if ok else 'FAIL'} {label}")
    return 0 if all(ok for _, ok in results) else 1


if __name__ == "__main__":
    sys.exit(main())
