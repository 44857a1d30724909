"""Correctness checks run on every benchmark run's outputs.

Each check is recomputed apart from the program, or tests a property the
method must have, and names the tuning processes it finds wrong.  A
process is identified by ``(campaign, step_index)``; a failure that cannot
be pinned to one process fails every process it may have touched.
"""

from __future__ import annotations

import json

import numpy as np

#: A probability may rise by at most this much along the parallelism sweep
#: before a model counts as non-monotone (float noise of identical rows).
MONOTONE_TOLERANCE = 1e-12

#: Parallelism-column values swept by the monotonicity check; the column
#: holds a monotone map of the degree onto [0, 1].
PARALLELISM_SWEEP = np.linspace(0.0, 1.0, 21)

#: Training rows of each fitted model kept for its monotonicity sweep.
ROWS_PER_MODEL = 8


def process_ids(queries: dict, n_steps: int, campaigns=None) -> set:
    """Every process of ``campaigns`` (default: all) of one round."""
    names = queries if campaigns is None else campaigns
    return {(name, step) for name in names for step in range(n_steps)}


# ----------------------------------------------------------------------
# backpressure and degree bounds
# ----------------------------------------------------------------------

def demands(flow, source_rates: dict) -> dict:
    """Input demand of every operator, propagated from the sources."""
    demand: dict = {}

    def demand_in(name: str) -> float:
        if name not in demand:
            spec = flow.operator(name)
            if spec.is_source:
                demand[name] = max(0.0, source_rates.get(name, 0.0))
            else:
                demand[name] = sum(
                    flow.operator(up).selectivity * demand_in(up)
                    for up in flow.upstream(name)
                )
        return demand[name]

    for name in flow.operator_names:
        demand_in(name)
    return demand


def expected_backpressure(flow, parallelisms, source_rates, perf, rtol) -> bool:
    """Whether any operator's demand exceeds its capacity beyond ``rtol``."""
    demand = demands(flow, source_rates)
    return any(
        demand[name] > perf.processing_ability(flow.operator(name), parallelisms[name])
        * (1.0 + rtol)
        for name in flow.operator_names
    )


def check_processes(outcomes, queries: dict, perf, max_parallelism: int, rtol) -> set:
    """Final degrees in bounds and backpressure flags that match demand.

    ``queries`` maps campaign names to their ``StreamingQuery``.  Returns
    the ids of the processes that fail.
    """
    failed = set()
    for outcome in outcomes:
        query = queries[outcome.spec_name]
        result = outcome.result
        for step, (multiplier, process) in enumerate(
            zip(result.multipliers, result.processes)
        ):
            final = process.final_parallelisms
            in_bounds = set(final) == set(query.flow.operator_names) and all(
                1 <= degree <= max_parallelism for degree in final.values()
            )
            if not in_bounds or not process.steps:
                failed.add((outcome.spec_name, step))
                continue
            expected = expected_backpressure(
                query.flow, final, query.rates_at(multiplier), perf, rtol
            )
            if expected != process.steps[-1].backpressure_after:
                failed.add((outcome.spec_name, step))
    return failed


# ----------------------------------------------------------------------
# monotone prediction layer (Eq. 5)
# ----------------------------------------------------------------------

def sample_rows(features) -> np.ndarray:
    """Evenly spaced training rows kept to probe a fitted model."""
    features = np.asarray(features, dtype=np.float64)
    picks = np.unique(np.linspace(0, len(features) - 1, ROWS_PER_MODEL).astype(int))
    return features[picks].copy()


def rises_with_parallelism(model, rows: np.ndarray) -> bool:
    """Whether the model's bottleneck probability rises along the sweep."""
    n_points = len(PARALLELISM_SWEEP)
    swept = np.repeat(rows, n_points, axis=0)
    swept[:, -1] = np.tile(PARALLELISM_SWEEP, len(rows))
    probabilities = np.asarray(model.predict_proba(swept)).reshape(len(rows), n_points)
    return bool((np.diff(probabilities, axis=1) > MONOTONE_TOLERANCE).any())


# ----------------------------------------------------------------------
# pretrained artifact
# ----------------------------------------------------------------------

def exhaustive_nearest(flow, centers) -> int:
    """First-index argmin of exact GED to every center, with a fresh cache."""
    from repro.ged.search import GEDCache

    cache = GEDCache()
    distances = [cache.distance(flow, center) for center in centers]
    return min(range(len(distances)), key=distances.__getitem__)


def check_assignments(pretrained, queries: dict, n_steps: int) -> set:
    """``assign_cluster`` equals the exhaustive GED argmin for every query."""
    failed = set()
    centers = pretrained.clustering.center_graphs
    for name, query in queries.items():
        if pretrained.assign_cluster(query.flow) != exhaustive_nearest(query.flow, centers):
            failed |= process_ids(queries, n_steps, [name])
    return failed


def check_training_loss(pretrained, queries: dict, n_steps: int) -> set:
    """Each cluster's last-epoch loss is below its first-epoch loss."""
    failed = set()
    for cluster, report in enumerate(pretrained.reports):
        if len(report.losses) >= 2 and report.losses[-1] < report.losses[0]:
            continue
        members = [
            name for name, query in queries.items()
            if pretrained.assign_cluster(query.flow) == cluster
        ]
        failed |= process_ids(queries, n_steps, members)
    return failed


# ----------------------------------------------------------------------
# ledger
# ----------------------------------------------------------------------

def check_ledger(path, outcomes, queries: dict, n_steps: int) -> set:
    """The recorded JSONL ledger is complete, ordered and faithful.

    Every line round-trips through ``event_from_dict`` to the same text,
    ``seq`` strictly increases, each campaign has exactly one
    ``CampaignFinished`` and one ``StepCompleted`` per trace step, and each
    ``StepCompleted`` carries its process's final parallelisms.
    """
    from repro.api import CampaignFinished, StepCompleted, event_from_dict

    finals = {
        (outcome.spec_name, step): process.final_parallelisms
        for outcome in outcomes
        for step, process in enumerate(outcome.result.processes)
    }
    failed = set()
    finished: dict = {name: 0 for name in queries}
    seen_steps: set = set()
    previous_seq = None
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            data = json.loads(line)
            campaign = data.get("campaign")
            step = data.get("step_index")
            if campaign in queries and isinstance(step, int):
                culprits = {(campaign, step)}
            elif campaign in queries:
                culprits = process_ids(queries, n_steps, [campaign])
            else:
                culprits = process_ids(queries, n_steps)
            event = event_from_dict(data)
            if json.dumps(event.to_dict(), sort_keys=True) != line.rstrip("\n"):
                failed |= culprits
            if previous_seq is not None and event.seq <= previous_seq:
                failed |= culprits
            previous_seq = event.seq
            if isinstance(event, CampaignFinished) and campaign in finished:
                finished[campaign] += 1
                replayed = [p.final_parallelisms for p in event.outcome.result.processes]
                expected = [finals.get((campaign, i)) for i in range(n_steps)]
                if replayed != expected:
                    failed |= culprits
            elif isinstance(event, StepCompleted):
                key = (campaign, step)
                if key in seen_steps or finals.get(key) != event.parallelisms:
                    failed |= culprits
                seen_steps.add(key)
    for name, count in finished.items():
        if count != 1:
            failed |= process_ids(queries, n_steps, [name])
    failed |= process_ids(queries, n_steps) - seen_steps
    return failed
