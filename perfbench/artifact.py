"""Build the pretrained StreamTune artifact a workload plan tunes with.

Usage: ``python3 perfbench/artifact.py <plan.json> <output-dir>``

Runs the same offline pipeline a cold ``TuningSession`` runs for the
plan's engine and scale (history generation, GED k-means, per-cluster GNN
pretraining) and saves the result with ``save_pretrained``.
"""

from __future__ import annotations

import sys

from workloads import import_program


def build(plan_file: str, output: str) -> None:
    import_program()
    from repro.api import load_plan
    from repro.core.persistence import save_pretrained
    from repro.experiments.context import pretrained_model
    from repro.experiments.scale import resolve_scale

    plan = load_plan(plan_file)
    save_pretrained(pretrained_model(plan.engine, resolve_scale(plan.scale)), output)


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit("usage: artifact.py <plan.json> <output-dir>")
    build(sys.argv[1], sys.argv[2])
