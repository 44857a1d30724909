"""The benchmark's workloads: their plans, their seeds and their set-up.

Every workload is a campaign plan file under ``plans/``.  The run's seed
permutes the order in which the single closed-loop client submits the
campaigns; it changes neither the rate trace nor any tuner or engine
seed, so ``reconfigurations`` and ``final_parallelism`` repeat exactly
across seeds while the order in which shared caches fill does not.

The ``online-fleet`` workload tunes with a pretrained artifact.  The
artifact is built by the program under test, in a child process and
outside every timed run, and is stored under ``.bench_build/`` keyed by a
hash of the program's source, so a changed program never loads an
artifact an older program built.
"""

from __future__ import annotations

import hashlib
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PLANS = HERE / "plans"
BUILD = ROOT / ".bench_build" / "perfbench"

WORKLOADS = ("cold-start", "online-fleet", "ds2-fleet")

#: Workloads that load the pretrained artifact during set-up.
NEEDS_ARTIFACT = frozenset({"online-fleet"})


class ProgramMissing(RuntimeError):
    """The checkout holds no importable program under ``src/``."""


def import_program():
    """Import ``repro`` from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise ProgramMissing(f"no program source at {SRC / 'repro'}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import repro

    origin = Path(repro.__file__).resolve().parent
    if origin != (SRC / "repro").resolve():
        raise ProgramMissing(f"repro was imported from {origin}, not {SRC}")
    return repro


def plan_path(workload: str) -> Path:
    return PLANS / f"{workload}.json"


def load_workload_plan(workload: str, seed: int):
    """Load and validate the workload's plan, with the seed's query order."""
    from repro.api import load_plan, replace

    plan = load_plan(plan_path(workload))
    queries = list(plan.queries)
    random.Random(seed).shuffle(queries)
    return replace(plan, queries=tuple(queries))


def source_digest() -> str:
    """Hash of every program source file: the artifact's cache key."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode("utf-8"))
        digest.update(b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()[:20]


def artifact_dir(workload: str) -> Path:
    return BUILD / f"artifact-{workload}-{source_digest()}"


def ensure_artifact(workload: str) -> Path | None:
    """Build the workload's pretrained artifact unless it already exists.

    The build runs in a child interpreter (``artifact.py``) so the timed
    process never holds pretraining state, and lands in place by an atomic
    rename so an interrupted build leaves no half-written artifact.
    """
    if workload not in NEEDS_ARTIFACT:
        return None
    target = artifact_dir(workload)
    if (target / "meta.json").is_file():
        return target
    staging = target.with_name(target.name + f".tmp{os.getpid()}")
    shutil.rmtree(staging, ignore_errors=True)
    staging.parent.mkdir(parents=True, exist_ok=True)
    try:
        subprocess.run(
            [sys.executable, str(HERE / "artifact.py"), str(plan_path(workload)),
             str(staging)],
            check=True,
            stdout=subprocess.DEVNULL,
            timeout=600,
        )
        os.replace(staging, target)
    finally:
        shutil.rmtree(staging, ignore_errors=True)
    return target


def set_up(workload: str, seed: int, artifact: Path | None):
    """What a user pays before tuning starts: imports, plan, artifact.

    Returns ``(plan, pretrained)``; ``pretrained`` is ``None`` for the
    workloads that build (``cold-start``) or need (``ds2-fleet``) none.
    """
    import repro.api  # noqa: F401  (the import cost is part of set-up)

    plan = load_workload_plan(workload, seed)
    pretrained = None
    if artifact is not None:
        from repro.core.persistence import load_pretrained

        pretrained = load_pretrained(artifact)
    return plan, pretrained
