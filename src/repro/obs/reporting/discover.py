"""Recursive observability-artifact discovery under a results root.

A *run directory* is whatever :meth:`repro.obs.ObsSession.flush` wrote:
``manifests.jsonl``, ``epochs.jsonl``, ``events.jsonl``,
``event_counts.json``, ``layers.json``, ``metrics.json`` and optionally
``spans.jsonl``.  The discovery walk
also picks up ``BENCH_*.json`` benchmark trajectories anywhere in the
tree.

Everything here is tolerant by construction: a truncated JSONL record
(a crash mid-append), a garbled manifest line or an unreadable file
degrades that artifact -- recorded in ``problems`` -- without failing
the walk.  The report layer surfaces the problems instead of hiding
them.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Tuple

#: Files whose presence makes a directory a run directory.
RUN_DIR_MARKERS = ("manifests.jsonl", "epochs.jsonl", "events.jsonl", "metrics.json")

#: Directory names never descended into.
_SKIP_DIRS = frozenset({".git", "__pycache__"})
#: Cache payload shards (``v<N>/results``, ``v<N>/traces``) are large
#: binary stores with no renderable artifacts; prune them by shape.
_CACHE_PAYLOAD_DIRS = frozenset({"results", "traces"})


def _is_cache_version_dir(path: Path) -> bool:
    name = path.name
    return name.startswith("v") and name[1:].isdigit()


def read_jsonl_tolerant(path) -> Tuple[List[Dict[str, object]], List[str]]:
    """Parse a JSONL file, skipping torn/garbage lines instead of raising.

    Returns ``(rows, problems)``; each skipped line adds one problem
    string naming the file and line number.  A file truncated mid-record
    (crash during append) therefore yields every complete row plus one
    problem, never an exception.
    """
    path = Path(path)
    rows: List[Dict[str, object]] = []
    problems: List[str] = []
    try:
        text = path.read_text(errors="replace")
    except OSError as exc:
        return rows, [f"{path}: unreadable ({exc.__class__.__name__})"]
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            row = json.loads(line)
        except json.JSONDecodeError:
            problems.append(f"{path}: skipped malformed line {lineno}")
            continue
        if not isinstance(row, dict):
            problems.append(f"{path}: skipped non-object line {lineno}")
            continue
        rows.append(row)
    return rows, problems


@dataclass
class RunDir:
    """One flushed observability directory, loaded leniently."""

    path: Path
    manifests: List[Dict[str, object]] = field(default_factory=list)
    epochs: List[Dict[str, object]] = field(default_factory=list)
    events: List[Dict[str, object]] = field(default_factory=list)
    #: :meth:`TraceEventStream.tally` at flush time (empty when absent).
    event_counts: Dict[str, object] = field(default_factory=dict)
    #: The host-time sampler's summary (:func:`repro.obs.layers.summary`).
    layers: Dict[str, object] = field(default_factory=dict)
    spans: List[Dict[str, object]] = field(default_factory=list)
    metrics: Dict[str, object] = field(default_factory=dict)
    problems: List[str] = field(default_factory=list)

    @property
    def name(self) -> str:
        return self.path.name

    def missing(self) -> List[str]:
        """Marker files this run directory does not have."""
        return [m for m in RUN_DIR_MARKERS if not (self.path / m).exists()]


@dataclass
class TrajectoryFile:
    """One ``BENCH_<experiment>.json`` benchmark trajectory."""

    path: Path
    experiment: str
    records: List[Dict[str, object]] = field(default_factory=list)
    problems: List[str] = field(default_factory=list)


@dataclass
class ArtifactTree:
    """Everything discovered under one root, plus degradation notes."""

    root: Path
    runs: List[RunDir] = field(default_factory=list)
    trajectories: List[TrajectoryFile] = field(default_factory=list)
    problems: List[str] = field(default_factory=list)

    @property
    def manifests(self) -> List[Dict[str, object]]:
        """All run manifests across every discovered run directory."""
        out: List[Dict[str, object]] = []
        for run in self.runs:
            out.extend(run.manifests)
        return out

    def all_problems(self) -> List[str]:
        """Tree-level plus per-artifact degradation notes, in walk order."""
        out = list(self.problems)
        for run in self.runs:
            out.extend(run.problems)
        for trajectory in self.trajectories:
            out.extend(trajectory.problems)
        return out


def _read_object(path: Path, problems: List[str]) -> Dict[str, object]:
    """A JSON object file, or ``{}`` (with a problem noted when the file
    exists but cannot be used)."""
    if not path.exists():
        return {}
    try:
        data = json.loads(path.read_text(errors="replace"))
    except (OSError, json.JSONDecodeError):
        problems.append(f"{path}: unreadable or malformed; ignored")
        return {}
    if not isinstance(data, dict):
        problems.append(f"{path}: not a JSON object; ignored")
        return {}
    return data


def load_run_dir(path) -> RunDir:
    """Load one run directory, degrading per-file instead of raising."""
    path = Path(path)
    run = RunDir(path=path)
    manifests = path / "manifests.jsonl"
    if manifests.exists():
        run.manifests, problems = read_jsonl_tolerant(manifests)
        run.problems.extend(problems)
    epochs = path / "epochs.jsonl"
    if epochs.exists():
        run.epochs, problems = read_jsonl_tolerant(epochs)
        run.problems.extend(problems)
    events = path / "events.jsonl"
    if events.exists():
        run.events, problems = read_jsonl_tolerant(events)
        run.problems.extend(problems)
    # spans.jsonl is optional (only written when tracing recorded spans)
    # and deliberately not a RUN_DIR_MARKER: its presence alone does not
    # make a directory a run directory.
    spans = path / "spans.jsonl"
    if spans.exists():
        run.spans, problems = read_jsonl_tolerant(spans)
        run.problems.extend(problems)
    run.metrics = _read_object(path / "metrics.json", run.problems)
    run.event_counts = _read_object(path / "event_counts.json", run.problems)
    run.layers = _read_object(path / "layers.json", run.problems)
    return run


def _load_trajectory(path: Path) -> TrajectoryFile:
    from repro.obs import bench

    experiment = path.stem[len("BENCH_"):] or path.stem
    trajectory = TrajectoryFile(path=path, experiment=experiment)
    try:
        records = bench.load_trajectory(path)
    except bench.BenchSchemaError as exc:
        trajectory.problems.append(str(exc))
        return trajectory
    for i, record in enumerate(records):
        try:
            bench.validate_record(record)
        except bench.BenchSchemaError as exc:
            trajectory.problems.append(f"{path}: record {i} invalid: {exc}")
            continue
        trajectory.records.append(record)
    return trajectory


def discover(root) -> ArtifactTree:
    """Walk ``root`` recursively and load every obs artifact found.

    ``root`` may also name a single run directory or a single
    ``BENCH_*.json`` file directly.  The walk order (and therefore every
    list in the returned tree) is deterministic: directories and files
    are visited sorted by name.
    """
    root = Path(root)
    tree = ArtifactTree(root=root)
    if not root.exists():
        raise FileNotFoundError(f"no such results root: {root}")
    if root.is_file():
        if root.name.startswith("BENCH_") and root.suffix == ".json":
            tree.trajectories.append(_load_trajectory(root))
        else:
            tree.problems.append(f"{root}: not a BENCH_*.json trajectory")
        return tree

    for dirpath, dirnames, filenames in os.walk(root):
        here = Path(dirpath)
        dirnames[:] = sorted(
            d for d in dirnames
            if d not in _SKIP_DIRS
            and not (d in _CACHE_PAYLOAD_DIRS and _is_cache_version_dir(here))
        )
        names = sorted(filenames)
        if any(marker in names for marker in RUN_DIR_MARKERS):
            tree.runs.append(load_run_dir(here))
        for name in names:
            if name.startswith("BENCH_") and name.endswith(".json"):
                tree.trajectories.append(_load_trajectory(here / name))
    return tree
