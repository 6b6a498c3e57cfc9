"""A dependency-free columnar frame over discovered artifact rows.

The reporting pipeline normalizes epoch rows and trace events into
:class:`Frame` -- a thin list-of-dicts wrapper with the handful of
operations rendering needs: column listing in first-seen order,
equality filtering, group-by and numeric extraction.  ``to_pandas()`` hands the same rows to pandas
when it is installed; the container image this repo targets does not
bake pandas in, so nothing else here may import it.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional

from repro.obs.reporting.discover import ArtifactTree


class Frame:
    """Rows of dicts with frame-shaped accessors (see module docstring)."""

    def __init__(self, rows: Iterable[Dict[str, object]] = ()):
        self.rows: List[Dict[str, object]] = [dict(r) for r in rows]

    def __len__(self) -> int:
        return len(self.rows)

    def __bool__(self) -> bool:
        return bool(self.rows)

    def __iter__(self):
        return iter(self.rows)

    def columns(self) -> List[str]:
        """Union of keys across rows, in first-seen order."""
        seen: Dict[str, None] = {}
        for row in self.rows:
            for key in row:
                seen.setdefault(key, None)
        return list(seen)

    def column(self, name: str, default: object = None) -> List[object]:
        return [row.get(name, default) for row in self.rows]

    def numeric(self, name: str) -> List[float]:
        """The column's numeric values (bools and non-numbers dropped)."""
        return [
            float(v)
            for v in self.column(name)
            if isinstance(v, (int, float)) and not isinstance(v, bool)
        ]

    def where(self, predicate: Optional[Callable] = None, **eq) -> "Frame":
        """Rows matching a predicate and/or column equality filters."""
        out = []
        for row in self.rows:
            if eq and any(row.get(k) != v for k, v in eq.items()):
                continue
            if predicate is not None and not predicate(row):
                continue
            out.append(row)
        return Frame(out)

    def groupby(self, key: str) -> Dict[object, "Frame"]:
        """Sub-frames keyed by each distinct value of ``key`` (in order)."""
        groups: Dict[object, List[Dict[str, object]]] = {}
        for row in self.rows:
            groups.setdefault(row.get(key), []).append(row)
        return {k: Frame(v) for k, v in groups.items()}

    def unique(self, name: str) -> List[object]:
        """Distinct values of one column, in first-seen order."""
        seen: Dict[object, None] = {}
        for value in self.column(name):
            seen.setdefault(value, None)
        return list(seen)

    def to_records(self) -> List[Dict[str, object]]:
        return [dict(r) for r in self.rows]

    def to_pandas(self):
        """These rows as a ``pandas.DataFrame`` (pandas required).

        Raises a :class:`RuntimeError` with an actionable message when
        pandas is not installed -- the rest of the reporting pipeline
        never needs it.
        """
        try:
            import pandas
        except ImportError as exc:
            raise RuntimeError(
                "pandas is not installed; Frame.to_records() gives the same "
                "rows dependency-free"
            ) from exc
        return pandas.DataFrame(self.rows)


# -- normalizers over a discovered tree --------------------------------------


def epochs_frame(tree: ArtifactTree) -> Frame:
    """Every epoch row in the tree, tagged with its run directory."""
    rows = []
    for run in tree.runs:
        for row in run.epochs:
            rows.append({"run_dir": run.name, **row})
    return Frame(rows)


def events_frame(tree: ArtifactTree) -> Frame:
    rows = []
    for run in tree.runs:
        for event in run.events:
            rows.append({"run_dir": run.name, **event})
    return Frame(rows)
