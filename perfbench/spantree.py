"""Spans written by ``traced_daemon.py``: the tree, self times, nesting."""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional

from benchstats import self_time

#: Allowed slack (s) when checking that a child lies inside its parent.
NESTING_SLACK_S = 1e-6


class Span(NamedTuple):
    id: int
    parent: Optional[int]
    name: str
    rid: Optional[str]
    start: float
    end: float
    n: Optional[int]

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanTree:
    def __init__(self, spans: List[Span], windows: Dict[int, List[Optional[str]]]) -> None:
        self.spans = {span.id: span for span in spans}
        self.windows = windows
        self.children: Dict[int, List[Span]] = defaultdict(list)
        self.by_name: Dict[str, List[Span]] = defaultdict(list)
        for span in spans:
            self.by_name[span.name].append(span)
            if span.parent is not None:
                self.children[span.parent].append(span)

    @classmethod
    def load(cls, path: Path, start: float, end: float) -> "SpanTree":
        """The spans of ``path`` that lie within ``[start, end]``.

        A span whose parent falls outside the interval is dropped with
        it, so the kept spans form whole subtrees.
        """
        payload = json.loads(Path(path).read_text())
        kept: Dict[int, Span] = {}
        for row in sorted(payload["spans"]):
            span = Span(*row)
            if start <= span.start and span.end <= end and (
                span.parent is None or span.parent in kept
            ):
                kept[span.id] = span
        windows = {
            int(key): tags for key, tags in payload["windows"].items() if int(key) in kept
        }
        return cls(list(kept.values()), windows)

    def self_time(self, span: Span) -> float:
        return self_time(
            span.start, span.end, ((c.start, c.end) for c in self.children.get(span.id, ()))
        )

    def durations(self, name: str) -> List[float]:
        return [span.duration for span in self.by_name.get(name, ())]

    def total(self, name: str) -> float:
        return sum(self.durations(name))

    def total_self(self, name: str) -> float:
        return sum(self.self_time(span) for span in self.by_name.get(name, ()))

    def count(self, name: str) -> int:
        return len(self.by_name.get(name, ()))

    def nesting_violations(self) -> List[str]:
        """Children outside their parent, or siblings that overlap.

        When neither occurs, every span's self time plus its children's
        durations adds up to its own duration.
        """
        problems = []
        for parent_id, children in self.children.items():
            parent = self.spans.get(parent_id)
            if parent is None:
                problems.append(f"span {children[0].id} has unknown parent {parent_id}")
                continue
            previous_end = None
            for child in sorted(children, key=lambda c: c.start):
                if (
                    child.start < parent.start - NESTING_SLACK_S
                    or child.end > parent.end + NESTING_SLACK_S
                ):
                    problems.append(f"{child.name} {child.id} outside {parent.name} {parent.id}")
                if previous_end is not None and child.start < previous_end - NESTING_SLACK_S:
                    problems.append(f"{child.name} {child.id} overlaps a sibling in {parent.name}")
                previous_end = child.end if previous_end is None else max(previous_end, child.end)
        return problems

    def descendants(self, span: Span, name: str) -> int:
        """How many spans called ``name`` lie below ``span``."""
        found = 0
        stack = list(self.children.get(span.id, ()))
        while stack:
            child = stack.pop()
            found += child.name == name
            stack.extend(self.children.get(child.id, ()))
        return found
