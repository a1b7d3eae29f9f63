"""Span-tree reconstruction and critical-path attribution.

The live system only ever *emits* ``span.open`` / ``span.close`` records
(:mod:`repro.telemetry.spans`); this module is the offline half: it joins
the two record streams back into :class:`SpanNode` trees and answers the
question the paper's cost tables cannot — *which chain of peers, links
and phases did the end-to-end latency actually sit on?*

The critical path of a span is computed by a backward walk in simulated
time.  Standing at ``cursor`` (initially the span's close time), the
walk asks "what was the last input to finish before this point?" — an
input being a child span or the recorded ``cause`` link (the last
delivery that completed a convergecast merge).  The gap between that
input's end and the cursor is attributed to the current span (it was the
one working, or waiting on nothing); then the walk descends into the
input and repeats.  A span with no inputs before the cursor absorbs the
gap down to its own open time and the walk climbs to its opener.  The
segments produced this way telescope — each starts exactly where the
previous one ended — so their durations sum to the root span's
end-to-end latency by construction, whatever shape the tree has.

Byte attribution rides along: every ``wire.msg`` span carries its priced
size, so a path, a phase subtree, or a hierarchy level can each report
the bytes that moved on it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable

#: Spans of these kinds are protocol phases for the per-phase table.
PHASE_KINDS = (
    "totals.phase",
    "filter.phase",
    "verify.phase",
)


@dataclass
class SpanNode:
    """One reconstructed span (an open/close pair from the trace)."""

    sid: int
    kind: str
    parent: int
    start: float
    peer: int | None = None
    end: float | None = None
    status: str = "open"
    cause: int = 0
    #: Extra fields from the open record (depth, size, session, ...).
    fields: dict[str, Any] = field(default_factory=dict)
    #: Extra fields from the close record (covered, latency, reason, ...).
    close_fields: dict[str, Any] = field(default_factory=dict)

    @property
    def closed(self) -> bool:
        return self.end is not None

    @property
    def duration(self) -> float:
        """Simulated lifetime (0.0 while open)."""
        return 0.0 if self.end is None else self.end - self.start

    @property
    def size(self) -> int:
        """Wire bytes carried (non-zero for ``wire.msg`` spans only)."""
        return int(self.fields.get("size", 0))

    def label(self) -> str:
        """Short human-readable identity for tables."""
        if self.kind == "wire.msg":
            return (
                f"wire {self.fields.get('sender', '?')}"
                f"→{self.fields.get('recipient', '?')} "
                f"{self.fields.get('payload_kind', '?')}"
            )
        if self.peer is not None:
            return f"{self.kind} @peer {self.peer}"
        return self.kind


_OPEN_ONLY_FIELDS = frozenset({"span", "parent", "span_kind", "peer"})
_CLOSE_ONLY_FIELDS = frozenset({"span", "span_kind", "status", "cause"})


def collect_spans(records: Iterable[dict[str, Any]]) -> dict[int, SpanNode]:
    """Join ``span.open`` / ``span.close`` trace records into span nodes.

    Close records without a matching open (a truncated trace) are
    ignored; opens without a close stay ``status="open"`` — a finished
    trace never contains those (``SpanTracker.finish`` sweeps them), so
    their presence means the run was killed mid-flight.
    """
    spans: dict[int, SpanNode] = {}
    for record in records:
        kind = record.get("kind")
        if kind == "span.open":
            sid = int(record["span"])
            spans[sid] = SpanNode(
                sid=sid,
                kind=str(record.get("span_kind", "?")),
                parent=int(record.get("parent", 0)),
                start=float(record.get("t", 0.0)),
                peer=record.get("peer"),
                fields={
                    key: value
                    for key, value in record.items()
                    if key not in _OPEN_ONLY_FIELDS and key not in ("t", "kind")
                },
            )
        elif kind == "span.close":
            node = spans.get(int(record["span"]))
            if node is None:
                continue
            node.end = float(record.get("t", node.start))
            node.status = str(record.get("status", "ok"))
            node.cause = int(record.get("cause", 0))
            node.close_fields = {
                key: value
                for key, value in record.items()
                if key not in _CLOSE_ONLY_FIELDS and key not in ("t", "kind")
            }
    return spans


def children_of(spans: dict[int, SpanNode]) -> dict[int, list[SpanNode]]:
    """Structural child index (open-order preserved by span-id order)."""
    index: dict[int, list[SpanNode]] = {}
    for node in spans.values():
        index.setdefault(node.parent, []).append(node)
    for siblings in index.values():
        siblings.sort(key=lambda n: n.sid)
    return index


def sessions(spans: dict[int, SpanNode]) -> list[SpanNode]:
    """All ``agg.session`` spans, in open order."""
    return sorted(
        (n for n in spans.values() if n.kind == "agg.session"),
        key=lambda n: n.sid,
    )


@dataclass
class PathSegment:
    """One attributed slice of a critical path: ``span`` owned the
    interval ``[start, end]`` (nothing it was waiting on finished later
    than ``start``)."""

    span: SpanNode
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


def critical_path(
    spans: dict[int, SpanNode],
    root_id: int,
    children: dict[int, list[SpanNode]] | None = None,
) -> list[PathSegment]:
    """The dominant causal chain under the span ``root_id``.

    Returns segments ordered backward in time (root's close first); the
    segments are contiguous — each starts where the next one ends — and
    cover exactly ``[root.start, root.end]``, so their durations sum to
    the root's end-to-end latency.  Zero-length segments are dropped.

    Open (never closed) spans cannot anchor a walk; asking for one
    raises ``ValueError``.
    """
    root = spans[root_id]
    if root.end is None:
        raise ValueError(f"span {root_id} ({root.kind}) never closed")
    if children is None:
        children = children_of(spans)
    segments: list[PathSegment] = []
    visited: set[int] = set()
    current = root
    cursor = root.end
    while True:
        visited.add(current.sid)
        # Inputs: the recorded cause plus structural children; viable ones
        # finished inside (current.start, cursor] — i.e. they could have
        # been the thing current was last waiting on.
        candidates: list[SpanNode] = []
        cause = spans.get(current.cause)
        if cause is not None:
            candidates.append(cause)
        candidates.extend(children.get(current.sid, ()))
        viable = [
            node
            for node in candidates
            if node.sid not in visited
            and node.end is not None
            and current.start < node.end <= cursor
        ]
        if viable:
            blocker = max(viable, key=lambda n: (n.end, n.sid))
            assert blocker.end is not None
            if cursor > blocker.end:
                segments.append(PathSegment(current, blocker.end, cursor))
            current = blocker
            cursor = blocker.end
            continue
        # Nothing blocked current before the cursor: it owns the interval
        # back to its own start (clamped to the walk's window), then the
        # walk climbs to whatever opened it.
        start = max(current.start, root.start)
        if cursor > start:
            segments.append(PathSegment(current, start, cursor))
        cursor = start
        if cursor <= root.start:
            return segments
        parent = spans.get(current.parent)
        if parent is None:
            # Walk surface exhausted without reaching the window start
            # (a cause link escaped the root's subtree): absorb the
            # remainder into the root so the telescoping still holds.
            segments.append(PathSegment(root, root.start, cursor))
            return segments
        # Climbing may revisit ancestors already on the path — that is
        # fine (``visited`` only gates descents, so the walk never
        # re-enters a span it already attributed): parent ids are always
        # smaller than child ids, so climb chains terminate.
        current = parent


def path_bytes(segments: Iterable[PathSegment]) -> int:
    """Wire bytes carried by the spans on a critical path."""
    return sum(seg.span.size for seg in segments)


def _subtree_reduce(
    node: SpanNode, children: dict[int, list[SpanNode]]
) -> tuple[int, int]:
    """``(bytes, wire messages)`` summed over a span's whole subtree."""
    total_bytes = 0
    total_msgs = 0
    stack = [node]
    while stack:
        span = stack.pop()
        if span.kind == "wire.msg":
            total_bytes += span.size
            total_msgs += 1
        stack.extend(children.get(span.sid, ()))
    return total_bytes, total_msgs


def per_phase_attribution(
    spans: dict[int, SpanNode],
    children: dict[int, list[SpanNode]] | None = None,
) -> list[dict[str, Any]]:
    """One row per protocol phase span: latency plus subtree bytes.

    ``sessions`` counts the aggregation sessions issued inside the phase
    (recovery re-issues show up as extra sessions on the same phase).
    """
    if children is None:
        children = children_of(spans)
    rows = []
    for node in sorted(spans.values(), key=lambda n: n.sid):
        if node.kind not in PHASE_KINDS:
            continue
        total_bytes, total_msgs = _subtree_reduce(node, children)
        n_sessions = sum(
            1 for child in children.get(node.sid, ()) if child.kind == "agg.session"
        )
        rows.append(
            {
                "phase": node.kind,
                "status": node.status,
                "sim time": node.duration,
                "sessions": n_sessions,
                "messages": total_msgs,
                "bytes": total_bytes,
            }
        )
    return rows


def per_level_attribution(
    spans: dict[int, SpanNode],
    children: dict[int, list[SpanNode]] | None = None,
) -> list[dict[str, Any]]:
    """Convergecast cost by hierarchy depth, from ``agg.node`` spans.

    ``bytes`` counts the wire spans *directly caused* by each node span
    (its request fan-out and its reply), so levels partition the traffic
    rather than double-counting whole subtrees.
    """
    if children is None:
        children = children_of(spans)
    levels: dict[int, dict[str, Any]] = {}
    for node in spans.values():
        if node.kind != "agg.node":
            continue
        depth = int(node.fields.get("depth", -1))
        row = levels.get(depth)
        if row is None:
            row = levels[depth] = {
                "depth": depth,
                "nodes": 0,
                "errors": 0,
                "sim time": 0.0,
                "max time": 0.0,
                "bytes": 0,
            }
        row["nodes"] += 1
        if node.status != "ok":
            row["errors"] += 1
        row["sim time"] += node.duration
        row["max time"] = max(row["max time"], node.duration)
        row["bytes"] += sum(
            child.size
            for child in children.get(node.sid, ())
            if child.kind == "wire.msg"
        )
    return [levels[d] for d in sorted(levels)]


def status_summary(spans: dict[int, SpanNode]) -> dict[str, int]:
    """Span counts by close status (``open`` = never closed)."""
    out: dict[str, int] = {}
    for node in spans.values():
        out[node.status] = out.get(node.status, 0) + 1
    return out
