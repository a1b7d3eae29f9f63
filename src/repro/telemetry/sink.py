"""Streaming JSONL trace export with bounded memory.

A :class:`JsonlTraceSink` takes its tracer's line-writer slot
(:meth:`~repro.sim.trace.Tracer.attach_writer`) and turns each event into
one JSON line the moment it is emitted.  High-frequency event kinds can be
sampled (``sample_every=k`` keeps every k-th event per kind); the trailing
``trace.summary`` record carries the exact per-kind emit counts from the
tracer so reports can rescale sampled quantities.

Encoding: the sink compiles one ``%``-template per line shape — event kind
plus field names, in emission order — and fills it with the primitives the
``json`` module itself uses for scalars (``int.__repr__``,
``float.__repr__`` with the ``Infinity``/``NaN`` spellings,
``encode_basestring_ascii``, ``null``, ``true``/``false``).  Any other value
(numpy scalars and arrays, enums, ``str``/``int`` subclasses, containers)
and a field named ``t`` send the whole line through
``json.dumps(..., default=_jsonable)``, so every line is byte-for-byte what
``json.dumps({"t": t, "kind": kind, **fields}, default=_jsonable)`` gives.

Buffering and crash semantics: every line is encoded to a ``str`` at emit
time, so the sink never holds a field value and later mutation of an
emitted object cannot change the trace.  Encoded lines collect in a list
and reach the file in one ``write`` plus ``flush`` every
:data:`FLUSH_INTERVAL` lines, which bounds the sink's memory to that many
lines.  :meth:`JsonlTraceSink.close` writes the rest and the summary.  A
sink dropped without ``close`` is drained by a ``weakref.finalize`` when it
is collected (or at interpreter exit): every emitted line reaches the file,
only the summary is missing.  A process killed outright loses at most the
last ``FLUSH_INTERVAL - 1`` lines; :func:`iter_trace` tolerates the
truncated final line such a kill can leave.

File format, one JSON object per line:

* line 1 — ``{"kind": "trace.meta", "version": 1, ...}``
* body  — ``{"t": <sim time>, "kind": ..., <event fields>}``
* last  — ``{"kind": "trace.summary", "counters": {...}, ...}``

:func:`read_trace` is the matching loader.
"""

from __future__ import annotations

import json
import weakref
from json.encoder import encode_basestring_ascii
from typing import IO, Any, Callable, Iterator

from repro.sim.trace import TraceRecord, Tracer

TRACE_FORMAT_VERSION = 1

#: Write buffered lines to disk every this many lines, so a crashed or
#: abandoned run still leaves a usable trace behind.
FLUSH_INTERVAL = 1000


_INF = float("inf")


def _encode_float(value: float) -> str:
    """``json``'s own float spelling (``floatstr`` in ``json.encoder``)."""
    if value != value:
        return "NaN"
    if value == _INF:
        return "Infinity"
    if value == -_INF:
        return "-Infinity"
    return float.__repr__(value)


#: JSON text of a scalar, keyed by its *exact* type; a missing type is the
#: signal to fall back to ``json.dumps``.
_ENCODE: dict[type, Callable[[Any], str]] = {
    int: int.__repr__,
    float: _encode_float,
    str: encode_basestring_ascii,
    bool: ("false", "true").__getitem__,
    type(None): {None: "null"}.__getitem__,
}


def _line_template(kind: str, keys: tuple[Any, ...]) -> str:
    """The ``%``-template of one line shape, or ``""`` when the shape needs
    ``json.dumps`` (a non-``str`` kind or key, or a key shadowing
    ``t``/``kind``)."""
    if any(type(key) is not str for key in (kind, *keys)) or "t" in keys or "kind" in keys:
        return ""
    parts = ['{"t": %s, "kind": ', encode_basestring_ascii(kind).replace("%", "%%")]
    for key in keys:
        parts.append(", " + encode_basestring_ascii(key).replace("%", "%%") + ": %s")
    parts.append("}\n")
    return "".join(parts)


def _drain(file: IO[str], buffer: list[str]) -> None:
    """Write the buffered lines and close the file (the sink's finalizer)."""
    if buffer:
        file.write("".join(buffer))
        buffer.clear()
    file.close()


class JsonlTraceSink:
    """Streams trace records to a JSONL file as they are emitted."""

    def __init__(
        self,
        path: str,
        tracer: Tracer,
        sample_every: int = 1,
        sampled_prefixes: tuple[str, ...] = ("msg.", "heartbeat."),
    ) -> None:
        if sample_every < 1:
            raise ValueError(f"sample_every must be >= 1, got {sample_every}")
        self.path = str(path)
        self.sample_every = sample_every
        self.sampled_prefixes = tuple(sampled_prefixes)
        self.written = 0
        self.skipped = 0
        self._seen: dict[str, int] = {}
        self._tracer = tracer
        self._closed = False
        self._templates: dict[tuple[Any, ...], str] = {}
        self._buffer: list[str] = []
        self._file = open(self.path, "w", encoding="utf-8")
        # Holds the file and the buffer, never the sink, so an unclosed
        # sink can still be collected — and drains when it is.
        self._finalizer = weakref.finalize(self, _drain, self._file, self._buffer)
        self._put(
            {
                "kind": "trace.meta",
                "version": TRACE_FORMAT_VERSION,
                "sample_every": sample_every,
                "sampled_prefixes": list(self.sampled_prefixes),
            }
        )
        tracer.attach_writer(self)

    # ------------------------------------------------------------------
    # Event handling
    # ------------------------------------------------------------------
    def write(self, time: float, kind: str, fields: dict[str, Any]) -> None:
        """Encode one event as a line (the tracer's direct route)."""
        if self.sample_every > 1 and kind.startswith(self.sampled_prefixes):
            seen = self._seen.get(kind, 0)
            self._seen[kind] = seen + 1
            if seen % self.sample_every:
                self.skipped += 1
                return
        key = (kind, *fields)
        template = self._templates.get(key)
        if template is None:
            template = self._templates[key] = _line_template(kind, key[1:])
        encode = _ENCODE
        try:
            if not template:  # a shape only json.dumps can spell
                raise KeyError(kind)
            line = template % (
                encode[type(time)](time),
                *[encode[type(value)](value) for value in fields.values()],
            )
        except KeyError:  # also: a value with no scalar encoder
            line = json.dumps({"t": time, "kind": kind, **fields}, default=_jsonable) + "\n"
        # The tail of ``_put``, inlined: this runs once per traced event.
        self._buffer.append(line)
        self.written = written = self.written + 1
        if not written % FLUSH_INTERVAL:
            self._flush()

    def on_record(self, record: TraceRecord) -> None:
        """Encode one event as a line (the tracer's record dispatch)."""
        if not self._closed:
            self.write(record.time, record.kind, record.fields)

    def _put(self, obj: dict[str, Any]) -> None:
        """Buffer one non-event line (the meta and summary records)."""
        self._buffer.append(json.dumps(obj, default=_jsonable) + "\n")
        self.written += 1
        if not self.written % FLUSH_INTERVAL:
            self._flush()

    def _flush(self) -> None:
        self._file.write("".join(self._buffer))
        self._buffer.clear()
        self._file.flush()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Detach, append the summary record, and close the file.

        Idempotent; the summary's ``counters`` are the tracer's exact
        per-kind emit counts (unaffected by sampling).
        """
        if self._closed:
            return
        self._closed = True
        self._tracer.detach_writer(self)
        self._put(
            {
                "kind": "trace.summary",
                "counters": dict(self._tracer.counters),
                "written": self.written,
                "skipped": self.skipped,
                "sample_every": self.sample_every,
            }
        )
        self._finalizer()

    def __enter__(self) -> "JsonlTraceSink":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def _jsonable(value: Any) -> Any:
    """Last-resort JSON coercion for numpy scalars/arrays and enums."""
    if hasattr(value, "tolist"):  # numpy scalars and arrays alike
        return value.tolist()
    if hasattr(value, "item"):
        return value.item()
    if hasattr(value, "value"):
        return value.value
    return str(value)


def read_trace(path: str) -> list[dict[str, Any]]:
    """Load every record of a JSONL trace (meta and summary included)."""
    return list(iter_trace(path))


def iter_trace(path: str) -> Iterator[dict[str, Any]]:
    """Stream a JSONL trace one record at a time (bounded memory).

    A malformed *final* line is silently dropped — that is what a killed
    run leaves mid-write, and the rest of the trace is still good.  A
    malformed line anywhere else raises :class:`ValueError` with the
    line number, because it means the file is corrupt, not truncated.
    """
    with open(path, "r", encoding="utf-8") as handle:
        pending_error: ValueError | None = None
        for lineno, line in enumerate(handle, start=1):
            if pending_error is not None:
                raise pending_error
            line = line.strip()
            if not line:
                continue
            try:
                yield json.loads(line)
            except json.JSONDecodeError as error:
                pending_error = ValueError(
                    f"{path}:{lineno}: malformed trace line ({error})"
                )
