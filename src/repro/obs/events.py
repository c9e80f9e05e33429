"""Structured JSON-lines event log with per-process files.

The sink is configured from ``REPRO_OBS=jsonl:<stem>`` (or
programmatically via :func:`configure`); every process — the campaign
parent, ``multiprocessing`` pool workers, ``repro serve`` pool
workers, remote fleet workers — appends to its own
``<stem>-<host>-<pid>.jsonl`` so no file is ever shared across
processes *or hosts* (two machines sharing one store root can reuse a
pid; the hostname prefix keeps their telemetry apart), as the store
names the temp files of its writes.  :func:`merge` concatenates the
per-process files into ``<stem>.jsonl`` in timestamp order *without*
deleting the sources: long-lived service workers keep their file
handles open, and deleting under them would silently drop events from
the next campaign.  Identical records are merged once, so re-merging
an already-merged stem is idempotent.

When no sink and no in-process subscriber is active, :func:`emit`
returns immediately after one boolean check — instrumentation in hot
paths stays ~free.
"""

from __future__ import annotations

import atexit
import json
import os
import threading
import time
from pathlib import Path
from typing import Callable, Iterator

from .._files import HOST, write_once

__all__ = [
    "active",
    "configure",
    "emit",
    "event_path",
    "merge",
    "read_events",
    "subscribe",
    "unsubscribe",
]

_ENV = "REPRO_OBS"

#: This host's name as file names spell it: it prefixes per-process
#: sink filenames and span ids so telemetry merged across hosts sharing
#: one store root can never collide on a reused pid.
HOSTNAME = HOST

_lock = threading.Lock()
#: merged-log stem (``<stem>.jsonl`` after merge); None → sink disabled
_stem: Path | None = None
#: raw env value the current configuration was parsed from, so a
#: changed environment (tests, spawned workers) reconfigures lazily
_env_seen: str | None = None
#: True once :func:`configure` pinned the sink regardless of the env
_pinned = False
_fh = None
_fh_pid: int | None = None
_subscribers: list[Callable[[dict], None]] = []


def _parse(spec: str) -> Path:
    """``jsonl:<stem>`` → stem path (a trailing ``.jsonl`` is shed)."""
    scheme, _, rest = spec.partition(":")
    if scheme != "jsonl" or not rest:
        raise ValueError(
            f"unsupported {_ENV} spec {spec!r} (expected 'jsonl:<path>')"
        )
    stem = Path(rest)
    if stem.suffix == ".jsonl":
        stem = stem.with_suffix("")
    return stem


def configure(spec: str | None) -> None:
    """Set the event sink: ``"jsonl:<stem>"`` enables, ``None`` disables.

    An explicit call pins the configuration — later changes to the
    ``REPRO_OBS`` environment variable are ignored until
    ``configure(None)`` unpins (which also re-arms env auto-detection).
    """
    global _stem, _pinned, _env_seen
    with _lock:
        _close_sink()
        if spec:
            _stem = _parse(spec)
            _pinned = True
        else:
            _stem = None
            _pinned = False
            _env_seen = None


def _sync_env() -> None:
    """Adopt ``REPRO_OBS`` from the environment when not pinned."""
    global _stem, _env_seen
    env = os.environ.get(_ENV)
    if env == _env_seen:
        return
    with _lock:
        if _pinned or env == _env_seen:
            return
        _env_seen = env
        _close_sink()
        _stem = _parse(env) if env else None


def active() -> bool:
    """True when events go somewhere (file sink or subscriber)."""
    if _subscribers:
        return True
    if not _pinned:
        _sync_env()
    return _stem is not None


def event_path() -> Path | None:
    """Per-process sink path for the current configuration (or None)."""
    if not active() or _stem is None:
        return None
    return _stem.parent / f"{_stem.name}-{HOSTNAME}-{os.getpid()}.jsonl"


def _close_sink() -> None:
    """Close the sink handle, if any (the caller holds ``_lock``)."""
    global _fh, _fh_pid
    if _fh is not None:
        try:
            _fh.close()
        except OSError:
            pass
    _fh = None
    _fh_pid = None


@atexit.register
def _close_at_exit() -> None:
    """Close the sink at interpreter exit, in the process that opened
    it: a forked child that never emitted holds its parent's handle."""
    with _lock:
        if _fh_pid == os.getpid():
            _close_sink()


def _sink():
    """This process's open sink handle (reopened after ``fork``)."""
    global _fh, _fh_pid
    pid = os.getpid()
    if _fh is not None and _fh_pid == pid:
        return _fh
    with _lock:
        if _fh is not None and _fh_pid == pid:
            return _fh
        # None, or inherited across fork (the parent owns that one)
        path = _stem.parent / f"{_stem.name}-{HOSTNAME}-{pid}.jsonl"
        path.parent.mkdir(parents=True, exist_ok=True)
        _fh = open(path, "a", encoding="utf-8")
        _fh_pid = pid
        return _fh


def emit(event: str, **fields: object) -> None:
    """Record one structured event (no-op when nothing listens).

    Failures to write are swallowed: telemetry must never take down
    an evaluation.
    """
    if not active():
        return
    record = {
        "ts": time.time(),
        "host": HOSTNAME,
        "pid": os.getpid(),
        "event": event,
    }
    record.update(fields)
    for fn in list(_subscribers):
        try:
            fn(record)
        except Exception:
            pass
    if _stem is None:
        return
    try:
        fh = _sink()
        fh.write(json.dumps(record, default=str) + "\n")
        fh.flush()
    except OSError:
        pass


def subscribe(fn: Callable[[dict], None]) -> None:
    """Add an in-process subscriber called with every event dict."""
    if fn not in _subscribers:
        _subscribers.append(fn)


def unsubscribe(fn: Callable[[dict], None]) -> None:
    if fn in _subscribers:
        _subscribers.remove(fn)


def read_events(path: str | os.PathLike) -> Iterator[dict]:
    """Parse a JSONL event file, skipping torn/invalid lines."""
    path = Path(path)
    if not path.exists():
        return
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue
            if isinstance(record, dict):
                yield record


def merge(stem: str | os.PathLike | None = None) -> Path | None:
    """Merge every ``<stem>-<host>-<pid>.jsonl`` into ``<stem>.jsonl``.

    Events are ordered by timestamp across processes and hosts.
    Source files are left in place (open handles in long-lived workers
    stay valid); the merged file is rewritten from scratch each call
    and *identical records are kept once*, so merging is idempotent
    even when a part file is itself the product of an earlier merge
    over a narrower stem (``events-hostA.jsonl`` matching the
    ``events-*`` glob must not double its records).  Returns the
    merged path, or ``None`` when no sink is configured and no
    ``stem`` was given.
    """
    if stem is None:
        if not active() or _stem is None:
            return None
        base = _stem
    else:
        base = Path(stem)
        if base.suffix == ".jsonl":
            base = base.with_suffix("")
    merged = base.parent / f"{base.name}.jsonl"
    parts = sorted(base.parent.glob(f"{base.name}-*.jsonl"))
    events: list[dict] = []
    seen: set[str] = set()
    for part in parts:
        if part == merged:
            continue
        for record in read_events(part):
            canon = json.dumps(record, sort_keys=True, default=str)
            if canon in seen:
                continue
            seen.add(canon)
            events.append(record)
    events.sort(key=lambda e: e.get("ts", 0.0))
    # Each write has its own temp, so concurrent merges (two
    # ``repro obs`` commands on one stem) never replace each other's
    # temp file out from underneath — last atomic rename simply wins.
    lines = "".join(json.dumps(e, default=str) + "\n" for e in events)
    return write_once(merged, lambda fh: fh.write(lines.encode("utf-8")))
