"""CLI progress rendering as an event-log subscriber.

:class:`ProgressLine` subscribes to the in-process event stream and
redraws one carriage-return line from ``campaign.point`` events — the
sweep progress the CLI used to print from a bespoke path inside its
consume loop.  Routing it through the event log means every producer
of points (serial executor, parallel executor, evaluation service) drives
the same renderer, :meth:`close` *guarantees* the final newline, and
:meth:`clear` lets ``repro serve`` wipe the line before printing its
stats table so the two never interleave mid-row.
"""

from __future__ import annotations

import sys
from typing import TextIO

from . import events

__all__ = ["ProgressLine"]


class ProgressLine:
    """Render campaign progress events as a single rewriting line."""

    def __init__(self, stream: TextIO | None = None):
        self._stream = stream if stream is not None else sys.stderr
        self._width = 0
        self._dirty = False
        self._closed = False

    # -- subscriber lifecycle ---------------------------------------------
    def __enter__(self) -> "ProgressLine":
        events.subscribe(self)
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __call__(self, event: dict) -> None:
        if event.get("event") != "campaign.point":
            return
        done = event.get("done", "?")
        total = event.get("total", "?")
        label = event.get("kernel", "")
        scenario = event.get("scenario", "")
        suffix = " (cached)" if event.get("cache_hit") else ""
        self.update(f"  [{done}/{total}] {label} {scenario}{suffix}")

    # -- rendering --------------------------------------------------------
    def update(self, line: str) -> None:
        if self._closed:
            return
        self._width = max(self._width, len(line))
        try:
            print(
                f"\r{line.ljust(self._width)}",
                end="",
                file=self._stream,
                flush=True,
            )
        except (OSError, ValueError):  # closed/broken stream
            return
        self._dirty = True

    def clear(self) -> None:
        """Blank the line (e.g. before printing a table over it)."""
        if self._dirty:
            try:
                print(
                    "\r" + " " * self._width + "\r",
                    end="",
                    file=self._stream,
                    flush=True,
                )
            except (OSError, ValueError):
                pass
            self._dirty = False

    def close(self) -> None:
        """Detach from the event stream and end the line cleanly."""
        if self._closed:
            return
        events.unsubscribe(self)
        if self._dirty:
            try:
                print(file=self._stream, flush=True)
            except (OSError, ValueError):
                pass
            self._dirty = False
        self._closed = True
