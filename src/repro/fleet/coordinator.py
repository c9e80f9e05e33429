"""Fleet scheduling state: campaigns, job leases, fairness, retries.

Pure bookkeeping — no sockets, no store I/O, no locks — so every
scheduling decision is unit-testable.  The server owns one instance
and calls it only under its one condition variable, so connection
threads never see it half-updated.

Scheduling rules:

* **round-robin fairness** — :meth:`FleetCoordinator.next_job` serves
  campaigns with pending work alternately (the program's only
  rotation: the in-process :class:`~repro.engine.service.EvalService`
  needs none, since each campaign keeps just a small window of jobs
  in its arrival-ordered pool): a 10⁵-point grid admitted first
  cannot starve a later one-kernel campaign behind its whole backlog;
* **worker leases** — a handed-out job is charged to its worker
  connection; :meth:`worker_lost` requeues everything a vanished
  worker still owed, at the *front* of the campaign (recovered points
  finish before fresh tail work starts);
* **attempt caps** — a point that failed ``max_attempts`` times stops
  retrying and is recorded as a structured failure on its campaign
  (state ``failed``), so one poisoned point cannot wedge the queue;
* **admission control** — ``max_campaigns`` bounds concurrently open
  campaigns: one with pending or running work.  A finished campaign
  frees its slot but stays known, so ``status`` and ``wait`` still
  answer for it; re-submitting a known digest is idempotent
  (re-acked, never duplicated).
"""

from __future__ import annotations

import collections
from dataclasses import dataclass, field
from typing import Any, Mapping

from ..engine import CampaignSpec

__all__ = ["FleetCoordinator", "SaturatedError"]


class SaturatedError(RuntimeError):
    """Admission refused: ``max_campaigns`` campaigns already open."""


@dataclass
class _Campaign:
    spec: CampaignSpec
    digest: str
    total: int
    pending: collections.deque = field(default_factory=collections.deque)
    #: job_id -> (index, worker_id)
    running: dict[str, tuple[int, str]] = field(default_factory=dict)
    attempts: dict[int, int] = field(default_factory=dict)
    #: index -> final error, once the attempt cap is spent
    failures: dict[int, str] = field(default_factory=dict)
    done: int = 0

    @property
    def finished(self) -> bool:
        return not self.pending and not self.running

    @property
    def state(self) -> str:
        if not self.finished:
            return "running"
        return "failed" if self.failures else "done"

    def status(self) -> dict[str, Any]:
        return {
            "campaign": self.digest,
            "name": self.spec.name,
            "state": self.state,
            "total": self.total,
            "done": self.done,
            "pending": len(self.pending),
            "running": len(self.running),
            "failures": {
                str(i): err for i, err in sorted(self.failures.items())
            },
        }


class FleetCoordinator:
    """The scheduling brain shared by every fleet-server connection."""

    def __init__(
        self,
        *,
        max_attempts: int = 3,
        max_campaigns: int | None = None,
    ) -> None:
        if max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        if max_campaigns is not None and max_campaigns < 1:
            raise ValueError("max_campaigns must be at least 1")
        self.max_attempts = max_attempts
        self.max_campaigns = max_campaigns
        self._campaigns: dict[str, _Campaign] = {}
        #: digests with pending work, each exactly once, service order
        self._rotation: collections.deque[str] = collections.deque()
        self._jobs_handed = 0
        self._requeued = 0

    # -- admission -------------------------------------------------------------
    def submit(self, spec: CampaignSpec) -> dict[str, Any]:
        """Admit one campaign; idempotent on its digest.

        Returns ``{"campaign", "points", "known"}`` — ``known`` is
        True when this digest was already admitted (the spec is not
        enqueued twice).  Raises :class:`SaturatedError` while
        ``max_campaigns`` campaigns are open; a finished one no longer
        counts.
        """
        digest = spec.digest
        existing = self._campaigns.get(digest)
        if existing is not None:
            return {
                "campaign": digest,
                "points": existing.total,
                "known": True,
            }
        if self.max_campaigns is not None:
            open_ = sum(
                1 for c in self._campaigns.values() if not c.finished
            )
            if open_ >= self.max_campaigns:
                raise SaturatedError(
                    f"{open_} campaigns already open "
                    f"(max_campaigns={self.max_campaigns})"
                )
        campaign = _Campaign(spec=spec, digest=digest, total=spec.n_points)
        campaign.pending.extend(range(spec.n_points))
        self._campaigns[digest] = campaign
        self._rotation.append(digest)
        return {"campaign": digest, "points": campaign.total, "known": False}

    # -- the job loop ----------------------------------------------------------
    def next_job(self, worker_id: str) -> dict[str, Any] | None:
        """Hand one point to ``worker_id`` (round-robin), or ``None``.

        The returned document carries everything a worker needs to
        evaluate the point against the shared store: the campaign's
        digest and full spec, and the point's index into the spec's
        canonical ``points()`` enumeration.
        """
        while self._rotation:
            digest = self._rotation[0]
            campaign = self._campaigns.get(digest)
            if campaign is None or not campaign.pending:
                self._rotation.popleft()  # stale entry: retired below
                continue
            index = campaign.pending.popleft()
            # Rotate: this campaign goes to the back (or leaves the
            # rotation until a requeue refills it).
            self._rotation.popleft()
            if campaign.pending:
                self._rotation.append(digest)
            attempt = campaign.attempts.get(index, 0) + 1
            campaign.attempts[index] = attempt
            self._jobs_handed += 1
            # The serial (not the attempt) makes the id unique across a
            # worker_lost requeue, which resets the attempt counter: a
            # zombie worker's late ``done`` for the lost hand-out must
            # not settle the re-handed job.
            job_id = f"{digest[:16]}:{index}:{self._jobs_handed}"
            campaign.running[job_id] = (index, worker_id)
            return {
                "job_id": job_id,
                "campaign": digest,
                "index": index,
                "attempt": attempt,
                "spec": campaign.spec.to_dict(),
            }
        return None

    def complete(
        self, job_id: str, *, ok: bool, error: str | None = None
    ) -> dict[str, Any] | None:
        """Settle one handed-out job; returns the campaign's status.

        Failures requeue at the front until the point's attempt cap is
        spent, then land in the campaign's structured ``failures``.
        Unknown job ids (a worker finishing work the server already
        requeued after a disconnect) are acknowledged as ``None`` —
        the store made the duplicate harmless, so the protocol does
        not escalate it.
        """
        for campaign in self._campaigns.values():
            entry = campaign.running.pop(job_id, None)
            if entry is None:
                continue
            index, _worker = entry
            if ok:
                campaign.done += 1
            elif campaign.attempts.get(index, 0) >= self.max_attempts:
                campaign.failures[index] = error or "evaluation failed"
            else:
                campaign.pending.appendleft(index)
                self._requeue(campaign.digest)
            return campaign.status()
        return None

    def worker_lost(self, worker_id: str) -> int:
        """Requeue every job the vanished worker still held."""
        recovered = 0
        for campaign in self._campaigns.values():
            owed = [
                (job_id, index)
                for job_id, (index, owner) in campaign.running.items()
                if owner == worker_id
            ]
            for job_id, index in owed:
                del campaign.running[job_id]
                # A lost connection says nothing about the point
                # itself: the attempt that died in transit does not
                # count against the cap.
                campaign.attempts[index] = max(
                    0, campaign.attempts.get(index, 1) - 1
                )
                campaign.pending.appendleft(index)
                recovered += 1
            if owed:
                self._requeue(campaign.digest)
        self._requeued += recovered
        return recovered

    def _requeue(self, digest: str) -> None:
        if digest not in self._rotation:
            self._rotation.append(digest)

    # -- introspection ---------------------------------------------------------
    def status(self, digest: str) -> dict[str, Any] | None:
        campaign = self._campaigns.get(digest)
        return None if campaign is None else campaign.status()

    def campaigns(self) -> Mapping[str, dict[str, Any]]:
        return {d: c.status() for d, c in self._campaigns.items()}

    @property
    def idle(self) -> bool:
        """No campaign has pending or running work."""
        return all(c.finished for c in self._campaigns.values())

    def stats(self) -> dict[str, Any]:
        return {
            "campaigns": len(self._campaigns),
            "finished": sum(
                1 for c in self._campaigns.values() if c.finished
            ),
            "pending": sum(
                len(c.pending) for c in self._campaigns.values()
            ),
            "running": sum(
                len(c.running) for c in self._campaigns.values()
            ),
            "jobs_handed": self._jobs_handed,
            "requeued": self._requeued,
            "max_attempts": self.max_attempts,
            "max_campaigns": self.max_campaigns,
        }
