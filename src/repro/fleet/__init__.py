"""``repro.fleet`` — cross-host evaluation: one store root, many machines.

The fleet generalises the in-process evaluation service to machines:
a **server** (``repro serve --listen HOST:PORT``) admits campaigns and
hands their points out; **workers** (``repro worker --connect``) pull
points, evaluate them against the *shared store root*, and report
back.  The wire protocol is control-plane only — job identities,
acks, status.  Results never travel over the socket: every worker
publishes into the same content-addressed store through the claim
leases campaigns already use, so the store stays the single source of
truth and a re-handed job is a cache hit, not a second build.

Three pieces:

* :mod:`.protocol` — length-delimited JSON frames, the versioned
  handshake, and the retrying synchronous :class:`~.protocol.FleetClient`;
* :mod:`.coordinator` — pure scheduling state: round-robin across
  campaigns, per-worker job leases, requeue on worker loss, attempt
  caps, admission control;
* :mod:`.server` / :mod:`.worker` — the asyncio server and the worker
  loop (TCP mode, plus a socketless spool mode for air-gapped fleets
  that share only the filesystem).

Submitted spec documents are checked by
:meth:`CampaignSpec.from_dict <repro.engine.campaign.CampaignSpec.from_dict>`
against the campaign schema in :mod:`repro.engine.schema`, as every
other loader checks them.
"""

from __future__ import annotations

from .coordinator import FleetCoordinator
from .protocol import (
    PROTOCOL_VERSION,
    FleetClient,
    FleetError,
    FleetProtocolError,
    parse_address,
    read_frame,
    write_frame,
)

__all__ = [
    "FleetClient",
    "FleetCoordinator",
    "FleetError",
    "FleetProtocolError",
    "PROTOCOL_VERSION",
    "parse_address",
    "read_frame",
    "write_frame",
]
