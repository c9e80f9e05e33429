"""Processing-element cost model and per-PE execution state.

Costs are expressed in abstract cycles.  Defaults are era-plausible
ratios (remote traffic two orders of magnitude above a local access)
but every knob is a dataclass field — the ablation benchmarks sweep
them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["CONTENTION_MODELS", "MODES", "CostModel", "PEState"]


#: Valid values of :attr:`CostModel.contention_model`.
CONTENTION_MODELS: tuple[str, ...] = ("none", "per-link")

#: PE execution modes of the timed machine.
MODES: tuple[str, ...] = ("blocking", "multithreaded")


@dataclass(frozen=True)
class CostModel:
    """Cycle costs of the abstract machine.

    A remote page fetch costs
    ``request_overhead + per_hop * hops`` for the request,
    plus ``reply_overhead + (per_hop + per_element * page_size) * hops``
    isn't charged per hop for payload — serialization is charged once:
    ``reply_overhead + per_hop * hops + per_element * page_size``.

    **Bandwidth and contention.**  ``link_bandwidth`` (bytes/cycle)
    caps how fast one link drains; with ``contention_model="per-link"``
    every message additionally *occupies* each link on its
    (dimension-order) route for ``message_bytes / link_bandwidth``
    cycles, and messages finding a link busy queue behind the traffic
    already holding it — the queueing delay the untimed model can only
    report as a passive per-link message count.  The default —
    ``link_bandwidth=inf`` with ``contention_model="none"`` —
    reproduces the pre-bandwidth latencies bit for bit, so existing
    benchmark artifacts stay comparable; so does ``"per-link"`` at
    infinite bandwidth (occupancy is exactly ``0.0``).
    """

    compute_per_statement: float = 4.0   # evaluate one RHS
    local_read: float = 1.0              # read from local memory
    cached_read: float = 2.0             # read from the page cache
    write: float = 1.0                   # local write (always local, §2)
    request_overhead: float = 20.0       # send a page request
    reply_overhead: float = 20.0         # service + send a reply
    per_hop: float = 5.0                 # per network hop, each direction
    per_element: float = 0.5             # payload serialization per element
    link_bandwidth: float = float("inf")  # link capacity, bytes/cycle
    contention_model: str = "none"       # "none" | "per-link" queueing
    element_bytes: float = 8.0           # wire size of one array element
    header_bytes: float = 16.0           # wire size of a payload-free message

    def __post_init__(self) -> None:
        if self.contention_model not in CONTENTION_MODELS:
            raise ValueError(
                f"unknown contention model {self.contention_model!r}; "
                f"choose from {CONTENTION_MODELS}"
            )
        if self.link_bandwidth <= 0:
            raise ValueError("link bandwidth must be positive (inf = unlimited)")
        if self.element_bytes < 0 or self.header_bytes < 0:
            raise ValueError("message sizes must be nonnegative")

    def request_latency(self, hops: int) -> float:
        return self.request_overhead + self.per_hop * hops

    def reply_latency(self, hops: int, page_elements: int) -> float:
        return (
            self.reply_overhead
            + self.per_hop * hops
            + self.per_element * page_elements
        )

    # -- bandwidth ------------------------------------------------------------
    @property
    def contended(self) -> bool:
        """Whether messages should reserve link time at all."""
        return self.contention_model == "per-link"

    def message_bytes(self, payload_elements: int) -> float:
        """Wire size of a message carrying ``payload_elements``."""
        return self.header_bytes + self.element_bytes * payload_elements

    def occupancy(self, payload_elements: int) -> float:
        """Cycles the message holds each link on its route.

        Exactly ``0.0`` at infinite bandwidth, so reserving link time
        under the ``"per-link"`` model degenerates to plain traffic
        accounting and perturbs no latency.
        """
        if self.link_bandwidth == float("inf"):
            return 0.0
        return self.message_bytes(payload_elements) / self.link_bandwidth


@dataclass
class PEState:
    """Execution bookkeeping for one PE in the timed simulation."""

    pe: int
    # Indices into the trace of the instances this PE executes, in order.
    instances: list[int] = field(default_factory=list)
    position: int = 0          # next instance to run
    read_cursor: int = 0       # next read within the current instance
    busy_until: float = 0.0    # local clock
    blocked: bool = False
    # statistics
    stall_time: float = 0.0
    requests_sent: int = 0
    refetches: int = 0

    @property
    def done(self) -> bool:
        return self.position >= len(self.instances)
