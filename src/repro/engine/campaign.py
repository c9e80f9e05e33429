"""Declarative sweep campaigns: kernels × backend × scenario axes.

A :class:`CampaignSpec` names the workloads, the evaluation *backend*,
and the full cross product of scenario parameters to evaluate them
under — the paper's §6 sweep ("number of processors; page size ...;
with the cache toggled per series") generalised to every axis the
evaluators expose: cache policy, partition scheme, reduction strategy,
and (for the timed backend) interconnect topology, PE execution mode
and cost-model preset.  Specs are plain frozen data, expressible in
Python or JSON (``to_json``/``from_json``), and enumerate their points
in one canonical order so serial and parallel executions are
comparable record for record.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, replace
from itertools import product
from pathlib import Path
from typing import Iterator, Mapping, Sequence

from ..backends import MODES, Scenario, canonical_backend, cost_model, get_backend
from ..cache import POLICIES
from ..core.partition import named_scheme
from ..core.simulator import REDUCTION_STRATEGIES, MachineConfig
from ..machine.network import canonical_topology

__all__ = [
    "DEFAULT_CACHES",
    "DEFAULT_PAGE_SIZES",
    "DEFAULT_PES",
    "CampaignSpec",
    "KernelSpec",
]

#: The PE axis of the paper's Figures 1-4 (extended past 16 to cover
#: the 32- and 64-PE claims of §7.1.3 and Figure 5).
DEFAULT_PES: tuple[int, ...] = (1, 2, 4, 8, 16, 32, 64)
#: The paper's two page sizes.
DEFAULT_PAGE_SIZES: tuple[int, ...] = (32, 64)
#: The paper's fixed cache capacity, plus 0 for the "No Cache" series.
DEFAULT_CACHES: tuple[int, ...] = (256, 0)


@dataclass(frozen=True)
class KernelSpec:
    """One workload of a campaign: registry name + build parameters."""

    name: str
    n: int | None = None
    seed: int | None = None

    def __post_init__(self) -> None:
        from ..kernels import get_kernel

        get_kernel(self.name)  # fail fast on typos

    @property
    def label(self) -> str:
        """Unique, stable identifier of this workload within a spec."""
        parts = [self.name]
        if self.n is not None:
            parts.append(f"n={self.n}")
        if self.seed is not None:
            parts.append(f"seed={self.seed}")
        return parts[0] if len(parts) == 1 else f"{parts[0]}[{','.join(parts[1:])}]"

    def to_dict(self) -> dict[str, object]:
        out: dict[str, object] = {"name": self.name}
        if self.n is not None:
            out["n"] = self.n
        if self.seed is not None:
            out["seed"] = self.seed
        return out

    @staticmethod
    def coerce(value: "KernelSpec | str | Mapping[str, object]") -> "KernelSpec":
        if isinstance(value, KernelSpec):
            return value
        if isinstance(value, str):
            return KernelSpec(name=value)
        extra = set(value) - {"name", "n", "seed"}
        if extra:
            raise ValueError(f"unknown kernel spec keys: {sorted(extra)}")
        return KernelSpec(
            name=str(value["name"]),
            n=None if value.get("n") is None else int(value["n"]),
            seed=None if value.get("seed") is None else int(value["seed"]),
        )


#: Machine-configuration axes (feed the :class:`MachineConfig` grid).
_CONFIG_AXES = (
    "pes",
    "page_sizes",
    "cache_elems",
    "cache_policies",
    "partitions",
    "reduction_strategies",
)

#: Backend axes (feed the :class:`~repro.backends.Scenario` envelope);
#: a backend declares which of these it consumes via ``scenario_axes``.
#: Axes a backend does not consume must sit at these defaults — a
#: non-default value would silently taint scenario labels and result
#: cache keys with a knob that never reaches the evaluator.
_BACKEND_AXIS_DEFAULTS = {
    "topologies": ("crossbar",),
    "modes": ("blocking",),
    "cost_models": ("default",),
}

_BACKEND_AXES = tuple(_BACKEND_AXIS_DEFAULTS)

_AXIS_FIELDS = _CONFIG_AXES + _BACKEND_AXES


@dataclass(frozen=True)
class CampaignSpec:
    """A declarative sweep: every kernel under every scenario.

    ``partitions`` holds partition-scheme *names* ("modulo", "block",
    "block-cyclic:K") so the spec stays JSON-serialisable; they are
    resolved through :func:`repro.core.partition.named_scheme` when the
    configurations are materialised.  Likewise ``topologies`` and
    ``cost_models`` hold registry names; sweeping a backend axis the
    chosen backend does not consume is rejected up front rather than
    silently producing duplicate points.
    """

    name: str
    kernels: tuple[KernelSpec, ...]
    backend: str = "untimed"
    pes: tuple[int, ...] = DEFAULT_PES
    page_sizes: tuple[int, ...] = DEFAULT_PAGE_SIZES
    cache_elems: tuple[int, ...] = DEFAULT_CACHES
    cache_policies: tuple[str, ...] = ("lru",)
    partitions: tuple[str, ...] = ("modulo",)
    reduction_strategies: tuple[str, ...] = ("host",)
    topologies: tuple[str, ...] = ("crossbar",)
    modes: tuple[str, ...] = ("blocking",)
    cost_models: tuple[str, ...] = ("default",)
    max_outstanding: int = 4

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "kernels",
            tuple(KernelSpec.coerce(k) for k in self.kernels),
        )
        for axis in _AXIS_FIELDS:
            object.__setattr__(self, axis, tuple(getattr(self, axis)))
        # Canonicalise aliases so specs, labels and cache keys agree
        # however the sweep was requested ("mesh" == "mesh2d",
        # "untimed-vec" == "untimed").
        object.__setattr__(
            self,
            "topologies",
            tuple(canonical_topology(t) for t in self.topologies),
        )
        object.__setattr__(self, "backend", canonical_backend(self.backend))
        if not self.kernels:
            raise ValueError("campaign needs at least one kernel")
        for axis in _AXIS_FIELDS:
            if not getattr(self, axis):
                raise ValueError(f"campaign axis {axis!r} is empty")
        labels = [k.label for k in self.kernels]
        if len(set(labels)) != len(labels):
            raise ValueError(f"duplicate kernel specs in campaign: {labels}")
        for scheme in self.partitions:
            named_scheme(scheme)  # fail fast on typos
        for preset in self.cost_models:
            cost_model(preset)
        for axis, knob, valid in (
            ("cache_policies", "cache policy", tuple(sorted(POLICIES))),
            ("reduction_strategies", "reduction strategy",
             REDUCTION_STRATEGIES),
            ("modes", "mode", MODES),
        ):
            for value in getattr(self, axis):
                if value not in valid:
                    raise ValueError(
                        f"unknown {knob} {value!r}; choose from {valid}"
                    )
        if self.max_outstanding < 1:
            raise ValueError("max_outstanding must be at least 1")
        backend = get_backend(self.backend)  # KeyError on typos
        for axis in _BACKEND_AXES:
            if axis in backend.scenario_axes:
                continue
            if getattr(self, axis) != _BACKEND_AXIS_DEFAULTS[axis]:
                raise ValueError(
                    f"axis {axis!r} is not used by backend "
                    f"{self.backend!r}; leave it at "
                    f"{_BACKEND_AXIS_DEFAULTS[axis]!r}"
                )
        # max_outstanding rides with the execution-mode knob: backends
        # without a modes axis never read it, so a non-default value
        # would only taint scenario digests and result-cache keys.
        if "modes" not in backend.scenario_axes and self.max_outstanding != 4:
            raise ValueError(
                f"'max_outstanding' is not used by backend "
                f"{self.backend!r}; leave it at 4"
            )

    # -- enumeration -----------------------------------------------------------
    @property
    def n_configs(self) -> int:
        """Scenarios evaluated per kernel (all axes crossed)."""
        total = 1
        for axis in _AXIS_FIELDS:
            total *= len(getattr(self, axis))
        return total

    @property
    def n_points(self) -> int:
        return len(self.kernels) * self.n_configs

    def configs(self) -> list[MachineConfig]:
        """The machine-configuration grid, in canonical order.

        The innermost nesting (page size → cache → PEs) matches the
        historical :class:`repro.bench.Sweep` ordering so refactored
        callers see records in the order they always did.
        """
        out = []
        for scheme, policy, strategy, page_size, cache, n_pes in product(
            self.partitions,
            self.cache_policies,
            self.reduction_strategies,
            self.page_sizes,
            self.cache_elems,
            self.pes,
        ):
            out.append(
                MachineConfig(
                    n_pes=n_pes,
                    page_size=page_size,
                    cache_elems=cache,
                    cache_policy=policy,
                    partition=named_scheme(scheme),
                    reduction_strategy=strategy,
                )
            )
        return out

    def scenarios(self) -> list[Scenario]:
        """The full scenario grid: backend axes × configuration grid.

        Backend axes nest outermost, so a spec that leaves them at
        their defaults (every untimed campaign) enumerates in exactly
        the historical configuration order.
        """
        configs = self.configs()
        out = []
        for topology, mode, preset in product(
            self.topologies, self.modes, self.cost_models
        ):
            for config in configs:
                out.append(
                    Scenario(
                        config=config,
                        backend=self.backend,
                        topology=topology,
                        mode=mode,
                        cost_model=preset,
                        max_outstanding=self.max_outstanding,
                    )
                )
        return out

    def points(self) -> Iterator[tuple[KernelSpec, Scenario]]:
        """Every (kernel, scenario) pair, kernel-major."""
        scenarios = self.scenarios()
        for kernel in self.kernels:
            for scenario in scenarios:
                yield kernel, scenario

    def subset(self, kernels: Sequence[str]) -> "CampaignSpec":
        """Restrict to the named kernels (by label or registry name)."""
        wanted = set(kernels)
        keep = tuple(
            k for k in self.kernels if k.label in wanted or k.name in wanted
        )
        if not keep:
            raise KeyError(f"no campaign kernels match {sorted(wanted)}")
        return replace(self, kernels=keep)

    @property
    def digest(self) -> str:
        """Content address of the spec (canonical JSON, hashed).

        Two specs enumerating the same points share a digest however
        they were constructed (aliases are canonicalised in
        ``__post_init__``).  The fleet keys a submitted campaign by
        it, and telemetry events name a campaign by its first eight
        characters.
        """
        return hashlib.sha256(
            json.dumps(self.to_dict(), sort_keys=True).encode()
        ).hexdigest()

    # -- (de)serialisation -----------------------------------------------------
    def to_dict(self) -> dict[str, object]:
        return {
            "name": self.name,
            "backend": self.backend,
            "kernels": [k.to_dict() for k in self.kernels],
            **{axis: list(getattr(self, axis)) for axis in _AXIS_FIELDS},
            "max_outstanding": self.max_outstanding,
        }

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @staticmethod
    def from_dict(data: Mapping[str, object]) -> "CampaignSpec":
        """Build a spec from its JSON document, schema-checked first.

        Every loader (the CLI, the fleet server and workers) comes
        through here, so each refuses a bad file with the same message.
        """
        from .schema import validate_campaign  # only spec files need it

        violations = validate_campaign(data)
        if violations:
            raise ValueError(
                "campaign spec rejected: " + "; ".join(violations)
            )
        return CampaignSpec(**{"name": "campaign", **data})

    @staticmethod
    def from_json(text: str) -> "CampaignSpec":
        return CampaignSpec.from_dict(json.loads(text))

    def save(self, path: str | os.PathLike) -> Path:
        path = Path(path)
        path.write_text(self.to_json() + "\n")
        return path

    @staticmethod
    def load(path: str | os.PathLike) -> "CampaignSpec":
        return CampaignSpec.from_json(Path(path).read_text())
