"""Versioned JSON Schema for campaign specs, with a built-in validator.

:data:`CAMPAIGN_SCHEMA` is a standard JSON Schema document (draft
2020-12 vocabulary, restricted to the subset below) describing the
on-disk :class:`~repro.engine.CampaignSpec` format.  It is versioned
through :data:`CAMPAIGN_SCHEMA_VERSION` and the spec format's
``$id``; any incompatible change to the spec format bumps the number.

The container ships no ``jsonschema`` dependency, so
:func:`validate_campaign` implements the subset the schema actually
uses: ``type``, ``properties`` / ``required`` /
``additionalProperties``, ``items`` / ``minItems``, ``anyOf``,
``enum``, ``minimum`` / ``maximum``, ``minLength``.  The document
itself remains consumable by any off-the-shelf validator.

:meth:`CampaignSpec.from_dict <repro.engine.campaign.CampaignSpec.from_dict>`
runs this structural gate first; the rules that need the registries
(kernel names, partition schemes, backend axes) run after the shape
is known good.  The enums read the same lists the constructors check.
"""

from __future__ import annotations

from typing import Any

from ..cache import POLICIES
from ..core.simulator import REDUCTION_STRATEGIES
from ..machine.pe import MODES

__all__ = [
    "CAMPAIGN_SCHEMA",
    "CAMPAIGN_SCHEMA_VERSION",
    "validate_campaign",
]

#: Version of the campaign-spec document format this schema describes.
CAMPAIGN_SCHEMA_VERSION = 1

_POSITIVE_INT_ARRAY = {
    "type": "array",
    "minItems": 1,
    "items": {"type": "integer", "minimum": 1},
}

_NONNEGATIVE_INT_ARRAY = {
    "type": "array",
    "minItems": 1,
    "items": {"type": "integer", "minimum": 0},
}

_STRING_ARRAY = {
    "type": "array",
    "minItems": 1,
    "items": {"type": "string", "minLength": 1},
}


def _enum_array(values) -> dict[str, Any]:
    return {"type": "array", "minItems": 1, "items": {"enum": list(values)}}


CAMPAIGN_SCHEMA: dict[str, Any] = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "$id": f"repro:campaign-spec:v{CAMPAIGN_SCHEMA_VERSION}",
    "title": "repro campaign spec",
    "type": "object",
    "required": ["kernels"],
    "additionalProperties": False,
    "properties": {
        "name": {"type": "string", "minLength": 1},
        "backend": {"type": "string", "minLength": 1},
        "kernels": {
            "type": "array",
            "minItems": 1,
            "items": {
                "anyOf": [
                    {"type": "string", "minLength": 1},
                    {
                        "type": "object",
                        "required": ["name"],
                        "additionalProperties": False,
                        "properties": {
                            "name": {"type": "string", "minLength": 1},
                            "n": {"type": "integer", "minimum": 1},
                            "seed": {"type": "integer", "minimum": 0},
                        },
                    },
                ]
            },
        },
        "pes": _POSITIVE_INT_ARRAY,
        "page_sizes": _POSITIVE_INT_ARRAY,
        "cache_elems": _NONNEGATIVE_INT_ARRAY,
        "cache_policies": _enum_array(sorted(POLICIES)),
        "partitions": _STRING_ARRAY,
        "reduction_strategies": _enum_array(REDUCTION_STRATEGIES),
        "topologies": _STRING_ARRAY,
        "modes": _enum_array(MODES),
        "cost_models": _STRING_ARRAY,
        "max_outstanding": {"type": "integer", "minimum": 1},
    },
}


def _type_ok(value: Any, expected: str) -> bool:
    if expected == "object":
        return isinstance(value, dict)
    if expected == "array":
        return isinstance(value, list)
    if expected == "string":
        return isinstance(value, str)
    if expected == "integer":
        # JSON has no bool/int split; Python does — a JSON true must
        # not pass as the integer 1.
        return isinstance(value, int) and not isinstance(value, bool)
    if expected == "boolean":
        return isinstance(value, bool)
    if expected == "number":
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    raise ValueError(f"schema uses unsupported type {expected!r}")


def _validate(value: Any, schema: dict, path: str, errors: list[str]) -> None:
    if "enum" in schema:
        if value not in schema["enum"]:
            errors.append(
                f"{path}: {value!r} is not one of {schema['enum']}"
            )
        return
    if "anyOf" in schema:
        for option in schema["anyOf"]:
            probe: list[str] = []
            _validate(value, option, path, probe)
            if not probe:
                return
        errors.append(
            f"{path}: matches none of the {len(schema['anyOf'])} "
            "allowed shapes"
        )
        return
    expected = schema.get("type")
    if expected is not None and not _type_ok(value, expected):
        errors.append(
            f"{path}: expected {expected}, got {type(value).__name__}"
        )
        return
    if expected == "object":
        for name in schema.get("required", ()):
            if name not in value:
                errors.append(f"{path}: missing required key {name!r}")
        properties = schema.get("properties", {})
        if schema.get("additionalProperties") is False:
            for name in sorted(set(value) - set(properties)):
                errors.append(f"{path}: unknown key {name!r}")
        for name, sub in properties.items():
            if name in value:
                _validate(value[name], sub, f"{path}.{name}", errors)
    elif expected == "array":
        if len(value) < schema.get("minItems", 0):
            errors.append(
                f"{path}: needs at least {schema['minItems']} item(s)"
            )
        item_schema = schema.get("items")
        if item_schema is not None:
            for i, item in enumerate(value):
                _validate(item, item_schema, f"{path}[{i}]", errors)
    elif expected == "string":
        if len(value) < schema.get("minLength", 0):
            errors.append(f"{path}: must not be empty")
    elif expected in ("integer", "number"):
        if "minimum" in schema and value < schema["minimum"]:
            errors.append(
                f"{path}: {value} is below the minimum {schema['minimum']}"
            )
        if "maximum" in schema and value > schema["maximum"]:
            errors.append(
                f"{path}: {value} is above the maximum {schema['maximum']}"
            )


def validate_campaign(document: Any) -> list[str]:
    """Structurally validate one campaign-spec document.

    Returns the list of violations (empty: the document conforms to
    :data:`CAMPAIGN_SCHEMA`).  Purely structural;
    ``CampaignSpec.from_dict`` runs it, then the semantic checks
    (kernel registry, backend axes, partition schemes).
    """
    errors: list[str] = []
    _validate(document, CAMPAIGN_SCHEMA, "$", errors)
    return errors
