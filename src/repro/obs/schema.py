"""A JSON-Schema-subset validator for telemetry snapshots.

The container ships no third-party packages, so CI cannot lean on
``jsonschema``.  This module implements exactly the subset the committed
``scripts/obs_schema.json`` needs — ``type``, ``required``,
``properties``, ``additionalProperties`` (schema form), and ``items`` —
and nothing more.  The point of the schema check is API stability:
counter and gauge names are load-bearing (benchmark trajectories and
dashboards key on them), so a rename must fail ``make obs`` rather
than silently shift the data.

:func:`validate` returns a list of human-readable problems instead of
raising: CI prints them all at once, and an empty list is the pass
signal.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Union

__all__ = ["load_schema", "validate"]

_TYPE_CHECKS = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "boolean": lambda v: isinstance(v, bool),
    # bool is an int subclass; a schema saying "number" means a real number.
    "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
}


def load_schema(path: Union[str, Path]) -> Dict[str, object]:
    """Read a schema document from disk."""
    text = Path(path).read_text(encoding="utf-8")
    schema = json.loads(text)
    if not isinstance(schema, dict):
        raise ValueError(f"schema root must be an object: {path}")
    return schema


def validate(instance: object, schema: Dict[str, object],
             path: str = "$") -> List[str]:
    """Check *instance* against *schema*; return all problems found."""
    problems: List[str] = []
    expected = schema.get("type")
    if expected is not None:
        checker = _TYPE_CHECKS.get(expected)
        if checker is None:
            problems.append(f"{path}: unsupported schema type {expected!r}")
            return problems
        if not checker(instance):
            problems.append(
                f"{path}: expected {expected}, got {type(instance).__name__}")
            return problems
    if isinstance(instance, dict):
        for key in schema.get("required", []):
            if key not in instance:
                problems.append(f"{path}: missing required key {key!r}")
        properties = schema.get("properties", {})
        for key, subschema in properties.items():
            if key in instance:
                problems.extend(
                    validate(instance[key], subschema, f"{path}.{key}"))
        additional = schema.get("additionalProperties")
        if isinstance(additional, dict):
            for key, value in instance.items():
                if key not in properties:
                    problems.extend(
                        validate(value, additional, f"{path}.{key}"))
        elif additional is False:
            for key in instance:
                if key not in properties:
                    problems.append(f"{path}: unexpected key {key!r}")
    if isinstance(instance, list):
        items = schema.get("items")
        if isinstance(items, dict):
            for index, value in enumerate(instance):
                problems.extend(
                    validate(value, items, f"{path}[{index}]"))
    return problems
