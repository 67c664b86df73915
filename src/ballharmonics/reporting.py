"""Deterministic report serialization: 17-significant-digit CSV and JSON.

Identical inputs must produce byte-identical reports, so nothing here
consults the clock, the locale or dict-ordering accidents: floats render
through one '%.17g' formatter (shortest form that still round-trips IEEE
doubles), dict keys keep insertion order (callers build them sorted where
ordering is not semantic), and non-finite floats serialize as the strings
"inf", "-inf", "nan" since JSON has no literals for them.
"""

from __future__ import annotations

import dataclasses
import json
import math
from fractions import Fraction
from typing import Any, Iterable, Mapping, Sequence

from ._version import VERSION


def fmt_float(x: float) -> str:
    """Canonical decimal form of a double: 17 significant digits."""
    if math.isnan(x):
        return "nan"
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return "%.17g" % x


def fmt_value(x: Any) -> str:
    """CSV cell form for any scalar the reports carry."""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return fmt_float(x)
    return str(x)


def render_json(obj: Any, indent: int = 0) -> str:
    """Serialize to JSON with deterministic float formatting.

    Handles dicts (insertion order), dataclasses (field order), sequences,
    strings, bools, ints, floats and None.  Non-finite floats become the
    strings "inf"/"-inf"/"nan".
    """
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        if math.isfinite(obj):
            return fmt_float(obj)
        return json.dumps(fmt_float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, Fraction):
        return json.dumps(str(obj))
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        obj = {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
    if isinstance(obj, Mapping):
        if not obj:
            return "{}"
        rows = [
            f"{inner}{json.dumps(str(k))}: {render_json(v, indent + 1)}"
            for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(rows) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        rows = [f"{inner}{render_json(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(rows) + f"\n{pad}]"
    raise TypeError(f"cannot serialize {type(obj).__name__} deterministically")


def render_csv(
    header: Sequence[str],
    rows: Iterable[Sequence[Any]],
    comments: Sequence[str] = (),
) -> str:
    """CSV text: '#'-prefixed comment lines, a header row, data rows.

    '.' decimal separator, no thousands grouping, no quoting (report fields
    never contain commas), '\\n' line endings.
    """
    lines = [f"# {c}" for c in comments]
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(fmt_value(x) for x in row))
    return "\n".join(lines) + "\n"


def config_line(subcommand: str, options: Mapping[str, Any]) -> str:
    """One-line canonical run configuration for CSV comment headers."""
    parts = [f"{k}={fmt_value(options[k])}" for k in sorted(options)]
    return f"ballharmonics {VERSION} | {subcommand} | " + " ".join(parts)


def run_config(subcommand: str, options: Mapping[str, Any]) -> dict:
    """Embeddable JSON run configuration (sorted option keys)."""
    return {
        "artifact": "ballharmonics",
        "version": VERSION,
        "subcommand": subcommand,
        "options": {k: options[k] for k in sorted(options)},
    }
