"""Size caps for the exhaustive searches.

Defaults keep every brute-force search at desk scale.  The environment
variable ``PERMUTORIA_LIMITS`` overrides individual caps, e.g.::

    PERMUTORIA_LIMITS="enumeration=12,da=16"

An item with an unknown key or a value that is not an integer is skipped
with a warning.
"""

from __future__ import annotations

import os
import warnings
from dataclasses import dataclass, replace

from .errors import LimitExceeded


@dataclass(frozen=True)
class Limits:
    enumeration: int = 11      # largest n for S_n enumeration / counting
    da: int = 14               # largest n for doubly alternating searches
    extended: int = 10         # largest d+c+r for extended avoidance
    tree_depth: int = 12       # deepest generating tree level
    series_order: int = 24     # largest truncation order per variable


def enforce(limits: Limits, key: str, what: str, value: int) -> None:
    """Raise LimitExceeded if value is above the cap ``key``; the message
    names the ``PERMUTORIA_LIMITS`` setting that would allow it."""
    cap = getattr(limits, key)
    if value > cap:
        raise LimitExceeded(
            f"{what}={value} exceeds {key} limit {cap}; "
            f"raise it with PERMUTORIA_LIMITS={key}={value}"
        )


def _from_env() -> Limits:
    raw = os.environ.get("PERMUTORIA_LIMITS", "")
    limits = Limits()
    if not raw:
        return limits
    overrides = {}
    for item in raw.split(","):
        item = item.strip()
        if not item:
            continue
        key, _, value = item.partition("=")
        key = key.strip()
        if key not in Limits.__dataclass_fields__:
            warnings.warn(f"PERMUTORIA_LIMITS: ignoring {item!r}: unknown key", stacklevel=2)
            continue
        try:
            overrides[key] = int(value)
        except ValueError:
            warnings.warn(f"PERMUTORIA_LIMITS: ignoring {item!r}: not an integer", stacklevel=2)
    return replace(limits, **overrides)


DEFAULT_LIMITS = _from_env()
