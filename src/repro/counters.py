"""One base for the ``@dataclass`` counter sets behind every ``stats`` surface.

Counters are plain fields, so hot paths keep a bare attribute ``+=``; adding
a counter is adding a field.
"""

from __future__ import annotations

import copy
from dataclasses import fields
from typing import Any


class Counters:
    """Mixin giving a ``@dataclass`` counter set ``as_dict`` and ``merge``.

    ``merge`` adds numbers, recurses into dicts and nested counter sets, and
    takes the other side's value for anything else (a last-observed state).
    A field that is not a running total names its own fold in its metadata:
    ``field(default=0, metadata={"merge": max})``.
    """

    __slots__ = ()

    def as_dict(self) -> dict[str, Any]:
        """Every field in declaration order; nested values are copies."""
        return {spec.name: _plain(getattr(self, spec.name)) for spec in fields(self)}

    def merge(self, other: Counters) -> None:
        """Fold ``other`` into this set, field by field (parallel-worker merge)."""
        for spec in fields(self):
            fold = spec.metadata.get("merge", _add)
            setattr(self, spec.name, fold(getattr(self, spec.name), getattr(other, spec.name)))


def _plain(value: Any) -> Any:
    if isinstance(value, Counters):
        return value.as_dict()
    if isinstance(value, dict):
        return {key: _plain(item) for key, item in value.items()}
    return value


def _add(mine: Any, theirs: Any) -> Any:
    if isinstance(mine, Counters):
        mine.merge(theirs)
        return mine
    if isinstance(mine, dict):
        for key, value in theirs.items():
            mine[key] = _add(mine[key], value) if key in mine else copy.deepcopy(value)
        return mine
    return mine + theirs if isinstance(mine, (int, float)) else theirs
