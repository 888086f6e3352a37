"""Hierarchical statistics counters.

Every simulated component owns a :class:`StatGroup`; groups nest, and the GPU
root group renders the full tree.  Counters are created on first use so
components never need to pre-declare them, but reads of absent counters
return 0 (a component that never saw an event reports zero, not KeyError).
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterator


class StatGroup:
    """A named bag of integer/float counters with nested child groups."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._counters: Dict[str, float] = defaultdict(float)
        self._children: Dict[str, "StatGroup"] = {}

    # -- counters ----------------------------------------------------------

    def add(self, key: str, amount: float = 1.0) -> None:
        self._counters[key] += amount

    def set(self, key: str, value: float) -> None:
        self._counters[key] = value

    def get(self, key: str) -> float:
        return self._counters.get(key, 0.0)

    def raw(self) -> Dict[str, float]:
        """The live counter mapping, for hot paths that accumulate in bulk.

        ``raw()[key] += x`` is equivalent to ``add(key, x)`` (the mapping
        is a ``defaultdict(float)``) without the method-call overhead;
        simulation inner loops bind this once at construction.
        """
        return self._counters

    def __getitem__(self, key: str) -> float:
        return self.get(key)

    def counters(self) -> Dict[str, float]:
        return dict(self._counters)

    # -- hierarchy -----------------------------------------------------------

    def child(self, name: str) -> "StatGroup":
        """Return (creating if needed) the child group called *name*."""
        if name not in self._children:
            self._children[name] = StatGroup(name)
        return self._children[name]

    def children(self) -> Dict[str, "StatGroup"]:
        return dict(self._children)

    def walk(self, prefix: str = "") -> Iterator[tuple[str, str, float]]:
        """Yield ``(group_path, counter, value)`` for the whole subtree."""
        path = f"{prefix}{self.name}"
        for key in sorted(self._counters):
            yield path, key, self._counters[key]
        for name in sorted(self._children):
            yield from self._children[name].walk(prefix=f"{path}.")

    # -- aggregation ----------------------------------------------------------

    def total(self, key: str) -> float:
        """Sum of *key* over this group and every descendant."""
        result = self.get(key)
        for group in self._children.values():
            result += group.total(key)
        return result

    def merge_from(self, other: "StatGroup") -> None:
        """Accumulate *other*'s counters (recursively) into this group.

        Child insertion order is normalized to sorted-by-name afterwards, so
        a tree assembled by merging shards serializes identically no matter
        the merge order (the ``to_dict`` round-trip guarantee).
        """
        for key, value in other._counters.items():
            self._counters[key] += value
        for name in sorted(other._children):
            self.child(name).merge_from(other._children[name])
        self._children = {name: self._children[name] for name in sorted(self._children)}

    def reset(self) -> None:
        self._counters.clear()
        for group in self._children.values():
            group.reset()

    # -- serialization ---------------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-able snapshot of the whole subtree, keys sorted at every
        level — byte-stable output for ``repro run --stats --json`` and tests."""
        return {
            "name": self.name,
            "counters": {key: self._counters[key] for key in sorted(self._counters)},
            "children": {
                name: self._children[name].to_dict() for name in sorted(self._children)
            },
        }

    @classmethod
    def from_dict(cls, data: dict) -> "StatGroup":
        """Rebuild a tree produced by :meth:`to_dict`."""
        group = cls(data.get("name", "stats"))
        for key, value in data.get("counters", {}).items():
            group._counters[key] = float(value)
        for name, child_data in data.get("children", {}).items():
            child = cls.from_dict(child_data)
            child.name = name
            group._children[name] = child
        return group

    # -- rendering -------------------------------------------------------------

    def render(self) -> str:
        lines = []
        for path, key, value in self.walk():
            if value == int(value):
                lines.append(f"{path}.{key} = {int(value)}")
            else:
                lines.append(f"{path}.{key} = {value:.4f}")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"StatGroup({self.name!r}, {len(self._counters)} counters)"
