"""The Logic Tree (LT) representation of a query (Section 4.7, Fig. 5).

A Logic Tree is a rooted tree in which every node represents one query
block.  Each node carries:

* ``tables`` — the table aliases defined in the block's FROM clause;
* ``predicates`` — the conjunction of comparison predicates of the block
  (subquery predicates become child nodes);
* ``quantifier`` — ∃, ∄ or ∀ (the root carries no quantifier);
* ``children`` — the directly nested query blocks.

The root additionally records the SELECT list (and the optional GROUP BY of
the appendix extension).  The LT is equivalent to the tuple relational
calculus representation of the query but makes the nesting scopes explicit.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterator

from ..sql.ast import (
    AggregateCall,
    ColumnRef,
    Comparison,
    FrozenNode,
    OrderItem,
    TableRef,
)
from ..sql.ast import _hash_field


class Quantifier(enum.Enum):
    """Logical quantifier applied to a query block."""

    EXISTS = "∃"
    NOT_EXISTS = "∄"
    FOR_ALL = "∀"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True, slots=True)
class LogicTreeNode(FrozenNode):
    """One query block of the Logic Tree.

    Like the AST nodes, Logic Tree nodes are slotted with a lazily cached
    hash, so a tree used as a dictionary key hashes each node once, and
    traversal helpers are stack-based rather than recursive — the cold
    compile path walks every tree several times.
    """

    tables: tuple[TableRef, ...]
    predicates: tuple[Comparison, ...] = ()
    quantifier: Quantifier | None = None
    children: tuple["LogicTreeNode", ...] = ()
    _hash: int | None = _hash_field()
    __hash__ = FrozenNode.__hash__


    # ------------------------------------------------------------------ #
    # structural helpers
    # ------------------------------------------------------------------ #

    def local_aliases(self) -> frozenset[str]:
        """Aliases (lower-cased) introduced by this node's FROM clause."""
        return frozenset(table.effective_alias.lower() for table in self.tables)

    def iter_nodes(self) -> Iterator["LogicTreeNode"]:
        """Yield this node and all descendants in pre-order (stack-based)."""
        stack: list[LogicTreeNode] = [self]
        pop = stack.pop
        while stack:
            node = pop()
            yield node
            if node.children:
                stack.extend(reversed(node.children))

    def iter_with_depth(self, depth: int = 0) -> Iterator[tuple["LogicTreeNode", int]]:
        """Yield (node, nesting depth) pairs in pre-order (stack-based)."""
        stack: list[tuple[LogicTreeNode, int]] = [(self, depth)]
        pop = stack.pop
        while stack:
            node, level = pop()
            yield node, level
            if node.children:
                stack.extend((child, level + 1) for child in reversed(node.children))

    def depth(self) -> int:
        """Maximum nesting depth below (and including) this node."""
        deepest = 0
        for _node, level in self.iter_with_depth():
            if level > deepest:
                deepest = level
        return deepest

    def node_count(self) -> int:
        return sum(1 for _ in self.iter_nodes())

    def with_quantifier(self, quantifier: Quantifier | None) -> "LogicTreeNode":
        return LogicTreeNode(self.tables, self.predicates, quantifier, self.children)

    def with_children(self, children: tuple["LogicTreeNode", ...]) -> "LogicTreeNode":
        return LogicTreeNode(self.tables, self.predicates, self.quantifier, children)

    def describe(self) -> str:
        """Compact single-node description used in debugging and tests."""
        tables = ", ".join(str(table) for table in self.tables)
        predicates = ", ".join(str(p) for p in self.predicates)
        quantifier = str(self.quantifier) if self.quantifier else "root"
        return f"[{quantifier}] T:{{{tables}}} P:{{{predicates}}}"


@dataclass(frozen=True, slots=True)
class LogicTree(FrozenNode):
    """A complete Logic Tree: the root block plus its SELECT/GROUP BY lists.

    The ranked-access extension adds the root block's output modifiers:
    ``distinct`` (SELECT DISTINCT), ``order_by`` / ``limit`` / ``offset``
    (ORDER BY ... LIMIT k OFFSET m).  They are properties of the whole
    query's output, so they live here rather than on any tree node.
    """

    root: LogicTreeNode
    select_items: tuple[ColumnRef | AggregateCall, ...]
    group_by: tuple[ColumnRef, ...] = field(default=())
    distinct: bool = False
    order_by: tuple[OrderItem, ...] = ()
    limit: int | None = None
    offset: int = 0
    _hash: int | None = _hash_field()
    __hash__ = FrozenNode.__hash__

    def with_root(self, root: LogicTreeNode) -> "LogicTree":
        """Rebuild the tree around a new root, keeping every output modifier.

        Tree-rewriting passes (alias renaming, ∃-flattening, ∄∄ → ∀∃) must
        use this instead of positional construction so ORDER BY / LIMIT /
        DISTINCT survive the rewrite.
        """
        return LogicTree(
            root,
            self.select_items,
            self.group_by,
            self.distinct,
            self.order_by,
            self.limit,
            self.offset,
        )

    def iter_nodes(self) -> Iterator[LogicTreeNode]:
        return self.root.iter_nodes()

    def iter_with_depth(self) -> Iterator[tuple[LogicTreeNode, int]]:
        return self.root.iter_with_depth(0)

    def depth(self) -> int:
        """Maximum nesting depth of the tree (root = 0)."""
        return self.root.depth()

    def node_count(self) -> int:
        return self.root.node_count()

    def table_count(self) -> int:
        return sum(len(node.tables) for node in self.iter_nodes())

    def alias_map(self) -> dict[str, str]:
        """Map of alias (lower-cased) -> table name across the whole tree."""
        mapping: dict[str, str] = {}
        for node in self.iter_nodes():
            for table in node.tables:
                mapping[table.effective_alias.lower()] = table.name
        return mapping

    def node_of_alias(self, alias: str) -> LogicTreeNode:
        """Return the node whose FROM clause defines ``alias``."""
        lowered = alias.lower()
        for node in self.iter_nodes():
            if lowered in node.local_aliases():
                return node
        raise KeyError(f"alias {alias!r} is not defined anywhere in the tree")

    def depth_of_alias(self, alias: str) -> int:
        """Nesting depth of the block that defines ``alias``."""
        lowered = alias.lower()
        for node, depth in self.iter_with_depth():
            if lowered in node.local_aliases():
                return depth
        raise KeyError(f"alias {alias!r} is not defined anywhere in the tree")

    def parent_of(self, node: LogicTreeNode) -> LogicTreeNode | None:
        """Return the parent of ``node`` (None for the root)."""
        if node is self.root:
            return None
        for candidate in self.iter_nodes():
            if any(child is node for child in candidate.children):
                return candidate
        raise KeyError("node does not belong to this tree")

    def describe(self) -> str:
        """Readable multi-line description, mirroring Fig. 5 of the paper."""
        lines: list[str] = []
        select = ", ".join(str(item) for item in self.select_items)
        lines.append(f"SELECT{' DISTINCT' if self.distinct else ''}: {select}")
        if self.group_by:
            grouped = ", ".join(str(column) for column in self.group_by)
            lines.append(f"GROUP BY: {grouped}")
        if self.order_by:
            ordered = ", ".join(str(item) for item in self.order_by)
            lines.append(f"ORDER BY: {ordered}")
        if self.limit is not None:
            suffix = f" OFFSET {self.offset}" if self.offset else ""
            lines.append(f"LIMIT: {self.limit}{suffix}")
        for node, depth in self.iter_with_depth():
            lines.append("  " * depth + node.describe())
        return "\n".join(lines)
