"""Positional LRU stack — the temporal-locality engine of ProWGen.

ProWGen (Busari & Williamson, INFOCOM'01) injects temporal locality into
the generated reference stream with a *finite-size LRU stack*: recently
referenced objects sit near the top and are re-referenced with
position-dependent (recency-skewed) probability; the stack size bounds how
many objects participate in the temporally local regime at once.

The generator only ever touches the stack *by position*: a stack hit
knows the position it just drew, an outside draw pushes a non-member, and
an exhausted object leaves from the position it was drawn at.  So the
stack is a plain list with the top at the tail — ``pop_at`` is one
``del`` (a C ``memmove`` of the entries above), ``push`` an ``append``.
At the paper's stack sizes (150–3 000 entries) that memmove is an order
of magnitude cheaper than the ~20 interpreted steps of an order-statistic
tree, and it stays ahead up to 3·10⁵-entry stacks (EXPERIMENTS.md,
"Workload generation").  ``push`` overflows with a ``pop(0)``, which
shifts the whole list; the generator's loop binds ``_items`` itself, as
a friend, and evicts instead by advancing an offset over the list's
head, deleting the evicted prefix in bulk (``_emit_stream_chunks``).
Keep the layout: least recent first, top at the tail.
"""

from __future__ import annotations

from typing import Hashable

__all__ = ["LruStack"]


class LruStack:
    """Finite LRU stack addressed by position (1 = most recently referenced).

    A re-reference is ``push(pop_at(position))``; members are never looked
    up by value, so ``push`` takes the caller's word that its argument is
    not already a member.
    """

    __slots__ = ("capacity", "_items")

    def __init__(self, capacity: int) -> None:
        if capacity < 0:
            raise ValueError("capacity must be non-negative")
        self.capacity = capacity
        self._items: list[Hashable] = []  # least recent first, top at the tail

    def __len__(self) -> int:
        return len(self._items)

    def pop_at(self, position: int) -> Hashable:
        """Remove and return the member at stack ``position``."""
        items = self._items
        if not 1 <= position <= len(items):
            raise IndexError(f"position {position} out of range 1..{len(items)}")
        return items.pop(-position)

    def push(self, obj: Hashable) -> Hashable | None:
        """Place non-member ``obj`` on top.

        Returns the bottom member evicted by overflow, or None.  A
        zero-capacity stack absorbs nothing.
        """
        if self.capacity == 0:
            return None
        self._items.append(obj)
        if len(self._items) > self.capacity:
            return self._items.pop(0)
        return None
