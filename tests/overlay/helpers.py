"""Overlay construction shared by the overlay tests."""

from __future__ import annotations


def joined(cls, names_or_n: list[str] | int, **kwargs):
    """A ``cls(**kwargs)`` overlay whose nodes joined one at a time.

    ``names_or_n`` is a list of node names or a count N, which joins
    ``cache-0`` … ``cache-{N-1}``.  Each join goes through ``add_named``,
    the path churn takes; ``bulk_add_named`` builds the converged state
    at once instead.
    """
    overlay = cls(**kwargs)
    if isinstance(names_or_n, int):
        names_or_n = [f"cache-{i}" for i in range(names_or_n)]
    for name in names_or_n:
        overlay.add_named(name)
    return overlay
