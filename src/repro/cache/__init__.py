"""Cache replacement policies used by the paper's schemes.

- :class:`LruCache` — reference policy (and ProWGen's stack model).
- :class:`LfuCache` — NC / SC / NC-EC / SC-EC replacement (§2).
- :class:`GreedyDualCache` — Young's greedy-dual, the core of Hier-GD (§3).
- :class:`CostBenefitCache` — FC / FC-EC's value-based replacement as one
  cache (§2): a reference for tests and the ledger; the schemes run their
  own coordinated copy store.
- :class:`TieredCache` — the unified proxy + P2P cache of the -EC model.
- :class:`HeapDict` — shared addressable lazy-deletion heap.
"""

from .base import Cache, CacheStats
from .cost_benefit import CostBenefitCache, FrequencyOracle
from .greedy_dual import GreedyDualCache
from .heapdict import HeapDict
from .lfu import LfuCache
from .lru import LruCache
from .tiered import CLIENT_TIER, PROXY_TIER, TieredCache

__all__ = [
    "Cache",
    "CacheStats",
    "CostBenefitCache",
    "FrequencyOracle",
    "GreedyDualCache",
    "HeapDict",
    "LfuCache",
    "LruCache",
    "TieredCache",
    "PROXY_TIER",
    "CLIENT_TIER",
]
