"""Structured-overlay substrate: id space, backends, membership, DHT.

The paper (§4.1) federates the browser caches of a client cluster into one
P2P client cache using the Pastry overlay; this subpackage implements that
substrate from scratch, behind a backend contract so the caching schemes
above are overlay-agnostic.  It keeps the parts of Pastry the paper uses:
DHT placement, prefix routing (hop counts) and the leaf set, which
Hier-GD's diversion and replication draw on (§4.3).  Pastry's locality
heuristic, which fills routing-table slots with physically close nodes,
is not modelled: no figure measures physical route length.

- :mod:`repro.overlay.id_space` — the circular 128-bit identifier space.
- :mod:`repro.overlay.contract` — the :class:`OverlayBackend` contract
  (membership, ownership, routing, neighbourhood) every backend satisfies.
- :mod:`repro.overlay.pastry` — Pastry routing table + leaf set per node.
- :mod:`repro.overlay.network` — the Pastry backend: membership,
  join/failure repair, prefix routing.
- :mod:`repro.overlay.chord` — the Chord backend: successor placement,
  finger-table routing, lazy finger repair.
- :mod:`repro.overlay.factory` — config → backend selection.
- :mod:`repro.overlay.placement` — objectId → owning cacheId placement:
  vectorised whole object → owner tables (Squirrel, Hier-GD) and the
  :class:`KeyRing` that finds the objects a membership change moves.
"""

from .chord import DEFAULT_SUCCESSOR_LIST_SIZE, ChordNode, ChordOverlay
from .contract import OverlayBackend, OverlayRoutingError, RouteResult, RouteStats
from .factory import OVERLAY_BACKENDS, make_overlay
from .id_space import (
    IdSpace,
    node_id_from_name,
    object_id_for_url,
    ring_distance,
    shared_prefix_len,
)
from .network import Overlay
from .pastry import DEFAULT_LEAF_SET_SIZE, LeafSet, PastryNode, RoutingTable
from .placement import KeyRing, build_owner_table, object_ids_for_urls

__all__ = [
    "IdSpace",
    "node_id_from_name",
    "object_id_for_url",
    "ring_distance",
    "shared_prefix_len",
    "OverlayBackend",
    "OverlayRoutingError",
    "Overlay",
    "ChordOverlay",
    "ChordNode",
    "RouteResult",
    "RouteStats",
    "OVERLAY_BACKENDS",
    "make_overlay",
    "DEFAULT_LEAF_SET_SIZE",
    "DEFAULT_SUCCESSOR_LIST_SIZE",
    "LeafSet",
    "PastryNode",
    "RoutingTable",
    "KeyRing",
    "build_owner_table",
    "object_ids_for_urls",
]
