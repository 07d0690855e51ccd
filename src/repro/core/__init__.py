"""The paper's contribution: NPF support, ODP regions and pinning baselines."""

from .costs import NpfBreakdown, NpfCosts
from .driver import NpfDriver
from .npf import NpfEvent, NpfKind, NpfLog, NpfSide
from .pin_down_cache import PinDownCache, PinDownStats
from .pinning import FineGrainedPinner, StaticPinner
from .provider import IoProvider
from .regions import MemoryRegion, OdpMemoryRegion, PinnedMemoryRegion

__all__ = [
    "NpfBreakdown",
    "NpfCosts",
    "NpfDriver",
    "NpfEvent",
    "NpfKind",
    "NpfLog",
    "NpfSide",
    "PinDownCache",
    "PinDownStats",
    "FineGrainedPinner",
    "StaticPinner",
    "IoProvider",
    "MemoryRegion",
    "OdpMemoryRegion",
    "PinnedMemoryRegion",
]
