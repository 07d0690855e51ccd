"""Fold cProfile stats into per-layer self time, call counts and edges.

A layer is a package under ``src/repro``; ``repro.experiments`` holds the
application processes the cells drive, so it counts as ``apps``.  Every
other function (C builtins, the stdlib, ``repro.analysis``) belongs to no
layer: its self time is charged to the layers of its callers, in
proportion to the self time cProfile recorded on each caller edge, and a
caller that itself belongs to no layer passes the charge up through its
own callers, weighted by call counts.  For call and edge counts such a
caller counts as the layer that makes most of its calls.  What no layer
calls stays unattributed; ``coverage`` is the attributed share.
"""

from __future__ import annotations

from collections import defaultdict
from pathlib import Path
from typing import Dict, Iterable, Optional, Tuple

LAYERS = ("sim", "net", "nic", "transport", "core", "mem", "iommu", "host",
          "apps")
PACKAGE_LAYER = {**{layer: layer for layer in LAYERS}, "experiments": "apps"}

EDGES = (
    ("apps", "transport"), ("transport", "nic"), ("nic", "transport"),
    ("transport", "sim"),
    ("nic", "net"), ("net", "nic"), ("net", "sim"), ("nic", "sim"),
    ("nic", "core"), ("core", "sim"), ("core", "mem"), ("core", "iommu"),
)

#: ``Environment`` methods that create an event or a process.
EVENT_FACTORIES = ("timeout", "after", "at", "defer", "schedule_callback",
                   "event", "process")

Func = Tuple[str, int, str]   # cProfile's (filename, first line, name)


def _label(code) -> Func:
    return (code.co_filename, code.co_firstlineno, code.co_name)


def attribute(stats: dict, package_root: Path, passes: int,
              events: Iterable, processes) -> dict:
    """Fold ``Profile.stats`` into per-pass layer totals.

    ``stats`` maps each function to ``(cc, nc, tt, ct, callers)`` with
    ``callers[caller] = (nc, cc, tt, ct)``.  ``events`` are the code
    objects whose calls count as ``sim.events``; ``processes`` is the code
    whose calls count as ``sim.processes``.  Times and counts are divided
    by ``passes``.
    """
    prefix = str(package_root) + "/"

    def own_layer(func: Func) -> Optional[str]:
        if not func[0].startswith(prefix):
            return None
        return PACKAGE_LAYER.get(func[0][len(prefix):].split("/", 1)[0])

    own = {func: own_layer(func) for func in stats}
    shares: Dict[Func, Dict[str, float]] = {}

    def layer_shares(func: Func) -> Dict[str, float]:
        """Which layers a function's calls come from, as shares."""
        if own.get(func):
            return {own[func]: 1.0}
        if func in shares or func not in stats:
            return shares.get(func, {})
        shares[func] = {}            # a cycle of unowned callers adds nothing
        callers = stats[func][4]
        total = sum(edge[0] for edge in callers.values())
        out: Dict[str, float] = defaultdict(float)
        for caller, edge in callers.items():
            for layer, share in layer_shares(caller).items():
                out[layer] += share * edge[0] / total
        shares[func] = dict(out)
        return shares[func]

    def caller_layer(func: Func) -> Optional[str]:
        s = layer_shares(func)
        return max(s, key=s.get) if s else None

    self_s = dict.fromkeys(LAYERS, 0.0)
    calls = dict.fromkeys(LAYERS, 0)
    calls_in = dict.fromkeys(LAYERS, 0)
    edges = dict.fromkeys(EDGES, 0)
    total_self = 0.0
    functions = []
    for func, (cc, nc, tt, ct, callers) in stats.items():
        total_self += tt
        layer = own[func]
        functions.append(dict(func=f"{func[0]}:{func[1]}({func[2]})",
                              layer=layer, self_s=tt / passes,
                              cum_s=ct / passes, calls=nc / passes))
        if layer:
            self_s[layer] += tt
            calls[layer] += nc
        else:
            for caller, edge in callers.items():
                for l, share in layer_shares(caller).items():
                    self_s[l] += edge[2] * share
        if not layer:
            continue
        for caller, edge in callers.items():
            src = caller_layer(caller)
            if src and src != layer:
                calls_in[layer] += edge[0]
                if (src, layer) in edges:
                    edges[src, layer] += edge[0]

    def calls_to(codes) -> int:
        return sum(stats[k][1] for k in map(_label, codes) if k in stats)

    attributed = sum(self_s.values())
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = self_s[layer] / passes
        metrics[f"{layer}.self_share"] = (self_s[layer] / total_self
                                          if total_self else 0.0)
        metrics[f"{layer}.calls"] = calls[layer] / passes
        metrics[f"{layer}.calls_in"] = calls_in[layer] / passes
    for (src, dst), n in edges.items():
        metrics[f"edge.{src}.{dst}.calls"] = n / passes
    metrics["sim.events"] = calls_to(events) / passes
    metrics["sim.processes"] = calls_to([processes]) / passes
    functions.sort(key=lambda f: -f["self_s"])
    return dict(
        metrics=metrics,
        total_self_s=total_self / passes,
        unattributed_s=(total_self - attributed) / passes,
        coverage=attributed / total_self if total_self else 0.0,
        passes=passes,
        functions=functions,
    )
