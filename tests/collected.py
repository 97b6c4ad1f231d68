"""Whole-run path columns, gathered through an engine's sink.

The engines hand each batch's columns to a sink as views into a workspace
that the next batch overwrites, and keep nothing of them.  `Collector`
copies every batch and joins them into the columns of the whole run: a
list per key of _PATH_KEYS, one entry per step (None where the engines
give None, the mid-step bid/ask entries), plus ``eps``.
"""

import numpy as np

PATH_KEYS = ("s", "bid", "ask", "theta", "v")


class Collector:
    """A sink that copies each batch's columns into ``batches``, in path
    order; `columns` joins each entry with one np.concatenate."""

    def __init__(self):
        self.batches = []

    def __call__(self, cols: dict):
        copy = {k: [None if c is None else c.copy() for c in cols[k]] for k in PATH_KEYS}
        self.batches.append(dict(copy, eps=cols["eps"].copy()))

    def columns(self) -> dict:
        def join(parts):
            return None if parts[0] is None else np.concatenate(parts)

        raw = {
            k: [join(parts) for parts in zip(*(b[k] for b in self.batches))]
            for k in PATH_KEYS
        }
        return dict(raw, eps=join([b["eps"] for b in self.batches]))


def collect(simulate, *args, **kwargs):
    """(SimStats, whole-run columns) of ``simulate(*args, **kwargs)`` run
    with a `Collector` as its sink."""
    sink = Collector()
    stats, _ = simulate(*args, sink=sink, **kwargs)
    return stats, sink.columns()
