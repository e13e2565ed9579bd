"""Keyword configuration for every workload, kept forward-compatible.

Each workload's constructor keywords live in one dict.  Before a
constructor is called, keys it no longer accepts are dropped (and
reported), so when a flag becomes unconditional behaviour and its
keyword goes away, the benchmark keeps running unchanged.
"""

import inspect

#: The one Grid configuration the benchmark measures: every proven
#: scaling path on, oneway batching (slated for deletion) and chunked
#: checkpoints (a per-store trade-off) off, no tuning knob set.
GRID_FLAGS = {
    "delta_updates": True,
    "batched_ingest": True,
    "fast_local": True,
    "zero_copy_cdr": True,
    "skip_unchanged_checkpoints": True,
    "incremental_summaries": True,
    "indexed_placement": True,
    "delta_uplinks": True,
    "batch_oneway": False,
    "chunked_checkpoints": False,
}

#: ORB keywords for the wire workload (both ends).  ``tcp`` is what the
#: workload is about; of the two TCP framings it runs the correlation-id
#: one.  The legacy framing leaves Nagle's algorithm on, so a two-way
#: call sent right after oneways waits out the peer's delayed ACK
#: (about 40 ms on Linux) -- mixed control traffic cannot run on it.
WIRE_ORB = {
    "tcp": True,
    "tcp_pipelined": True,
    "zero_copy_cdr": True,
    "batch_oneway": False,
}

#: GRM keywords for the wire workload's cluster manager.
WIRE_GRM = {
    "batched_ingest": True,
}


def applicable(constructor, config: dict):
    """Split ``config`` into (accepted, dropped) for ``constructor``."""
    params = inspect.signature(constructor).parameters
    if any(p.kind is p.VAR_KEYWORD for p in params.values()):
        return dict(config), []
    accepted = {k: v for k, v in config.items() if k in params}
    dropped = sorted(k for k in config if k not in params)
    return accepted, dropped
