"""Seeded fault plans for the fault-injection, chaos and soak suites.

A plan drawn here is a function of its arguments alone, so a CI matrix
entry can name its faults by seed (``REPRO_FAULT_SEEDS``).
"""

from __future__ import annotations

import random

from repro.exec.faults import FaultPlan


def seeded_plan(seed: int, num_queries: int, num_batches: int = 0,
                raise_fraction: float = 0.25, crash_batches: int = 1,
                store_ops: int = 0) -> FaultPlan:
    """A reproducible plan over a run of known size.

    ``store_ops`` > 0 additionally samples store-I/O faults (one read
    EIO, one torn write, one bit flip) over that many store operations.
    """
    rng = random.Random(seed)
    count = max(1, int(num_queries * raise_fraction))
    raises = frozenset(rng.sample(range(num_queries),
                                  min(count, num_queries)))
    crashes: frozenset[int] = frozenset()
    if num_batches > 0 and crash_batches > 0:
        crashes = frozenset(rng.sample(range(num_batches),
                                       min(crash_batches, num_batches)))
    read_eio: frozenset[int] = frozenset()
    torn: frozenset[int] = frozenset()
    flips: frozenset[int] = frozenset()
    if store_ops > 0:
        read_eio = frozenset({rng.randrange(store_ops)})
        torn = frozenset({rng.randrange(store_ops)})
        flips = frozenset({rng.randrange(store_ops)}) - torn
    return FaultPlan(raise_on_query=raises, crash_on_batch=crashes,
                     store_read_eio=read_eio, torn_write_on=torn,
                     bit_flip_on=flips)
