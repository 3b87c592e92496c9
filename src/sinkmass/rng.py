"""Deterministic random-number substreams.

All randomness in the package flows from one master seed. Components draw
from named substreams so that, e.g., re-running the bootstrap does not
consume numbers destined for weight initialization. Substream derivation is
stable across platforms and process invocations.
"""

from __future__ import annotations

import numpy as np


def _name_key(name: str) -> int:
    import hashlib  # loads OpenSSL, which commands that derive no substream never need
    digest = hashlib.sha256(name.encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "little")


def substream(seed: int, *names: str | int) -> np.random.Generator:
    """Return a generator for the substream identified by ``names``.

    String components are hashed; integer components (fold or draw indices)
    are used directly in the spawn key.
    """
    key = tuple(_name_key(n) if isinstance(n, str) else int(n) for n in names)
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


def derive_seed(seed: int, *names: str | int) -> int:
    """Derive a child integer seed for a component that takes its own seed."""
    key = tuple(_name_key(n) if isinstance(n, str) else int(n) for n in names)
    return int(np.random.SeedSequence(seed, spawn_key=key).generate_state(1, np.uint32)[0])
