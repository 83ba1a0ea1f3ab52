"""Reference QBER estimation on sifted keys, for the protocol tests.

The session computes its QBER from the sampled positions inside the
protocol; this is the standalone form those tests pin: compare a random
sample of key bits in public, then drop the sample from both keys.
"""

from dataclasses import replace

import numpy as np

from hybridqkd.protocol import SiftedKey, sample_positions


def estimate_qber(alice_key: SiftedKey, bob_key: SiftedKey,
                  sample_fraction: float, rng):
    """Publicly compare a random sample of key bits and remove it.

    Returns ``(qber, (alice_remaining, bob_remaining))``; the sampled
    positions are excluded from both remaining keys.
    """
    if len(alice_key) != len(bob_key):
        raise ValueError("keys must have equal length")
    positions = sample_positions(len(alice_key), sample_fraction, rng)
    mism = int((alice_key.bits[positions] != bob_key.bits[positions]).sum())
    qber = mism / positions.size
    keep = np.ones(len(alice_key), dtype=bool)
    keep[positions] = False
    out = tuple(replace(k, bits=k.bits[keep], pair_ids=k.pair_ids[keep])
                for k in (alice_key, bob_key))
    return qber, out
