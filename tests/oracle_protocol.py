"""References for the protocol tests.

``estimate_qber`` is the standalone form of the session's QBER estimate:
compare a random sample of key bits in public, then drop the sample from
both keys.  ``_SharedComputation`` and ``_assemble`` are the per-block
accounting as the protocol once ran it, one ``== block_id`` mask over
the pairs and the key per block, with each party holding a full-length
array of the peer's key bits, padded with ``OUTCOME_HIDDEN`` where
nothing was disclosed.  ``protocol._account`` must give the same keys
and report bytes.
"""

from dataclasses import replace

import numpy as np

from hybridqkd import tags
from hybridqkd.protocol import (
    AGGREGATE_BLOCK_ID,
    LABEL_KEY_BASIS,
    LABEL_TEST_MINUS,
    PS_PER_SECOND,
    ROLE_KEY,
    ROLE_TEST,
    SecurityReport,
    SessionParams,
    SiftedKey,
    build_report,
    report_csv,
    sample_positions,
)


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


class _SharedComputation:
    """Everything both parties derive from the disclosed data.

    After ``sample_reveal`` the two sides hold identical copies of: the
    matched pair list with roles and settings, both outcome bits for
    every test pair, and the disclosed sample bits.  This object turns
    those into per-block CHSH values, QBER, key accounting, and the
    report, guaranteeing byte-identical results on both ends.
    """

    def __init__(self, params: SessionParams, pair_block: np.ndarray,
                 roles: np.ndarray, alice_setting: np.ndarray,
                 alice_test_bit: np.ndarray, bob_label: np.ndarray,
                 bob_test_bit: np.ndarray):
        self.params = params
        self.pair_block = pair_block
        # per pair, its place in tags.fold's terms: 4 * Alice's setting +
        # 2 * (Bob measured in his test basis) + (the two outcome bits
        # agree); 8, outside the CHSH terms, for every other pair
        code = alice_setting.astype(np.intp) * 4
        code += 2 * (bob_label != LABEL_KEY_BASIS)
        code += alice_test_bit == bob_test_bit
        code[roles != ROLE_TEST] = 8
        self.chsh_code = code

    def chsh_for_block(self, block_id: int):
        """CHSH value from the test pairs of one block (or all blocks
        for the aggregate when block_id is AGGREGATE_BLOCK_ID)."""
        code = self.chsh_code
        if block_id != AGGREGATE_BLOCK_ID:
            code = code[self.pair_block == block_id]
        terms = np.bincount(code, minlength=12).reshape(3, 2, 2)
        try:
            s = tags.estimate(terms)["S"]
        except tags.InsufficientStatisticsError:  # a CHSH term is empty
            return 0.0, float("inf")
        return s.value, s.std_error

    def report_for(self, alice_key_bits, bob_key_bits, key_block,
                   sampled_mask):
        """Per-block and aggregate security accounting.

        ``sampled_mask`` marks key positions disclosed during error
        estimation; in sample mode those bits are excluded from the raw
        count (they are destroyed by disclosure), in offline mode the
        comparison is diagnostic and the count keeps every bit.
        """
        p = self.params
        offline = p.qber_mode == "offline"

        def row(block_id, disclosed, key_bits, duration_ps):
            n_disc = int(disclosed.sum())
            if n_disc:
                mism = int((alice_key_bits[disclosed]
                            != bob_key_bits[disclosed]).sum())
                qber = mism / n_disc
            else:
                qber = float("nan")
            raw = key_bits - (0 if offline else n_disc)
            s, s_err = self.chsh_for_block(block_id)
            return build_report(block_id, s, s_err, qber, raw,
                                duration_ps / PS_PER_SECOND, p.abort_sigma)

        rows = []
        for block_id in range(p.n_blocks):
            in_block = key_block == block_id
            start = block_id * p.block_ps
            rows.append(row(block_id, sampled_mask & in_block,
                            int(in_block.sum()),
                            min(p.block_ps, p.duration_ps - start)))
        aggregate = row(AGGREGATE_BLOCK_ID, sampled_mask,
                        alice_key_bits.shape[0], p.duration_ps)
        return SecurityReport(blocks=tuple(rows), aggregate=aggregate)


def _assemble(params, pair_times, roles, alice_setting, alice_outcome,
              bob_label, reveal_mask, revealed_test_bits,
              positions, alice_key_bits, bob_key_bits, party):
    """Build the final keys and the report for one party.

    ``alice_key_bits`` / ``bob_key_bits`` hold the key-position bits each
    side knows (its own in full; the peer's only at disclosed positions).
    The report only ever reads disclosed positions, so both parties
    compute identical bytes.
    """
    # Bob's outcome bit for every test pair: announced by the label for
    # his test basis, disclosed in sample_reveal for his key basis
    bob_test_bit = np.zeros(roles.shape[0], dtype=np.uint8)
    bob_test_bit[bob_label == LABEL_TEST_MINUS] = 1
    bob_test_bit[reveal_mask] = revealed_test_bits

    # blocks are cut on Bob's clock (the only per-pair time both sides
    # share); tags pushed past the declared span by the channel delay
    # fold into the last block
    pair_block = np.minimum(pair_times // params.block_ps,
                            params.n_blocks - 1).astype(np.int64)
    shared = _SharedComputation(
        params=params, pair_block=pair_block, roles=roles,
        alice_setting=alice_setting, alice_test_bit=alice_outcome,
        bob_label=bob_label, bob_test_bit=bob_test_bit)

    key_mask = roles == ROLE_KEY
    key_block = pair_block[key_mask]
    key_count = int(key_mask.sum())
    sampled_mask = np.zeros(key_count, dtype=bool)
    sampled_mask[positions] = True
    report = shared.report_for(alice_key_bits, bob_key_bits, key_block,
                               sampled_mask)
    csv_bytes = report_csv(report).encode("ascii")

    # per-block keys, without the disclosed bits in sample mode, up to the
    # first aborted block
    own_bits = alice_key_bits if party == "alice" else bob_key_bits
    pair_ids = np.flatnonzero(key_mask)
    keep = ~sampled_mask if params.qber_mode == "sample" else True
    abort_block = report.abort_block()
    keys = []
    for block_id in range(params.n_blocks if abort_block is None
                          else abort_block):
        mask = keep & (key_block == block_id)
        keys.append(SiftedKey(bits=own_bits[mask], pair_ids=pair_ids[mask],
                              block_id=block_id))
    return keys, report, csv_bytes
