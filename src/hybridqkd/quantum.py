"""Measurement settings and key-rate math for the entangled-pair link.

The source emits photon pairs in the superposition

    (|H>|0> + e^{i phi} |V>|1>) / sqrt(2)

where Alice's qubit is polarization (H/V) and Bob's is a time-bin qubit
(|0> early / |1> late).  Alice analyzes with a polarizer at angle alpha,
which measures the Bloch observable cos(2a) sigma_z + sin(2a) sigma_x; Bob
either reads the arrival-time bin directly (sigma_z) or interferes the bins
and reads the relative phase (sigma_x).

This module keeps what the simulator and the protocol read: the five
analyzer settings (Bloch vectors and detector-port wiring) and the
information-theoretic quantities (mutual information, eavesdropper bound,
secure fraction) derived from the measured S value and error rate.  The
simulator draws outcomes from the settings' Bloch vectors directly; the
Born-rule state, joint probabilities and CHSH value the tests check it
against live in ``tests/oracle_quantum.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

SQRT2 = math.sqrt(2.0)
CHSH_CLASSICAL_BOUND = 2.0
CHSH_QUANTUM_BOUND = 2.0 * SQRT2

__all__ = [
    "MeasurementSetting",
    "SecurityQuantities",
    "polarizer_setting",
    "time_basis_setting",
    "phase_basis_setting",
    "standard_settings",
    "binary_entropy",
    "mutual_information",
    "holevo_bound",
    "security_quantities",
]


@dataclass(frozen=True)
class MeasurementSetting:
    """One analyzer setting: an observable plus its detector-port wiring.

    bloch:
        Unit Bloch vector of the +/-1 observable n.sigma.
    plus_port / minus_port:
        Detector channel ids wired to this setting's two output ports, named
        by the sign they carry in count-based correlation estimates.
    outcome_sign:
        +1 if the plus port fires on quantum outcome +1, -1 if the wiring is
        flipped (the plus-labeled detector fires on outcome -1).  The a1
        analyzer of the standard setting set uses -1; with that convention
        the CHSH combination peaks at the reference phase pi.
    """

    name: str
    bloch: tuple[float, float, float]
    plus_port: int
    minus_port: int
    outcome_sign: int = 1

    def __post_init__(self):
        n = np.asarray(self.bloch, dtype=float)
        if not math.isclose(float(np.linalg.norm(n)), 1.0, rel_tol=0, abs_tol=1e-9):
            raise ValueError(f"setting {self.name!r}: Bloch vector must be unit length")
        if self.outcome_sign not in (1, -1):
            raise ValueError(f"setting {self.name!r}: outcome_sign must be +1 or -1")
        if self.plus_port == self.minus_port:
            raise ValueError(f"setting {self.name!r}: ports must differ")


def polarizer_setting(name: str, angle_rad: float, plus_port: int, minus_port: int,
                      outcome_sign: int = 1) -> MeasurementSetting:
    """Analyzer at physical angle ``angle_rad``: Bloch angle 2*angle in the z-x plane."""
    return MeasurementSetting(
        name=name,
        bloch=(math.sin(2 * angle_rad), 0.0, math.cos(2 * angle_rad)),
        plus_port=plus_port,
        minus_port=minus_port,
        outcome_sign=outcome_sign,
    )


def time_basis_setting(name: str, plus_port: int, minus_port: int) -> MeasurementSetting:
    """Arrival-time readout of the time-bin qubit: sigma_z, |0> on the plus port."""
    return MeasurementSetting(name, (0.0, 0.0, 1.0), plus_port, minus_port)


def phase_basis_setting(name: str, plus_port: int, minus_port: int) -> MeasurementSetting:
    """Interferometric readout of the time-bin qubit: sigma_x."""
    return MeasurementSetting(name, (1.0, 0.0, 0.0), plus_port, minus_port)


DEG = math.pi / 180.0


def standard_settings() -> dict[str, MeasurementSetting]:
    """The five analyzer settings of the link, with detector-port wiring.

    Alice: a2 at 0 deg on channels (1, 2), a0 at -22.5 deg on (3, 4), a1 at
    -67.5 deg on (5, 6) with flipped outcome signs.  Bob: time basis b0 on
    channels (1, 2), phase basis b1 on (3, 4).  Channel ids are per party.
    """
    return {
        "a2": polarizer_setting("a2", 0.0, plus_port=1, minus_port=2),
        "a0": polarizer_setting("a0", -22.5 * DEG, plus_port=3, minus_port=4),
        "a1": polarizer_setting("a1", -67.5 * DEG, plus_port=6, minus_port=5,
                                outcome_sign=-1),
        "b0": time_basis_setting("b0", plus_port=1, minus_port=2),
        "b1": phase_basis_setting("b1", plus_port=3, minus_port=4),
    }


def binary_entropy(x: float) -> float:
    """h(x) = -x log2 x - (1-x) log2 (1-x), with h(0) = h(1) = 0.

    >>> binary_entropy(0.5)
    1.0
    >>> binary_entropy(0.0)
    0.0
    """
    if x < 0.0 or x > 1.0:
        raise ValueError(f"binary_entropy argument {x} outside [0, 1]")
    if x == 0.0 or x == 1.0:
        return 0.0
    return float(-x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x))


def mutual_information(qber: float) -> float:
    """Shared information per sifted bit between the honest parties: 1 - h(Q)."""
    return 1.0 - binary_entropy(qber)


def holevo_bound(s: float) -> float:
    """Upper bound on the eavesdropper's information per bit given CHSH value S.

    For |S| <= 2 the bound is vacuous (1 bit): without a Bell violation the
    correlations admit a local model and the channel must be assumed fully
    known to the adversary.  Above 2 it decreases monotonically, reaching 0
    at the Tsirelson bound 2*sqrt(2).
    """
    s = abs(s)
    if s <= CHSH_CLASSICAL_BOUND:
        return 1.0
    s = min(s, CHSH_QUANTUM_BOUND)
    return binary_entropy((1.0 + math.sqrt(s * s / 4.0 - 1.0)) / 2.0)


@dataclass(frozen=True)
class SecurityQuantities:
    """Information-theoretic summary of one measurement block."""

    i_ab: float
    i_eve: float
    secure_fraction: float


def security_quantities(s: float, qber: float) -> SecurityQuantities:
    """I_AB, I_E and the distillable fraction max(0, I_AB - I_E) per
    sifted bit."""
    i_ab = mutual_information(qber)
    i_eve = holevo_bound(s)
    return SecurityQuantities(i_ab=i_ab, i_eve=i_eve,
                              secure_fraction=max(0.0, i_ab - i_eve))
