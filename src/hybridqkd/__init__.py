"""Simulator and analysis toolkit for an entanglement-based QKD link.

The package models a photon-pair source whose two qubits live in different
degrees of freedom (polarization on the short free-space arm, time-bin on the
fiber arm), the passive analyzer optics and single-photon detectors on both
ends, the time-tag streams they record, and the two-party post-processing
that turns coincidences into a sifted key with a CHSH-based security verdict.

Modules:
    quantum   -- measurement settings, key-rate information math
    optics    -- Monte-Carlo session simulator producing time-tag streams
    kernels   -- vectorized numpy inner loops over time-tag arrays
    tags      -- delay recovery, coincidence matching, correlation estimates
    protocol  -- sifting, error sampling, security reports, wire transport
    harness   -- scenario configs, calibration, CSV/manifest outputs
    cli       -- command-line entry point (run / calibrate / analyze)
"""

__version__ = "0.1.0"

from .quantum import (  # noqa: F401
    CHSH_CLASSICAL_BOUND,
    CHSH_QUANTUM_BOUND,
    MeasurementSetting,
    SecurityQuantities,
    binary_entropy,
    holevo_bound,
    mutual_information,
    standard_settings,
)
