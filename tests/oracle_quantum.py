"""Brute-force projector oracle for two-qubit measurement statistics.

Everything here is computed the slow, explicit way: build the 4x4 density
matrix, build projectors (I ± n.sigma)/2 from Bloch vectors via literal Pauli
matrices, take traces. The library under test computes the same quantities
through state-vector amplitudes and closed forms; the two routes share no code.
The exceptions are at the end: ``chsh_phase_curve``, a closed form, and
``monte_carlo_correlation``, which samples the library's own probabilities.
"""

import math

import numpy as np

from hybridqkd.quantum import joint_probability

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
IDENT = np.eye(2, dtype=complex)


def bloch_projector(n, outcome):
    """Projector onto the ±1 eigenspace of n.sigma for a unit Bloch vector n."""
    nx, ny, nz = n
    op = nx * SIGMA_X + ny * SIGMA_Y + nz * SIGMA_Z
    return (IDENT + outcome * op) / 2.0


def state_vector(phase):
    """(|H0> + e^{i phase} |V1>)/sqrt(2) in the (H0, H1, V0, V1) amplitude order."""
    psi = np.zeros(4, dtype=complex)
    psi[0] = 1.0 / np.sqrt(2.0)
    psi[3] = np.exp(1j * phase) / np.sqrt(2.0)
    return psi


def joint_prob(phase, bloch_a, bloch_b, out_a, out_b):
    psi = state_vector(phase)
    rho = np.outer(psi, psi.conj())
    pa = bloch_projector(bloch_a, out_a)
    pb = bloch_projector(bloch_b, out_b)
    return float(np.real(np.trace(rho @ np.kron(pa, pb))))


def correlation(phase, bloch_a, bloch_b):
    total = 0.0
    for xa in (+1, -1):
        for xb in (+1, -1):
            total += xa * xb * joint_prob(phase, bloch_a, bloch_b, xa, xb)
    return total


def polarizer_bloch(angle_rad):
    """Bloch vector for a linear analyzer at the given physical angle (z-x plane)."""
    return (np.sin(2 * angle_rad), 0.0, np.cos(2 * angle_rad))


def chsh(phase, bloch_a0, bloch_a1, bloch_b0, bloch_b1, sign_a0=1, sign_a1=1,
         sign_b0=1, sign_b1=1):
    e00 = sign_a0 * sign_b0 * correlation(phase, bloch_a0, bloch_b0)
    e01 = sign_a0 * sign_b1 * correlation(phase, bloch_a0, bloch_b1)
    e10 = sign_a1 * sign_b0 * correlation(phase, bloch_a1, bloch_b0)
    e11 = sign_a1 * sign_b1 * correlation(phase, bloch_a1, bloch_b1)
    return e00 + e01 + e10 - e11


def binary_entropy_ref(x):
    """Direct evaluation with explicit limits at 0 and 1."""
    if x <= 0.0 or x >= 1.0:
        return 0.0
    return float(-x * np.log2(x) - (1 - x) * np.log2(1 - x))


def holevo_ref(s):
    s = abs(s)
    if s <= 2.0:
        return 1.0
    return binary_entropy_ref((1.0 + np.sqrt(s * s / 4.0 - 1.0)) / 2.0)


def chsh_phase_curve(phase):
    """Closed form of S(phase) for the standard settings: sqrt(2)*(1 - cos(phase))."""
    return math.sqrt(2.0) * (1.0 - math.cos(phase))


def monte_carlo_correlation(state, a, b, n, rng):
    """Estimate E(a, b) by sampling ``n`` outcome pairs from the library's
    Born probabilities ``quantum.joint_probability`` (so this checks the
    sampling and its error bar, not the Born rule).  Returns (estimate,
    std_error) with the binomial error of the estimate itself.
    """
    if n < 1:
        raise ValueError("need at least one sample")
    probs = np.array([joint_probability(state, a, b, xa, xb)
                      for xa in (1, -1) for xb in (1, -1)])
    probs = probs / probs.sum()
    counts = rng.multinomial(n, probs)
    same = int(counts[0] + counts[3])
    value = (2.0 * same - n) / n
    std_error = math.sqrt(4.0 * same * (n - same) / n**3)
    return value, std_error
