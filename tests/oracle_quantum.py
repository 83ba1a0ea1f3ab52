"""Two-qubit measurement statistics by two independent routes.

The projector route does everything the slow, explicit way: build the
4x4 density matrix, build projectors (I ± n.sigma)/2 from Bloch vectors
via literal Pauli matrices, take traces.  The amplitude route
(``TwoQubitState``, ``joint_probability``, ``setting_correlation`` and
``chsh_value``) takes ``hybridqkd.quantum`` settings and projects the
state vector onto eigenvectors of n.sigma.  The two routes share no
code; ``test_quantum.py`` checks them against each other and against
closed forms, and the simulator's statistics are checked against the
amplitude route.  The exceptions are at the end: ``chsh_phase_curve``, a
closed form, and ``monte_carlo_correlation``, which samples the
amplitude route's probabilities.
"""

import math
from dataclasses import dataclass

import numpy as np

SQRT2 = math.sqrt(2.0)

# ---------------------------------------------------------------------------
# projector route
# ---------------------------------------------------------------------------

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


# ---------------------------------------------------------------------------
# amplitude route
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TwoQubitState:
    """Pure two-qubit state as four amplitudes in the (H0, H1, V0, V1) order."""

    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex).reshape(4)
        norm = np.linalg.norm(amps)
        if not math.isclose(norm, 1.0, rel_tol=0, abs_tol=1e-9):
            raise ValueError(f"state norm is {norm:.12f}, expected 1")
        object.__setattr__(self, "amplitudes", amps)


def hybrid_state(phase: float) -> TwoQubitState:
    """The source state (|H0> + e^{i phase} |V1>)/sqrt(2)."""
    amps = np.zeros(4, dtype=complex)
    amps[0] = 1.0 / SQRT2
    amps[3] = np.exp(1j * phase) / SQRT2
    return TwoQubitState(amps)


def _eigenvector(bloch, outcome: int) -> np.ndarray:
    """Eigenvector of n.sigma with eigenvalue ``outcome`` (+1 or -1)."""
    nx, ny, nz = bloch
    if outcome == -1:
        nx, ny, nz = -nx, -ny, -nz
    theta = math.acos(max(-1.0, min(1.0, nz)))
    azim = math.atan2(ny, nx)
    return np.array(
        [math.cos(theta / 2.0),
         np.exp(1j * azim) * math.sin(theta / 2.0)],
        dtype=complex,
    )


def joint_probability(state: TwoQubitState, a, b, a_out: int,
                      b_out: int) -> float:
    """Born probability of quantum outcomes (a_out, b_out) for the
    ``MeasurementSetting``s (a, b).

    Outcomes are the +/-1 eigenvalues of the settings' observables; port
    wiring and outcome_sign play no role here.
    """
    if a_out not in (1, -1) or b_out not in (1, -1):
        raise ValueError("outcomes must be +1 or -1")
    chi_a = _eigenvector(a.bloch, a_out)
    chi_b = _eigenvector(b.bloch, b_out)
    amp = np.vdot(np.kron(chi_a, chi_b), state.amplitudes)
    p = float(np.real(amp * np.conj(amp)))
    # clip float dust so downstream sampling sees exact [0, 1]
    return min(1.0, max(0.0, p))


def setting_correlation(state: TwoQubitState, a, b) -> float:
    """E(a, b) = sum over outcomes of x*y*P(x, y).  In [-1, 1]."""
    total = 0.0
    for xa in (1, -1):
        for xb in (1, -1):
            total += xa * xb * joint_probability(state, a, b, xa, xb)
    return total


def _signed_correlation(state, a, b):
    return a.outcome_sign * b.outcome_sign * setting_correlation(state, a, b)


def chsh_value(state: TwoQubitState, a0, a1, b0, b1) -> float:
    """S = E(a0,b0) + E(a0,b1) + E(a1,b0) - E(a1,b1), port-sign convention applied.

    Each term uses the settings' outcome_sign flags, i.e. it is the value a
    count-based estimator over the plus/minus detector pairs converges to.
    """
    return (
        _signed_correlation(state, a0, b0)
        + _signed_correlation(state, a0, b1)
        + _signed_correlation(state, a1, b0)
        - _signed_correlation(state, a1, b1)
    )


# ---------------------------------------------------------------------------
# references and closed forms
# ---------------------------------------------------------------------------

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
    """Estimate E(a, b) by sampling ``n`` outcome pairs from the amplitude
    route's Born probabilities ``joint_probability`` (so this checks the
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
