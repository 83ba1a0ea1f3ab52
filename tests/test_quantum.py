import math

import numpy as np
import pytest

from hybridqkd import quantum as q
from hybridqkd import tags

import oracle_quantum as oracle
from oracle_optics import port_for

SQRT2 = math.sqrt(2.0)


@pytest.fixture(scope="module")
def settings():
    return q.standard_settings()


class TestState:
    def test_hybrid_state_amplitudes(self):
        st = oracle.hybrid_state(0.0)
        np.testing.assert_allclose(st.amplitudes, [1 / SQRT2, 0, 0, 1 / SQRT2])

    def test_hybrid_state_phase(self):
        st = oracle.hybrid_state(np.pi / 3)
        assert st.amplitudes[3] == pytest.approx(np.exp(1j * np.pi / 3) / SQRT2)

    def test_unnormalized_rejected(self):
        with pytest.raises(ValueError, match="norm"):
            oracle.TwoQubitState(np.array([1.0, 1.0, 0.0, 0.0]))


class TestJointProbability:
    def test_frozen_value(self, settings):
        # oracle_quantum.joint_prob(0.0, a0, b0, +1, +1)
        p = oracle.joint_probability(oracle.hybrid_state(0.0), settings["a0"],
                                     settings["b0"], 1, 1)
        assert p == pytest.approx(0.42677669529663675, abs=1e-12)

    def test_outcomes_sum_to_one(self, settings):
        st = oracle.hybrid_state(1.234)
        for a_name in ("a0", "a1", "a2"):
            for b_name in ("b0", "b1"):
                total = sum(
                    oracle.joint_probability(st, settings[a_name],
                                             settings[b_name], xa, xb)
                    for xa in (1, -1) for xb in (1, -1)
                )
                assert total == pytest.approx(1.0, abs=1e-12)

    def test_marginals_uniform(self, settings):
        # the source state is maximally entangled: every single-party marginal is 1/2
        st = oracle.hybrid_state(2.1)
        for a_name in ("a0", "a1", "a2"):
            pa = sum(oracle.joint_probability(st, settings[a_name],
                                              settings["b0"], 1, xb)
                     for xb in (1, -1))
            assert pa == pytest.approx(0.5, abs=1e-12)
        for b_name in ("b0", "b1"):
            pb = sum(oracle.joint_probability(st, settings["a2"],
                                              settings[b_name], xa, 1)
                     for xa in (1, -1))
            assert pb == pytest.approx(0.5, abs=1e-12)

    def test_invalid_outcome_rejected(self, settings):
        with pytest.raises(ValueError):
            oracle.joint_probability(oracle.hybrid_state(0.0), settings["a0"],
                                     settings["b0"], 0, 1)

    def test_against_projector_oracle_random(self, settings):
        rng = np.random.default_rng(91)
        for _ in range(50):
            phase = rng.uniform(0, 2 * np.pi)
            alpha = rng.uniform(-np.pi / 2, np.pi / 2)
            a = q.polarizer_setting("a", alpha, 1, 2)
            b_name = rng.choice(["b0", "b1"])
            b = settings[b_name]
            xa = int(rng.choice([1, -1]))
            xb = int(rng.choice([1, -1]))
            got = oracle.joint_probability(oracle.hybrid_state(phase), a, b,
                                           xa, xb)
            want = oracle.joint_prob(phase, oracle.polarizer_bloch(alpha),
                                     b.bloch, xa, xb)
            assert got == pytest.approx(want, abs=1e-12)


class TestCorrelation:
    @pytest.mark.parametrize("phase,a_name,b_name,expected", [
        (0.0, "a0", "b0", 0.7071067811865474),     # cos(-45 deg)
        (0.0, "a0", "b1", -0.7071067811865474),    # sin(-45 deg) * cos(0)
        (0.0, "a2", "b0", 1.0),                    # key basis, perfect correlation
        (0.0, "a1", "b0", -0.7071067811865472),    # cos(-135 deg)
        (np.pi, "a0", "b1", 0.7071067811865474),   # sin(-45) * cos(pi)
        (np.pi, "a1", "b1", 0.7071067811865475),
    ])
    def test_frozen_values(self, settings, phase, a_name, b_name, expected):
        e = oracle.setting_correlation(oracle.hybrid_state(phase),
                                       settings[a_name], settings[b_name])
        assert e == pytest.approx(expected, abs=1e-9)

    def test_time_basis_phase_free(self, settings):
        # arrival-time correlations must not move with the source phase
        for phase in np.linspace(0, 2 * np.pi, 7):
            e = oracle.setting_correlation(oracle.hybrid_state(phase),
                                           settings["a0"], settings["b0"])
            assert e == pytest.approx(0.7071067811865474, abs=1e-9)

    def test_closed_forms_random(self, settings):
        rng = np.random.default_rng(92)
        for _ in range(50):
            phase = rng.uniform(0, 2 * np.pi)
            alpha = rng.uniform(-np.pi / 2, np.pi / 2)
            a = q.polarizer_setting("a", alpha, 1, 2)
            st = oracle.hybrid_state(phase)
            assert oracle.setting_correlation(st, a, settings["b0"]) == \
                pytest.approx(math.cos(2 * alpha), abs=1e-9)
            assert oracle.setting_correlation(st, a, settings["b1"]) == \
                pytest.approx(math.sin(2 * alpha) * math.cos(phase), abs=1e-9)

    def test_bounded(self, settings):
        rng = np.random.default_rng(93)
        for _ in range(100):
            st = oracle.hybrid_state(rng.uniform(0, 2 * np.pi))
            a = q.polarizer_setting("a", rng.uniform(-np.pi, np.pi), 1, 2)
            e = oracle.setting_correlation(st, a, settings["b1"])
            assert -1.0 - 1e-12 <= e <= 1.0 + 1e-12


class TestChsh:
    def test_peak_at_reference_phase(self, settings):
        s = oracle.chsh_value(oracle.hybrid_state(np.pi), settings["a0"],
                              settings["a1"], settings["b0"], settings["b1"])
        assert s == pytest.approx(2 * SQRT2, abs=1e-9)

    def test_zero_opposite_phase(self, settings):
        s = oracle.chsh_value(oracle.hybrid_state(0.0), settings["a0"],
                              settings["a1"], settings["b0"], settings["b1"])
        assert s == pytest.approx(0.0, abs=1e-9)

    def test_phase_curve(self, settings):
        for phase in np.linspace(0, 2 * np.pi, 16):
            s = oracle.chsh_value(oracle.hybrid_state(phase), settings["a0"],
                                  settings["a1"], settings["b0"], settings["b1"])
            assert s == pytest.approx(SQRT2 * (1 - math.cos(phase)), abs=1e-9)
            assert s == pytest.approx(oracle.chsh_phase_curve(phase), abs=1e-9)

    def test_never_exceeds_quantum_bound(self, settings):
        # property: no phase and no analyzer angles beat 2*sqrt(2)
        rng = np.random.default_rng(94)
        for _ in range(200):
            st = oracle.hybrid_state(rng.uniform(0, 2 * np.pi))
            angles = rng.uniform(-np.pi / 2, np.pi / 2, size=2)
            a0 = q.polarizer_setting("a0", angles[0], 3, 4)
            a1 = q.polarizer_setting("a1", angles[1], 6, 5, outcome_sign=-1)
            s = oracle.chsh_value(st, a0, a1, settings["b0"], settings["b1"])
            assert abs(s) <= 2 * SQRT2 + 1e-9

    def test_matches_signed_oracle(self, settings):
        rng = np.random.default_rng(95)
        for _ in range(25):
            phase = rng.uniform(0, 2 * np.pi)
            got = oracle.chsh_value(oracle.hybrid_state(phase), settings["a0"],
                                    settings["a1"], settings["b0"], settings["b1"])
            want = oracle.chsh(
                phase,
                oracle.polarizer_bloch(-22.5 * q.DEG),
                oracle.polarizer_bloch(-67.5 * q.DEG),
                (0, 0, 1), (1, 0, 0), sign_a1=-1,
            )
            assert got == pytest.approx(want, abs=1e-9)


class TestSettings:
    def test_port_wiring_roundtrip(self, settings):
        # tags.wiring reads every setting's ports: bit 0 on the + port and
        # 1 on the - port, under the setting's index
        for party, names in tags.SETTINGS.items():
            wiring = tags.wiring(party)
            assert len(wiring) == 2 * len(names)
            for index, name in enumerate(names):
                st = settings[name]
                assert wiring[st.plus_port] == (index, 0)
                assert wiring[st.minus_port] == (index, 1)

    def test_flipped_wiring(self, settings):
        # a1's + port, channel 6, fires on outcome -1 and carries bit 0
        a1 = settings["a1"]
        assert a1.outcome_sign == -1
        assert (a1.plus_port, a1.minus_port) == (6, 5)
        assert tags.wiring("alice")[6] == (1, 0)
        assert tags.wiring("alice")[5] == (1, 1)
        assert port_for(a1, -1) == 6 and port_for(a1, +1) == 5

    def test_nonunit_bloch_rejected(self):
        with pytest.raises(ValueError, match="unit"):
            q.MeasurementSetting("x", (1.0, 1.0, 0.0), 1, 2)


class TestInformationMath:
    def test_entropy_frozen(self):
        assert q.binary_entropy(0.5) == 1.0
        assert q.binary_entropy(0.0) == 0.0
        assert q.binary_entropy(1.0) == 0.0
        assert q.binary_entropy(0.0371) == pytest.approx(0.22883401742851062, abs=1e-12)

    def test_entropy_symmetry(self):
        for x in np.linspace(0.01, 0.99, 23):
            assert q.binary_entropy(x) == pytest.approx(q.binary_entropy(1 - x), abs=1e-12)

    def test_entropy_domain(self):
        with pytest.raises(ValueError):
            q.binary_entropy(-0.1)
        with pytest.raises(ValueError):
            q.binary_entropy(1.1)

    def test_mutual_information_frozen(self):
        assert q.mutual_information(0.0371) == pytest.approx(0.7711659825714894, abs=1e-9)
        assert q.mutual_information(0.0) == 1.0
        assert q.mutual_information(0.5) == pytest.approx(0.0, abs=1e-12)

    def test_holevo_anchors(self):
        assert q.holevo_bound(2 * SQRT2) == 0.0
        assert q.holevo_bound(2.0) == 1.0
        assert q.holevo_bound(1.2) == 1.0
        assert q.holevo_bound(-2.5) == q.holevo_bound(2.5)
        assert q.holevo_bound(2.5) == pytest.approx(0.5435644431995964, abs=1e-12)

    def test_holevo_monotone(self):
        ss = np.linspace(2.0, 2 * SQRT2, 40)
        vals = [q.holevo_bound(s) for s in ss]
        assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_holevo_above_tsirelson_clamped(self):
        assert q.holevo_bound(2.9) == 0.0

    def test_secure_fraction(self):
        assert q.security_quantities(2 * SQRT2, 0.0).secure_fraction == \
            pytest.approx(1.0)
        # no violation, no key
        assert q.security_quantities(2.0, 0.0).secure_fraction == 0.0
        # max(0, ...) clamps
        assert q.security_quantities(2.6, 0.5).secure_fraction == 0.0
        sq = q.security_quantities(2.618, 0.0371)
        assert sq.i_ab == pytest.approx(0.7711659825714894, abs=1e-9)
        assert sq.secure_fraction == pytest.approx(sq.i_ab - sq.i_eve, abs=1e-12)
        assert sq.secure_fraction > 0

    def test_matches_entropy_oracle(self):
        rng = np.random.default_rng(96)
        for _ in range(50):
            x = float(rng.uniform(0, 1))
            assert q.binary_entropy(x) == pytest.approx(
                oracle.binary_entropy_ref(x), abs=1e-12)
            s = float(rng.uniform(0, 3.2))
            assert q.holevo_bound(s) == pytest.approx(oracle.holevo_ref(s), abs=1e-12)
