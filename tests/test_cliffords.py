"""Tests for the 24-element gate group: construction, algebra, serialization."""

from __future__ import annotations

import json

import numpy as np
import pytest

from qubitbench import budget, filterfunc, pulsesim
from qubitbench.cliffords import (
    MEAN_PULSES_PER_CLIFFORD,
    CliffordGroup,
    canonicalize_phase,
    decompose_clifford,
    min_pulse_decomposition,
    pulse_from_label,
    recovery_gate,
    rotation_matrix,
    word_matrix,
)
from qubitbench.noise import rng_stream

_SX = np.array([[0, 1], [1, 0]], dtype=complex)
_SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
_SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def _bloch_rotation(u: np.ndarray) -> np.ndarray:
    """SO(3) image of a 2x2 unitary; kills the global phase exactly."""
    paulis = (_SX, _SY, _SZ)
    r = np.empty((3, 3))
    for i, si in enumerate(paulis):
        for j, sj in enumerate(paulis):
            r[i, j] = 0.5 * np.real(np.trace(si @ u @ sj @ u.conj().T))
    return r


def _signed_perm_key(r: np.ndarray) -> tuple:
    ri = np.rint(r).astype(int)
    assert np.allclose(r, ri, atol=1e-9), "group rotation is not a signed permutation"
    return tuple(ri.ravel())


class TestGroupStructure:
    def test_has_24_elements(self, group):
        assert len(group.elements) == 24

    def test_elements_are_octahedral_rotations(self, group):
        # independent enumeration: the single-qubit gate group mod phase is
        # exactly the 24 rotations of the octahedron (signed permutation
        # matrices with determinant +1)
        keys = set()
        for el in group.elements:
            r = _bloch_rotation(el.matrix)
            assert np.allclose(r @ r.T, np.eye(3), atol=1e-9)
            assert np.isclose(np.linalg.det(r), 1.0, atol=1e-9)
            keys.add(_signed_perm_key(r))
        assert len(keys) == 24

    def test_word_lengths_histogram(self, group):
        counts = {}
        for i in range(24):
            w = len(decompose_clifford(i, group))
            counts[w] = counts.get(w, 0) + 1
        assert counts == {0: 1, 1: 4, 2: 10, 3: 8, 4: 1}

    def test_mean_and_max_pulses(self, group):
        assert group.mean_pulses_per_clifford == pytest.approx(52.0 / 24.0, rel=0, abs=1e-15)
        assert max(el.pulse_count for el in group.elements) == 4

    def test_element_matrix_matches_its_word(self, group):
        for i, el in enumerate(group.elements):
            w = word_matrix(el.pulses)
            assert np.allclose(canonicalize_phase(w), canonicalize_phase(el.matrix), atol=1e-9)

    def test_z_quarter_turn_needs_three_pulses(self, group):
        rz = np.diag([np.exp(-1j * np.pi / 4), np.exp(1j * np.pi / 4)])
        word = min_pulse_decomposition(rz, group)
        assert len(word) == 3
        assert np.abs(canonicalize_phase(word_matrix(word)) - canonicalize_phase(rz)).max() <= 1e-8

    def test_min_pulse_decomposition_rejects_non_group_target(self, group):
        almost = rotation_matrix(0.0, 0.3)
        with pytest.raises(ValueError):
            min_pulse_decomposition(almost, group)


class TestComposition:
    def test_full_compose_table_closure(self, group):
        # all 576 pairwise products land back in the table, and the table
        # entry agrees with the matrix product up to global phase
        for i, a in enumerate(group.elements):
            for j, b in enumerate(group.elements):
                k = group.compose(i, j)
                prod = canonicalize_phase(b.matrix @ a.matrix)
                assert np.abs(prod - canonicalize_phase(group.elements[k].matrix)).max() <= 1e-8

    def test_compose_matches_bloch_rotation_product(self, group):
        rots = [_bloch_rotation(el.matrix) for el in group.elements]
        key_to_index = {_signed_perm_key(r): i for i, r in enumerate(rots)}
        for i in range(24):
            for j in range(24):
                k = group.compose(i, j)
                assert key_to_index[_signed_perm_key(rots[j] @ rots[i])] == k

    def test_inverse_table(self, group):
        for i in range(24):
            assert group.compose(i, group.inverse(i)) == group.identity_index
            assert group.compose(group.inverse(i), i) == group.identity_index

    def test_fold_equals_sequential_compose(self, group):
        rng = rng_stream(90210, 0)
        idx = rng.integers(0, 24, size=50)
        acc = group.identity_index
        for i in idx:
            acc = group.compose(acc, int(i))
        assert group.fold(int(i) for i in idx) == acc

    def test_find_index_roundtrip(self, group):
        for i, el in enumerate(group.elements):
            phase = np.exp(0.731j)
            assert group.find_index(phase * el.matrix) == i


class TestMeanPulses:
    def test_constant_equals_the_table_mean(self, group):
        assert MEAN_PULSES_PER_CLIFFORD == group.mean_pulses_per_clifford

    def test_every_module_uses_the_one_constant(self):
        assert budget.MEAN_PULSES_PER_CLIFFORD is MEAN_PULSES_PER_CLIFFORD
        assert filterfunc.MEAN_PULSES_PER_CLIFFORD is MEAN_PULSES_PER_CLIFFORD
        assert pulsesim.MEAN_PULSES_PER_CLIFFORD is MEAN_PULSES_PER_CLIFFORD


class TestRecovery:
    def test_recovery_restores_identity_for_long_sequences(self, group):
        rng = rng_stream(414243, 0)
        for trial in range(4):
            idx = [int(k) for k in rng.integers(0, 24, size=1000)]
            rec = recovery_gate(idx, group)
            total = np.eye(2, dtype=complex)
            for k in idx:
                total = group.elements[k].matrix @ total
            total = group.elements[rec].matrix @ total
            assert np.abs(canonicalize_phase(total) - np.eye(2)).max() <= 1e-8

    def test_recovered_sequence_preserves_basis_state(self, group):
        rng = rng_stream(51, 0)
        idx = [int(k) for k in rng.integers(0, 24, size=200)]
        state = np.array([1.0, 0.0], dtype=complex)
        for k in idx + [recovery_gate(idx, group)]:
            state = group.elements[k].matrix @ state
        assert abs(state[0]) ** 2 == pytest.approx(1.0, abs=1e-10)


class TestPhaseCanonicalization:
    def test_canonicalize_is_phase_invariant_and_idempotent(self):
        rng = rng_stream(7, 0)
        for _ in range(20):
            theta = rng.uniform(0, 2 * np.pi)
            u = rotation_matrix(rng.uniform(0, 2 * np.pi), rng.uniform(0, np.pi))
            c1 = canonicalize_phase(u)
            c2 = canonicalize_phase(np.exp(1j * theta) * u)
            assert np.allclose(c1, c2, atol=1e-12)
            assert np.allclose(canonicalize_phase(c1), c1, atol=1e-12)


class TestSerialization:
    def test_json_roundtrip(self, group):
        rebuilt = CliffordGroup.from_json(group.to_json())
        assert rebuilt.compose_table.tolist() == group.compose_table.tolist()
        assert rebuilt.inverse_table.tolist() == group.inverse_table.tolist()
        for a, b in zip(rebuilt.elements, group.elements):
            assert a.pulses == b.pulses
            assert np.allclose(a.matrix, b.matrix, atol=1e-12)

    def test_matches_golden_table(self, group, data_dir):
        golden = json.loads((data_dir / "clifford_table.json").read_text())
        current = json.loads(group.to_json())
        assert current["format"] == golden["format"]
        assert current["compose"] == golden["compose"]
        assert current["inverse"] == golden["inverse"]
        assert current["generator_order"] == golden["generator_order"]


class TestPulsePrimitives:
    def test_pulse_from_label_signs(self):
        plus = pulse_from_label("+X90")
        minus = pulse_from_label("-X90")
        assert plus.sign == 1 and minus.sign == -1
        assert plus.phase == minus.phase

    def test_rotation_matrix_special_cases(self):
        # quarter turn about x maps z to -y on the Bloch sphere
        u = rotation_matrix(0.0, np.pi / 2)
        r = _bloch_rotation(u)
        assert np.allclose(r @ np.array([0, 0, 1.0]), np.array([0, -1.0, 0]), atol=1e-12)
        # phase pi/2 turns the rotation axis from x to y
        u = rotation_matrix(np.pi / 2, np.pi / 2)
        r = _bloch_rotation(u)
        assert np.allclose(r @ np.array([0, 0, 1.0]), np.array([1.0, 0, 0]), atol=1e-12)
