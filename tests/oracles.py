"""Independent oracles for the gate-group table, kept out of the package.

They rebuild what the table stores from the four generator rotations alone:
``word_matrix`` multiplies a pulse word out, and ``min_pulse_decomposition``
finds the shortest word for an element by exhaustive search.  The generator
matrices are written out here rather than read from the label table they
check.
"""

from __future__ import annotations

import itertools
from typing import Sequence

import numpy as np

from qubitbench.cliffords import (
    GENERATOR_LABELS,
    CliffordGroup,
    build_clifford_table,
    canonicalize_phase,
    rotation_matrix,
)

_ID = np.eye(2, dtype=complex)
# largest entrywise difference of two canonical matrices taken as the same element
_MATCH_TOL = 1e-8
_GENERATOR_MATRICES = {
    "+X90": rotation_matrix(0.0, np.pi / 2),
    "-X90": rotation_matrix(0.0, -np.pi / 2),
    "+Y90": rotation_matrix(np.pi / 2, np.pi / 2),
    "-Y90": rotation_matrix(np.pi / 2, -np.pi / 2),
}


def word_matrix(word: Sequence[str]) -> np.ndarray:
    """Matrix of a pulse word applied in temporal order."""
    mat = _ID.copy()
    for label in word:
        mat = _GENERATOR_MATRICES[label] @ mat
    return mat


def min_pulse_decomposition(target: np.ndarray | int, group: CliffordGroup | None = None) -> tuple[str, ...]:
    """Independent oracle: exhaustively enumerate words by length, then rank.

    Unlike the table's stored words this does not consult the search; it
    scans all words of length 0..4, the longest minimal word, in
    lexicographic order and returns the first that reproduces the target up
    to global phase.
    """
    if isinstance(target, int):
        target = (group or build_clifford_table()).elements[target].matrix
    target_canon = canonicalize_phase(np.asarray(target))

    for length in range(5):
        for word in itertools.product(GENERATOR_LABELS, repeat=length):
            candidate = canonicalize_phase(word_matrix(word))
            if np.max(np.abs(candidate - target_canon)) <= _MATCH_TOL:
                return word
    raise ValueError("no generator word of length <= 4 matches target")
