"""Single-qubit Clifford group over the hardware-native generator set.

The only gates the hardware plays are +-90 degree rotations about the x and
y axes of the rotating frame (phase 0 or 90 degrees, sign flips realised as
180 degree phase offsets).  Everything else -- the 24-element Clifford
group, its composition and inverse tables, and the minimal pulse word for
each element -- is derived from those four generators.

Conventions
-----------
* A rotation by angle ``theta`` about the equatorial axis with phase ``phi``
  is ``R(phi, theta) = exp(-i * theta/2 * (cos(phi) sx + sin(phi) sy))``,
  so ``+X90`` maps |0> to (|0> - i|1>)/sqrt(2).
* Words are stored in temporal order: the first label is played first, i.e.
  the matrix of a word ``(g1, g2, ...)`` is ``... @ U(g2) @ U(g1)``.
* Global phase is fixed by making the first row-major entry with magnitude
  above tolerance real and positive; all table lookups compare canonical
  matrices.
* ``compose(i, j)`` is "apply i, then j".

The breadth-first search assigns indices in discovery order (identity is 0,
the four generators are 1..4) and, within a word length, prefers the
lexicographically first word under the label order +X90 < +Y90 < -X90 <
-Y90.  The resulting minimal word lengths are {0: 1, 1: 4, 2: 10, 3: 8,
4: 1} -- the lone length-4 element is the 180-degree z rotation -- giving a
mean of 52/24 = 2.1667 pulses per Clifford.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .presets import GAP_TIME, MEAN_PULSES_PER_CLIFFORD, RAMP_TIME, T_HALF_PI

__all__ = [
    "GENERATOR_LABELS",
    "MEAN_PULSES_PER_CLIFFORD",
    "PulseSpec",
    "CliffordElement",
    "CliffordGroup",
    "build_clifford_table",
    "decompose_clifford",
    "min_pulse_decomposition",
    "recovery_gate",
    "canonicalize_phase",
]

_SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_SY = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
_ID = np.eye(2, dtype=complex)

#: Expansion / tie-break order for the generator search (lexicographic).
GENERATOR_LABELS = ("+X90", "+Y90", "-X90", "-Y90")

# an entry above this magnitude can fix the global phase
_PHASE_TOL = 1e-9
# largest entrywise difference of two matrices taken as the same element
_MATCH_TOL = 1e-8


def _axis_matrix(phase: float) -> np.ndarray:
    return np.cos(phase) * _SX + np.sin(phase) * _SY


def rotation_matrix(phase: float, angle: float) -> np.ndarray:
    """2x2 propagator for a rotation by `angle` about the equatorial axis `phase`."""
    return np.cos(angle / 2) * _ID - 1j * np.sin(angle / 2) * _axis_matrix(phase)


def pulse_ab(omega, vz, duration):
    """Cayley-Klein pair ``(a, b)`` of an exact rectangle pulse at drive phase 0.

    Holding ``(omega/2) sx + (vz/2) sz`` for `duration` gives the propagator
    ``[[a, -conj(b)], [b, conj(a)]]``; driving at phase ``phi`` multiplies
    ``b`` by ``exp(1j * phi)``.  Elementwise over broadcastable arrays:
    `omega`, `vz` and `duration` may each be a scalar or an array.  A zero
    `duration` gives the identity exactly.
    """
    if not np.any(vz):
        half = 0.5 * omega * duration
        return np.cos(half), -1j * np.sin(half)
    w = np.sqrt(omega**2 + vz**2)
    half = 0.5 * w * duration
    s = np.sin(half)
    w = np.where(w > 0, w, 1.0)  # s vanishes with w
    return np.cos(half) - 1j * (vz / w * s), -1j * (omega / w * s)


def apply_ab(a, b, alpha, beta) -> None:
    """Apply ``[[a, -conj(b)], [b, conj(a)]]`` to the amplitude arrays in place."""
    t = b * alpha
    alpha *= a
    alpha -= np.conj(b) * beta
    beta *= np.conj(a)
    beta += t


_GENERATOR_MATRICES = {
    "+X90": rotation_matrix(0.0, np.pi / 2),
    "-X90": rotation_matrix(0.0, -np.pi / 2),
    "+Y90": rotation_matrix(np.pi / 2, np.pi / 2),
    "-Y90": rotation_matrix(np.pi / 2, -np.pi / 2),
}


def canonicalize_phase(matrix: np.ndarray) -> np.ndarray:
    """Remove the global phase: first row-major entry above 1e-9 becomes real-positive."""
    flat = matrix.reshape(-1)
    big = np.abs(flat) > _PHASE_TOL
    if not big.any():
        raise ValueError("matrix is numerically zero; cannot fix global phase")
    pivot = flat[int(np.argmax(big))]
    return matrix * (abs(pivot) / pivot)


def _table_key(matrix: np.ndarray) -> tuple:
    canon = canonicalize_phase(matrix)
    return tuple(np.round(canon.reshape(-1), 8).tolist())


@dataclass(frozen=True)
class PulseSpec:
    """One hardware pi/2 pulse.

    Attributes
    ----------
    phase:
        Rotation-axis phase in rad (0 = x, pi/2 = y).
    sign:
        +1 or -1; negative pulses are played as a 180-degree phase offset.
    t_half_pi:
        Total pulse duration in seconds, *including* both amplitude ramps.
    ramp_time:
        Duration of each ramp (s).
    gap_time:
        Free-evolution gap appended after the pulse (s).
    """

    phase: float
    sign: int = 1
    t_half_pi: float = T_HALF_PI
    ramp_time: float = RAMP_TIME
    gap_time: float = GAP_TIME

    def __post_init__(self):
        if self.sign not in (-1, 1):
            raise ValueError("sign must be +1 or -1")
        if self.t_half_pi <= 2 * self.ramp_time:
            raise ValueError("t_half_pi must exceed twice the ramp time")
        if self.ramp_time < 0 or self.gap_time < 0:
            raise ValueError("ramp_time and gap_time must be non-negative")

    @property
    def effective_phase(self) -> float:
        """Axis phase actually programmed (sign folded in as a 180-deg offset)."""
        return self.phase if self.sign > 0 else self.phase + np.pi

    @property
    def total_time(self) -> float:
        return self.t_half_pi + self.gap_time


def pulse_from_label(label: str, **kwargs) -> PulseSpec:
    """Build the PulseSpec for a generator label such as '+X90' or '-Y90'."""
    if label not in GENERATOR_LABELS:
        raise ValueError(f"unknown generator label {label!r}")
    sign = 1 if label[0] == "+" else -1
    phase = 0.0 if label[1] == "X" else np.pi / 2
    return PulseSpec(phase=phase, sign=sign, **kwargs)


@dataclass(frozen=True)
class CliffordElement:
    """One element of the 24-element group with its minimal pulse word."""

    index: int
    matrix: np.ndarray  # canonical-phase 2x2
    pulses: tuple[str, ...]

    @property
    def pulse_count(self) -> int:
        return len(self.pulses)


# ---------------------------------------------------------------------------
# Group construction
# ---------------------------------------------------------------------------


@dataclass
class CliffordGroup:
    """The full group: elements, composition table, inverses, lookup."""

    elements: list[CliffordElement]
    compose_table: np.ndarray  # [i, j] -> index of (i then j)
    inverse_table: np.ndarray
    _index_by_key: dict = field(repr=False, default_factory=dict)

    def __len__(self) -> int:
        return len(self.elements)

    @property
    def identity_index(self) -> int:
        return 0

    @property
    def mean_pulses_per_clifford(self) -> float:
        """Mean minimal word length; all budget formulas use this constant."""
        return float(np.mean([e.pulse_count for e in self.elements]))

    def compose(self, first: int, then: int) -> int:
        return int(self.compose_table[first, then])

    def inverse(self, index: int) -> int:
        return int(self.inverse_table[index])

    def find_index(self, matrix: np.ndarray) -> int:
        """Index of the element equal to the 2x2 ``matrix`` up to global phase."""
        matrix = np.asarray(matrix)
        key = _table_key(matrix)
        if key in self._index_by_key:
            return self._index_by_key[key]
        # slow path for matrices with rounding noise
        canon = canonicalize_phase(matrix)
        for elem in self.elements:
            if np.max(np.abs(elem.matrix - canon)) <= _MATCH_TOL:
                return elem.index
        raise KeyError("matrix is not a Clifford element within tolerance")

    def fold(self, indices: Iterable[int]) -> int:
        """Compose a temporal sequence of element indices into one element."""
        acc = self.identity_index
        for idx in indices:
            acc = self.compose(acc, int(idx))
        return acc

    def to_json(self) -> str:
        payload = {
            "format": "qubitbench.clifford_table.v1",
            "generator_order": list(GENERATOR_LABELS),
            "elements": [
                {
                    "index": e.index,
                    "pulses": list(e.pulses),
                    "matrix": [
                        [[z.real, z.imag] for z in row] for row in e.matrix.tolist()
                    ],
                }
                for e in self.elements
            ],
            "compose": self.compose_table.tolist(),
            "inverse": self.inverse_table.tolist(),
        }
        return json.dumps(payload, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "CliffordGroup":
        payload = json.loads(text)
        if payload.get("format") != "qubitbench.clifford_table.v1":
            raise ValueError("unrecognized clifford table format")
        elements = []
        for rec in payload["elements"]:
            matrix = np.array(
                [[complex(re, im) for re, im in row] for row in rec["matrix"]]
            )
            elements.append(
                CliffordElement(rec["index"], matrix, tuple(rec["pulses"]))
            )
        group = cls(
            elements=elements,
            compose_table=np.array(payload["compose"], dtype=int),
            inverse_table=np.array(payload["inverse"], dtype=int),
        )
        group._index_by_key = {_table_key(e.matrix): e.index for e in elements}
        return group


def word_matrix(word: Sequence[str]) -> np.ndarray:
    """Matrix of a pulse word applied in temporal order."""
    mat = _ID.copy()
    for label in word:
        mat = _GENERATOR_MATRICES[label] @ mat
    return mat


_GROUP_CACHE: CliffordGroup | None = None


def build_clifford_table() -> CliffordGroup:
    """Enumerate the group by breadth-first search over generator words.

    Returns a cached instance: the table is deterministic, so all callers
    share one copy.
    """
    global _GROUP_CACHE
    if _GROUP_CACHE is not None:
        return _GROUP_CACHE

    elements: list[CliffordElement] = []
    index_by_key: dict = {}

    identity = canonicalize_phase(_ID.copy())
    elements.append(CliffordElement(0, identity, ()))
    index_by_key[_table_key(identity)] = 0

    frontier: list[tuple[tuple[str, ...], np.ndarray]] = [((), _ID.copy())]
    while frontier:
        next_frontier = []
        for word, mat in frontier:
            for label in GENERATOR_LABELS:
                new_mat = _GENERATOR_MATRICES[label] @ mat
                key = _table_key(new_mat)
                if key in index_by_key:
                    continue
                new_word = word + (label,)
                idx = len(elements)
                elements.append(
                    CliffordElement(idx, canonicalize_phase(new_mat), new_word)
                )
                index_by_key[key] = idx
                next_frontier.append((new_word, new_mat))
        frontier = next_frontier

    n = len(elements)
    if n != 24:
        raise RuntimeError(f"expected 24 Clifford elements, found {n}")

    # every product M_j M_i at once; it is the element k with |tr(M_k^H P)| = 2,
    # and every other element gives at most sqrt(2)
    mats = np.array([e.matrix for e in elements])
    products = np.einsum("jab,ibc->ijac", mats, mats)
    compose = np.abs(np.einsum("kab,ijab->ijk", mats.conj(), products)).argmax(axis=-1)
    inverse = (compose == 0).argmax(axis=1)

    group = CliffordGroup(
        elements=elements, compose_table=compose, inverse_table=inverse
    )
    group._index_by_key = index_by_key
    _GROUP_CACHE = group
    return group


def decompose_clifford(index: int, group: CliffordGroup | None = None) -> tuple[str, ...]:
    """Minimal pulse word for element `index`, from the fixed table."""
    group = group or build_clifford_table()
    return group.elements[index].pulses


def min_pulse_decomposition(target: np.ndarray | int, group: CliffordGroup | None = None) -> tuple[str, ...]:
    """Independent oracle: exhaustively enumerate words by length, then rank.

    Unlike ``decompose_clifford`` this does not consult the stored table; it
    scans all words of length 0..4, the longest minimal word, in
    lexicographic order and returns the first that reproduces the target up
    to global phase.
    """
    import itertools

    if isinstance(target, int):
        target = (group or build_clifford_table()).elements[target].matrix
    target_canon = canonicalize_phase(np.asarray(target))

    for length in range(5):
        for word in itertools.product(GENERATOR_LABELS, repeat=length):
            candidate = canonicalize_phase(word_matrix(word))
            if np.max(np.abs(candidate - target_canon)) <= _MATCH_TOL:
                return word
    raise ValueError("no generator word of length <= 4 matches target")


def recovery_gate(cliffords: Sequence[int], group: CliffordGroup | None = None) -> int:
    """Index of the element that closes the sequence back to the identity.

    Composes neighbouring pairs through the table (a tree equal to ``fold``).
    """
    group = group or build_clifford_table()
    acc = np.asarray(cliffords, dtype=int)
    while len(acc) > 1:
        if len(acc) % 2:
            acc = np.append(acc, group.identity_index)
        acc = group.compose_table[acc[0::2], acc[1::2]]
    return group.inverse(acc[0] if len(acc) else group.identity_index)
