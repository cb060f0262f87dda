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
  above tolerance real and positive; the stored matrices are canonical.
* One rule decides which element a matrix is: the overlap ``|tr(M_k^H u)|``
  is 2 for the element ``u`` equals up to global phase and at most sqrt(2)
  for every other one.  The search, the composition table and
  ``find_index`` all use it.
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
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .presets import GAP_TIME, RAMP_TIME, T_HALF_PI

__all__ = [
    "GENERATOR_QUARTERS",
    "GENERATOR_LABELS",
    "PulseSpec",
    "CliffordElement",
    "CliffordGroup",
    "build_clifford_table",
    "recovery_gate",
    "canonicalize_phase",
]

_SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_SY = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
_ID = np.eye(2, dtype=complex)

#: Drive phase of each generator in quarter turns (a minus sign is a half
#: turn); the dict order is the expansion / tie-break order of the search.
GENERATOR_QUARTERS = {"+X90": 0, "+Y90": 1, "-X90": 2, "-Y90": 3}
GENERATOR_LABELS = tuple(GENERATOR_QUARTERS)

# an entry above this magnitude can fix the global phase
_PHASE_TOL = 1e-9
# largest |2 - |tr(M^H u)|| taken as the same element: entrywise noise of
# 1e-10 moves the overlap by at most 4e-10, a rotation by theta by theta^2 / 4
_MATCH_TOL = 1e-9


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
    label: rotation_matrix((q % 2) * np.pi / 2, np.pi / 2 if q < 2 else -np.pi / 2)
    for label, q in GENERATOR_QUARTERS.items()
}


def canonicalize_phase(matrix: np.ndarray) -> np.ndarray:
    """Remove the global phase: first row-major entry above 1e-9 becomes real-positive."""
    flat = matrix.reshape(-1)
    big = np.abs(flat) > _PHASE_TOL
    if not big.any():
        raise ValueError("matrix is numerically zero; cannot fix global phase")
    pivot = flat[int(np.argmax(big))]
    return matrix * (abs(pivot) / pivot)


def _overlaps(mats: np.ndarray, u: np.ndarray) -> np.ndarray:
    """``|tr(M_k^H u)|`` for each ``M_k`` in the stack `mats`, over the
    leading axes of `u` too: 2 where ``u`` is ``M_k`` up to global phase."""
    # einsum, not a matmul: its BLAS call raised `rb --tier full`'s peak RSS by ~0.2 MiB
    return np.abs(np.einsum("kab,...ab->...k", mats.conj(), u))


def _same(overlaps: np.ndarray) -> np.ndarray:
    """Where an overlap says "the same element"."""
    return np.abs(overlaps - 2.0) <= _MATCH_TOL


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
    if label not in GENERATOR_QUARTERS:
        raise ValueError(f"unknown generator label {label!r}")
    q = GENERATOR_QUARTERS[label]
    return PulseSpec(phase=(q % 2) * np.pi / 2, sign=1 if q < 2 else -1, **kwargs)


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

    def __len__(self) -> int:
        return len(self.elements)

    @property
    def identity_index(self) -> int:
        return 0

    def compose(self, first: int, then: int) -> int:
        return int(self.compose_table[first, then])

    def inverse(self, index: int) -> int:
        return int(self.inverse_table[index])

    def find_index(self, matrix: np.ndarray) -> int:
        """Index of the element equal to the 2x2 ``matrix`` up to global phase;
        ``KeyError`` if no overlap is within ``_MATCH_TOL`` of 2."""
        overlaps = _overlaps(np.array([e.matrix for e in self.elements]), np.asarray(matrix))
        k = int(overlaps.argmax())
        if not _same(overlaps[k]):
            raise KeyError("matrix is not a Clifford element within tolerance")
        return k

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


_GROUP_CACHE: CliffordGroup | None = None


def build_clifford_table() -> CliffordGroup:
    """Enumerate the group by breadth-first search over generator words.

    Returns a cached instance: the table is deterministic, so all callers
    share one copy.
    """
    global _GROUP_CACHE
    if _GROUP_CACHE is not None:
        return _GROUP_CACHE

    elements = [CliffordElement(0, canonicalize_phase(_ID.copy()), ())]
    found = np.empty((24, 2, 2), dtype=complex)  # canonical matrices found so far
    found[0] = elements[0].matrix
    frontier: list[tuple[tuple[str, ...], np.ndarray]] = [((), _ID.copy())]
    while frontier:
        next_frontier = []
        for word, mat in frontier:
            for label in GENERATOR_LABELS:
                new_mat = _GENERATOR_MATRICES[label] @ mat
                n = len(elements)
                if _same(_overlaps(found[:n], new_mat)).any():
                    continue
                new_word = word + (label,)
                elements.append(CliffordElement(n, canonicalize_phase(new_mat), new_word))
                found[n] = elements[n].matrix
                next_frontier.append((new_word, new_mat))
        frontier = next_frontier

    # every product M_j M_i at once, each the element of largest overlap
    products = np.einsum("jab,ibc->ijac", found, found)
    compose = _overlaps(found, products).argmax(axis=-1)
    inverse = (compose == 0).argmax(axis=1)

    _GROUP_CACHE = CliffordGroup(elements=elements, compose_table=compose, inverse_table=inverse)
    return _GROUP_CACHE


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
