"""Phased Pauli-word algebra and Clifford conjugation.

A :class:`PauliString` is a phase in {+1, -1, +i, -i} times a tensor word of
I/X/Y/Z letters over labelled qubits. Identity letters are not stored, so
strings over overlapping label sets multiply naturally. Conjugation by the
small Clifford gate set used in the experiment (CZ, H, S and the square
roots of -iZ, +iZ, -iX) is tracked symbolically with exact phases; tests
cross-check every rule against the dense matrices in :mod:`.kernel`.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

from . import kernel

# i^k phase bookkeeping: phase_power k in 0..3 means the phase i^k.
_PHASES = (1 + 0j, 1j, -1 + 0j, -1j)
_PHASE_LABEL = {0: "", 1: "+i ", 2: "-1 ", 3: "-i "}

# Single-qubit products: (a, b) -> (letter, added power of i).
_LETTER_PRODUCT = {
    ("I", "I"): ("I", 0), ("I", "X"): ("X", 0), ("I", "Y"): ("Y", 0), ("I", "Z"): ("Z", 0),
    ("X", "I"): ("X", 0), ("Y", "I"): ("Y", 0), ("Z", "I"): ("Z", 0),
    ("X", "X"): ("I", 0), ("Y", "Y"): ("I", 0), ("Z", "Z"): ("I", 0),
    ("X", "Y"): ("Z", 1), ("Y", "X"): ("Z", 3),
    ("Y", "Z"): ("X", 1), ("Z", "Y"): ("X", 3),
    ("Z", "X"): ("Y", 1), ("X", "Z"): ("Y", 3),
}

_TOKEN = re.compile(r"([IXYZ])(\d+)$")


@dataclass(frozen=True)
class PauliString:
    """Phase times a Pauli word; ``letters`` holds only non-identity sites."""

    letters: tuple[tuple[int, str], ...] = ()
    phase_power: int = 0

    def __post_init__(self):
        seen = {}
        for q, l in self.letters:
            if l not in "IXYZ":
                raise ValueError(f"bad Pauli letter {l!r}")
            if q in seen:
                raise ValueError(f"duplicate qubit {q} in Pauli word")
            seen[q] = l
        cleaned = tuple(sorted((q, l) for q, l in seen.items() if l != "I"))
        object.__setattr__(self, "letters", cleaned)
        object.__setattr__(self, "phase_power", self.phase_power % 4)

    # -- construction -------------------------------------------------
    @staticmethod
    def from_map(letters: dict[int, str], phase_power: int = 0) -> "PauliString":
        return PauliString(tuple(letters.items()), phase_power)

    @staticmethod
    def identity() -> "PauliString":
        return PauliString()

    @staticmethod
    def single(qubit: int, letter: str, phase_power: int = 0) -> "PauliString":
        return PauliString(((qubit, letter),), phase_power)

    @staticmethod
    def parse(text: str) -> "PauliString":
        """Parse strings like ``"Y1 Z2 Z4 Y5"`` with optional leading phase
        ``+1``, ``-1``, ``+i`` or ``-i``."""
        tokens = text.replace("*", " ").split()
        phase = 0
        if tokens and tokens[0] in ("+1", "-1", "+i", "-i", "i"):
            phase = {"+1": 0, "i": 1, "+i": 1, "-1": 2, "-i": 3}[tokens[0]]
            tokens = tokens[1:]
        letters = {}
        for tok in tokens:
            if tok == "I":
                continue
            m = _TOKEN.match(tok)
            if not m:
                raise ValueError(f"cannot parse Pauli token {tok!r}")
            letters[int(m.group(2))] = m.group(1)
        return PauliString.from_map(letters, phase)

    # -- views ---------------------------------------------------------
    @property
    def phase(self) -> complex:
        return _PHASES[self.phase_power]

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(q for q, _ in self.letters)

    @property
    def weight(self) -> int:
        return len(self.letters)

    @property
    def is_hermitian(self) -> bool:
        return self.phase_power in (0, 2)

    def letter(self, qubit: int) -> str:
        for q, l in self.letters:
            if q == qubit:
                return l
        return "I"

    def __str__(self) -> str:
        if not self.letters:
            return _PHASE_LABEL[self.phase_power] + "I"
        body = " ".join(f"{l}{q}" for q, l in self.letters)
        return _PHASE_LABEL[self.phase_power] + body

    # -- algebra --------------------------------------------------------
    def __mul__(self, other: "PauliString") -> "PauliString":
        return pauli_multiply(self, other)

    def dense(self, labels) -> np.ndarray:
        """Matrix realization over an ordered register including the support.

        Memoized per (word, labels); the array is shared and read-only."""
        return _dense(self, tuple(labels))

    def to_observable(self, labels=None) -> kernel.Observable:
        """The word as an observable over ``labels`` (default: its support)."""
        _check_hermitian(self)
        labels = tuple(labels) if labels is not None else self.support
        if not labels:
            labels = (1,)
        return kernel.Observable(labels, self.dense(labels))


@lru_cache(maxsize=128)
def _dense(p: PauliString, labels: tuple[int, ...]) -> np.ndarray:
    if not set(p.support) <= set(labels):
        raise ValueError(f"support {p.support} not within register {labels}")
    mats = [kernel.PAULI[p.letter(q)] for q in labels]
    out = p.phase * reduce(np.kron, mats, np.eye(1, dtype=complex))
    out.setflags(write=False)
    return out


def _check_hermitian(p: PauliString):
    if not p.is_hermitian:
        raise ValueError(f"{p} has imaginary phase and is not an observable")


_LETTER_INDEX = {letter: i for i, letter in enumerate(kernel.PAULI)}  # I 0, X 1, Y 2, Z 3


def _read_words(vec: np.ndarray, labels, words) -> tuple[float, ...]:
    """tr(rho P) of each word P, read off the Pauli vector ``vec`` of a state
    rho on ``labels`` (see ``kernel._pauli_vector``): one ``vec.take`` of
    the words' cached flat indices, times their real phases."""
    index, phase = _word_plan(tuple(labels), tuple(words))
    return tuple((vec.take(index) * phase).tolist())


@lru_cache(maxsize=256)
def _word_plan(labels: tuple[int, ...], words: tuple[PauliString, ...]):
    """Read-only (flat index, phase) arrays of ``words`` in a ``[4]*n`` Pauli
    vector on ``labels``: the entry of each word, whose axis i holds the
    index of its letter on ``labels[i]`` (0 for I), and the real part of its
    phase. A letter on a qubit outside ``labels`` raises ``ValueError``."""
    index = np.zeros(len(words), dtype=np.intp)
    for i, p in enumerate(words):
        for q, letter in p.letters:
            index[i] += _LETTER_INDEX[letter] * 4 ** (len(labels) - 1 - labels.index(q))
    phase = np.array([p.phase.real for p in words])
    index.setflags(write=False)
    phase.setflags(write=False)
    return index, phase


@lru_cache(maxsize=256)
def _word_action(labels: tuple[int, ...], words: tuple[PauliString, ...]):
    """Read-only (perm, phase) arrays, shape (len(words), 2^n), of ``words`` as
    signed permutations on ``labels``: a Pauli word sends each basis state to
    one basis state times a phase, so P psi = phase * psi[perm] row by row.
    Both are read off ``dense(labels)``: perm[x] is the column of row x's
    nonzero entry and phase[x] that entry. A letter on a qubit outside
    ``labels`` raises ``ValueError``."""
    mats = np.stack([p.dense(labels) for p in words])
    perm = np.abs(mats).argmax(axis=2)
    phase = np.take_along_axis(mats, perm[..., None], axis=2)[..., 0]
    perm.setflags(write=False)
    phase.setflags(write=False)
    return perm, phase


def _word_expectations(raw: np.ndarray, labels: tuple[int, ...], words) -> np.ndarray:
    """Real tr(rho P) of each Hermitian word P of a raw state vector or
    density matrix on ``labels``, through the words' signed permutations
    (:func:`_word_action`), with no contraction: Re sum_x conj(psi_x)
    phase_x psi[perm_x] for a vector, Re sum_x phase_x rho[perm_x, x] for a
    density matrix."""
    perm, phase = _word_action(labels, tuple(words))
    if raw.ndim == 1:
        return ((phase * raw[perm]) @ raw.conj()).real
    return (phase * raw[perm, np.arange(len(raw))]).sum(axis=1).real


def pauli_expectations(state, words) -> tuple[float, ...]:
    """Exact tr(rho P) of each Hermitian word P, in order.

    All words are read from one Pauli vector of the state (see
    ``kernel._pauli_vector``), so k words cost one contraction pass, not k.
    Words with an imaginary phase or support outside the register are
    refused with ``ValueError``.
    """
    words = tuple(words)
    for p in words:
        _check_hermitian(p)
        kernel._axes(state.labels, p.support)
    return _read_words(kernel._pauli_vector(kernel._raw(state), state.num_qubits),
                       state.labels, words)


def pauli_multiply(p: PauliString, q: PauliString) -> PauliString:
    """Letter-wise product with exact phase accumulation."""
    letters = {}
    power = p.phase_power + q.phase_power
    qs = dict(q.letters)
    for site, a in p.letters:
        b = qs.pop(site, "I")
        letter, dp = _LETTER_PRODUCT[(a, b)]
        power += dp
        letters[site] = letter
    letters.update(qs)
    return PauliString.from_map(letters, power)


def pauli_commutes(p: PauliString, q: PauliString) -> bool:
    """True iff pq = qp: even number of anticommuting letter overlaps."""
    qs = dict(q.letters)
    anti = sum(1 for site, a in p.letters
               if (b := qs.get(site, "I")) not in ("I", a))
    return anti % 2 == 0


@dataclass(frozen=True)
class CliffordGate:
    """One gate from the experiment's set, identified by kind and targets."""

    kind: str
    targets: tuple[int, ...]

    _ONE_QUBIT = {"H", "S", "SQRT_MZ", "SQRT_PZ", "SQRT_MX"}

    def __post_init__(self):
        if self.kind == "CZ":
            if len(self.targets) != 2 or self.targets[0] == self.targets[1]:
                raise ValueError("CZ needs two distinct targets")
        elif self.kind in self._ONE_QUBIT:
            if len(self.targets) != 1:
                raise ValueError(f"{self.kind} needs exactly one target")
        else:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        object.__setattr__(self, "targets", tuple(int(t) for t in self.targets))

    @property
    def matrix(self) -> np.ndarray:
        return {
            "CZ": kernel.CZ,
            "H": kernel.H,
            "S": kernel.S,
            "SQRT_MZ": kernel.SQRT_MINUS_IZ,
            "SQRT_PZ": kernel.SQRT_PLUS_IZ,
            "SQRT_MX": kernel.SQRT_MINUS_IX,
        }[self.kind]

    def __str__(self) -> str:
        return f"{self.kind}({','.join(map(str, self.targets))})"


def cz(i: int, j: int) -> CliffordGate:
    return CliffordGate("CZ", (i, j))


# Conjugation U P U+ of single letters by one-qubit gates:
# letter -> (letter', sign). Derived from the matrices; verified densely.
_CONJ_1Q = {
    "H": {"X": ("Z", 1), "Y": ("Y", -1), "Z": ("X", 1)},
    "S": {"X": ("Y", 1), "Y": ("X", -1), "Z": ("Z", 1)},
    "SQRT_MZ": {"X": ("Y", 1), "Y": ("X", -1), "Z": ("Z", 1)},
    "SQRT_PZ": {"X": ("Y", -1), "Y": ("X", 1), "Z": ("Z", 1)},
    "SQRT_MX": {"X": ("X", 1), "Y": ("Z", 1), "Z": ("Y", -1)},
}


def _conjugate_single(gate: CliffordGate, site: int, letter: str) -> PauliString:
    """Image of a one-letter string under the gate."""
    if gate.kind == "CZ":
        i, j = gate.targets
        if site not in (i, j) or letter == "Z":
            return PauliString.single(site, letter)
        other = j if site == i else i
        # CZ (X_i) CZ = X_i Z_j and CZ (Y_i) CZ = Y_i Z_j, symmetrically in j.
        return PauliString(((site, letter), (other, "Z")))
    (t,) = gate.targets
    if site != t or letter == "I":
        return PauliString.single(site, letter)
    new_letter, sign = _CONJ_1Q[gate.kind][letter]
    return PauliString.single(site, new_letter, 0 if sign > 0 else 2)


def conjugate_pauli(gate: CliffordGate, p: PauliString) -> PauliString:
    """Return g p g+ as a PauliString (Clifford closure, exact phase)."""
    out = PauliString(phase_power=p.phase_power)
    for site, letter in p.letters:
        out = out * _conjugate_single(gate, site, letter)
    return out


def conjugate_sequence(gates, p: PauliString) -> PauliString:
    """Conjugate by a product of gates, first gate applied first:
    (g_k ... g_1) p (g_1+ ... g_k+)."""
    for g in gates:
        p = conjugate_pauli(g, p)
    return p


# CZ(i,3) for every code qubit i: the encoding step that entangles the
# ancilla with the box cluster.
ENCODING_CZ_LAYER = (cz(1, 3), cz(2, 3), cz(4, 3), cz(5, 3))


def expand_logical(p: PauliString) -> PauliString:
    """Expand an ancilla operator into the five-qubit resource picture by
    conjugating with the CZ layer that attaches qubit 3 to the code."""
    if not set(p.support) <= {3}:
        raise ValueError(f"operator must be supported on qubit 3 only, got {p.support}")
    return conjugate_sequence(ENCODING_CZ_LAYER, p)
