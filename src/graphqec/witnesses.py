"""Entanglement witnesses for the resource and the encoded logical states.

Each witness is a constant times identity minus a weighted sum of Pauli
terms, where some sites carry a "tilde": the term is measured in that basis
with the eigenstates swapped. Since the letters are traceless this is an
eigenvalue swap, so a tilde contributes a factor -1 to the term. A witness
value below zero certifies genuine multipartite entanglement, and the
calibrated witnesses all reach exactly -1 on their ideal target states.
The specs are frozen, so each built-in witness is built once and shared.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .pauli import PauliString, pauli_expectations


@dataclass(frozen=True)
class WitnessTerm:
    coefficient: Fraction
    word: PauliString
    tilde: frozenset[int]

    def __post_init__(self):
        if self.word.weight == 0:
            raise ValueError("witness terms must be traceless (non-identity)")
        if self.word.phase_power != 0:
            raise ValueError("witness terms carry their sign via tilde flags, not phases")
        if not self.tilde <= set(self.word.support):
            raise ValueError(f"tilde sites {set(self.tilde)} outside support {self.word.support}")

    @property
    def sign(self) -> int:
        return -1 if len(self.tilde) % 2 else 1

    def label(self) -> str:
        return " ".join(f"{l}~{q}" if q in self.tilde else f"{l}{q}"
                        for q, l in self.word.letters)


@dataclass(frozen=True)
class WitnessSpec:
    name: str
    constant: Fraction
    terms: tuple[WitnessTerm, ...]

    def __hash__(self) -> int:
        # The field hash, computed once: cached plans are keyed on the spec,
        # and rehashing every term's Fraction and PauliString on each lookup
        # costs more than the lookup. It is left out of pickles, since a
        # string's hash differs between processes.
        try:
            return self.__dict__["_hash"]
        except KeyError:
            h = hash((self.name, self.constant, self.terms))
            object.__setattr__(self, "_hash", h)
            return h

    def __getstate__(self) -> dict:
        return {k: v for k, v in self.__dict__.items() if k != "_hash"}

    @property
    def qubits(self) -> tuple[int, ...]:
        return tuple(sorted({q for t in self.terms for q in t.word.support}))


@dataclass(frozen=True)
class WitnessResult:
    value: float
    terms: tuple[tuple[str, float, float, float], ...]
    """Per term: (label, coefficient, signed expectation, raw expectation)."""


def _term(coeff, text: str, tilde=()) -> WitnessTerm:
    return WitnessTerm(Fraction(coeff), PauliString.parse(text), frozenset(tilde))


def _resource5_terms(x_coeff, zy_coeff) -> tuple[WitnessTerm, ...]:
    # Two measurement settings: X on every qubit, and Z1 Y2 Y3 Y4 Z5. The
    # terms are the stabilizer products of the resource graph measurable in
    # each setting; tildes follow the published rendering (every X letter,
    # plus Y letters and the path-qubit Z letters).
    x_terms = [
        ("X1 X3 X5", (1, 3, 5)),
        ("X1 X3 X4", (1, 3, 4)),
        ("X1 X2 X4 X5", (1, 2, 4, 5)),
        ("X1 X2", (1, 2)),
        ("X2 X3 X5", (2, 3, 5)),
        ("X2 X3 X4", (2, 3, 4)),
        ("X4 X5", (4, 5)),
    ]
    zy_terms = [
        ("Z1 Y2 Y4 Z5", (2, 4)),
        ("Z1 Y2 Y3", (2, 3)),
        ("Y3 Y4 Z5", (3, 4)),
    ]
    return tuple([_term(x_coeff, w, t) for w, t in x_terms]
                 + [_term(zy_coeff, w, t) for w, t in zy_terms])


@functools.cache
def resource_witness(as_printed: bool = False) -> WitnessSpec:
    """GME witness for the five-qubit resource state.

    The published coefficients (1/8, 1/4) cannot reach a negative value on
    any state (minimum +5/8); the two-setting construction the text cites
    uses (1/4, 1/2) and reaches -1 on the ideal resource. The calibrated
    version is the default; pass ``as_printed=True`` for the literal one.
    """
    if as_printed:
        return WitnessSpec("resource5-as-printed", Fraction(9, 4),
                           _resource5_terms(Fraction(1, 8), Fraction(1, 4)))
    return WitnessSpec("resource5", Fraction(9, 4),
                       _resource5_terms(Fraction(1, 4), Fraction(1, 2)))


@functools.cache
def box_witness() -> WitnessSpec:
    """Two-setting GME witness for the box cluster state |+_L> on (1,2,4,5):
    settings Z1 Z2 X4 X5 and X1 X2 Z4 Z5, terms the box stabilizer products."""
    terms = (
        _term(Fraction(1, 2), "Z1 Z2 X4", (2, 4)),
        _term(Fraction(1, 2), "Z1 Z2 X5", (2, 5)),
        _term(Fraction(1, 2), "X4 X5", (4, 5)),
        _term(Fraction(1, 2), "X1 Z4 Z5", (1, 4)),
        _term(Fraction(1, 2), "X2 Z4 Z5", (2, 4)),
        _term(Fraction(1, 2), "X1 X2", (1, 2)),
    )
    return WitnessSpec("box4", Fraction(2), terms)


@functools.cache
def ghz_witness() -> WitnessSpec:
    """Witness for the rotated GHZ state encoding |0_L>: one full-weight
    Z term plus the seven even X pair products, tildes on qubits 4 and 5."""
    terms = [_term(1, "Z1 Z2 Z4 Z5", (4, 5))]
    pair_words = ["X1 X2", "X1 X4", "X1 X5", "X2 X4", "X2 X5", "X4 X5", "X1 X2 X4 X5"]
    for w in pair_words:
        word = PauliString.parse(w)
        tilde = frozenset(q for q in word.support if q in (4, 5))
        terms.append(WitnessTerm(Fraction(1, 4), word, tilde))
    return WitnessSpec("ghz4", Fraction(7, 4), tuple(terms))


@functools.cache
def pair_witness(qubits: tuple[int, int] = (1, 2)) -> WitnessSpec:
    """Witness I - (tilde Y)Z - XX for one maximally entangled pair of the
    biseparable |-y_L> encoding."""
    a, b = qubits
    terms = (
        _term(1, f"Y{a} Z{b}", (a,)),
        _term(1, f"X{a} X{b}"),
    )
    return WitnessSpec(f"pair2_{a}{b}", Fraction(1), terms)


BUILTIN_NAMES = ("resource5", "box4", "ghz4", "pair2")


def builtin_witnesses(resource_as_printed: bool = False) -> dict[str, WitnessSpec]:
    """The built-in witnesses by their ``BUILTIN_NAMES``."""
    return dict(zip(BUILTIN_NAMES, (resource_witness(as_printed=resource_as_printed),
                                    box_witness(), ghz_witness(), pair_witness((1, 2)))))


def evaluate_witness(state, spec: WitnessSpec) -> WitnessResult:
    """constant - sum_k coeff_k <term_k>, tilde flags flipping term signs.

    Every term is read from one Pauli vector of the state
    (:func:`.pauli.pauli_expectations`). Also returns the per-term breakdown
    (signed and raw expectations) for bar-chart style reporting.
    """
    return _witness_result(spec, pauli_expectations(state, _term_table(spec).words))


def _witness_result(spec: WitnessSpec, values) -> WitnessResult:
    """Raw :func:`evaluate_witness` from the sequence ``values`` of the terms'
    exact expectations: constant - sum_k coeff_k (sign_k <word_k>), summed
    in term order, with the terms read from the spec's cached table."""
    table = _term_table(spec)
    signed = [s * raw for s, raw in zip(table.signs, values)]
    value = table.constant - sum([c * e for c, e in zip(table.coefficients, signed)])
    return WitnessResult(value, tuple(zip(table.labels, table.coefficients, signed, values)))


class _TermTable(NamedTuple):
    """A witness's terms as plain values, in term order, and its constant."""

    labels: tuple[str, ...]
    words: tuple[PauliString, ...]
    coefficients: tuple[float, ...]
    signs: tuple[int, ...]
    constant: float


@functools.lru_cache(maxsize=128)
def _term_table(spec: WitnessSpec) -> _TermTable:
    terms = spec.terms
    return _TermTable(tuple(t.label() for t in terms), tuple(t.word for t in terms),
                      tuple(float(t.coefficient) for t in terms),
                      tuple(t.sign for t in terms), float(spec.constant))


def fidelity_lower_bound(value: float) -> float:
    """Fidelity bound implied by a witness value: (1 - <W>) / 2, clamped to
    [0, 1]; reproduces the published bounds (-0.15 -> 0.575, -0.16 -> 0.58)."""
    return min(1.0, max(0.0, (1.0 - value) / 2.0))
