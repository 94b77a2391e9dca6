"""Entanglement witnesses for the resource and the encoded logical states.

Each witness is a constant times identity minus a weighted sum of Pauli
terms, where some sites carry a "tilde": the term is measured in that basis
with the eigenstates swapped. Since the letters are traceless this is an
eigenvalue swap, so a tilde contributes a factor -1 to the term. A witness
value below zero certifies genuine multipartite entanglement, and the
calibrated witnesses all reach exactly -1 on their ideal target states.
The specs are frozen, so each built-in witness is built once and shared.
A spec also builds its reading rule once, with itself: its measurement
settings, its term table (labels, words, coefficients, signs and weights)
and the choice of the record each term is read from (:class:`WitnessSpec`).
Sampling, the runner, the CLI and :func:`evaluate_witness` read them there.
A coefficient or constant is stored as a float, converted once when its
term or spec is built; every built-in one is dyadic (1/8 to 9/4), so the
float holds it exactly.
"""
from __future__ import annotations

import functools
import types
from dataclasses import dataclass

import numpy as np

from .pauli import PauliString, pauli_expectations


@dataclass(frozen=True)
class WitnessTerm:
    coefficient: float
    word: PauliString
    tilde: frozenset[int]

    def __post_init__(self):
        object.__setattr__(self, "coefficient", float(self.coefficient))
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
    """A witness: ``constant`` minus the weighted sum of its ``terms``.

    Its reading rule is built once, with the spec, as plain attributes that
    are not fields, so equality, ``repr`` and ``dataclasses.replace`` (which
    rebuilds them) see the fields only. ``qubits`` are the qubits its terms
    act on, and ``settings`` its measurement settings: the terms packed
    greedily, in term order, into joint ``{qubit: basis}`` maps, each then
    measuring Z on the other witness qubits; for the built-in witnesses
    this recovers the published two settings. The maps are shared, so they
    are read-only (``types.MappingProxyType``). The term table holds, in
    term order, each term's ``labels``, ``words``, ``coefficients`` and
    ``signs``, and ``weights`` the read-only float array of coefficient
    times sign. :meth:`term_records` says which record each term is read
    from.
    """

    name: str
    constant: float
    terms: tuple[WitnessTerm, ...]

    def __post_init__(self):
        terms = tuple(self.terms)
        qubits = tuple(sorted({q for t in terms for q in t.word.support}))
        words = tuple(t.word for t in terms)
        coefficients, signs = tuple(t.coefficient for t in terms), tuple(t.sign for t in terms)
        weights = np.array([c * s for c, s in zip(coefficients, signs)])
        weights.setflags(write=False)
        settings: list[dict[int, str]] = []
        for w in words:  # into the first setting that agrees on its qubits, else a new one
            s = next((s for s in settings if all(s.get(q, l) == l for q, l in w.letters)), None)
            if s is None:
                settings.append(s := {})
            s.update(w.letters)
        for s in settings:
            s.update((q, "Z") for q in qubits if q not in s)
        # set past the frozen __setattr__; of the fields, only the constant
        # and the terms are rewritten, as a float and a tuple
        self.__dict__.update(constant=float(self.constant), terms=terms, qubits=qubits,
                             labels=tuple(t.label() for t in terms), words=words,
                             coefficients=coefficients, signs=signs, weights=weights,
                             settings=tuple(map(types.MappingProxyType, settings)))

    def __hash__(self) -> int:
        # The field hash, computed once: cached plans are keyed on the spec,
        # and rehashing every term's PauliString on each lookup costs more
        # than the lookup. It is left out of pickles, since a string's hash
        # differs between processes.
        try:
            return self.__dict__["_hash"]
        except KeyError:
            h = hash((self.name, self.constant, self.terms))
            object.__setattr__(self, "_hash", h)
            return h

    def __getstate__(self) -> dict:
        # the fields only: the hash and the reading rule are built again
        return {name: self.__dict__[name] for name in ("name", "constant", "terms")}

    def __setstate__(self, state: dict):
        self.__dict__.update(state)
        self.__post_init__()

    def term_records(self, settings) -> list[int]:
        """Index into ``settings``, the (qubit, basis) pairs or ``{qubit:
        basis}`` maps of some records, of the record each term is read from:
        the first that measures all of the term's letters and no qubit
        outside ``qubits``, else the first that measures all its letters."""
        inside = set(self.qubits)
        settings = [dict(s) for s in settings]
        indices = []
        for label, word in zip(self.labels, self.words):
            covering = [i for i, s in enumerate(settings)
                        if all(s.get(q) == l for q, l in word.letters)]
            if not covering:
                raise ValueError(f"no setting covers term {label}")
            indices.append(next((i for i in covering if settings[i].keys() <= inside),
                                covering[0]))
        return indices


@dataclass(frozen=True)
class WitnessResult:
    value: float
    terms: tuple[tuple[str, float, float, float], ...]
    """Per term: (label, coefficient, signed expectation, raw expectation)."""


def _term(coeff, text: str, tilde=()) -> WitnessTerm:
    return WitnessTerm(coeff, PauliString.parse(text), frozenset(tilde))


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
        return WitnessSpec("resource5-as-printed", 2.25, _resource5_terms(0.125, 0.25))
    return WitnessSpec("resource5", 2.25, _resource5_terms(0.25, 0.5))


@functools.cache
def box_witness() -> WitnessSpec:
    """Two-setting GME witness for the box cluster state |+_L> on (1,2,4,5):
    settings Z1 Z2 X4 X5 and X1 X2 Z4 Z5, terms the box stabilizer products."""
    terms = (
        _term(0.5, "Z1 Z2 X4", (2, 4)),
        _term(0.5, "Z1 Z2 X5", (2, 5)),
        _term(0.5, "X4 X5", (4, 5)),
        _term(0.5, "X1 Z4 Z5", (1, 4)),
        _term(0.5, "X2 Z4 Z5", (2, 4)),
        _term(0.5, "X1 X2", (1, 2)),
    )
    return WitnessSpec("box4", 2.0, terms)


@functools.cache
def ghz_witness() -> WitnessSpec:
    """Witness for the rotated GHZ state encoding |0_L>: one full-weight
    Z term plus the seven even X pair products, tildes on qubits 4 and 5."""
    terms = [_term(1.0, "Z1 Z2 Z4 Z5", (4, 5))]
    pair_words = ["X1 X2", "X1 X4", "X1 X5", "X2 X4", "X2 X5", "X4 X5", "X1 X2 X4 X5"]
    for w in pair_words:
        word = PauliString.parse(w)
        tilde = frozenset(q for q in word.support if q in (4, 5))
        terms.append(WitnessTerm(0.25, word, tilde))
    return WitnessSpec("ghz4", 1.75, tuple(terms))


@functools.cache
def pair_witness(qubits: tuple[int, int] = (1, 2)) -> WitnessSpec:
    """Witness I - (tilde Y)Z - XX for one maximally entangled pair of the
    biseparable |-y_L> encoding."""
    a, b = qubits
    terms = (
        _term(1.0, f"Y{a} Z{b}", (a,)),
        _term(1.0, f"X{a} X{b}"),
    )
    return WitnessSpec(f"pair2_{a}{b}", 1.0, terms)


BUILTIN_NAMES = ("resource5", "box4", "ghz4", "pair2")


def builtin_witnesses(resource_as_printed: bool = False) -> dict[str, WitnessSpec]:
    """The built-in witnesses by their ``BUILTIN_NAMES``."""
    return dict(zip(BUILTIN_NAMES, (resource_witness(as_printed=resource_as_printed),
                                    box_witness(), ghz_witness(), pair_witness((1, 2)))))


def evaluate_witness(state, spec: WitnessSpec) -> WitnessResult:
    """constant - sum_k coeff_k <term_k>, tilde flags flipping term signs.

    Every term is read through its word's signed permutation of the state
    (:func:`.pauli.pauli_expectations`). Also returns the per-term breakdown
    (signed and raw expectations) for bar-chart style reporting.
    """
    return _witness_result(spec, pauli_expectations(state, spec.words))


def _witness_result(spec: WitnessSpec, values) -> WitnessResult:
    """Raw :func:`evaluate_witness` from the sequence ``values`` of the terms'
    exact expectations: constant - sum_k coeff_k (sign_k <word_k>), summed
    in term order, with the terms read from the spec's term table."""
    signed = [s * raw for s, raw in zip(spec.signs, values)]
    value = spec.constant - sum([c * e for c, e in zip(spec.coefficients, signed)])
    return WitnessResult(value, tuple(zip(spec.labels, spec.coefficients, signed, values)))


def fidelity_lower_bound(value: float) -> float:
    """Fidelity bound implied by a witness value: (1 - <W>) / 2, clamped to
    [0, 1]; reproduces the published bounds (-0.15 -> 0.575, -0.16 -> 0.58)."""
    return min(1.0, max(0.0, (1.0 - value) / 2.0))
