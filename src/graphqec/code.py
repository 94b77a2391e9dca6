"""The four-qubit graph code: encoding, errors, syndromes, loss recovery.

Code qubits are (1,2,4,5); qubit 3 is the ancilla that carries the input
state and is consumed by an X measurement during encoding. The encoded
state is X_L^{s3} (alpha |+_L> + beta |-_L>), i.e. the input is stored in
the Hadamard basis up to a byproduct fixed by the measurement outcome s3.

The noisy encoding of a batch of inputs is also built directly as Pauli
vectors (:func:`_encoded_vectors`): it is linear in the input's Bloch
4-vector, and noise, the ancilla projection and the byproduct correction
are each an element-wise step on the vector.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, lru_cache

import numpy as np

from . import kernel, sampling
from .kernel import DensityOperator, PureState
from .pauli import (_LETTER_INDEX, PauliString, _read_words, _word_action,
                    _word_expectations, pauli_commutes, pauli_multiply)

CODE_QUBITS = (1, 2, 4, 5)
ANCILLA = 3

SYNDROME_S1 = PauliString.parse("Y1 Z2 Z4 Y5")
SYNDROME_S2 = PauliString.parse("Y1 Z2 Y4 Z5")
SYNDROME_S3 = PauliString.parse("Z1 Y2 Y4 Z5")


def syndrome_operators() -> tuple[PauliString, PauliString, PauliString]:
    return SYNDROME_S1, SYNDROME_S2, SYNDROME_S3


@dataclass(frozen=True)
class LogicalOperators:
    xbar: PauliString
    zbar: PauliString
    ybar: PauliString


@cache
def logical_ops() -> LogicalOperators:
    xbar = PauliString.parse("Z1 Z2 X4")
    zbar = PauliString.parse("Z1 Z2 Z4 Z5")
    prod = pauli_multiply(xbar, zbar)
    ybar = PauliString(prod.letters, prod.phase_power + 1)  # i * xbar * zbar
    return LogicalOperators(xbar, zbar, ybar)


@dataclass(frozen=True)
class AncillaState:
    """Single-qubit input alpha|0> + beta|1> with its Bloch vector."""

    alpha: complex
    beta: complex

    def __post_init__(self):
        norm = math.sqrt(abs(self.alpha) ** 2 + abs(self.beta) ** 2)
        if not abs(norm - 1.0) <= kernel.NORM_ATOL:
            raise ValueError(f"ancilla not normalized: {norm}")
        object.__setattr__(self, "alpha", complex(self.alpha))
        object.__setattr__(self, "beta", complex(self.beta))

    @property
    def bloch(self) -> tuple[float, float, float]:
        a, b = self.alpha, self.beta
        return (2 * (a.conjugate() * b).real,
                2 * (a.conjugate() * b).imag,
                abs(a) ** 2 - abs(b) ** 2)

    @property
    def vector(self) -> np.ndarray:
        return np.array([self.alpha, self.beta], dtype=complex)

    @staticmethod
    def from_angles(theta: float, phi: float) -> "AncillaState":
        return AncillaState(math.cos(theta / 2),
                            complex(math.cos(phi), math.sin(phi)) * math.sin(theta / 2))


# The informationally complete probe set used to characterize the encoding.
PROBES = {
    "0": AncillaState(1, 0),
    "1": AncillaState(0, 1),
    "+": AncillaState(1 / math.sqrt(2), 1 / math.sqrt(2)),
    "+y": AncillaState(1 / math.sqrt(2), 1j / math.sqrt(2)),
}
PROBE_NAMES = ("0", "1", "+", "+y")

# Ideal logical image of each probe after the Hadamard-basis encoding.
PROBE_TARGETS = {"0": "+", "1": "-", "+": "0", "+y": "-y"}


def _bell_pairs():
    k0, k1 = kernel.KET0, kernel.KET1
    phi_p = (np.kron(k0, k0) + np.kron(k1, k1)) / math.sqrt(2)
    phi_m = (np.kron(k0, k0) - np.kron(k1, k1)) / math.sqrt(2)
    psi_p = (np.kron(k0, k1) + np.kron(k1, k0)) / math.sqrt(2)
    psi_m = (np.kron(k0, k1) - np.kron(k1, k0)) / math.sqrt(2)
    return phi_p, phi_m, psi_p, psi_m


@cache
def logical_basis_states() -> dict[str, PureState]:
    """The six logical basis states on (1,2,4,5).

    |0_L> and |1_L> are sums of Bell-pair products on the pairs (1,5) and
    (4,2); the remaining four are the usual superpositions.
    """
    phi_p, phi_m, psi_p, psi_m = _bell_pairs()
    zero = (np.kron(phi_m, phi_m) - np.kron(psi_m, psi_m)) / math.sqrt(2)
    one = (np.kron(psi_p, phi_p) + np.kron(phi_p, psi_p)) / math.sqrt(2)
    zero_L = kernel.reorder(PureState((1, 5, 4, 2), zero), CODE_QUBITS)
    one_L = kernel.reorder(PureState((1, 5, 4, 2), one), CODE_QUBITS)
    z, o = zero_L.amplitudes, one_L.amplitudes
    mk = lambda amps: PureState(CODE_QUBITS, amps)
    return {
        "0": zero_L,
        "1": one_L,
        "+": mk((z + o) / math.sqrt(2)),
        "-": mk((z - o) / math.sqrt(2)),
        "+y": mk((z + 1j * o) / math.sqrt(2)),
        "-y": mk((z - 1j * o) / math.sqrt(2)),
    }


@cache
def _encoding_branches() -> tuple[np.ndarray, np.ndarray]:
    """Amplitudes of |0>_3 |+_L> and |1>_3 |-_L> on qubits (1,2,3,4,5)."""
    basis = logical_basis_states()
    return tuple(
        kernel.reorder(PureState((ANCILLA, *CODE_QUBITS), np.kron(ket, basis[key].amplitudes)),
                       (1, 2, 3, 4, 5)).amplitudes
        for ket, key in ((kernel.KET0, "+"), (kernel.KET1, "-")))


def _encoding_input(a: AncillaState) -> np.ndarray:
    """alpha |0>_3 |+_L> + beta |1>_3 |-_L> on qubits (1,2,3,4,5): the
    resource state with the ancilla marginal replaced by the input."""
    z3_plus, o3_minus = _encoding_branches()
    return a.alpha * z3_plus + a.beta * o3_minus


@cache
def _input_map() -> np.ndarray:
    """Read-only real 1024 x 4 map from an input's Bloch 4-vector (1, x, y, z)
    to the Pauli vector of its encoding input on qubits (1,2,3,4,5), flattened.

    Column k is the Pauli vector of V sigma_k V^dagger / 2 for the isometry
    V: |0> -> |0>_3 |+_L>, |1> -> |1>_3 |-_L>, so the map sends the input
    rho = (I + x X + y Y + z Z) / 2 to the vector of V rho V^dagger. It
    depends on no noise model."""
    v = np.stack(_encoding_branches(), axis=1)
    out = np.stack([kernel._pauli_vector(v @ s @ v.conj().T / 2, 5).reshape(-1)
                    for s in (kernel.I, kernel.X, kernel.Y, kernel.Z)], axis=1)
    out.setflags(write=False)
    return out


def _encoded_vectors(blochs, noise, byproduct: str) -> np.ndarray:
    """Pauli vectors of the encoded states of P inputs, shape (P, 4, 4, 4, 4)
    on ``CODE_QUBITS``, from their Bloch 4-vectors (1, x, y, z), shape (P, 4).

    ``noise`` is a ``sampling.NoiseModel``. Every step is linear on the
    Pauli vector: the cached input map; the noise as the diagonal
    ``sampling._noise_factors`` (before the ancilla measurement at stage
    ``post-resource``, after the byproduct correction at ``post-encoding``);
    the ancilla's X projection (:func:`_project_pauli_vector`); and the Xbar
    correction as the sign flips of its letters. ``byproduct`` ``condition0``
    keeps the s3 = 0 branch (the published convention); ``correct`` and
    ``raw`` weight both branches by their probability, with and without the
    feed-forward Xbar correction.
    """
    vec = (np.asarray(blochs, dtype=float) @ _input_map().T).reshape(-1, *[4] * 5)
    if noise.stage == "post-resource":
        vec = vec * sampling._noise_factors((1, 2, 3, 4, 5), noise)
    else:  # post-encoding: the same factors on every branch
        factors = sampling._noise_factors(CODE_QUBITS, noise)
    xbar = logical_ops().xbar
    branches = []
    for s3 in (0,) if byproduct == "condition0" else (0, 1):
        p, post = _project_pauli_vector(vec, (1, 2, 3, 4, 5), ANCILLA, "X", s3)
        if s3 and byproduct == "correct":
            post = _conjugate_pauli_vector(post, xbar, CODE_QUBITS)
        if noise.stage == "post-encoding":
            post = post * factors
        branches.append((p, post))
    return branches[0][1] if len(branches) == 1 else sum(p * b for p, b in branches)


def _project_pauli_vector(vec: np.ndarray, labels, qubit: int, basis: str, outcome: int):
    """Forced branch ``(p, post)`` of measuring ``qubit`` in ``basis``, from the
    Pauli vector ``vec`` on ``labels`` held by its trailing axes: ``post`` is
    (v[..I_q..] + (-1)^s v[..B_q..]) / 2 on the other labels, divided by its
    identity entry p (kept with a size-1 axis per qubit, so it broadcasts).
    ``ZeroProbabilityError`` below p = 1e-12, as ``kernel._measure``."""
    axis = vec.ndim - len(labels) + labels.index(qubit)
    post = (vec.take(0, axis) + (-1) ** outcome * vec.take(_LETTER_INDEX[basis], axis)) / 2
    p = post[(..., *[slice(0, 1)] * (len(labels) - 1))]
    if p.min() < 1e-12:
        raise kernel.ZeroProbabilityError(
            f"cannot take zero-probability branch {outcome} (p = {p.min()})")
    return p, post / p


def encode(a: AncillaState, forced_s3: int | None = None,
           rng: np.random.Generator | None = None) -> tuple[int, PureState]:
    """Measure the ancilla in X, teleporting the input into the code.

    Returns ``(s3, state)`` where the four-qubit state equals
    X_L^{s3} (alpha |+_L> + beta |-_L>).
    """
    forced = None if forced_s3 is None else kernel._check_outcome(forced_s3)
    s3, _, post, labels = kernel._measure(_encoding_input(a), (1, 2, 3, 4, 5), ANCILLA, "X",
                                          forced, rng)
    return s3, kernel._trusted(PureState, labels, post)


def parse_error_spec(spec: str) -> PauliString:
    """Parse config-style error strings: ``"Z@1"``, ``"X@4"`` or ``"none"``."""
    spec = spec.strip()
    if spec.lower() in ("none", "i", ""):
        return PauliString.identity()
    try:
        letter, qubit = spec.split("@")
        return PauliString.single(int(qubit), letter.strip().upper())
    except (ValueError, KeyError) as exc:
        raise ValueError(f"bad error spec {spec!r}, expected e.g. 'Z@1' or 'none'") from exc


def inject_pauli_error(state, error: PauliString | str):
    """Apply a weight <= 1 Pauli error on a code qubit, as the signed
    permutation of ``pauli._word_action``: phase * psi[perm] for a state
    vector, phase_x rho[perm_x, perm_z] conj(phase_z) for a density matrix.
    Every entry of a Pauli matrix is 0, +-1 or +-i, so the result equals the
    dense contraction of the error's matrix bit for bit, up to the sign of a
    zero. A Pauli is unitary by construction, so it is applied unchecked."""
    if isinstance(error, str):
        error = parse_error_spec(error)
    if error.weight > 1:
        raise ValueError(f"only single-qubit errors are in scope, got weight {error.weight}")
    if error.weight == 0:
        return state
    if not set(error.support) <= set(CODE_QUBITS):
        raise ValueError(f"error must act on a code qubit, got {error.support}")
    (perm,), (phase,) = _word_action(state.labels, (error,))
    raw = kernel._raw(state)
    if raw.ndim == 1:
        out = phase * raw[perm]
    else:
        out = phase[:, None] * raw[perm[:, None], perm] * phase.conj()
    return kernel._trusted(type(state), state.labels, out)


@dataclass(frozen=True)
class SyndromeRecord:
    """Expectation values of (S1, S2, S3) and their thresholded signs."""

    values: tuple[float, float, float]

    def __post_init__(self):
        vals = tuple(float(v) for v in self.values)
        for v in vals:
            if not abs(v) <= 1 + kernel.EIG_ATOL:
                raise ValueError(f"syndrome expectation out of range: {v}")
        object.__setattr__(self, "values", vals)

    @property
    def signs(self) -> tuple[int, int, int]:
        return tuple(1 if v >= 0 else -1 for v in self.values)


def measure_syndromes(state) -> SyndromeRecord:
    """Exact syndrome expectations, each read through its word's signed
    permutation (``pauli._word_expectations``), with no contraction and no
    Pauli vector; the state is left untouched."""
    kernel._axes(state.labels, CODE_QUBITS)
    return SyndromeRecord(_word_expectations(kernel._raw(state), state.labels,
                                             syndrome_operators()))


def _syndromes_of_vector(vec: np.ndarray, labels) -> tuple[float, float, float]:
    """Raw :func:`measure_syndromes`: <S1>, <S2>, <S3> read off the Pauli
    vector ``vec`` of a state on ``labels``."""
    return _read_words(vec, labels, syndrome_operators())


def _pauli_transfer(u: np.ndarray) -> np.ndarray:
    """Real 4 x 4 Pauli transfer matrix R[a, c] = tr(P_a U P_c U^dagger) / 2 of
    conjugation by the 2x2 unitary U = ``u``, Paulis in I, X, Y, Z order:
    column c is the Pauli vector of U P_c U^dagger, so R sends one qubit's
    Pauli vector to that of its conjugate. Error injection, syndrome flips
    and loss recovery all read it."""
    paulis = np.stack([kernel.PAULI[c] for c in "IXYZ"])
    return np.einsum("aij,cji->ac", paulis, u @ paulis @ u.conj().T).real / 2


@cache
def _error_signs(letter: str) -> np.ndarray:
    """Read-only signs s_L[P] = tr(P L P L^dagger) / 2 for P = I, X, Y, Z:
    the diagonal of :func:`_pauli_transfer` of L = ``kernel.PAULI[letter]``,
    +1 for I and L and -1 for the other two. Built from the dense matrices,
    not from commutation rules."""
    out = _pauli_transfer(kernel.PAULI[letter]).diagonal().copy()
    out.setflags(write=False)
    return out


def _inject_in_pauli_vector(vec: np.ndarray, axis: int, letter: str) -> np.ndarray:
    """Pauli vector of L rho L^dagger given the Pauli vector ``vec`` of rho,
    for the single-qubit Pauli ``letter`` L on tensor axis ``axis``.

    L leaves every component as it was except that it flips the sign of
    each word whose letter on that axis is neither I nor L, so this is an
    element-wise +-1 multiply by :func:`_error_signs` along the axis. The
    result equals dense conjugation followed by ``kernel._pauli_vector``.
    """
    shape = [1] * vec.ndim
    shape[axis] = 4
    return vec * _error_signs(letter).reshape(shape)


def _conjugate_pauli_vector(vec: np.ndarray, word: PauliString, labels) -> np.ndarray:
    """Pauli vector of W rho W^dagger for the Pauli word W = ``word``, given
    the Pauli vector ``vec`` of rho on ``labels``, held by the trailing axes
    of ``vec``: one :func:`_inject_in_pauli_vector` per letter."""
    offset = vec.ndim - len(labels)
    for q, letter in word.letters:
        vec = _inject_in_pauli_vector(vec, offset + labels.index(q), letter)
    return vec


def predicted_syndrome_signs(error: PauliString) -> tuple[int, int, int]:
    """Commutation-parity prediction: -1 exactly where the error
    anticommutes with the syndrome operator."""
    return tuple(1 if pauli_commutes(s, error) else -1 for s in syndrome_operators())


def single_error_table() -> dict[str, tuple[int, int, int]]:
    """Predicted sign pattern for each of the 12 single-qubit errors."""
    return {f"{letter}@{q}": predicted_syndrome_signs(PauliString.single(q, letter))
            for letter in "XYZ" for q in CODE_QUBITS}


@dataclass(frozen=True)
class Diagnosis:
    status: str  # no_error | detected_unlocatable | identified | inconsistent
    error: PauliString | None = None
    correction: PauliString | None = None


def diagnose(signs, known_location: int | None = None) -> Diagnosis:
    """Interpret thresholded syndrome signs.

    Without a location any non-trivial pattern is only detectable (the code
    has distance 2), so the state must be discarded and re-encoded. With a
    known location the unique matching single-qubit Pauli is returned
    together with its correcting operator.
    """
    signs = tuple(int(s) for s in signs)
    if signs == (1, 1, 1):
        return Diagnosis("no_error")
    if known_location is None:
        return Diagnosis("detected_unlocatable")
    if known_location not in CODE_QUBITS:
        raise ValueError(f"{known_location} is not a code qubit")
    matches = [letter for letter in "XYZ"
               if predicted_syndrome_signs(PauliString.single(known_location, letter)) == signs]
    if not matches:
        return Diagnosis("inconsistent")
    if len(matches) > 1:  # impossible at weight 1 for this code; asserted by tests
        raise AssertionError(f"ambiguous diagnosis at qubit {known_location}: {matches}")
    err = PauliString.single(known_location, matches[0])
    return Diagnosis("identified", error=err, correction=err)


def lose_qubit(state, q: int) -> DensityOperator:
    """Erase a code qubit at a known location: trace it out."""
    return kernel._trusted(DensityOperator,
                           *_lose(state, q if type(q) is int else kernel._integral(q)))


def _lose(state, q: int):
    """Raw :func:`lose_qubit`: the remaining labels and density matrix."""
    if q not in state.labels:
        raise ValueError(f"qubit {q} not present")
    keep = tuple(l for l in state.labels if l != q)
    return keep, kernel._partial_trace(kernel._density_matrix(kernel._raw(state)),
                                       state.labels, keep)


# ---------------------------------------------------------------------------
# Loss recovery
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class RecoveryRecipe:
    """Helper measurements plus feedforward that undo the loss of one qubit.

    ``corrections[2*s_a + s_b]`` is the 2x2 unitary, a Pauli in the built-in
    recipes, applied to the output qubit for helper outcomes (s_a, s_b),
    named by ``correction_labels``;
    ``frame`` is the fixed unitary applied afterwards, named by
    ``frame_label``. The recipes of :func:`recovery_recipe` hold the exact
    matrices ``kernel.PAULI[letter]`` and the frame ``kernel.Z``. Applying
    a recipe to any ideally encoded input returns that input exactly, on
    every outcome branch.
    """

    lost: int
    helpers: tuple[tuple[int, str], tuple[int, str]]
    output: int
    corrections: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]
    correction_labels: tuple[str, str, str, str]
    frame: np.ndarray
    frame_label: str

    def __post_init__(self):
        for m in (*self.corrections, self.frame):
            if np.shape(m) != (2, 2):
                raise ValueError(f"recipe matrices must be 2x2, got shape {np.shape(m)}")
            kernel._check_unitary(np.asarray(m, dtype=complex))

    def correction(self, s_a: int, s_b: int) -> np.ndarray:
        return self.corrections[2 * s_a + s_b]


# lost qubit -> (helper measurements, output qubit, corrections indexed by
# 2*s_a + s_b). Lost 4 and 1 are the published assignments; lost 4's
# X^{s2} (ZX)^{s5} equals I, Y, X, Z up to global phase.
_RECOVERY_TABLE = {
    1: (((2, "X"), (4, "Z")), 5, "IXYZ"),
    2: (((1, "X"), (5, "Z")), 4, "IXYZ"),
    4: (((2, "Z"), (5, "X")), 1, "IYXZ"),
    5: (((2, "Z"), (4, "X")), 1, "IYXZ"),
}


@cache
def recovery_recipe(lost: int) -> RecoveryRecipe:
    """Recovery recipe for one lost code qubit, read from a literal table.

    Each entry names two helper measurements, the output qubit and four
    exact Pauli corrections; every recipe ends with the fixed frame Z. The
    table is the result of searching logical representatives without
    support on the lost qubit, and the tests check it against that search.
    """
    if lost == ANCILLA:
        raise ValueError("qubit 3 is the ancilla; it is consumed at encoding")
    if lost not in CODE_QUBITS:
        raise ValueError(f"{lost} is not a code qubit")
    helpers, output, letters = _RECOVERY_TABLE[lost]
    return RecoveryRecipe(lost, helpers, output, tuple(kernel.PAULI[c] for c in letters),
                          tuple(letters), kernel.Z, "Z")


def _check_recipe(labels, recipe: RecoveryRecipe):
    expected = {q for q, _ in recipe.helpers} | {recipe.output}
    if set(labels) != expected:
        raise ValueError(f"state on {labels} does not match recipe qubits {sorted(expected)}")
    for _, basis in recipe.helpers:
        kernel._check_basis(basis)


def recover(rho, recipe: RecoveryRecipe, forced_outcomes=None,
            rng: np.random.Generator | None = None) -> tuple[tuple[int, int], DensityOperator]:
    """Measure the helpers, then apply the outcome correction and frame.

    For an ideally encoded input the recovered qubit is pure with fidelity
    1 to the original input on every outcome branch.
    """
    return _recover(rho.labels, kernel._density_matrix(kernel._raw(rho)), recipe,
                    forced_outcomes, rng)


def _recover(labels, matrix: np.ndarray, recipe: RecoveryRecipe, forced_outcomes, rng):
    """:func:`recover` of a raw density matrix on ``labels``."""
    _check_recipe(labels, recipe)
    if forced_outcomes is not None:
        given = tuple(forced_outcomes) if np.iterable(forced_outcomes) else ()
        if len(given) != len(recipe.helpers):
            raise ValueError(f"forced_outcomes must hold {len(recipe.helpers)} outcomes, one "
                             f"per helper measurement, got {forced_outcomes!r}")
        forced_outcomes = tuple(kernel._check_outcome(s) for s in given)
    outcomes = []
    for i, (q, basis) in enumerate(recipe.helpers):
        forced = None if forced_outcomes is None else forced_outcomes[i]
        s, _, matrix, labels = kernel._measure(matrix, labels, q, basis, forced, rng)
        outcomes.append(s)
    s_a, s_b = outcomes  # then the (s_a, s_b) correction and the frame on the output
    fix = recipe.frame @ recipe.correction(s_a, s_b)
    return (s_a, s_b), kernel._trusted(DensityOperator, labels,
                                       kernel._unitary(matrix, labels, fix, (recipe.output,)))


def recover_average(rho, recipe: RecoveryRecipe) -> DensityOperator:
    """Feedforward channel output: the recovered state averaged over all
    four helper-outcome pairs, each weighted by its probability.

    Measuring the helpers and applying frame C_s for outcomes s = (s_a, s_b)
    act on the state's Pauli vector in closed form, so the channel is one
    cached real transfer matrix (:func:`_recovery_ptm`). Its trace row is
    exactly the unit vector at I...I: no branch is skipped, and the output
    is exactly trace-preserving. The output, derived from the checked
    input, is built trusted; a property test re-checks it.
    """
    _check_recipe(rho.labels, recipe)
    vec = kernel._pauli_vector(kernel._raw(rho), len(rho.labels)).reshape(-1)
    b = _recovery_ptm(recipe, rho.labels) @ vec
    return kernel._trusted(DensityOperator, (recipe.output,),
                           kernel._density_of_pauli_vector(b, 1))


@lru_cache(maxsize=128)
def _recovery_ptm(recipe: RecoveryRecipe, labels: tuple[int, ...]) -> np.ndarray:
    """Read-only real 4 x 4^n Pauli transfer matrix of :func:`recover_average`
    on a register: it sends the register's flattened Pauli vector to the
    output's (b0, bx, by, bz).

    It is read off the branch algebra (the stabilizer picture of a
    measurement and a Pauli frame). Measuring helper h in basis B with
    outcome s keeps (v[..I_h..] + (-1)^s v[..B_h..]) / 2, the numerator of
    :func:`_project_pauli_vector`, and frame C_s then acts on the output
    letter c by :func:`_pauli_transfer`. So entry [a, word] is nonzero only
    where the word holds I (j = 0) or the helper's basis (j = 1) on each
    helper, and there it is sum_s (-1)^(s_a j_a + s_b j_b) R(frame C_s)[a, c]
    / 4. For the Pauli recipes every term is 0 or +-1, so the matrix is
    exact."""
    kept = np.zeros((2, 2, 4))  # [helper, s, letter]: 1 at I, (-1)^s at the basis
    kept[..., 0] = 1
    for i, (_, basis) in enumerate(recipe.helpers):
        kept[i, :, _LETTER_INDEX[basis]] = 1, -1
    transfers = np.stack([_pauli_transfer(recipe.frame @ c) for c in recipe.corrections])
    subscript = {recipe.helpers[0][0]: "j", recipe.helpers[1][0]: "k", recipe.output: "c"}
    out = np.einsum("xyac,xj,yk->a" + "".join(subscript[q] for q in labels),
                    transfers.reshape(2, 2, 4, 4), *kept) / 4
    out = out.reshape(4, -1)
    out.setflags(write=False)
    return out


def decode_no_loss(state, forced_outcomes=None,
                   rng: np.random.Generator | None = None) -> tuple[tuple[int, int], DensityOperator]:
    """Decode by discarding qubit 4 and running the lost-4 recovery; works
    because the chosen logical representatives never touch qubit 4."""
    return _recover(*_lose(state, 4), recovery_recipe(4), forced_outcomes, rng)
