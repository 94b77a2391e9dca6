"""The four-qubit graph code: encoding, errors, syndromes, loss recovery.

Code qubits are (1,2,4,5); qubit 3 is the ancilla that carries the input
state and is consumed by an X measurement during encoding. The encoded
state is X_L^{s3} (alpha |+_L> + beta |-_L>), i.e. the input is stored in
the Hadamard basis up to a byproduct fixed by the measurement outcome s3.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cache

import numpy as np

from . import kernel
from .kernel import DensityOperator, PureState
from .pauli import PauliString, pauli_commutes, pauli_multiply

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
        if abs(norm - 1.0) > kernel.NORM_ATOL:
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


def encoding_input_state(a: AncillaState) -> PureState:
    """alpha |0>_3 |+_L> + beta |1>_3 |-_L> on qubits (1,2,3,4,5): the
    resource state with the ancilla marginal replaced by the input."""
    basis = logical_basis_states()
    z3_plus = kernel.reorder(
        kernel.tensor_product(PureState.single(ANCILLA, kernel.KET0), basis["+"]),
        (1, 2, 3, 4, 5))
    o3_minus = kernel.reorder(
        kernel.tensor_product(PureState.single(ANCILLA, kernel.KET1), basis["-"]),
        (1, 2, 3, 4, 5))
    amps = a.alpha * z3_plus.amplitudes + a.beta * o3_minus.amplitudes
    return PureState((1, 2, 3, 4, 5), amps)


def encode(a: AncillaState, forced_s3: int | None = None,
           rng: np.random.Generator | None = None) -> tuple[int, PureState]:
    """Measure the ancilla in X, teleporting the input into the code.

    Returns ``(s3, state)`` where the four-qubit state equals
    X_L^{s3} (alpha |+_L> + beta |-_L>).
    """
    s3, _, post = kernel.projective_measure(encoding_input_state(a), ANCILLA, "X",
                                            forced_outcome=forced_s3, rng=rng)
    return s3, post


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
    """Apply a weight <= 1 Pauli error on a code qubit."""
    if isinstance(error, str):
        error = parse_error_spec(error)
    if error.weight > 1:
        raise ValueError(f"only single-qubit errors are in scope, got weight {error.weight}")
    if error.weight == 0:
        return state
    if not set(error.support) <= set(CODE_QUBITS):
        raise ValueError(f"error must act on a code qubit, got {error.support}")
    return kernel.apply_unitary(state, error.dense(error.support), error.support)


@dataclass(frozen=True)
class SyndromeRecord:
    """Expectation values of (S1, S2, S3) and their thresholded signs."""

    values: tuple[float, float, float]

    def __post_init__(self):
        vals = tuple(float(v) for v in self.values)
        for v in vals:
            if abs(v) > 1 + kernel.EIG_ATOL:
                raise ValueError(f"syndrome expectation out of range: {v}")
        object.__setattr__(self, "values", vals)

    @property
    def signs(self) -> tuple[int, int, int]:
        return tuple(1 if v >= 0 else -1 for v in self.values)


def measure_syndromes(state) -> SyndromeRecord:
    """Exact syndrome expectations; the state is left untouched."""
    vals = tuple(kernel.expectation(state, s.to_observable()) for s in syndrome_operators())
    return SyndromeRecord(vals)


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
    if q not in state.labels:
        raise ValueError(f"qubit {q} not present")
    rho = state.density() if isinstance(state, PureState) else state
    keep = tuple(l for l in rho.labels if l != q)
    return kernel.partial_trace(rho, keep)


# ---------------------------------------------------------------------------
# Loss recovery
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class RecoveryRecipe:
    """Helper measurements plus feedforward that undo the loss of one qubit.

    ``corrections[2*s_a + s_b]`` is the Pauli product applied to the output
    qubit for helper outcomes (s_a, s_b); ``frame`` is the fixed unitary
    applied afterwards (it absorbs the Hadamard-like basis swap left by the
    representative choice). Applying the recipe to any ideally encoded
    input returns that input exactly, on every outcome branch.
    """

    lost: int
    helpers: tuple[tuple[int, str], tuple[int, str]]
    output: int
    corrections: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]
    correction_labels: tuple[str, str, str, str]
    frame: np.ndarray
    frame_label: str

    def correction(self, s_a: int, s_b: int) -> np.ndarray:
        return self.corrections[2 * s_a + s_b]


def _project_out(amps: np.ndarray, labels: list[int], qubit: int, basis: str,
                 outcome: int) -> tuple[np.ndarray, list[int]]:
    """Unnormalized projection <v_s|_qubit psi, qubit removed."""
    t = kernel._bra(amps.reshape([2] * len(labels)), kernel.BASIS_VECTORS[basis][outcome],
                    labels.index(qubit))
    return t.reshape(-1), [l for l in labels if l != qubit]


def _branch_map(lost: int, helpers, output: int, outcomes) -> np.ndarray | None:
    """The 2x2 unitary mapping ancilla coordinates to the output qubit on one
    helper-outcome branch, or None if the branch does not factor cleanly."""
    basis = logical_basis_states()
    T = np.zeros((2, 2, 2), dtype=complex)  # (output, lost, input)
    for k, key in enumerate(("+", "-")):  # encode images of |0>, |1>
        amps, labels = basis[key].amplitudes, list(CODE_QUBITS)
        for (q, b), s in zip(helpers, outcomes):
            amps, labels = _project_out(amps, labels, q, b, s)
        block = amps.reshape(2, 2)
        if labels != [output, lost]:
            block = block.T
        T[:, :, k] = block
    l_star = int(np.argmax([np.linalg.norm(T[:, l, :]) for l in range(2)]))
    M = T[:, l_star, :]
    for l in range(2):
        sl = T[:, l, :]
        c = np.vdot(M, sl) / np.vdot(M, M)
        if np.abs(sl - c * M).max() > 1e-10:
            return None  # residual entanglement with the lost qubit
    svals = np.linalg.svd(M, compute_uv=False)
    if svals[0] < 1e-12 or abs(svals[0] - svals[1]) > 1e-10:
        return None  # branch map not proportional to a unitary
    return M / svals[0]


def _nearest_pauli(mat: np.ndarray) -> str | None:
    for name, p in kernel.PAULI.items():
        if abs(np.trace(p.conj().T @ mat)) / 2 > 1 - 1e-9:
            return name
    return None


_FRAME_NAMES = {
    "I": kernel.I, "X": kernel.X, "Y": kernel.Y, "Z": kernel.Z, "H": kernel.H,
    "HZ": kernel.H @ kernel.Z, "ZH": kernel.Z @ kernel.H,
    "HX": kernel.H @ kernel.X, "XH": kernel.X @ kernel.H,
}


def _frame_label(mat: np.ndarray) -> str:
    for name, m in _FRAME_NAMES.items():
        if abs(np.trace(m.conj().T @ mat)) / 2 > 1 - 1e-9:
            return name
    return "U"


def _derive_recipe(lost: int, helpers, output: int) -> RecoveryRecipe | None:
    branch_maps = {}
    for outcomes in itertools.product((0, 1), repeat=2):
        m = _branch_map(lost, helpers, output, outcomes)
        if m is None:
            return None
        branch_maps[outcomes] = m
    frame = np.linalg.inv(branch_maps[(0, 0)])
    corrections, labels = [], []
    for s_a, s_b in itertools.product((0, 1), repeat=2):
        c = branch_maps[(0, 0)] @ branch_maps[(s_a, s_b)].conj().T
        name = _nearest_pauli(c)
        if name is None:
            return None
        corrections.append(kernel.PAULI[name])
        labels.append(name)
    return RecoveryRecipe(lost, tuple(helpers), output, tuple(corrections),
                          tuple(labels), frame, _frame_label(frame))


def _stabilizer_group() -> list[PauliString]:
    gens = syndrome_operators()
    group = []
    for bits in itertools.product((0, 1), repeat=3):
        g = PauliString.identity()
        for b, s in zip(bits, gens):
            if b:
                g = g * s
        group.append(g)
    return group


def _candidate_assignments(lost: int):
    """Helper/output assignments allowed by logical representatives with no
    support on the lost qubit, most regular bases first."""
    ops = logical_ops()
    group = _stabilizer_group()
    x_reps = [r for g in group if lost not in (r := ops.xbar * g).support]
    z_reps = [r for g in group if lost not in (r := ops.zbar * g).support]
    survivors = [q for q in CODE_QUBITS if q != lost]
    seen = set()
    order = {"Z": 0, "X": 1, "Y": 2}
    candidates = []
    for xr, zr in itertools.product(x_reps, z_reps):
        for output in survivors:
            lx, lz = xr.letter(output), zr.letter(output)
            if "I" in (lx, lz) or lx == lz:
                continue  # output must carry anticommuting images
            bases = []
            for h in (q for q in survivors if q != output):
                letters = {xr.letter(h), zr.letter(h)} - {"I"}
                if len(letters) > 1:
                    break
                bases.append((h, letters.pop() if letters else "Z"))
            else:
                key = (output, tuple(bases))
                if key not in seen:
                    seen.add(key)
                    candidates.append((output, tuple(bases)))
    candidates.sort(key=lambda c: (c[0], tuple((h, order[b]) for h, b in c[1])))
    return candidates


@cache
def recovery_recipe(lost: int) -> RecoveryRecipe:
    """Recovery recipe for one lost code qubit.

    Qubit 4 uses the published procedure (measure 2 in Z and 5 in X, output
    on qubit 1, corrections X^{s2} (ZX)^{s5} then a fixed Z). Qubit 1 uses
    the published helper pair (2, 4) with output 5. Recipes for qubits 2
    and 5 are found by searching logical representatives without support on
    the lost qubit; every derived table is validated exactly.
    """
    if lost == ANCILLA:
        raise ValueError("qubit 3 is the ancilla; it is consumed at encoding")
    if lost not in CODE_QUBITS:
        raise ValueError(f"{lost} is not a code qubit")
    if lost == 4:
        zx = kernel.Z @ kernel.X
        corrections, labels = [], []
        for s2, s5 in itertools.product((0, 1), repeat=2):
            c = np.linalg.matrix_power(kernel.X, s2) @ np.linalg.matrix_power(zx, s5)
            corrections.append(c)
            labels.append(_nearest_pauli(c) or "U")
        return RecoveryRecipe(4, ((2, "Z"), (5, "X")), 1, tuple(corrections),
                              tuple(labels), kernel.Z, "Z")
    if lost == 1:
        recipe = _derive_recipe(1, ((2, "X"), (4, "Z")), 5)
        if recipe is None:
            raise AssertionError("published helper assignment for lost qubit 1 failed")
        return recipe
    for output, helpers in _candidate_assignments(lost):
        recipe = _derive_recipe(lost, helpers, output)
        if recipe is not None:
            return recipe
    raise AssertionError(f"no valid recovery recipe found for lost qubit {lost}")


def recover(rho, recipe: RecoveryRecipe, forced_outcomes=None,
            rng: np.random.Generator | None = None) -> tuple[tuple[int, int], DensityOperator]:
    """Measure the helpers, then apply the outcome correction and frame.

    For an ideally encoded input the recovered qubit is pure with fidelity
    1 to the original input on every outcome branch.
    """
    if isinstance(rho, PureState):
        rho = rho.density()
    expected = {q for q, _ in recipe.helpers} | {recipe.output}
    if set(rho.labels) != expected:
        raise ValueError(f"state on {rho.labels} does not match recipe qubits {sorted(expected)}")
    outcomes = []
    for i, (q, basis) in enumerate(recipe.helpers):
        forced = None if forced_outcomes is None else forced_outcomes[i]
        s, _, rho = kernel.projective_measure(rho, q, basis, forced, rng)
        outcomes.append(s)
    s_a, s_b = outcomes
    fix = recipe.frame @ recipe.correction(s_a, s_b)
    return (s_a, s_b), kernel.apply_unitary(rho, fix, (recipe.output,))


def recover_average(rho, recipe: RecoveryRecipe) -> DensityOperator:
    """Feedforward channel output: branch-probability average of the
    recovered state over all four helper-outcome pairs."""
    if isinstance(rho, PureState):
        rho = rho.density()
    total = np.zeros((2, 2), dtype=complex)
    for s_a, s_b in itertools.product((0, 1), repeat=2):
        work = rho
        prob = 1.0
        try:
            for (q, basis), s in zip(recipe.helpers, (s_a, s_b)):
                s, p, work = kernel.projective_measure(work, q, basis, s)
                prob *= p
        except kernel.ZeroProbabilityError:
            continue
        fix = recipe.frame @ recipe.correction(s_a, s_b)
        total += prob * kernel.apply_unitary(work, fix, (recipe.output,)).matrix
    return DensityOperator((recipe.output,), total)


def decode_no_loss(state, forced_outcomes=None,
                   rng: np.random.Generator | None = None) -> tuple[tuple[int, int], DensityOperator]:
    """Decode by discarding qubit 4 and running the lost-4 recovery; works
    because the chosen logical representatives never touch qubit 4."""
    recipe = recovery_recipe(4)
    return recover(lose_qubit(state, 4), recipe, forced_outcomes, rng)
