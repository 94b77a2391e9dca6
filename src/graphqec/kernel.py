"""Dense linear-algebra substrate for small qubit registers.

States are exact complex-amplitude vectors (or density matrices) over at
most six labelled qubits. Qubit labels are small integers and the first
label in a register is the most significant (leftmost) tensor factor, with
|0> mapped to horizontal polarization and |1> to vertical. All values are
immutable after construction and every operation is a pure function, so
states can be shared freely between threads.

Every local operator is applied by one contraction helper, ``_apply_local``,
with two exceptions: a Pauli error acts as its signed permutation
(``code.inject_pauli_error``), and the recovery's final fix on its one-qubit
output is one 2x2 sandwich F rho F^dagger (``code._recover``). The helper
contracts a k-qubit matrix into chosen axes of the ``[2]*n`` amplitude
tensor (or of the ``[2]*2n`` density tensor) with the ``np.dot`` of
``tensordot``, under a cached axis plan: one transpose brings the target
axes to the front, one ``dot`` of the 2^k x 2^k matrix with the
2^k-row view of the tensor does the arithmetic, with operands laid out as
``tensordot`` lays them out, so every bit is the same, and one transpose
puts the axes back. No operator is ever widened to the full register. A
projective measurement (``_measure``) builds only the branches it needs:
it contracts the bra <v_s| of outcome s into the measured qubit's axis with
one ``@`` (and, for a density matrix, the ket |v_s> into its column axis),
so a forced outcome costs one branch. The second primitive,
``_pauli_vector``, serves every Pauli expectation: it interleaves each
qubit's (row, col) axes of the density tensor into one axis of size 4 and
applies one constant 4x4 matrix to each axis in turn, so n small
contractions give tr(rho P) for all 4^n Pauli words P at once, and a
caller reads as many words as it needs from that vector.
Every experiment kind reads its states as Pauli vectors: the resource times
the noise diagonal, and the encoded states, built as vectors in the first
place (``code._encoded_vectors``). Witnesses, syndromes, logical tomography
and fidelities with pure targets read components; the partial trace is
index 0 on the traced axes, a projective measurement adds or subtracts two
slices (``code._project_pauli_vector``), a Pauli error or frame flips signs
along an axis (``code._inject_in_pauli_vector``), and the count sampler
Walsh-Hadamard transforms the ``[2]*k`` sub-cubes of all of a witness's
settings into their outcome probabilities, one butterfly per axis
(``sampling._probabilities``).
Loss recovery is a real 4 x 64 Pauli transfer matrix, read off the
recipe's branch algebra, on the index-0 slice of the lost qubit's axis
(``code._recovery_ptm``), so no kind turns a
vector back into a density matrix; ``_density_of_pauli_vector`` does that
for ``sampling.apply_noise``, the noise diagonal, and ``recover_average``.

Validation happens where inputs enter. The public constructors
(``PureState``, ``DensityOperator``, ``Observable``) check their values, and
every public function checks the inputs it is given: labels, targets, a
user's unitary, bases and outcomes. A result derived from checked inputs is
built trusted (``_trusted``), with no second check; a property test
re-wraps every such public output through its checked constructor, so the
guarantee the check gave still holds. Helpers whose names start with ``_``
take raw arrays (a state vector is 1-D, a density matrix 2-D) plus a label
tuple, trust their callers and never build a checked object, so internal
steps chain them directly.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from functools import cache

import numpy as np

MAX_QUBITS = 6
NORM_ATOL = 1e-10
HERM_ATOL = 1e-10
EIG_ATOL = 1e-9

# Single-qubit gate matrices.
I = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
H = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
S = np.array([[1, 0], [0, 1j]], dtype=complex)
PAULI = {"I": I, "X": X, "Y": Y, "Z": Z}
PAULI_STACK = np.stack(list(PAULI.values()))  # read-only (4, 2, 2): I, X, Y, Z in order
PAULI_STACK.setflags(write=False)

# Principal square roots of -iZ, +iZ and -iX: the experiment's rotations
# and the inverse of sqrt(-iZ).
SQRT_MINUS_IZ = np.diag([np.exp(-1j * np.pi / 4), np.exp(1j * np.pi / 4)])
SQRT_PLUS_IZ = np.diag([np.exp(1j * np.pi / 4), np.exp(-1j * np.pi / 4)])
SQRT_MINUS_IX = (I - 1j * X) / math.sqrt(2)

CZ = np.diag([1, 1, 1, -1]).astype(complex)

KET0 = np.array([1, 0], dtype=complex)
KET1 = np.array([0, 1], dtype=complex)
PLUS = np.array([1, 1], dtype=complex) / math.sqrt(2)
MINUS = np.array([1, -1], dtype=complex) / math.sqrt(2)
PLUS_Y = np.array([1, 1j], dtype=complex) / math.sqrt(2)
MINUS_Y = np.array([1, -1j], dtype=complex) / math.sqrt(2)

# Eigenvectors per measurement basis; index 0 is the +1 eigenstate, so the
# outcome bit convention s=0 <-> eigenvalue +1 holds everywhere.
BASIS_VECTORS = {
    "X": (PLUS, MINUS),
    "Y": (PLUS_Y, MINUS_Y),
    "Z": (KET0, KET1),
}


def _as_complex(a) -> np.ndarray:
    arr = np.array(a, dtype=complex)
    arr.setflags(write=False)
    return arr


def _integral(q, what: str = "qubit label") -> int:
    """``q`` as an int, if it is integral and not a bool; ``ValueError``
    naming it otherwise, so 1.5, True and "1" are never read as labels."""
    if isinstance(q, bool) or not isinstance(q, numbers.Integral):
        raise ValueError(f"{what} {q!r} is not an integer")
    return int(q)


def _check_labels(labels) -> tuple[int, ...]:
    labels = tuple(q if type(q) is int else _integral(q) for q in labels)
    if len(set(labels)) != len(labels):
        raise ValueError(f"duplicate qubit labels: {labels}")
    if not 1 <= len(labels) <= MAX_QUBITS:
        raise ValueError(f"register must hold 1..{MAX_QUBITS} qubits, got {len(labels)}")
    return labels


@dataclass(frozen=True, eq=False)
class PureState:
    """Normalized state vector over an ordered tuple of qubit labels."""

    labels: tuple[int, ...]
    amplitudes: np.ndarray = field(repr=False)

    def __post_init__(self):
        labels = _check_labels(self.labels)
        amps = _as_complex(self.amplitudes).reshape(-1)
        if amps.shape[0] != 2 ** len(labels):
            raise ValueError(f"expected {2 ** len(labels)} amplitudes, got {amps.shape[0]}")
        # |psi|^2 summed as the trace of density(), which DensityOperator
        # holds to the same tolerance
        norm2 = (amps * amps.conj()).sum().real
        if not abs(norm2 - 1.0) <= NORM_ATOL:
            raise ValueError(f"state not normalized: |psi| = {math.sqrt(norm2)}")
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "amplitudes", amps)

    @property
    def num_qubits(self) -> int:
        return len(self.labels)

    def density(self) -> "DensityOperator":
        return _trusted(DensityOperator, self.labels,
                        np.outer(self.amplitudes, self.amplitudes.conj()))

    @staticmethod
    def single(label: int, vector) -> "PureState":
        return PureState((label,), vector)


@dataclass(frozen=True, eq=False)
class DensityOperator:
    """Hermitian, unit-trace, positive-semidefinite operator on a register."""

    labels: tuple[int, ...]
    matrix: np.ndarray = field(repr=False)

    def __post_init__(self):
        labels = _check_labels(self.labels)
        mat = _as_complex(self.matrix)
        dim = 2 ** len(labels)
        if mat.shape != (dim, dim):
            raise ValueError(f"expected {dim}x{dim} matrix, got {mat.shape}")
        if not np.abs(mat - mat.conj().T).max() <= HERM_ATOL:
            raise ValueError("density matrix not Hermitian")
        tr = np.trace(mat).real
        if not abs(tr - 1.0) <= NORM_ATOL:
            raise ValueError(f"density matrix trace {tr} != 1")
        eigs = np.linalg.eigvalsh(mat)
        if not eigs.min() >= -EIG_ATOL:
            raise ValueError(f"density matrix not PSD, min eigenvalue {eigs.min()}")
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "matrix", mat)

    @property
    def num_qubits(self) -> int:
        return len(self.labels)


@dataclass(frozen=True, eq=False)
class Observable:
    """Hermitian matrix over a declared qubit subset."""

    labels: tuple[int, ...]
    matrix: np.ndarray = field(repr=False)

    def __post_init__(self):
        labels = _check_labels(self.labels)
        mat = _as_complex(self.matrix)
        dim = 2 ** len(labels)
        if mat.shape != (dim, dim):
            raise ValueError(f"expected {dim}x{dim} matrix, got {mat.shape}")
        if not np.abs(mat - mat.conj().T).max() <= HERM_ATOL:
            raise ValueError("observable not Hermitian")
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "matrix", mat)


def _trusted(cls, labels: tuple[int, ...], raw: np.ndarray):
    """A ``PureState`` or ``DensityOperator`` (``cls``) built without the
    checks of its constructor, for a result the package derives from checked
    inputs: ``labels`` is a checked label tuple and ``raw`` a state vector
    (1-D) or density matrix (2-D) of the right size, made read-only here."""
    raw = np.asarray(raw, dtype=complex)
    raw.setflags(write=False)
    state = object.__new__(cls)
    object.__setattr__(state, "labels", labels)
    object.__setattr__(state, "amplitudes" if cls is PureState else "matrix", raw)
    return state


def maximally_mixed(labels) -> DensityOperator:
    labels = _check_labels(labels)
    dim = 2 ** len(labels)
    return _trusted(DensityOperator, labels, np.eye(dim, dtype=complex) / dim)


def _axes(labels, targets) -> list[int]:
    """Tensor axis of each target qubit in a register."""
    missing = set(targets) - set(labels)
    if missing:
        raise ValueError(f"operator acts on qubits outside the register: {sorted(missing)}")
    return [labels.index(q) for q in targets]


def _apply_local(tensor: np.ndarray, matrix: np.ndarray, axes) -> np.ndarray:
    """Contract a k-qubit matrix into ``axes`` of a ``[2]*m`` tensor.

    The first tensor factor of ``matrix`` acts on ``axes[0]``, the second on
    ``axes[1]`` and so on; every other axis is untouched and the result
    keeps the tensor's axis order.
    """
    k = len(axes)
    front, back = _axis_plan(tensor.ndim, tuple(axes))
    # Through the [2]*2k shape, as in tensordot, so that a matrix that is not
    # C-ordered reaches dot in the same layout there.
    m = np.asarray(matrix).reshape([2] * (2 * k)).reshape(2 ** k, 2 ** k)
    out = np.dot(m, tensor.transpose(front).reshape(2 ** k, -1))
    return out.reshape(tensor.shape).transpose(back)


@cache
def _axis_plan(ndim: int, axes: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """``front`` puts ``axes`` first, in order, and the other axes after them
    in theirs; ``back`` is its inverse."""
    front = axes + tuple(a for a in range(ndim) if a not in axes)
    return front, tuple(sorted(range(ndim), key=front.__getitem__))


# Row P sends one qubit's density entries rho[a, b], flattened as 2a + b, to
# sum_ab rho[a, b] P[b, a] = tr(rho P); rows in I, X, Y, Z order. Its inverse
# sends tr(rho P) back: column P holds the entries P[a, b] / 2.
_PAULI_TRANSFORM = PAULI_STACK.transpose(0, 2, 1).reshape(4, 4)
_PAULI_INVERSE = np.ascontiguousarray(PAULI_STACK.reshape(4, 4).T) / 2


def _pauli_vector(raw: np.ndarray, n: int) -> np.ndarray:
    """Real ``[4]*n`` array of tr(rho P) for every Pauli word P of a raw n-qubit
    state vector or density matrix: axis k is the k-th qubit of the register,
    with I=0, X=1, Y=2, Z=3.

    Raises ``ValueError`` if an entry has an imaginary part above 1e-9, as
    :func:`expectation` does.
    """
    t = _density_matrix(raw).reshape([2] * (2 * n))
    t = t.transpose([k for q in range(n) for k in (q, n + q)]).reshape([4] * n)
    t = _transform_each_axis(_PAULI_TRANSFORM, t)
    imag = np.abs(t.imag).max()
    if imag > EIG_ATOL:
        raise ValueError(f"expectation has imaginary part {imag}")
    return t.real


def _density_of_pauli_vector(vec: np.ndarray, n: int) -> np.ndarray:
    """Raw 2^n x 2^n density matrix 2^-n sum_P v_P P of a real ``[4]*n`` Pauli
    vector: the inverse of :func:`_pauli_vector`."""
    t = _transform_each_axis(_PAULI_INVERSE, vec.astype(complex))
    t = t.reshape([2] * (2 * n)).transpose([*range(0, 2 * n, 2), *range(1, 2 * n, 2)])
    return t.reshape(2 ** n, 2 ** n)


def _transform_each_axis(m: np.ndarray, t: np.ndarray) -> np.ndarray:
    """The d x d matrix ``m`` applied along every axis of the ``[d]*n`` tensor
    ``t``: each pass contracts ``m`` into the leading axis and rotates that
    axis to the back, so after n passes the axes are back in order."""
    out = t.reshape(len(m), -1)
    for _ in range(t.ndim):
        out = (m @ out).T.reshape(len(m), -1)
    return out.reshape(t.shape)


def _raw(state: PureState | DensityOperator) -> np.ndarray:
    """State vector of a pure state, density matrix of a mixed one."""
    return state.amplitudes if isinstance(state, PureState) else state.matrix


def _density_matrix(raw: np.ndarray) -> np.ndarray:
    """Density matrix of a raw state vector or density matrix."""
    return np.outer(raw, raw.conj()) if raw.ndim == 1 else raw


def _unitary(raw: np.ndarray, labels, u: np.ndarray, targets) -> np.ndarray:
    """U psi for a raw state vector, U rho U^dagger for a density matrix."""
    n = len(labels)
    axes = _axes(labels, targets)
    if raw.ndim == 1:
        return _apply_local(raw.reshape([2] * n), u, axes).reshape(-1)
    t = _apply_local(raw.reshape([2] * (2 * n)), u, axes)
    return _apply_local(t, u.conj(), [n + a for a in axes]).reshape(2 ** n, 2 ** n)


def reorder(state: PureState | DensityOperator, new_labels) -> PureState | DensityOperator:
    """Permute the register so labels appear in ``new_labels`` order."""
    new_labels = tuple(new_labels)
    if set(new_labels) != set(state.labels) or len(new_labels) != len(state.labels):
        raise ValueError(f"reorder needs a permutation of {state.labels}, got {new_labels}")
    new_labels = _check_labels(new_labels)
    n = len(new_labels)
    perm = [state.labels.index(q) for q in new_labels]
    if isinstance(state, PureState):
        amps = state.amplitudes.reshape([2] * n).transpose(perm).reshape(-1)
        return _trusted(PureState, new_labels, amps)
    mat = state.matrix.reshape([2] * (2 * n))
    mat = np.transpose(mat, perm + [n + p for p in perm])
    return _trusted(DensityOperator, new_labels, mat.reshape(2 ** n, 2 ** n))


def _check_unitary(u: np.ndarray):
    d = u.shape[0]
    if not np.abs(u @ u.conj().T - np.eye(d)).max() <= NORM_ATOL:
        raise ValueError("matrix is not unitary within 1e-10")


def apply_unitary(state: PureState | DensityOperator, u, targets) -> PureState | DensityOperator:
    """Apply a unitary on the target qubits, identity elsewhere."""
    u = np.asarray(u, dtype=complex)
    targets = tuple(q if type(q) is int else _integral(q) for q in targets)
    if len(set(targets)) != len(targets):
        raise ValueError(f"duplicate targets: {targets}")
    if u.shape != (2 ** len(targets), 2 ** len(targets)):
        raise ValueError(f"unitary shape {u.shape} does not match {len(targets)} targets")
    _check_unitary(u)
    return _trusted(type(state), state.labels, _unitary(_raw(state), state.labels, u, targets))


def _partial_trace(matrix: np.ndarray, labels, keep) -> np.ndarray:
    """Raw density matrix of ``keep``, in ``keep`` order: the axis plan puts
    the kept axes first, in that order, and the traced ones after them."""
    n = len(labels)
    rows, _ = _axis_plan(n, tuple(labels.index(q) for q in keep))
    t = matrix.reshape([2] * (2 * n)).transpose(rows + tuple(n + i for i in rows))
    dk, dd = 2 ** len(keep), 2 ** (n - len(keep))
    return np.einsum("ajbj->ab", t.reshape(dk, dd, dk, dd))


def partial_trace(rho: DensityOperator, keep) -> DensityOperator:
    """Trace out everything but ``keep``; result labels follow ``keep`` order."""
    keep = tuple(keep)
    if not keep:
        raise ValueError("keep must be non-empty")
    if not set(keep) <= set(rho.labels) or len(set(keep)) != len(keep):
        raise ValueError(f"keep {keep} must list distinct qubits of register {rho.labels}")
    keep = _check_labels(keep)
    return _trusted(DensityOperator, keep, _partial_trace(rho.matrix, rho.labels, keep))


def expectation(state: PureState | DensityOperator, obs: Observable) -> float:
    """Tr(rho O), contracting O into its own qubits only."""
    axes = _axes(state.labels, obs.labels)
    n = state.num_qubits
    if isinstance(state, PureState):
        psi = state.amplitudes.reshape([2] * n)
        val = np.vdot(psi, _apply_local(psi, obs.matrix, axes))
    else:
        t = _apply_local(state.matrix.reshape([2] * (2 * n)), obs.matrix, axes)
        val = np.trace(t.reshape(2 ** n, 2 ** n))
    if abs(val.imag) > EIG_ATOL:
        raise ValueError(f"expectation has imaginary part {val.imag}")
    return float(val.real)


class ZeroProbabilityError(ValueError):
    """A forced measurement branch has probability below 1e-12."""


# Row s is <v_s| for the basis's eigenvector v_s: contracted into a qubit's
# axis, it gives outcome s's branch of a state vector.
_ONTO_Z = {basis: np.stack([v.conj() for v in vs]) for basis, vs in BASIS_VECTORS.items()}


def _measure(raw: np.ndarray, labels, qubit: int, basis: str, forced_outcome: int | None,
             rng: np.random.Generator | None):
    """Raw :func:`projective_measure`: ``(outcome, p, post, post_labels)``.

    Branch s is contracted directly: the state, viewed as (2^i, 2, rest)
    around the measured qubit's axis i, takes row s of ``_ONTO_Z[basis]``,
    <v_s|, into that axis with one ``@``, giving <v_s|psi>; a density
    matrix then takes the row's conjugate, |v_s>, into its column axis the
    same way, giving <v_s|rho|v_s>. A forced outcome builds and weighs only
    its own branch; a drawn one builds both with the same arithmetic, so a
    draw returns the forced branch of its outcome bit for bit.
    ``post`` is the branch taken, normalized, with ``qubit`` removed; a
    state vector stays a vector.
    ``ZeroProbabilityError`` if the branch taken has p below 1e-12."""
    n, i, d = len(labels), labels.index(qubit), raw.ndim
    branches, probs = {}, {}
    for s in (0, 1) if forced_outcome is None else (forced_outcome,):
        b = _ONTO_Z[basis][s] @ raw.reshape(2 ** i, 2, -1)
        if d == 2:
            b = BASIS_VECTORS[basis][s] @ b.reshape(-1, 2, 2 ** (n - 1 - i))
        b = branches[s] = b.reshape((2 ** (n - 1),) * d)
        probs[s] = float((np.vdot(b, b) if d == 1 else b.trace()).real)
    if forced_outcome is None:
        rng = rng if rng is not None else np.random.default_rng()
        outcome = 0 if rng.random() < probs[0] / (probs[0] + probs[1]) else 1
    else:
        outcome = forced_outcome
    p = probs[outcome]
    if p < 1e-12:
        raise ZeroProbabilityError(f"cannot take zero-probability branch {outcome} (p = {p})")
    post = branches[outcome] / (math.sqrt(p) if d == 1 else p)
    return outcome, p, post, tuple(q for q in labels if q != qubit)


def _check_basis(basis: str):
    if basis not in BASIS_VECTORS:
        raise ValueError(f"basis must be X, Y or Z, got {basis!r}")


def _check_outcome(outcome) -> int:
    if not isinstance(outcome, numbers.Integral) or outcome not in (0, 1):
        raise ValueError(f"forced_outcome must be 0 or 1, got {outcome!r}")
    return int(outcome)


def projective_measure(state, qubit: int, basis: str, forced_outcome: int | None = None,
                       rng: np.random.Generator | None = None):
    """Measure one qubit in the X, Y or Z basis and drop it from the register.

    Returns ``(outcome, probability, post_state)`` where outcome bit 0 means
    the +1 eigenvalue. With ``forced_outcome`` the requested branch is taken
    (``ZeroProbabilityError`` if its probability is below 1e-12); otherwise
    the branch is sampled with ``rng`` (a fresh default generator if omitted).
    """
    _check_basis(basis)
    qubit = qubit if type(qubit) is int else _integral(qubit)
    if qubit not in state.labels:
        raise ValueError(f"qubit {qubit} not in register {state.labels}")
    if state.num_qubits == 1:
        raise ValueError("cannot remove the last qubit of a register")
    if forced_outcome is not None:
        forced_outcome = _check_outcome(forced_outcome)
    outcome, p, post, post_labels = _measure(_raw(state), state.labels, qubit, basis,
                                             forced_outcome, rng)
    return outcome, p, _trusted(type(state), post_labels, post)


def overlap(a: PureState, b: PureState) -> float:
    """|<a|b>| after aligning the label order."""
    if set(a.labels) != set(b.labels):
        raise ValueError(f"states on different registers: {a.labels} vs {b.labels}")
    if a.labels != b.labels:
        b = reorder(b, a.labels)
    return float(abs(np.vdot(a.amplitudes, b.amplitudes)))
