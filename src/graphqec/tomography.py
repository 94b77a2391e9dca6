"""Logical-state tomography, single-qubit process tomography and metrics.

The encoding channel maps an input qubit to the logical qubit of the code;
measuring the collective logical operators gives a 2x2 density matrix. The
four probe outputs give the channel's images of the Paulis (I, X, Y, Z), and
so its Pauli transfer matrix R_ab = tr(P_a eps(P_b)) / 2. The PTM is the
working form of a single-qubit channel: its Bloch-sphere action and its
trace-preservation defect are read from it, and the chi matrix follows from
it by one constant change of basis.
"""
from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass, field
from functools import cache, cached_property

import numpy as np

from . import kernel
from .code import CODE_QUBITS, PROBE_NAMES, logical_ops
from .kernel import DensityOperator, PureState
from .pauli import _read_words, pauli_expectations

# vec(R) = _CHI_TO_PTM @ vec(chi) (row-major): entry [4a + b, 4i + j] is
# tr(P_a P_i P_b P_j) / 2. Its columns are orthogonal with squared norm 4, so
# vec(chi) = _CHI_TO_PTM+ vec(R) / 4.
_CHI_TO_PTM = np.einsum("axy,iyz,bzw,jwx->abij", *[kernel.PAULI_STACK] * 4).reshape(16, 16) / 2
_CHI_TO_PTM.setflags(write=False)

# Sampled logical expectations may produce slightly negative eigenvalues;
# tolerate down to this bound and flag, reject anything worse.
NEGATIVITY_TOLERANCE = 0.05


@dataclass(frozen=True, eq=False)
class LogicalDensityMatrix:
    """2x2 logical state reconstructed from <X_L>, <Y_L>, <Z_L>. The
    constructor refuses a matrix that is not a finite 2x2 array and
    expectations that are not three finite reals, which it stores as floats."""

    matrix: np.ndarray = field(repr=False)
    expectations: tuple[float, float, float]
    negative_eigenvalue: bool = False

    def __post_init__(self):
        if np.shape(self.matrix) != (2, 2) or not np.isfinite(self.matrix).all():
            raise ValueError(f"matrix must be a finite 2x2 array, got {self.matrix!r}")
        ex = tuple(self.expectations)
        if len(ex) != 3 or not all(isinstance(e, numbers.Real) and math.isfinite(e) for e in ex):
            raise ValueError(f"expectations must be three finite floats, got {ex!r}")
        object.__setattr__(self, "expectations", tuple(map(float, ex)))

    @property
    def bloch(self) -> tuple[float, float, float]:
        return self.expectations


def logical_density_from_expectations(ex: float, ey: float, ez: float) -> LogicalDensityMatrix:
    """(I + r.sigma) / 2 for r = (ex, ey, ez); its smaller eigenvalue is
    (1 - |r|) / 2 in closed form. A NaN or infinite component fails the
    check, so what passes is finite and is built trusted, without
    ``LogicalDensityMatrix``'s second check."""
    mat = 0.5 * (kernel.I + ex * kernel.X + ey * kernel.Y + ez * kernel.Z)
    eig_min = (1 - math.hypot(ex, ey, ez)) / 2
    if not eig_min >= -NEGATIVITY_TOLERANCE:
        raise ValueError(f"logical matrix unphysical: eigenvalue {eig_min}")
    trusted = object.__new__(LogicalDensityMatrix)
    vars(trusted).update(matrix=mat, expectations=(float(ex), float(ey), float(ez)),
                         negative_eigenvalue=eig_min < -kernel.EIG_ATOL)
    return trusted


def logical_tomography(state) -> LogicalDensityMatrix:
    """rho_L = (I + <X_L> X + <Y_L> Y + <Z_L> Z) / 2 from the collective
    logical bases of a four-qubit code state; the three logical expectations
    are read by :func:`.pauli.pauli_expectations`, through the words'
    signed permutations of the state."""
    kernel._axes(state.labels, CODE_QUBITS)
    ops = logical_ops()
    return logical_density_from_expectations(
        *pauli_expectations(state, (ops.xbar, ops.ybar, ops.zbar)))


def _logical_of_vector(vec: np.ndarray, labels) -> LogicalDensityMatrix:
    """:func:`logical_tomography` of the state with Pauli vector ``vec`` on
    ``labels``: <X_L>, <Y_L> and <Z_L> are three of its components."""
    ops = logical_ops()
    return logical_density_from_expectations(
        *_read_words(vec, labels, (ops.xbar, ops.ybar, ops.zbar)))


def state_fidelity(rho, target: PureState) -> float:
    """<psi| rho |psi> for a mixed state against a pure target."""
    if not isinstance(target, PureState):
        raise TypeError("target must be a PureState")
    if set(rho.labels) != set(target.labels):
        raise ValueError(f"registers differ: {rho.labels} vs {target.labels}")
    if rho.labels != target.labels:
        target = kernel.reorder(target, rho.labels)
    psi = target.amplitudes
    return float(np.vdot(psi, kernel._density_matrix(kernel._raw(rho)) @ psi).real)


def _vector_fidelity(vec: np.ndarray, target: np.ndarray) -> float:
    """:func:`state_fidelity` from Pauli vectors on one n-qubit register:
    tr(rho sigma) = 2^-n sum_P v_P t_P for the pure target sigma with
    Pauli vector ``target``."""
    return float(vec.reshape(-1) @ target.reshape(-1)) / 2 ** vec.ndim


@dataclass(frozen=True, eq=False)
class ChiMatrix:
    """4x4 process matrix in the Pauli basis: eps(rho) = sum chi_ij M_i rho M_j+."""

    matrix: np.ndarray = field(repr=False)

    def __post_init__(self):
        mat = np.array(self.matrix, dtype=complex)
        if mat.shape != (4, 4):
            raise ValueError(f"chi must be 4x4, got {mat.shape}")
        if not np.abs(mat - mat.conj().T).max() <= 1e-8:
            raise ValueError("chi matrix not Hermitian")
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)

    @property
    def min_eigenvalue(self) -> float:
        return float(np.linalg.eigvalsh(self.matrix).min())

    @property
    def is_physical(self) -> bool:
        """Positive semidefinite and trace-preserving (both within 1e-8)."""
        return self.min_eigenvalue > -1e-8 and self.trace_preservation_defect() < 1e-8

    @cached_property
    def ptm(self) -> np.ndarray:
        """Pauli transfer matrix R_ab = tr(P_a eps(P_b)) / 2, real 4x4 and
        read-only, computed once per instance: the Bloch action and the
        trace-preservation defect both read it."""
        ptm = (_CHI_TO_PTM @ self.matrix.reshape(-1)).real.reshape(4, 4)
        ptm.setflags(write=False)
        return ptm

    def trace_preservation_defect(self) -> float:
        """max |sum_ij chi_ij M_j+ M_i - I|, which is sum_b R_0b P_b - I."""
        return float(np.abs(np.tensordot(self.ptm[0], kernel.PAULI_STACK, 1) - kernel.I).max())


@dataclass(frozen=True, eq=False)
class ChannelSample:
    """Single-qubit channel outputs for the canonical probe set: any value
    whose ``matrix`` is 2x2, such as a one-qubit ``DensityOperator`` or a
    ``LogicalDensityMatrix``, which were checked when they were built."""

    outputs: dict[str, DensityOperator | LogicalDensityMatrix]

    def __post_init__(self):
        missing = [p for p in PROBE_NAMES if p not in self.outputs]
        if missing:
            raise ValueError(f"missing probes: {missing}; need all of {PROBE_NAMES}")
        for name, rho in self.outputs.items():
            if np.shape(rho.matrix) != (2, 2):
                raise ValueError(f"output for probe {name!r} is not a single qubit")


def chi_of_unitary(u: np.ndarray) -> ChiMatrix:
    """Rank-1 chi of a unitary: chi = a a+ with a_i = tr(M_i+ u) / 2."""
    a = np.array([np.trace(m.conj().T @ u) / 2 for m in kernel.PAULI_STACK])
    return ChiMatrix(np.outer(a, a.conj()))


@cache
def chi_identity() -> ChiMatrix:
    return chi_of_unitary(kernel.I)


@cache
def chi_hadamard() -> ChiMatrix:
    return chi_of_unitary(kernel.H)


def reconstruct_chi(samples: ChannelSample) -> ChiMatrix:
    """Linear inversion from the four probe outputs, through the PTM.

    The Pauli images are eps(I) = rho_0 + rho_1, eps(Z) = rho_0 - rho_1,
    eps(X) = 2 rho_+ - eps(I) and eps(Y) = 2 rho_+y - eps(I); they give
    R_ab = tr(P_a eps(P_b)) / 2, and chi = _CHI_TO_PTM+ vec(R) / 4.
    The result is built trusted, without ``ChiMatrix``'s copy and check:
    (chi + chi+) / 2 is exactly Hermitian, entry by entry the conjugate of
    its transpose, and the outputs were checked when they were built.
    """
    r0, r1, rp, ry = (samples.outputs[p].matrix for p in ("0", "1", "+", "+y"))
    e_id = r0 + r1
    images = np.stack([e_id, 2 * rp - e_id, 2 * ry - e_id, r0 - r1])
    ptm = np.einsum("axy,byx->ab", kernel.PAULI_STACK, images).real / 2
    chi = (_CHI_TO_PTM.conj().T @ ptm.reshape(-1)).reshape(4, 4) / 4
    chi = (chi + chi.conj().T) / 2  # remove numerical skew
    chi.setflags(write=False)
    trusted = object.__new__(ChiMatrix)
    object.__setattr__(trusted, "matrix", chi)
    return trusted


def process_fidelity(chi_exp: ChiMatrix, chi_ideal: ChiMatrix) -> float:
    """tr(chi_exp chi_ideal) normalized by tr(chi_exp) tr(chi_ideal)."""
    t_exp = np.trace(chi_exp.matrix).real
    t_ideal = np.trace(chi_ideal.matrix).real
    if abs(t_exp) < 1e-12 or abs(t_ideal) < 1e-12:
        raise ValueError("process fidelity undefined for zero-trace chi")
    val = np.trace(chi_exp.matrix @ chi_ideal.matrix).real / (t_exp * t_ideal)
    return float(val)


def average_probe_fidelity(fidelities) -> float:
    """Arithmetic mean over the four-probe set (the default reading of the
    reported average; see sphere_average_fidelity for the alternative)."""
    if isinstance(fidelities, dict):
        vals = [fidelities[p] for p in PROBE_NAMES]
    else:
        vals = list(fidelities)
    if len(vals) != 4:
        raise ValueError(f"expected four probe fidelities, got {len(vals)}")
    return float(np.mean(vals))


def sphere_average_fidelity(chi_exp: ChiMatrix, chi_ideal: ChiMatrix) -> float:
    """Haar average over the Bloch sphere: (2 F_p + 1) / 3 for qubits."""
    return (2 * process_fidelity(chi_exp, chi_ideal) + 1) / 3


def bloch_affine(chi: ChiMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Affine Bloch-sphere action (R, t): r -> R r + t, the lower 3x4 block
    of the PTM (t is its first column)."""
    ptm = chi.ptm
    return ptm[1:, 1:], ptm[1:, 0]


def bloch_image(chi: ChiMatrix, points) -> np.ndarray:
    """Map Bloch vectors through the channel; warns if the map expands the
    sphere (unphysical chi), which can happen with sampled inputs."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[1] != 3:
        raise ValueError("points must be (n, 3) Bloch vectors")
    r, t = bloch_affine(chi)
    mapped = pts @ r.T + t
    norms = np.linalg.norm(mapped, axis=1)
    if norms.max() > 1 + kernel.EIG_ATOL and np.linalg.norm(pts, axis=1).max() <= 1 + 1e-12:
        warnings.warn(f"chi expands the Bloch sphere (max |r'| = {norms.max():.6f})")
    return mapped
