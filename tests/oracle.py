"""Reference implementations the tests compare the package against.

Every local operator is widened to the whole register with ``np.kron`` and
applied by full matrix products, and single-qubit noise runs through its
Kraus operators, contracted into the qubit's row and column axes by the
tensordot ``apply_local``; these functions take raw matrices plus a label
tuple. Count statistics are evaluated per outcome and per Monte Carlo
trial, with one scalar Poisson draw per histogram cell, and witnesses from
counts one term at a time. Histograms are drawn one setting at a time through the generic
per-axis transform, Pauli words are read off a Pauli vector one at a time,
and an exact witness is summed term by term from its spec, where the
package batches all settings, indexes all words at once and reads a cached
term table. The package's closed forms are
checked against the searches they replace: loss-recovery recipes derived
branch by branch from the logical basis, the visibility calibration by
bisection, and the box graph as the unique graph on {1,2,4,5} that gives
the printed syndrome factorizations. Local complementation, which the
package does not need, is kept here with its local Clifford unitary, and
pure states are compared up to a global phase. The kernel's contraction is
kept as it was first written, ``tensordot`` then ``moveaxis``
(``apply_local``), where the package calls tensordot's own ``dot`` under a
cached axis plan; the two must agree bit for bit. A projective
measurement is kept as it was first written, a contraction that rotates
the qubit onto Z and then a slice per branch (``measure``), where the
package contracts only each branch's row. The encoding and loss-recovery
pipeline is also kept step by step through the public kernel functions,
which check every input they are given; the package builds the
encoded states as Pauli vectors and runs loss recovery as a transfer matrix
on them, read off the recipe's branch algebra; the recipe's Kraus stack,
each operator widened with ``np.kron``, is kept here (``recovery_kraus``) as
the reference that matrix is checked against. ``from_pauli_vector``, the
inverse of ``kernel._pauli_vector``, turns such a vector back into the
density matrix these oracles take. The
syndrome table is kept as it was first written: each error injected into
the state by a dense conjugation and a fresh Pauli vector read from the
result, where the package flips signs on one vector per probe.
An ideal witness value is kept in exact arithmetic (``exact_witness``):
each term's expectation on a stabilizer state is +-1 or 0, read off its
group. The ideal states' Pauli vectors, and the encoding's input map, are built
in closed form from the stabilizer groups of their generators
(``stabilizer_vector``), with ``pauli_multiply`` and no linear algebra,
one word at a time, where the package fills the map through its word plan
and reads every ideal vector off it. They are also kept as the package
first built them, off amplitudes (``amplitude_ideal_vector``,
``amplitude_input_map``): the rotated resource state and the Bell-pair
logical basis turned into Pauli vectors, to rounding residue.
Single-qubit process tomography is kept as the chi-matrix sums it was first
written as: the channel applied term by term, the Bloch action read from
its images, and chi solved from the superoperator. The bundle's summary
text is kept as the stdlib writes it: a copy of the document with its keys
turned into strings, then ``json.dumps`` with ``indent=2``, where the
runner writes it in one pass. A Bloch figure's disc is kept as it was
first written, one f-string per point (``svg_disc``), where the runner
fills one ``%``-template from coordinates computed at the array. Two
helpers that only tests call are kept here: an ancilla from its Bloch
angles and the purity of a density operator. These are slow but
transparent.
"""
import itertools
import json
import math
from fractions import Fraction
from functools import reduce
from typing import NamedTuple

import numpy as np

from graphqec import kernel, sampling
from graphqec.code import (ANCILLA, CODE_QUBITS, PROBES, AncillaState, _encoding_branches,
                           inject_pauli_error, logical_basis_states, logical_ops,
                           measure_syndromes, parse_error_spec, predicted_syndrome_signs,
                           syndrome_operators)
from graphqec.graphs import RESOURCE, Graph, build_resource, stabilizer_generators
from graphqec.kernel import DensityOperator, PureState
from graphqec.pauli import CliffordGate, PauliString, pauli_multiply
from graphqec.sampling import _MC_STREAM, CountRecord


# The 2x2 Walsh-Hadamard matrix: it sends (<I>, <P>) of one qubit to the
# unnormalized probabilities of the +1 and -1 outcomes of measuring P.
WALSH = np.array([[1.0, 1.0], [1.0, -1.0]])

# The inverse of kernel._PAULI_TRANSFORM: column P sends tr(rho P) back to
# the entries P[a, b] / 2 of one qubit's density block, flattened as 2a + b.
_INVERSE_PAULI_TRANSFORM = np.stack([m.reshape(-1) for m in kernel.PAULI.values()],
                                    axis=1) / 2


def ancilla_from_angles(theta: float, phi: float) -> AncillaState:
    """cos(theta/2)|0> + e^{i phi} sin(theta/2)|1>, Bloch vector at polar
    angle ``theta`` and azimuth ``phi``."""
    return AncillaState(math.cos(theta / 2),
                        complex(math.cos(phi), math.sin(phi)) * math.sin(theta / 2))


def purity(rho: DensityOperator) -> float:
    """tr(rho^2)."""
    return float(np.trace(rho.matrix @ rho.matrix).real)


def from_pauli_vector(vec, n) -> np.ndarray:
    """Raw 2^n x 2^n density matrix rho = 2^-n sum_P v_P P of the real
    ``[4]*n`` Pauli vector ``vec``: the inverse of ``kernel._pauli_vector``."""
    t = kernel._transform_each_axis(_INVERSE_PAULI_TRANSFORM, vec.astype(complex))
    t = t.reshape([2] * (2 * n)).transpose([*range(0, 2 * n, 2), *range(1, 2 * n, 2)])
    return t.reshape(2 ** n, 2 ** n)


def sanitize(obj):
    """``obj`` with every dict key turned into ``str``, recursively: the one
    rule the runner's one-pass writer adds to ``json.dumps``. Values are
    left as they are, so what ``json.dumps`` refuses stays refused."""
    if isinstance(obj, dict):
        return {str(k): sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [sanitize(v) for v in obj]
    return obj


def json_text(obj) -> str:
    """The indent-2 JSON of ``obj`` that ``runner._json_text`` writes in one
    pass: keys turned into strings by ``sanitize``, then the stdlib writer."""
    return json.dumps(sanitize(obj), sort_keys=True, indent=2)


def embed_operator(matrix, op_labels, register_labels) -> np.ndarray:
    """Embed an operator acting on ``op_labels`` into the full register,
    identity on the remaining qubits, respecting the register label order."""
    op_labels, register_labels = tuple(op_labels), tuple(register_labels)
    n, k = len(register_labels), len(op_labels)
    rest = [q for q in register_labels if q not in op_labels]
    full = np.kron(np.asarray(matrix, dtype=complex), np.eye(2 ** (n - k), dtype=complex))
    # full acts on the order op_labels + rest; permute to register order
    cur = list(op_labels) + rest
    perm = [cur.index(q) for q in register_labels]
    t = np.transpose(full.reshape([2] * (2 * n)), perm + [n + p for p in perm])
    return t.reshape(2 ** n, 2 ** n)


def apply_local(tensor: np.ndarray, matrix: np.ndarray, axes) -> np.ndarray:
    """Contract a k-qubit matrix into ``axes`` of a ``[2]*m`` tensor.

    The first tensor factor of ``matrix`` acts on ``axes[0]``, the second on
    ``axes[1]`` and so on; every other axis is untouched and the result
    keeps the tensor's axis order.
    """
    k = len(axes)
    m = np.asarray(matrix).reshape([2] * (2 * k))
    out = np.tensordot(m, tensor, axes=(list(range(k, 2 * k)), list(axes)))
    return np.moveaxis(out, list(range(k)), list(axes))


def tensor_product(a: PureState, b: PureState) -> PureState:
    """Kronecker product of two registers; label sets must be disjoint."""
    clash = set(a.labels) & set(b.labels)
    if clash:
        raise ValueError(f"label collision in tensor product: {sorted(clash)}")
    return PureState(a.labels + b.labels, np.kron(a.amplitudes, b.amplitudes))


def conjugate(rho, labels, u, targets) -> np.ndarray:
    full = embed_operator(u, targets, labels)
    return full @ rho @ full.conj().T


def expectation(rho, labels, obs, obs_labels) -> complex:
    return np.trace(embed_operator(obs, obs_labels, labels) @ rho)


def partial_trace(rho, labels, keep) -> np.ndarray:
    """out[a, b] = Tr(rho (|b><a| (x) I)), with |a>, |b> over ``keep``."""
    d = 2 ** len(keep)
    out = np.zeros((d, d), dtype=complex)
    for a in range(d):
        for b in range(d):
            unit = np.zeros((d, d), dtype=complex)
            unit[b, a] = 1
            out[a, b] = expectation(rho, labels, unit, keep)
    return out


def projective_measure(rho, labels, qubit, basis, outcome):
    """(probability, normalized post-measurement matrix without ``qubit``)."""
    v = kernel.BASIS_VECTORS[basis][outcome]
    proj = embed_operator(np.outer(v, v.conj()), (qubit,), labels)
    p = np.trace(proj @ rho).real
    rest = tuple(q for q in labels if q != qubit)
    return p, partial_trace(proj @ rho @ proj, labels, rest) / p


def measure(raw, labels, qubit, basis, forced_outcome, rng):
    """``kernel._measure`` as it was first written, rotate then slice: one
    contraction of ``kernel._ONTO_Z[basis]`` rotates ``qubit`` onto Z, and
    branch s is index s on its axis of a state vector, or on its row and
    column axes of a density matrix. Returns ``(outcome, p, post,
    post_labels)`` and draws the outcome from ``rng`` as the package does."""
    n, i, d = len(labels), labels.index(qubit), raw.ndim
    rotated = kernel._unitary(raw, labels, kernel._ONTO_Z[basis], (qubit,))
    rotated = rotated.reshape([2] * (d * n))
    branches, probs = {}, {}
    for s in (0, 1) if forced_outcome is None else (forced_outcome,):
        index = ((slice(None),) * i + (s,) + (slice(None),) * (n - 1 - i)) * d
        b = branches[s] = rotated[index].reshape((2 ** (n - 1),) * d)
        probs[s] = float((np.vdot(b, b) if d == 1 else np.trace(b)).real)
    if forced_outcome is None:
        outcome = 0 if rng.random() < probs[0] / (probs[0] + probs[1]) else 1
    else:
        outcome = forced_outcome
    p = probs[outcome]
    if p < 1e-12:
        raise kernel.ZeroProbabilityError(f"cannot take zero-probability branch {outcome}")
    post = branches[outcome] / (np.sqrt(p) if d == 1 else p)
    return outcome, p, post, tuple(q for q in labels if q != qubit)


def outcome_probabilities(rho, labels, bases) -> dict[str, float]:
    out = {}
    for i in range(2 ** len(labels)):
        bits = format(i, f"0{len(labels)}b")
        vecs = [kernel.BASIS_VECTORS[bases[q]][int(b)] for q, b in zip(labels, bits)]
        proj = reduce(np.kron, [np.outer(v, v.conj()) for v in vecs])
        out[bits] = np.trace(proj @ rho).real
    return out


def apply_kraus(rho, labels, kraus, qubit) -> np.ndarray:
    """sum_k K rho K^dagger: each K acts on the qubit's row axis and its
    conjugate on the column axis, so the channel is the 4x4 matrix
    sum_k K (x) conj(K), contracted into those two axes by one
    :func:`apply_local`."""
    n, i = len(labels), list(labels).index(qubit)
    k = np.asarray(kraus)
    channel = np.einsum("kac,kbd->abcd", k, k.conj()).reshape(4, 4)
    t = apply_local(np.asarray(rho).reshape([2] * (2 * n)), channel, [i, n + i])
    return t.reshape(2 ** n, 2 ** n)


def apply_noise(rho, labels, model) -> np.ndarray:
    """Per-qubit depolarizing then dephasing Kraus maps, then white noise."""
    for q in labels:
        p, dq = model.depolarizing_for(q), model.dephasing_for(q)
        rho = apply_kraus(rho, labels, [np.sqrt(1 - 3 * p / 4) * kernel.I]
                          + [np.sqrt(p / 4) * m for m in (kernel.X, kernel.Y, kernel.Z)], q)
        rho = apply_kraus(rho, labels, [np.sqrt(1 - dq) * kernel.I, np.sqrt(dq) * kernel.Z], q)
    dim = 2 ** len(labels)
    v = model.visibility
    return v * rho + (1 - v) * np.eye(dim) / dim


def sample_counts(vec, labels, bases, expected_n, seed, stream) -> CountRecord:
    """The sampler one setting at a time, as it was first written: the
    setting's sub-cube of the Pauli vector ``vec`` on ``labels``
    Walsh-Hadamard transformed by the generic per-axis pass, clipped and
    renormalized, then a Poisson total and a multinomial split drawn from
    the (seed, stream) generator into a checked record."""
    t = vec.take(sampling._setting_gather(tuple(bases.get(q) for q in labels)))
    probs = np.clip(kernel._transform_each_axis(WALSH, t).reshape(-1) / t.size, 0.0, None)
    rng = np.random.default_rng((int(seed), int(stream)))
    draws = rng.multinomial(int(rng.poisson(expected_n)), probs / probs.sum())
    return CountRecord(tuple((q, bases[q]) for q in labels if q in bases), draws)


def read_words(vec, labels, words) -> tuple[float, ...]:
    """tr(rho P) of each word P off the Pauli vector ``vec`` on ``labels``,
    one word at a time: its letters' indices on their axes, 0 elsewhere,
    times the real part of its phase."""
    out = []
    for p in words:
        index = [0] * len(labels)
        for q, letter in p.letters:
            index[labels.index(q)] = "IXYZ".index(letter)
        out.append(float(p.phase.real * vec[tuple(index)]))
    return tuple(out)


def witness_result(spec, values):
    """``(value, rows)`` of a witness from its terms' exact expectations, one
    term at a time: constant - sum_k coeff_k (sign_k <word_k>), and per term
    (label, coefficient, signed expectation, raw expectation)."""
    value = float(spec.constant) - sum(float(t.coefficient) * (t.sign * e)
                                       for t, e in zip(spec.terms, values))
    rows = tuple((t.label(), float(t.coefficient), t.sign * raw, raw)
                 for t, raw in zip(spec.terms, values))
    return value, rows


def estimate_expectation(record, support) -> float:
    """Parity estimator over a CountRecord's histogram, one outcome at a time."""
    if record.total == 0:
        raise ValueError("empty histogram")
    positions = [record.qubits.index(q) for q in support]
    acc = 0
    for bits, c in record.counts.items():
        parity = sum(int(bits[i]) for i in positions) % 2
        acc += -c if parity else c
    return acc / record.total


def parity_signs(qubits, support) -> list[int]:
    """+1 or -1 per outcome of a setting on ``qubits``, in index order: the
    parity of the outcome's bits on the qubits of ``support``, one outcome
    at a time."""
    positions = [qubits.index(q) for q in support]
    return [-1 if sum(int(bits[i]) for i in positions) % 2 else 1
            for bits in itertools.product("01", repeat=len(qubits))]


def estimate_rows(record, support):
    """:func:`estimate_expectation` of one histogram, or, for a trial batch,
    of each trial row in turn, as an array shaped like the batch axes."""
    if record.dense.ndim == 1:
        return estimate_expectation(record, support)
    rows = record.dense.reshape(-1, record.dense.shape[-1])
    return np.array([estimate_expectation(CountRecord(record.setting, row), support)
                     for row in rows]).reshape(record.dense.shape[:-1])


def witness_value_from_counts(records, spec):
    """A witness from recorded counts, one term at a time: each term is
    :func:`estimate_rows` on the first record that measures all of its
    letters and no qubit outside the witness, else on the first that
    measures all of its letters."""
    records = list(records)
    value = float(spec.constant)
    for t in spec.terms:
        covering = [r for r in records
                    if all(dict(r.setting).get(q) == l for q, l in t.word.letters)]
        if not covering:
            raise ValueError(f"no setting covers term {t.label()}")
        inside = [r for r in covering if set(r.qubits) <= set(spec.qubits)]
        value -= float(t.coefficient) * t.sign * estimate_rows(
            (inside or covering)[0], t.word.support)
    return value


def resample_counts(records, rng) -> list:
    """Poisson-resample every histogram cell, one scalar draw per sorted cell."""
    out = []
    for r in records:
        counts = {bits: int(rng.poisson(c)) for bits, c in sorted(r.counts.items())}
        out.append(CountRecord.from_counts(r.setting, counts))
    return out


def monte_carlo_uncertainty(statistic, records, trials, seed) -> tuple[float, float]:
    """Re-run a per-record statistic on every trial's resampled records; the
    trials draw one after another from a single generator."""
    rng = np.random.default_rng((int(seed), _MC_STREAM))
    vals = np.array([statistic(resample_counts(records, rng)) for _ in range(trials)])
    return float(vals.mean()), float(vals.std())


# ---------------------------------------------------------------------------
# Loss recovery by search
# ---------------------------------------------------------------------------

class SearchedRecipe(NamedTuple):
    helpers: tuple
    output: int
    corrections: tuple  # indexed by 2*s_a + s_b
    frame: np.ndarray


# The published helper assignments for lost qubits 4 and 1; 2 and 5 are searched.
PUBLISHED_ASSIGNMENTS = {
    4: (((2, "Z"), (5, "X")), 1),
    1: (((2, "X"), (4, "Z")), 5),
}


def _project_out(amps, labels, qubit, basis, outcome):
    """Unnormalized projection <v_s|_qubit psi, qubit removed."""
    v = kernel.BASIS_VECTORS[basis][outcome]
    t = np.tensordot(v.conj(), amps.reshape([2] * len(labels)), axes=([0], [labels.index(qubit)]))
    return t.reshape(-1), [q for q in labels if q != qubit]


def branch_map(lost, helpers, output, outcomes):
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


def equal_up_to_phase(a, b, atol=1e-9) -> bool:
    return abs(np.trace(np.conj(a).T @ b)) / 2 > 1 - atol


def states_equal(a: PureState, b: PureState, atol: float = 1e-9) -> bool:
    """Equality of pure states up to a global phase: |<a|b>| >= 1 - atol."""
    return kernel.overlap(a, b) >= 1.0 - atol


def derive_recipe(lost, helpers, output):
    """Frame and corrections from the four branch maps; None unless every
    branch is unitary and every correction is a Pauli up to phase."""
    maps = {}
    for outcomes in itertools.product((0, 1), repeat=2):
        m = branch_map(lost, helpers, output, outcomes)
        if m is None:
            return None
        maps[outcomes] = m
    corrections = []
    for outcomes in itertools.product((0, 1), repeat=2):
        c = maps[(0, 0)] @ maps[outcomes].conj().T
        if not any(equal_up_to_phase(p, c) for p in kernel.PAULI.values()):
            return None
        corrections.append(c)
    return SearchedRecipe(tuple(helpers), output, tuple(corrections),
                          np.linalg.inv(maps[(0, 0)]))


def stabilizer_group(generators) -> list[PauliString]:
    """Every product of a subset of ``generators``, by ``pauli_multiply``."""
    group = [PauliString.identity()]
    for g in generators:
        group += [pauli_multiply(h, g) for h in group]
    return group


def exact_witness(spec, generators) -> Fraction:
    """The witness ``spec`` on the stabilizer state of ``generators``, in
    exact arithmetic: c - sum_t a_t s_t <w_t>, where <w> is +-1 if +-w is in
    the state's group (``stabilizer_group``) and 0 otherwise."""
    signs = {g.letters: int(g.phase.real) for g in stabilizer_group(generators)}
    return Fraction(spec.constant) - sum(Fraction(t.coefficient) * t.sign
                                         * signs.get(t.word.letters, 0) for t in spec.terms)


def stabilizer_vector(words, labels) -> np.ndarray:
    """The ``[4]*n`` array that holds each Hermitian word's sign at its
    letters' index and 0 elsewhere, filled one word at a time: the Pauli
    vector of a stabilizer state from its group (Gottesman 1997), or of a
    code projector's image."""
    out = np.zeros([4] * len(labels))
    for w in words:
        index = [0] * len(labels)
        for q, letter in w.letters:
            index[labels.index(q)] = "IXYZ".index(letter)
        out[tuple(index)] = w.phase.real
    return out


def ideal_vector(key) -> np.ndarray:
    """The ideal Pauli vector of ``key`` in closed form: the resource's group
    from its graph's generators, a logical state's from <S1, S2, S3, +/-L>
    with L its logical operator (|0>, |1>: Zbar; |+>, |->: Xbar; |+y>, |-y>:
    Ybar)."""
    if key == "resource":
        return stabilizer_vector(stabilizer_group(stabilizer_generators(RESOURCE)),
                                 (1, 2, 3, 4, 5))
    name, flip = {"0": ("zbar", 0), "1": ("zbar", 2), "+": ("xbar", 0), "-": ("xbar", 2),
                  "+y": ("ybar", 0), "-y": ("ybar", 2)}[key]
    op = getattr(logical_ops(), name)
    return stabilizer_vector(stabilizer_group(
        [*syndrome_operators(), PauliString(op.letters, op.phase_power + flip)]), CODE_QUBITS)


def input_map() -> np.ndarray:
    """``code._input_map`` in closed form: column k holds +/-1 on the words
    g L_k for g in <S1, S2, S3, Z3 Xbar>, the stabilizer of the encoding's
    image, with L = I, X3 Zbar, i (X3 Zbar) Z3 and Z3, the images of the
    input's I, X, Y and Z."""
    x3z = pauli_multiply(PauliString.single(3, "X"), logical_ops().zbar)
    z3 = PauliString.single(3, "Z")
    y3z = pauli_multiply(x3z, z3)
    images = (PauliString.identity(), x3z, PauliString(y3z.letters, y3z.phase_power + 1), z3)
    group = stabilizer_group([*syndrome_operators(), pauli_multiply(z3, logical_ops().xbar)])
    return np.stack([stabilizer_vector([pauli_multiply(g, image) for g in group],
                                       (1, 2, 3, 4, 5)).reshape(-1) for image in images], axis=1)


def amplitude_ideal_vector(key) -> np.ndarray:
    """:func:`ideal_vector` off amplitudes: the Pauli vector of the rotated
    resource state, or of the logical basis state ``key``."""
    state = build_resource() if key == "resource" else logical_basis_states()[key]
    return kernel._pauli_vector(state.amplitudes, state.num_qubits)


def amplitude_input_map() -> np.ndarray:
    """:func:`input_map` off amplitudes: column k is the Pauli vector of
    V sigma_k V^dagger / 2, V the isometry whose columns are the encoding
    branches |0>_3 |+_L> and |1>_3 |-_L>."""
    v = np.stack(_encoding_branches(), axis=1)
    return np.stack([kernel._pauli_vector(v @ s @ v.conj().T / 2, 5).reshape(-1)
                     for s in (kernel.I, kernel.X, kernel.Y, kernel.Z)], axis=1)


def candidate_assignments(lost):
    """Helper/output assignments allowed by logical representatives with no
    support on the lost qubit, most regular bases first."""
    ops = logical_ops()
    group = stabilizer_group(syndrome_operators())
    x_reps = [r for g in group if lost not in (r := ops.xbar * g).support]
    z_reps = [r for g in group if lost not in (r := ops.zbar * g).support]
    survivors = [q for q in CODE_QUBITS if q != lost]
    order = {"Z": 0, "X": 1, "Y": 2}
    candidates = set()
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
                candidates.add((output, tuple(bases)))
    return sorted(candidates, key=lambda c: (c[0], tuple((h, order[b]) for h, b in c[1])))


def search_recipe(lost):
    """The published assignment for lost 4 and 1, else the first candidate
    assignment whose derived recipe recovers every branch."""
    if lost in PUBLISHED_ASSIGNMENTS:
        return derive_recipe(lost, *PUBLISHED_ASSIGNMENTS[lost])
    for output, helpers in candidate_assignments(lost):
        recipe = derive_recipe(lost, helpers, output)
        if recipe is not None:
            return recipe
    return None


# ---------------------------------------------------------------------------
# Visibility calibration by bisection
# ---------------------------------------------------------------------------

def bisect_visibility(fidelity, target) -> float:
    """80 halvings of [0, 1] for the v with fidelity(v) = target."""
    lo, hi = 0.0, 1.0
    for _ in range(80):
        mid = (lo + hi) / 2
        if fidelity(mid) < target:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


# ---------------------------------------------------------------------------
# Box graph by exhaustive search
# ---------------------------------------------------------------------------

# The three syndrome operators factorize over box-graph generators as
# S1 = K1 K5, S2 = K1 K4, S3 = K4 K2 with phase +1.
SYNDROME_FACTORIZATIONS = {
    "Y1 Z2 Z4 Y5": (1, 5),
    "Y1 Z2 Y4 Z5": (1, 4),
    "Z1 Y2 Y4 Z5": (4, 2),
}


def local_complement(g: Graph, v: int) -> tuple[Graph, list[CliffordGate]]:
    """Complement the neighborhood of v.

    Also returns the local unitary (sqrt(-iX) on v, sqrt(+iZ) on each
    neighbor) that maps graph_state(g) onto graph_state(result) up to a
    global phase.
    """
    if v not in g.vertices:
        raise ValueError(f"vertex {v} not in graph")
    nbhd = sorted(g.neighbors(v))
    edges = set(g.edges) ^ {frozenset(p) for p in itertools.combinations(nbhd, 2)}
    gates = [CliffordGate("SQRT_MX", (v,))] + [CliffordGate("SQRT_PZ", (w,)) for w in nbhd]
    return Graph(g.vertices, frozenset(edges)), gates


def graphs_matching_syndrome_factorizations() -> list:
    """Every graph on {1,2,4,5} (all 64 edge sets) whose generator products
    reproduce the printed syndrome factorizations."""
    verts = (1, 2, 4, 5)
    pairs = list(itertools.combinations(verts, 2))
    matches = []
    for mask in range(2 ** len(pairs)):
        g = Graph.from_edges(verts, [pairs[i] for i in range(len(pairs)) if mask >> i & 1])
        gens = dict(zip(sorted(verts), stabilizer_generators(g)))
        if all(str(gens[a] * gens[b]) == word
               for word, (a, b) in SYNDROME_FACTORIZATIONS.items()):
            matches.append(g)
    return matches


# ---------------------------------------------------------------------------
# Encoding, loss and recovery through checked states
# ---------------------------------------------------------------------------

def encoding_input_state(a) -> PureState:
    """alpha |0>_3 |+_L> + beta |1>_3 |-_L>, rebuilt from the logical basis."""
    basis = logical_basis_states()
    z3_plus = kernel.reorder(
        tensor_product(PureState.single(ANCILLA, kernel.KET0), basis["+"]),
        (1, 2, 3, 4, 5))
    o3_minus = kernel.reorder(
        tensor_product(PureState.single(ANCILLA, kernel.KET1), basis["-"]),
        (1, 2, 3, 4, 5))
    amps = a.alpha * z3_plus.amplitudes + a.beta * o3_minus.amplitudes
    return PureState((1, 2, 3, 4, 5), amps)


def encoded_state(probe, noise, byproduct="condition0") -> DensityOperator:
    """The encoded state whose Pauli vector ``code._encoded_vectors`` builds,
    with a checked state after every step; ``probe`` is a probe name or any
    ``AncillaState`` input."""
    state = encoding_input_state(PROBES[probe] if isinstance(probe, str) else probe)
    if noise.stage == "post-resource":
        state = _kraus_noise(state, noise)
    xbar = logical_ops().xbar
    branches = []
    for s3 in (0,) if byproduct == "condition0" else (0, 1):
        _, p, post = kernel.projective_measure(state, ANCILLA, "X", forced_outcome=s3)
        if s3 and byproduct == "correct":
            post = kernel.apply_unitary(post, xbar.dense(xbar.support), xbar.support)
        if noise.stage == "post-encoding":
            post = _kraus_noise(post, noise)
        branches.append((p, post))
    if len(branches) == 1:
        return branches[0][1]
    return DensityOperator(CODE_QUBITS, sum(p * b.matrix for p, b in branches))


def _kraus_noise(state, noise) -> DensityOperator:
    """The checked state after :func:`apply_noise`, the Kraus form."""
    rho = state.density().matrix if isinstance(state, PureState) else state.matrix
    return DensityOperator(state.labels, apply_noise(rho, state.labels, noise))


def injected_pauli_vector(raw, labels, letter, qubit) -> np.ndarray:
    """Pauli vector of a raw state after the single-qubit Pauli error
    ``letter`` on ``qubit``: dense conjugation, then a fresh vector."""
    injected = kernel._unitary(raw, labels, kernel.PAULI[letter], (qubit,))
    return kernel._pauli_vector(injected, len(labels))


def syndrome_table_rows(config) -> list[tuple]:
    """The data rows of the runner's syndrome table, each error injected
    into the checked encoded state by ``inject_pauli_error`` and its
    syndromes measured on the result with ``measure_syndromes``."""
    encoded = {p: encoded_state(p, config.noise, config.byproduct) for p in config.probes}
    err = parse_error_spec(config.error)
    cases = [(err.letter(q), q) for q in err.support] \
        or [(letter, loc) for letter in "XYZ" for loc in CODE_QUBITS]
    rows = []
    for letter, loc in cases:
        error = PauliString.single(loc, letter)
        predicted = predicted_syndrome_signs(error)
        for probe in config.probes:
            rec = measure_syndromes(inject_pauli_error(encoded[probe], error))
            rows.append((f"{letter}@{loc}", loc, probe, *(round(v, 12) for v in rec.values),
                         *rec.signs, *predicted, rec.signs == predicted))
    return rows


def lose_qubit(state, q) -> DensityOperator:
    rho = state.density() if isinstance(state, PureState) else state
    return kernel.partial_trace(rho, tuple(l for l in rho.labels if l != q))


def recover(rho, recipe, forced_outcomes=None, rng=None):
    """``code.recover`` through checked measurements and unitaries."""
    if isinstance(rho, PureState):
        rho = rho.density()
    outcomes = []
    for i, (q, basis) in enumerate(recipe.helpers):
        forced = None if forced_outcomes is None else forced_outcomes[i]
        s, _, rho = kernel.projective_measure(rho, q, basis, forced, rng)
        outcomes.append(s)
    s_a, s_b = outcomes
    fix = recipe.frame @ recipe.correction(s_a, s_b)
    return (s_a, s_b), kernel.apply_unitary(rho, fix, (recipe.output,))


def recover_average(rho, recipe) -> DensityOperator:
    """``code.recover_average`` with a checked state after every branch step."""
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


def recovery_kraus(recipe, labels) -> np.ndarray:
    """(8, 8) stack of a recipe's four 2x8 Kraus operators on a register:
    rows 2k and 2k + 1 hold K_s = frame C_s (x) <h_a, s_a| (x) <h_b, s_b|, in
    the register's label order, for k = 2 s_a + s_b. The package reads its
    transfer matrix off the branch algebra instead (``code._recovery_ptm``)."""
    (h_a, basis_a), (h_b, basis_b) = recipe.helpers
    kraus = []
    for s_a, s_b in itertools.product((0, 1), repeat=2):
        factors = {recipe.output: recipe.frame @ recipe.correction(s_a, s_b),
                   h_a: kernel.BASIS_VECTORS[basis_a][s_a].conj()[None, :],
                   h_b: kernel.BASIS_VECTORS[basis_b][s_b].conj()[None, :]}
        kraus.append(reduce(np.kron, [factors[q] for q in labels]))
    return np.concatenate(kraus)


# ---------------------------------------------------------------------------
# Single-qubit process tomography term by term
# ---------------------------------------------------------------------------

PAULI_MATS = tuple(kernel.PAULI[p] for p in ("I", "X", "Y", "Z"))

# Column 4i + j holds vec(M_i (x) conj(M_j)), the superoperator of chi_ij.
CHI_BASIS = np.stack([np.kron(mi, mj.conj()).reshape(-1)
                      for mi in PAULI_MATS for mj in PAULI_MATS], axis=1)


def chi_apply(chi, rho) -> np.ndarray:
    """sum_ij chi_ij M_i rho M_j+, one term at a time."""
    out = np.zeros((2, 2), dtype=complex)
    for i, mi in enumerate(PAULI_MATS):
        for j, mj in enumerate(PAULI_MATS):
            out += chi[i, j] * (mi @ rho @ mj.conj().T)
    return out


def trace_preservation_defect(chi) -> float:
    """max |sum_ij chi_ij M_j+ M_i - I|."""
    acc = np.zeros((2, 2), dtype=complex)
    for i, mi in enumerate(PAULI_MATS):
        for j, mj in enumerate(PAULI_MATS):
            acc += chi[i, j] * (mj.conj().T @ mi)
    return float(np.abs(acc - kernel.I).max())


def bloch_affine(chi) -> tuple[np.ndarray, np.ndarray]:
    """(R, t) with R_ab = tr(s_a eps(s_b)) / 2 and t_a = tr(s_a eps(I)) / 2."""
    r = np.zeros((3, 3))
    t = np.zeros(3)
    sigma = PAULI_MATS[1:]
    for a, sa in enumerate(sigma):
        t[a] = np.trace(sa @ chi_apply(chi, kernel.I)).real / 2
        for b, sb in enumerate(sigma):
            r[a, b] = np.trace(sa @ chi_apply(chi, sb)).real / 2
    return r, t


def reconstruct_chi(outputs) -> np.ndarray:
    """Chi from the probe output matrices ``{"0", "1", "+", "+y"}`` by a
    16x16 solve against the superoperator basis.

    The |0><0| and |1><1| images are read off directly; the coherence image
    is eps(|0><1|) = eps(|+><+|) + i eps(|+y><+y|) - (1+i)/2 (eps(|0><0|) +
    eps(|1><1|)), and eps(|1><0|) follows by Hermitian conjugation.
    """
    r0, r1, rp, ry = (outputs[p] for p in ("0", "1", "+", "+y"))
    e01 = rp + 1j * ry - (1 + 1j) / 2 * (r0 + r1)
    images = {(0, 0): r0, (0, 1): e01, (1, 0): e01.conj().T, (1, 1): r1}
    # Row-major superoperator: vec(eps(rho)) = S vec(rho).
    smat = np.zeros((4, 4), dtype=complex)
    for (m, n), img in images.items():
        smat[:, 2 * m + n] = img.reshape(-1)
    chi = np.linalg.solve(CHI_BASIS, smat.reshape(-1)).reshape(4, 4)
    return (chi + chi.conj().T) / 2


# ---------------------------------------------------------------------------
# Bundle figures point by point
# ---------------------------------------------------------------------------

def svg_disc(cx: int, points, color: str) -> list[str]:
    """The lines ``runner._svg_disc`` joins: the disc at ``cx``, then one
    f-string per (x, y, z) point, each coordinate formatted on its own."""
    out = [f'<circle cx="{cx}" cy="120" r="100" fill="none" stroke="gray"/>']
    for x, _, z in points:
        out.append(f'<circle cx="{cx + 100 * x:.1f}" cy="{120 - 100 * z:.1f}" '
                   f'r="2.5" fill="{color}"/>')
    return out
