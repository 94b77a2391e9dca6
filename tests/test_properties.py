"""Property tests: the kernel's tensor contractions against the dense
kron/Kraus oracle in ``oracle.py``, batched Monte Carlo resampling against
its per-trial, per-cell oracle (also along sequences of calls), the
closed-form visibility calibration against bisection of the checked
oracle's fidelity, every noise-sweep row against the states built directly
at its visibility, the encoding (to 1e-12) and the raw-array loss and
recovery pipeline against its step-by-step checked oracle, bit for bit
(``recover_average``, the cached transfer matrix read off the recipe's
branch algebra, to 1e-12, also for recipes with non-Pauli frames and
corrections; that matrix equals the oracle's Kraus stack's PTM to 1e-15 on
every register order, its trace row is exactly the unit vector at I...I and
each Bloch row holds one exact +-1, and the oracle's Kraus operators are
complete; ``recover`` with random-unitary corrections and frame, to 1e-12;
losing a qubit of a pure state, bit for bit as losing it from its density
matrix), and process tomography through the Pauli transfer matrix
against the chi-matrix sums and 16x16 solve it replaced. The encode and
loss-recovery channels under random per-qubit noise must come out CPTP,
and count records must survive the CSV round trip. Pauli expectations read
through the words' signed permutations must equal ``kernel.expectation``
term by term and the words read off the state's Pauli vector, as must the
library's logical tomography, witnesses and syndromes; the Pauli vector
must rebuild the density matrix, and outcome probabilities must transform
back into Pauli expectations; the kernel's
inverse transform must rebuild the state from its Pauli vector. The kernel's
contraction must equal the tensordot-then-moveaxis oracle bit for bit, on
any axes of vectors and density tensors. A sampled measurement must return
the forced branch of the outcome it drew, bit for bit, also at the raw
``_measure`` on pure and density inputs in each basis, and ``_measure``
must equal the rotate-then-slice oracle, forced or drawn; every witness's
fidelity bound must hold on arbitrary states, not only on white noise, and
loss recovery must return Haar-random inputs on every branch and on
average. A single-qubit Pauli error applied to the Pauli vector as a sign
flip must equal dense conjugation; a Pauli word's signed permutation must
act as its dense matrix, give tr(rho P), inject each of the 12 single
errors bit for bit as the dense contraction does, and read the syndromes
the Pauli vector gives; the 12 single-error syndrome patterns
must hold on Haar-random encoded inputs under weak noise, and the syndrome
table must equal its dense oracle row for row. The Pauli-domain encoder
must give the Pauli vectors of the checked oracle's encoded states for
probes and Haar-random inputs, the noise model's Pauli diagonal must equal
the Kraus noise, the encoder's linear map composed with the logical
read-out, or with the index-0 trace and the recovery Kraus stack, must give
the runner's encode-channel and loss-recovery PTMs, and the probe witnesses
and fidelities read off the vectors must equal those of the dense states;
so must the loss-recovery kind's outputs and probe fidelities, against the
oracle's encode, trace and Kraus average. The channel report's reference
chi matrices and Bloch grid are cached and read-only.
The sampler's outcome probabilities and the exact witness values read off
a Pauli vector, under a random Pauli frame and on a random subset of the
qubits, must equal those of the dense frame and partial trace, and the
cached gather of the setting's sub-cube must select what ``np.ix_`` does.
A witness read from counts through its parity plan must equal the per-term
loop exactly, on histograms and on trial batches, whichever records cover
it and in whatever order, and its float64 plans must equal the int64
products at histogram totals of exactly 2^53. The batched sampler must draw
what the one-setting-at-a-time oracle draws, bit for bit, from 0.001 to
1e12 expected counts; the indexed Pauli-word read and the cached witness
term table must equal their per-word and per-term loops, and the config
digest the hash of the sanitized config's stdlib JSON.
Symbolic Pauli conjugation through random Clifford sequences must match the
dense product, and the runner's bundle tables, rounded at the array, must
print every float as the numpy scalar ``round`` would, zeros unsigned.
The runner's one-pass JSON writer must give the stdlib text of the
document with its keys as strings, on random nested documents of Python
values and numpy floats, and refuse what the stdlib refuses, numpy
integers, arrays and complex numbers included; every value a random run
puts in its summary and provenance must be a JSON value already. Its table
writer must give ``csv.writer``'s bytes on random tables, quoting included,
and its Bloch disc template the per-point f-strings' text; a config's field-built dict must equal ``dataclasses.asdict``,
keep its digest and share no mutable map with the config. A logical 2 x 2
matrix is flagged, or refused, as ``eigvalsh`` of it would have it. Every
public state the kernel and the code derive from checked inputs, built
without a second check, must pass its checked constructor unchanged, and
so must the density of every accepted pure state and every logical matrix
a run builds. The one-pass derivation
of a run's generator states must give ``np.random.default_rng((seed,
stream))`` bit for bit, on seeds of one to seven 32-bit words and every
stream the runner draws from.

States are random pure vectors or random mixed matrices of rank 1, 2 or
full, on registers drawn as unordered subsets of the labels 1..6, so
targets such as (5, 2) are non-adjacent and out of register order.
"""
import csv
import functools
import hashlib
import io
import itertools
import json
import math
import operator
import warnings
from unittest import mock
from dataclasses import asdict, replace
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import oracle
from graphqec import code, kernel, pauli, runner, sampling, tomography
from graphqec.code import (CODE_QUBITS, PROBE_NAMES, PROBES, AncillaState, encode,
                           logical_basis_states, logical_ops, lose_qubit, recover,
                           recover_average, recovery_recipe)
from graphqec.graphs import build_resource
from graphqec.kernel import DensityOperator, Observable, PureState
from graphqec.pauli import (CliffordGate, PauliString, _read_words, conjugate_sequence,
                           pauli_expectations)
from graphqec.runner import (BYPRODUCT_MODES, ExperimentConfig, _bloch_table,
                             _calibrated_visibility, _chi_table, run_experiment)
from graphqec.sampling import (CountRecord, NoiseModel, apply_noise, counts_from_csv_rows,
                               counts_to_csv_rows, estimate_expectation,
                               monte_carlo_uncertainty, outcome_probabilities,
                               sample_setting_counts, witness_settings)
from graphqec.tomography import (ChannelSample, ChiMatrix, _vector_fidelity, bloch_affine,
                                 reconstruct_chi, state_fidelity)
from graphqec.witnesses import (WitnessSpec, WitnessTerm, box_witness, evaluate_witness,
                                fidelity_lower_bound, ghz_witness, pair_witness,
                                resource_witness)

ATOL = 1e-12
PROPERTY = settings(deadline=None, max_examples=60)

seeds = st.integers(0, 2 ** 32 - 1)
probabilities = st.floats(0.0, 1.0)


@st.composite
def states(draw, min_qubits=1, labels=None, max_qubits=5):
    """A random state on ``labels``, or on a random register if omitted."""
    if labels is None:
        labels = tuple(draw(st.lists(st.integers(1, 6), min_size=min_qubits,
                                     max_size=max_qubits, unique=True)))
    rng = np.random.default_rng(draw(seeds))
    dim = 2 ** len(labels)
    rank = draw(st.sampled_from((None, 1, 2, dim)))  # None: a pure state
    g = rng.normal(size=(dim, rank or 1)) + 1j * rng.normal(size=(dim, rank or 1))
    if rank is None:
        return PureState(labels, g[:, 0] / np.linalg.norm(g))
    rho = g @ g.conj().T
    return DensityOperator(labels, rho / np.trace(rho).real)


def subset(data, labels, max_size=5):
    """An ordered subset of ``labels`` in random order."""
    perm = data.draw(st.permutations(labels))
    return tuple(perm[:data.draw(st.integers(1, min(max_size, len(labels))))])


def random_unitary(dim, rng) -> np.ndarray:
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(m)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def dense(state) -> np.ndarray:
    if isinstance(state, PureState):
        return np.outer(state.amplitudes, state.amplitudes.conj())
    return state.matrix


@PROPERTY
@given(states(), st.data(), seeds)
def test_apply_unitary_matches_oracle(state, data, seed):
    targets = subset(data, state.labels, 3)
    u = random_unitary(2 ** len(targets), np.random.default_rng(seed))
    out = kernel.apply_unitary(state, u, targets)
    assert out.labels == state.labels
    if isinstance(state, PureState):
        want = oracle.embed_operator(u, targets, state.labels) @ state.amplitudes
        np.testing.assert_allclose(out.amplitudes, want, rtol=0, atol=ATOL)
    else:
        want = oracle.conjugate(state.matrix, state.labels, u, targets)
        np.testing.assert_allclose(out.matrix, want, rtol=0, atol=ATOL)


@settings(deadline=None, max_examples=200)
@given(st.integers(1, 6), st.booleans(), st.data(), seeds)
def test_apply_local_is_tensordot_bit_for_bit(n, density, data, seed):
    """On a vector or density tensor of n qubits, any 1-3 axes in any order,
    C-ordered or transposed tensors and matrices, u or its conjugate, the
    kernel's contraction returns the tensordot-then-moveaxis array bit for
    bit, in the same shape and axis layout."""
    ndim = 2 * n if density else n
    rng = np.random.default_rng(seed)
    axes = tuple(data.draw(st.permutations(range(ndim)))[:data.draw(st.integers(1, min(3, ndim)))])
    tensor = rng.normal(size=[2] * ndim) + 1j * rng.normal(size=[2] * ndim)
    if data.draw(st.booleans()):
        tensor = tensor.transpose(data.draw(st.permutations(range(ndim))))
    u = random_unitary(2 ** len(axes), rng)
    u = {"u": u, "conj": u.conj(), "T": u.T}[data.draw(st.sampled_from(("u", "conj", "T")))]
    got, want = kernel._apply_local(tensor, u, axes), oracle.apply_local(tensor, u, axes)
    assert got.shape == want.shape and got.strides == want.strides
    assert np.array_equal(got, want)


@PROPERTY
@pytest.mark.parametrize("basis", "XYZ")
@pytest.mark.parametrize("mixed", (False, True))
@given(data=st.data(), seed=seeds)
def test_forced_measure_equals_the_draw_that_lands_on_it(basis, mixed, data, seed):
    """``_measure`` forced to an outcome weighs only that branch, and returns
    the (p, post) of an unforced draw that lands on it, bit for bit."""
    labels = tuple(data.draw(st.lists(st.integers(1, 6), min_size=2, max_size=5, unique=True)))
    if mixed:
        raw = kernel._density_matrix(kernel._raw(data.draw(states(labels=labels))))
    else:
        g = np.random.default_rng(seed).normal(size=(2, 2 ** len(labels)))
        raw = (g[0] + 1j * g[1]) / np.linalg.norm(g)
    qubit = data.draw(st.sampled_from(labels))
    s, p, post, post_labels = kernel._measure(raw, labels, qubit, basis, None,
                                              np.random.default_rng(seed))
    forced = kernel._measure(raw, labels, qubit, basis, s, None)
    assert forced[0] == s and forced[1] == p and forced[3] == post_labels
    assert forced[2].shape == post.shape and np.array_equal(forced[2], post)


@PROPERTY
@pytest.mark.parametrize("basis", "XYZ")
@pytest.mark.parametrize("forced", (None, 0, 1))
@pytest.mark.parametrize("mixed", (False, True))
@given(n=st.integers(2, 6), data=st.data(), seed=seeds)
def test_measure_matches_rotate_then_slice_oracle(basis, forced, mixed, n, data, seed):
    """``_measure``, which contracts only its branches' rows, equals the
    rotate-then-slice oracle on any register order, forced or drawn from the
    same generator: the same outcome, and p and post within 1e-12."""
    labels = tuple(data.draw(st.permutations(range(1, 7)))[:n])
    if mixed:
        raw = kernel._density_matrix(kernel._raw(data.draw(states(labels=labels))))
    else:
        g = np.random.default_rng(seed).normal(size=(2, 2 ** n))
        raw = (g[0] + 1j * g[1]) / np.linalg.norm(g)
    qubit = data.draw(st.sampled_from(labels))
    s, p, post, post_labels = kernel._measure(raw, labels, qubit, basis, forced,
                                              np.random.default_rng(seed))
    want = oracle.measure(raw, labels, qubit, basis, forced, np.random.default_rng(seed))
    assert s == want[0] and post_labels == want[3] and post.shape == want[2].shape
    assert abs(p - want[1]) < ATOL
    np.testing.assert_allclose(post, want[2], rtol=0, atol=ATOL)


@PROPERTY
@given(states(), st.data(), seeds)
def test_expectation_matches_oracle(state, data, seed):
    targets = subset(data, state.labels, 3)
    rng = np.random.default_rng(seed)
    d = 2 ** len(targets)
    m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    obs = Observable(targets, (m + m.conj().T) / 2)
    want = oracle.expectation(dense(state), state.labels, obs.matrix, targets)
    assert abs(kernel.expectation(state, obs) - want.real) < ATOL


@st.composite
def hermitian_words(draw, labels):
    """A +1 or -1 phased Pauli word on a random subset of ``labels``."""
    support = draw(st.lists(st.sampled_from(labels), max_size=len(labels), unique=True))
    letters = {q: draw(st.sampled_from("IXYZ")) for q in support}
    return PauliString.from_map(letters, draw(st.sampled_from((0, 2))))


@PROPERTY
@given(st.lists(st.integers(1, 6), min_size=1, max_size=6, unique=True), st.data())
def test_pauli_expectations_match_expectation(labels, data):
    state = data.draw(states(labels=tuple(labels)))
    words = data.draw(st.lists(hermitian_words(state.labels), min_size=1, max_size=4))
    got = pauli_expectations(state, words)
    for word, value in zip(words, got):
        assert abs(value - kernel.expectation(state, word.to_observable(state.labels))) < ATOL


@st.composite
def clifford_gates(draw, labels=(1, 2, 3)):
    kind = draw(st.sampled_from(("CZ", *sorted(CliffordGate._ONE_QUBIT))))
    targets = draw(st.permutations(labels))[:2 if kind == "CZ" else 1]
    return CliffordGate(kind, tuple(targets))


@PROPERTY
@given(st.lists(clifford_gates(), min_size=1, max_size=6),
       hermitian_words((1, 2, 3)), st.integers(0, 3))
def test_conjugate_sequence_matches_dense_product(gates, word, phase_power):
    labels = (1, 2, 3)
    p = PauliString(word.letters, phase_power)
    u = np.eye(2 ** len(labels))
    for gate in gates:  # first gate applied first
        u = oracle.embed_operator(gate.matrix, gate.targets, labels) @ u
    got = conjugate_sequence(gates, p).dense(labels)
    np.testing.assert_allclose(got, u @ p.dense(labels) @ u.conj().T, rtol=0, atol=ATOL)


# Floats a bundle table may hold: values of order one, tiny values of either
# sign (both zeros included), and values within 1e-15 of a point halfway
# between two neighbours on the 12-decimal grid.
table_floats = st.one_of(
    st.floats(-2.0, 2.0), st.floats(-1e-11, 1e-11),
    st.builds(lambda k, d: (k + 0.5) * 1e-12 + d,
              st.integers(-10 ** 12, 10 ** 12), st.floats(-1e-15, 1e-15)))


@PROPERTY
@given(hnp.arrays(float, st.tuples(st.integers(1, 42), st.just(6)), elements=table_floats),
       hnp.arrays(float, (4, 4, 2), elements=table_floats))
def test_tables_print_like_rounded_numpy_scalars(points, chi_parts):
    """The Bloch and chi tables, rounded once per array, hold the same text
    as ``round(np.float64(x), 12) + 0.0`` of every cell: the rounded value,
    with a zero of either sign written as ``0.0``."""
    def want(a):
        return [str(round(np.float64(x), 12) + 0.0) for x in a.ravel()]

    rows = _bloch_table(points[:, :3], points[:, 3:])[1:]
    assert [str(cell) for row in rows for cell in row] == want(points)
    chi = SimpleNamespace(matrix=chi_parts.view(complex)[..., 0])  # keeps -0.0 inputs
    rows = _chi_table(chi)[1:]
    assert [str(cell) for row in rows for cell in row[2:]] == want(chi_parts)


@PROPERTY
@given(st.lists(st.integers(1, 6), min_size=1, max_size=6, unique=True), st.data())
def test_pauli_vector_rebuilds_density(labels, data):
    """rho = 2^-n sum_P v_P P, summed with the Pauli matrices themselves and
    by the inverse transform ``oracle.from_pauli_vector``."""
    state = data.draw(states(labels=tuple(labels)))
    n = state.num_qubits
    vec = kernel._pauli_vector(kernel._raw(state), n)
    paulis = np.stack([kernel.I, kernel.X, kernel.Y, kernel.Z])
    operands = [x for k in range(n) for x in (paulis, [k, n + k, 2 * n + k])]
    rho = np.einsum(vec, list(range(n)), *operands, list(range(n, 3 * n)), optimize=True)
    np.testing.assert_allclose(rho.reshape(2 ** n, 2 ** n) / 2 ** n, dense(state),
                               rtol=0, atol=ATOL)
    np.testing.assert_allclose(oracle.from_pauli_vector(vec, n), dense(state),
                               rtol=0, atol=ATOL)


@PROPERTY
@given(states(max_qubits=6))
def test_density_of_pauli_vector_inverts_pauli_vector(state):
    """The kernel's inverse transform rebuilds the state from its Pauli
    vector, and agrees with the oracle's own copy of the inverse."""
    n = state.num_qubits
    vec = kernel._pauli_vector(kernel._raw(state), n)
    got = kernel._density_of_pauli_vector(vec, n)
    np.testing.assert_allclose(got, dense(state), rtol=0, atol=ATOL)
    np.testing.assert_allclose(got, oracle.from_pauli_vector(vec, n), rtol=0, atol=ATOL)


def _witness_targets():
    basis = logical_basis_states()
    return {"resource5": (resource_witness(), build_resource()),
            "box4": (box_witness(), basis["+"]),
            "ghz4": (ghz_witness(), basis["0"])}


@pytest.mark.parametrize("name", ("resource5", "box4", "ghz4"))
@PROPERTY
@given(st.data(), probabilities)
def test_witness_bound_holds_on_every_state(name, data, weight):
    """(1 - <W>) / 2 <= F on a random state mixed with the witness target at a
    random weight, so that the bound is not only ever clamped to 0."""
    spec, target = _witness_targets()[name]
    other = dense(data.draw(states(labels=target.labels)))
    rho = DensityOperator(target.labels, weight * dense(target) + (1 - weight) * other)
    bound = fidelity_lower_bound(evaluate_witness(rho, spec).value)
    assert bound <= state_fidelity(rho, target) + ATOL


@PROPERTY
@given(states(), st.data())
def test_partial_trace_matches_oracle(state, data):
    keep = subset(data, state.labels)
    rho = state.density() if isinstance(state, PureState) else state
    out = kernel.partial_trace(rho, keep)
    assert out.labels == keep
    np.testing.assert_allclose(out.matrix, oracle.partial_trace(rho.matrix, rho.labels, keep),
                               rtol=0, atol=ATOL)


@PROPERTY
@given(states(min_qubits=2), st.data())
def test_projective_measure_matches_oracle(state, data):
    qubit = data.draw(st.sampled_from(state.labels))
    basis = data.draw(st.sampled_from("XYZ"))
    outcome = data.draw(st.sampled_from((0, 1)))
    p_want, post_want = oracle.projective_measure(dense(state), state.labels, qubit, basis,
                                                  outcome)
    assume(p_want > 1e-3)  # the post state is divided by p
    s, p, post = kernel.projective_measure(state, qubit, basis, forced_outcome=outcome)
    assert s == outcome and abs(p - p_want) < ATOL
    assert post.labels == tuple(q for q in state.labels if q != qubit)
    np.testing.assert_allclose(dense(post), post_want, rtol=0, atol=ATOL)


@PROPERTY
@given(states(min_qubits=2), st.data(), seeds)
def test_sampled_measurement_matches_forced_branch(state, data, seed):
    """An unforced measurement draws outcome 0 when the generator's first
    uniform falls below p0, and returns the forced call's (p, post) for the
    outcome drawn, bit for bit; p matches the oracle."""
    qubit = data.draw(st.sampled_from(state.labels))
    basis = data.draw(st.sampled_from("XYZ"))
    s, p, post = kernel.projective_measure(state, qubit, basis, rng=np.random.default_rng(seed))
    _, p_forced, post_forced = kernel.projective_measure(state, qubit, basis, forced_outcome=s)
    assert p == p_forced and type(post) is type(post_forced) is type(state)
    assert post.labels == post_forced.labels
    assert np.array_equal(kernel._raw(post), kernel._raw(post_forced))
    p0, _ = oracle.projective_measure(dense(state), state.labels, qubit, basis, 0)
    assert abs(p - (p0 if s == 0 else 1 - p0)) < ATOL
    u = np.random.default_rng(seed).random()
    if abs(u - p0) > 1e-9:
        assert s == (0 if u < p0 else 1)


@PROPERTY
@given(states(), st.data())
def test_outcome_probabilities_match_oracle(state, data):
    bases = {q: data.draw(st.sampled_from("XYZ")) for q in state.labels}
    got = outcome_probabilities(state, bases)
    want = oracle.outcome_probabilities(dense(state), state.labels, bases)
    assert sorted(int(bits, 2) for bits in want) == list(range(len(got)))
    for bits, p in want.items():
        assert abs(got[int(bits, 2)] - p) < ATOL


@PROPERTY
@given(states(), st.data())
def test_outcome_probabilities_invert_to_pauli_expectations(state, data):
    """The Walsh-Hadamard read run backwards: the parity of the outcome bits
    on any subset S of the setting, averaged over p, is the expectation of
    the setting's word restricted to S."""
    bases = {q: data.draw(st.sampled_from("XYZ")) for q in state.labels}
    probs = outcome_probabilities(state, bases)
    k = state.num_qubits
    bits = (np.arange(2 ** k)[:, None] >> np.arange(k - 1, -1, -1)) & 1  # row b, column i
    for mask in itertools.product((0, 1), repeat=k):
        support = [q for q, m in zip(state.labels, mask) if m]
        parity = probs @ (1 - 2 * ((bits @ np.array(mask)) & 1))
        (want,) = pauli_expectations(state, [PauliString.from_map(
            {q: bases[q] for q in support})])
        assert abs(parity - want) < ATOL, (support, parity, want)


@st.composite
def noise_maps(draw, labels, stage="post-encoding"):
    """A uniform rate, or a per-qubit map over some of the register."""
    def rates():
        return st.one_of(probabilities, st.dictionaries(st.sampled_from(labels), probabilities))
    return NoiseModel(depolarizing=draw(rates()), dephasing=draw(rates()),
                      visibility=draw(probabilities), stage=stage)


@PROPERTY
@given(states(), st.data())
def test_apply_noise_matches_kraus_oracle(state, data):
    model = data.draw(noise_maps(state.labels))
    out = apply_noise(state, model)
    assert out.labels == state.labels
    np.testing.assert_allclose(out.matrix, oracle.apply_noise(dense(state), state.labels, model),
                               rtol=0, atol=ATOL)


@st.composite
def histograms(draw):
    """One to three records of widths 1..5 over random qubits and bases.
    Each lists some or all of its cells, with counts 0..600, so histograms
    range from sparse (absent and zero cells) to dense, and resampling rates
    fall on both sides of numpy's Poisson method switch at 10. Counts of 0..3
    are drawn often, so some trials resample a histogram to empty."""
    records = []
    for _ in range(draw(st.integers(1, 3))):
        k = draw(st.integers(1, 5))
        qubits = draw(st.permutations(range(1, 7)))[:k]
        setting = tuple((q, draw(st.sampled_from("XYZ"))) for q in qubits)
        cells = draw(st.lists(st.integers(0, 2 ** k - 1), min_size=1, max_size=2 ** k,
                              unique=True))
        rates = st.one_of(st.integers(0, 3), st.integers(0, 600))
        counts = {format(i, f"0{k}b"): draw(rates) for i in cells}
        records.append(CountRecord.from_counts(setting, counts))
    return records


def linear_statistic(constant, terms, estimate):
    """A witness-shaped statistic: constant - sum of coef * sign * <parity>,
    evaluated in the order witness_value_from_counts uses."""
    def statistic(records):
        value = constant
        for i, support, coef, sign in terms:
            value -= coef * sign * estimate(records[i], support)
        return value
    return statistic


def outcome(fn):
    try:
        return fn()
    except ValueError as exc:  # an empty resampled histogram
        return str(exc)


@PROPERTY
@given(histograms(), st.data(), seeds, st.integers(100, 300))
def test_monte_carlo_matches_per_trial_oracle(records, data, seed, trials):
    coefs = st.floats(-2.0, 2.0, allow_nan=False)
    terms = [(i, subset(data, records[i].qubits) if data.draw(st.booleans()) else (),
              data.draw(coefs), data.draw(st.sampled_from((1, -1))))
             for i in data.draw(st.lists(st.integers(0, len(records) - 1), max_size=6))]
    constant = data.draw(coefs)
    batched = linear_statistic(constant, terms, estimate_expectation)
    scalar = linear_statistic(constant, terms, oracle.estimate_expectation)
    assert outcome(lambda: monte_carlo_uncertainty(batched, records, trials, seed)) \
        == outcome(lambda: oracle.monte_carlo_uncertainty(scalar, records, trials, seed))


@PROPERTY
@given(histograms())
def test_counts_csv_round_trip(records):
    """Writing records to CSV rows and reading them back returns each
    setting and count vector exactly, empty histograms included. The CSV
    merges records with equal setting labels, so those are left out."""
    assume(len({r.setting_label for r in records}) == len(records))
    back = counts_from_csv_rows(counts_to_csv_rows(records))
    assert [r.setting for r in back] == [r.setting for r in records]
    for got, want in zip(back, records):
        assert got.dense.dtype == np.int64
        np.testing.assert_array_equal(got.dense, want.dense)


SPARSE = [CountRecord.from_counts(((1, "X"), (2, "Z")), {"00": 3, "11": 40})]
DENSE = [CountRecord.from_counts(((1, "Z"), (3, "Y"), (5, "X")),
                                 {format(i, "03b"): 7 + 11 * i for i in range(8)}),
         CountRecord.from_counts(((2, "X"),), {"0": 250, "1": 1})]
EMPTY = [CountRecord.from_counts(((4, "Z"),), {"0": 0})]  # every trial resamples to empty


@pytest.mark.parametrize("calls", [
    [(SPARSE, 200, 11), (DENSE, 200, 11)],                   # same seed, new records
    [(DENSE, 200, 11), (DENSE, 200, 12), (DENSE, 200, 11)],  # seeds a, b, a
    [(DENSE, 100, 11), (DENSE, 150, 11)],                    # same seed, more trials
    [(EMPTY, 200, 11), (SPARSE, 200, 11)],                   # a failed call, then valid
])
def test_monte_carlo_call_sequences_match_oracle(calls):
    """Every call equals the per-trial oracle, whatever calls came before it."""
    for records, trials, seed in calls:
        terms = [(i, r.qubits, 1.0, 1) for i, r in enumerate(records)]
        batched = linear_statistic(0.5, terms, estimate_expectation)
        scalar = linear_statistic(0.5, terms, oracle.estimate_expectation)
        assert outcome(lambda: monte_carlo_uncertainty(batched, records, trials, seed)) \
            == outcome(lambda: oracle.monte_carlo_uncertainty(scalar, records, trials, seed))


BUILTIN_SPECS = (resource_witness(), resource_witness(as_printed=True), box_witness(),
                 ghz_witness(), pair_witness((1, 2)), pair_witness((4, 5)))


@st.composite
def witness_tables(draw):
    """A built-in or random witness and count records that cover it, in
    shuffled order: each of its settings, or a copy widened by a qubit
    outside the witness, or both, plus up to two unrelated records. Every
    record holds one histogram, or every record a batch of them; cells are
    sparse or dense, and small counts leave some histograms empty."""
    spec = draw(st.one_of(st.sampled_from(BUILTIN_SPECS), st.lists(
        st.integers(1, 5), min_size=1, max_size=5, unique=True).flatmap(witness_specs)))
    outside = [q for q in range(1, 7) if q not in spec.qubits]
    settings_ = []
    for own in witness_settings(spec):
        own = list(own.items())
        kept = draw(st.sampled_from(("own", "wide", "both"))) if outside else "own"
        if kept != "own":
            settings_.append(own + [(draw(st.sampled_from(outside)),
                                     draw(st.sampled_from("XYZ")))])
        if kept != "wide":
            settings_.append(own)
    for _ in range(draw(st.integers(0, 2))):
        qubits = draw(st.lists(st.integers(1, 6), min_size=1, max_size=4, unique=True))
        settings_.append([(q, draw(st.sampled_from("XYZ"))) for q in qubits])
    rng = np.random.default_rng(draw(seeds))
    batch = draw(st.sampled_from(((), (1,), (3,))))
    records = []
    for setting in settings_:
        size = batch + (2 ** len(setting),)
        high = draw(st.sampled_from((2, 5, 600)))
        density = draw(st.sampled_from((0.3, 1.0)))
        counts = rng.integers(0, high, size) * (rng.random(size) < density)
        records.append(CountRecord(tuple(draw(st.permutations(setting))), counts))
    return spec, draw(st.permutations(records))


def plain(value):
    """A witness outcome comparable with ``==``: an error message, a float or
    a list of per-trial floats."""
    return value.tolist() if isinstance(value, np.ndarray) else value


@PROPERTY
@given(witness_tables(), seeds)
def test_witness_plan_matches_per_term_oracle(table, seed):
    """The parity plan gives exactly (==, not to a tolerance) the per-term
    loop's value, on one histogram per record or on trial batches, the
    record-choice rule and an empty histogram's error included. On single
    histograms the estimate helper equals the value plus the public Monte
    Carlo of it, bit for bit, from the same draw."""
    spec, records = table
    value = lambda rs: sampling.witness_value_from_counts(rs, spec)
    got = outcome(lambda: value(records))
    want = outcome(lambda: oracle.witness_value_from_counts(records, spec))
    assert type(got) is type(want) and plain(got) == plain(want)
    if records[0].dense.ndim == 1:
        assert outcome(lambda: sampling._witness_estimate(records, spec, 100, seed)) \
            == outcome(lambda: (value(records), *monte_carlo_uncertainty(value, records, 100,
                                                                         seed)))


@st.composite
def estimate_items(draw):
    """One to six ``(records, spec)`` items, each a built-in witness and one
    histogram per setting: sparse (mostly zero cells, some small), dense or
    a single nonzero cell. An all-zero sparse histogram is empty, and small
    counts leave some resampled trials empty."""
    items = []
    for _ in range(draw(st.integers(1, 6))):
        spec = draw(st.sampled_from(BUILTIN_SPECS))
        records = []
        for setting in witness_settings(spec):
            size = 2 ** len(setting)
            shape = draw(st.sampled_from(("sparse", "dense", "single")))
            if shape == "single":
                counts = [0] * size
                counts[draw(st.integers(0, size - 1))] = draw(st.integers(1, 600))
            else:
                cell = st.sampled_from((0, 0, 0, 1, 2, 40)) if shape == "sparse" \
                    else st.integers(0, 600)
                counts = draw(st.lists(cell, min_size=size, max_size=size))
            records.append(CountRecord(tuple(sorted(setting.items())), counts))
        items.append((records, spec))
    return items


@PROPERTY
@given(estimate_items(), seeds, st.integers(100, 300))
def test_witness_estimates_equal_the_items_one_at_a_time(items, seed, trials):
    """A run's witness estimates, whose draws share the calling thread and
    the helper thread, equal each item's ``_witness_estimate`` on its own,
    every value of every (estimate, mc_mean, mc_std) bit for bit; an error
    is the one the items one at a time raise first."""
    got = outcome(lambda: sampling._witness_estimates(items, trials, sampling._mc_state(seed)))
    want = outcome(lambda: [sampling._witness_estimate(records, spec, trials, seed)
                            for records, spec in items])
    assert repr(got) == repr(want)


@PROPERTY
@given(st.lists(st.integers(1, 6), min_size=1, max_size=6, unique=True), st.data(), seeds)
def test_setting_gather_equals_ix_selection(labels, data, seed):
    """The cached flat gather of ``_outcome_probabilities`` picks exactly the
    sub-cube that ``np.ix_`` selects: indices 0 and the letter's on each
    measured axis, 0 on the others, the unmeasured axes squeezed out."""
    measured = subset(data, labels, len(labels))
    letters = tuple(data.draw(st.sampled_from("XYZ")) if q in measured else None
                    for q in labels)
    vec = np.random.default_rng(seed).normal(size=[4] * len(labels))
    want = vec[np.ix_(*[(0, "IXYZ".index(l)) if l else (0,) for l in letters])].squeeze()
    got = vec.take(sampling._setting_gather(letters))
    assert got.shape == want.shape == (2,) * len(measured)
    assert np.array_equal(got, want)


expected_counts = st.one_of(st.sampled_from((0.001, 0.5, 1e12)),
                            st.floats(0.001, sampling.MAX_EXPECTED_COUNTS))


@PROPERTY
@given(states(min_qubits=2, max_qubits=5), st.data(), expected_counts, seeds,
       st.integers(0, 2 ** 32))
def test_sample_settings_match_per_setting_oracle(state, data, expected_n, seed, stream_base):
    """The batched sampler equals drawing one setting at a time through the
    generic per-axis transform, bit for bit: the probabilities, each record's
    setting and every count, from 0.001 expected counts (mostly empty
    histograms) to 1e12. Every drawn record passes the constructor's checks."""
    labels = state.labels
    vec = kernel._pauli_vector(kernel._raw(state), len(labels))
    k = data.draw(st.integers(1, len(labels)))
    settings_ = [{q: data.draw(st.sampled_from("XYZ"))
                  for q in data.draw(st.permutations(labels))[:k]}
                 for _ in range(data.draw(st.integers(1, 3)))]
    [got], _ = sampling._sample_settings([(vec, labels, settings_, stream_base)], expected_n,
                                         seed)
    want = [oracle.sample_counts(vec, labels, s, expected_n, seed, stream_base + i)
            for i, s in enumerate(settings_)]
    assert [r.setting for r in got] == [r.setting for r in want]
    for g, w, bases in zip(got, want, settings_):
        assert g.dense.dtype == np.int64 and np.array_equal(g.dense, w.dense)
        t = vec.take(sampling._setting_gather(tuple(bases.get(q) for q in labels)))
        probs = np.clip(kernel._transform_each_axis(oracle.WALSH, t).reshape(-1) / t.size,
                        0.0, None)
        assert np.array_equal(sampling._outcome_probabilities(vec, labels, bases),
                              probs / probs.sum())
        g.__post_init__()  # raises if the drawn record would fail the checks


@PROPERTY
@given(st.lists(st.sampled_from((2, 4)).flatmap(lambda n: states(n, max_qubits=n)),
                min_size=1, max_size=4), st.data(), expected_counts, seeds)
def test_sample_settings_stack_matches_one_vector_at_a_time(states_, data, expected_n, seed):
    """One call over a stack of 2- and 4-qubit vectors, 1-3 settings each,
    in any order: every histogram equals ``sample_setting_counts`` on its
    own state and stream, bit for bit, and every setting is its own."""
    jobs = []
    for state in states_:
        settings_ = [{q: data.draw(st.sampled_from("XYZ"))
                      for q in data.draw(st.permutations(state.labels))}
                     for _ in range(data.draw(st.integers(1, 3)))]
        vec = kernel._pauli_vector(kernel._raw(state), state.num_qubits)
        jobs.append((vec, state.labels, settings_, data.draw(st.integers(0, 2 ** 32))))
    got, _ = sampling._sample_settings(jobs, expected_n, seed)
    assert [len(records) for records in got] == [len(settings_) for _, _, settings_, _ in jobs]
    for state, (_, _, settings_, base), records in zip(states_, jobs, got):
        for i, (bases, g) in enumerate(zip(settings_, records)):
            w = sample_setting_counts(state, bases, expected_n, seed, base + i)
            assert g.setting == w.setting
            assert g.dense.dtype == np.int64 and np.array_equal(g.dense, w.dense)


@PROPERTY
@given(st.lists(st.integers(1, 6), min_size=1, max_size=6, unique=True), st.data(), seeds)
def test_read_words_match_per_word_oracle(labels, data, seed):
    """The indexed read equals the per-word loop exactly, on any register
    order and for words with phase -1; a qubit outside the register raises
    ``ValueError`` in both."""
    labels = tuple(data.draw(st.permutations(labels)))
    vec = np.random.default_rng(seed).normal(size=[4] * len(labels))
    words = tuple(data.draw(st.lists(hermitian_words(labels), max_size=6)))
    got = _read_words(vec, labels, words)
    assert type(got) is tuple and all(type(x) is float for x in got)
    assert got == oracle.read_words(vec, labels, words)
    outside = words + (PauliString.single(data.draw(st.integers(7, 9)), "Z"),)
    for read in (_read_words, oracle.read_words):
        with pytest.raises(ValueError):
            read(vec, labels, outside)


@pytest.mark.parametrize("spec", BUILTIN_SPECS, ids=lambda s: s.name)
@settings(deadline=None, max_examples=20)
@given(values=st.lists(st.floats(-1.0, 1.0), min_size=10, max_size=10))
def test_witness_result_matches_per_term_oracle(spec, values):
    """The cached term table gives the value and rows of the per-term sum,
    bit for bit."""
    values = tuple(values[:len(spec.terms)])
    got = runner._witness_result(spec, values)
    assert (got.value, got.terms) == oracle.witness_result(spec, values)


@PROPERTY
@given(st.sampled_from(BUILTIN_SPECS), st.data(), seeds)
def test_float_plans_exact_at_2_53(spec, data, seed):
    """With every histogram total at exactly 2^53, the float64 parity plan
    and estimator equal the int64 products divided as Python divides ints.
    A total of 2^53 + 1 is refused."""
    rng = np.random.default_rng(seed)
    settings_ = [tuple(s.items()) for s in witness_settings(spec)]
    dense = []
    for setting in settings_:
        cells = 2 ** len(setting)
        if data.draw(st.booleans()):  # all counts in one cell
            counts = np.zeros(cells, dtype=np.int64)
            counts[data.draw(st.integers(0, cells - 1))] = 2 ** 53
        else:
            cuts = np.sort(rng.integers(0, 2 ** 53, cells - 1, dtype=np.int64))
            counts = np.diff(np.concatenate(([0], cuts, [2 ** 53])))
        dense.append(counts)
    records = [CountRecord(s, d) for s, d in zip(settings_, dense)]
    assert all(r.total == 2 ** 53 for r in records)
    want = float(spec.constant)
    plan = sampling._witness_plan(spec, tuple(settings_))
    chosen = spec.term_records(settings_)
    n = len(spec.terms)
    ints = (plan.matrix.astype(np.int64).T @ np.concatenate(dense)).tolist()
    assert ints[n:] == [2 ** 53] * n  # each term's record total
    for j, (i, acc) in enumerate(zip(chosen, ints)):
        assert sampling.estimate_expectation(
            records[i], spec.terms[j].word.support) == acc / 2 ** 53
    for t, i in zip(spec.terms, chosen):
        qubits = records[i].qubits
        mask = np.array(oracle.parity_signs(qubits, t.word.support))
        want -= float(t.coefficient) * t.sign * (int(mask.astype(np.int64) @ dense[i])
                                                 / 2 ** 53)
    assert sampling.witness_value_from_counts(records, spec) == want
    first = min(chosen)
    over = [d.copy() for d in dense]
    over[first][0] += 1
    over = np.concatenate(over)
    cells = np.flatnonzero(over)
    for args in ((over,), (over[cells], cells)):  # every cell, or the nonzero ones
        with pytest.raises(ValueError, match="above 2"):
            sampling._plan_value(spec, plan, *args)
    with pytest.raises(ValueError, match="above 2"):
        CountRecord(settings_[first], over[plan.reads[0][0]:plan.reads[0][1]])


@settings(deadline=None, max_examples=30)
@given(st.data(), st.sampled_from(("post-resource", "post-encoding")),
       st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
def test_calibrated_visibility_matches_bisection(data, stage, target):
    # rates up to 0.3 keep F(1) - F(0) >= 0.06, so v* is well conditioned;
    # F(0) = 1/16 and F(1) < 1, so targets on both sides are unreachable
    rates = st.dictionaries(st.integers(1, 5), st.floats(0.0, 0.3))
    noise = NoiseModel(depolarizing=data.draw(rates), dephasing=data.draw(rates), stage=stage)
    want = oracle.bisect_visibility(lambda v: oracle_zero_fidelity(v, noise), target)
    f0, f1 = oracle_zero_fidelity(0.0, noise), oracle_zero_fidelity(1.0, noise)
    assert abs(_calibrated_visibility(f0, f1, target) - want) < ATOL


def oracle_zero_fidelity(v, noise) -> float:
    """Fidelity of the checked oracle's encoded |0> with |+_L> at visibility v."""
    encoded = oracle.encoded_state("0", replace(noise, visibility=v))
    return state_fidelity(encoded, logical_basis_states()["+"])


PIPELINE = settings(deadline=None, max_examples=20)


@PIPELINE
@given(st.sampled_from(("post-resource", "post-encoding")), st.integers(3, 9), st.data())
def test_sweep_rows_match_direct_states(stage, points, data):
    """Each sweep row, read off the line between v = 0 and v = 1, equals the
    values of the states built directly at its visibility."""
    noise = data.draw(noise_maps((1, 2, 3, 4, 5), stage))
    config = ExperimentConfig("noise-sweep", noise=noise, sweep_points=points)
    rows = run_experiment(config).tables["sweep"][1:]
    ideal5 = build_resource()
    for v, row in zip(np.linspace(0.0, 1.0, points), rows):
        model = replace(noise, visibility=v)
        rho5 = DensityOperator(ideal5.labels,
                               oracle.apply_noise(dense(ideal5), ideal5.labels, model))
        direct = (oracle_zero_fidelity(v, noise), evaluate_witness(rho5, resource_witness()).value,
                  state_fidelity(rho5, ideal5))
        np.testing.assert_allclose(row[1:3] + row[4:5], direct, rtol=0, atol=1e-11)


@pytest.mark.parametrize("stage", ("post-resource", "post-encoding"))
@pytest.mark.parametrize("byproduct", BYPRODUCT_MODES)
@PIPELINE
@given(st.data())
def test_encoded_state_matches_checked_oracle(stage, byproduct, data):
    """A probe's encoded Pauli vector, turned into a density matrix, equals
    the checked oracle's encoded state."""
    probe = data.draw(st.sampled_from(PROBE_NAMES))
    noise = data.draw(noise_maps((1, 2, 3, 4, 5), stage))
    vec = runner._probe_vectors((probe,), noise, byproduct)[probe]
    want = oracle.encoded_state(probe, noise, byproduct)
    assert want.labels == CODE_QUBITS
    np.testing.assert_allclose(oracle.from_pauli_vector(vec, 4), want.matrix, rtol=0, atol=ATOL)


@pytest.mark.parametrize("stage", ("post-resource", "post-encoding"))
@pytest.mark.parametrize("byproduct", BYPRODUCT_MODES)
@PIPELINE
@given(st.lists(st.one_of(st.sampled_from(PROBE_NAMES), seeds), min_size=1, max_size=4),
       st.data())
def test_encoded_vectors_match_checked_oracle(stage, byproduct, inputs, data):
    """One batch of probes and Haar-random inputs, encoded in the Pauli
    domain, equals the Pauli vectors of the checked oracle's encoded states
    under random per-qubit noise."""
    def ancilla(x):
        if isinstance(x, str):
            return PROBES[x]
        g = np.random.default_rng(x).normal(size=(2, 2))
        alpha, beta = (g[0] + 1j * g[1]) / np.linalg.norm(g)
        return AncillaState(alpha, beta)

    noise = data.draw(noise_maps((1, 2, 3, 4, 5), stage))
    inputs = [ancilla(x) for x in inputs]
    got = code._encoded_vectors([(1, *a.bloch) for a in inputs], noise, byproduct)
    assert got.shape == (len(inputs), 4, 4, 4, 4)
    for a, vec in zip(inputs, got):
        want = kernel._pauli_vector(oracle.encoded_state(a, noise, byproduct).matrix, 4)
        np.testing.assert_allclose(vec, want, rtol=0, atol=ATOL)


@PROPERTY
@given(states(max_qubits=6), st.data())
def test_noise_factors_match_dense_noise(state, data):
    """The noise model as a diagonal on the Pauli vector equals
    ``apply_noise`` and the Kraus oracle, each turned into a Pauli vector."""
    model = data.draw(noise_maps(state.labels))
    raw, n = kernel._raw(state), state.num_qubits
    got = kernel._pauli_vector(raw, n) * sampling._noise_factors(state.labels, model)
    for noisy in (apply_noise(state, model).matrix,
                  oracle.apply_noise(dense(state), state.labels, model)):
        np.testing.assert_allclose(got, kernel._pauli_vector(noisy, n), rtol=0, atol=ATOL)


def encoding_ptm(noise, byproduct) -> np.ndarray:
    """Real 256 x 4 map E from an input's Bloch 4-vector to the Pauli vector
    of its encoded state, pushed through the encoder from the six Bloch
    basis states: column k is (enc(+e_k) - enc(-e_k)) / 2 for k = X, Y, Z
    and (enc(+e_Z) + enc(-e_Z)) / 2 for the identity."""
    plus = np.hstack([np.ones((3, 1)), np.eye(3)])
    minus = np.hstack([np.ones((3, 1)), -np.eye(3)])
    vecs = code._encoded_vectors(np.vstack([plus, minus]), noise, byproduct).reshape(6, -1)
    return np.stack([(vecs[2] + vecs[5]) / 2, *((vecs[:3] - vecs[3:]) / 2)], axis=1)


def recovery_ptm(recipe, keep) -> np.ndarray:
    """Real 4 x 64 map from a three-qubit Pauli vector on ``keep`` to the
    Pauli vector of the recovered qubit, entry [a, Q] = tr(P_a sum_s K_s Q
    K_s^dagger) / 8, from the recipe's Kraus stack."""
    kraus = oracle.recovery_kraus(recipe, keep)
    out = np.empty((4, 64))
    for i, word in enumerate(itertools.product(oracle.PAULI_MATS, repeat=3)):
        m = kraus @ np.kron(np.kron(*word[:2]), word[2]) @ kraus.conj().T
        rho = np.einsum("kakb->ab", m.reshape(4, 2, 4, 2))
        out[:, i] = [np.trace(p @ rho).real / 8 for p in oracle.PAULI_MATS]
    return out


def reported_ptm(config) -> np.ndarray:
    block = run_experiment(config).summary["chi"]
    return ChiMatrix(np.array(block["matrix_re"]) + 1j * np.array(block["matrix_im"])).ptm


@pytest.mark.parametrize("stage", ("post-resource", "post-encoding"))
@pytest.mark.parametrize("byproduct", BYPRODUCT_MODES)
@settings(deadline=None, max_examples=10)
@given(st.data())
def test_channel_ptms_compose_from_the_encoding_map(stage, byproduct, data):
    """The encoder is one linear map E from the input's Bloch 4-vector.
    Composed with the logical read-out (the identity entry and the Xbar,
    Ybar and Zbar components) it is the encode-channel PTM; composed with
    the index-0 trace of a lost qubit and the Kraus stack's PTM it is that
    qubit's loss-recovery PTM. Both equal the PTMs the runner reconstructs
    from the probes."""
    noise = data.draw(noise_maps((1, 2, 3, 4, 5), stage))
    e = encoding_ptm(noise, byproduct)
    ops = logical_ops()
    logical = np.array([(col[0, 0, 0, 0], *_read_words(col, CODE_QUBITS,
                                                       (ops.xbar, ops.ybar, ops.zbar)))
                        for col in e.T.reshape(4, 4, 4, 4, 4)]).T
    want = reported_ptm(ExperimentConfig("encode-channel", noise, byproduct=byproduct))
    np.testing.assert_allclose(logical, want, rtol=0, atol=ATOL)
    for lost in CODE_QUBITS:
        keep = survivors(lost)
        traced = e.reshape(4, 4, 4, 4, 4).take(0, axis=CODE_QUBITS.index(lost)).reshape(64, 4)
        want = reported_ptm(ExperimentConfig("loss-recovery", noise, lost=lost,
                                             byproduct=byproduct))
        np.testing.assert_allclose(recovery_ptm(recovery_recipe(lost), keep) @ traced, want,
                                   rtol=0, atol=ATOL)


def framed_and_reduced(state, frame, keep) -> DensityOperator:
    """The dense path that the Pauli-domain reads replace: conjugation by the
    Pauli word ``frame`` (if given) with ``apply_unitary``, then
    ``partial_trace`` to ``keep``."""
    if frame is not None:
        state = kernel.apply_unitary(state, frame.dense(frame.support), frame.support)
    return kernel.partial_trace(state.density() if isinstance(state, PureState) else state,
                                keep)


@st.composite
def witness_specs(draw, qubits):
    """A witness of one to four random terms on ``qubits``, with random
    coefficients and tilde flags."""
    terms = []
    for _ in range(draw(st.integers(1, 4))):
        support = draw(st.lists(st.sampled_from(qubits), min_size=1, unique=True))
        word = PauliString.from_map({q: draw(st.sampled_from("XYZ")) for q in support})
        tilde = frozenset(draw(st.lists(st.sampled_from(support), unique=True)))
        terms.append(WitnessTerm(Fraction(draw(st.integers(1, 4)), 4), word, tilde))
    return WitnessSpec("random", Fraction(draw(st.integers(0, 8)), 4), tuple(terms))


@PROPERTY
@given(states(min_qubits=2, max_qubits=6), st.data())
def test_vector_sampler_matches_dense_path(state, data):
    """Outcome probabilities and exact witness values read off a Pauli vector,
    with an optional Pauli frame applied as sign flips and every unmeasured
    qubit at index 0, equal those of the dense path: the frame applied with
    ``apply_unitary``, the rest traced out with ``partial_trace``, then the
    checked ``outcome_probabilities`` and ``evaluate_witness``. Each sampled
    record measures the witness setting's qubits in register order."""
    labels = state.labels
    measured = subset(data, labels, len(labels))
    keep = tuple(q for q in labels if q in measured)
    bases = {q: data.draw(st.sampled_from("XYZ")) for q in measured}
    frame = data.draw(st.one_of(st.none(), hermitian_words(labels).filter(lambda w: w.weight)))
    vec = kernel._pauli_vector(kernel._raw(state), len(labels))
    if frame is not None:
        vec = code._conjugate_pauli_vector(vec, frame, labels)
    reduced = framed_and_reduced(state, frame, keep)
    np.testing.assert_allclose(sampling._outcome_probabilities(vec, labels, bases),
                               outcome_probabilities(reduced, bases), rtol=0, atol=ATOL)
    spec = data.draw(witness_specs(keep))
    seed = data.draw(seeds)
    [records], _ = sampling._sample_settings([(vec, labels, witness_settings(spec), 0)], 500,
                                             seed)
    block, _ = runner._witness_block(vec, labels, spec,
                                     sampling._witness_estimate(records, spec, 100, seed))
    assert abs(block["exact"] - evaluate_witness(reduced, spec).value) < ATOL
    assert [r.qubits for r in records] == [tuple(q for q in labels if q in s)
                                           for s in witness_settings(spec)]


@pytest.mark.parametrize("probe", PROBE_NAMES)
@settings(deadline=None, max_examples=10)
@given(st.data())
def test_probe_witnesses_read_off_vectors_match_dense_states(probe, data):
    """Each probe witness read off the encoded Pauli vector (the Zbar frame
    of |1> as sign flips, a pair's words at index 0 on the traced axes)
    equals the witness on the dense state it was read from, and the vector
    fidelity equals ``state_fidelity``."""
    noise = data.draw(noise_maps((1, 2, 3, 4, 5), data.draw(
        st.sampled_from(("post-resource", "post-encoding")))))
    vec = runner._probe_vectors((probe,), noise, "condition0")[probe]
    rho = oracle.encoded_state(probe, noise)
    for _, _, spec, frame in runner._probe_witnesses(probe):
        want = evaluate_witness(framed_and_reduced(rho, frame, spec.qubits), spec).value
        got = runner._exact_witness(runner._in_frame(vec, frame), CODE_QUBITS, spec).value
        assert abs(got - want) < ATOL
    target = logical_basis_states()[code.PROBE_TARGETS[probe]]
    target_vec = kernel._pauli_vector(target.amplitudes, 4)
    assert abs(_vector_fidelity(vec, target_vec) - state_fidelity(rho, target)) < ATOL


@PROPERTY
@given(states(max_qubits=6))
def test_pauli_error_as_sign_flip_matches_dense_conjugation(state):
    """Every single-qubit Pauli error on every qubit, applied to the Pauli
    vector as a sign flip along the qubit's axis, equals dense conjugation
    followed by a fresh Pauli vector."""
    raw, n = kernel._raw(state), state.num_qubits
    vec = kernel._pauli_vector(raw, n)
    for axis, q in enumerate(state.labels):
        for letter in "XYZ":
            got = code._inject_in_pauli_vector(vec, axis, letter)
            want = oracle.injected_pauli_vector(raw, state.labels, letter, q)
            np.testing.assert_allclose(got, want, rtol=0, atol=ATOL)


@st.composite
def phased_words(draw, labels):
    """A Pauli word with any of the four phases on a random subset of
    ``labels``."""
    support = draw(st.lists(st.sampled_from(labels), max_size=len(labels), unique=True))
    letters = {q: draw(st.sampled_from("IXYZ")) for q in support}
    return PauliString.from_map(letters, draw(st.integers(0, 3)))


def odd_y_words(labels, powers) -> tuple[PauliString, ...]:
    """Two words with an odd number of Y letters, whose matrices hold
    imaginary entries unless the phase is i or -i: one Y at phase
    i^powers[0], and Y on an odd number of ``labels`` at i^powers[1]."""
    ys = labels[:len(labels) - (len(labels) + 1) % 2]
    return (PauliString.single(labels[0], "Y", powers[0]),
            PauliString.from_map(dict.fromkeys(ys, "Y"), powers[1]))


@PROPERTY
@given(st.lists(st.integers(1, 6), min_size=1, max_size=6, unique=True), st.data(), seeds)
def test_word_action_is_the_dense_matrix(labels, data, seed):
    """P psi = phase * psi[perm] for phased words on any register order,
    exactly: each row of a Pauli word's matrix holds one entry, 1, -1, i or
    -i, so the dense product adds only exact zeros to it."""
    labels = tuple(labels)
    words = (*data.draw(st.lists(phased_words(labels), min_size=1, max_size=4)),
             *odd_y_words(labels, (1, 3)))
    g = np.random.default_rng(seed).normal(size=(2, 2 ** len(labels)))
    psi = g[0] + 1j * g[1]
    perm, phase = pauli._word_action(labels, words)
    assert not perm.flags.writeable and not phase.flags.writeable
    for word, row_perm, row_phase in zip(words, perm, phase):
        assert np.array_equal(row_phase * psi[row_perm], word.dense(labels) @ psi)


@PROPERTY
@given(st.lists(st.integers(1, 6), min_size=1, max_size=6, unique=True), st.data())
def test_word_expectations_are_the_trace(labels, data):
    """tr(rho P) read through the signed permutations equals
    ``np.trace(rho @ P)`` on pure and mixed states for Hermitian words,
    among them words with imaginary entries, where reading rho[x, perm[x]]
    in place of rho[perm[x], x] would conjugate the value."""
    state = data.draw(states(labels=tuple(labels)))
    words = (*data.draw(st.lists(hermitian_words(state.labels), min_size=1, max_size=4)),
             *odd_y_words(state.labels, (0, 2)))
    rho = dense(state)
    got = pauli._word_expectations(kernel._raw(state), state.labels, words)
    want = [np.trace(rho @ w.dense(state.labels)).real for w in words]
    np.testing.assert_allclose(got, want, rtol=0, atol=ATOL)


@PROPERTY
@given(st.data())
def test_inject_pauli_error_is_the_dense_contraction(data):
    """Each of the 12 single-qubit errors, applied as a signed permutation,
    equals ``kernel._unitary`` with the error's matrix bit for bit, on a pure
    state and on its density, on any order of the code qubits."""
    state = data.draw(states(labels=tuple(data.draw(st.permutations(CODE_QUBITS)))))
    for s in (state, state.density()) if isinstance(state, PureState) else (state,):
        for letter, q in itertools.product("XYZ", CODE_QUBITS):
            got = code.inject_pauli_error(s, PauliString.single(q, letter))
            want = kernel._unitary(kernel._raw(s), s.labels, kernel.PAULI[letter], (q,))
            assert type(got) is type(s) and got.labels == s.labels
            assert np.array_equal(kernel._raw(got), want)


@PROPERTY
@given(st.booleans(), st.data())
def test_measure_syndromes_match_the_pauli_vector_read(with_ancilla, data):
    """Syndromes read through the signed permutations equal those read off
    the state's Pauli vector, on any order of the code qubits and on
    five-qubit registers that hold the ancilla."""
    labels = CODE_QUBITS + ((code.ANCILLA,) if with_ancilla else ())
    state = data.draw(states(labels=tuple(data.draw(st.permutations(labels)))))
    vec = kernel._pauli_vector(kernel._raw(state), state.num_qubits)
    want = code._syndromes_of_vector(vec, state.labels)
    got = code.measure_syndromes(state).values
    assert type(got) is tuple and all(type(v) is float for v in got)
    np.testing.assert_allclose(got, want, rtol=0, atol=ATOL)


@PROPERTY
@given(st.lists(st.integers(1, 6), min_size=1, max_size=6, unique=True), st.data())
def test_pauli_expectations_match_the_pauli_vector_read(labels, data):
    """Words read through their signed permutations equal the same words
    read off the state's Pauli vector (``_read_words``), to 1e-12, on pure
    and mixed states of 1 to 6 qubits in any register order."""
    state = data.draw(states(labels=tuple(labels)))
    words = data.draw(st.lists(hermitian_words(state.labels), min_size=1, max_size=6))
    for s in (state, state.density()) if isinstance(state, PureState) else (state,):
        got = pauli_expectations(s, words)
        assert type(got) is tuple and all(type(v) is float for v in got)
        vec = kernel._pauli_vector(kernel._raw(s), s.num_qubits)
        np.testing.assert_allclose(got, _read_words(vec, s.labels, words), rtol=0, atol=ATOL)


@PROPERTY
@given(st.booleans(), st.data())
def test_logical_and_witness_reads_match_the_pauli_vector_read(with_ancilla, data):
    """Logical tomography and the witnesses on the register, read through
    the words' signed permutations, equal the same reads off the state's
    Pauli vector, to 1e-12, on random states of the code qubits in any
    order, with or without the ancilla; the syndromes are held so by
    :func:`test_measure_syndromes_match_the_pauli_vector_read`."""
    labels = CODE_QUBITS + ((code.ANCILLA,) if with_ancilla else ())
    state = data.draw(states(labels=tuple(data.draw(st.permutations(labels)))))
    vec = kernel._pauli_vector(kernel._raw(state), state.num_qubits)
    np.testing.assert_allclose(tomography.logical_tomography(state).bloch,
                               tomography._logical_of_vector(vec, state.labels).bloch,
                               rtol=0, atol=ATOL)
    specs = [box_witness(), ghz_witness(), pair_witness((1, 2)), pair_witness((4, 5))]
    for spec in specs + [resource_witness()] * with_ancilla:
        got = evaluate_witness(state, spec)
        want = runner._witness_result(spec, _read_words(vec, state.labels, spec.words))
        assert abs(got.value - want.value) <= ATOL
        assert [t[:2] for t in got.terms] == [t[:2] for t in want.terms]
        np.testing.assert_allclose([t[2:] for t in got.terms], [t[2:] for t in want.terms],
                                   rtol=0, atol=ATOL)


@st.composite
def weak_noise(draw, stage):
    """Per-qubit depolarizing and dephasing rates of at most 0.3 and a
    visibility of at least 0.5: every syndrome expectation of an encoded
    state stays positive, so no sign sits on the threshold."""
    def rates():
        return st.dictionaries(st.sampled_from((1, 2, 3, 4, 5)), st.floats(0.0, 0.3))
    return NoiseModel(depolarizing=draw(rates()), dephasing=draw(rates()),
                      visibility=draw(st.floats(0.5, 1.0)), stage=stage)


@pytest.mark.parametrize("stage", ("post-resource", "post-encoding"))
@pytest.mark.parametrize("byproduct", BYPRODUCT_MODES)
@PIPELINE
@given(seeds, st.data())
def test_single_error_patterns_on_random_inputs(stage, byproduct, seed, data):
    """The 12 single-qubit errors give their predicted sign patterns, read
    as the syndrome table reads them, on Haar-random encoded inputs under
    random weak noise; the error-free pattern is (1, 1, 1)."""
    g = np.random.default_rng(seed).normal(size=(2, 2))
    alpha, beta = (g[0] + 1j * g[1]) / np.linalg.norm(g)
    rho = oracle.encoded_state(AncillaState(alpha, beta), data.draw(weak_noise(stage)),
                               byproduct)
    vec = kernel._pauli_vector(rho.matrix, len(CODE_QUBITS))
    assert code.SyndromeRecord(code._syndromes_of_vector(vec, CODE_QUBITS)).signs == (1, 1, 1)
    for letter, q in itertools.product("XYZ", CODE_QUBITS):
        injected = code._inject_in_pauli_vector(vec, CODE_QUBITS.index(q), letter)
        rec = code.SyndromeRecord(code._syndromes_of_vector(injected, CODE_QUBITS))
        assert rec.signs == code.predicted_syndrome_signs(PauliString.single(q, letter))


@pytest.mark.parametrize("stage", ("post-resource", "post-encoding"))
@pytest.mark.parametrize("byproduct", BYPRODUCT_MODES)
@pytest.mark.parametrize("error", ("none", "Y@4"))
def test_syndrome_table_matches_dense_oracle_row_for_row(stage, byproduct, error):
    noise = NoiseModel(depolarizing={1: 0.04, 3: 0.1, 5: 0.02}, dephasing={2: 0.07, 4: 0.03},
                       visibility=0.85, stage=stage)
    config = ExperimentConfig("syndrome-table", noise, byproduct=byproduct, error=error)
    rows = run_experiment(config).tables["syndrome_table"][1:]
    assert len(rows) == (48 if error == "none" else 4)
    assert rows == oracle.syndrome_table_rows(config)


def survivors(lost):
    return tuple(q for q in CODE_QUBITS if q != lost)


@pytest.mark.parametrize("lost", CODE_QUBITS)
@PIPELINE
@given(st.data())
def test_recover_average_matches_checked_oracle(lost, data):
    rho = data.draw(states(labels=tuple(data.draw(st.permutations(survivors(lost))))))
    recipe = recovery_recipe(lost)
    got, want = recover_average(rho, recipe), oracle.recover_average(rho, recipe)
    assert got.labels == want.labels == (recipe.output,)
    np.testing.assert_allclose(got.matrix, want.matrix, rtol=0, atol=ATOL)


@pytest.mark.parametrize("lost", CODE_QUBITS)
@PIPELINE
@given(st.data())
def test_recover_average_matches_oracle_for_non_pauli_recipes(lost, data):
    """A recipe whose frame and corrections are not Pauli matrices (frame H,
    one correction S, as a user may build one) recovers what the checked
    step-by-step oracle does: the transfer matrix reads each branch's
    unitary through its Pauli transfer matrix, not through sign flips."""
    base = recovery_recipe(lost)
    corrections = list(base.corrections)
    corrections[data.draw(st.integers(0, 3))] = kernel.S
    recipe = code.RecoveryRecipe(lost, base.helpers, base.output, tuple(corrections),
                                 base.correction_labels, kernel.H, "H")
    rho = data.draw(states(labels=tuple(data.draw(st.permutations(survivors(lost))))))
    got, want = recover_average(rho, recipe), oracle.recover_average(rho, recipe)
    assert got.labels == want.labels == (recipe.output,)
    np.testing.assert_allclose(got.matrix, want.matrix, rtol=0, atol=ATOL)


@pytest.mark.parametrize("lost", CODE_QUBITS)
def test_recovery_ptm_is_exact(lost):
    """On every order of the register, the trace row is exactly the unit
    vector at I...I, and rows X, Y and Z each hold exactly one nonzero entry,
    exactly +-1, at a word whose letter on each helper is I or that helper's
    basis: the recipe sends each logical Pauli to one output Pauli."""
    recipe = recovery_recipe(lost)
    for labels in itertools.permutations(survivors(lost)):
        ptm = code._recovery_ptm(recipe, labels)
        assert np.array_equal(ptm[0], np.eye(64)[0])
        for row in ptm[1:]:
            (word,) = np.flatnonzero(row)
            assert abs(row[word]) == 1.0
            letters = dict(zip(labels, np.unravel_index(word, (4, 4, 4))))
            for q, basis in recipe.helpers:
                assert letters[q] in (0, "IXYZ".index(basis)), (labels, word)


@pytest.mark.parametrize("lost", CODE_QUBITS)
def test_recovery_ptm_matches_kraus_oracle(lost):
    """The cached transfer matrix the runner and ``recover_average`` apply
    equals the Kraus stack's PTM, word by word, on every order of the
    register, and cannot be written to."""
    recipe = recovery_recipe(lost)
    for labels in itertools.permutations(survivors(lost)):
        got = code._recovery_ptm(recipe, labels)
        assert got.shape == (4, 64) and got is code._recovery_ptm(recipe, labels)
        np.testing.assert_allclose(got, recovery_ptm(recipe, labels), rtol=0, atol=1e-15)
        with pytest.raises(ValueError, match="read-only"):
            got[0, 0] = 0.0


@pytest.mark.parametrize("stage", ("post-resource", "post-encoding"))
@pytest.mark.parametrize("byproduct", BYPRODUCT_MODES)
@settings(deadline=None, max_examples=10)
@given(st.sampled_from(CODE_QUBITS), st.data())
def test_loss_recovery_outputs_match_dense_recovery(stage, byproduct, lost, data):
    """Under random noise the loss-recovery kind's outputs, read off the
    transfer matrix, equal the checked oracle's dense pipeline: encode, trace
    out the lost qubit, average the recipe's branches. Probe fidelities agree
    with ``state_fidelity`` and output Bloch vectors with the dense matrix's,
    and no output is flagged with a negative eigenvalue."""
    noise = data.draw(noise_maps((1, 2, 3, 4, 5), stage))
    built, build = [], runner.logical_density_from_expectations

    def recording(*expectations):
        built.append(build(*expectations))
        return built[-1]

    with mock.patch.object(runner, "logical_density_from_expectations", recording):
        summary = run_experiment(ExperimentConfig("loss-recovery", noise, lost=lost,
                                                  byproduct=byproduct)).summary
    recipe = recovery_recipe(lost)
    assert len(built) == len(PROBE_NAMES)
    for probe, out in zip(PROBE_NAMES, built):
        state = oracle.encoded_state(probe, noise, byproduct)
        want = oracle.recover_average(oracle.lose_qubit(state, lost), recipe)
        target = PureState.single(recipe.output, PROBES[probe].vector)
        assert abs(summary["probe_fidelities"][probe] - state_fidelity(want, target)) < ATOL
        np.testing.assert_allclose(out.bloch, kernel._pauli_vector(want.matrix, 1)[1:],
                                   rtol=0, atol=ATOL)
        assert not out.negative_eigenvalue


@pytest.mark.parametrize("stage", ("post-resource", "post-encoding"))
@pytest.mark.parametrize("byproduct", BYPRODUCT_MODES)
@pytest.mark.parametrize("lost", CODE_QUBITS)
@settings(deadline=None, max_examples=10)
@given(st.data())
def test_recovered_outputs_are_states_without_a_check(stage, byproduct, lost, data):
    """Under random noise each recovered output's Pauli 4-vector (b0, r) has
    b0 == 1 exactly and minimum eigenvalue (b0 - |r|) / 2 >= -EIG_ATOL, so the
    loss-recovery kind builds its outputs unchecked: every encoded vector's
    identity entry is exactly 1, the transfer matrix's trace row is exactly
    e_0, and the recovery is a channel. The kind's outputs are the Bloch
    parts r of these vectors."""
    noise = data.draw(noise_maps((1, 2, 3, 4, 5), stage))
    blochs = np.array([(1.0, *code.CARDINAL_BLOCH[p]) for p in PROBE_NAMES])
    traced = code._encoded_vectors(blochs, noise, byproduct).take(
        0, axis=1 + CODE_QUBITS.index(lost))
    recovered = traced.reshape(len(PROBE_NAMES), -1) \
        @ code._recovery_ptm(recovery_recipe(lost), survivors(lost)).T
    assert np.all(recovered[:, 0] == 1)
    eig_min = (recovered[:, 0] - np.linalg.norm(recovered[:, 1:], axis=1)).min() / 2
    assert eig_min >= -kernel.EIG_ATOL
    built, build = [], runner.logical_density_from_expectations

    def recording(*bloch):
        built.append(bloch)
        return build(*bloch)

    with mock.patch.object(runner, "logical_density_from_expectations", recording):
        run_experiment(ExperimentConfig("loss-recovery", noise, lost=lost, byproduct=byproduct))
    assert built == [tuple(b[1:]) for b in recovered]


@pytest.mark.parametrize("stage", ("post-resource", "post-encoding"))
@pytest.mark.parametrize("byproduct", BYPRODUCT_MODES)
@settings(deadline=None, max_examples=20)
@given(st.data())
def test_syndrome_values_lie_in_range_without_a_check(stage, byproduct, data):
    """Under random noise every syndrome the syndrome-table kind reads, and
    every value of its table, lies within 1 + EIG_ATOL of 0: each is a Pauli
    expectation of a state, and an error's flip keeps its magnitude."""
    noise = data.draw(noise_maps((1, 2, 3, 4, 5), stage))
    read, real = [], runner._syndromes_of_vector

    def recording(vec, labels):
        read.append(real(vec, labels))
        return read[-1]

    with mock.patch.object(runner, "_syndromes_of_vector", recording):
        bundle = run_experiment(ExperimentConfig("syndrome-table", noise, byproduct=byproduct))
    rows = bundle.tables["syndrome_table"][1:]
    assert len(read) == len(PROBE_NAMES) and len(rows) == 48
    values = [v for syndromes in read for v in syndromes] + [v for r in rows for v in r[3:6]]
    assert max(map(abs, values)) <= 1 + kernel.EIG_ATOL


@pytest.mark.parametrize("stage", ("post-resource", "post-encoding"))
@pytest.mark.parametrize("byproduct", BYPRODUCT_MODES)
@settings(deadline=None, max_examples=20)
@given(hnp.arrays(float, (3, 3), elements=st.floats(-1.0, 1.0)), st.data())
def test_ancilla_outcomes_have_probability_one_half(stage, byproduct, points, data):
    """Every ancilla projection of the encoder (X, on random inputs) and of
    the resource witness (Z, on the noisy resource) takes a branch of
    probability exactly 1/2 under random noise: <X3> = 0 on every encoding
    input and <Z3> = 0 on every noisy resource, so no branch can have zero
    probability."""
    noise = data.draw(noise_maps((1, 2, 3, 4, 5), stage))
    rs = points / np.maximum(1.0, np.linalg.norm(points, axis=1))[:, None]  # in the ball
    blochs = [(1.0, *r) for r in rs] + [(1.0, *code.CARDINAL_BLOCH[p]) for p in PROBE_NAMES]
    seen, real = [], code._project_pauli_vector

    def recording(*args):
        out = real(*args)
        seen.append(out[0])
        return out

    with mock.patch.object(code, "_project_pauli_vector", recording), \
            mock.patch.object(runner, "_project_pauli_vector", recording):
        code._encoded_vectors(blochs, noise, byproduct)
        run_experiment(ExperimentConfig("resource-witness", noise, trials=100))
    assert len(seen) == (1 if byproduct == "condition0" else 2) + 1
    assert all(np.all(p == 0.5) for p in seen)


def test_channel_report_constants_are_cached_read_only():
    """The reference chi matrices and the Bloch grid are built once per
    process and cannot be written to."""
    for get in (tomography.chi_identity, tomography.chi_hadamard, runner._bloch_grid):
        assert get() is get()
        array = get() if get is runner._bloch_grid else get().matrix
        with pytest.raises(ValueError, match="read-only"):
            array[0, 0] = 0.5
    assert runner._bloch_grid().shape == (42, 3)


@pytest.mark.parametrize("lost", CODE_QUBITS)
def test_recovery_kraus_operators_are_complete(lost):
    """sum_s K_s^dagger K_s = I for the oracle's Kraus stack of every recipe
    on every order of its register, so the channel it checks the transfer
    matrix against preserves trace."""
    recipe = recovery_recipe(lost)
    for labels in itertools.permutations(survivors(lost)):
        kraus = oracle.recovery_kraus(recipe, labels)
        assert kraus.shape == (8, 8)
        np.testing.assert_allclose(kraus.conj().T @ kraus, np.eye(8), rtol=0, atol=1e-14)


@pytest.mark.parametrize("lost", CODE_QUBITS)
@PIPELINE
@given(st.data(), seeds)
def test_lose_and_recover_match_checked_oracle(lost, data, seed):
    state = data.draw(states(labels=tuple(data.draw(st.permutations(CODE_QUBITS)))))
    reduced = lose_qubit(state, lost)
    want = oracle.lose_qubit(state, lost)
    assert reduced.labels == want.labels and np.array_equal(reduced.matrix, want.matrix)
    forced = data.draw(st.one_of(st.none(), st.tuples(st.sampled_from((0, 1)),
                                                      st.sampled_from((0, 1)))))
    recipe = recovery_recipe(lost)
    got_s, got = recover(reduced, recipe, forced, np.random.default_rng(seed))
    want_s, want = oracle.recover(reduced, recipe, forced, np.random.default_rng(seed))
    assert got_s == want_s and got.labels == want.labels
    assert np.array_equal(got.matrix, want.matrix)


@PROPERTY
@given(st.lists(st.integers(1, 6), min_size=2, max_size=6, unique=True), seeds)
def test_pure_and_density_loss_agree_bit_for_bit(labels, seed):
    """Losing any qubit of a pure state, through the (kept, lost) product,
    gives the partial trace of its density matrix bit for bit, on registers
    in random label order."""
    g = np.random.default_rng(seed).normal(size=(2, 2 ** len(labels)))
    psi = PureState(tuple(labels), (g[0] + 1j * g[1]) / np.linalg.norm(g))
    for q in labels:
        got, want = lose_qubit(psi, q), lose_qubit(psi.density(), q)
        assert got.labels == want.labels and np.array_equal(got.matrix, want.matrix)


@pytest.mark.parametrize("lost", CODE_QUBITS)
@PIPELINE
@given(st.data(), seeds)
def test_recover_matches_oracle_for_random_unitary_recipes(lost, data, seed):
    """A recipe with four random-unitary corrections and a random-unitary
    frame recovers what the checked oracle's contraction does, on every
    forced outcome pair and on drawn outcomes, and its output passes the
    checked constructor: the 2x2 fix needs no Pauli entries."""
    rng = np.random.default_rng(seed)
    base = recovery_recipe(lost)
    recipe = code.RecoveryRecipe(lost, base.helpers, base.output,
                                 tuple(random_unitary(2, rng) for _ in range(4)),
                                 ("U0", "U1", "U2", "U3"), random_unitary(2, rng), "V")
    state = data.draw(states(labels=tuple(data.draw(st.permutations(CODE_QUBITS)))))
    rho = lose_qubit(state, lost)
    for forced in (*itertools.product((0, 1), repeat=2), None):
        try:
            want_s, want = oracle.recover(rho, recipe, forced, np.random.default_rng(seed))
        except kernel.ZeroProbabilityError:
            with pytest.raises(kernel.ZeroProbabilityError):
                recover(rho, recipe, forced, np.random.default_rng(seed))
            continue
        got_s, got = recover(rho, recipe, forced, np.random.default_rng(seed))
        assert got_s == want_s and got.labels == want.labels == (recipe.output,)
        np.testing.assert_allclose(got.matrix, want.matrix, rtol=0, atol=ATOL)
        assert_rewraps(got)


def assert_rewraps(out):
    """``out``, built trusted, passes its checked constructor, which keeps its
    int labels and its read-only complex array bit for bit."""
    raw = kernel._raw(out)
    checked = type(out)(out.labels, raw)
    assert all(type(q) is int for q in out.labels) and checked.labels == out.labels
    assert raw.dtype == complex and not raw.flags.writeable
    assert kernel._raw(checked).shape == raw.shape and np.array_equal(kernel._raw(checked), raw)


@PROPERTY
@given(states(min_qubits=2), st.data(), seeds)
def test_derived_outputs_pass_the_checked_constructors(state, data, seed):
    """Every public output derived from checked inputs is built without a
    second check; each must pass that check unchanged. Kernel outputs on a
    random register, code outputs on a random state of the code qubits."""
    rng = np.random.default_rng(seed)
    targets = subset(data, state.labels, 3)
    measured = data.draw(st.sampled_from(state.labels))
    rho = state.density() if isinstance(state, PureState) else state
    outs = [kernel.apply_unitary(state, random_unitary(2 ** len(targets), rng), targets),
            kernel.projective_measure(state, measured, data.draw(st.sampled_from("XYZ")),
                                      rng=rng)[2],
            kernel.reorder(state, data.draw(st.permutations(state.labels))),
            kernel.reorder(rho, data.draw(st.permutations(state.labels))),
            kernel.partial_trace(rho, subset(data, state.labels)),
            kernel.maximally_mixed(state.labels), rho]
    v = rng.normal(size=2) + 1j * rng.normal(size=2)
    code_state = data.draw(states(labels=CODE_QUBITS))
    lost = data.draw(st.sampled_from(CODE_QUBITS))
    error = PauliString.single(data.draw(st.sampled_from(CODE_QUBITS)),
                               data.draw(st.sampled_from("XYZ")))
    lost_rho = lose_qubit(code_state, lost)
    outs += [encode(AncillaState(*(v / np.linalg.norm(v))), rng=rng)[1],
             code.inject_pauli_error(code_state, error), lost_rho,
             recover(lost_rho, recovery_recipe(lost), rng=rng)[1],
             recover_average(lost_rho, recovery_recipe(lost)),
             code.decode_no_loss(code_state, rng=rng)[1]]
    for out in outs:
        assert_rewraps(out)


@PROPERTY
@given(st.lists(st.integers(1, 6), min_size=1, max_size=6, unique=True), seeds,
       st.one_of(st.sampled_from((0.0, 0.9e-10, -0.9e-10, 1e-10, -1e-10, 1.8e-10)),
                 st.floats(-3e-10, 3e-10)))
def test_accepted_pure_state_rewraps_its_density(labels, seed, excess):
    """A ``PureState`` holds |psi|^2, its density's trace, to the tolerance
    ``DensityOperator`` holds that trace to: every accepted state's
    ``density()`` passes the checked constructor, and a refused state's
    density matrix is refused for its trace. The state's squared norm is
    1 + ``excess`` up to rounding, across the boundary at 1e-10."""
    g = np.random.default_rng(seed).normal(size=(2, 2 ** len(labels)))
    amps = (g[0] + 1j * g[1]) / np.linalg.norm(g) * math.sqrt(1 + excess)
    try:
        state = PureState(labels, amps)
    except ValueError as exc:
        assert str(exc).startswith("state not normalized: |psi| = ")
        with pytest.raises(ValueError, match="^density matrix trace "):
            DensityOperator(labels, np.outer(amps, amps.conj()))
    else:
        assert_rewraps(state.density())


@pytest.mark.parametrize("lost", CODE_QUBITS)
@PIPELINE
@given(seeds, st.sampled_from((0, 1)))
def test_recovery_restores_haar_random_input(lost, seed, s3):
    """Encode a Haar-random input on either ancilla outcome (the byproduct
    X_L removed), lose a code qubit, and every helper-outcome branch that
    can occur, and their average, returns the input on the recipe's output
    qubit."""
    g = np.random.default_rng(seed).normal(size=(2, 2))
    alpha, beta = (g[0] + 1j * g[1]) / np.linalg.norm(g)
    _, state = encode(AncillaState(alpha, beta), forced_s3=s3)
    if s3:
        xbar = logical_ops().xbar
        state = kernel.apply_unitary(state, xbar.dense(xbar.support), xbar.support)
    recipe = recovery_recipe(lost)
    reduced = lose_qubit(state, lost)
    target = PureState.single(recipe.output, [alpha, beta])
    branches = 0
    for outcomes in itertools.product((0, 1), repeat=2):
        try:
            _, out = recover(reduced, recipe, outcomes)
        except kernel.ZeroProbabilityError:
            continue
        branches += 1
        fidelity = state_fidelity(out, target)
        assert fidelity >= 1 - 1e-9, (outcomes, fidelity)
    assert branches > 0
    fidelity = state_fidelity(recover_average(reduced, recipe), target)
    assert fidelity >= 1 - 1e-12, fidelity


@st.composite
def channel_samples(draw):
    """Probe outputs of a random CPTP map (1-4 Kraus operators cut from a
    random isometry), or random Hermitian unit-trace matrices that need not
    be positive, as sampled tomography can give."""
    rng = np.random.default_rng(draw(seeds))
    if draw(st.booleans()):
        k = draw(st.integers(1, 4))
        isometry = random_unitary(2 * k, rng)[:, :2]
        kraus = [isometry[2 * m:2 * m + 2] for m in range(k)]
        outputs = {}
        for probe in PROBE_NAMES:
            v = PROBES[probe].vector
            rho = sum(a @ np.outer(v, v.conj()) @ a.conj().T for a in kraus)
            outputs[probe] = DensityOperator((1,), rho)
        return ChannelSample(outputs)
    # reconstruct_chi reads only the matrices, so these skip the PSD check
    return ChannelSample({
        probe: SimpleNamespace(num_qubits=1, matrix=0.5 * (kernel.I + np.tensordot(
            rng.normal(scale=0.8, size=3), np.stack((kernel.X, kernel.Y, kernel.Z)), 1)))
        for probe in PROBE_NAMES})


@PROPERTY
@given(channel_samples())
def test_process_tomography_matches_chi_oracle(sample):
    chi = reconstruct_chi(sample)
    want = oracle.reconstruct_chi({p: rho.matrix for p, rho in sample.outputs.items()})
    np.testing.assert_allclose(chi.matrix, want, rtol=0, atol=ATOL)
    for got, ref in zip(bloch_affine(chi), oracle.bloch_affine(want)):
        np.testing.assert_allclose(got, ref, rtol=0, atol=ATOL)
    assert abs(chi.trace_preservation_defect() - oracle.trace_preservation_defect(want)) < ATOL


@pytest.mark.parametrize("stage", ("post-resource", "post-encoding"))
@pytest.mark.parametrize("byproduct", BYPRODUCT_MODES)
@settings(deadline=None, max_examples=8)
@given(st.data())
def test_noisy_channels_are_cptp(stage, byproduct, data):
    """Encode-channel and every loss-recovery chi under random per-qubit
    noise are physical, and their Bloch images on the runner's grid do not
    expand the sphere (bloch_image would warn)."""
    noise = data.draw(noise_maps((1, 2, 3, 4, 5), stage))
    configs = [ExperimentConfig("encode-channel", noise, byproduct=byproduct)]
    configs += [ExperimentConfig("loss-recovery", noise, lost=lost, byproduct=byproduct)
                for lost in CODE_QUBITS]
    for config in configs:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            block = run_experiment(config).summary["chi"]
        chi = ChiMatrix(np.array(block["matrix_re"]) + 1j * np.array(block["matrix_im"]))
        assert chi.is_physical, (config.kind, config.lost, chi.min_eigenvalue,
                                 chi.trace_preservation_defect())


json_floats = st.one_of(
    st.floats(allow_subnormal=True),
    st.sampled_from((-0.0, 0.0, 5e-324, 1e-310, 1e16, -1e16, 1e-7, 0.1,
                     math.nan, math.inf, -math.inf)))
json_strings = st.one_of(st.text(max_size=8),
                         st.text(st.sampled_from('a\x00\x1f\x7f"\\/\u00e9\u2028\U0001f600'),
                                 max_size=6))
json_keys = st.one_of(json_strings, st.integers(-20, 20))
json_leaves = st.one_of(
    st.none(), st.booleans(), st.integers(-2 ** 80, 2 ** 80), json_floats, json_strings,
    json_floats.map(np.float64),  # a float subclass, written as json.dumps writes it
    st.lists(json_floats, max_size=5),  # float-only lists take the writer's joined path
    st.lists(st.one_of(json_floats, st.booleans(), st.integers(-3, 3)), max_size=5))
json_documents = st.recursive(
    json_leaves,
    lambda children: st.one_of(st.lists(children, max_size=4),
                               st.lists(children, max_size=4).map(tuple),
                               st.dictionaries(json_keys, children, max_size=4)),
    max_leaves=25)


@settings(deadline=None, max_examples=300)
@given(json_documents)
def test_json_writer_matches_stdlib_oracle(doc):
    """The runner's one-pass writer gives the text of ``oracle.sanitize`` (keys
    as strings) then ``json.dumps(sort_keys=True, indent=2)``, byte for byte."""
    assert runner._json_text(doc) == oracle.json_text(doc)


@PROPERTY
@given(json_documents, st.sampled_from((np.int64(1), np.arange(2), 1j, np.bool_(True),
                                        np.complex64(1j), object(), {1, 2}, b"bytes")),
       st.sampled_from(("list", "dict", "bare")))
def test_json_writer_refuses_what_the_oracle_refuses(doc, bad, where):
    """A value the stdlib writer refuses, such as a numpy integer or bool, an
    array or a complex number, raises ``TypeError`` in the one-pass writer
    too: it converts no value."""
    wrapped = {"list": [doc, bad], "dict": {"ok": doc, "bad": bad}, "bare": bad}[where]
    with pytest.raises(TypeError):
        oracle.json_text(wrapped)
    with pytest.raises(TypeError):
        runner._json_text(wrapped)


JSON_TYPES = (dict, list, tuple, str, int, float, bool, type(None))


def json_native(value) -> bool:
    """``value`` and everything in it is of a type in ``JSON_TYPES`` exactly."""
    if type(value) is dict:
        return all(map(json_native, value.values()))
    if type(value) in (list, tuple):
        return all(map(json_native, value))
    return type(value) in JSON_TYPES


@st.composite
def run_fields(draw):
    """The fields of a valid config but its kind: random noise, probes,
    error, lost qubit, byproduct mode, seed and target, at counts down to 20
    per setting, few trials and short sweeps."""
    stage = draw(st.sampled_from(("post-resource", "post-encoding")))
    return dict(
        noise=draw(noise_maps((1, 2, 3, 4, 5), stage)),
        probes=tuple(draw(st.lists(st.sampled_from(PROBE_NAMES), min_size=1, unique=True))),
        error=draw(st.sampled_from(("none", "Z@1", "X@4", "Y@5"))),
        lost=draw(st.sampled_from(CODE_QUBITS)),
        counts_per_setting=draw(st.one_of(st.floats(20.0, 40.0), st.floats(40.0, 1e4))),
        trials=draw(st.integers(100, 150)), seed=draw(st.integers(0, 2 ** 40)),
        byproduct=draw(st.sampled_from(BYPRODUCT_MODES)),
        sweep_points=draw(st.integers(3, 8)),
        target_fidelity=draw(st.floats(0.01, 0.99)))


@pytest.mark.parametrize("kind", runner.KINDS)
@settings(deadline=None, max_examples=20)
@given(run_fields())
@example({"counts_per_setting": 20.0})  # noiseless: a sampled logical matrix is unphysical
def test_runs_hand_the_writer_only_json_values(kind, fields):
    """Every value a run puts in its summary and provenance is a dict, list,
    tuple, str, int, float, bool or None, so the writer has nothing to
    convert, also where a sparse sampled logical matrix comes out
    unphysical and is reported as such."""
    bundle = run_experiment(ExperimentConfig(kind, **fields))
    assert json_native(bundle.summary), bundle.summary
    assert json_native(bundle.provenance), bundle.provenance


# Cells a bundle table may hold, and the ones csv quotes or writes otherwise:
# strings with a comma, quote, CR or newline, empty strings and None.
plain_csv_cells = st.one_of(
    st.text(st.sampled_from("ab -.e_"), max_size=4), st.booleans(),
    st.integers(-10 ** 20, 10 ** 20), st.sampled_from((math.nan, math.inf, -math.inf, -0.0)),
    st.integers(-10 ** 13, 10 ** 13).map(lambda k: round(k * 1e-12, 12)))
special_csv_cells = st.one_of(
    st.sampled_from((",", '"', "\r", "\n", "a,b", 'a"b', "a\rb", "a\nb", "\r\n", "", None)),
    st.text(st.sampled_from('a,"\r\n '), min_size=1, max_size=3))


@st.composite
def csv_tables(draw):
    """A table of plain cells in tuple or list rows, with at most a few
    special cells put in, and at times a row that is one empty field."""
    rows = draw(st.lists(st.lists(plain_csv_cells, max_size=5), max_size=6))
    for _ in range(draw(st.integers(0, 2))):
        cell, row = draw(special_csv_cells), draw(st.integers(0, len(rows)))
        if row == len(rows):
            rows.append([])
        rows[row].insert(draw(st.integers(0, len(rows[row]))), cell)
    if draw(st.booleans()):
        rows.insert(draw(st.integers(0, len(rows))), [""])
    return [tuple(row) if draw(st.booleans()) else row for row in rows]


@settings(deadline=None, max_examples=400)
@given(csv_tables())
@example([(1, "a,b")])
@example([('a"b', 0.5)])
@example([("a\rb",)])
@example([["a\nb", True]])
@example([("",)])
@example([(None, 1)])
@example([(1, 2), (3,), (4, 5, 6)])
def test_table_csv_matches_stdlib_writer(rows):
    """``table_csv`` writes a table as ``csv.writer(lineterminator="\\n")``
    does, byte for byte: filled into one template, or by csv itself where
    the rows are ragged or a cell needs its quoting or its handling of
    empty and None fields."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    bundle = runner.ReportBundle({}, {"t": rows}, {}, {})
    assert bundle.table_csv("t") == buf.getvalue()


def svg_coordinates(cx):
    """Bloch coordinates, and ones that put cx + 100 x within 1e-12 of a
    rounding boundary of ``%.1f`` or just below zero, where it prints as
    ``-0.0``; their negatives do the same for 120 - 100 z."""
    return st.one_of(
        st.floats(-1.0, 1.0), st.floats(-2.0, 5.0),
        st.builds(lambda k, d: (k / 10 + 0.05 + d - cx) / 100,
                  st.integers(-100, 5000), st.floats(-1e-12, 1e-12)),
        st.builds(lambda d: (-d - cx) / 100, st.floats(0.0, 0.049)))


@PROPERTY
@given(st.sampled_from((120, 350)), st.data())
def test_svg_disc_matches_per_point_oracle(cx, data):
    """The disc's ``%``-template, filled from coordinates computed at the
    array, prints every point as the per-point f-string did."""
    coords = st.tuples(svg_coordinates(cx), st.floats(-1.0, 1.0),
                       svg_coordinates(120).map(operator.neg))
    points = np.array(data.draw(st.lists(coords, max_size=50)), dtype=float).reshape(-1, 3)
    got = runner._svg_disc(cx, points, "red")
    assert got == "\n".join(oracle.svg_disc(cx, points.tolist(), "red"))


@st.composite
def configs(draw):
    """A valid config of any kind, with uniform or per-qubit noise."""
    stage = draw(st.sampled_from(("post-resource", "post-encoding")))
    return ExperimentConfig(
        kind=draw(st.sampled_from(runner.KINDS)),
        noise=draw(noise_maps((1, 2, 3, 4, 5), stage)),
        probes=tuple(draw(st.lists(st.sampled_from(PROBE_NAMES), min_size=1, unique=True))),
        error=draw(st.sampled_from(("none", "Z@1", "X@4", "Y@5"))),
        lost=draw(st.sampled_from(CODE_QUBITS)),
        counts_per_setting=draw(st.floats(1.0, 1e4)),
        trials=draw(st.integers(100, 1000)),
        seed=draw(st.integers(0, 2 ** 40)),
        byproduct=draw(st.sampled_from(BYPRODUCT_MODES)),
        sweep_points=draw(st.integers(3, 50)),
        target_fidelity=draw(st.floats(0.01, 0.99)),
        out_dir=draw(st.one_of(st.none(), st.text("ab/.-_", min_size=1, max_size=8))),
        formats=tuple(draw(st.lists(st.sampled_from(runner.FORMATS), unique=True))))


@PROPERTY
@given(configs())
def test_config_dict_equals_asdict(config):
    """``to_dict`` equals ``asdict`` and keeps the digest; its
    noise maps are copies, so changing them leaves the config as it was."""
    want = asdict(config)
    digest = runner._digest(want)
    got = config.to_dict()
    assert got == want
    assert config.digest() == digest
    for value in got["noise"].values():
        if isinstance(value, dict):
            value[7] = 0.5
    got["noise"]["visibility"] = 0.25
    assert config.to_dict() == want
    assert config.digest() == digest


@PROPERTY
@given(configs(), st.sampled_from([None, "numpy", "fraction"]))
def test_digest_equals_sanitized_stdlib_hash(config, numbers_as):
    """The digest writes the config dict directly and equals the hash of the
    sanitized copy's ``json.dumps``: with numpy integer seeds, trials and
    sweep points, numpy float counts and targets, Fraction counts, targets
    and visibilities, and uniform or per-qubit noise. The dict holds Python
    values only."""
    if numbers_as == "numpy":
        config = replace(config, seed=np.int64(config.seed), trials=np.int64(config.trials),
                         sweep_points=np.int32(config.sweep_points),
                         counts_per_setting=np.float64(config.counts_per_setting),
                         target_fidelity=np.float32(config.target_fidelity))
    elif numbers_as == "fraction":  # each Fraction equals its float exactly
        floats = config
        config = replace(config, counts_per_setting=Fraction(config.counts_per_setting),
                         target_fidelity=Fraction(config.target_fidelity),
                         noise=replace(config.noise,
                                       visibility=Fraction(config.noise.visibility)))
        assert config.digest() == floats.digest()
    d = config.to_dict()

    def plain(value):
        if type(value) in (tuple, dict):
            return all(map(plain, value.values() if type(value) is dict else value))
        return type(value) in (int, float, str, bool, type(None))

    assert plain(d), d
    blob = json.dumps(oracle.sanitize(d), sort_keys=True)
    assert runner._digest(d) == config.digest() == hashlib.sha256(blob.encode()).hexdigest()


@PROPERTY
@given(st.tuples(*[st.floats(-1.1, 1.1)] * 3))
def test_logical_matrix_checks_match_eigvalsh(r):
    """The closed-form minimum eigenvalue (1 - |r|) / 2 flags and refuses
    the logical matrix (I + r.sigma) / 2 exactly where ``eigvalsh`` would."""
    mat = 0.5 * (kernel.I + r[0] * kernel.X + r[1] * kernel.Y + r[2] * kernel.Z)
    eig = np.linalg.eigvalsh(mat).min()
    for bound in (kernel.EIG_ATOL, tomography.NEGATIVITY_TOLERANCE):
        assume(abs(eig + bound) > 1e-12)
    if eig < -tomography.NEGATIVITY_TOLERANCE:
        with pytest.raises(ValueError, match="unphysical"):
            tomography.logical_density_from_expectations(*r)
    else:
        ldm = tomography.logical_density_from_expectations(*r)
        assert ldm.negative_eigenvalue == (eig < -kernel.EIG_ATOL)
        np.testing.assert_array_equal(ldm.matrix, mat)
        assert_logical_rewraps(ldm)


def assert_logical_rewraps(ldm):
    """``ldm``, built trusted, passes the checked ``LogicalDensityMatrix``
    constructor with every field unchanged."""
    checked = tomography.LogicalDensityMatrix(ldm.matrix, ldm.expectations,
                                              ldm.negative_eigenvalue)
    assert np.array_equal(checked.matrix, ldm.matrix) and checked.matrix.shape == (2, 2)
    assert checked.expectations == ldm.expectations
    assert all(type(e) is float for e in ldm.expectations)
    assert type(ldm.negative_eigenvalue) is bool
    assert checked.negative_eigenvalue is ldm.negative_eigenvalue


@pytest.mark.parametrize("kind", ("encode-tomography", "encode-channel", "loss-recovery"))
@settings(deadline=None, max_examples=5)
@given(st.data())
def test_runner_logical_matrices_pass_the_checked_constructor(kind, data):
    """Every logical matrix a run builds, exact or sampled, under random
    noise, passes the checked constructor unchanged."""
    stage = data.draw(st.sampled_from(("post-resource", "post-encoding")))
    noise = data.draw(noise_maps((1, 2, 3, 4, 5), stage))
    built, build = [], tomography.logical_density_from_expectations

    def recording(*expectations):
        built.append(build(*expectations))
        return built[-1]

    with mock.patch.object(tomography, "logical_density_from_expectations", recording), \
            mock.patch.object(runner, "logical_density_from_expectations", recording):
        run_experiment(ExperimentConfig(kind, noise, lost=data.draw(st.sampled_from(CODE_QUBITS)),
                                        trials=100))
    assert len(built) >= len(PROBE_NAMES)
    for ldm in built:
        assert_logical_rewraps(ldm)


STREAM_SEEDS = (0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 64 - 1, 2 ** 64, 2 ** 96 + 3, 2 ** 128 + 9,
                2 ** 200 + 1)


@functools.cache
def runner_streams() -> tuple[int, ...]:
    """Every stream a sampled run draws from, the Monte Carlo stream
    included: recorded from one resource-witness run and one
    encode-tomography run of every probe."""
    seen = set()
    derive = sampling._stream_states
    with mock.patch.object(sampling, "_stream_states",
                           lambda seed, streams: seen.update(streams) or derive(seed, streams)):
        for kind in ("resource-witness", "encode-tomography"):
            runner.run_experiment(ExperimentConfig(kind, probes=PROBE_NAMES, trials=100))
    assert {100, 101, 200, 201, sampling._MC_STREAM} <= seen
    assert any(300 <= s < 400 for s in seen) and any(700 <= s < 800 for s in seen)
    return tuple(sorted(seen))


def assert_streams_are_default_rng(seed, streams):
    """Each stream's row of the one-pass derivation is the SeedSequence state
    of (seed, stream), and the generator built on it is
    ``np.random.default_rng((seed, stream))``: the same PCG64 state, the same
    first Poisson and multinomial draws."""
    states = sampling._stream_states(seed, streams)
    assert states.dtype == np.uint64 and states.shape == (len(streams), 4)
    for stream, words in zip(streams, states):
        assert np.array_equal(words, np.random.SeedSequence((seed, stream))
                              .generate_state(4, np.uint64)), (seed, stream)
        got, want = sampling._generator(words), np.random.default_rng((seed, stream))
        assert got.bit_generator.state == want.bit_generator.state, (seed, stream)
        assert got.poisson(500.0) == want.poisson(500.0)
        assert np.array_equal(got.multinomial(1000, (0.2, 0.3, 0.5)),
                              want.multinomial(1000, (0.2, 0.3, 0.5)))


@pytest.mark.parametrize("seed", STREAM_SEEDS)
def test_stream_states_are_default_rng_at_word_boundaries(seed):
    """Seeds of one to seven 32-bit words with streams of one and two words
    in the same pass, so that entropy of 2 to 9 words, past the 4-word pool
    or not, is mixed lane by lane. If numpy ever changes SeedSequence, this
    test, and not only the golden bundles, fails."""
    assert_streams_are_default_rng(seed, (0, 2 ** 32 - 1, 2 ** 32) + runner_streams())


@PROPERTY
@given(st.integers(0, 2 ** 63 - 1))
def test_stream_states_are_default_rng_on_random_seeds(seed):
    assert_streams_are_default_rng(seed, (0, 2 ** 32 - 1, 2 ** 32) + runner_streams())


@pytest.mark.parametrize("seed, stream", [(-1, 0), (0, -1), (-(2 ** 64), 100)])
def test_negative_seed_or_stream_raises_as_default_rng_does(seed, stream):
    with pytest.raises(ValueError, match="^expected non-negative integer$"):
        np.random.default_rng((seed, stream))
    with pytest.raises(ValueError, match="^expected non-negative integer$"):
        sampling._stream_states(seed, (100, stream))
