import math
import re

import numpy as np
import pytest

from graphqec import kernel
from graphqec.code import lose_qubit
from graphqec.kernel import (DensityOperator, Observable, PureState, apply_unitary,
                             expectation, maximally_mixed, overlap, partial_trace,
                             projective_measure, reorder)
from oracle import states_equal, tensor_product

RT2 = math.sqrt(2)


def bell(kind: str) -> np.ndarray:
    """Independent Bell-state amplitude tables (indexing done by hand)."""
    v = np.zeros(4, dtype=complex)
    if kind == "phi+":
        v[0b00], v[0b11] = 1, 1
    elif kind == "phi-":
        v[0b00], v[0b11] = 1, -1
    elif kind == "psi+":
        v[0b01], v[0b10] = 1, 1
    else:
        v[0b01], v[0b10] = 1, -1
    return v / RT2


def zero_logical_oracle() -> np.ndarray:
    """|0_L> on (1,2,4,5) built by brute-force index arithmetic from the
    Bell-pair formula (pairs (1,5) and (4,2)); no kernel routines used."""
    amps = np.zeros(16, dtype=complex)
    for pair15, pair42, sign in (("phi-", "phi-", 1), ("psi-", "psi-", -1)):
        a, b = bell(pair15), bell(pair42)
        for i15 in range(4):
            for i42 in range(4):
                b1, b5 = i15 >> 1, i15 & 1
                b4, b2 = i42 >> 1, i42 & 1
                idx = b1 << 3 | b2 << 2 | b4 << 1 | b5
                amps[idx] += sign * a[i15] * b[i42] / RT2
    return amps


def random_state(labels, rng) -> PureState:
    v = rng.normal(size=2 ** len(labels)) + 1j * rng.normal(size=2 ** len(labels))
    return PureState(labels, v / np.linalg.norm(v))


def with_entry(base, value, where: str) -> np.ndarray:
    """A copy of the 2x2 ``base`` with ``value`` at (0, 0), or at (0, 1) and
    (1, 0) when ``where`` is "off-diagonal"."""
    m = np.array(base, dtype=complex)
    if where == "diagonal":
        m[0, 0] = value
    else:
        m[0, 1] = m[1, 0] = value
    return m


def random_unitary(dim, rng) -> np.ndarray:
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(m)
    return q * (np.diag(r) / np.abs(np.diag(r)))


class TestTensorProduct:
    def test_zero_times_plus(self):
        out = tensor_product(PureState.single(1, kernel.KET0), PureState.single(2, kernel.PLUS))
        np.testing.assert_allclose(out.amplitudes, [1 / RT2, 1 / RT2, 0, 0], atol=1e-12)

    def test_plus_plus_uniform(self):
        out = tensor_product(PureState.single(1, kernel.PLUS), PureState.single(2, kernel.PLUS))
        np.testing.assert_allclose(out.amplitudes, [0.5] * 4, atol=1e-12)

    def test_bell_pair_product_overlaps_logical_zero(self):
        # |phi->_15 x |phi->_42 reordered to (1,2,4,5) is one of the two
        # components of |0_L>; overlap must be exactly 1/sqrt(2).
        prod = tensor_product(PureState((1, 5), bell("phi-")), PureState((4, 2), bell("phi-")))
        reordered = reorder(prod, (1, 2, 4, 5))
        target = PureState((1, 2, 4, 5), zero_logical_oracle())
        assert abs(overlap(reordered, target) - 1 / RT2) < 1e-10

    def test_label_collision(self):
        with pytest.raises(ValueError, match="collision"):
            tensor_product(PureState.single(1, kernel.KET0), PureState.single(1, kernel.PLUS))


class TestApplyUnitary:
    def test_cz_on_plus_plus(self):
        state = tensor_product(PureState.single(1, kernel.PLUS), PureState.single(2, kernel.PLUS))
        out = apply_unitary(state, kernel.CZ, (1, 2))
        expected = np.array([1, 1, 1, -1], dtype=complex) / 2
        np.testing.assert_allclose(out.amplitudes, expected, atol=1e-12)

    def test_hadamard(self):
        out = apply_unitary(PureState.single(1, kernel.KET0), kernel.H, (1,))
        assert states_equal(out, PureState.single(1, kernel.PLUS))

    def test_sqrt_mz_squares_to_minus_iz(self):
        # applying the Z-rotation twice equals -iZ; phase-insensitive check
        rng = np.random.default_rng(11)
        state = random_state((1, 2, 3), rng)
        twice = apply_unitary(apply_unitary(state, kernel.SQRT_MINUS_IZ, (3,)),
                              kernel.SQRT_MINUS_IZ, (3,))
        direct = apply_unitary(state, -1j * kernel.Z, (3,))
        assert states_equal(twice, direct)

    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError, match="unitary"):
            apply_unitary(PureState.single(1, kernel.KET0), np.array([[1, 0], [0, 2]]), (1,))

    @pytest.mark.parametrize("seed", range(5))
    def test_norm_and_trace_preserved(self, seed):
        rng = np.random.default_rng(seed)
        state = random_state((1, 2, 4, 5), rng)
        u = random_unitary(4, rng)
        out = apply_unitary(state, u, (2, 5))
        assert abs(np.linalg.norm(out.amplitudes) - 1) < 1e-10
        rho_out = apply_unitary(state.density(), u, (2, 5))
        assert abs(np.trace(rho_out.matrix) - 1) < 1e-10


class TestPartialTrace:
    def test_bell_marginal_is_mixed(self):
        rho = PureState((1, 2), bell("phi+")).density()
        red = partial_trace(rho, (1,))
        np.testing.assert_allclose(red.matrix, np.eye(2) / 2, atol=1e-12)

    def test_logical_plus_loses_one_qubit_to_purity_half(self):
        # (|0_L> + |1_L>)/sqrt(2) from the oracle amplitude tables
        plus = PureState((1, 2, 4, 5), (zero_logical_oracle() + one_logical_oracle()) / RT2)
        red = partial_trace(plus.density(), (2, 5, 1))
        assert abs(red.purity() - 0.5) < 1e-10

    def test_keep_all_is_identity(self):
        rng = np.random.default_rng(5)
        rho = random_state((1, 2, 3), rng).density()
        red = partial_trace(rho, (1, 2, 3))
        np.testing.assert_allclose(red.matrix, rho.matrix, atol=1e-12)

    def test_empty_keep_rejected(self):
        rho = PureState((1, 2), bell("phi+")).density()
        with pytest.raises(ValueError, match="non-empty"):
            partial_trace(rho, ())

    @pytest.mark.parametrize("seed", range(4))
    def test_trace_composition(self, seed):
        rng = np.random.default_rng(100 + seed)
        rho = random_state((1, 2, 4, 5), rng).density()
        via = partial_trace(partial_trace(rho, (1, 2, 4)), (1, 2))
        direct = partial_trace(rho, (1, 2))
        np.testing.assert_allclose(via.matrix, direct.matrix, atol=1e-10)


def one_logical_oracle() -> np.ndarray:
    amps = np.zeros(16, dtype=complex)
    for pair15, pair42 in (("psi+", "phi+"), ("phi+", "psi+")):
        a, b = bell(pair15), bell(pair42)
        for i15 in range(4):
            for i42 in range(4):
                b1, b5 = i15 >> 1, i15 & 1
                b4, b2 = i42 >> 1, i42 & 1
                amps[b1 << 3 | b2 << 2 | b4 << 1 | b5] += a[i15] * b[i42] / RT2
    return amps


class TestExpectation:
    def test_z_on_zero(self):
        obs = Observable((1,), kernel.Z)
        assert abs(expectation(PureState.single(1, kernel.KET0), obs) - 1) < 1e-12

    def test_syndrome_on_logical_plus(self):
        zero, one = zero_logical_oracle(), one_logical_oracle()
        plus = PureState((1, 2, 4, 5), (zero + one) / RT2)
        s1 = np.kron(np.kron(kernel.Y, kernel.Z), np.kron(kernel.Z, kernel.Y))
        assert abs(expectation(plus, Observable((1, 2, 4, 5), s1)) - 1) < 1e-10

    def test_traceless_on_maximally_mixed(self):
        obs_mat = kernel.X
        for _ in range(4):
            obs_mat = np.kron(obs_mat, kernel.X)
        val = expectation(maximally_mixed((1, 2, 3, 4, 5)), Observable((1, 2, 3, 4, 5), obs_mat))
        assert abs(val) < 1e-12


class TestProjectiveMeasure:
    def test_plus_in_z_is_even(self):
        state = tensor_product(PureState.single(1, kernel.PLUS), PureState.single(2, kernel.KET0))
        for outcome in (0, 1):
            _, p, post = projective_measure(state, 1, "Z", forced_outcome=outcome)
            assert abs(p - 0.5) < 1e-12
            assert post.labels == (2,)

    def test_branch_probabilities_sum_to_one(self):
        rng = np.random.default_rng(42)
        for _ in range(10):
            state = random_state((1, 2, 3), rng)
            for basis in "XYZ":
                _, p0, _ = projective_measure(state, 2, basis, forced_outcome=0)
                _, p1, _ = projective_measure(state, 2, basis, forced_outcome=1)
                assert abs(p0 + p1 - 1) < 1e-10

    def test_forced_zero_probability_branch_errors(self):
        state = tensor_product(PureState.single(1, kernel.KET0), PureState.single(2, kernel.PLUS))
        with pytest.raises(ValueError, match="zero-probability"):
            projective_measure(state, 1, "Z", forced_outcome=1)

    @pytest.mark.parametrize("basis", "XYZ")
    @pytest.mark.parametrize("outcome", (0, 1))
    @pytest.mark.parametrize("mixed", (False, True))
    def test_zero_probability_branch_in_each_basis(self, basis, outcome, mixed):
        """Qubit 2 is the eigenvector of the other outcome: forcing this one
        raises, and an unforced draw always takes the other."""
        rng = np.random.default_rng(5)
        state = tensor_product(tensor_product(
            random_state((1,), rng), PureState.single(2, kernel.BASIS_VECTORS[basis][1 - outcome])),
            random_state((3,), rng))
        if mixed:
            state = state.density()
        with pytest.raises(kernel.ZeroProbabilityError, match="zero-probability"):
            projective_measure(state, 2, basis, forced_outcome=outcome)
        for seed in range(4):
            s, p, post = projective_measure(state, 2, basis, rng=np.random.default_rng(seed))
            assert s == 1 - outcome and abs(p - 1) < 1e-12 and post.labels == (1, 3)

    @pytest.mark.parametrize("bad", (0.7, 1.0, "1", 2, -1, np.float64(0.0)))
    def test_forced_outcome_must_be_integral_0_or_1(self, bad):
        state = tensor_product(PureState.single(1, kernel.PLUS), PureState.single(2, kernel.KET0))
        with pytest.raises(ValueError, match="forced_outcome must be 0 or 1"):
            projective_measure(state, 1, "Z", forced_outcome=bad)

    def test_integral_forced_outcomes_accepted(self):
        state = tensor_product(PureState.single(1, kernel.PLUS), PureState.single(2, kernel.KET0))
        for good, want in ((np.int64(1), 1), (True, 1), (np.uint8(0), 0)):
            s, _, _ = projective_measure(state, 1, "Z", forced_outcome=good)
            assert s == want and type(s) is int

    def test_sampled_outcome_matches_forced_branch(self):
        rng = np.random.default_rng(9)
        state = random_state((1, 2), rng)
        out, p, post = projective_measure(state, 1, "X", rng=np.random.default_rng(0))
        _, p_forced, post_forced = projective_measure(state, 1, "X", forced_outcome=out)
        assert abs(p - p_forced) < 1e-12
        assert states_equal(post, post_forced)


class TestStateChecks:
    def test_global_phase_equivalence(self):
        rng = np.random.default_rng(1)
        a = random_state((1, 2), rng)
        b = PureState((1, 2), np.exp(1j * 0.7) * a.amplitudes)
        assert states_equal(a, b)
        c = random_state((1, 2), rng)
        assert not states_equal(a, c)

    def test_density_validation(self):
        with pytest.raises(ValueError, match="Hermitian"):
            DensityOperator((1,), np.array([[0.5, 0.5], [0.2, 0.5]]))
        with pytest.raises(ValueError, match="trace"):
            DensityOperator((1,), np.eye(2))
        with pytest.raises(ValueError, match="PSD"):
            DensityOperator((1,), np.diag([1.5, -0.5]))

    def test_state_normalization_enforced(self):
        with pytest.raises(ValueError, match="normalized"):
            PureState((1,), np.array([1.0, 1.0]))

    def test_norm_is_held_as_the_density_trace(self):
        """|psi| = 1 + 0.9e-10 puts the density's trace 1.8e-10 off, which
        DensityOperator refuses, so the state is refused too; a state that
        is accepted re-wraps its density."""
        with pytest.raises(ValueError, match=re.escape("state not normalized: |psi| = 1.0000")):
            PureState((1,), [1 + 0.9e-10, 0])
        state = PureState((1,), [1 + 0.4e-10, 0])
        DensityOperator(state.labels, state.density().matrix)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("amps", ([math.nan, 0], [1, math.nan], [complex(1, math.nan), 0],
                                      [math.inf, 0], [1, -math.inf]))
    def test_non_finite_amplitude_refused(self, amps):
        """NaN fails every tolerance comparison, so each check is written to
        pass only a defect within tolerance, never to fail one above it."""
        with pytest.raises(ValueError, match="state not normalized"):
            PureState((1,), amps)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("where", ("diagonal", "off-diagonal"))
    @pytest.mark.parametrize("value", (math.nan, math.inf, complex(0, math.nan)))
    def test_non_finite_density_refused(self, value, where):
        with pytest.raises(ValueError, match="density matrix not Hermitian"):
            DensityOperator((1,), with_entry(np.eye(2) / 2, value, where))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("where", ("diagonal", "off-diagonal"))
    @pytest.mark.parametrize("value", (math.nan, math.inf, complex(0, math.nan)))
    def test_non_finite_observable_refused(self, value, where):
        with pytest.raises(ValueError, match="observable not Hermitian"):
            Observable((1,), with_entry(np.eye(2), value, where))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("where", ("diagonal", "off-diagonal"))
    @pytest.mark.parametrize("value", (math.nan, math.inf, complex(0, math.nan)))
    def test_non_finite_unitary_refused(self, value, where):
        state = PureState((1,), [1, 0])
        with pytest.raises(ValueError, match="not unitary"):
            apply_unitary(state, with_entry(np.eye(2), value, where), (1,))

    def test_reorder_requires_permutation(self):
        state = tensor_product(PureState.single(1, kernel.KET0),
                               PureState.single(2, kernel.PLUS))
        with pytest.raises(ValueError, match="permutation"):
            reorder(state, (1, 3))

    @pytest.mark.parametrize("bad", (1.5, 2.0, np.float64(2.0), True, False, "1", None))
    def test_labels_must_be_integers(self, bad):
        """int() would truncate 1.5, read True as 1 and parse "1"."""
        message = re.escape(f"qubit label {bad!r} is not an integer")
        with pytest.raises(ValueError, match=message):
            PureState((bad, 3), np.full(4, 0.5))
        with pytest.raises(ValueError, match=message):
            DensityOperator((bad, 3), np.eye(4) / 4)
        with pytest.raises(ValueError, match=message):
            Observable((3, bad), np.eye(4))

    def test_maximally_mixed_reads_a_generator_of_labels_once(self):
        rho = maximally_mixed(q for q in (1, 2))
        assert rho.labels == (1, 2)
        assert np.array_equal(rho.matrix, np.eye(4) / 4)

    def test_maximally_mixed_refuses_a_label_that_is_not_an_integer(self):
        with pytest.raises(ValueError, match=re.escape("qubit label 2.0 is not an integer")):
            maximally_mixed([1, 2.0])

    @pytest.mark.parametrize("bad", (2.0, np.float64(2.0), True))
    def test_reorder_and_partial_trace_refuse_labels_equal_to_an_integer(self, bad):
        state = random_state((1, 2), np.random.default_rng(4))
        message = re.escape(f"qubit label {bad!r} is not an integer")
        with pytest.raises(ValueError, match=message):
            reorder(state, (bad, 3 - bad))
        with pytest.raises(ValueError, match=message):
            partial_trace(state.density(), (bad,))

    @pytest.mark.parametrize("bad", (2.0, np.float64(2.0), True))
    def test_targets_measured_and_lost_qubits_follow_the_label_rule(self, bad):
        """A target, a measured qubit or a lost qubit equal to a label but not
        an integer is refused, naming the value, not read as that label."""
        state = random_state((1, 2), np.random.default_rng(5))
        message = re.escape(f"qubit label {bad!r} is not an integer")
        for state_ in (state, state.density()):
            with pytest.raises(ValueError, match=message):
                apply_unitary(state_, kernel.X, (bad,))
            with pytest.raises(ValueError, match=message):
                kernel.projective_measure(state_, bad, "Z", 0)
            with pytest.raises(ValueError, match=message):
                lose_qubit(state_, bad)

    def test_integral_targets_measured_and_lost_qubits_are_read(self):
        state = random_state((1, 2), np.random.default_rng(5))
        assert states_equal(apply_unitary(state, kernel.X, (np.int64(2),)),
                            apply_unitary(state, kernel.X, (2,)))
        assert kernel.projective_measure(state, np.uint8(1), "Z", 0)[2].labels == (2,)
        assert lose_qubit(state, np.int32(2)).labels == (1,)

    def test_integral_labels_become_ints(self):
        state = PureState((np.int64(2), np.uint8(1)), np.full(4, 0.5))
        assert state.labels == (2, 1) and all(type(q) is int for q in state.labels)

    def test_reorder_roundtrip(self):
        rng = np.random.default_rng(3)
        state = random_state((1, 2, 4), rng)
        back = reorder(reorder(state, (4, 1, 2)), (1, 2, 4))
        np.testing.assert_allclose(back.amplitudes, state.amplitudes, atol=1e-12)
