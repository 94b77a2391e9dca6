import itertools

import numpy as np
import pytest

import oracle
from graphqec import kernel
from graphqec.graphs import build_resource
from graphqec.pauli import (CliffordGate, PauliString, conjugate_pauli,
                            conjugate_sequence, cz, expand_logical, pauli_commutes,
                            pauli_expectations, pauli_multiply)

S1 = PauliString.parse("Y1 Z2 Z4 Y5")
S2 = PauliString.parse("Y1 Z2 Y4 Z5")
S3 = PauliString.parse("Z1 Y2 Y4 Z5")
XBAR = PauliString.parse("Z1 Z2 X4")
ZBAR = PauliString.parse("Z1 Z2 Z4 Z5")


def dense_equal(p: PauliString, q: PauliString, labels=(1, 2, 3, 4, 5)):
    return np.abs(p.dense(labels) - q.dense(labels)).max() < 1e-12


class TestMultiply:
    def test_x_times_z(self):
        out = pauli_multiply(PauliString.single(1, "X"), PauliString.single(1, "Z"))
        assert str(out) == "-i Y1"

    def test_box_generators_give_s1(self):
        k1 = PauliString.parse("X1 Z4 Z5")
        k5 = PauliString.parse("Z1 Z2 X5")
        assert str(pauli_multiply(k1, k5)) == "Y1 Z2 Z4 Y5"

    def test_s1_s2_is_x4x5(self):
        prod = pauli_multiply(S1, S2)
        assert str(prod) == "X4 X5"
        # dense oracle
        labels = (1, 2, 4, 5)
        np.testing.assert_allclose(prod.dense(labels), S1.dense(labels) @ S2.dense(labels),
                                   atol=1e-12)

    @pytest.mark.parametrize("seed", range(6))
    def test_matrix_realization_matches_product(self, seed):
        rng = np.random.default_rng(seed)
        labels = (1, 2, 3)
        def rand_pauli():
            letters = {q: rng.choice(list("IXYZ")) for q in labels}
            return PauliString.from_map(letters, int(rng.integers(4)))
        p, q, r = rand_pauli(), rand_pauli(), rand_pauli()
        np.testing.assert_allclose(pauli_multiply(p, q).dense(labels),
                                   p.dense(labels) @ q.dense(labels), atol=1e-12)
        # associativity
        assert pauli_multiply(pauli_multiply(p, q), r) == pauli_multiply(p, pauli_multiply(q, r))

    def test_hermitian_square_is_identity_word(self):
        for p in (S1, S2, S3, XBAR, ZBAR):
            sq = pauli_multiply(p, p)
            assert sq.letters == ()
            assert sq.phase == 1

    def test_dense_is_shared_and_read_only(self):
        m = S1.dense((1, 2, 4, 5))
        assert S1.dense([1, 2, 4, 5]) is m
        with pytest.raises(ValueError, match="read-only"):
            m[0, 0] = 2


class TestCommutes:
    def test_x2_anticommutes_with_s1(self):
        assert not pauli_commutes(PauliString.single(2, "X"), S1)

    def test_z1_commutes_with_s3(self):
        assert pauli_commutes(PauliString.single(1, "Z"), S3)

    def test_self_commutes(self):
        for p in (S1, XBAR, ZBAR):
            assert pauli_commutes(p, p)

    def test_predicate_matches_dense_commutator(self):
        ybar = PauliString(pauli_multiply(XBAR, ZBAR).letters,
                           pauli_multiply(XBAR, ZBAR).phase_power + 1)
        pool = [S1, S2, S3, XBAR, ZBAR, ybar] + \
               [PauliString.single(q, l) for q in (1, 2, 4, 5) for l in "XYZ"]
        labels = (1, 2, 4, 5)
        for p, q in itertools.combinations(pool, 2):
            pm, qm = p.dense(labels), q.dense(labels)
            dense_commutes = np.abs(pm @ qm - qm @ pm).max() < 1e-12
            assert pauli_commutes(p, q) == dense_commutes, (str(p), str(q))


ALL_GATES = [cz(1, 2)] + [CliffordGate(kind, (1,)) for kind in
                          ("H", "S", "SQRT_MZ", "SQRT_PZ", "SQRT_MX")] \
    + [CliffordGate("H", (2,)), CliffordGate("SQRT_MX", (2,))]


class TestConjugation:
    def test_cz_spreads_x(self):
        out = conjugate_pauli(cz(1, 2), PauliString.single(2, "X"))
        assert str(out) == "Z1 X2"

    def test_hadamard_swaps_x_z(self):
        h = CliffordGate("H", (1,))
        assert str(conjugate_pauli(h, PauliString.single(1, "X"))) == "Z1"
        assert str(conjugate_pauli(h, PauliString.single(1, "Z"))) == "X1"

    def test_sqrt_mz_sends_x_to_y(self):
        out = conjugate_pauli(CliffordGate("SQRT_MZ", (3,)), PauliString.single(3, "X"))
        assert str(out) == "Y3"

    @pytest.mark.parametrize("gate", ALL_GATES, ids=str)
    def test_homomorphism_exhaustive(self, gate):
        # every 1- and 2-letter string on qubits {1,2}: dense conjugation oracle
        labels = (1, 2)
        u = oracle.embed_operator(gate.matrix, gate.targets, labels)
        singles = [PauliString.single(q, l) for q in labels for l in "XYZ"]
        doubles = [PauliString.from_map({1: a, 2: b})
                   for a in "XYZ" for b in "XYZ"]
        for p in singles + doubles:
            got = conjugate_pauli(gate, p).dense(labels)
            want = u @ p.dense(labels) @ u.conj().T
            np.testing.assert_allclose(got, want, atol=1e-12, err_msg=f"{gate} on {p}")

    def test_closure_returns_pauli_strings(self):
        for gate in ALL_GATES:
            for letter in "XYZ":
                out = conjugate_pauli(gate, PauliString.single(gate.targets[0], letter))
                assert isinstance(out, PauliString)
                assert out.is_hermitian

    def test_bad_gate_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown gate"):
            CliffordGate("SWAP", (1, 2))


RESOURCE_STATE = build_resource()


def resource_expectation(p: PauliString) -> float:
    return kernel.expectation(RESOURCE_STATE, p.to_observable(RESOURCE_STATE.labels))


class TestExpandAndReshape:
    def test_expand_x3(self):
        out = expand_logical(PauliString.single(3, "X"))
        assert str(out) == "Z1 Z2 X3 Z4 Z5"

    def test_expand_z3_unchanged(self):
        assert str(expand_logical(PauliString.single(3, "Z"))) == "Z3"

    def test_expand_y3(self):
        out = expand_logical(PauliString.single(3, "Y"))
        assert dict(out.letters) == {1: "Z", 2: "Z", 3: "Y", 4: "Z", 5: "Z"}
        assert out.is_hermitian

    def test_expand_rejects_other_support(self):
        with pytest.raises(ValueError, match="qubit 3"):
            expand_logical(PauliString.single(1, "X"))

    def test_reshaped_x_has_pure_x_support(self):
        # multiplying the expanded ancilla X by the expanded S1 leaves
        # X letters on qubits 1, 3, 5 only
        x_e = expand_logical(PauliString.single(3, "X"))
        s1_tilde = conjugate_sequence([cz(1, 3), cz(2, 3), cz(4, 3), cz(5, 3)], S1)
        reshaped = x_e * s1_tilde
        assert dict(reshaped.letters) == {1: "X", 3: "X", 5: "X"}

    def test_reshaped_z_uses_k5(self):
        z_e = expand_logical(PauliString.single(3, "Z"))
        k5_box = PauliString.parse("Z1 Z2 X5")
        k5_tilde = conjugate_sequence([cz(1, 3), cz(2, 3), cz(4, 3), cz(5, 3)], k5_box)
        reshaped = z_e * k5_tilde
        assert dict(reshaped.letters) == {1: "Z", 2: "Z", 5: "X"}

    def test_multiply_by_identity(self):
        assert S1 * PauliString.identity() == S1

    def test_reshaped_operators_act_identically_on_resource(self):
        cz_layer = [cz(1, 3), cz(2, 3), cz(4, 3), cz(5, 3)]
        x_e = expand_logical(PauliString.single(3, "X"))
        z_e = expand_logical(PauliString.single(3, "Z"))
        s1_tilde = conjugate_sequence(cz_layer, S1)
        k5_tilde = conjugate_sequence(cz_layer, PauliString.parse("Z1 Z2 X5"))
        for original, stab in ((x_e, s1_tilde), (z_e, k5_tilde)):
            reshaped = original * stab
            assert abs(resource_expectation(original) - resource_expectation(reshaped)) < 1e-10


class TestTextFormat:
    @pytest.mark.parametrize("text", ["Y1 Z2 Z4 Y5", "+i X1", "-1 Z3", "-i X1 Y2", "I"])
    def test_roundtrip(self, text):
        p = PauliString.parse(text)
        assert PauliString.parse(str(p)) == p

    def test_paper_style_render(self):
        assert str(S1) == "Y1 Z2 Z4 Y5"
        assert str(PauliString.single(4, "X", 2)) == "-1 X4"

    def test_parse_rejects_junk(self):
        with pytest.raises(ValueError, match="parse"):
            PauliString.parse("Q7")


class TestPauliExpectations:
    def test_resource_stabilizers_and_phases(self):
        k3 = PauliString.parse("Z1 Z2 X3 Z4 Z5")
        got = pauli_expectations(RESOURCE_STATE, (k3, PauliString(k3.letters, 2),
                                                  PauliString.identity()))
        np.testing.assert_allclose(got, (1.0, -1.0, 1.0), rtol=0, atol=1e-12)

    def test_imaginary_phase_rejected(self):
        with pytest.raises(ValueError, match="imaginary phase"):
            pauli_expectations(RESOURCE_STATE, (PauliString.parse("+i X1"),))

    def test_support_outside_register_rejected(self):
        with pytest.raises(ValueError, match="outside the register"):
            pauli_expectations(RESOURCE_STATE, (PauliString.parse("Z6"),))

    def test_non_hermitian_state_rejected(self):
        raw = np.diag([1, 0]).astype(complex) + np.array([[0, 1e-6], [0, 0]])
        with pytest.raises(ValueError, match="imaginary part"):
            kernel._pauli_vector(raw, 1)
