import dataclasses
import math
import pickle
from fractions import Fraction

import numpy as np
import pytest

from graphqec import kernel
from graphqec.code import logical_basis_states
from graphqec.graphs import build_resource
from graphqec.kernel import PureState, maximally_mixed, partial_trace
from graphqec.pauli import PauliString
from graphqec.sampling import NoiseModel, apply_noise
from graphqec.tomography import state_fidelity
from graphqec.witnesses import (WitnessTerm, box_witness,
                                builtin_witnesses, evaluate_witness,
                                fidelity_lower_bound, ghz_witness, pair_witness,
                                resource_witness)


def pair_state(labels=(1, 2)) -> PureState:
    pl, mi = kernel.PLUS, kernel.MINUS
    return PureState(labels, (np.kron(pl, pl) + 1j * np.kron(mi, mi)) / math.sqrt(2))


IDEAL_TARGETS = {
    "resource5": build_resource(),
    "box4": logical_basis_states()["+"],
    "ghz4": logical_basis_states()["0"],
    "pair2": pair_state(),
}


class TestBuiltinStructure:
    def test_pair2_as_printed(self):
        w = pair_witness()
        assert w.constant == 1
        labels = sorted(t.label() for t in w.terms)
        assert labels == ["X1 X2", "Y~1 Z2"]

    def test_ghz4_constant_and_coefficients(self):
        w = ghz_witness()
        assert w.constant == Fraction(7, 4)
        coeffs = sorted(t.coefficient for t in w.terms)
        assert coeffs == [Fraction(1, 4)] * 7 + [Fraction(1)]

    def test_box4_constant(self):
        w = box_witness()
        assert w.constant == 2
        assert all(t.coefficient == Fraction(1, 2) for t in w.terms)
        assert len(w.terms) == 6

    def test_resource5_calibrated_coefficients(self):
        w = resource_witness()
        assert w.constant == Fraction(9, 4)
        coeffs = sorted(t.coefficient for t in w.terms)
        assert coeffs == [Fraction(1, 4)] * 7 + [Fraction(1, 2)] * 3

    def test_resource5_as_printed_coefficients(self):
        w = resource_witness(as_printed=True)
        coeffs = sorted(t.coefficient for t in w.terms)
        assert coeffs == [Fraction(1, 8)] * 7 + [Fraction(1, 4)] * 3

    def test_builtins_catalog(self):
        cat = builtin_witnesses()
        assert set(cat) == {"resource5", "box4", "ghz4", "pair2"}

    def test_builtins_catalog_is_fresh_per_call(self):
        """The specs are cached and shared; the catalog dict is not."""
        cat = builtin_witnesses()
        cat["box4"] = None
        assert builtin_witnesses() is not cat
        assert builtin_witnesses()["box4"] is box_witness()

    @pytest.mark.parametrize("name", ["resource5", "box4", "ghz4", "pair2"])
    def test_cached_hash_agrees_with_field_equality(self, name):
        spec = builtin_witnesses()[name]
        twin = dataclasses.replace(spec)
        assert twin is not spec and twin == spec
        assert hash(spec) == hash(twin) == hash((spec.name, spec.constant, spec.terms))
        other = dataclasses.replace(spec, terms=spec.terms[:-1])
        assert other != spec and hash(other) == hash((other.name, other.constant, other.terms))
        copy = pickle.loads(pickle.dumps(spec))
        assert "_hash" not in copy.__dict__
        assert copy == spec and hash(copy) == hash(spec)


class TestIdealValues:
    @pytest.mark.parametrize("name", ["resource5", "box4", "ghz4", "pair2"])
    def test_minus_one_on_target(self, name):
        spec = builtin_witnesses()[name]
        value = evaluate_witness(IDEAL_TARGETS[name], spec).value
        assert value == pytest.approx(-1.0, abs=1e-9)

    def test_every_term_saturates(self):
        result = evaluate_witness(build_resource(), resource_witness())
        for label, _, signed, _ in result.terms:
            assert signed == pytest.approx(1.0, abs=1e-9), label

    def test_pair_witness_on_both_pairs_of_minus_y(self):
        rho = logical_basis_states()["-y"].density()
        for pair in ((1, 2), (4, 5)):
            reduced = partial_trace(rho, pair)
            spec = pair_witness(pair)
            assert evaluate_witness(reduced, spec).value == pytest.approx(-1.0, abs=1e-9)

    def test_as_printed_cannot_go_negative(self):
        # literal coefficients bottom out at +5/8 even on the ideal state
        value = evaluate_witness(build_resource(), resource_witness(as_printed=True)).value
        assert value == pytest.approx(0.625, abs=1e-9)


class TestMixedState:
    @pytest.mark.parametrize("name", ["resource5", "box4", "ghz4", "pair2"])
    def test_value_equals_constant(self, name):
        spec = builtin_witnesses()[name]
        mixed = maximally_mixed(spec.qubits)
        value = evaluate_witness(mixed, spec).value
        assert value == pytest.approx(float(spec.constant), abs=1e-12)


class TestWhiteNoiseBehaviour:
    def test_value_affine_and_crossing(self):
        spec = resource_witness()
        ideal = build_resource()
        constant = float(spec.constant)
        v_star = (constant) / (constant + 1)  # value(v) = constant - (constant+1) v
        grid = np.linspace(0, 1, 11)
        values = []
        for v in grid:
            rho = apply_noise(ideal, NoiseModel(visibility=float(v)))
            values.append(evaluate_witness(rho, spec).value)
        expected = constant - (constant + 1) * grid
        np.testing.assert_allclose(values, expected, atol=1e-9)
        for v, val in zip(grid, values):
            if abs(v - v_star) > 1e-9:
                assert np.sign(val) == np.sign(v_star - v)

    @pytest.mark.parametrize("name", ["resource5", "box4", "ghz4"])
    def test_bound_consistency_on_noise_family(self, name):
        spec = builtin_witnesses()[name]
        target = IDEAL_TARGETS[name]
        for v in np.linspace(0, 1, 11):
            rho = apply_noise(target, NoiseModel(visibility=float(v)))
            fid = state_fidelity(rho, target)
            bound = fidelity_lower_bound(evaluate_witness(rho, spec).value)
            assert fid >= bound - 1e-9


class TestFidelityBound:
    def test_published_pairs(self):
        assert fidelity_lower_bound(-0.15) == pytest.approx(0.575)
        assert round(fidelity_lower_bound(-0.16), 2) == 0.58
        # -0.15 gives 0.575, consistent with the printed 0.58 to 2 decimals
        assert abs(fidelity_lower_bound(-0.15) - 0.58) <= 0.005 + 1e-12

    def test_ideal(self):
        assert fidelity_lower_bound(-1.0) == 1.0

    def test_clamping(self):
        assert fidelity_lower_bound(3.0) == 0.0
        assert fidelity_lower_bound(-3.0) == 1.0


class TestSpecValidation:
    def test_tilde_must_sit_on_support(self):
        with pytest.raises(ValueError, match="tilde"):
            WitnessTerm(Fraction(1), PauliString.parse("X1"), frozenset({2}))

    def test_identity_term_rejected(self):
        with pytest.raises(ValueError, match="traceless"):
            WitnessTerm(Fraction(1), PauliString.identity(), frozenset())

    def test_relabel(self):
        w = pair_witness((4, 5))
        assert w.qubits == (4, 5)
        assert w.name == "pair2_45"
        assert [t.label() for t in w.terms] == ["Y~4 Z5", "X4 X5"]
