import functools
import math

import numpy as np
import pytest

import oracle
from graphqec import kernel
from graphqec.graphs import (BOX, PATH5, RESOURCE, Graph, build_linear_cluster5,
                             build_resource, graph_state, resource_state_expansion,
                             stabilizer_generators)
from graphqec.kernel import PureState, apply_unitary, overlap
from oracle import local_complement, states_equal


class TestGraphType:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="pair"):
            Graph.from_edges((1, 2), [(1, 1)])

    @pytest.mark.parametrize("edge", [(1, 2, 2), (1,)])
    def test_rejects_edge_of_other_length(self, edge):
        # a frozenset would read (1, 2, 2) as the pair {1, 2}
        with pytest.raises(ValueError, match="pair"):
            Graph.from_edges((1, 2), [edge])

    def test_rejects_unknown_vertex(self):
        with pytest.raises(ValueError, match="unknown"):
            Graph.from_edges((1, 2), [(1, 3)])

    def test_rejects_empty_vertex_set(self):
        with pytest.raises(ValueError, match="no vertices"):
            Graph.from_edges((), [])

    @pytest.mark.parametrize("vertices, edges", [
        ((1.5,), []), ((True, 2), []), ((1, True), []), (("1", 2), []),
        ((1, 2), [(1, 2.0)]), ((1, 2), [(False, 2)]),
    ])
    def test_rejects_vertex_that_is_not_an_integer(self, vertices, edges):
        # int() would truncate 1.5 and read True as 1
        with pytest.raises(ValueError, match="not an integer"):
            Graph.from_edges(vertices, edges)

    def test_neighbors(self):
        assert PATH5.neighbors(3) == {2, 4}
        assert BOX.neighbors(1) == {4, 5}


class TestGraphState:
    def test_single_vertex_is_plus(self):
        g = Graph.from_edges((1,), [])
        assert states_equal(graph_state(g), PureState.single(1, kernel.PLUS))

    def test_one_edge(self):
        g = Graph.from_edges((1, 2), [(1, 2)])
        expected = PureState((1, 2), np.array([1, 1, 1, -1], dtype=complex) / 2)
        assert states_equal(graph_state(g), expected)

    def test_cz_is_applied_unchecked(self, monkeypatch):
        """The constant CZ goes to the raw vector without the unitary check
        of ``apply_unitary`` (8 checks for the resource's 8 edges before), and
        the state is the gate-by-gate public path's, bit for bit."""
        calls = []
        check = kernel._check_unitary
        monkeypatch.setattr(kernel, "_check_unitary", lambda u: calls.append(u) or check(u))
        state = graph_state(RESOURCE)
        assert len(calls) == 0
        want = PureState(state.labels, functools.reduce(np.kron, [kernel.PLUS] * 5))
        for edge in RESOURCE.edge_list():
            want = apply_unitary(want, kernel.CZ, edge)
        assert len(calls) == len(RESOURCE.edge_list()) == 8
        assert state.labels == want.labels and np.array_equal(state.amplitudes, want.amplitudes)
        assert not state.amplitudes.flags.writeable
        PureState(state.labels, state.amplitudes)  # passes the checked constructor

    def test_path5_matches_literal_expansion(self):
        assert overlap(graph_state(PATH5), build_linear_cluster5()) > 1 - 1e-9

    def test_too_many_vertices(self):
        g = Graph.from_edges(range(1, 8), [])
        with pytest.raises(ValueError, match="max"):
            graph_state(g)


class TestStabilizers:
    def test_box_vertex_1(self):
        gens = stabilizer_generators(BOX)
        assert str(gens[0]) == "X1 Z4 Z5"

    def test_path5_vertex_3(self):
        gens = stabilizer_generators(PATH5)
        assert str(gens[2]) == "Z2 X3 Z4"

    def test_single_vertex(self):
        gens = stabilizer_generators(Graph.from_edges((1,), []))
        assert str(gens[0]) == "X1"

    @pytest.mark.parametrize("graph", [PATH5, BOX, RESOURCE], ids=["path5", "box", "resource"])
    def test_generators_stabilize_graph_state(self, graph):
        state = graph_state(graph)
        for k in stabilizer_generators(graph):
            assert abs(kernel.expectation(state, k.to_observable(state.labels)) - 1) < 1e-10
            # conjugation by the generator leaves the state fixed
            rotated = apply_unitary(state, k.dense(state.labels), state.labels)
            assert states_equal(rotated, state)


class TestLocalComplement:
    def test_two_vertex_edge_is_fixed_point(self):
        g = Graph.from_edges((1, 2), [(1, 2)])
        h, gates = local_complement(g, 1)
        assert h.edges == g.edges
        state = graph_state(g)
        for gate in gates:
            state = apply_unitary(state, gate.matrix, gate.targets)
        assert states_equal(state, graph_state(h))

    def test_triangle_to_path(self):
        tri = Graph.from_edges((1, 2, 3), [(1, 2), (2, 3), (1, 3)])
        h, _ = local_complement(tri, 1)
        assert h.edge_list() == [(1, 2), (1, 3)]

    def test_involution(self):
        for v in sorted(PATH5.vertices):
            once, _ = local_complement(PATH5, v)
            twice, _ = local_complement(once, v)
            assert twice.edges == PATH5.edges

    @pytest.mark.parametrize("graph", [PATH5, BOX, RESOURCE], ids=["path5", "box", "resource"])
    def test_state_level_correctness_all_vertices(self, graph):
        state = graph_state(graph)
        for v in sorted(graph.vertices):
            h, gates = local_complement(graph, v)
            rotated = state
            for gate in gates:
                rotated = apply_unitary(rotated, gate.matrix, gate.targets)
            assert states_equal(rotated, graph_state(h)), f"LC at {v}"

    def test_lc_sequence_path5_to_resource(self):
        g = PATH5
        for v in (2, 4, 3):
            g, _ = local_complement(g, v)
        assert g.edges == RESOURCE.edges


class TestLinearCluster:
    def test_all_zero_amplitude(self):
        state = build_linear_cluster5()
        amp = state.amplitudes[0]
        assert abs(amp - 1 / math.sqrt(32)) < 1e-12
        assert amp.real > 0 and abs(amp.imag) < 1e-12
        # identical convention in the graph-state construction
        assert abs(graph_state(PATH5).amplitudes[0] - amp) < 1e-12

    def test_norm(self):
        assert abs(np.linalg.norm(build_linear_cluster5().amplitudes) - 1) < 1e-12


class TestResourceBuild:
    def test_matches_graph_state(self):
        assert overlap(build_resource(), graph_state(RESOURCE)) > 1 - 1e-9

    def test_matches_explicit_expansion(self):
        assert overlap(build_resource(), resource_state_expansion()) > 1 - 1e-9

    def test_expansion_matches_graph_state(self):
        assert overlap(resource_state_expansion(), graph_state(RESOURCE)) > 1 - 1e-9

    def test_ancilla_z_measurement_leaves_box_cluster(self):
        _, p, post = kernel.projective_measure(build_resource(), 3, "Z", forced_outcome=0)
        assert abs(p - 0.5) < 1e-10
        assert states_equal(post, graph_state(BOX))

    def test_ancilla_x_measurement_leaves_logical_zero(self):
        from graphqec.code import logical_basis_states

        _, p, post = kernel.projective_measure(build_resource(), 3, "X", forced_outcome=0)
        assert abs(p - 0.5) < 1e-10
        assert states_equal(post, logical_basis_states()["0"])

    def test_stabilized_by_all_five_generators(self):
        built = build_resource()
        for k in stabilizer_generators(RESOURCE):
            assert abs(kernel.expectation(built, k.to_observable(built.labels)) - 1) < 1e-10

    def test_built_once_and_read_only(self):
        built = build_resource()
        assert build_resource() is built
        assert not built.amplitudes.flags.writeable


class TestBoxDerivation:
    def test_unique_box_graph(self):
        matches = oracle.graphs_matching_syndrome_factorizations()
        assert [g.edges for g in matches] == [BOX.edges]

    def test_syndrome_factorizations_hold_symbolically(self):
        gens = {v: k for v, k in zip(sorted(BOX.vertices), stabilizer_generators(BOX))}
        assert str(gens[1] * gens[5]) == "Y1 Z2 Z4 Y5"
        assert str(gens[1] * gens[4]) == "Y1 Z2 Y4 Z5"
        assert str(gens[4] * gens[2]) == "Z1 Y2 Y4 Z5"
