"""Graphs, graph states, stabilizer generators and the resource build.

The experiment prepares a five-qubit linear cluster, then converts it by
two layers of local Clifford rotations into the resource graph: the
four-qubit "box" code graph on qubits {1,2,4,5} with ancilla qubit 3
attached to every code qubit.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, reduce

import numpy as np

from . import kernel
from .kernel import PureState
from .pauli import PauliString


@dataclass(frozen=True)
class Graph:
    vertices: frozenset[int]
    edges: frozenset[frozenset[int]]

    def __post_init__(self):
        object.__setattr__(self, "vertices", frozenset(map(_vertex, self.vertices)))
        if not self.vertices:
            raise ValueError("graph has no vertices")
        edges = [tuple(map(_vertex, e)) for e in self.edges]
        for e in edges:
            if len(e) != 2 or e[0] == e[1]:
                raise ValueError(f"edge {list(e)} is not a pair (self-loops not allowed)")
            if not set(e) <= self.vertices:
                raise ValueError(f"edge {list(e)} references unknown vertices")
        object.__setattr__(self, "edges", frozenset(map(frozenset, edges)))

    @staticmethod
    def from_edges(vertices, edge_pairs) -> "Graph":
        return Graph(vertices, edge_pairs)  # checked and frozen by __post_init__

    @staticmethod
    def from_dict(data: dict) -> "Graph":
        """Config-file literal: ``{"vertices": [1,2,3], "edges": [[1,2],[2,3]]}``."""
        return Graph.from_edges(data["vertices"], data["edges"])

    def to_dict(self) -> dict:
        return {"vertices": sorted(self.vertices), "edges": [list(e) for e in self.edge_list()]}

    def neighbors(self, v: int) -> frozenset[int]:
        return frozenset(w for e in self.edges if v in e for w in e if w != v)

    def edge_list(self) -> list[tuple[int, int]]:
        return sorted(tuple(sorted(e)) for e in self.edges)


def _vertex(v) -> int:
    """``v`` as an int, by the kernel's rule for qubit labels."""
    return kernel._integral(v, "vertex")


PATH5 = Graph.from_edges(range(1, 6), [(1, 2), (2, 3), (3, 4), (4, 5)])
BOX = Graph.from_edges((1, 2, 4, 5), [(1, 4), (1, 5), (2, 4), (2, 5)])
RESOURCE = Graph.from_edges(range(1, 6), BOX.edge_list() + [(1, 3), (2, 3), (4, 3), (5, 3)])


def graph_state(g: Graph) -> PureState:
    """Prepare |+> on every vertex and apply one CZ per edge. The input is
    checked once; the constant CZ is applied to the raw vector unchecked."""
    labels = tuple(sorted(g.vertices))
    if len(labels) > kernel.MAX_QUBITS:
        raise ValueError(f"graph has {len(labels)} vertices, max {kernel.MAX_QUBITS}")
    state = PureState(labels, reduce(np.kron, [kernel.PLUS] * len(labels)))
    amps = state.amplitudes
    for a, b in g.edge_list():
        amps = kernel._unitary(amps, state.labels, kernel.CZ, (a, b))
    return kernel._trusted(PureState, state.labels, amps)


def stabilizer_generators(g: Graph) -> list[PauliString]:
    """One generator per vertex: X there, Z on its neighborhood."""
    gens = []
    for v in sorted(g.vertices):
        letters = {v: "X"}
        letters.update({w: "Z" for w in g.neighbors(v)})
        gens.append(PauliString.from_map(letters))
    return gens


def build_linear_cluster5() -> PureState:
    """The five-qubit linear cluster, written as the explicit product-of-
    pairs expansion used to describe the photonic state:

        (1/(2 sqrt 2)) [ (|+0> + |-1>)_{12} |0>_3 (|0+> + |1->)_{45}
                       + (|+0> - |-1>)_{12} |1>_3 (|0+> - |1->)_{45} ]
    """
    k0, k1 = kernel.KET0, kernel.KET1
    pl, mi = kernel.PLUS, kernel.MINUS
    left_p = np.kron(pl, k0) + np.kron(mi, k1)
    left_m = np.kron(pl, k0) - np.kron(mi, k1)
    right_p = np.kron(k0, pl) + np.kron(k1, mi)
    right_m = np.kron(k0, pl) - np.kron(k1, mi)
    amps = (_kron3(left_p, k0, right_p) + _kron3(left_m, k1, right_m)) / (2 * math.sqrt(2))
    return PureState((1, 2, 3, 4, 5), amps)


def _kron3(a, b, c):
    return np.kron(np.kron(a, b), c)


# Local rotation layers converting the linear cluster into the resource
# graph state. Per qubit: (A, B, AA, B, A) then (A, A, B, A, A) with
# A = sqrt(-iZ), B = sqrt(-iX). The printed layers alone land on a state
# orthogonal to the resource graph state; the physical setup adds fixed
# phase shifts on the two path qubits, which amount to Z on qubits 2 and 4.
LC1_LAYER = (
    (1, kernel.SQRT_MINUS_IZ),
    (2, kernel.SQRT_MINUS_IX),
    (3, kernel.SQRT_MINUS_IZ @ kernel.SQRT_MINUS_IZ),
    (4, kernel.SQRT_MINUS_IX),
    (5, kernel.SQRT_MINUS_IZ),
)
LC2_LAYER = (
    (1, kernel.SQRT_MINUS_IZ),
    (2, kernel.SQRT_MINUS_IZ),
    (3, kernel.SQRT_MINUS_IX),
    (4, kernel.SQRT_MINUS_IZ),
    (5, kernel.SQRT_MINUS_IZ),
)
PATH_PHASE_FIX = ((2, kernel.Z), (4, kernel.Z))


@cache
def build_resource() -> PureState:
    """Rotate the linear cluster into the code-plus-ancilla resource state.

    Built once per process; the state is immutable, so every caller shares it."""
    state = build_linear_cluster5()
    for layer in (LC1_LAYER, LC2_LAYER, PATH_PHASE_FIX):
        for q, u in layer:
            state = kernel.apply_unitary(state, u, (q,))
    return state


def resource_state_expansion() -> PureState:
    """The resource state written explicitly over Y eigenstates of the
    ancilla and entangled pairs on qubits (1,2) and (4,5)."""
    pl, mi = kernel.PLUS, kernel.MINUS
    pair_p = np.kron(pl, pl) + 1j * np.kron(mi, mi)
    pair_m = np.kron(pl, pl) - 1j * np.kron(mi, mi)
    amps = (_kron3(pair_p, kernel.MINUS_Y, pair_p)
            + 1j * _kron3(pair_m, kernel.PLUS_Y, pair_m)) / (2 * math.sqrt(2))
    return PureState((1, 2, 3, 4, 5), amps)
