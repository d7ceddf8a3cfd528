"""The feedback cut against a networkx reference.

cycle_cut_solve iterates on the cut coordinates, so a different cut
changes its iterates and its query counts.  The reference is the
networkx loop the cut replaced: find_cycle on the gate DiGraph, remove
the cycle node with the largest (in_degree + out_degree, -v), repeat.
"""

from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minmaxlab.brouwer import build_brouwer, feedback_cut
from minmaxlab.circuit import build_constant_gadget

from circuits import nor_loop, oracle_attracting, oracle_pair, oracle_purify, purify_loop

nx = pytest.importorskip("networkx")


def reference_cut(dim, inputs):
    graph = nx.DiGraph()
    graph.add_nodes_from(range(dim))
    for w, ins in enumerate(inputs):
        for u in ins:
            graph.add_edge(u, w)
    cut = []
    while True:
        try:
            cycle = nx.find_cycle(graph)
        except nx.NetworkXNoCycle:
            return sorted(cut)
        nodes = sorted({u for u, _ in cycle})
        victim = max(nodes, key=lambda v: (graph.in_degree(v) + graph.out_degree(v), -v))
        cut.append(victim)
        graph.remove_node(victim)


def check_against_reference(bmap):
    cut, order = feedback_cut(bmap)
    assert cut == reference_cut(bmap.dim, bmap.inputs)
    # order covers every non-cut node once and lists each after its
    # non-cut inputs
    assert sorted(cut + order) == list(range(bmap.dim))
    position = {v: i for i, v in enumerate(order)}
    for w in order:
        for u in bmap.inputs[w]:
            assert u in cut or position[u] < position[w]


@pytest.mark.parametrize(
    "factory",
    [nor_loop, purify_loop, oracle_pair, oracle_purify, oracle_attracting,
     lambda: build_constant_gadget().instance],
    ids=["nor_loop", "purify_loop", "oracle_pair", "oracle_purify", "oracle_attracting", "gadget"],
)
def test_circuit_cut_matches_networkx(factory):
    check_against_reference(build_brouwer(factory()))


@st.composite
def gate_graphs(draw):
    """Fan-in 0-3 per node, inputs drawn freely: self-loops, repeated
    inputs (parallel edges) and acyclic graphs included."""
    dim = draw(st.integers(1, 14))
    node = st.integers(0, dim - 1)
    inputs = tuple(tuple(draw(st.lists(node, max_size=3))) for _ in range(dim))
    return SimpleNamespace(dim=dim, inputs=inputs)


@settings(max_examples=400, deadline=None, database=None)
@given(gate_graphs())
def test_random_gate_graph_cut_matches_networkx(bmap):
    check_against_reference(bmap)

