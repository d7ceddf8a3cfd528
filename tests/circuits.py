"""Hand-built circuit instances shared across the test suite."""

from __future__ import annotations

from itertools import product

from minmaxlab.boolinterp import BoolOracle
from minmaxlab.circuit import (
    CircuitInstance,
    build_constant_gadget,
    build_oracle_from_labeling,
    nor,
    oracle_gate,
    purify,
)
from minmaxlab.ledger import QueryLedger
from minmaxlab.sperner import brouwer_to_labeling, get_test_map


def nor_loop(ledger=None):
    """3 nodes: PURIFY(a -> b, c), NOR(b, c -> a).  Smallest NOR circuit;
    its continuous map has a repelling interior fixed point."""
    return CircuitInstance(
        nodes=("a", "b", "c"),
        gates=(purify("a", "b", "c"), nor("b", "c", "a")),
        ledger=ledger or QueryLedger(),
    )


def purify_loop(ledger=None):
    """4 nodes: PURIFY(a -> b, c), PURIFY(b -> a, d).  Positive feedback;
    the all-ones point is an attracting fixed point."""
    return CircuitInstance(
        nodes=("a", "b", "c", "d"),
        gates=(purify("a", "b", "c"), purify("b", "a", "d")),
        ledger=ledger or QueryLedger(),
    )


def oracle_pair(table=(0, 1), ledger=None):
    """2 nodes wired through two arity-1 ORACLE gates sharing one table."""
    ledger = ledger or QueryLedger()
    oracle = BoolOracle.from_truth_table(list(table), ledger=ledger)
    inst = CircuitInstance(
        nodes=("a", "b"),
        gates=(oracle_gate(("b",), "a"), oracle_gate(("a",), "b")),
        oracle=oracle,
        ledger=ledger,
        oracle_spec={"kind": "truth_table", "data": list(table)},
    )
    return inst


def oracle_purify(table=(0, 1, 1, 0), ledger=None):
    """3 nodes: PURIFY(b -> a, c), ORACLE((a, c) -> b) with an arity-2 table."""
    ledger = ledger or QueryLedger()
    oracle = BoolOracle.from_truth_table(list(table), ledger=ledger)
    return CircuitInstance(
        nodes=("a", "b", "c"),
        gates=(purify("b", "a", "c"), oracle_gate(("a", "c"), "b")),
        oracle=oracle,
        ledger=ledger,
        oracle_spec={"kind": "truth_table", "data": list(table)},
    )


def oracle_attracting(table=(0, 0, 0, 1), ledger=None):
    """5 nodes: a positive PURIFY loop feeding an arity-2 ORACLE gate.

    Damped iteration converges here: the loop attracts to all-ones and o
    settles to the table value at (1, 1).
    """
    ledger = ledger or QueryLedger()
    oracle = BoolOracle.from_truth_table(list(table), ledger=ledger)
    return CircuitInstance(
        nodes=("a", "b", "c", "e", "o"),
        gates=(
            purify("a", "b", "c"),
            purify("b", "a", "e"),
            oracle_gate(("c", "e"), "o"),
        ),
        oracle=oracle,
        ledger=ledger,
        oracle_spec={"kind": "truth_table", "data": list(table)},
    )


def restart_ring(ledger=None):
    """7 nodes: NOR(n6, n5 -> n0), PURIFY(n5 -> n1, n2), NOR(n2, n6 -> n3),
    PURIFY(n3 -> n4, n5), NOR(n4, n0 -> n6).  Its feedback cut is {n5, n6},
    and the cut solver's centre attempt spends all its 20000 steps above
    the 1e-11 stop, so the solve needs a random restart."""
    return CircuitInstance(
        nodes=tuple(f"n{i}" for i in range(7)),
        gates=(
            nor("n6", "n5", "n0"),
            purify("n5", "n1", "n2"),
            nor("n2", "n6", "n3"),
            purify("n3", "n4", "n5"),
            nor("n4", "n0", "n6"),
        ),
        ledger=ledger or QueryLedger(),
    )


def build_constant_gadget_core(ledger=None):
    """The 9-node core v1..v9 of the constant gadget alone (pins v9 = 0)."""
    gadget = build_constant_gadget(ledger)
    gates = tuple(g for g in gadget.instance.gates if "v10" not in g.outputs and "v12" not in g.outputs)
    nodes = tuple(f"v{i}" for i in range(1, 10))
    return CircuitInstance(nodes=nodes, gates=gates, ledger=ledger or QueryLedger())


def every_instance():
    """(name, maker) for every circuit above with every oracle table, and the gadget."""
    cases = [("nor_loop", nor_loop), ("purify_loop", purify_loop)]
    for table in product((0, 1), repeat=2):
        cases.append((f"oracle_pair{table}", lambda table=table: oracle_pair(table)))
    for maker in (oracle_purify, oracle_attracting):
        for table in product((0, 1), repeat=4):
            cases.append((f"{maker.__name__}{table}", lambda maker=maker, table=table: maker(table)))
    cases.append(("gadget", lambda: build_constant_gadget().instance))
    return cases


def build_chain(eps=0.2):
    """35-node circuit whose single ORACLE gate wraps a grid labeling.

    The labeling comes from the smoothed-rotation test map at accuracy
    eps (M = 16, d = 2, so the oracle has arity M*d + d = 34).  The 34
    oracle inputs are produced by 17 PURIFY gates fanning out from the
    oracle's own output node.
    """
    fmap = get_test_map("smoothed_rotation")
    ledger = QueryLedger()
    oracle = build_oracle_from_labeling(brouwer_to_labeling(fmap.fn, fmap.d, eps, ledger))
    assert oracle.arity == 34

    inputs = [f"p{i}" for i in range(1, 35)]
    gates = [oracle_gate(tuple(inputs), "o")]
    for k in range(17):
        gates.append(purify("o", inputs[2 * k], inputs[2 * k + 1]))
    circuit = CircuitInstance(
        nodes=tuple(["o"] + inputs),
        gates=tuple(gates),
        oracle=oracle,
        ledger=ledger,
    )
    return circuit
