"""Oracle circuit instances: NOR / PURIFY / ORACLE gates over {0, 1, bot}.

An instance is a set of nodes, a list of typed gates in which every node
is the output of exactly one gate, and (when ORACLE gates are present) a
black-box Boolean oracle L whose calls are charged to a query ledger.

An assignment maps nodes to 0, 1, or bot (represented as None). A gate is
satisfied when:

  NOR (u, v -> w):     u = v = 0  implies  w = 1;   u = 1 or v = 1
                       implies  w = 0.
  PURIFY (u -> v, w):  at least one of v, w is a pure bit; a pure input
                       copies to both outputs.
  ORACLE (u_1..u_N -> v):  if all inputs are pure bits, v = L(u_1..u_N);
                       evaluating this consumes exactly one L query, and
                       gates with any bot input consume none.

The constant gadget built here pins one node to 0 and one to 1 in every
satisfying assignment, which is how hardwired bits are fed to ORACLE
gates.  A labeling instance (sperner.SpernerInstance, lambda: [M]^d ->
{-1,+1}^d) can be wrapped as an arity-(M*d + d) oracle: the trailing d
bits one-hot-select an output coordinate, the leading M*d bits encode
the grid point blockwise in unary, each labeling query goes through
SpernerInstance.query (which checks it and charges ``lambda``), and
malformed selectors return 0 without consuming any lambda query.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from numbers import Real
from typing import TYPE_CHECKING, Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple

from .boolinterp import BoolOracle
from .config import whole_number
from .ledger import QueryLedger

if TYPE_CHECKING:
    from .sperner import SpernerInstance

#: three-valued "unknown"; assignments map nodes to 0, 1, or BOT.
BOT = None

NOR = "NOR"
PURIFY = "PURIFY"
ORACLE = "ORACLE"

_GATE_ORDER = {NOR: 0, PURIFY: 1, ORACLE: 2}


@dataclass(frozen=True)
class Gate:
    kind: str
    inputs: Tuple[str, ...]
    outputs: Tuple[str, ...]

    def label(self) -> str:
        return f"{self.kind}({','.join(self.inputs)} -> {','.join(self.outputs)})"


def nor(u: str, v: str, w: str) -> Gate:
    return Gate(NOR, (u, v), (w,))


def purify(u: str, v: str, w: str) -> Gate:
    """PURIFY with input u; output order (v, w) is significant downstream."""
    return Gate(PURIFY, (u,), (v, w))


def oracle_gate(inputs: Sequence[str], out: str) -> Gate:
    return Gate(ORACLE, tuple(inputs), (out,))


@dataclass
class CircuitInstance:
    nodes: Tuple[str, ...]
    gates: Tuple[Gate, ...]
    oracle: Optional[BoolOracle] = None
    ledger: QueryLedger = field(default_factory=QueryLedger)
    oracle_spec: Optional[dict] = None  # serialized oracle description, if any

    def __post_init__(self) -> None:
        self.nodes = tuple(self.nodes)
        self.gates = tuple(self.gates)
        if self.oracle is not None:
            # all query accounting flows through one shared ledger
            self.oracle.ledger = self.ledger


@dataclass(frozen=True)
class Assignment:
    """Total map from nodes to {0, 1, BOT}."""

    values: Mapping[str, Optional[int]]

    def __getitem__(self, node: str) -> Optional[int]:
        return self.values[node]

    @staticmethod
    def constant(nodes: Sequence[str], value: Optional[int]) -> "Assignment":
        return Assignment({v: value for v in nodes})


def validate_instance(inst: CircuitInstance) -> List[str]:
    """Structural violations as data; empty list means well-formed."""
    violations: List[str] = []
    node_set = set(inst.nodes)
    if len(node_set) != len(inst.nodes):
        violations.append("duplicate node identifiers")

    out_count: Dict[str, int] = {v: 0 for v in inst.nodes}
    for gate in inst.gates:
        members = gate.inputs + gate.outputs
        if len(set(members)) != len(members):
            violations.append(f"{gate.label()}: gate members must be distinct")
        for v in members:
            if v not in node_set:
                violations.append(f"{gate.label()}: unknown node {v!r}")
        if gate.kind == NOR and (len(gate.inputs), len(gate.outputs)) != (2, 1):
            violations.append(f"{gate.label()}: NOR takes 2 inputs, 1 output")
        elif gate.kind == PURIFY and (len(gate.inputs), len(gate.outputs)) != (1, 2):
            violations.append(f"{gate.label()}: PURIFY takes 1 input, 2 outputs")
        elif gate.kind == ORACLE:
            if len(gate.outputs) != 1 or len(gate.inputs) < 1:
                violations.append(f"{gate.label()}: ORACLE takes N>=1 inputs, 1 output")
            if inst.oracle is None:
                violations.append(f"{gate.label()}: no oracle attached to the instance")
            elif len(gate.inputs) != inst.oracle.arity:
                violations.append(
                    f"{gate.label()}: arity mismatch, oracle expects {inst.oracle.arity} inputs"
                )
        elif gate.kind not in _GATE_ORDER:
            violations.append(f"{gate.label()}: unknown gate kind")
        for v in gate.outputs:
            if v in out_count:
                out_count[v] += 1

    for v in inst.nodes:
        if out_count.get(v, 0) == 0:
            violations.append(f"node {v!r} is not the output of any gate")
        elif out_count[v] > 1:
            violations.append(f"node {v!r} is the output of {out_count[v]} gates")

    if inst.oracle is not None and inst.oracle.arity > len(inst.nodes):
        violations.append("oracle arity exceeds the number of nodes")
    return violations


def check_assignment(inst: CircuitInstance, assignment: Assignment) -> List[Gate]:
    """Gates whose rule the assignment violates (empty list: all satisfied).

    ORACLE gates with all-pure inputs consume exactly one L query each;
    gates with any bot input consume none.
    """
    missing = [v for v in inst.nodes if v not in assignment.values]
    if missing:
        raise ValueError(f"assignment not total, missing {missing}")
    violated: List[Gate] = []
    for gate in inst.gates:
        ins = [assignment[v] for v in gate.inputs]
        outs = [assignment[v] for v in gate.outputs]
        if gate.kind == NOR:
            (bu, bv), (bw,) = ins, outs
            if bu == 0 and bv == 0 and bw != 1:
                violated.append(gate)
            elif (bu == 1 or bv == 1) and bw != 0:
                violated.append(gate)
        elif gate.kind == PURIFY:
            (bu,), (bv, bw) = ins, outs
            if bv is BOT and bw is BOT:
                violated.append(gate)
            elif bu in (0, 1) and not (bv == bu and bw == bu):
                violated.append(gate)
        elif gate.kind == ORACLE:
            (bv,) = outs
            if all(b in (0, 1) for b in ins):
                if inst.oracle is None:
                    raise ValueError("instance has ORACLE gates but no oracle attached")
                expected = inst.oracle.query(tuple(ins))
                if bv != expected:
                    violated.append(gate)
        else:
            raise ValueError(f"unknown gate kind {gate.kind!r}")
    return violated


class ConstantGadget(NamedTuple):
    instance: CircuitInstance
    zero_node: str
    one_node: str


def build_constant_gadget(ledger: Optional[QueryLedger] = None) -> ConstantGadget:
    """12-node gadget whose satisfying assignments pin v9 = 0 and v12 = 1.

    The v1..v9 core forces v1 to bot through a negative feedback loop,
    which in turn pins v9 to 0; a PURIFY + NOR tail (v10..v12) then pins
    v12 to 1.  Used to hardwire the constant selector bits of ORACLE
    gates.
    """
    gates = (
        purify("v1", "v2", "v3"),
        nor("v2", "v3", "v4"),
        purify("v4", "v5", "v1"),
        purify("v5", "v6", "v7"),
        nor("v6", "v7", "v8"),
        nor("v5", "v8", "v9"),
        purify("v9", "v10", "v11"),
        nor("v10", "v11", "v12"),
    )
    nodes = tuple(f"v{i}" for i in range(1, 13))
    inst = CircuitInstance(nodes=nodes, gates=gates, ledger=ledger or QueryLedger())
    return ConstantGadget(inst, zero_node="v9", one_node="v12")


def unary_decode(bits: Sequence[int], width: int) -> int:
    """Blockwise unary value: clamp(popcount, 1, width).

    Canonical strings with k leading ones decode to k; arbitrary patterns
    decode by population count, clamped into [1, width] so the result is
    always a valid grid coordinate.
    """
    count = sum(1 for b in bits if b == 1)
    return min(max(count, 1), width)


def build_oracle_from_labeling(inst: SpernerInstance) -> BoolOracle:
    """Wrap a labeling instance as a Boolean oracle of arity M*d + d that
    charges ``inst.ledger``.

    Input layout: (z, t) with z the M*d unary-coded grid point and t the
    d selector bits.  If t is one-hot at position i, the oracle decodes z
    to a point in [M]^d, makes exactly one counted ``inst.query`` (which
    checks the labels), and returns 1 iff coordinate i of the label
    vector is +1.  Any other t returns 0 with zero labeling queries.
    """
    M, d = inst.M, inst.d

    def fn(bits: Tuple[int, ...]) -> int:
        selector = bits[M * d:]
        if sum(selector) != 1:
            return 0
        point = tuple(unary_decode(bits[block * M:(block + 1) * M], M) for block in range(d))
        return 1 if inst.query(point)[selector.index(1)] == 1 else 0

    return BoolOracle(arity=M * d + d, fn=fn, ledger=inst.ledger)


# ---------------------------------------------------------------------------
# instance file format (JSON)
# ---------------------------------------------------------------------------

def _canonical_gates(gates: Sequence[Gate]) -> List[Gate]:
    return sorted(gates, key=lambda g: (_GATE_ORDER[g.kind], g.inputs, g.outputs))


def circuit_to_json(inst: CircuitInstance) -> str:
    """Canonical, byte-stable JSON text for an instance.

    Gates are ordered NOR, PURIFY, ORACLE and lexicographically within
    each type.  Node order is preserved verbatim: it is semantic, since
    it fixes the coordinate order of every point file built against the
    instance.  The oracle field carries the stored oracle description
    (``oracle_spec``), or null when there is no oracle; an oracle without
    a description raises ValueError, since null would read back as none.
    """
    if inst.oracle is not None and inst.oracle_spec is None:
        raise ValueError("the instance has an oracle but no oracle_spec to write")
    gates_json = []
    for gate in _canonical_gates(inst.gates):
        if gate.kind == PURIFY:
            gates_json.append({"type": gate.kind, "in": list(gate.inputs), "out": list(gate.outputs)})
        else:
            gates_json.append({"type": gate.kind, "in": list(gate.inputs), "out": gate.outputs[0]})
    payload = {
        "nodes": list(inst.nodes),
        "gates": gates_json,
        "oracle": inst.oracle_spec,
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


def _json_object(value, what: str) -> dict:
    if not isinstance(value, dict):
        raise ValueError(f"{what} must be a JSON object, got {value!r}")
    return value


def _json_list(value, what: str) -> list:
    if not isinstance(value, list):
        raise ValueError(f"{what} must be a JSON list, got {value!r}")
    return value


def _oracle_from_spec(spec: Optional[dict], ledger: QueryLedger) -> Optional[BoolOracle]:
    if spec is None:
        return None
    kind = _json_object(spec, "'oracle'").get("kind")
    if kind == "truth_table":
        table = _json_list(spec["data"], "a truth-table oracle's 'data'")
        return BoolOracle.from_truth_table(table, ledger=ledger)
    if kind == "sperner":
        from . import sperner  # deferred: sperner has no dependency on this module

        data = _json_object(spec["data"], "a sperner oracle's 'data'")
        test_map = sperner.get_test_map(data["map"])
        d = whole_number(data["d"], "a sperner oracle's 'd'", 1)
        M = whole_number(data["M"], "a sperner oracle's 'M'", 1)
        eps = data["eps"]
        if not isinstance(eps, Real):
            raise ValueError(f"a sperner oracle's 'eps' must be a number, got {eps!r}")
        if d != test_map.d:
            raise ValueError(f"stored d={d} but map {test_map.name!r} has d={test_map.d}")
        labeling, derived_m = sperner.make_brouwer_labeling(test_map.fn, d, eps)
        if derived_m != M:
            raise ValueError(f"stored M={M} but eps={eps} derives M={derived_m}")
        return build_oracle_from_labeling(sperner.SpernerInstance(M, d, labeling, ledger))
    raise ValueError(f"unknown oracle kind {kind!r}")


def _name_list(names, what: str) -> Tuple[str, ...]:
    """names as a tuple; it must be a JSON list of strings, else ValueError
    saying what was expected."""
    if not isinstance(names, list) or not all(isinstance(v, str) for v in names):
        raise ValueError(f"{what}, got {names!r}")
    return tuple(names)


def _node_names(value, key: str) -> Tuple[str, ...]:
    """A gate's "in" or "out": one node name or a list of them."""
    names = [value] if isinstance(value, str) else value
    return _name_list(names, f"gate {key!r} must be a node name or a list of node names")


def circuit_from_json(text: str) -> CircuitInstance:
    """Instance from circuit JSON text; see circuit_from_payload."""
    return circuit_from_payload(json.loads(text))


def circuit_from_payload(payload) -> CircuitInstance:
    """Instance from parsed circuit JSON.  Gates are taken as written; their
    shape (inputs and outputs per kind) is left to validate_instance."""
    payload = _json_object(payload, "a circuit")
    ledger = QueryLedger()
    gates = []
    for item in _json_list(payload["gates"], "'gates'"):
        kind = _json_object(item, "each gate")["type"]
        if kind not in _GATE_ORDER:
            raise ValueError(f"unknown gate type {kind!r}")
        gates.append(Gate(kind, _node_names(item["in"], "in"), _node_names(item["out"], "out")))
    oracle = _oracle_from_spec(payload.get("oracle"), ledger)
    return CircuitInstance(
        nodes=_name_list(payload["nodes"], "'nodes' must be a list of node names"),
        gates=tuple(_canonical_gates(gates)),
        oracle=oracle,
        ledger=ledger,
        oracle_spec=payload.get("oracle"),
    )
