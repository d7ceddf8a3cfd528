import json
from itertools import product

import numpy as np
import pytest

from minmaxlab.boolinterp import BoolOracle
from minmaxlab.circuit import (
    BOT,
    Assignment,
    CircuitInstance,
    NOR,
    ORACLE,
    PURIFY,
    Gate,
    build_constant_gadget,
    build_oracle_from_labeling,
    check_assignment,
    circuit_from_json,
    circuit_to_json,
    nor,
    oracle_gate,
    purify,
    unary_decode,
    validate_instance,
)
from minmaxlab.config import whole_number
from minmaxlab.ledger import QueryLedger
from minmaxlab.sperner import SpernerInstance

from circuits import build_constant_gadget_core, nor_loop, oracle_attracting, oracle_pair, purify_loop


class TestLedger:
    def test_record_and_total(self):
        ledger = QueryLedger()
        ledger.record("L")
        ledger.record("L", 3)
        ledger.record("lambda")
        assert ledger.count("L") == 4
        assert ledger.total() == 5

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            QueryLedger().record("L", -1)

    def test_keys_sum_separately(self):
        ledger = QueryLedger()
        ledger.record("L", 2)
        for counts in [{"L": 3, "F": 1}, {"lambda": 4}, {"F": 5, "JF_evals": 1}]:
            for key, value in counts.items():
                ledger.record(key, value)
        assert ledger.snapshot() == {"L": 5, "F": 6, "lambda": 4, "JF_evals": 1}
        assert ledger.count("F") == 6 and ledger.count("cut_evals") == 0
        assert ledger.total() == 16

    def test_snapshot_is_a_copy(self):
        ledger = QueryLedger()
        ledger.record("L", 2)
        snap = ledger.snapshot()
        snap["L"] = 99
        snap["F"] = 1
        assert ledger.snapshot() == {"L": 2} and ledger.count("F") == 0 and ledger.total() == 2
        snap = ledger.snapshot()
        ledger.record("L")
        ledger.record("F", 3)
        assert snap == {"L": 2}
        assert ledger.snapshot() == {"L": 3, "F": 3}
        assert repr(ledger) == "QueryLedger({'L': 3, 'F': 3})"

    @pytest.mark.parametrize("amount", [0.5, -1, -2.0, float("nan"), float("inf"), float("-inf"), "1", None, 1j])
    def test_rejects_non_whole_increments_before_counting(self, amount):
        ledger = QueryLedger()
        ledger.record("L")
        with pytest.raises(ValueError):
            ledger.record("L", amount)
        assert ledger.snapshot() == {"L": 1}

    def test_whole_counts_stored_as_int(self):
        import numpy as np

        ledger = QueryLedger()
        ledger.record("L", 2.0)
        ledger.record("F", np.int64(3))
        ledger.record("L", 4.0)
        ledger.record("F", np.uint8(1))
        ledger.record("lambda", True)
        ledger.record("lambda", 0)
        snap = ledger.snapshot()
        assert snap == {"L": 6, "F": 4, "lambda": 1}
        assert all(type(v) is int for v in snap.values())


class TestWholeNumber:
    @pytest.mark.parametrize("value", [2.5, float("nan"), float("inf"), "3", None, -1])
    def test_rejected(self, value):
        with pytest.raises(ValueError, match="the count must be a whole number >= 0"):
            whole_number(value, "the count")

    @pytest.mark.parametrize("value", [3, np.int64(3), 3.0, True])
    def test_accepted_as_int(self, value):
        n = whole_number(value, "the count")
        assert n == value and type(n) is int

    def test_minimum(self):
        assert whole_number(1, "m", 1) == 1
        with pytest.raises(ValueError, match="m must be a whole number >= 1, got 0"):
            whole_number(0, "m", 1)

    @pytest.mark.parametrize("arity", [1.5, 0, float("nan"), "2", None])
    def test_oracle_arity_rejected(self, arity):
        with pytest.raises(ValueError, match="oracle arity must be a whole number >= 1"):
            BoolOracle(arity=arity, fn=lambda bits: 0)

    @pytest.mark.parametrize("arity", [2, 2.0, np.int64(2)])
    def test_oracle_arity_stored_as_int(self, arity):
        oracle = BoolOracle(arity=arity, fn=lambda bits: bits[0])
        assert oracle.arity == 2 and type(oracle.arity) is int
        assert oracle.query((1, 0)) == 1

    @pytest.mark.parametrize("M, d", [(3.5, 2), (16, 2.7), ("3", 1), (float("inf"), 1), (3, None)])
    def test_grid_size_rejected(self, M, d):
        with pytest.raises(ValueError, match="M >= 2 and d >= 1"):
            SpernerInstance(M=M, d=d, labeling=lambda p: (1, 1))

    @pytest.mark.parametrize("M, d", [(3.0, 2.0), (np.int64(3), np.int64(2))])
    def test_grid_size_stored_as_int(self, M, d):
        inst = SpernerInstance(M=M, d=d, labeling=lambda p: (1, 1))
        assert (inst.M, inst.d) == (3, 2)
        assert type(inst.M) is int and type(inst.d) is int


class TestValidate:
    def test_gadget_core_is_well_formed(self):
        core = build_constant_gadget_core()
        assert len(core.nodes) == 9
        assert validate_instance(core) == []

    def test_full_gadget_is_well_formed(self):
        gadget = build_constant_gadget()
        assert len(gadget.instance.nodes) == 12
        assert validate_instance(gadget.instance) == []

    def test_hand_built_instances_are_well_formed(self):
        for inst in (nor_loop(), purify_loop(), oracle_pair(), oracle_attracting()):
            assert validate_instance(inst) == []

    def test_empty_circuit_is_flagged(self):
        assert validate_instance(CircuitInstance(nodes=(), gates=())) == ["the circuit has no nodes"]

    def test_double_output_is_flagged(self):
        inst = CircuitInstance(
            nodes=("a", "b", "c", "d"),
            gates=(purify("a", "b", "c"), purify("d", "b", "a"), nor("b", "c", "d")),
        )
        violations = validate_instance(inst)
        assert any("'b'" in v and "2 gates" in v for v in violations)

    def test_missing_output_is_flagged(self):
        inst = CircuitInstance(nodes=("a", "b", "c"), gates=(nor("a", "b", "c"),))
        violations = validate_instance(inst)
        assert any("'a'" in v for v in violations)
        assert any("'b'" in v for v in violations)

    def test_oracle_arity_mismatch_flagged(self):
        ledger = QueryLedger()
        oracle = BoolOracle.from_truth_table([0, 1], ledger=ledger)  # arity 1
        inst = CircuitInstance(
            nodes=("a", "b", "c"),
            gates=(purify("b", "a", "c"), oracle_gate(("a", "c"), "b")),
            oracle=oracle,
            ledger=ledger,
        )
        violations = validate_instance(inst)
        assert any("arity mismatch" in v for v in violations)

    def test_oracle_gate_without_oracle_flagged(self):
        inst = CircuitInstance(
            nodes=("a", "b", "c"),
            gates=(purify("b", "a", "c"), oracle_gate(("a", "c"), "b")),
        )
        assert any("no oracle" in v for v in validate_instance(inst))

    def test_repeated_gate_member_flagged(self):
        inst = CircuitInstance(
            nodes=("a", "b", "c"),
            gates=(purify("a", "b", "c"), nor("b", "b", "a")),
        )
        assert any("distinct" in v for v in validate_instance(inst))

    @pytest.mark.parametrize("kind", ["XOR", "nor", ["NOR"], None])
    def test_unknown_gate_kind_raises_when_made(self, kind):
        with pytest.raises(ValueError, match="unknown gate kind"):
            Gate(kind, ("a", "b"), ("c",))


def brute_force_satisfying(inst):
    """All satisfying assignments by direct evaluation of the gate rules.

    Written independently of check_assignment: NOR/PURIFY semantics are
    spelled out inline over explicit truth cases.
    """
    names = inst.nodes
    sat = []
    for combo in product((0, 1, BOT), repeat=len(names)):
        b = dict(zip(names, combo))
        ok = True
        for gate in inst.gates:
            if gate.kind == "NOR":
                u, v = gate.inputs
                (w,) = gate.outputs
                if b[u] == 0 and b[v] == 0:
                    ok = b[w] == 1
                elif b[u] == 1 or b[v] == 1:
                    ok = b[w] == 0
            elif gate.kind == "PURIFY":
                (u,) = gate.inputs
                v, w = gate.outputs
                if b[v] is BOT and b[w] is BOT:
                    ok = False
                elif b[u] == 0:
                    ok = b[v] == 0 and b[w] == 0
                elif b[u] == 1:
                    ok = b[v] == 1 and b[w] == 1
            else:
                bits = [b[u] for u in gate.inputs]
                (v,) = gate.outputs
                if all(bit in (0, 1) for bit in bits):
                    ok = b[v] == inst.oracle.fn(tuple(bits))
            if not ok:
                break
        if ok:
            sat.append(b)
    return sat


class TestCheckAssignment:
    def test_nor_rules(self):
        inst = nor_loop()
        sat = Assignment({"a": 1, "b": 0, "c": 0})
        # NOR(b, c -> a): both inputs 0 forces a = 1
        violated = check_assignment(inst, sat)
        assert all(g.kind != "NOR" for g in violated)
        bad = Assignment({"a": 0, "b": 0, "c": 0})
        assert any(g.kind == "NOR" for g in check_assignment(inst, bad))

    def test_nor_dominant_one(self):
        inst = nor_loop()
        bad = Assignment({"a": 1, "b": 1, "c": BOT})
        assert any(g.kind == "NOR" for g in check_assignment(inst, bad))

    def test_purify_needs_one_pure_output(self):
        inst = purify_loop()
        allbot = Assignment(dict.fromkeys(inst.nodes, BOT))
        violated = check_assignment(inst, allbot)
        assert len(violated) == 2  # both PURIFY gates

    def test_purify_copies_pure_input(self):
        inst = purify_loop()
        bad = Assignment({"a": 1, "b": 1, "c": 0, "d": 1})
        violated = check_assignment(inst, bad)
        assert any(g.outputs == ("b", "c") for g in violated)

    def test_oracle_vacuous_on_bot_input(self):
        inst = oracle_pair(table=(0, 1))
        before = inst.ledger.count("L")
        violated = check_assignment(inst, Assignment({"a": BOT, "b": 1}))
        # gate ORACLE((a) -> b) has a bot input: no constraint, no query
        assert all(g.inputs != ("a",) for g in violated)
        assert inst.ledger.count("L") - before == 1  # only the pure gate queried

    def test_oracle_query_count_matches_pure_gates(self):
        inst = oracle_pair(table=(1, 0))
        before = inst.ledger.count("L")
        check_assignment(inst, Assignment({"a": 1, "b": 0}))
        assert inst.ledger.count("L") - before == 2

    def test_totality_required(self):
        inst = nor_loop()
        with pytest.raises(ValueError):
            check_assignment(inst, Assignment({"a": 0}))

    def test_checker_equals_brute_force(self):
        for inst in (nor_loop(), purify_loop(), oracle_pair(), oracle_purify_small()):
            names = inst.nodes
            expected = {tuple(b[v] for v in names) for b in brute_force_satisfying(inst)}
            got = set()
            for combo in product((0, 1, BOT), repeat=len(names)):
                b = Assignment(dict(zip(names, combo)))
                if not check_assignment(inst, b):
                    got.add(combo)
            assert got == expected
            assert expected, f"{inst.nodes}: no satisfying assignment found"


def oracle_purify_small():
    from circuits import oracle_purify

    return oracle_purify(table=(0, 1, 1, 0))


class TestConstantGadget:
    def test_canonical_satisfying_assignment(self):
        gadget = build_constant_gadget()
        b = Assignment(
            {
                "v1": BOT,
                "v2": BOT,
                "v3": 0,
                "v4": BOT,
                "v5": 1,
                "v6": 1,
                "v7": 1,
                "v8": 0,
                "v9": 0,
                "v10": 0,
                "v11": 0,
                "v12": 1,
            }
        )
        assert check_assignment(gadget.instance, b) == []
        assert b[gadget.zero_node] == 0
        assert b[gadget.one_node] == 1

    def test_pure_v1_is_unsatisfiable(self):
        # forcing v1 pure propagates to a contradiction around the loop
        gadget = build_constant_gadget()
        for bit in (0, 1):
            flip = 1 - bit
            b = Assignment(
                {
                    "v1": bit,
                    "v2": bit,
                    "v3": bit,
                    "v4": flip,
                    "v5": flip,
                    "v6": flip,
                    "v7": flip,
                    "v8": bit,
                    "v9": 0,
                    "v10": 0,
                    "v11": 0,
                    "v12": 1,
                }
            )
            assert check_assignment(gadget.instance, b) != []

    def test_core_scan_pins_zero_node(self):
        # exhaustive over the 9-node core: every satisfying assignment has v9 = 0
        core = build_constant_gadget_core()
        sats = brute_force_satisfying(core)
        assert sats
        assert all(b["v9"] == 0 for b in sats)


class TestOracleFromLabeling:
    @staticmethod
    def make(M=3, d=2):
        calls = []

        def labeling(point):
            calls.append(point)
            return tuple(1 if point[i] <= M // 2 else -1 for i in range(d))

        ledger = QueryLedger()
        oracle = build_oracle_from_labeling(SpernerInstance(M, d, labeling, ledger))
        return oracle, calls, ledger

    def test_arity(self):
        oracle, _, _ = self.make(M=3, d=2)
        assert oracle.arity == 3 * 2 + 2

    def test_malformed_selector_returns_zero_without_queries(self):
        oracle, calls, ledger = self.make()
        z = (1, 0, 0, 1, 1, 0)
        assert oracle.query(z + (0, 0)) == 0
        assert oracle.query(z + (1, 1)) == 0
        assert calls == []
        assert ledger.count("lambda") == 0
        assert ledger.count("L") == 2

    def test_one_hot_selector_decodes_and_queries_once(self):
        oracle, calls, ledger = self.make(M=3, d=2)
        # block 1 = (1,0,0) -> 1, block 2 = (1,1,0) -> 2; select coordinate 0
        out = oracle.query((1, 0, 0, 1, 1, 0, 1, 0))
        assert calls == [(1, 2)]
        assert out == 1  # labeling gives +1 at small coordinates
        assert ledger.count("lambda") == 1

    @pytest.mark.parametrize("labels", [(1, 0), (1,), (1, -1, 1)], ids=["zero", "short", "long"])
    def test_bad_labels_raise_through_the_oracle(self, labels):
        ledger = QueryLedger()
        oracle = build_oracle_from_labeling(SpernerInstance(3, 2, lambda point: labels, ledger))
        with pytest.raises(ValueError, match="labeling returned"):
            oracle.query((1, 0, 0, 1, 1, 0, 1, 0))
        assert ledger.snapshot() == {"L": 1, "lambda": 1}

    def test_all_ones_block_decodes_to_M(self):
        oracle, calls, _ = self.make(M=3, d=2)
        oracle.query((1, 1, 1, 1, 1, 1, 0, 1))
        assert calls == [(3, 3)]

    def test_unary_decode_clamps(self):
        assert unary_decode((0, 0, 0), 3) == 1
        assert unary_decode((1, 0, 1), 3) == 2  # popcount, not prefix
        assert unary_decode((1, 1, 1), 3) == 3

    def test_popcount_against_reference(self):
        # independent reference: count ones by string ops, clamp
        for bits in product((0, 1), repeat=5):
            ref = min(max("".join(map(str, bits)).count("1"), 1), 5)
            assert unary_decode(bits, 5) == ref


class TestJsonFormat:
    def test_roundtrip_truth_table(self):
        inst = oracle_attracting(table=(0, 1, 1, 1))
        text = circuit_to_json(inst)
        back = circuit_from_json(text)
        assert validate_instance(back) == []
        assert back.oracle.query((1, 0)) == 1
        assert circuit_to_json(back) == text

    @pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
    def test_non_standard_constants_rejected(self, constant):
        text = circuit_to_json(oracle_pair()).replace('"kind"', f'"note":{constant},"kind"')
        with pytest.raises(ValueError, match=f"{constant} is not a JSON number"):
            circuit_from_json(text)

    def test_non_finite_oracle_spec_not_written(self):
        inst = oracle_pair()
        inst.oracle_spec = {**inst.oracle_spec, "note": float("nan")}
        with pytest.raises(ValueError):
            circuit_to_json(inst)

    @pytest.mark.parametrize("gate", [
        Gate(NOR, ("a", "b"), ("c", "a")),
        Gate(NOR, ("a", "b"), ()),
        Gate(ORACLE, ("a",), ("b", "c")),
        Gate(PURIFY, ("a",), ("b",)),
        Gate(PURIFY, ("a",), ()),
    ], ids=["nor-two-outputs", "nor-no-output", "oracle-two-outputs", "purify-one-output", "purify-no-output"])
    def test_malformed_gate_round_trips(self, gate):
        # every output is written, so the file reads back as the same
        # circuit with the same violation report
        inst = CircuitInstance(nodes=("a", "b", "c"), gates=(gate,))
        back = circuit_from_json(circuit_to_json(inst))
        assert back.gates == (gate,)
        assert validate_instance(back) == validate_instance(inst) != []

    def test_booleans_are_bits_in_the_api_but_not_numbers_in_a_file(self):
        assert BoolOracle.from_truth_table([False, True]).query((True,)) == 1
        payload = {"nodes": ["a"], "gates": [], "oracle": {"kind": "truth_table", "data": [0, True]}}
        with pytest.raises(ValueError, match="a truth-table entry must be a number, got True"):
            circuit_from_json(json.dumps(payload))

    def test_canonical_bytes_stable(self):
        # same instance built with shuffled gate order serializes identically
        a = CircuitInstance(
            nodes=("a", "b", "c"),
            gates=(purify("a", "b", "c"), nor("b", "c", "a")),
        )
        b = CircuitInstance(
            nodes=("a", "b", "c"),
            gates=(nor("b", "c", "a"), purify("a", "b", "c")),
        )
        assert circuit_to_json(a) == circuit_to_json(b)

    def test_node_order_preserved_by_roundtrip(self):
        # node order fixes the coordinate order of point files, so it
        # must survive serialization verbatim
        inst = build_constant_gadget().instance
        back = circuit_from_json(circuit_to_json(inst))
        assert back.nodes == inst.nodes

    def test_sperner_oracle_kind(self):
        import json

        payload = {
            "nodes": sorted([f"n{i}" for i in range(34)]),
            "gates": [
                {
                    "type": "ORACLE",
                    "in": [f"n{i}" for i in range(1, 33)],
                    "out": "n0",
                }
            ]
            + [
                {"type": "PURIFY", "in": [f"n{(2 * i) % 33}"], "out": [f"n{2 * i + 1}", f"n{2 * i + 2}"]}
                for i in range(16)
            ],
            "oracle": {
                "kind": "sperner",
                "data": {"map": "constant", "M": 16, "d": 2, "eps": 0.2},
            },
        }
        inst = circuit_from_json(json.dumps(payload))
        # arity M*d + d = 34
        assert inst.oracle.arity == 34
        # malformed selector: all zero tail bits
        assert inst.oracle.query((0,) * 34) == 0
        assert inst.ledger.count("lambda") == 0

    @staticmethod
    def parse(*gates):
        return circuit_from_json(json.dumps({"nodes": ["a", "b", "c", "d"], "gates": list(gates), "oracle": None}))

    def test_three_input_nor_is_reported_not_truncated(self):
        inst = self.parse({"type": "NOR", "in": ["a", "b", "c"], "out": "d"})
        assert inst.gates[0].inputs == ("a", "b", "c")
        assert "NOR(a,b,c -> d): NOR takes 2 inputs, 1 output" in validate_instance(inst)

    def test_string_purify_out_is_reported_not_split(self):
        inst = self.parse({"type": "PURIFY", "in": ["a"], "out": "bc"})
        assert inst.gates[0].outputs == ("bc",)
        assert "PURIFY(a -> bc): PURIFY takes 1 input, 2 outputs" in validate_instance(inst)

    def test_list_oracle_out_is_reported(self):
        inst = self.parse({"type": "ORACLE", "in": ["a"], "out": ["b", "c"]})
        assert "ORACLE(a -> b,c): ORACLE takes N>=1 inputs, 1 output" in validate_instance(inst)

    @pytest.mark.parametrize("key, value", [("in", 3), ("in", [["a"]]), ("in", {"a": 1}), ("out", None), ("out", ["b", 1])])
    def test_members_must_be_node_names(self, key, value):
        gate = {"type": "PURIFY", "in": ["a"], "out": ["b", "c"]}
        gate[key] = value
        with pytest.raises(ValueError, match="node name"):
            self.parse(gate)

    @pytest.mark.parametrize("nodes", [[["a"], "b"], "ab", ["a", 1], None])
    def test_nodes_must_be_a_list_of_names(self, nodes):
        payload = {"nodes": nodes, "gates": [{"type": "NOR", "in": ["a", "a"], "out": "b"}], "oracle": None}
        with pytest.raises(ValueError, match="'nodes' must be a list of node names"):
            circuit_from_json(json.dumps(payload))

    def test_oracle_without_spec_is_not_written(self):
        inst = CircuitInstance(
            nodes=("a", "b"),
            gates=(oracle_gate(("b",), "a"), oracle_gate(("a",), "b")),
            oracle=BoolOracle.from_truth_table([0, 1]),
        )
        with pytest.raises(ValueError, match="no oracle_spec"):
            circuit_to_json(inst)

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"d": 2.7}, "'d' must be a whole number"),
            ({"M": 16.9}, "'M' must be a whole number"),
            ({"d": [2]}, "'d' must be a whole number"),
            ({"M": "16"}, "'M' must be a whole number"),
            ({"eps": "0.2"}, "'eps' must be a number"),
            ({"eps": [0.2]}, "'eps' must be a number"),
            ({"eps": True}, "'eps' must be a number, got True"),
            ({"d": True}, "stored d=1 but map 'constant' has d=2"),
            ({"d": 3}, "stored d=3 but map 'constant' has d=2"),
            ({"map": ["constant"]}, "unknown test map"),
        ],
    )
    def test_sperner_oracle_data_checked_when_parsed(self, change, message):
        data = {"map": "constant", "M": 16, "d": 2, "eps": 0.2, **change}
        payload = {"nodes": ["n0"], "gates": [], "oracle": {"kind": "sperner", "data": data}}
        with pytest.raises(ValueError, match=message):
            circuit_from_json(json.dumps(payload))

    def test_sperner_oracle_M_mismatch_rejected(self):
        import json

        payload = {
            "nodes": ["n0"],
            "gates": [],
            "oracle": {
                "kind": "sperner",
                "data": {"map": "constant", "M": 99, "d": 2, "eps": 0.2},
            },
        }
        with pytest.raises(ValueError, match="derives"):
            circuit_from_json(json.dumps(payload))
