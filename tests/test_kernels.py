"""The generated kernels of BrouwerMap, and the min-max signals gda
reads from them, against the interpreted per-row loops they replaced,
bit for bit and query for query."""

import dataclasses
import io
import math
import tokenize
from typing import Iterable, List, Sequence

import numpy as np
import pytest

from minmaxlab import brouwer
from minmaxlab.boolinterp import BoolOracle, interp_eval, interp_grad
from minmaxlab.brouwer import build_brouwer, eval_F, eval_JF
from minmaxlab.circuit import NOR, ORACLE, PURIFY, CircuitInstance, nor, oracle_gate, purify
from minmaxlab.gda import _signals_from_energies
from minmaxlab.ledger import QueryLedger
from minmaxlab.smoothstep import ELL, G

from circuits import build_chain, every_instance, nor_loop, oracle_purify

_G_PLATEAU = G.plateau()
_ELL_PLATEAU = ELL.plateau()


class ReferenceTable:
    """The gate table build_brouwer made, and the loops BrouwerMap.values
    and BrouwerMap.slopes ran, before the kernels were generated.  The
    signals ran the same loops with ``signal_offsets`` (each PURIFY
    gate's offsets swapped), their slopes gate by gate in ``gate_order``."""

    def __init__(self, inst: CircuitInstance) -> None:
        positions = {v: i for i, v in enumerate(inst.nodes)}
        d = len(positions)
        kinds, inputs = [NOR] * d, [()] * d
        map_offsets, signal_offsets = [0.0] * d, [0.0] * d
        gate_order = []
        for gate in inst.gates:
            ins = tuple(positions[u] for u in gate.inputs)
            for pos, out in enumerate(gate.outputs):
                w = positions[out]
                kinds[w], inputs[w] = gate.kind, ins
                if gate.kind == PURIFY:
                    map_offsets[w] = (+0.25, -0.25)[pos]
                    signal_offsets[w] = (-0.25, +0.25)[pos]
                gate_order.append(w)
        self.circuit = inst
        self.kinds, self.inputs = tuple(kinds), tuple(inputs)
        self.map_offsets, self.signal_offsets = tuple(map_offsets), tuple(signal_offsets)
        self.gate_order = tuple(gate_order)

    def values(self, vals: Sequence[float], offsets: Sequence[float], rows: Iterable[int]) -> List[float]:
        """Smooth response of each row's gate to the coordinate values `vals`.

        Inputs at or beyond a knee get the step's plateau value without a
        call; only the transition band evaluates G or ELL."""
        kinds, inputs = self.kinds, self.inputs
        g1, g2, g_lo, g_hi, _ = _G_PLATEAU
        e1, e2, e_lo, e_hi, _ = _ELL_PLATEAU
        out: List[float] = []
        append = out.append
        for w in rows:
            kind, ins = kinds[w], inputs[w]
            if kind == NOR:
                x = vals[ins[0]] + vals[ins[1]]
                append(g_lo if x <= g1 else g_hi if x >= g2 else G(x))
            elif kind == PURIFY:
                x = vals[ins[0]] + offsets[w]
                append(e_lo if x <= e1 else e_hi if x >= e2 else ELL(x))
            else:
                append(interp_eval([vals[i] for i in ins], self.circuit.oracle))
        return out

    def slopes(self, vals: Sequence[float], offsets: Sequence[float], rows: Iterable[int]) -> List[float]:
        """d response / d input for each input of each row's gate, flattened row by row."""
        kinds, inputs = self.kinds, self.inputs
        g1, g2, _, _, g_flat = _G_PLATEAU
        e1, e2, _, _, e_flat = _ELL_PLATEAU
        out: List[float] = []
        append = out.append
        for w in rows:
            kind, ins = kinds[w], inputs[w]
            if kind == NOR:
                x = vals[ins[0]] + vals[ins[1]]
                slope = g_flat if x <= g1 or x >= g2 else G.d1(x)
                out += (slope, slope)
            elif kind == PURIFY:
                x = vals[ins[0]] + offsets[w]
                append(e_flat if x <= e1 or x >= e2 else ELL.d1(x))
            else:
                out += interp_grad([vals[i] for i in ins], self.circuit.oracle).tolist()
        return out


def signal_slopes(bmap, energies: Sequence[float]) -> List[float]:
    """ds_w/dE_u for each fan-in edge (u, w, k), in gate order, read as
    eval_grad_f reads them: entry k of the map's slopes at the energies."""
    slopes = bmap.map_slopes(energies)
    return [slopes[k] for _, _, k in bmap.fan_in]


def bits(values) -> List[str]:
    """repr of each value: equal lists mean equal types and equal bits,
    signed zeros included."""
    return [repr(v) for v in values]


def _knee_pool() -> List[float]:
    """Coordinates in [0, 1] at which some gate meets a knee of g or ell,
    one ulp either side: NOR sums with a zero partner, PURIFY inputs with
    either offset; plus signed zeros and 1."""
    pool = {0.0, -0.0, 1.0}
    for knee in (1.0 / 3.0, 2.0 / 3.0, 5.0 / 12.0, 7.0 / 12.0):
        for at in (knee, knee - 0.25, knee + 0.25):
            pool.update((math.nextafter(at, -math.inf), at, math.nextafter(at, math.inf)))
    return sorted(v for v in pool if 0.0 <= v <= 1.0)


def _points(dim: int, seed: int, count: int) -> List[List[float]]:
    """Uniform random points, then points with every coordinate drawn from
    the knee pool."""
    rng = np.random.default_rng(seed)
    pool = _knee_pool()
    points = rng.random((count, dim)).tolist()
    points += [[pool[i] for i in rng.integers(0, len(pool), dim)] for _ in range(count)]
    return points


def _instances():
    cases = [pytest.param(make, id=name) for name, make in every_instance()]
    return cases + [pytest.param(build_chain, id="chain")]


def _charged(ledger: QueryLedger, call):
    """(result, oracle queries the call charged)."""
    before = ledger.count("L")
    out = call()
    return out, ledger.count("L") - before


def _oracle_rows(ref: ReferenceTable, rows: Iterable[int]) -> int:
    return sum(1 for w in rows if ref.kinds[w] == ORACLE)


class TestKernelsMatchTheReference:
    @pytest.mark.parametrize("make", _instances())
    def test_every_kernel(self, make):
        inst = make()
        bmap, ref = build_brouwer(inst), ReferenceTable(inst)
        ledger, d = inst.ledger, bmap.dim
        rows = range(d)
        cases = (
            (bmap.map_values, ref.values, ref.map_offsets, rows),
            (bmap.map_slopes, ref.slopes, ref.map_offsets, rows),
            (lambda z: _signals_from_energies(bmap, z), ref.values, ref.signal_offsets, rows),
            (lambda z: signal_slopes(bmap, z), ref.slopes, ref.signal_offsets, ref.gate_order),
        )
        for z in _points(d, seed=d, count=60):
            for kernel, loop, offsets, order in cases:
                got, got_queries = _charged(ledger, lambda: kernel(z))
                want, want_queries = _charged(ledger, lambda: loop(z, offsets, order))
                assert bits(got) == bits(want)
                assert got_queries == want_queries <= _oracle_rows(ref, order)
            for w in rows:
                got, got_queries = _charged(ledger, lambda: bmap.row_values[w](z))
                want, want_queries = _charged(ledger, lambda: ref.values(z, ref.map_offsets, (w,)))
                assert bits([got]) == bits(want)
                assert got_queries == want_queries <= _oracle_rows(ref, (w,))

    @pytest.mark.parametrize("make", _instances())
    def test_F_and_JF(self, make):
        inst = make()
        bmap, ref = build_brouwer(inst), ReferenceTable(inst)
        d = bmap.dim
        for z in _points(d, seed=d + 1, count=20):
            assert bits(eval_F(bmap, np.array(z)).tolist()) == bits(ref.values(z, ref.map_offsets, range(d)))
            jac = np.zeros((d, d))
            for w in range(d):
                jac[w, list(ref.inputs[w])] = ref.slopes(z, ref.map_offsets, (w,))
            assert eval_JF(bmap, np.array(z)).tobytes() == jac.tobytes()

    def test_gate_order_slopes_follow_fan_in(self):
        bmap = build_brouwer(oracle_purify())
        ref = ReferenceTable(oracle_purify())
        assert tuple((u, w) for u, w, _ in bmap.fan_in) == tuple((u, w) for w in ref.gate_order for u in ref.inputs[w])
        # PURIFY(b -> a, c) then ORACLE((a, c) -> b): map_slopes holds
        # dF_a/dz_b, dF_b/dz_a, dF_b/dz_c, dF_c/dz_b
        assert bmap.sibling == (2, 1, 0)
        assert bmap.fan_in == ((1, 0, 3), (1, 2, 0), (0, 1, 1), (2, 1, 2))

    @pytest.mark.parametrize("make", _instances())
    def test_sibling_is_the_other_purify_output(self, make):
        inst = make()
        bmap, ref = build_brouwer(inst), ReferenceTable(inst)
        for w, v in enumerate(bmap.sibling):
            assert bmap.sibling[v] == w and bmap.inputs[v] == bmap.inputs[w]
            assert ref.signal_offsets[w] == ref.map_offsets[v]
            assert (v != w) == (ref.kinds[w] == PURIFY)


def test_a_wrong_sibling_changes_the_signals():
    """The identity in place of nor_loop's siblings, with each slope index
    pointing at the edge's own row, gives each PURIFY output its own map
    value and slope, not its sibling's."""
    bmap, ref = build_brouwer(nor_loop()), ReferenceTable(nor_loop())
    # PURIFY(a -> b, c) then NOR(b, c -> a); map_slopes holds
    # dF_a/dz_b, dF_a/dz_c, dF_b/dz_a, dF_c/dz_a
    assert bmap.sibling == (0, 2, 1)
    assert bmap.fan_in == ((0, 1, 3), (0, 2, 2), (1, 0, 0), (2, 0, 1))
    wrong = dataclasses.replace(bmap, sibling=(0, 1, 2), fan_in=((0, 1, 2), (0, 2, 3), (1, 0, 0), (2, 0, 1)))
    e = [0.25, 0.25, 0.25]  # NOR sum 1/2, PURIFY inputs 1/2 and 0
    assert bits(_signals_from_energies(bmap, e)) == bits(ref.values(e, ref.signal_offsets, range(3)))
    assert bits(signal_slopes(bmap, e)) == bits(ref.slopes(e, ref.signal_offsets, ref.gate_order))
    assert bits(_signals_from_energies(wrong, e)) == bits(ref.values(e, ref.map_offsets, range(3)))
    assert bits(_signals_from_energies(wrong, e)) != bits(_signals_from_energies(bmap, e))
    assert bits(signal_slopes(wrong, e)) != bits(signal_slopes(bmap, e))


def long_chain(blocks: int) -> CircuitInstance:
    """3 * blocks nodes in a ring of blocks: PURIFY(v_3k -> v_3k+1, v_3k+2)
    feeding NOR(v_3k+1, v_3k+2 -> v_3k+3), every fifth NOR an arity-2 XOR
    ORACLE instead."""
    ledger = QueryLedger()
    oracle = BoolOracle.from_truth_table([0, 1, 1, 0], ledger=ledger)
    names = [f"v{i}" for i in range(3 * blocks)]
    gates = []
    for k in range(blocks):
        a, b, c, nxt = names[3 * k], names[3 * k + 1], names[3 * k + 2], names[(3 * k + 3) % len(names)]
        gates.append(purify(a, b, c))
        gates.append(oracle_gate((b, c), nxt) if k % 5 == 0 else nor(b, c, nxt))
    return CircuitInstance(nodes=tuple(names), gates=tuple(gates), oracle=oracle, ledger=ledger)


def test_long_chain_compiles_and_matches():
    inst = long_chain(700)
    bmap, ref = build_brouwer(inst), ReferenceTable(inst)
    assert bmap.dim == 2100
    for z in _points(bmap.dim, seed=5, count=3):
        assert bits(bmap.map_values(z)) == bits(ref.values(z, ref.map_offsets, range(bmap.dim)))
        assert bits(bmap.map_slopes(z)) == bits(ref.slopes(z, ref.map_offsets, range(bmap.dim)))
        assert bits(_signals_from_energies(bmap, z)) == bits(ref.values(z, ref.signal_offsets, range(bmap.dim)))
        assert bits(signal_slopes(bmap, z)) == bits(ref.slopes(z, ref.signal_offsets, ref.gate_order))


# The generated source of two small maps, as the emitter writes it: a NOR
# row, both PURIFY offsets and an ORACLE row, on the value and the slope
# side.  Any edit of a row template shows here as a diff.
NOR_LOOP_SOURCE = """\
def kernels(L, g_spec, ell_spec):
    def map_values(z):
        return [
            1.0 if (x := z[1] + z[2]) <= 0.3333333333333333 else 0.0 if x >= 0.6666666666666666 else 1.0 + -1.0 * step_eval(g_spec, x),
            0.0 if (x := z[0] + 0.25) <= 0.4166666666666667 else 1.0 if x >= 0.5833333333333334 else 0.0 + 1.0 * step_eval(ell_spec, x),
            0.0 if (x := z[0] + -0.25) <= 0.4166666666666667 else 1.0 if x >= 0.5833333333333334 else 0.0 + 1.0 * step_eval(ell_spec, x),
        ]
    def map_slopes(z):
        return [
            (s := -0.0 if (x := z[1] + z[2]) <= 0.3333333333333333 or x >= 0.6666666666666666 else -1.0 * step_d1(g_spec, x)), s,
            0.0 if (x := z[0] + 0.25) <= 0.4166666666666667 or x >= 0.5833333333333334 else 1.0 * step_d1(ell_spec, x),
            0.0 if (x := z[0] + -0.25) <= 0.4166666666666667 or x >= 0.5833333333333334 else 1.0 * step_d1(ell_spec, x),
        ]
    return map_values, map_slopes, (
        lambda z: 1.0 if (x := z[1] + z[2]) <= 0.3333333333333333 else 0.0 if x >= 0.6666666666666666 else 1.0 + -1.0 * step_eval(g_spec, x),
        lambda z: 0.0 if (x := z[0] + 0.25) <= 0.4166666666666667 else 1.0 if x >= 0.5833333333333334 else 0.0 + 1.0 * step_eval(ell_spec, x),
        lambda z: 0.0 if (x := z[0] + -0.25) <= 0.4166666666666667 else 1.0 if x >= 0.5833333333333334 else 0.0 + 1.0 * step_eval(ell_spec, x),
    )
"""

ORACLE_PURIFY_SOURCE = """\
def kernels(L, g_spec, ell_spec):
    def map_values(z):
        return [
            0.0 if (x := z[1] + 0.25) <= 0.4166666666666667 else 1.0 if x >= 0.5833333333333334 else 0.0 + 1.0 * step_eval(ell_spec, x),
            interp_eval([z[0], z[2]], L),
            0.0 if (x := z[1] + -0.25) <= 0.4166666666666667 else 1.0 if x >= 0.5833333333333334 else 0.0 + 1.0 * step_eval(ell_spec, x),
        ]
    def map_slopes(z):
        return [
            0.0 if (x := z[1] + 0.25) <= 0.4166666666666667 or x >= 0.5833333333333334 else 1.0 * step_d1(ell_spec, x),
            *interp_grad([z[0], z[2]], L).tolist(),
            0.0 if (x := z[1] + -0.25) <= 0.4166666666666667 or x >= 0.5833333333333334 else 1.0 * step_d1(ell_spec, x),
        ]
    return map_values, map_slopes, (
        lambda z: 0.0 if (x := z[1] + 0.25) <= 0.4166666666666667 else 1.0 if x >= 0.5833333333333334 else 0.0 + 1.0 * step_eval(ell_spec, x),
        lambda z: interp_eval([z[0], z[2]], L),
        lambda z: 0.0 if (x := z[1] + -0.25) <= 0.4166666666666667 else 1.0 if x >= 0.5833333333333334 else 0.0 + 1.0 * step_eval(ell_spec, x),
    )
"""


@pytest.mark.parametrize("make, source", [(nor_loop, NOR_LOOP_SOURCE), (oracle_purify, ORACLE_PURIFY_SOURCE)],
                         ids=["nor_loop", "oracle_purify"])
def test_emitted_source_is_pinned(make, source):
    assert build_brouwer(make()).source == source


class TestNodeNamesNeverBecomeCode:
    HOSTILE = ("a'\"\n", "__import__('os').system('false')", "}{\\", "z[0]")

    @staticmethod
    def make(names):
        a, b, c = names
        ledger = QueryLedger()
        oracle = BoolOracle.from_truth_table([0, 1, 1, 0], ledger=ledger)
        return CircuitInstance(
            nodes=(a, b, c, "o"),
            gates=(purify(a, b, c), nor(b, c, a), oracle_gate((a, c), "o")),
            oracle=oracle,
            ledger=ledger,
        )

    # every name the source may use: the kernel and closure names, the
    # template keywords, the steps and their specs, and the interpolation
    ALLOWED = {
        "def", "return", "lambda", "if", "else", "or",
        "kernels", "map_values", "map_slopes", "L", "z", "x", "s",
        "step_eval", "step_d1", "g_spec", "ell_spec", "interp_eval", "interp_grad", "tolist",
    }

    @pytest.mark.parametrize("names", [HOSTILE[:3], HOSTILE[1:], HOSTILE[3:] + HOSTILE[:2]])
    def test_same_bits_as_a_renamed_copy(self, names):
        hostile, plain = build_brouwer(self.make(names)), build_brouwer(self.make(("p", "q", "r")))
        assert hostile.source == plain.source
        for z in _points(4, seed=9, count=20):
            z = np.array(z)
            assert eval_F(hostile, z).tobytes() == eval_F(plain, z).tobytes()
            assert eval_JF(hostile, z).tobytes() == eval_JF(plain, z).tobytes()
        assert hostile.ledger.snapshot() == plain.ledger.snapshot()

    def test_source_holds_only_templates_indices_and_floats(self):
        bmap = build_brouwer(self.make(self.HOSTILE[:3]))
        for tok in tokenize.generate_tokens(io.StringIO(bmap.source).readline):
            if tok.type == tokenize.NAME:
                assert tok.string in self.ALLOWED
            elif tok.type == tokenize.NUMBER:
                assert tok.string.isdigit() or float(tok.string) in (0.0, 0.25, 1.0) + G.plateau() + ELL.plateau()
            else:
                assert tok.type in (tokenize.OP, tokenize.NEWLINE, tokenize.NL, tokenize.INDENT,
                                    tokenize.DEDENT, tokenize.ENDMARKER)


class TestModuleGlobalsAtCallTime:
    """Kernels look up step_eval, step_d1, interp_eval and interp_grad in
    brouwer's globals on every call, so a wrapper installed after
    build_brouwer (as bench/spans.py installs its spans) sees every call."""

    def test_oracle_rows_call_the_patched_interpolation(self, monkeypatch):
        bmap = build_brouwer(oracle_purify())
        seen = []
        for name in ("interp_eval", "interp_grad"):
            original = getattr(brouwer, name)
            monkeypatch.setattr(brouwer, name, lambda x, oracle, f=original, n=name: seen.append(n) or f(x, oracle))
        z = np.array([0.9, 0.5, 0.1])
        eval_F(bmap, z)
        eval_JF(bmap, z)
        bmap.row_values[1](z.tolist())
        _signals_from_energies(bmap, z.tolist())
        signal_slopes(bmap, z.tolist())
        assert seen == ["interp_eval", "interp_grad", "interp_eval", "interp_eval", "interp_grad"]

    def test_band_rows_call_the_patched_steps(self, monkeypatch):
        bmap = build_brouwer(nor_loop())
        seen = []
        curve = {G.spec: "G", ELL.spec: "ELL"}
        for name, suffix in (("step_eval", ""), ("step_d1", ".d1")):
            original = getattr(brouwer, name)
            monkeypatch.setattr(brouwer, name,
                                lambda spec, x, f=original, s=suffix: seen.append(curve[spec] + s) or f(spec, x))
        z = np.array([0.25, 0.25, 0.25])  # NOR sum 1/2, PURIFY inputs 1/2 and 0
        eval_F(bmap, z)
        eval_JF(bmap, z)
        assert seen == ["G", "ELL", "G.d1", "ELL.d1"]
