"""Grid labeling problem over [M]^d and its reduction from fixed points.

A labeling lambda: [M]^d -> {-1,+1}^d satisfies the boundary conditions
when coordinate i of the label is forced to +1 on the x_i = 1 face and
to -1 on the x_i = M face.  A solution is a cluster of grid points of
sup-norm diameter <= 1 that covers both labels in every coordinate.

Any continuous self-map F of [0,1]^d induces such a labeling on the grid
phi(t) = (t-1)/(M-1) with M = ceil(1 + 3/eps): label coordinate i of a
grid point p is +1 exactly when the boundary-normalized map

    Fn = (1 - eps/2) F + (eps/2) (1/2, ..., 1/2)

satisfies Fn_i(phi(p)) > phi_i(p), and -1 otherwise (ties get -1).  One
labeling query costs exactly one F query, the boundary conditions hold
by construction, and for 2-Lipschitz (sup-norm) maps the first point of
any solution cluster decodes to an approximate fixed point with residual
at most eps.

SpernerInstance.query checks in one walk that a point has d integral
coordinates in [1..M] (a non-integral one raises, it is not truncated;
a tuple of in-range ints passes as it is) before charging the ledger,
and accepts only labels equal to -1 or +1.  brouwer_to_labeling is the
one constructor of an induced labeling: each of its queries charges
``lambda`` and one ``F`` to the instance's ledger, hands F an ndarray,
requires d finite values back, and compares on Python floats with the
operations of the float64 formula above, so the labels are the same bits.

The exhaustive search labels the grid in one walk, _label_grid, that
queries every grid point in row-major order and keeps one packed code
per point (bit i set when label i is +1) in a flat array, not a tuple
per point.  The search skips every unit cell whose corner codes cannot
cover and tests clusters with bitwise OR and AND.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations_with_replacement, product
from typing import Callable, Dict, List, NoReturn, Optional, Sequence, Tuple

import numpy as np

from .config import DEFAULTS, whole_number
from .ledger import QueryLedger

GridPoint = Tuple[int, ...]


def _grid_point(point: Sequence[int], M: int, d: int) -> GridPoint:
    """point as a tuple of ints, checked to be d whole-number coordinates
    (config.whole_number) in [1..M].  A tuple of d ints in range, as the
    grid walks make, is returned as it is."""
    if type(point) is tuple and len(point) == d:
        for t in point:
            if type(t) is not int or not 1 <= t <= M:
                break
        else:
            return point
    coords = tuple([whole_number(t, "a grid coordinate", 1) for t in point])
    if len(coords) != d or max(coords) > M:
        raise ValueError(f"point {point} is not in [1..{M}]^{d}")
    return coords


def _not_a_sign(label) -> NoReturn:
    raise ValueError(f"labeling returned {label!r}, expected a sign -1 or +1")


@dataclass
class SpernerInstance:
    """Grid width M, dimension d, and a labeling whose queries are each
    charged to ``ledger["lambda"]``."""

    M: int
    d: int
    labeling: Callable[[GridPoint], Tuple[int, ...]]
    ledger: QueryLedger = field(default_factory=QueryLedger)

    def __post_init__(self) -> None:
        # M = 1 would put every point on both faces of every coordinate
        try:
            self.M, self.d = whole_number(self.M, "M", 2), whole_number(self.d, "d", 1)
        except ValueError:
            raise ValueError(f"need whole numbers M >= 2 and d >= 1, got M={self.M!r}, d={self.d!r}") from None

    def query(self, point: Sequence[int]) -> Tuple[int, ...]:
        """Labels of one grid point, charged as one query.  Coordinates must
        be integral (ints, numpy ints, bools or integral floats) and lie in
        [1..M]; the point is checked before the ledger is charged."""
        coords = _grid_point(point, self.M, self.d)
        self.ledger.record("lambda")
        labels = tuple([1 if l == 1 else -1 if l == -1 else _not_a_sign(l) for l in self.labeling(coords)])
        if len(labels) != self.d:
            raise ValueError(f"labeling returned {len(labels)} signs, expected {self.d}")
        return labels


@dataclass(frozen=True)
class SpernerSolution:
    """Cluster of grid points; canonically d of them (2 when d = 1)."""

    points: Tuple[GridPoint, ...]


@dataclass(frozen=True)
class SpernerCertificate:
    ok: bool
    max_pair_distance: int
    distance_pair: Optional[Tuple[GridPoint, GridPoint]]
    uncovered: Tuple[Tuple[int, int], ...]  # (coordinate, missing label)


def verify_sperner_solution(
    inst: SpernerInstance, sol: SpernerSolution
) -> Tuple[bool, SpernerCertificate]:
    """Check diameter <= 1 and full label coverage; <= d labeling queries.

    The certificate lists any uncovered (coordinate, label) pair and the
    worst point pair when the diameter bound fails.  Out-of-range points
    are rejected outright.
    """
    points = [_grid_point(p, inst.M, inst.d) for p in sol.points]
    if not points:
        raise ValueError("empty solution")

    max_dist = 0
    worst: Optional[Tuple[GridPoint, GridPoint]] = None
    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            dist = max(abs(a - b) for a, b in zip(points[i], points[j]))
            if dist > max_dist:
                max_dist = dist
                worst = (points[i], points[j])

    cache: Dict[GridPoint, Tuple[int, ...]] = {}
    for p in points:
        if p not in cache:
            cache[p] = inst.query(p)

    uncovered: List[Tuple[int, int]] = []
    for i in range(inst.d):
        seen = {cache[p][i] for p in points}
        for label in (-1, 1):
            if label not in seen:
                uncovered.append((i, label))

    ok = max_dist <= 1 and not uncovered
    cert = SpernerCertificate(
        ok=ok,
        max_pair_distance=max_dist,
        distance_pair=worst if max_dist > 1 else None,
        uncovered=tuple(uncovered),
    )
    return ok, cert


# ---------------------------------------------------------------------------
# reduction from continuous self-maps
# ---------------------------------------------------------------------------

def grid_to_cube(point: Sequence[int], M: int) -> np.ndarray:
    """phi(t) = (t-1)/(M-1) applied coordinate-wise."""
    return np.array([(t - 1.0) / (M - 1.0) for t in point], dtype=float)


def brouwer_to_labeling(
    F: Callable[[np.ndarray], np.ndarray],
    d: int,
    eps: float,
    ledger: Optional[QueryLedger] = None,
) -> SpernerInstance:
    """The labeling instance F induces at accuracy eps, on a fresh ledger when
    none is given.  Each labeling query charges ``lambda`` and, before F
    runs, one ``F`` query to that ledger.

    The labeling takes points of [1..M]^d with int coordinates, as
    SpernerInstance.query hands them on.  F gets phi(p) as an ndarray and
    must return d finite values (ValueError otherwise); the comparison runs
    on Python floats with the operations, and their order, of
    (1 - eps/2) * F(z) + (eps/2) * 0.5 > z on float64 arrays, so the labels
    are those of that formula."""
    if not (0.0 < eps < 1.0):
        raise ValueError(f"eps must lie in (0,1), got {eps}")
    ledger = ledger or QueryLedger()
    M = math.ceil(1.0 + 3.0 / eps)
    scale, shift = float(1.0 - eps / 2.0), float((eps / 2.0) * 0.5)
    phi = [(t - 1.0) / (M - 1.0) for t in range(M + 1)]  # phi[t], the grid_to_cube value
    shape = (d,)

    def labeling(point: GridPoint) -> Tuple[int, ...]:
        ledger.record("F")
        z = [phi[t] for t in point]
        fz = np.asarray(F(np.array(z, dtype=float)), dtype=float)
        if fz.shape != shape:
            raise ValueError(f"F returned shape {fz.shape} at {point}, expected {shape}")
        fz = fz.tolist()
        if not all(map(math.isfinite, fz)):
            raise ValueError(f"F returned a non-finite value at {point}: {fz}")
        return tuple([1 if scale * f + shift > x else -1 for f, x in zip(fz, z)])

    return SpernerInstance(M=M, d=d, labeling=labeling, ledger=ledger)


def decode_sperner_to_fixed_point(sol: SpernerSolution, M: int) -> np.ndarray:
    """Map the first solution point back to the cube; it must be a point of
    [1..M]^d."""
    if not sol.points:
        raise ValueError("empty solution")
    p = sol.points[0]
    return grid_to_cube(_grid_point(p, M, len(p)), M)


# ---------------------------------------------------------------------------
# registered test maps (known sup-norm Lipschitz constants <= 2)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TestMap:
    name: str
    d: int
    lipschitz_inf: float
    fn: Callable[[np.ndarray], np.ndarray]


def _constant_map(z: np.ndarray) -> np.ndarray:
    return np.array([0.5, 0.5])


_CONTRACT_CENTER = np.array([0.3, 0.7])
_CONTRACT_MATRIX = np.array([[0.3, -0.1], [0.1, 0.3]])


def _affine_contraction(z: np.ndarray) -> np.ndarray:
    return _CONTRACT_CENTER + _CONTRACT_MATRIX @ (z - _CONTRACT_CENTER)


_ROT_ANGLE = 0.9
_ROT_MATRIX = 0.7 * np.array(
    [
        [math.cos(_ROT_ANGLE), -math.sin(_ROT_ANGLE)],
        [math.sin(_ROT_ANGLE), math.cos(_ROT_ANGLE)],
    ]
)


def _smoothed_rotation(z: np.ndarray) -> np.ndarray:
    center = np.array([0.5, 0.5])
    return center + _ROT_MATRIX @ (z - center)


TEST_MAPS: Dict[str, TestMap] = {
    "constant": TestMap("constant", 2, 0.0, _constant_map),
    "affine_contraction": TestMap("affine_contraction", 2, 0.4, _affine_contraction),
    "smoothed_rotation": TestMap(
        "smoothed_rotation", 2, 0.7 * (abs(math.cos(_ROT_ANGLE)) + abs(math.sin(_ROT_ANGLE))), _smoothed_rotation
    ),
}


def get_test_map(name: str) -> TestMap:
    try:
        return TEST_MAPS[name]
    except (KeyError, TypeError):  # TypeError: an unhashable name, such as a JSON list
        raise ValueError(f"unknown test map {name!r}; registered: {sorted(TEST_MAPS)}")


# ---------------------------------------------------------------------------
# exhaustive search (small instances only)
# ---------------------------------------------------------------------------

def _label_grid(inst: SpernerInstance):
    """Query every grid point once, in product (row-major) order, and return
    one code per point in a flat array: bit i is 1 when label i is +1.

    Codes fit a bytearray up to d = 8; wider grids use an array of unsigned
    longs (at least 32 bits), enough for the d <= 19 that the exhaustive
    budget allows at M = 2."""
    d = inst.d
    if d <= 8:
        grid = bytearray()
    else:
        from array import array  # deferred: its shared library adds resident memory that d <= 8 never needs

        grid = array("L")
    codes: Dict[Tuple[int, ...], int] = {}  # at most the 2^d sign tuples
    for point in product(range(1, inst.M + 1), repeat=d):
        labels = inst.query(point)
        code = codes.get(labels)
        if code is None:
            code = codes[labels] = sum(1 << i for i, l in enumerate(labels) if l == 1)
        grid.append(code)
    return grid


def _covers(codes: Sequence[int], full: int) -> bool:
    """Whether the codes carry both signs in every coordinate: their OR is
    full (some +1) and their AND is 0 (some -1)."""
    hi, lo = 0, full
    for c in codes:
        hi |= c
        lo &= c
    return hi == full and not lo


def find_sperner_solution_exhaustive(inst: SpernerInstance) -> Optional[SpernerSolution]:
    """Scan all unit cells for a covering cluster; gated to M^d <= 10^6.

    Looks for clusters of size d (size 2 when d = 1, since a single point
    carries only one label per coordinate).  Cells are scanned in
    lexicographic anchor order and clusters in combinations_with_replacement
    order over the cell's corners, so the first solution is stable.  A
    cluster covers when the OR of its codes has all d bits set and their
    AND has none; a cell whose corners fail that test together is skipped,
    since no cluster of them can pass it.
    """
    M, d = inst.M, inst.d
    if M ** d > DEFAULTS.exhaustive_grid_budget:
        raise ValueError(
            f"grid of size {M}^{d} exceeds budget {DEFAULTS.exhaustive_grid_budget}"
        )
    grid = _label_grid(inst)

    full = (1 << d) - 1
    cluster_size = max(d, 2)
    strides = [M ** (d - 1 - i) for i in range(d)]
    offsets = [sum(s for s, b in zip(strides, bits) if b) for bits in product((0, 1), repeat=d)]
    corners = range(len(offsets))
    # anchors in lexicographic order: one run of M - 1 along the last axis per row
    for row in product(*[range(0, (M - 1) * s, s) for s in strides[:-1]]):
        start = sum(row)
        for base in range(start, start + M - 1):
            cell = [grid[base + o] for o in offsets]
            if not _covers(cell, full):
                continue
            for combo in combinations_with_replacement(corners, cluster_size):
                if _covers([cell[j] for j in combo], full):
                    return SpernerSolution(
                        points=tuple(tuple((base + offsets[j]) // s % M + 1 for s in strides) for j in combo)
                    )
    return None

