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
coordinates in [1..M] (a non-integral one raises, it is not truncated)
before charging the ledger, and accepts only labels equal to -1 or +1.
The induced labeling hands F an ndarray and compares on Python floats
with the operations of the float64 formula above, so the labels are the
same bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations_with_replacement, product
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .config import DEFAULTS
from .ledger import QueryLedger

GridPoint = Tuple[int, ...]


def _grid_point(point: Sequence[int], M: int, d: int) -> GridPoint:
    """point as a tuple of ints, checked in one walk to be d integral
    coordinates (ints, numpy ints, bools or integral floats) in [1..M]."""
    coords = []
    try:
        for t in point:
            c = int(t)
            if c != t or not 1 <= c <= M:
                raise ValueError(f"coordinate {t!r} of {point} is not an integer in [1..{M}]")
            coords.append(c)
    except OverflowError:  # int() of an infinity
        raise ValueError(f"point {point} outside [1..{M}]^{d}") from None
    if len(coords) != d:
        raise ValueError(f"point has {len(coords)} coordinates, expected {d}")
    return tuple(coords)


@dataclass
class SpernerInstance:
    """Grid width M, dimension d, and a query-counted labeling."""

    M: int
    d: int
    labeling: Callable[[GridPoint], Tuple[int, ...]]
    ledger: QueryLedger = field(default_factory=QueryLedger)
    name: str = "lambda"

    def query(self, point: Sequence[int]) -> Tuple[int, ...]:
        """Labels of one grid point, charged as one query.  Coordinates must
        be integral (ints, numpy ints, bools or integral floats) and lie in
        [1..M]; the point is checked before the ledger is charged."""
        coords = _grid_point(point, self.M, self.d)
        self.ledger.record(self.name)
        labels = []
        for l in self.labeling(coords):
            if l == 1:
                labels.append(1)
            elif l == -1:
                labels.append(-1)
            else:
                raise ValueError(f"labeling returned {l!r}, expected a sign -1 or +1")
        if len(labels) != self.d:
            raise ValueError(f"labeling returned {len(labels)} signs, expected {self.d}")
        return tuple(labels)


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


def make_brouwer_labeling(
    F: Callable[[np.ndarray], np.ndarray], d: int, eps: float
) -> Tuple[Callable[[GridPoint], Tuple[int, ...]], int]:
    """Raw (uncounted) labeling induced by F at accuracy eps; returns (fn, M).

    F gets phi(p) as an ndarray; the comparison runs on Python floats with
    the operations, and their order, of (1 - eps/2) * F(z) + (eps/2) * 0.5 > z
    on float64 arrays, so the labels are those of that formula."""
    if not (0.0 < eps < 1.0):
        raise ValueError(f"eps must lie in (0,1), got {eps}")
    M = math.ceil(1.0 + 3.0 / eps)
    scale, shift = float(1.0 - eps / 2.0), float((eps / 2.0) * 0.5)

    def labeling(point: GridPoint) -> Tuple[int, ...]:
        z = grid_to_cube(point, M)
        fz = np.asarray(F(z), dtype=float).tolist()
        zl = z.tolist()
        return tuple([1 if scale * fz[i] + shift > zl[i] else -1 for i in range(d)])

    return labeling, M


def brouwer_to_labeling(
    F: Callable[[np.ndarray], np.ndarray],
    d: int,
    eps: float,
    ledger: Optional[QueryLedger] = None,
) -> SpernerInstance:
    """Counted labeling instance; each lambda query charges one F query too."""
    ledger = ledger or QueryLedger()
    raw, M = make_brouwer_labeling(F, d, eps)

    def counted(point: GridPoint) -> Tuple[int, ...]:
        ledger.record("F")
        return raw(point)

    return SpernerInstance(M=M, d=d, labeling=counted, ledger=ledger)


def decode_sperner_to_fixed_point(sol: SpernerSolution, M: int) -> np.ndarray:
    """Map the first solution point back to the cube."""
    return grid_to_cube(sol.points[0], M)


def with_boundary_checks(inst: SpernerInstance) -> SpernerInstance:
    """Wrapper that asserts the boundary conditions on every query."""

    def checked(point: GridPoint) -> Tuple[int, ...]:
        labels = inst.labeling(point)
        for i, t in enumerate(point):
            if t == 1 and labels[i] != 1:
                raise AssertionError(f"boundary violated at {point}: coord {i} low face")
            if t == inst.M and labels[i] != -1:
                raise AssertionError(f"boundary violated at {point}: coord {i} high face")
        return labels

    return SpernerInstance(M=inst.M, d=inst.d, labeling=checked, ledger=inst.ledger)


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
    except KeyError:
        raise ValueError(f"unknown test map {name!r}; registered: {sorted(TEST_MAPS)}")


# ---------------------------------------------------------------------------
# exhaustive search (small instances only)
# ---------------------------------------------------------------------------

def find_sperner_solution_exhaustive(inst: SpernerInstance) -> Optional[SpernerSolution]:
    """Scan all unit cells for a covering cluster; gated to M^d <= 10^6.

    Looks for clusters of size d (size 2 when d = 1, since a single point
    carries only one label per coordinate).  Deterministic scan order, so
    the first solution is stable.
    """
    if inst.M ** inst.d > DEFAULTS.exhaustive_grid_budget:
        raise ValueError(
            f"grid of size {inst.M}^{inst.d} exceeds budget {DEFAULTS.exhaustive_grid_budget}"
        )
    labels: Dict[GridPoint, Tuple[int, ...]] = {}
    for point in product(range(1, inst.M + 1), repeat=inst.d):
        labels[point] = inst.query(point)

    cluster_size = max(inst.d, 2)
    for anchor in product(range(1, inst.M), repeat=inst.d):
        cell = list(product(*[(a, a + 1) for a in anchor]))
        for combo in combinations_with_replacement(cell, cluster_size):
            covered = True
            for i in range(inst.d):
                seen = {labels[p][i] for p in combo}
                if seen != {-1, 1}:
                    covered = False
                    break
            if covered:
                return SpernerSolution(points=tuple(combo))
    return None


def export_labeling_grid(inst: SpernerInstance) -> bytes:
    """Dense row-major byte grid for d <= 2; bit i of each byte is 1 iff
    the label in coordinate i is +1."""
    if inst.d > 2:
        raise ValueError("dense export supported only for d <= 2")
    out = bytearray()
    for point in product(range(1, inst.M + 1), repeat=inst.d):
        labels = inst.query(point)
        byte = 0
        for i, l in enumerate(labels):
            if l == 1:
                byte |= 1 << i
        out.append(byte)
    return bytes(out)
