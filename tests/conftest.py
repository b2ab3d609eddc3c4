"""Shared fixtures and deliberately naive oracle implementations.

The oracles here (BFS labeling, border flood fill, all-pairs Hausdorff,
the full-grid background shell and contrast seed component) stay
independent of the production code paths they check.
"""

from __future__ import annotations

import math
from collections import deque

import numpy as np
import pytest

from petquant import BinaryMask

OFFSETS_6 = [(-1, 0, 0), (1, 0, 0), (0, -1, 0), (0, 1, 0), (0, 0, -1), (0, 0, 1)]
OFFSETS_26 = [
    (dx, dy, dz)
    for dx in (-1, 0, 1)
    for dy in (-1, 0, 1)
    for dz in (-1, 0, 1)
    if (dx, dy, dz) != (0, 0, 0)
]


def mask_from_coords(coords, dims, spacing=(1.0, 1.0, 1.0)) -> BinaryMask:
    bits = np.zeros(dims, dtype=bool)
    for x, y, z in coords:
        bits[x, y, z] = True
    return BinaryMask(bits, spacing)


def translate(mask: BinaryMask, offset: tuple[int, int, int]) -> BinaryMask:
    """Shift foreground by an integer voxel offset; every voxel must stay in bounds."""
    coords = np.argwhere(mask.bits) + np.asarray(offset, dtype=np.int64)
    if (coords < 0).any() or (coords >= np.asarray(mask.dims)).any():
        raise ValueError(f"translation {offset} moves voxels out of bounds")
    out = np.zeros(mask.dims, dtype=bool)
    out[coords[:, 0], coords[:, 1], coords[:, 2]] = True
    return BinaryMask(out, mask.spacing)


def bfs_components(bits: np.ndarray, connectivity: int) -> list[set[tuple[int, int, int]]]:
    """Pure-python BFS labeling; components ordered by (-size, seed linear index)."""
    offsets = OFFSETS_6 if connectivity == 6 else OFFSETS_26
    dims = bits.shape
    seen = np.zeros(dims, dtype=bool)
    comps = []
    for x in range(dims[0]):
        for y in range(dims[1]):
            for z in range(dims[2]):
                if not bits[x, y, z] or seen[x, y, z]:
                    continue
                comp = set()
                queue = deque([(x, y, z)])
                seen[x, y, z] = True
                while queue:
                    cx, cy, cz = queue.popleft()
                    comp.add((cx, cy, cz))
                    for dx, dy, dz in offsets:
                        nx, ny, nz = cx + dx, cy + dy, cz + dz
                        if (
                            0 <= nx < dims[0]
                            and 0 <= ny < dims[1]
                            and 0 <= nz < dims[2]
                            and bits[nx, ny, nz]
                            and not seen[nx, ny, nz]
                        ):
                            seen[nx, ny, nz] = True
                            queue.append((nx, ny, nz))
                comps.append(comp)
    def seed_linear(comp):
        return min(v[0] * dims[1] * dims[2] + v[1] * dims[2] + v[2] for v in comp)
    comps.sort(key=lambda c: (-len(c), seed_linear(c)))
    return comps


def flood_fill_holes(bits: np.ndarray) -> np.ndarray:
    """Oracle for hole filling: BFS the background from the border (6-conn);
    anything the flood never reaches becomes foreground."""
    dims = bits.shape
    reached = np.zeros(dims, dtype=bool)
    queue = deque()
    for x in range(dims[0]):
        for y in range(dims[1]):
            for z in range(dims[2]):
                on_border = (
                    x in (0, dims[0] - 1) or y in (0, dims[1] - 1) or z in (0, dims[2] - 1)
                )
                if on_border and not bits[x, y, z]:
                    reached[x, y, z] = True
                    queue.append((x, y, z))
    while queue:
        cx, cy, cz = queue.popleft()
        for dx, dy, dz in OFFSETS_6:
            nx, ny, nz = cx + dx, cy + dy, cz + dz
            if (
                0 <= nx < dims[0]
                and 0 <= ny < dims[1]
                and 0 <= nz < dims[2]
                and not bits[nx, ny, nz]
                and not reached[nx, ny, nz]
            ):
                reached[nx, ny, nz] = True
                queue.append((nx, ny, nz))
    return ~reached


def brute_force_boundary(bits: np.ndarray) -> set[tuple[int, int, int]]:
    dims = bits.shape
    out = set()
    for x in range(dims[0]):
        for y in range(dims[1]):
            for z in range(dims[2]):
                if not bits[x, y, z]:
                    continue
                for dx, dy, dz in OFFSETS_6:
                    nx, ny, nz = x + dx, y + dy, z + dz
                    outside = not (0 <= nx < dims[0] and 0 <= ny < dims[1] and 0 <= nz < dims[2])
                    if outside or not bits[nx, ny, nz]:
                        out.add((x, y, z))
                        break
    return out


def brute_force_hausdorff(a_bits: np.ndarray, b_bits: np.ndarray, spacing) -> float:
    """O(n²) all-pairs Hausdorff over boundary voxels; must agree exactly with
    the production implementation (identical arithmetic expression)."""
    sx, sy, sz = spacing
    pa = sorted(brute_force_boundary(a_bits))
    pb = sorted(brute_force_boundary(b_bits))

    def directed(ps, qs):
        worst = 0.0
        for x, y, z in ps:
            best = math.inf
            for u, v, w in qs:
                dx = (x - u) * sx
                dy = (y - v) * sy
                dz = (z - w) * sz
                d2 = dx * dx + dy * dy + dz * dz
                if d2 < best:
                    best = d2
            if best > worst:
                worst = best
        return worst

    return math.sqrt(max(directed(pa, pb), directed(pb, pa)))


def grow_6(bits: np.ndarray) -> np.ndarray:
    """One step of 6-neighbour growth by shifted copies (no scipy)."""
    out = bits.copy()
    for axis in range(3):
        lo = [slice(None)] * 3
        hi = [slice(None)] * 3
        lo[axis] = slice(None, -1)
        hi[axis] = slice(1, None)
        out[tuple(hi)] |= bits[tuple(lo)]
        out[tuple(lo)] |= bits[tuple(hi)]
    return out


def full_grid_shell_mean(values: np.ndarray, roi_bits: np.ndarray, gap: int) -> float:
    """Mean over the whole grid's voxels at city-block distance exactly `gap`
    from the ROI, in scan order; 0.0 when there are none."""
    reach = roi_bits.copy()
    for _ in range(gap - 1):
        reach = grow_6(reach)
    shell = grow_6(reach) & ~reach
    return float(values[shell].mean()) if shell.any() else 0.0


def full_grid_seed_component(values: np.ndarray, roi_bits: np.ndarray, threshold: float) -> np.ndarray:
    """ROI voxels >= threshold, cut to the 26-connected component (by BFS)
    holding the ROI maximum's first voxel in scan order; all of them when
    that voxel is not selected."""
    selected = roi_bits & (values >= threshold)
    roi_max = max(float(v) for v in values[roi_bits])
    seed = next(
        (x, y, z)
        for x, y, z in np.ndindex(*values.shape)
        if roi_bits[x, y, z] and values[x, y, z] == roi_max
    )
    if not selected[seed]:
        return selected
    comp = np.zeros_like(selected)
    comp[seed] = True
    queue = deque([seed])
    dims = values.shape
    while queue:
        cx, cy, cz = queue.popleft()
        for dx, dy, dz in OFFSETS_26:
            n = (cx + dx, cy + dy, cz + dz)
            if all(0 <= c < d for c, d in zip(n, dims)) and selected[n] and not comp[n]:
                comp[n] = True
                queue.append(n)
    return comp


def random_mask(rng: np.random.Generator, dims, p=0.3, spacing=(1.0, 1.0, 1.0)) -> BinaryMask:
    return BinaryMask(rng.random(dims) < p, spacing)


@pytest.fixture
def rng():
    return np.random.default_rng(42)
