"""Batched pairwise-distance / nearest-neighbour passes.

This replaces the per-robot ``SpatialHashGrid`` queries of the scalar
perf layer with whole-swarm array passes:

* small swarms (``n <= brute_limit``) use a chunked brute-force
  distance matrix — simple, exact, cache-friendly;
* large swarms use a ring-expanding grid search: points are bucketed
  into square cells of roughly one point each, and candidates are
  gathered ring by ring around each point's cell, one padded
  fancy-index per cell offset, for just the points not yet certified.

The certification rule: rings ``0..k`` cover the ``(2k+1) x (2k+1)``
window of cells around a point's cell, and every point outside that
window is at least ``k * cell`` away.  So once a point's best squared
distance is ``<= (k * cell)**2`` it is exact, and the point stops
searching.  A point that already has a candidate at distance ``d``
needs at most ``ceil(d / cell)`` rings in all.

Two cases still fall back to chunked brute force, for just that
residue: points whose window touches an *overfull* cell (more than
``_CELL_CAP`` points: dense clusters), and points still uncertified
after ``_RING_CAP`` rings (far outliers).

Every path computes a pair's squared distance with the same float
operations, so ``dist_sq`` does not depend on which path found it.

``exact_min_hypot`` exists for bit-parity with the scalar engine:
``numpy.hypot`` and ``math.hypot`` may differ in the last ulp, so the
batch kernel computes candidate distances with numpy, then re-evaluates
the near-minimal candidates with ``math.hypot`` — the returned minimum
is bit-identical to ``min(math.hypot(...) for ...)`` over all pairs.
"""

from __future__ import annotations

import math

from repro.batch import require_numpy

__all__ = ["nearest_neighbor_sq", "nearest_neighbor_radii", "exact_min_hypot"]

#: swarms up to this size use the chunked distance matrix
BRUTE_LIMIT = 4096

#: relative slack when collecting near-minimal candidates for exact
#: re-evaluation; vastly wider than the <= 1 ulp numpy/math divergence
_EXACT_SLACK = 1e-12


def nearest_neighbor_sq(px, py, brute_limit: int = BRUTE_LIMIT):
    """Per-point squared distance to the closest *other* point.

    Args:
        px, py: float64 coordinate columns of ``n >= 2`` points.
            Duplicate points yield a squared distance of 0.

    Returns:
        ``(dist_sq, neighbor)`` — float64 and int64 arrays of length
        ``n``; ``neighbor[i]`` is the index of a closest other point.
    """
    np = require_numpy()
    n = len(px)
    if n < 2:
        raise ValueError("nearest_neighbor_sq needs at least two points")
    if n <= brute_limit:
        return _brute(np, px, py, np.arange(n), px, py)
    return _grid(np, px, py)


def nearest_neighbor_radii(px, py):
    """Half the nearest-neighbour distance of every point.

    The world-frame granular radii of the whole swarm in one pass
    (the batch analogue of :func:`repro.geometry.granular.
    granular_radius` looped over all robots).  Exact to float sqrt
    rounding — callers that need bit-parity with the scalar
    ``math.hypot`` chain use :func:`exact_min_hypot` on the winning
    candidates instead.
    """
    np = require_numpy()
    dist_sq, _ = nearest_neighbor_sq(px, py)
    return np.sqrt(dist_sq) / 2.0


def exact_min_hypot(dx, dy):
    """``min(math.hypot(dx[i], dy[i]))`` — bit-identical to the scalar min.

    Finds the minimum with vectorized ``np.hypot`` (within 1 ulp of
    the true per-element values), then re-evaluates every candidate
    within a tiny relative slack of that minimum with ``math.hypot``.
    The true scalar minimum is necessarily among those candidates.
    """
    np = require_numpy()
    if len(dx) == 0:
        raise ValueError("exact_min_hypot needs at least one element")
    approx = np.hypot(dx, dy)
    lo = float(approx.min())
    if lo == 0.0:
        return 0.0
    near = np.nonzero(approx <= lo * (1.0 + _EXACT_SLACK))[0]
    return min(math.hypot(float(dx[k]), float(dy[k])) for k in near)


# ----------------------------------------------------------------------
# Chunked brute force
# ----------------------------------------------------------------------

def _brute(np, qx, qy, qidx, px, py, budget: int = 4_000_000):
    """Nearest other point of each query against the full point set.

    ``qidx`` gives the global index of each query point so self-matches
    can be masked.  ``budget`` bounds the size of the per-chunk distance
    matrix (entries, ~8 bytes each).
    """
    n = len(px)
    m = len(qx)
    best = np.empty(m, dtype=np.float64)
    bestj = np.empty(m, dtype=np.int64)
    rows = max(1, budget // max(n, 1))
    for start in range(0, m, rows):
        end = min(start + rows, m)
        dx = qx[start:end, None] - px[None, :]
        dy = qy[start:end, None] - py[None, :]
        d2 = dx * dx + dy * dy
        d2[np.arange(end - start), qidx[start:end]] = np.inf
        best[start:end] = d2.min(axis=1)
        bestj[start:end] = d2.argmin(axis=1)
    return best, bestj


# ----------------------------------------------------------------------
# Grid binning with ring-expanding search
# ----------------------------------------------------------------------

#: cap on candidates gathered per neighbour cell; denser cells push
#: their *queriers* onto the brute-force residue instead of widening
#: the padded gather
_CELL_CAP = 64

#: rings searched around a point's own cell (ring ``k`` is the border
#: of the ``(2k+1)^2`` window) before the point falls back to brute force
_RING_CAP = 8


def _ring(k):
    """Cell offsets at Chebyshev distance exactly ``k`` (ring 0 is ``(0, 0)``)."""
    edge = range(-k, k + 1)
    return [(ox, oy) for ox in edge for oy in edge if max(abs(ox), abs(oy)) == k]


def _grid(np, px, py):
    n = len(px)
    min_x = float(px.min())
    min_y = float(py.min())
    span = max(float(px.max()) - min_x, float(py.max()) - min_y)
    if span <= 0.0:
        # All points coincide: everyone's nearest neighbour is at 0.
        zeros = np.zeros(n, dtype=np.float64)
        nbr = np.arange(n, dtype=np.int64)
        nbr = (nbr + 1) % n
        return zeros, nbr
    side = max(1, int(math.sqrt(n)))
    cell = span / side
    ix = np.clip((px - min_x) // cell, 0, side - 1).astype(np.int64)
    iy = np.clip((py - min_y) // cell, 0, side - 1).astype(np.int64)
    key = ix * side + iy
    order = np.argsort(key, kind="stable")
    counts = np.bincount(key, minlength=side * side)
    starts = np.cumsum(counts) - counts

    best = np.full(n, np.inf, dtype=np.float64)
    bestj = np.full(n, -1, dtype=np.int64)
    overfull = np.zeros(n, dtype=bool)

    # Rings 0..k cover the (2k+1)^2 window around a point's cell, and
    # everything outside that window is at least k * cell away, so a
    # best distance <= k * cell is exact.  Only the points not yet
    # certified get the next ring; once a point has a candidate it needs
    # at most ceil(sqrt(best) / cell) rings in all.
    active = np.arange(n, dtype=np.int64)
    for k in range(_RING_CAP + 1):
        qx = px[active]
        qy = py[active]
        qix = ix[active]
        qiy = iy[active]
        for ox, oy in _ring(k):
            nx = qix + ox
            ny = qiy + oy
            valid = (nx >= 0) & (nx < side) & (ny >= 0) & (ny < side)
            nkey = np.where(valid, nx * side + ny, 0)
            count = np.where(valid, counts[nkey], 0)
            over = count > _CELL_CAP
            overfull[active[over]] = True
            count = np.where(over, 0, count)
            cap = int(count.max()) if len(count) else 0
            if cap == 0:
                continue
            lanes = np.arange(cap, dtype=np.int64)
            take = lanes[None, :] < count[:, None]
            slots = np.where(take, starts[nkey][:, None] + lanes[None, :], 0)
            cand = order[slots]
            cdx = px[cand] - qx[:, None]
            cdy = py[cand] - qy[:, None]
            d2 = cdx * cdx + cdy * cdy
            d2[~take] = np.inf
            if k == 0:
                d2[cand == active[:, None]] = np.inf
            lane = d2.argmin(axis=1)
            val = d2[np.arange(len(active)), lane]
            upd = val < best[active]
            best[active[upd]] = val[upd]
            bestj[active[upd]] = cand[upd, lane[upd]]
        reach = k * cell
        active = active[~(overfull[active] | (best[active] <= reach * reach))]
        if len(active) == 0:
            break

    # Brute-force residue: points next to an overfull cell (dense
    # clusters), and points still uncertified after _RING_CAP rings
    # (far outliers).
    ridx = np.concatenate([np.nonzero(overfull)[0], active])
    if len(ridx):
        rb, rj = _brute(np, px[ridx], py[ridx], ridx, px, py)
        best[ridx] = rb
        bestj[ridx] = rj
    return best, bestj
