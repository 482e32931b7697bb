"""Exactness of the grid nearest-neighbour path.

Swarms larger than ``BRUTE_LIMIT`` take the ring-expanding grid search
of :func:`repro.batch.neighbors._grid`.  Every layout here is compared
against the chunked brute force: ``dist_sq`` must be bit-identical and
``neighbor[i]`` must be another point at exactly that distance.  The
layouts cover the lattice the benchmarks use, uniform scatter, overfull
clusters, exact duplicates, collinear points and a far outlier that
runs out of rings; the brute-force residue is recorded to show which
path each layout took.
"""

from __future__ import annotations

import math

import pytest

import repro.batch
from repro.batch import neighbors
from repro.batch.neighbors import _brute as _reference
from tests.batch.conftest import requires_numpy

pytestmark = requires_numpy


def _np():
    return repro.batch.require_numpy()


@pytest.fixture
def residue(monkeypatch):
    """Global indices of every point the grid path sent to brute force."""
    seen = []

    def recording(np, qx, qy, qidx, px, py, *args, **kwargs):
        seen.extend(int(i) for i in qidx)
        return _reference(np, qx, qy, qidx, px, py, *args, **kwargs)

    monkeypatch.setattr(neighbors, "_brute", recording)
    return seen


def _check(px, py, queries=None, **kwargs):
    """Compare the neighbour pass with brute force on ``queries`` (default all)."""
    np = _np()
    dist_sq, neighbor = neighbors.nearest_neighbor_sq(px, py, **kwargs)
    q = np.arange(len(px)) if queries is None else queries
    expected, _ = _reference(np, px[q], py[q], q, px, py)
    assert np.array_equal(dist_sq[q], expected)
    j = neighbor[q]
    assert (j != q).all() and (j >= 0).all()
    dx = px[j] - px[q]
    dy = py[j] - py[q]
    assert np.array_equal(dx * dx + dy * dy, dist_sq[q])
    return dist_sq


def _uniform(n, seed, extent=100.0):
    rng = _np().random.default_rng(seed)
    return rng.uniform(0.0, extent, n), rng.uniform(0.0, extent, n)


def test_benchmark_lattice_is_certified_by_rings(residue):
    np = _np()
    from benchmarks.support import batch_swarm

    robots = batch_swarm(6_000, seed=5)
    px = np.array([r.position.x for r in robots])
    py = np.array([r.position.y for r in robots])
    _check(px, py)
    assert residue == []


def test_uniform_points(residue):
    px, py = _uniform(6_000, 0)
    _check(px, py)
    assert residue == []


def test_large_swarm_sample_and_every_multi_ring_point(residue):
    # Above ~8k a full brute-force reference is too slow for tier-1:
    # check a seeded sample plus every point the 3x3 window (rings
    # 0..1) could not certify.
    np = _np()
    n = 20_000
    px, py = _uniform(n, 11)
    dist_sq = _check(px, py, queries=np.arange(0, n, 50))
    span = max(px.max() - px.min(), py.max() - py.min())
    cell = span / int(math.sqrt(n))
    multi_ring = np.nonzero(dist_sq > cell * cell)[0]
    assert len(multi_ring) > 100
    _check(px, py, queries=multi_ring)
    assert residue == []


def test_gaussian_clusters_take_the_overfull_path(residue):
    np = _np()
    rng = np.random.default_rng(3)
    centers = rng.uniform(0.0, 1_000.0, (4, 2))
    blobs = [c + rng.normal(0.0, 0.5, (1_000, 2)) for c in centers]
    field = rng.uniform(0.0, 1_000.0, (400, 2))
    pts = np.concatenate(blobs + [field])
    _check(pts[:, 0].copy(), pts[:, 1].copy())
    assert len(residue) > 0


def test_exact_duplicates_have_zero_distance():
    np = _np()
    px, py = _uniform(4_000, 4)
    twins = np.arange(0, 4_000, 7)
    px = np.concatenate([px, px[twins]])
    py = np.concatenate([py, py[twins]])
    dist_sq = _check(px, py)
    assert (dist_sq[twins] == 0.0).all()
    assert (dist_sq[4_000:] == 0.0).all()


@pytest.mark.parametrize("slope", [0.0, 1.0, 0.5])
def test_collinear_points(slope, residue):
    # At n=2000 a line puts ~45 points in each occupied cell, under
    # _CELL_CAP, so the rings (not brute force) must get it right.
    np = _np()
    rng = np.random.default_rng(9)
    t = rng.uniform(0.0, 1_000.0, 2_000)
    _check(t, slope * t, brute_limit=1)
    assert residue == []


def test_evenly_spaced_line_with_ties():
    # Interior points have two neighbours at exactly the same distance.
    np = _np()
    t = np.arange(2_000, dtype=np.float64) * 0.25
    dist_sq = _check(t, 2.0 * t, brute_limit=1)
    assert (dist_sq == dist_sq[0]).all()


def test_far_outlier_exhausts_the_ring_cap(residue):
    np = _np()
    px, py = _uniform(4_500, 6)
    px = np.append(px, 400.0)
    py = np.append(py, 400.0)
    dist_sq = _check(px, py)
    outlier = len(px) - 1
    cell = 400.0 / int(math.sqrt(len(px)))
    assert math.sqrt(dist_sq[outlier]) > neighbors._RING_CAP * cell
    assert residue == [outlier]


def test_small_swarms_on_the_grid_path():
    # brute_limit=1 forces the grid even at a handful of points.
    np = _np()
    for n in (2, 3, 17):
        px, py = _uniform(n, n)
        _check(px, py, brute_limit=1)
    _check(np.array([1.0, 1.0, 1.0]), np.array([2.0, 2.0, 2.0]), brute_limit=1)
