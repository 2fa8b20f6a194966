"""The bound scan's narrowed operands at their dtype switch points.

The batched kernel stores ``lifted + 1`` and its (n, n) scratch as uint8
while ``max(lifted) + 1 <= 255``, as uint16 up to 65535, and as int64
otherwise (a disconnected base, or row sums that could reach 2³²).  The
graphs here straddle the uint8/uint16 switch — cycles C₅₀₈/C₅₁₀/C₅₁₂ and
paths P₂₅₅/P₂₅₆/P₂₅₇ (diameters 254/255/256) — and every result must stay
bit-identical to the int64 ``mode="repair"`` path.  On a path every removal
is a bridge, so the mover rows carry the ``INT_INF`` sentinel into the
row clip.  The broom (a 251-vertex path ending in a 300-leaf star) keeps
uint8 operands while its row sums pass 2¹⁶; a chord at the far end makes
the first audited edge a non-bridge, whose unaffected bound rows are
taken as exact costs, so a sum accumulated narrower than uint32 would
wrap into a wrong violation.
"""

import numpy as np
import pytest

from repro.core import DistanceEngine, Swap, best_swap, find_swap_violation
from repro.core.batched import bound_dtype, narrow_plus1, narrow_row
from repro.core.costs import INT_INF, lift_distances
from repro.core.equilibrium import find_insertion_violation
from repro.graphs import CSRGraph, cycle_graph, distance_matrix, path_graph

SPECS = ["sum", "max", "interest-sum:k=8,seed=3", "budget-max:cap=3"]


def _broom(path: int = 251, leaves: int = 300) -> CSRGraph:
    """Path ``0 … path-1`` plus chord ``0–2``, ending in a star's centre."""
    hub = path - 1
    edges = [(i, i + 1) for i in range(hub)] + [(0, 2)]
    edges += [(hub, hub + 1 + j) for j in range(leaves)]
    return CSRGraph(path + leaves, edges)


#: (graph, dtype of its narrowed lifted + 1)
SWITCH_GRAPHS = {
    "broom": (_broom, np.uint8),
    "C508": (lambda: cycle_graph(508), np.uint8),
    "C510": (lambda: cycle_graph(510), np.uint16),
    "C512": (lambda: cycle_graph(512), np.uint16),
    "P255": (lambda: path_graph(255), np.uint8),
    "P256": (lambda: path_graph(256), np.uint16),
    "P257": (lambda: path_graph(257), np.uint16),
}


def _lifted(top: int) -> np.ndarray:
    """A 3×3 lifted matrix whose largest entry is ``top``."""
    return np.array([[0, 1, top], [1, 0, 1], [top, 1, 0]], dtype=np.int64)


def _responses_equal(a, b) -> bool:
    return (a.swap, a.before, a.after, a.is_deletion) == (
        b.swap, b.before, b.after, b.is_deletion
    )


class TestDtypeRule:
    def test_uint8_up_to_255(self):
        out = narrow_plus1(_lifted(254))
        assert out.dtype == np.uint8
        assert np.array_equal(out, _lifted(254) + 1)

    def test_uint16_from_256(self):
        out = narrow_plus1(_lifted(255))
        assert out.dtype == np.uint16
        assert np.array_equal(out, _lifted(255) + 1)
        assert narrow_plus1(_lifted(65534)).dtype == np.uint16

    def test_int64_beyond_uint16(self):
        out = narrow_plus1(_lifted(65535))
        assert out.dtype == np.int64
        assert np.array_equal(out, _lifted(65535) + 1)

    def test_sentinel_keeps_int64(self):
        out = narrow_plus1(_lifted(INT_INF))
        assert out.dtype == np.int64
        assert out[0, 2] == INT_INF + 1

    def test_row_sum_bound(self):
        # n · (max + 1) must stay below 2³² for the uint32 accumulator.
        assert bound_dtype((1 << 32) // 255, 255) == np.uint8
        assert bound_dtype((1 << 32) // 255 + 1, 255) == np.int64
        assert bound_dtype((1 << 24) - 1, 256) == np.uint16
        assert bound_dtype(1 << 24, 256) == np.int64

    def test_row_clip_keeps_every_minimum(self):
        base_plus1 = narrow_plus1(_lifted(254))
        row = np.array([INT_INF, 300, 7], dtype=np.int64)
        narrow = narrow_row(row, base_plus1)
        assert narrow.dtype == np.uint8
        assert narrow.tolist() == [255, 255, 7]
        assert np.array_equal(
            np.minimum(narrow[None, :], base_plus1),
            np.minimum(row[None, :], _lifted(254) + 1),
        )
        wide = _lifted(INT_INF) + 1
        assert narrow_row(row, wide) is row


@pytest.mark.parametrize("name", list(SWITCH_GRAPHS))
class TestSwitchGraphs:
    def test_operand_dtype(self, name):
        make, dtype = SWITCH_GRAPHS[name]
        lifted = lift_distances(distance_matrix(make()))
        assert narrow_plus1(lifted).dtype == dtype

    @pytest.mark.parametrize("spec", SPECS)
    def test_batched_equals_repair(self, name, spec):
        g = SWITCH_GRAPHS[name][0]()
        dm = lift_distances(distance_matrix(g))
        batched = find_swap_violation(g, spec, mode="batched", base_dm=dm)
        assert batched is not None
        assert batched == find_swap_violation(
            g, spec, mode="repair", base_dm=dm
        )
        assert _responses_equal(
            best_swap(g, 0, spec, mode="batched", base_dm=dm),
            best_swap(g, 0, spec, mode="repair", base_dm=dm),
        )

    def test_insertion_violation_matches_int64_loop(self, name):
        g = SWITCH_GRAPHS[name][0]()
        lifted = lift_distances(distance_matrix(g))
        base_ecc = lifted.max(axis=1)
        expected = None
        for u in range(g.n):
            new_ecc = np.minimum(lifted[u][None, :], lifted + 1).max(axis=1)
            hits = [
                int(v) for v in np.nonzero(new_ecc < base_ecc[u])[0]
                if v != u and not g.has_edge(u, int(v))
            ]
            if hits:
                expected = (u, hits[0], float(new_ecc[hits[0]]))
                break
        found = find_insertion_violation(g)
        assert (found.vertex, found.add, found.after) == expected
        assert found.before == float(base_ecc[found.vertex])


def test_engine_scratch_follows_operand_dtype():
    # P256 has diameter 255 (uint16); hanging its end leaf off the middle
    # leaves diameter 254 (uint8), so the engine's persistent scratch must
    # follow the operand across the swap.
    g = path_graph(256)
    engine = DistanceEngine(g)
    for spec in ("sum", "max"):
        assert _responses_equal(
            engine.best_swap(255, spec),
            best_swap(g, 255, spec, mode="repair"),
        )
    assert engine._kernel_scratch()[1].dtype == np.uint16
    engine.apply_swap(Swap(255, 254, 128))
    assert engine._kernel_scratch()[1].dtype == np.uint8
    g2 = engine.graph
    for spec in ("sum", "max"):
        for v in (0, 255):
            assert _responses_equal(
                engine.best_swap(v, spec),
                best_swap(g2, v, spec, mode="repair"),
            )
