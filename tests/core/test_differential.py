"""Property-based differential tests: the batched kernel against the oracles.

Random connected graphs — uniform trees (every edge a bridge), near-trees
(a tree plus a few chords, so bridges and cycles mix) and dense G(n, m) —
under random sum / max / interest / budget specs.  The production batched
paths must equal the reference paths exactly, tie-breaks included:

* ``find_swap_violation(mode="batched")`` == ``mode="repair"``;
* ``best_swap(mode="batched")`` == ``mode="repair"`` for every vertex;
* ``certify_at_rest`` is true exactly when the ``mode="oracle"`` best
  response of every vertex is a no-op.

Examples are derandomized with a fixed budget, so the suite is
deterministic and its run time bounded.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import best_swap, find_swap_violation
from repro.core.batched import certify_at_rest
from repro.core.costs import lift_distances
from repro.graphs import distance_matrix

from ..conftest import dense_graphs, near_trees, specs, trees

PROPERTY = settings(max_examples=150, derandomize=True, deadline=None)

GRAPHS = st.one_of(trees(min_n=3, max_n=14), near_trees(), dense_graphs())


def _response(r):
    return (r.swap, r.before, r.after, r.is_deletion)


@given(GRAPHS, specs())
@PROPERTY
def test_swap_violation_batched_equals_repair(g, spec):
    assert find_swap_violation(g, spec, mode="batched") == find_swap_violation(
        g, spec, mode="repair"
    )


@given(GRAPHS, specs())
@PROPERTY
def test_best_swap_batched_equals_repair(g, spec):
    dm = lift_distances(distance_matrix(g))
    for v in range(g.n):
        assert _response(
            best_swap(g, v, spec, mode="batched", base_dm=dm)
        ) == _response(best_swap(g, v, spec, mode="repair", base_dm=dm)), v


@given(GRAPHS, specs())
@PROPERTY
def test_certify_at_rest_equals_oracle(g, spec):
    at_rest = all(
        best_swap(g, v, spec, mode="oracle").swap is None for v in range(g.n)
    )
    lifted = lift_distances(distance_matrix(g))
    assert certify_at_rest(g, lifted, spec) == at_rest
