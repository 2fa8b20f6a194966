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
from repro.graphs import CSRGraph, distance_matrix, random_connected_gnm

from ..conftest import trees

PROPERTY = settings(max_examples=150, derandomize=True, deadline=None)


@st.composite
def near_trees(draw, min_n: int = 3, max_n: int = 14):
    """A random tree plus up to three chords."""
    tree = draw(trees(min_n=min_n, max_n=max_n))
    n = tree.n
    present = {tuple(e) for e in tree.edges().tolist()}
    absent = [
        (u, v) for u in range(n) for v in range(u + 1, n)
        if (u, v) not in present
    ]
    chords = draw(
        st.lists(st.sampled_from(absent), unique=True, max_size=3)
        if absent
        else st.just([])
    )
    return CSRGraph(n, sorted(present | set(chords)))


@st.composite
def dense_graphs(draw, min_n: int = 4, max_n: int = 12):
    """A connected G(n, m) with at least 60% of all possible edges."""
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    full = n * (n - 1) // 2
    low = max(n - 1, (6 * full) // 10)
    m = draw(st.integers(min_value=low, max_value=full))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    return random_connected_gnm(n, m, seed)


GRAPHS = st.one_of(trees(min_n=3, max_n=14), near_trees(), dense_graphs())


@st.composite
def specs(draw) -> str:
    """A cost-model spec with random parameters."""
    kind = draw(st.sampled_from(["sum", "max"]))
    family = draw(st.sampled_from(["plain", "interest", "budget"]))
    if family == "interest":
        k = draw(st.integers(min_value=1, max_value=5))
        seed = draw(st.integers(min_value=0, max_value=99))
        return f"interest-{kind}:k={k},seed={seed}"
    if family == "budget":
        cap = draw(st.integers(min_value=1, max_value=5))
        return f"budget-{kind}:cap={cap}"
    return kind


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
