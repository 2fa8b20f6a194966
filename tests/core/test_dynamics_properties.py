"""Property suite: the dynamics engine against the single oracle.

Random short runs of ``SwapDynamics`` (the batched engine, best responder)
from trees, near-trees and dense G(n, m) with n ≤ 12, under random
sum / max / interest / budget specs and every schedule:

* every recorded move is the seed oracle's best response of its mover in
  the graph it was applied to, and every trace entry equals the
  recomputed diameter and the model's social cost of that graph;
* a converged endpoint has no swap violation under the rebuild audit;
* a tree under the sum game converges to diameter ≤ 2 (the source
  paper's Theorem 1);
* killing a run right after a random checkpoint save and resuming it
  gives the uninterrupted result.

Moves are *not* compared against ``engine_mode="oracle"`` run for run:
dirty-set skipping may legitimately visit vertices in a different order.
Each property runs once per schedule, so every schedule is exercised;
examples are derandomized with a fixed budget per schedule, so the suite
is deterministic and its run time bounded.
"""

import tempfile
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core import (
    SwapDynamics,
    best_swap,
    find_swap_violation,
    lift_distances,
    resolve_cost_model,
    swapped_graph,
)
from repro.graphs import diameter_or_inf, distance_matrix

from ..conftest import dense_graphs, near_trees, specs, trees
from .test_dynamics_checkpoint import _KillAfter, _SimulatedKill

PROPERTY = settings(max_examples=50, derandomize=True, deadline=None)

GRAPHS = st.one_of(
    trees(min_n=3, max_n=12), near_trees(max_n=12), dense_graphs(max_n=12)
)
BY_SCHEDULE = pytest.mark.parametrize(
    "schedule", ["round_robin", "random", "greedy"]
)
MAX_STEPS = st.integers(min_value=1, max_value=60)
SEEDS = st.integers(min_value=0, max_value=2**31 - 1)


def _dynamics(spec, schedule, max_steps, seed) -> SwapDynamics:
    return SwapDynamics(
        objective=spec, schedule=schedule, responder="best",
        max_steps=max_steps, record=True, seed=seed,
    )


@BY_SCHEDULE
@given(g=GRAPHS, spec=specs(), max_steps=MAX_STEPS, seed=SEEDS)
@PROPERTY
def test_moves_and_traces_replay_against_oracle(
    schedule, g, spec, max_steps, seed
):
    res = _dynamics(spec, schedule, max_steps, seed).run(g)
    model = resolve_cost_model(spec, g.n)
    assert len(res.moves) == res.steps
    assert len(res.diameter_trace) == res.steps + 1
    assert len(res.social_cost_trace) == res.steps + 1

    def check_trace(graph, t):
        assert res.diameter_trace[t] == diameter_or_inf(graph), t
        social = model.social_cost(lift_distances(distance_matrix(graph)))
        assert res.social_cost_trace[t] == social, t

    current = g
    check_trace(current, 0)
    for t, move in enumerate(res.moves, start=1):
        oracle = best_swap(current, move.vertex, spec, mode="oracle")
        assert oracle.swap == move, (t, move, oracle.swap)
        current = swapped_graph(current, move)
        check_trace(current, t)
    assert current == res.graph


@BY_SCHEDULE
@given(g=GRAPHS, spec=specs(), max_steps=MAX_STEPS, seed=SEEDS)
@PROPERTY
def test_converged_endpoint_passes_rebuild_audit(
    schedule, g, spec, max_steps, seed
):
    res = _dynamics(spec, schedule, max_steps, seed).run(g)
    if res.converged:
        assert find_swap_violation(res.graph, spec, mode="rebuild") is None


@BY_SCHEDULE
@given(g=trees(min_n=3, max_n=12), max_steps=MAX_STEPS, seed=SEEDS)
@PROPERTY
def test_sum_tree_endpoints_have_diameter_at_most_two(
    schedule, g, max_steps, seed
):
    res = _dynamics("sum", schedule, max_steps, seed).run(g)
    if res.converged:
        assert res.graph.m == g.n - 1  # swaps keep a tree a tree
        assert diameter_or_inf(res.graph) <= 2


@BY_SCHEDULE
@given(
    g=GRAPHS, spec=specs(), max_steps=MAX_STEPS, seed=SEEDS,
    kill_at=st.integers(min_value=1, max_value=60),
)
@PROPERTY
def test_kill_at_random_save_then_resume_matches_clean(
    schedule, g, spec, max_steps, seed, kill_at
):
    clean = _dynamics(spec, schedule, max_steps, seed).run(g)
    # A save follows every applied move except one that closes a cycle.
    saves = clean.steps - int(clean.cycle_detected)
    assume(saves >= 1)
    kill_at = min(kill_at, saves)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "slot.ckpt"
        killer = _KillAfter(path, kills_after=kill_at)
        with pytest.raises(_SimulatedKill):
            _dynamics(spec, schedule, max_steps, seed).run(
                g, checkpoint=killer, checkpoint_every=1
            )
        resumed = _dynamics(spec, schedule, max_steps, seed).run(
            g, checkpoint=path, checkpoint_every=1
        )
    assert resumed == clean
    assert resumed.activations == clean.activations
