"""Properties of the serial candidate-bag enumeration and probe tables.

The candidate-bag generator (:mod:`repro.core.candidate_bags`) builds
``Soft_{H,k}`` from two mask enumerations — component unions over
separators of at most ``k`` edges and cover unions of at most ``k``
vertex sets — and :class:`repro.core.options.SolverCore` derives the
static probe tables of the block DP from the candidate bags.  These tests
pin the contracts those layers promise on their own:

* component-union and cover-union masks equal the frozenset reference
  specs of :mod:`repro.core.reference`,
* an exhausted budget yields a sound subset of the full enumeration and
  leaves a sticky non-complete status,
* probe tables hold exactly the statically feasible probes of every block
  with a component, and ``parents`` is their reverse adjacency, each list
  ascending and duplicate-free.

The grids are seeded and deterministic, matching the house property-suite
style.
"""

import random

import pytest

from repro.core.candidate_bags import (
    SoftBagGenerator,
    _component_union_masks,
    _cover_union_masks,
)
from repro.core.options import SolverCore
from repro.core.reference import (
    reference_component_vertex_sets,
    reference_cover_unions,
)
from repro.hypergraph.generators import (
    random_cyclic_query_hypergraph,
    random_hypergraph,
)
from repro.hypergraph.library import cycle_hypergraph, hypergraph_h2
from repro.runtime.budget import Budget


def _instances():
    instances = [
        ("h2", hypergraph_h2(), 2),
        ("c8", cycle_hypergraph(8), 2),
        ("cyclic-q9", random_cyclic_query_hypergraph(9, 3, seed=4), 2),
    ]
    for seed in range(4):
        rng = random.Random(3000 + seed)
        instances.append(
            (
                f"rand-{seed}",
                random_hypergraph(
                    rng.randint(6, 16),
                    rng.randint(4, 14),
                    max_edge_size=4,
                    seed=seed,
                ),
                rng.choice((2, 3)),
            )
        )
    return instances


INSTANCES = [pytest.param(*instance, id=instance[0]) for instance in _instances()]


@pytest.mark.parametrize("name,hypergraph,k", INSTANCES)
def test_component_unions_match_reference(name, hypergraph, k):
    to_frozenset = hypergraph.bitsets.indexer.to_frozenset
    masks = _component_union_masks(hypergraph, k)
    assert {to_frozenset(mask) for mask in masks} == reference_component_vertex_sets(
        hypergraph, k
    ), name


@pytest.mark.parametrize("name,hypergraph,k", INSTANCES)
def test_cover_unions_match_reference(name, hypergraph, k):
    indexer = hypergraph.bitsets.indexer
    edge_sets = [edge.vertices for edge in hypergraph.edges]
    masks = _cover_union_masks([indexer.to_mask(s) for s in edge_sets], k)
    assert {indexer.to_frozenset(mask) for mask in masks} == reference_cover_unions(
        edge_sets, k
    ), name


def _component_unions(hypergraph, budget):
    return _component_union_masks(hypergraph, 2, budget=budget)


def _cover_unions(hypergraph, budget):
    return _cover_union_masks(sorted(hypergraph.bitsets.edge_masks), 2, budget=budget)


def _candidate_bags(hypergraph, budget):
    generator = SoftBagGenerator(hypergraph, 2, budget=budget)
    bags = generator.candidate_bags(0)
    assert generator.truncated == (budget is not None and budget.exhausted)
    return bags


@pytest.mark.parametrize(
    "enumerate_",
    (_component_unions, _cover_unions, _candidate_bags),
    ids=("component-unions", "cover-unions", "candidate-bags"),
)
def test_budget_exhausted_enumeration_yields_sound_subset(enumerate_):
    """Exhaustion gives the anytime contract: a subset, sticky status."""
    hypergraph = random_hypergraph(18, 14, max_edge_size=3, seed=9)
    full = enumerate_(hypergraph, None)
    budget = Budget(max_work=60)
    partial = enumerate_(hypergraph, budget)
    assert partial <= full
    assert partial != full
    assert budget.exhausted
    assert budget.status != "complete"


@pytest.mark.parametrize("name,hypergraph,k", INSTANCES)
def test_probe_tables_are_feasible_probes_and_their_reverse(name, hypergraph, k):
    bags = SoftBagGenerator(hypergraph, k).candidate_bags(0)
    core = SolverCore(hypergraph, bags)
    probes, parents = core.probe_tables()
    index = core.index
    component_masks = index.mask_arrays()[1]
    assert len(probes) == index.block_count()
    expected_parents = {}
    for block_id, block_probes in enumerate(probes):
        if not component_masks[block_id]:
            assert block_probes == (), (name, block_id)
            continue
        assert block_probes == index.candidate_probes(block_id), (name, block_id)
        for _, live_subs in block_probes:
            for sub in live_subs:
                expected_parents.setdefault(sub, set()).add(block_id)
    assert parents == {
        sub: sorted(blocks) for sub, blocks in expected_parents.items()
    }, name
    assert core.probe_tables() is core.probe_tables()
