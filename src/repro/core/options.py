"""Shared solver core of the CandidateTD family (Algorithms 1, 2 and any-k).

Algorithm 1 (:mod:`repro.core.ctd`), the constrained/preference-optimised
Algorithm 2 (:mod:`repro.core.constrained`) and the exact ranked enumerator
(:mod:`repro.core.enumerate`) all run the same block dynamic program: filter
the candidate bags through the constraint, index the blocks
(:class:`repro.core.blocks.BlockIndex`), generate the statically feasible
``(candidate, live sub-blocks)`` probes per block, and evaluate immutable
``(bag, children)`` fragments (:mod:`repro.core.fragments`) against the
constraint and the preference.  This module holds that shared machinery so
the three solvers differ only in their control flow:

* :class:`FragmentEvaluator` memoises, per distinct fragment, the
  materialised :class:`TreeDecomposition`, the constraint verdict and the
  preference ``(key, state)`` — with the monotone bottom-up key composition
  of :class:`repro.core.preferences.Preference` as the fast path;
* :class:`SolverCore` owns the filtered candidate set, the block index, the
  evaluator, the per-block probe tables with their reverse
  (sub-block → dependent blocks) event-routing map, and the vertex-less
  hypergraph's trivial single-empty-bag decomposition.

The per-fragment memo tables rely on one invariant, shared by all three
consumers: *a fragment is only ever built from constraint-compliant child
fragments*, so compliance of the whole fragment reduces to ``𝒞.holds`` on
the fragment itself and a monotone preference key composes from the memoised
child states.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from repro.hypergraph.hypergraph import Hypergraph
from repro.decompositions.td import TreeDecomposition
from repro.decompositions.tree import RootedTree
from repro.core.blocks import Bag, BlockIndex
from repro.core.constraints import NoConstraint, SubtreeConstraint
from repro.core.fragments import Fragment, fragment_to_decomposition
from repro.core.preferences import NoPreference, Preference
from repro.runtime.budget import Budget

#: Marks a fragment rejected by the constraint in the per-fragment memo.
_REJECTED = object()

#: Per-block probe table: ``(candidate id, live sub-block ids)`` pairs.
ProbeTable = Tuple[Tuple[int, Tuple[int, ...]], ...]


class FragmentEvaluator:
    """Memoised constraint/preference evaluation of decomposition fragments.

    All tables are keyed by the fragment value itself; fragments are
    canonical (children deterministically sorted), so structurally equal
    partial decompositions share one entry no matter which solver, probe or
    enumeration path built them.
    """

    def __init__(
        self,
        hypergraph: Hypergraph,
        constraint: SubtreeConstraint,
        preference: Preference,
    ):
        self.hypergraph = hypergraph
        self.constraint = constraint
        self.preference = preference
        self._td: Dict[Fragment, TreeDecomposition] = {}
        self._compliant: Dict[Fragment, bool] = {}
        # fragment -> (key, state); see the invariant in the module docstring.
        self._state: Dict[Fragment, Tuple] = {}

    def materialise(self, fragment: Fragment) -> TreeDecomposition:
        """The fragment as a :class:`TreeDecomposition` (memoised)."""
        decomposition = self._td.get(fragment)
        if decomposition is None:
            decomposition = fragment_to_decomposition(self.hypergraph, fragment)
            self._td[fragment] = decomposition
        return decomposition

    def compliant(self, fragment: Fragment) -> bool:
        """``𝒞.holds`` on the fragment itself (children compliant by invariant)."""
        if self.constraint.trivial:
            return True
        verdict = self._compliant.get(fragment)
        if verdict is None:
            verdict = self.constraint.holds(self.materialise(fragment))
            self._compliant[fragment] = verdict
        return verdict

    def state_of(self, fragment: Fragment) -> Tuple:
        """``(key, state)`` of a fragment, independent of the constraint.

        Monotone preferences compose the state from the children's memoised
        states without materialising the fragment; the children's states are
        always present because every consumer evaluates fragments bottom-up.
        """
        cached = self._state.get(fragment)
        if cached is not None:
            return cached
        preference = self.preference
        if preference.monotone:
            bag, children = fragment
            child_states = [self._state[child][1] for child in children]
            state = preference.fragment_state(bag, child_states)
            result = (preference.state_key(state), state)
        else:
            result = (preference.key(self.materialise(fragment)), None)
        self._state[fragment] = result
        return result

    def evaluate(self, fragment: Fragment):
        """``(key, state)`` of a compliant fragment, or ``_REJECTED``.

        The constraint is consulted first so non-monotone preference keys are
        never computed for fragments the constraint discards.
        """
        if not self.compliant(fragment):
            return _REJECTED
        return self.state_of(fragment)


class SolverCore:
    """The common preamble and option tables of the CandidateTD solvers."""

    def __init__(
        self,
        hypergraph: Hypergraph,
        candidate_bags: Iterable[Bag],
        constraint: Optional[SubtreeConstraint] = None,
        preference: Optional[Preference] = None,
        budget: Optional[Budget] = None,
    ):
        self.hypergraph = hypergraph
        self.budget = budget
        self.constraint = constraint if constraint is not None else NoConstraint()
        self.preference = preference if preference is not None else NoPreference()
        filtered = self.constraint.filter_bags(
            {frozenset(bag) for bag in candidate_bags if bag}
        )
        self.index = BlockIndex(hypergraph, filtered)
        self.evaluator = FragmentEvaluator(
            hypergraph, self.constraint, self.preference
        )
        self._probe_tables: Optional[Tuple[List[ProbeTable], Dict[int, List[int]]]] = None

    def probe_tables(self) -> Tuple[List[ProbeTable], Dict[int, List[int]]]:
        """``(probes, parents)`` — the static probe structure of the block DP.

        ``probes[block_id]`` holds the statically feasible probes of a block
        with a component (:meth:`BlockIndex.candidate_probes`); ``parents``
        maps a sub-block id to the blocks whose probes use it, which is the
        reverse edge set the worklists route satisfaction/improvement events
        along.  Both are computed once per core.

        Construction is governed by the core's budget: one
        :meth:`~repro.runtime.Budget.tick` per block (each
        ``candidate_probes`` call is one memoised batch), so a
        :class:`~repro.runtime.BudgetExceeded` can surface here and is
        handled by the owning solver's anytime boundary.  The memo is only
        populated on full completion — a later retry recomputes.
        """
        if self._probe_tables is not None:
            return self._probe_tables
        budget = self.budget
        index = self.index
        component_masks = index.mask_arrays()[1]
        block_count = index.block_count()
        probes: List[ProbeTable] = [()] * block_count
        parents: Dict[int, List[int]] = {}
        for block_id in range(block_count):
            if not component_masks[block_id]:
                continue
            if budget is not None:
                budget.tick()
            block_probes = index.candidate_probes(block_id)
            probes[block_id] = block_probes
            for _, live_subs in block_probes:
                for sub in live_subs:
                    dependents = parents.setdefault(sub, [])
                    if not dependents or dependents[-1] != block_id:
                        dependents.append(block_id)
        self._probe_tables = (probes, parents)
        return self._probe_tables

    def trivial_decomposition(self) -> Optional[TreeDecomposition]:
        """The vertex-less hypergraph's single-empty-bag CTD, if compliant.

        This decomposition never goes through a probe, so it is the one
        place the constraint must be consulted outside the fragment memo.
        """
        tree = RootedTree()
        tree.new_node(None, bag=frozenset())
        decomposition = TreeDecomposition(self.hypergraph, tree)
        if not self.constraint.holds_recursively(decomposition):
            return None
        return decomposition
