"""Algorithm 2: constrained and preference-optimised candidate tree decompositions.

This is the paper's ``(𝒞, ≤)-CandidateTD`` solver: instead of merely checking
whether *some* basis satisfies a block, it keeps, for every block, the basis
whose induced partial decomposition ``Decomp(S, C, X)`` satisfies the subtree
constraint ``𝒞`` and is minimal with respect to the preference order ``≤``.
For tractable, preference-complete pairs ``(𝒞, ≤)`` the algorithm finds a
globally minimal constrained CTD in polynomial time (Theorem 10).

The fixpoint is event-driven, mirroring Algorithm 1 in :mod:`repro.core.ctd`
but with the preference folded into the re-probe condition:

* only statically feasible (candidate, block) pairs are ever probed — the
  satisfaction-independent basis conditions are memoised per pair in
  :meth:`repro.core.blocks.BlockIndex.candidate_probes`, and the probe
  tables with their event-routing reverse map come from the shared solver
  core (:class:`repro.core.options.SolverCore`, also driving Algorithm 1
  and the exact ranked enumerator);
* every block keeps one best entry ``(preference key, fragment)``; partial
  decompositions are immutable ``(bag, children)`` fragments
  (:mod:`repro.core.fragments`) assembled from the current best fragments of
  the candidate's sub-blocks, so constraint checks and preference keys are
  evaluated once per distinct fragment, not once per probe
  (:class:`repro.core.options.FragmentEvaluator`);
* a worklist drives re-probing with two event kinds: a sub-block becoming
  *newly satisfied* (it can complete a waiting basis, as in Algorithm 1) and
  a sub-block's best key *improving* (it changes the fragments the blocks
  using it as a sub would compose).  A block always keeps the least-key
  compliant fragment it has evaluated, so a re-probe can only improve its
  entry; with the topological bottom-up sweep every sub-block is final
  before its dependants are first probed, making the fixpoint the canonical
  bottom-up dynamic program.

For preferences that declare themselves monotone
(:class:`repro.core.preferences.Preference.monotone`) keys compose bottom-up
from child states and the partial decomposition is never materialised unless
a non-trivial constraint needs to inspect it; non-monotone preferences fall
back to evaluating the (memoised) materialised fragment.

The seed's round-robin dynamic program is preserved as the executable
specification :func:`repro.core.reference.reference_constrained_ctd`; the
equivalence property tests assert identical decide answers and optimal keys,
and ``benchmarks/test_bench_constrained.py`` tracks the speedup.
"""

from __future__ import annotations

from collections import deque
from typing import FrozenSet, Iterable, List, Optional, Tuple

from repro.hypergraph.hypergraph import Hypergraph, Vertex
from repro.decompositions.td import TreeDecomposition
from repro.core.blocks import Bag, Block
from repro.core.constraints import SubtreeConstraint
from repro.core.fragments import Fragment, make_fragment
from repro.core.options import _REJECTED, SolverCore
from repro.core.preferences import Preference
from repro.runtime.budget import Budget, BudgetExceeded, SolveOutcome, completed_outcome


class ConstrainedCTDSolver:
    """Event-driven dynamic program keeping the ≤-minimal compliant decomposition.

    Governed solving (*anytime semantics*): with a
    :class:`~repro.runtime.Budget` (constructor or ``solve(budget=...)``),
    the fixpoint ticks once per probe evaluation.  On exhaustion — or
    Ctrl-C under a budget — the per-block best entries accumulated so far
    are kept: every one is a constraint-compliant partial decomposition,
    so :meth:`solve` returns the best root fragment found so far (possibly
    ``None``) and :attr:`outcome` says whether it is the proven optimum
    (``complete``) or a best-effort answer.
    """

    def __init__(
        self,
        hypergraph: Hypergraph,
        candidate_bags: Iterable[Bag],
        constraint: Optional[SubtreeConstraint] = None,
        preference: Optional[Preference] = None,
        budget: Optional[Budget] = None,
    ):
        # The shared core (repro.core.options) carries the filtered bag set,
        # the block index, the probe tables and the per-fragment memo tables
        # that turn the per-probe decomposition rebuilds of the seed DP into
        # dict lookups.
        self.core = SolverCore(
            hypergraph,
            candidate_bags,
            constraint,
            preference,
            budget=budget,
        )
        self.hypergraph = hypergraph
        self.budget = budget
        self.constraint = self.core.constraint
        self.preference = self.core.preference
        self.index = self.core.index
        # Dense per-block state, filled by _run.  Invariant: a non-None
        # fragment entry always satisfies the constraint on every subtree.
        self._satisfied: Optional[bytearray] = None
        self._best_key: List[object] = []
        self._best_fragment: List[Optional[Fragment]] = []
        self._best_state: List[object] = []
        self._solved = False
        self._outcome: Optional[SolveOutcome] = None

    def _set_budget(self, budget: Optional[Budget]) -> None:
        if budget is None:
            return
        if self._solved:
            raise RuntimeError("budget must be supplied before the solver runs")
        self.budget = budget
        self.core.budget = budget

    # -- fragment evaluation ---------------------------------------------------

    def _materialise(self, fragment: Fragment) -> TreeDecomposition:
        return self.core.evaluator.materialise(fragment)

    def _evaluate_fragment(self, fragment: Fragment) -> object:
        """``(key, state)`` of a compliant fragment, or ``_REJECTED``.

        The fragment's children are best entries of their blocks, hence
        already constraint-compliant on every subtree — so the memoised
        evaluation of the shared core applies directly.
        """
        return self.core.evaluator.evaluate(fragment)

    # -- Algorithm 2 -----------------------------------------------------------------

    def _probe_block(self, block_id: int, probes, satisfied, queue, in_queue, parents, probed) -> None:
        """Re-evaluate every feasible probe of a block against current bests.

        Updates the block's best entry when a strictly better compliant
        fragment exists and emits the corresponding worklist event
        (newly-satisfied or key-improved) to the block's registered parents.
        """
        candidate_bags = self.index.candidate_bags
        best_fragment = self._best_fragment
        best_key = self._best_key
        budget = self.budget
        current_key = best_key[block_id]
        current_fragment = best_fragment[block_id]
        changed = False
        # try/finally: a BudgetExceeded (or Ctrl-C) mid-scan must not lose
        # a strictly better fragment already found in this round — committing
        # it is what makes the exhausted solver's answer its true best-so-far.
        try:
            for cand_id, live_subs in probes[block_id]:
                if budget is not None:
                    budget.tick()
                ok = True
                for sub in live_subs:
                    if not satisfied[sub]:
                        ok = False
                        break
                if not ok:
                    continue
                fragment = make_fragment(
                    candidate_bags[cand_id],
                    [best_fragment[sub] for sub in live_subs],
                )
                if current_fragment is not None and fragment == current_fragment:
                    continue
                evaluation = self._evaluate_fragment(fragment)
                if evaluation is _REJECTED:
                    continue
                key, state = evaluation
                if current_fragment is None or key < current_key:
                    current_key, current_fragment = key, fragment
                    self._best_state[block_id] = state
                    changed = True
        finally:
            if changed:
                best_key[block_id] = current_key
                best_fragment[block_id] = current_fragment
                satisfied[block_id] = 1
                # Event: this block was newly satisfied or its key improved —
                # either way every parent whose probes use it as a sub must be
                # re-examined (parents not yet reached by the bottom-up sweep
                # will see the fresh state on their first probe).
                for parent in parents.get(block_id, ()):
                    if probed[parent] and not in_queue[parent]:
                        in_queue[parent] = 1
                        queue.append(parent)

    def _run(self) -> None:
        if self._solved:
            return
        index = self.index
        budget = self.budget
        block_count = index.block_count()
        component_masks = index.mask_arrays()[1]
        order = index.topological_order_ids()

        satisfied = bytearray(block_count)
        # Published up front: on budget exhaustion the partially-filled
        # arrays ARE the anytime answer (per-block bests found so far).
        self._satisfied = satisfied
        self._best_key = [None] * block_count
        self._best_fragment = [None] * block_count
        self._best_state = [None] * block_count
        for block_id in range(block_count):
            if not component_masks[block_id]:
                # Trivially satisfied: no component, no node, no fragment.
                satisfied[block_id] = 1

        try:
            # Static probe tables: feasible candidates per block and the
            # reverse sub-block -> dependent-blocks map routing worklist
            # events (governed: can exhaust the budget before any probe).
            probes, parents = self.core.probe_tables()

            queue: deque = deque()
            in_queue = bytearray(block_count)
            probed = bytearray(block_count)
            # Bottom-up sweep in topological order: sub-blocks precede the
            # blocks that can use them, so most blocks settle on their first
            # probe and the worklist only carries the residual events.
            for block_id in order:
                if component_masks[block_id]:
                    self._probe_block(
                        block_id, probes, satisfied, queue, in_queue, parents, probed
                    )
                probed[block_id] = 1
            while queue:
                block_id = queue.popleft()
                in_queue[block_id] = 0
                self._probe_block(
                    block_id, probes, satisfied, queue, in_queue, parents, probed
                )
        except BudgetExceeded:
            pass  # anytime: keep the per-block bests found so far
        except KeyboardInterrupt:
            if budget is None:
                raise
            budget.mark_interrupted()
        self._outcome = budget.outcome() if budget is not None else completed_outcome()
        self._solved = True

    # -- public API ----------------------------------------------------------------------

    def _trivial_decomposition(self) -> Optional[TreeDecomposition]:
        """The vertex-less hypergraph's single-empty-bag CTD, if compliant."""
        return self.core.trivial_decomposition()

    def decide(self) -> bool:
        """``True`` iff a constraint-compliant CompNF CTD exists."""
        self._run()
        root_id = self.index.block_id(self.index.root_block)
        assert root_id is not None and self._satisfied is not None
        if not self._satisfied[root_id]:
            return False
        # A satisfied root block with a component always carries a real
        # basis fragment; the vertex-less hypergraph's root block (∅, ∅) is
        # trivially satisfied and accepts iff the single-empty-bag
        # decomposition is compliant.
        if self._best_fragment[root_id] is None:
            return self._trivial_decomposition() is not None
        return True

    def solve(self, budget: Optional[Budget] = None) -> Optional[TreeDecomposition]:
        """Return the ≤-minimal constraint-compliant CTD, or ``None``.

        With an exhausted ``budget`` this degrades to the *best CTD found
        so far* (any returned decomposition is always compliant and valid;
        only its optimality and a ``None`` answer become inconclusive) —
        check :attr:`outcome` to tell the cases apart.
        """
        self._set_budget(budget)
        self._run()
        root_id = self.index.block_id(self.index.root_block)
        if not self._satisfied[root_id]:
            return None
        fragment = self._best_fragment[root_id]
        if fragment is None:
            return self._trivial_decomposition()
        # Compliant by construction: every accepted fragment passed ``holds``
        # on itself and is built from accepted (hence compliant) children,
        # which is exactly ``holds_recursively`` unrolled.
        return self._materialise(fragment)

    def solve_with_outcome(
        self, budget: Optional[Budget] = None
    ) -> Tuple[Optional[TreeDecomposition], SolveOutcome]:
        """``(best decomposition or None, outcome)`` — the governed entry point."""
        decomposition = self.solve(budget=budget)
        return decomposition, self.outcome

    @property
    def outcome(self) -> SolveOutcome:
        """How the fixpoint ended; ``complete`` unless a budget cut it short."""
        self._run()
        assert self._outcome is not None
        return self._outcome

    def optimal_key(self):
        """The preference key of the optimal compliant CTD (``None`` if infeasible)."""
        self._run()
        root_id = self.index.block_id(self.index.root_block)
        if not self._satisfied[root_id]:
            return None
        if self._best_fragment[root_id] is None:
            decomposition = self._trivial_decomposition()
            return None if decomposition is None else self.preference.key(decomposition)
        return self._best_key[root_id]

    def satisfied_blocks(self) -> List[Block]:
        """The blocks satisfied by a compliant partial decomposition."""
        self._run()
        return [
            self.index.block_at(block_id)
            for block_id in range(self.index.block_count())
            if self._satisfied[block_id]
        ]

    def basis_of(self, block: Block) -> Optional[Bag]:
        """The best basis bag of a block (``∅`` for trivially satisfied blocks)."""
        self._run()
        block_id = self.index.block_id(block)
        if block_id is None or not self._satisfied[block_id]:
            return None
        fragment = self._best_fragment[block_id]
        return fragment[0] if fragment is not None else frozenset()

    def partial_decomposition(self, block: Block) -> Optional[TreeDecomposition]:
        """``Decomp(S, C, X)`` for the block's best basis, or ``None``.

        The block head (the parent's bag) is not included: subtree
        constraints and preferences are defined over the partial
        decompositions induced by subtrees, and the parent's own bag is
        accounted for when the parent's block is processed.
        """
        self._run()
        block_id = self.index.block_id(block)
        if block_id is None or not self._satisfied[block_id]:
            return None
        fragment = self._best_fragment[block_id]
        if fragment is None:
            return None
        return self._materialise(fragment)


def constrained_candidate_td(
    hypergraph: Hypergraph,
    candidate_bags: Iterable[FrozenSet[Vertex]],
    constraint: Optional[SubtreeConstraint] = None,
    preference: Optional[Preference] = None,
    budget: Optional[Budget] = None,
) -> Optional[TreeDecomposition]:
    """Solve the ``(𝒞, ≤)``-CandidateTD problem (Algorithm 2)."""
    solver = ConstrainedCTDSolver(
        hypergraph,
        candidate_bags,
        constraint,
        preference,
        budget=budget,
    )
    return solver.solve()
