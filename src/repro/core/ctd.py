"""Algorithm 1: CompNF Candidate Tree Decompositions.

Given a hypergraph ``H`` and a set ``𝒮`` of candidate bags, decide whether a
tree decomposition of ``H`` in component normal form exists all of whose bags
belong to ``𝒮`` and, if so, construct one.

The solver implements the paper's Algorithm 1 fixpoint incrementally instead
of round-robin over the full (block × candidate) cross product:

* candidate bags are indexed by the block unions they fit inside
  (``X ⊆ S ∪ C`` is a necessary condition for ``X`` to be a basis of
  ``(S, C)``), so only feasible (candidate, block) pairs are ever probed;
* the satisfaction-independent basis conditions are evaluated inline,
  at most once per pair: the decide-only fixpoint stops at a block's
  *first* basis, so — unlike Algorithm 2 and the ranked enumerator, which
  need every block's *complete* probe set and share the memoised
  :meth:`repro.core.blocks.BlockIndex.candidate_probes` tables through
  :meth:`repro.core.options.SolverCore.probe_tables` — materialising full
  probe tables here would only add overhead;
* a worklist keyed on newly-satisfied blocks drives re-probing: a block
  ``(S, C)`` can only become satisfiable when one of the sub-blocks of some
  candidate becomes satisfied, and those sub-blocks are exactly the blocks
  headed by that candidate, so each satisfaction event re-probes just the
  pairs whose candidate equals the event block's head.

Construction (constraint-filtered candidate set, block index, the trivial
decomposition of the vertex-less hypergraph) is shared with the other two
solvers via :class:`repro.core.options.SolverCore`.

The result (satisfied blocks and the accept decision) is identical to the
seed's round-robin fixpoint, kept as
:func:`repro.core.reference.reference_candidate_td_decide`.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

from repro.hypergraph.hypergraph import Hypergraph, Vertex
from repro.decompositions.td import TreeDecomposition
from repro.decompositions.tree import RootedTree, TreeNode
from repro.core.blocks import Bag, Block
from repro.core.options import SolverCore
from repro.runtime.budget import Budget, BudgetExceeded, SolveOutcome, completed_outcome


class CandidateTDSolver:
    """Decides the CandidateTD problem and extracts a witnessing CTD.

    With a :class:`~repro.runtime.Budget` the fixpoint is governed: one
    tick per (candidate, block) probe.  On exhaustion (or Ctrl-C under a
    budget) the solver keeps the satisfied blocks found so far — every one
    of them is genuinely witnessed, so ``decide() is True`` remains sound,
    while ``False`` becomes inconclusive; :attr:`outcome` reports which.
    """

    def __init__(
        self,
        hypergraph: Hypergraph,
        candidate_bags: Iterable[Bag],
        budget: Optional[Budget] = None,
    ):
        self.hypergraph = hypergraph
        self.budget = budget
        self.core = SolverCore(hypergraph, candidate_bags, budget=budget)
        self.index = self.core.index
        self._basis: Dict[Block, Optional[Bag]] = {}
        self._satisfied: Dict[Block, bool] = {}
        self._solved = False
        self._outcome: Optional[SolveOutcome] = None

    # -- Algorithm 1 -------------------------------------------------------------

    def _fixpoint(self, satisfied: bytearray, basis_cand: List[Optional[int]]) -> None:
        """The governed fixpoint loops; mutates ``satisfied``/``basis_cand``.

        Raises :class:`BudgetExceeded` mid-loop when the budget exhausts;
        the arrays then hold a valid partial fixpoint (everything marked
        satisfied is witnessed) for the caller's anytime boundary.
        """
        index = self.index
        budget = self.budget
        # Probe ticks are flushed in batches: the per-probe cost is one
        # local increment, and flushing at most ``check_interval`` units per
        # tick keeps the deadline's amortization window intact.
        flush_at = 0 if budget is None else min(256, budget.check_interval)
        unflushed = 0
        order = index.topological_order_ids()
        head_masks, component_masks, union_masks, touching_masks = index.mask_arrays()
        candidate_masks = index.candidate_masks
        # Per candidate, the ids of the blocks it heads (its potential
        # sub-blocks): candidate bags are indexed by the vertex sets they
        # fit inside via the mask subset pre-filter below.
        candidate_sub_ids = [
            index.blocks_of_head_mask(mask) for mask in candidate_masks
        ]
        queue: deque = deque()
        # (block id, candidate id, sub ids) triples whose static basis
        # conditions hold but which wait on the keyed sub-block's
        # satisfaction (condition 3).
        waiters: Dict[int, List] = {}

        # Bottom-up pass: probe each block's fitting candidates until one is
        # a basis; register the statically-feasible failures as waiters.
        # The static conditions are evaluated inline (cf.
        # BlockIndex.basis_sub_ids) — the scan stops at the first basis and
        # each pair is visited at most once, so the complete memoised probe
        # tables of SolverCore.probe_tables would only add overhead here.
        for block_id in order:
            if satisfied[block_id]:
                continue
            if budget is not None:
                budget.tick()
            block_union = union_masks[block_id]
            block_component = component_masks[block_id]
            block_head = head_masks[block_id]
            block_touching = touching_masks[block_id]
            not_union = ~block_union
            for cand_id, candidate_mask in enumerate(candidate_masks):
                if candidate_mask & not_union or candidate_mask == block_head:
                    continue
                # One work unit per probe attempt: candidates rejected by
                # the one-comparison subset prefilter above are free.
                if budget is not None:
                    unflushed += 1
                    if unflushed >= flush_at:
                        budget.tick(unflushed)
                        unflushed = 0
                covered = candidate_mask
                subs = []
                for sub_id in candidate_sub_ids[cand_id]:
                    if (union_masks[sub_id] & not_union) == 0 and (
                        component_masks[sub_id] & ~block_component
                    ) == 0:
                        subs.append(sub_id)
                        covered |= component_masks[sub_id]
                if block_component & ~covered or block_touching & ~covered:
                    continue
                pending = [s for s in subs if not satisfied[s]]
                if not pending:
                    basis_cand[block_id] = cand_id
                    satisfied[block_id] = 1
                    queue.append(block_id)
                    break
                for s in pending:
                    waiters.setdefault(s, []).append((block_id, cand_id, subs))
        if budget is not None and unflushed:
            budget.tick(unflushed)
            unflushed = 0
        # Worklist: once a sub-block is satisfied, re-probe exactly the pairs
        # that were waiting on it.  A pair stays registered on its other
        # pending sub-blocks, so its last-satisfied dependency re-probes it.
        while queue:
            event = queue.popleft()
            for block_id, cand_id, subs in waiters.pop(event, ()):
                if budget is not None:
                    budget.tick()
                if satisfied[block_id]:
                    continue
                if all(satisfied[s] for s in subs):
                    basis_cand[block_id] = cand_id
                    satisfied[block_id] = 1
                    queue.append(block_id)

    def _run_fixpoint(self) -> None:
        if self._solved:
            return
        index = self.index
        block_count = index.block_count()
        component_masks = index.mask_arrays()[1]
        satisfied = bytearray(block_count)
        basis_cand: List[Optional[int]] = [None] * block_count
        for block_id in range(block_count):
            if not component_masks[block_id]:
                satisfied[block_id] = 1
        budget = self.budget
        try:
            self._fixpoint(satisfied, basis_cand)
        except BudgetExceeded:
            pass  # anytime: keep the partial fixpoint, report via outcome
        except KeyboardInterrupt:
            if budget is None:
                raise
            budget.mark_interrupted()
        self._outcome = budget.outcome() if budget is not None else completed_outcome()
        # Materialise the id-space result into the Block-keyed public maps.
        candidate_bags = index.candidate_bags
        empty: Bag = frozenset()
        for block_id in range(block_count):
            block = index.block_at(block_id)
            if satisfied[block_id]:
                cand_id = basis_cand[block_id]
                self._basis[block] = (
                    empty if cand_id is None else candidate_bags[cand_id]
                )
                self._satisfied[block] = True
            else:
                self._basis[block] = None
                self._satisfied[block] = False
        self._solved = True

    # -- public API ----------------------------------------------------------------

    def decide(self) -> bool:
        """``True`` iff a CompNF CTD for the candidate bags exists."""
        self._run_fixpoint()
        root = self.index.root_block
        # A satisfied root block with a component always has a real
        # (non-empty) basis; on the vertex-less hypergraph the root block is
        # (∅, ∅), trivially satisfied by the empty basis, and the trivial
        # single-empty-bag decomposition witnesses acceptance.
        return self._satisfied.get(root, False)

    def solve(self) -> Optional[TreeDecomposition]:
        """Return a CompNF CTD, or ``None`` if none exists.

        Under an exhausted budget a ``None`` is inconclusive — check
        :attr:`outcome` (a witnessing decomposition, when returned, is
        always a real CTD regardless of the budget).
        """
        if not self.decide():
            return None
        return self._build_decomposition()

    def solve_with_outcome(self) -> Tuple[Optional[TreeDecomposition], SolveOutcome]:
        """``(decomposition or None, outcome)`` — the governed entry point."""
        decomposition = self.solve()
        return decomposition, self.outcome

    @property
    def outcome(self) -> SolveOutcome:
        """How the fixpoint ended; ``complete`` unless a budget cut it short."""
        self._run_fixpoint()
        assert self._outcome is not None
        return self._outcome

    def satisfied_blocks(self) -> List[Block]:
        """The blocks that were satisfied by the fixpoint (for inspection)."""
        self._run_fixpoint()
        return [block for block, ok in self._satisfied.items() if ok]

    def basis_of(self, block: Block) -> Optional[Bag]:
        self._run_fixpoint()
        return self._basis.get(block)

    # -- decomposition extraction ------------------------------------------------------

    def _attach_block(
        self, tree: RootedTree, parent: TreeNode, block: Block
    ) -> None:
        """Attach the decomposition of ``block``'s component below ``parent``.

        ``parent`` carries the block's head as its bag; the block must be
        satisfied with a non-trivial basis.
        """
        if not block.component:
            return
        basis = self._basis[block]
        if basis is None:
            raise ValueError(f"block {block} is not satisfied")
        node = tree.new_node(parent, bag=basis)
        for sub in self.index.sub_blocks(basis, block):
            if sub.component:
                self._attach_block(tree, node, sub)

    def _build_decomposition(self) -> TreeDecomposition:
        root_block = self.index.root_block
        basis = self._basis[root_block]
        assert basis is not None
        if not root_block.component:
            # Vertex-less hypergraph: the trivial single-empty-bag CTD.
            trivial = self.core.trivial_decomposition()
            assert trivial is not None  # no constraint can reject it here
            return trivial
        tree = RootedTree()
        root_node = tree.new_node(None, bag=basis)
        for sub in self.index.sub_blocks(basis, root_block):
            if sub.component:
                self._attach_block(tree, root_node, sub)
        return TreeDecomposition(self.hypergraph, tree)


def candidate_td(
    hypergraph: Hypergraph,
    candidate_bags: Iterable[FrozenSet[Vertex]],
    budget: Optional[Budget] = None,
) -> Optional[TreeDecomposition]:
    """Solve the CandidateTD problem (Algorithm 1) and return a CTD or ``None``."""
    return CandidateTDSolver(hypergraph, candidate_bags, budget=budget).solve()
