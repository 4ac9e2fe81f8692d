"""Yannakakis' algorithm over a (candidate) tree decomposition.

Decomposition-guided query evaluation works in three stages (Section 1 and 7
of the paper, following the SQL-rewriting line of work it builds on):

1. *Local joins*: for every decomposition node ``u``, materialise the bag
   relation ``J_u`` — the join of the node's λ-cover atoms projected onto the
   bag — and enforce every query atom at some node whose bag contains all of
   its variables (a semi-join, since the atom's variables are a subset of the
   bag).  This turns the cyclic query into an acyclic one over the ``J_u``.
2. *Full reducer*: Yannakakis' bottom-up and top-down semi-join passes.
3. *Answer extraction*: after the full reducer every remaining tuple
   participates in at least one answer, so MIN/MAX aggregates can be read off
   any node containing the aggregated variable; the full join result can also
   be materialised bottom-up if needed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.hypergraph.hypergraph import Hypergraph, Vertex
from repro.decompositions.td import TreeDecomposition
from repro.decompositions.tree import TreeNode
from repro.core.covers import connected_covers, minimum_edge_cover
from repro.db.database import Database
from repro.db.query import Atom, ConjunctiveQuery
from repro.db.relation import Relation, WorkCounter
from repro.runtime.budget import Budget, BudgetExceeded, SolveOutcome, completed_outcome

Bag = FrozenSet[Vertex]


class BudgetedWorkCounter(WorkCounter):
    """A :class:`WorkCounter` that charges every increment to a budget.

    This makes the engine's own work measure (tuples read + written) the
    budget's work unit: every relational operator already records through
    the counter, so a single hook governs all of Yannakakis execution.
    ``charge`` also reads the clock (operators are chunky), so deadlines
    are honoured operator-by-operator.
    """

    def __init__(self, budget: Budget):
        super().__init__()
        self.budget = budget

    def record(self, read: int, written: int) -> None:
        super().record(read, written)
        self.budget.charge(read + written)


def atom_relation(database: Database, atom: Atom) -> Relation:
    """The atom's relation renamed to query variables and projected to them.

    A variable repeated within the atom (``R(x, x)`` — e.g. a WHERE clause
    that transitively equates two columns of the same table occurrence) is
    a selection: only rows where those columns agree participate, and one
    representative column carries the variable.
    """
    relation = database.relation(atom.relation)
    by_variable: Dict[str, List[str]] = {}
    for attribute, variable in zip(atom.attributes, atom.variables):
        by_variable.setdefault(variable, []).append(attribute)
    duplicated = [attrs for attrs in by_variable.values() if len(attrs) > 1]
    if duplicated:
        relation = relation.select(
            lambda row: all(
                len({row[a] for a in attrs}) == 1 for attrs in duplicated
            )
        )
    projected = relation.project([attrs[0] for attrs in by_variable.values()])
    return projected.rename(
        atom.alias, {attrs[0]: v for v, attrs in by_variable.items()}
    )


#: Ranks a candidate λ-cover, given as its atom aliases; lower is better.
CoverCost = Callable[[Sequence[str]], float]


def choose_cover(
    hypergraph: Hypergraph,
    bag: Bag,
    max_size: Optional[int] = None,
    prefer_connected: bool = True,
    cost: Optional[CoverCost] = None,
) -> List[str]:
    """Pick a λ-cover (list of atom aliases) for a bag.

    Prefers a connected cover of minimal size when one exists (matching the
    ConCov constraint's intent); falls back to a minimum cover otherwise.
    Among several minimum-size connected covers, ``cost`` ranks them (the
    executor passes the estimated join cardinality); ties, and callers
    without a ``cost``, go by alias names so the choice is deterministic.
    ``cost`` is only called when there is a choice to make.
    """
    if not bag:
        return []
    limit = max_size if max_size is not None else hypergraph.num_edges()
    if prefer_connected:
        for size in range(1, limit + 1):
            connected = [
                [edge.name for edge in cover]
                for cover in connected_covers(hypergraph, bag, size)
            ]
            if connected:
                if cost is None or len(connected) == 1:
                    return min(connected, key=lambda names: (len(names), names))
                return min(
                    connected, key=lambda names: (len(names), cost(names), names)
                )
    cover = minimum_edge_cover(hypergraph, bag, upper_bound=limit)
    if cover is None:
        raise ValueError(f"bag {sorted(map(str, bag))} has no edge cover of size <= {limit}")
    return [edge.name for edge in cover]


class CoverChooser:
    """The one λ-cover rule for a query over a database, memoised per bag.

    Covers are ranked by the estimated cardinality of their join
    (:meth:`CardinalityEstimator.estimate_join_cardinality` of the
    database's shared estimator), so a bag with several minimum-size
    connected covers gets the one expected to materialise the fewest
    rows.  A bag with a single candidate never touches statistics.
    Without a ``database`` the choice is plain alias-name order.

    The executor plans with it and the cost models of :mod:`repro.db.cost`
    price with it, so Eq. 5/6 cost the join that actually runs.
    """

    def __init__(
        self,
        query: ConjunctiveQuery,
        database: Optional[Database] = None,
        max_size: Optional[int] = None,
        prefer_connected: bool = True,
    ):
        self.query = query
        self.database = database
        self.hypergraph = query.hypergraph()
        self.max_size = max_size
        self.prefer_connected = prefer_connected
        self._covers: Dict[Bag, Tuple[str, ...]] = {}

    def estimated_rows(self, aliases: Sequence[str]) -> float:
        """The estimated cardinality of the join of the given atoms."""
        assert self.database is not None
        return self.database.estimator().estimate_join_cardinality(
            [self.query.atom(alias) for alias in aliases]
        )

    def __call__(self, bag: Bag) -> Tuple[str, ...]:
        cover = self._covers.get(bag)
        if cover is None:
            cover = tuple(
                choose_cover(
                    self.hypergraph,
                    bag,
                    max_size=self.max_size,
                    prefer_connected=self.prefer_connected,
                    cost=None if self.database is None else self.estimated_rows,
                )
            )
            self._covers[bag] = cover
        return cover


@dataclass
class NodePlan:
    """Execution plan entry for one decomposition node."""

    node: TreeNode
    bag: Bag
    cover: List[str]
    enforced_atoms: List[str] = field(default_factory=list)


@dataclass
class YannakakisRun:
    """The outcome of one decomposition-guided execution.

    ``outcome.partial`` marks a run a budget cut short: ``result`` is then
    ``None`` (never a silently wrong partial answer) and the size maps
    cover only the stages that completed.  ``max_intermediate`` is the
    largest relation the run built: cover joins, bag relations and every
    step of answer extraction.
    """

    result: object
    counter: WorkCounter
    wall_time: float
    node_sizes: Dict[int, int]
    reduced_sizes: Dict[int, int]
    max_intermediate: int
    outcome: SolveOutcome = completed_outcome()

    @property
    def work(self) -> int:
        return self.counter.total


class YannakakisExecutor:
    """Executes a conjunctive query through a tree decomposition."""

    def __init__(
        self,
        database: Database,
        query: ConjunctiveQuery,
        max_cover_size: Optional[int] = None,
        prefer_connected: bool = True,
    ):
        self.database = database
        self.query = query
        self.covers = CoverChooser(
            query,
            database,
            max_size=max_cover_size,
            prefer_connected=prefer_connected,
        )
        self._atom_relations: Dict[str, Relation] = {}

    def _atom_relation(self, alias: str) -> Relation:
        if alias not in self._atom_relations:
            self._atom_relations[alias] = atom_relation(
                self.database, self.query.atom(alias)
            )
        return self._atom_relations[alias]

    # -- planning -----------------------------------------------------------------

    def plan(self, decomposition: TreeDecomposition) -> List[NodePlan]:
        """Assign covers and atom enforcement to decomposition nodes."""
        nodes = decomposition.tree.nodes()
        plans = [
            NodePlan(
                node=node,
                bag=decomposition.bag(node),
                cover=list(self.covers(decomposition.bag(node))),
            )
            for node in nodes
        ]
        variables_of = {
            atom.alias: frozenset(atom.variables) for atom in self.query.atoms
        }
        for alias, variables in variables_of.items():
            target = None
            for plan in plans:
                if variables <= plan.bag:
                    target = plan
                    break
            if target is None:
                raise ValueError(
                    f"decomposition does not cover atom {alias!r}; not a valid TD "
                    "of the query hypergraph"
                )
            # The target bag already contains all atom variables, so the atom
            # is satisfied by the local join exactly when it is part of the
            # cover; anything else must be enforced with a semi-join.
            if alias not in target.cover:
                target.enforced_atoms.append(alias)
        return plans

    # -- execution ------------------------------------------------------------------

    def execute(
        self,
        decomposition: TreeDecomposition,
        materialize_result: bool = False,
        budget: Optional[Budget] = None,
        plans: Optional[List[NodePlan]] = None,
    ) -> YannakakisRun:
        """Run the three stages and return the aggregate (or materialised) result.

        ``plans`` is :meth:`plan`'s output for ``decomposition`` when the
        caller already has it (the query front door plans once per query);
        without it the decomposition is planned here.

        With a ``budget``, work is metered in the engine's own units
        (tuples read + written, via :class:`BudgetedWorkCounter`) and the
        deadline is checked per operator.  An exhausted run returns
        ``result=None`` with the honest partial counters — never a wrong
        partial answer — and ``outcome`` says why it stopped.
        """
        counter = WorkCounter() if budget is None else BudgetedWorkCounter(budget)
        start = time.perf_counter()
        try:
            if plans is None:
                plans = self.plan(decomposition)
            return self._execute_stages(
                decomposition, plans, materialize_result, counter, start
            )
        except BudgetExceeded:
            pass
        except KeyboardInterrupt:
            if budget is None:
                raise
            budget.mark_interrupted()
        return YannakakisRun(
            result=None,
            counter=counter,
            wall_time=time.perf_counter() - start,
            node_sizes={},
            reduced_sizes={},
            max_intermediate=0,
            outcome=budget.outcome(),
        )

    def _execute_stages(
        self,
        decomposition: TreeDecomposition,
        plans: List[NodePlan],
        materialize_result: bool,
        counter: WorkCounter,
        start: float,
    ) -> YannakakisRun:
        bag_relations: Dict[int, Relation] = {}
        node_sizes: Dict[int, int] = {}
        max_intermediate = 0

        # Stage 1: local joins.
        for plan in plans:
            relation, largest = self._materialize_bag(plan, counter)
            bag_relations[plan.node.node_id] = relation
            node_sizes[plan.node.node_id] = len(relation)
            max_intermediate = max(max_intermediate, largest)

        tree = decomposition.tree
        # Stage 2a: bottom-up semi-joins.
        for node in tree.postorder():
            for child in node.children:
                bag_relations[node.node_id] = bag_relations[node.node_id].semijoin(
                    bag_relations[child.node_id], counter
                )
        # Stage 2b: top-down semi-joins.
        for node in tree.preorder():
            for child in node.children:
                bag_relations[child.node_id] = bag_relations[child.node_id].semijoin(
                    bag_relations[node.node_id], counter
                )
        reduced_sizes = {
            node_id: len(relation) for node_id, relation in bag_relations.items()
        }

        # Stage 3: answer extraction.
        aggregate = self.query.aggregate
        if (
            materialize_result
            or aggregate is None
            or aggregate[0].upper() == "COUNT"
        ):
            result_relation, largest = self._materialize_join(
                tree, bag_relations, counter
            )
            max_intermediate = max(max_intermediate, largest)
            if aggregate is None:
                result: object = result_relation
            else:
                result = result_relation.aggregate(*aggregate)
        else:
            result = self._aggregate_from_reduced(plans, bag_relations, *aggregate)
        wall_time = time.perf_counter() - start
        outcome = (
            counter.budget.outcome()
            if isinstance(counter, BudgetedWorkCounter)
            else completed_outcome(work=counter.total, elapsed=wall_time)
        )
        return YannakakisRun(
            result=result,
            counter=counter,
            wall_time=wall_time,
            node_sizes=node_sizes,
            reduced_sizes=reduced_sizes,
            max_intermediate=max_intermediate,
            outcome=outcome,
        )

    # -- helpers --------------------------------------------------------------------

    def _materialize_bag(
        self, plan: NodePlan, counter: WorkCounter
    ) -> Tuple[Relation, int]:
        """The bag relation ``J_u`` and the largest relation built for it."""
        bag_attributes = sorted(map(str, plan.bag))
        if not plan.cover:
            relation = self.database.new_relation(
                f"J{plan.node.node_id}",
                bag_attributes,
                [()] if not bag_attributes else [],
            )
            return relation, len(relation)
        relation = self._atom_relation(plan.cover[0])
        largest = len(relation)
        for alias in plan.cover[1:]:
            relation = relation.natural_join(self._atom_relation(alias), counter)
            largest = max(largest, len(relation))
        # Atom relations are duplicate-free and so is their natural join:
        # when the cover has no attribute outside the bag, projecting is
        # the identity and is skipped.
        if len(relation.attributes) != len(plan.bag):
            relation = relation.project(
                [a for a in relation.attributes if a in plan.bag], counter
            )
        for alias in plan.enforced_atoms:
            relation = relation.semijoin(self._atom_relation(alias), counter)
        return relation, largest

    def _materialize_join(
        self,
        tree,
        bag_relations: Dict[int, Relation],
        counter: WorkCounter,
    ) -> Tuple[Relation, int]:
        """The join of the reduced bag relations, and its largest step.

        Nodes join in preorder, so every node meets a result that already
        holds its parent's bag.  After the full reducer each step is then
        the answer projected onto the nodes joined so far — never larger
        than the output.  (Postorder would join sibling subtrees before
        their parent, which can be a cross product.)
        """
        result: Optional[Relation] = None
        largest = 0
        for node in tree.preorder():
            relation = bag_relations[node.node_id]
            result = relation if result is None else result.natural_join(relation, counter)
            largest = max(largest, len(result))
        assert result is not None
        return result, largest

    def _aggregate_from_reduced(
        self,
        plans: Sequence[NodePlan],
        bag_relations: Dict[int, Relation],
        function: str,
        variable: str,
    ) -> object:
        for plan in plans:
            if variable in plan.bag:
                return bag_relations[plan.node.node_id].aggregate(function, variable)
        raise ValueError(
            f"aggregate variable {variable!r} does not occur in any bag"
        )


def run_yannakakis(
    database: Database,
    query: ConjunctiveQuery,
    decomposition: TreeDecomposition,
    max_cover_size: Optional[int] = None,
    prefer_connected: bool = True,
    budget: Optional[Budget] = None,
) -> YannakakisRun:
    """Convenience wrapper: execute ``query`` through ``decomposition``."""
    executor = YannakakisExecutor(
        database,
        query,
        max_cover_size=max_cover_size,
        prefer_connected=prefer_connected,
    )
    return executor.execute(decomposition, budget=budget)
