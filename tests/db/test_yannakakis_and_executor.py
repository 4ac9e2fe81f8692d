"""Unit and integration tests for Yannakakis execution and the executors."""

import pytest

from repro.core.candidate_bags import soft_candidate_bags
from repro.core.enumerate import enumerate_ctds
from repro.decompositions.td import TreeDecomposition
from repro.db.cost import EstimateCostModel
from repro.db.database import Database
from repro.db.executor import BaselineExecutor, DecompositionExecutor
from repro.db.query import Atom, ConjunctiveQuery
from repro.db.relation import Relation
from repro.db.yannakakis import (
    CoverChooser,
    YannakakisExecutor,
    atom_relation,
    choose_cover,
    run_yannakakis,
)
from tests.conftest import brute_force_triangle_count


@pytest.fixture
def triangle_td(triangle_query):
    hypergraph = triangle_query.hypergraph()
    return TreeDecomposition.from_bags(
        hypergraph, [{"x", "y", "z"}], [None]
    )


class TestAtomRelations:
    def test_atom_relation_renames_to_variables(self, triangle_database, triangle_query):
        relation = atom_relation(triangle_database, triangle_query.atom("R"))
        assert set(relation.attributes) == {"x", "y"}
        assert len(relation) == len(triangle_database.relation("R"))

    def test_choose_cover_prefers_connected(self, four_cycle):
        cover = choose_cover(four_cycle, frozenset({"w", "x", "y"}), max_size=2)
        assert len(cover) == 2
        edges = [four_cycle.edge(name) for name in cover]
        assert edges[0].vertices & edges[1].vertices

    def test_choose_cover_empty_bag(self, four_cycle):
        assert choose_cover(four_cycle, frozenset()) == []

    def test_choose_cover_uncoverable_raises(self, four_cycle):
        with pytest.raises(ValueError):
            choose_cover(four_cycle, frozenset({"nope"}), max_size=1)


class TestYannakakis:
    def test_triangle_count_matches_brute_force(
        self, triangle_database, triangle_query, triangle_td
    ):
        run = run_yannakakis(triangle_database, triangle_query, triangle_td)
        assert run.result == brute_force_triangle_count(triangle_database)

    def test_min_aggregate_from_reduced_nodes(self, triangle_database, triangle_query):
        query = triangle_query
        query.aggregate = ("MIN", "x")
        hypergraph = query.hypergraph()
        decomposition = TreeDecomposition.from_bags(
            hypergraph, [{"x", "y", "z"}], [None]
        )
        run = run_yannakakis(triangle_database, query, decomposition)
        # Brute force: the minimal x participating in a triangle.
        expected = min(
            x
            for (x, y) in triangle_database.relation("R").rows
            for (y2, z) in triangle_database.relation("S").rows
            if y2 == y
            for (z2, x2) in triangle_database.relation("T").rows
            if z2 == z and x2 == x
        )
        assert run.result == expected
        materialized = YannakakisExecutor(triangle_database, query).execute(
            decomposition, materialize_result=True
        )
        assert materialized.result == expected

    def test_decomposition_must_cover_every_atom(self, triangle_database, triangle_query):
        hypergraph = triangle_query.hypergraph()
        bad = TreeDecomposition.from_bags(hypergraph, [{"x", "y"}], [None])
        with pytest.raises(ValueError):
            run_yannakakis(triangle_database, triangle_query, bad)

    def test_node_sizes_recorded(self, triangle_database, triangle_query, triangle_td):
        run = run_yannakakis(triangle_database, triangle_query, triangle_td)
        assert set(run.node_sizes) == {triangle_td.tree.root.node_id}
        assert run.max_intermediate >= max(run.node_sizes.values())
        assert run.work > 0


class TestExecutorsAgree:
    def test_executors_agree_on_triangle(self, triangle_database, triangle_query):
        hypergraph = triangle_query.hypergraph()
        decomposition = TreeDecomposition.from_bags(
            hypergraph, [{"x", "y", "z"}], [None]
        )
        decomposition_result = DecompositionExecutor(
            triangle_database, triangle_query
        ).execute(decomposition)
        baseline_result = BaselineExecutor(triangle_database, triangle_query).execute()
        assert decomposition_result.result == baseline_result.result

    def test_all_ctds_give_same_answer_on_tpcds(self):
        from repro.workloads.tpcds import build_tpcds_database, tpcds_query_qds

        database = build_tpcds_database(scale=0.1)
        query = tpcds_query_qds(database)
        hypergraph = query.hypergraph()
        decompositions = enumerate_ctds(
            hypergraph, soft_candidate_bags(hypergraph, 2), limit=4
        )
        assert decompositions
        executor = DecompositionExecutor(database, query)
        results = {executor.execute(d).result for d in decompositions}
        baseline = BaselineExecutor(database, query).execute()
        assert results == {baseline.result}

    def test_metrics_fields(self, triangle_database, triangle_query):
        baseline = BaselineExecutor(triangle_database, triangle_query).execute()
        assert baseline.work > 0
        assert baseline.max_intermediate >= 0
        assert baseline.wall_time >= 0.0
        assert "work" in repr(baseline)


class TestAnswerExtraction:
    """Extraction keeps Yannakakis' O(input + output) bound (regression).

    Star query R(a,b), S(a,c), T(b,d) over n-row matchings with the bags
    {a,b} ← {a,c}, {b,d}: the two leaves share no variable, so joining
    them before their parent is an n² cross product for an n-row answer.
    """

    @staticmethod
    def _star(n, aggregate=None):
        database = Database()
        for name in ("R", "S", "T"):
            database.create_table(name, ["l", "r"], [(i, i) for i in range(n)])
        query = ConjunctiveQuery(
            [
                Atom("R", "R", ("l", "r"), ("a", "b")),
                Atom("S", "S", ("l", "r"), ("a", "c")),
                Atom("T", "T", ("l", "r"), ("b", "d")),
            ],
            aggregate=aggregate,
        )
        decomposition = TreeDecomposition.from_bags(
            query.hypergraph(), [{"a", "b"}, {"a", "c"}, {"b", "d"}], [None, 0, 0]
        )
        return database, query, decomposition

    @pytest.mark.parametrize("n", [50, 200])
    def test_extraction_work_is_linear(self, n):
        database, query, decomposition = self._star(n)
        full = YannakakisExecutor(database, query).execute(decomposition)
        # Same plan with a MIN aggregate reads the answer off a reduced
        # bag, so the work difference is exactly answer extraction.
        _, min_query, _ = self._star(n, aggregate=("MIN", "a"))
        reduced = YannakakisExecutor(database, min_query).execute(decomposition)
        assert len(full.result) == n
        extraction = full.work - reduced.work
        assert 0 < extraction <= 4 * (sum(full.reduced_sizes.values()) + n)

    def test_reported_max_is_the_true_max(self, monkeypatch):
        database, query, decomposition = self._star(100)
        built = []
        natural_join = Relation.natural_join

        def recording_join(self, other, counter=None):
            result = natural_join(self, other, counter)
            built.append(len(result))
            return result

        monkeypatch.setattr(Relation, "natural_join", recording_join)
        run = YannakakisExecutor(database, query).execute(decomposition)
        assert built and max(built) == 100
        assert run.max_intermediate == max(built + list(run.node_sizes.values()))

    def test_reported_max_sees_the_cover_join(
        self, triangle_database, triangle_query, triangle_td
    ):
        executor = YannakakisExecutor(triangle_database, triangle_query)
        (plan,) = executor.plan(triangle_td)
        first, second = (
            atom_relation(triangle_database, triangle_query.atom(alias))
            for alias in plan.cover
        )
        run = executor.execute(triangle_td)
        # The triangle bag joins two atoms before the third is enforced,
        # so the largest relation is that join, not the reduced bag.
        assert run.max_intermediate == max(
            len(first), len(second), len(first.natural_join(second))
        )


class TestCostRankedCovers:
    @staticmethod
    def _skewed_triangle():
        """A(x,y), B(y,z), C(x,z) where y has one value: A ⋈ B is a product."""
        database = Database()
        database.create_table("A", ["p", "q"], [(i, 0) for i in range(30)])
        database.create_table("B", ["p", "q"], [(0, i) for i in range(30)])
        database.create_table("C", ["p", "q"], [(i, i) for i in range(30)])
        query = ConjunctiveQuery(
            [
                Atom("A", "A", ("p", "q"), ("x", "y")),
                Atom("B", "B", ("p", "q"), ("y", "z")),
                Atom("C", "C", ("p", "q"), ("x", "z")),
            ],
            aggregate=("COUNT", "x"),
        )
        return database, query

    def test_name_order_without_data(self):
        _, query = self._skewed_triangle()
        assert CoverChooser(query)(frozenset({"x", "y", "z"})) == ("A", "B")

    def test_smallest_estimated_join_wins(self):
        database, query = self._skewed_triangle()
        chooser = CoverChooser(query, database)
        cover = chooser(frozenset({"x", "y", "z"}))
        assert len(cover) == 2 and cover != ("A", "B")
        assert chooser.estimated_rows(cover) < chooser.estimated_rows(("A", "B"))

    def test_ranked_plan_keeps_the_answer(self):
        database, query = self._skewed_triangle()
        decomposition = TreeDecomposition.single_bag(query.hypergraph())
        run = run_yannakakis(database, query, decomposition)
        assert run.result == BaselineExecutor(database, query).execute().result
        assert run.max_intermediate < 30 * 30

    def test_single_candidate_bags_build_no_estimator(self, monkeypatch):
        database = Database()
        database.create_table("R", ["a", "b"], [(1, 2)])
        database.create_table("S", ["a", "b"], [(2, 3)])
        query = ConjunctiveQuery(
            [
                Atom("R", "R", ("a", "b"), ("x", "y")),
                Atom("S", "S", ("a", "b"), ("y", "z")),
            ]
        )
        decomposition = TreeDecomposition.from_bags(
            query.hypergraph(), [{"x", "y"}, {"y", "z"}], [None, 0]
        )
        monkeypatch.setattr(
            database, "estimator", lambda: pytest.fail("estimator built")
        )
        plans = YannakakisExecutor(database, query).plan(decomposition)
        assert [plan.cover for plan in plans] == [["R"], ["S"]]

    def test_one_estimator_per_database(self):
        database, query = self._skewed_triangle()
        estimator = database.estimator()
        assert database.estimator() is estimator
        assert BaselineExecutor(database, query).estimator is estimator
        assert EstimateCostModel(query, database).estimator is estimator
        database.create_table("D", ["p"], [(1,)])
        assert database.estimator() is not estimator

    def test_cost_model_prices_the_executed_cover(self):
        database, query = self._skewed_triangle()
        bag = frozenset({"x", "y", "z"})
        model = EstimateCostModel(query, database)
        assert model.cover_of(bag) == CoverChooser(query, database)(bag)
