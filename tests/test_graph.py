import dataclasses
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import graph_of
from csgnn import dynamics
from csgnn.graph import (Graph, PerturbationBudget, frobenius_distance, l0_distance,
                         l1_vec_distance, load_graph, save_graph)
from csgnn.sbm import gen_sbm


class TestMetrics:
    def test_l0_counts_differing_entries(self):
        assert l0_distance([[0, 1], [1, 0]], [[0, 0], [0, 0]]) == 2

    def test_l0_identical(self):
        a = np.random.default_rng(0).random((4, 4))
        assert l0_distance(a, a) == 0

    def test_l0_equals_l1_on_binary(self):
        rng = np.random.default_rng(3)
        for _ in range(1000):
            n = int(rng.integers(1, 11))
            a = (rng.random((n, n)) < 0.5).astype(float)
            b = (rng.random((n, n)) < 0.5).astype(float)
            assert l0_distance(a, b) == l1_vec_distance(a, b)

    def test_l1_hand_cases(self):
        assert l1_vec_distance([[0, 1], [1, 0]], np.zeros((2, 2))) == 2.0
        assert l1_vec_distance([[0.5, 0], [0, 0]], np.zeros((2, 2))) == 0.5

    def test_l1_lower_bounded_by_l0_min_gap(self):
        rng = np.random.default_rng(4)
        for _ in range(500):
            n = int(rng.integers(1, 9))
            a = rng.standard_normal((n, n))
            b = np.where(rng.random((n, n)) < 0.4, a, rng.standard_normal((n, n)))
            gaps = np.abs(a - b)[np.abs(a - b) > 0]
            bound = gaps.size * gaps.min() if gaps.size else 0.0
            assert l1_vec_distance(a, b) >= bound - 1e-12

    def test_frobenius_hand_cases(self):
        f = np.array([[3.0, 4.0]])
        assert frobenius_distance(f, np.zeros((1, 2))) == 5.0
        assert frobenius_distance(f, f) == 0.0

    def test_frobenius_matches_elementwise_oracle(self):
        rng = np.random.default_rng(5)
        f, g = rng.standard_normal((6, 3)), rng.standard_normal((6, 3))
        oracle = np.sqrt(sum((f[i, j] - g[i, j]) ** 2 for i in range(6) for j in range(3)))
        assert frobenius_distance(f, g) == pytest.approx(oracle, rel=1e-14)

    @pytest.mark.parametrize("fn", [l0_distance, l1_vec_distance, frobenius_distance])
    def test_shape_mismatch_raises(self, fn):
        with pytest.raises(ValueError, match="shape mismatch"):
            fn(np.zeros((2, 2)), np.zeros((3, 3)))

    @given(st.integers(1, 6), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_metrics_symmetric_and_zero_iff_equal(self, n, seed):
        rng = np.random.default_rng(seed)
        a, b = rng.standard_normal((n, n)), rng.standard_normal((n, n))
        assert l0_distance(a, b) == l0_distance(b, a)
        assert l1_vec_distance(a, b) == l1_vec_distance(b, a)
        assert frobenius_distance(a, b) == frobenius_distance(b, a)
        assert l0_distance(a, a) == 0
        assert l1_vec_distance(a, a) == 0.0
        assert frobenius_distance(a, a) == 0.0
        if l0_distance(a, b) == 0:
            assert np.array_equal(a, b)


def _random_binary_graph(rng, n, p=0.1, self_loops=False):
    upper = np.triu(rng.random((n, n)) < p, k=0 if self_loops else 1)
    return graph_of(upper | upper.T, features=rng.standard_normal((n, 2)))


class TestGraphValidation:
    def test_rejects_nan_adjacency(self):
        # the adjacency is given as its edge list, and NaN names no node
        with pytest.raises(ValueError, match="^edges must hold int values"):
            Graph(edges=[[np.nan, 1.0]], features=np.zeros((2, 1)))

    @pytest.mark.parametrize("adjacency, features", [
        ([[np.inf, 1.0]], [[0.0], [0.0]]),
        ([[0.0, -np.inf]], [[0.0], [0.0]]),
        ([[0, 1]], [[np.nan], [0.0]]),
        ([[0, 1]], [[0.0], [-np.inf]]),
    ])
    def test_rejects_non_finite_entries(self, adjacency, features):
        # `adjacency` is the graph's edge list
        match = "finite" if np.isfinite(adjacency).all() else "^edges must hold int values"
        with pytest.raises(ValueError, match=match):
            Graph(edges=adjacency, features=features)

    @pytest.mark.parametrize("field, value", [
        ("edges", [[0.5, 1]]),
        ("labels", [0.7, 1, 0]),
        ("train_mask", [2, 0, 0]),
        ("test_mask", [0, 0.5, 0]),
    ])
    def test_a_cast_that_would_change_a_value_is_refused(self, field, value):
        # these were cast to the pair (0, 1), the label 0 and True
        fields = {"edges": [[0, 1]], "features": np.zeros((3, 1)), field: value}
        with pytest.raises(ValueError, match=f"^{field} must hold (int|bool) values"):
            Graph(**fields)

    def test_a_cast_that_keeps_every_value_is_taken(self):
        g = Graph(edges=[[0.0, 1.0]], features=np.zeros((3, 1)), labels=[1.0, 0.0, -1.0],
                  train_mask=[1, 0, 0], val_mask=[0.0, 1.0, 0.0])
        assert g.edges.tolist() == [[0, 1]] and g.labels.tolist() == [1, 0, -1]
        assert g.train_mask.tolist() == [True, False, False]
        assert g.val_mask.tolist() == [False, True, False]

    def test_rejects_overlapping_masks(self):
        m = np.array([True, False])
        with pytest.raises(ValueError, match="disjoint"):
            graph_of(np.zeros((2, 2)), features=np.zeros((2, 1)),
                     train_mask=m, val_mask=m)

    @pytest.mark.parametrize("self_loops", [False, True])
    def test_undirected_edges_counted_without_an_upper_triangle_copy(self, self_loops):
        # the count used to read np.triu's n x n copy; it must stay a Python
        # int, since a numpy one makes random_edge_attack's overflowing need
        # raise numpy's overflow warning instead of its refusal
        rng = np.random.default_rng(7)
        for n in (1, 2, 9, 70):
            upper = np.triu(rng.random((n, n)) < 0.3, k=0 if self_loops else 1)
            g = graph_of(upper | upper.T, features=np.zeros((n, 1)))
            count = g.num_undirected_edges()
            assert type(count) is int
            assert count == np.count_nonzero(np.triu(upper, k=1))

    @pytest.mark.parametrize("n", [40, 300])
    def test_graph_term_cached_with_the_bits_of_a_fresh_call(self, n):
        # n = 40 takes the dense eigvalsh path, n = 300 the Lanczos one
        g = _random_binary_graph(np.random.default_rng(n), n)
        assert "gradient_operator_sq_norm" not in vars(g)
        fresh = dynamics.gradient_operator_sq_norm(np.array(g.adjacency))
        assert g.gradient_operator_sq_norm == fresh
        assert vars(g)["gradient_operator_sq_norm"] == fresh and type(fresh) is float

    def test_a_replaced_adjacency_gets_its_own_graph_term(self):
        g = _random_binary_graph(np.random.default_rng(8), 30)
        before = g.gradient_operator_sq_norm
        h = dataclasses.replace(g, edges=g.edges[1:])
        assert h.gradient_operator_sq_norm == dynamics.gradient_operator_sq_norm(h.adjacency)
        assert h.gradient_operator_sq_norm != before
        assert g.gradient_operator_sq_norm == before

    def test_budget_nonnegative(self):
        with pytest.raises(ValueError):
            PerturbationBudget(eps_feat=-1.0, eps_adj=0.0)

    def test_budget_finite(self):
        for eps in (float("nan"), float("inf"), np.array([0.5, float("nan")])):
            with pytest.raises(ValueError, match="finite"):
                PerturbationBudget(eps_feat=0.0, eps_adj=eps)

    def test_arrays_are_readonly(self):
        g = _random_binary_graph(np.random.default_rng(4), 3, p=0.5)
        for arr in (g.adjacency, g.edges, g.features, g.labels, g.train_mask):
            with pytest.raises(ValueError):
                arr[0] = 7


class TestEdgeForm:
    @pytest.mark.parametrize("n", [1, 6, 40])
    def test_a_dense_adjacency_round_trips_to_its_bytes(self, n):
        # self-loops on the diagonal too
        upper = np.triu(np.random.default_rng(n).random((n, n)) < 0.4)
        a = (upper | upper.T).astype(float)
        g = Graph(edges=np.argwhere(upper), features=np.zeros((n, 1)))
        assert g.adjacency.tobytes() == a.tobytes()
        assert g.num_undirected_edges() == np.count_nonzero(np.triu(a, k=1))

    def test_each_edge_is_a_one(self):
        g = Graph(edges=[[0, 1], [1, 1]], features=np.zeros((3, 1)))
        assert g.num_undirected_edges() == 1
        assert np.array_equal(g.adjacency, [[0, 1, 0], [1, 1, 0], [0, 0, 0]])

    @pytest.mark.parametrize("edges, match", [
        ([[1, 0]], "row-major"),
        ([[0, 1], [0, 1]], "row-major"),
        ([[0, 2], [0, 1]], "row-major"),
        ([[0, 3]], "row-major"),
        ([[-1, 0]], "row-major"),
        ([0, 1], r"\(m, 2\)"),
        ([[0.5, 1]], "int values"),
    ])
    def test_rejects_edges_out_of_form(self, edges, match):
        with pytest.raises(ValueError, match=match):
            Graph(edges=edges, features=np.zeros((3, 1)))

    def test_no_attribute_holds_an_adjacency_sized_array(self):
        g = gen_sbm(n=400, classes=2, p_in=0.1, p_out=0.02, feat_dim=4, signal=1.3, seed=0)
        assert g.gradient_operator_sq_norm > 0.0 and g.adjacency.shape == (400, 400)
        held = {name: getattr(value, "nbytes", 0) for name, value in vars(g).items()}
        assert {"edges", "gradient_operator_sq_norm"} <= set(held)
        assert max(held.values()) < g.n * g.n, held

    def test_replacing_the_features_allocates_no_adjacency_sized_array(self):
        g = gen_sbm(n=1000, classes=2, p_in=0.02, p_out=0.005, feat_dim=4, signal=1.3, seed=0)
        features = g.features + 1.0
        tracemalloc.start()
        try:
            h = dataclasses.replace(g, features=features)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < g.n * g.n, peak  # one n x n boolean array would reach it
        assert h.edges is g.edges
        assert np.array_equal(h.features, features)


class TestGraphIO:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(6)
        upper = np.triu(rng.random((7, 7)) < 0.4, k=1)
        adjacency = (upper | upper.T).astype(float)
        masks = rng.integers(0, 3, 7)
        g = graph_of(adjacency, features=rng.standard_normal((7, 3)),
                     labels=rng.integers(0, 2, 7), train_mask=masks == 0,
                     val_mask=masks == 1, test_mask=masks == 2)
        save_graph(g, tmp_path)
        back = load_graph(tmp_path)
        assert np.array_equal(back.adjacency, g.adjacency)
        assert np.array_equal(back.features, g.features)
        assert np.array_equal(back.labels, g.labels)
        assert np.array_equal(back.train_mask, g.train_mask)
        assert np.array_equal(back.val_mask, g.val_mask)
        assert np.array_equal(back.test_mask, g.test_mask)

    def test_writer_is_byte_deterministic(self, tmp_path):
        g = graph_of([[0.0, 1.0], [1.0, 0.0]],
                     features=[[0.1, 0.2], [0.3, 0.4]], labels=[0, 1],
                     train_mask=[True, False], val_mask=[False, True])
        save_graph(g, tmp_path / "a")
        save_graph(g, tmp_path / "b")
        for name in ("edges.txt", "features.csv", "labels.csv", "masks.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    @pytest.mark.parametrize("n, self_loops", [(150, True), (150, False), (5, False)])
    def test_edge_list_bytes_match_a_per_edge_oracle(self, tmp_path, n, self_loops):
        # the writer used to loop over the edges; n = 150 spans three row blocks
        rng = np.random.default_rng(n)
        g = _random_binary_graph(rng, n, p=0.0 if n == 5 else 0.1, self_loops=self_loops)
        save_graph(g, tmp_path)
        rows, cols = np.nonzero(np.triu(g.adjacency))
        oracle = "".join(f"{i} {j}\n" for i, j in zip(rows, cols)).encode()
        assert (tmp_path / "edges.txt").read_bytes() == oracle
        assert self_loops == bool(np.any(rows == cols))

    @pytest.mark.parametrize("name, text", [
        ("edges.txt", "0.5 1\n"),
        ("features.csv", "0.1,0.2\nx,0.4\n"),
        ("labels.csv", "0\nx\n"),
        ("masks.csv", "train,val,test\n1,0,0\n0,x,1\n"),
    ], ids=["edges", "features", "labels", "masks"])
    def test_parse_error_names_its_file(self, tmp_path, name, text):
        g = graph_of([[0.0, 1.0], [1.0, 0.0]], features=np.zeros((2, 2)))
        save_graph(g, tmp_path)
        (tmp_path / name).write_text(text)
        with pytest.raises(ValueError, match=f"^{re.escape(name)}: "):
            load_graph(tmp_path)

    @pytest.mark.parametrize("name", ["labels.csv", "masks.csv"])
    def test_row_count_mismatch_names_the_file_and_both_counts(self, tmp_path, name):
        # it used to read "labels must be a length-n integer vector"
        g = graph_of(np.eye(4)[[1, 0, 3, 2]], features=np.zeros((4, 2)), labels=[0, 1, 0, 1])
        save_graph(g, tmp_path)
        lines = (tmp_path / name).read_text().splitlines(keepends=True)
        (tmp_path / name).write_text("".join(lines[:-1]))  # drop the last node's row
        with pytest.raises(ValueError, match=f"^{re.escape(name)} has 3 rows, but features.csv has 4$"):
            load_graph(tmp_path)

    def test_an_edgeless_graph_loads_as_zero_edges(self, tmp_path):
        # its empty edges.txt used to raise numpy's "input contained no data" warning
        g = graph_of(np.zeros((3, 3)), features=np.ones((3, 2)), labels=[0, 1, 0])
        save_graph(g, tmp_path)
        assert (tmp_path / "edges.txt").read_bytes() == b""
        back = load_graph(tmp_path)
        assert np.array_equal(back.adjacency, np.zeros((3, 3)))
        assert np.array_equal(back.features, g.features)

    def test_the_loader_symmetrizes_and_sorts_any_edge_list(self, tmp_path):
        g = graph_of(np.zeros((5, 5)), features=np.zeros((5, 2)))
        save_graph(g, tmp_path)
        pairs = [(3, 1), (0, 4), (1, 3), (2, 2), (4, 0), (0, 1), (0, 1)]
        (tmp_path / "edges.txt").write_text("".join(f"{i} {j}\n" for i, j in pairs))
        oracle = np.zeros((5, 5))
        for i, j in pairs:
            oracle[i, j] = oracle[j, i] = 1.0
        back = load_graph(tmp_path)
        assert back.adjacency.tobytes() == oracle.tobytes()
        assert back.edges.tolist() == [[0, 1], [0, 4], [1, 3], [2, 2]]

    @pytest.mark.parametrize("line", ["-1 5", "3 -2", "0 7"])
    def test_rejects_out_of_range_edge_index(self, tmp_path, line):
        g = graph_of(np.zeros((7, 7)), features=np.zeros((7, 2)))
        save_graph(g, tmp_path)
        (tmp_path / "edges.txt").write_text(f"0 1\n{line}\n")
        with pytest.raises(ValueError, match="edge index"):
            load_graph(tmp_path)
