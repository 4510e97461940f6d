import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from csgnn.graph import (Graph, Permutation, PerturbationBudget, frobenius_distance,
                         l0_distance, l1_vec_distance, load_graph, permute_graph,
                         save_graph)


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


def _random_graph(rng, n):
    labels = rng.integers(0, 3, n)
    masks = rng.integers(0, 3, n)
    a = rng.standard_normal((n, n))
    return Graph(
        adjacency=a + a.T,
        features=rng.standard_normal((n, 2)),
        labels=labels,
        train_mask=masks == 0,
        val_mask=masks == 1,
        test_mask=masks == 2,
    )


class TestPermutation:
    def test_identity_leaves_graph_unchanged(self):
        g = _random_graph(np.random.default_rng(0), 5)
        out = permute_graph(g, Permutation(np.arange(5)))
        assert np.array_equal(out.adjacency, g.adjacency)
        assert np.array_equal(out.features, g.features)
        assert np.array_equal(out.labels, g.labels)

    def test_swap_fixes_symmetric_two_node_graph(self):
        g = Graph(adjacency=[[0.0, 1.0], [1.0, 0.0]], features=np.zeros((2, 1)))
        out = permute_graph(g, Permutation([1, 0]))
        assert np.array_equal(out.adjacency, [[0.0, 1.0], [1.0, 0.0]])

    def test_swap_hand_case(self):
        g = Graph(adjacency=[[1.0, 2.0], [2.0, 4.0]], features=np.zeros((2, 1)))
        out = permute_graph(g, Permutation([1, 0]))
        assert np.array_equal(out.adjacency, [[4.0, 2.0], [2.0, 1.0]])

    def test_matches_matrix_conjugation(self):
        rng = np.random.default_rng(1)
        g = _random_graph(rng, 6)
        p = Permutation(rng.permutation(6))
        pm = p.matrix()
        out = permute_graph(g, p)
        assert np.allclose(out.adjacency, pm @ g.adjacency @ pm.T)
        assert np.allclose(out.features, pm @ g.features)

    def test_composition_exact(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            n = int(rng.integers(2, 9))
            g = _random_graph(rng, n)
            p = Permutation(rng.permutation(n))
            q = Permutation(rng.permutation(n))
            lhs = permute_graph(permute_graph(g, p), q)
            rhs = permute_graph(g, q.after(p))
            assert np.array_equal(lhs.adjacency, rhs.adjacency)
            assert np.array_equal(lhs.features, rhs.features)
            assert np.array_equal(lhs.labels, rhs.labels)
            assert np.array_equal(lhs.train_mask, rhs.train_mask)

    def test_rejects_non_bijection(self):
        with pytest.raises(ValueError):
            Permutation([0, 0, 1])

    def test_length_mismatch(self):
        g = _random_graph(np.random.default_rng(3), 4)
        with pytest.raises(ValueError, match="length"):
            permute_graph(g, Permutation([0, 1, 2]))


class TestGraphValidation:
    def test_rejects_non_square_adjacency(self):
        with pytest.raises(ValueError, match="square"):
            Graph(adjacency=np.zeros((2, 3)), features=np.zeros((2, 1)))

    def test_rejects_nan_adjacency(self):
        with pytest.raises(ValueError, match="NaN"):
            Graph(adjacency=[[np.nan, 1.0], [1.0, 0.0]], features=np.zeros((2, 1)))

    @pytest.mark.parametrize("adjacency, features", [
        ([[np.inf, 1.0], [1.0, 0.0]], [[0.0], [0.0]]),
        ([[0.0, -np.inf], [-np.inf, 0.0]], [[0.0], [0.0]]),
        ([[0.0, 1.0], [1.0, 0.0]], [[np.nan], [0.0]]),
        ([[0.0, 1.0], [1.0, 0.0]], [[0.0], [-np.inf]]),
    ])
    def test_rejects_non_finite_entries(self, adjacency, features):
        with pytest.raises(ValueError, match="finite"):
            Graph(adjacency=adjacency, features=features)

    def test_rejects_overlapping_masks(self):
        m = np.array([True, False])
        with pytest.raises(ValueError, match="disjoint"):
            Graph(adjacency=np.zeros((2, 2)), features=np.zeros((2, 1)),
                  train_mask=m, val_mask=m)

    def test_binary_decided_on_first_use_and_kept(self):
        g = Graph(adjacency=[[0.0, 0.5], [0.5, 0.0]], features=np.zeros((2, 1)))
        assert "binary" not in vars(g)
        assert g.binary is False and vars(g)["binary"] is False
        assert Graph(adjacency=[[0.0, 1.0], [1.0, 1.0]], features=np.zeros((2, 1))).binary is True

    def test_budget_nonnegative(self):
        with pytest.raises(ValueError):
            PerturbationBudget(eps_feat=-1.0, eps_adj=0.0)

    def test_budget_finite(self):
        for eps in (float("nan"), float("inf"), np.array([0.5, float("nan")])):
            with pytest.raises(ValueError, match="finite"):
                PerturbationBudget(eps_feat=0.0, eps_adj=eps)

    def test_arrays_are_readonly(self):
        g = _random_graph(np.random.default_rng(4), 3)
        with pytest.raises(ValueError):
            g.adjacency[0, 0] = 7.0


class TestGraphIO:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(6)
        upper = np.triu(rng.random((7, 7)) < 0.4, k=1)
        adjacency = (upper | upper.T).astype(float)
        masks = rng.integers(0, 3, 7)
        g = Graph(adjacency=adjacency, features=rng.standard_normal((7, 3)),
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
        g = Graph(adjacency=[[0.0, 1.0], [1.0, 0.0]],
                  features=[[0.1, 0.2], [0.3, 0.4]], labels=[0, 1],
                  train_mask=[True, False], val_mask=[False, True])
        save_graph(g, tmp_path / "a")
        save_graph(g, tmp_path / "b")
        for name in ("edges.txt", "features.csv", "labels.csv", "masks.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_rejects_weighted_adjacency(self, tmp_path):
        g = Graph(adjacency=[[0.0, 0.5], [0.5, 0.0]], features=np.zeros((2, 1)))
        with pytest.raises(ValueError, match="binary"):
            save_graph(g, tmp_path)

    @pytest.mark.parametrize("name, text", [
        ("edges.txt", "0.5 1\n"),
        ("features.csv", "0.1,0.2\nx,0.4\n"),
        ("labels.csv", "0\nx\n"),
        ("masks.csv", "train,val,test\n1,0,0\n0,x,1\n"),
    ], ids=["edges", "features", "labels", "masks"])
    def test_parse_error_names_its_file(self, tmp_path, name, text):
        g = Graph(adjacency=[[0.0, 1.0], [1.0, 0.0]], features=np.zeros((2, 2)))
        save_graph(g, tmp_path)
        (tmp_path / name).write_text(text)
        with pytest.raises(ValueError, match=f"^{re.escape(name)}: "):
            load_graph(tmp_path)

    @pytest.mark.parametrize("name", ["labels.csv", "masks.csv"])
    def test_row_count_mismatch_names_the_file_and_both_counts(self, tmp_path, name):
        # it used to read "labels must be a length-n integer vector"
        g = Graph(adjacency=np.eye(4)[[1, 0, 3, 2]], features=np.zeros((4, 2)), labels=[0, 1, 0, 1])
        save_graph(g, tmp_path)
        lines = (tmp_path / name).read_text().splitlines(keepends=True)
        (tmp_path / name).write_text("".join(lines[:-1]))  # drop the last node's row
        with pytest.raises(ValueError, match=f"^{re.escape(name)} has 3 rows, but features.csv has 4$"):
            load_graph(tmp_path)

    def test_an_edgeless_graph_loads_as_zero_edges(self, tmp_path):
        # its empty edges.txt used to raise numpy's "input contained no data" warning
        g = Graph(adjacency=np.zeros((3, 3)), features=np.ones((3, 2)), labels=[0, 1, 0])
        save_graph(g, tmp_path)
        assert (tmp_path / "edges.txt").read_bytes() == b""
        back = load_graph(tmp_path)
        assert np.array_equal(back.adjacency, np.zeros((3, 3)))
        assert np.array_equal(back.features, g.features)

    @pytest.mark.parametrize("line", ["-1 5", "3 -2", "0 7"])
    def test_rejects_out_of_range_edge_index(self, tmp_path, line):
        g = Graph(adjacency=np.zeros((7, 7)), features=np.zeros((7, 2)))
        save_graph(g, tmp_path)
        (tmp_path / "edges.txt").write_text(f"0 1\n{line}\n")
        with pytest.raises(ValueError, match="edge index"):
            load_graph(tmp_path)
