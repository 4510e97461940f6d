import dataclasses
import warnings

import numpy as np
import pytest

from csgnn.attacks import (AttackKind, AttackSpec, GCNWeights, apply_attack,
                           evaluate_robustness, feature_noise_attack,
                           gcn_baseline_forward, random_edge_attack, results_to_csv,
                           train_gcn)
from csgnn.graph import Graph, frobenius_distance, l0_distance, l1_vec_distance
from csgnn.sbm import gen_sbm
from csgnn.training import TrainConfig, accuracy


def small_graph(rng, n=12, p=0.35):
    upper = np.triu(rng.random((n, n)) < p, k=1)
    adjacency = (upper | upper.T).astype(float)
    masks = rng.integers(0, 3, n)
    return Graph(adjacency=adjacency, features=rng.standard_normal((n, 3)),
                 labels=rng.integers(0, 2, n), train_mask=masks == 0,
                 val_mask=masks == 1, test_mask=masks == 2)


class TestRandomEdgeAttack:
    def test_zero_ratio_unchanged(self):
        g = small_graph(np.random.default_rng(0))
        out = random_edge_attack(g, AttackSpec(kind=AttackKind.RANDOM_EDGES, edge_ratio=0.0))
        assert l0_distance(out.adjacency, g.adjacency) == 0

    def test_full_ratio_budget_exact(self):
        # five undirected edges -> ten modified adjacency entries
        adjacency = np.zeros((6, 6))
        for i, j in [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]:
            adjacency[i, j] = adjacency[j, i] = 1.0
        g = Graph(adjacency=adjacency, features=np.zeros((6, 1)))
        out = random_edge_attack(g, AttackSpec(kind=AttackKind.RANDOM_EDGES,
                                               edge_ratio=1.0, seed=3))
        assert l0_distance(out.adjacency, g.adjacency) == 10
        assert l1_vec_distance(out.adjacency, g.adjacency) == 10.0

    def test_output_symmetric_binary_no_self_loops_no_removals(self):
        rng = np.random.default_rng(1)
        g = small_graph(rng)
        out = random_edge_attack(g, AttackSpec(kind=AttackKind.RANDOM_EDGES,
                                               edge_ratio=0.8, seed=5))
        a = out.adjacency
        assert np.array_equal(a, a.T)
        assert set(np.unique(a)) <= {0.0, 1.0}
        assert np.all(np.diag(a) == 0.0)
        assert np.all(a >= g.adjacency)

    def test_labels_and_masks_untouched(self):
        g = small_graph(np.random.default_rng(2))
        out = apply_attack(g, AttackSpec(kind=AttackKind.RANDOM_EDGES, edge_ratio=0.5, seed=0))
        out = apply_attack(out, AttackSpec(kind=AttackKind.FEATURE_NOISE, feat_eps=1.0, seed=0))
        assert out.num_undirected_edges() > g.num_undirected_edges()
        assert not np.array_equal(out.features, g.features)
        assert np.array_equal(out.labels, g.labels)
        assert np.array_equal(out.train_mask, g.train_mask)
        assert np.array_equal(out.val_mask, g.val_mask)
        assert np.array_equal(out.test_mask, g.test_mask)

    def test_runs_out_of_non_edges(self):
        g = Graph(adjacency=(np.ones((4, 4)) - np.eye(4)), features=np.zeros((4, 1)))
        with pytest.raises(ValueError, match="non-edges"):
            random_edge_attack(g, AttackSpec(kind=AttackKind.RANDOM_EDGES, edge_ratio=0.5))

    def test_requires_binary_symmetric(self):
        for adjacency in ([[0.0, 0.5], [0.5, 0.0]], [[0.0, 2.0], [2.0, 0.0]]):
            g = Graph(adjacency=adjacency, features=np.zeros((2, 1)))
            with pytest.raises(ValueError, match="binary"):
                random_edge_attack(g, AttackSpec(kind=AttackKind.RANDOM_EDGES, edge_ratio=1.0))

    def test_seeded_determinism(self):
        g = small_graph(np.random.default_rng(3))
        spec = AttackSpec(kind=AttackKind.RANDOM_EDGES, edge_ratio=0.6, seed=9)
        a = random_edge_attack(g, spec)
        b = random_edge_attack(g, spec)
        assert np.array_equal(a.adjacency, b.adjacency)


class TestFeatureNoiseAttack:
    def test_zero_eps_unchanged(self):
        g = small_graph(np.random.default_rng(4))
        out = feature_noise_attack(g, AttackSpec(kind=AttackKind.FEATURE_NOISE, feat_eps=0.0))
        assert np.array_equal(out.features, g.features)

    def test_budget_strictly_respected(self):
        g = small_graph(np.random.default_rng(5))
        spec = AttackSpec(kind=AttackKind.FEATURE_NOISE, feat_eps=2.5, seed=1)
        out = feature_noise_attack(g, spec)
        dist = frobenius_distance(out.features, g.features)
        assert dist < 2.5
        assert dist == pytest.approx(2.5, rel=1e-8)

    def test_seeded_determinism(self):
        g = small_graph(np.random.default_rng(6))
        spec = AttackSpec(kind=AttackKind.FEATURE_NOISE, feat_eps=1.0, seed=2)
        assert np.array_equal(feature_noise_attack(g, spec).features,
                              feature_noise_attack(g, spec).features)

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError):
            AttackSpec(kind=AttackKind.FEATURE_NOISE, feat_eps=-1.0)

    @pytest.mark.parametrize("budget", [{"edge_ratio": float("nan")}, {"feat_eps": float("inf")}])
    def test_non_finite_budget_rejected(self, budget):
        with pytest.raises(ValueError, match="finite"):
            AttackSpec(kind=AttackKind.FEATURE_NOISE, **budget)


class TestGCNBaseline:
    def test_single_node_identity_weights(self):
        g = Graph(adjacency=np.zeros((1, 1)), features=[[2.0, 3.0]])
        w = GCNWeights(w1=np.eye(2), w2=np.eye(2))
        assert np.allclose(gcn_baseline_forward(g, w), [[2.0, 3.0]])

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(7)
        g = small_graph(rng)
        w = GCNWeights(w1=rng.standard_normal((3, 5)), w2=rng.standard_normal((5, 2)))
        perm = rng.permutation(g.n)
        pm = np.zeros((g.n, g.n))
        pm[np.arange(g.n), perm] = 1.0
        gp = Graph(adjacency=pm @ g.adjacency @ pm.T, features=pm @ g.features,
                   labels=g.labels[perm])
        assert np.allclose(gcn_baseline_forward(gp, w), pm @ gcn_baseline_forward(g, w))

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(8)
        g = small_graph(rng)
        w = GCNWeights(w1=rng.standard_normal((3, 4)), w2=rng.standard_normal((4, 2)))
        a_hat = g.adjacency + np.eye(g.n)
        d_inv_sqrt = np.diag(1.0 / np.sqrt(a_hat.sum(axis=1)))
        a_hat = d_inv_sqrt @ a_hat @ d_inv_sqrt
        oracle = a_hat @ np.maximum(a_hat @ g.features @ w.w1, 0.0) @ w.w2
        assert np.allclose(gcn_baseline_forward(g, w), oracle, atol=1e-12)

    def test_training_starts_from_the_shared_uniform_init(self):
        from csgnn.training import _uniform_init
        g = small_graph(np.random.default_rng(9))
        rng = np.random.default_rng(3)
        w1, w2 = _uniform_init(rng, 3, 4), _uniform_init(rng, 4, 2)
        w = train_gcn(g, TrainConfig(seed=3, hidden_dim=4, epochs=0))
        assert np.array_equal(w.w1, w1) and np.array_equal(w.w2, w2)

    def test_an_empty_validation_split_is_refused(self):
        # every epoch's validation accuracy was NaN, so the initial draw was returned
        g = small_graph(np.random.default_rng(9))
        g = dataclasses.replace(g, val_mask=np.zeros(g.n, bool), test_mask=g.test_mask | g.val_mask)
        with pytest.raises(ValueError, match="nonempty train and validation masks"):
            train_gcn(g, TrainConfig(seed=3, hidden_dim=4, epochs=20))

    def test_non_finite_adam_step_stops_training(self):
        # at this rate an Adam step soon overflows the weights; training stops
        # there, so no NaN weights (whose NaN logits `accuracy` would score
        # as votes for class 0) can be selected, and numpy warns of nothing
        g = gen_sbm(n=100, classes=2, p_in=0.1, p_out=0.02, feat_dim=8, signal=1.3, seed=0)
        for seed in (0, 1):
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                w = train_gcn(g, TrainConfig(seed=seed, epochs=30, lr_node=1e30))
            assert np.isfinite(w.w1).all() and np.isfinite(w.w2).all()
            assert np.isfinite(gcn_baseline_forward(g, w)).all()

    def test_isolated_node_handled_by_self_loop(self):
        adjacency = np.zeros((3, 3))
        adjacency[0, 1] = adjacency[1, 0] = 1.0
        g = Graph(adjacency=adjacency, features=np.ones((3, 2)))
        w = GCNWeights(w1=np.eye(2), w2=np.eye(2))
        out = gcn_baseline_forward(g, w)
        assert np.all(np.isfinite(out))


class TestEvaluateRobustness:
    def _clean(self):
        return gen_sbm(n=30, classes=2, p_in=0.4, p_out=0.05, feat_dim=4,
                       signal=1.5, seed=0)

    def test_empty_specs_give_header_only_table(self):
        rows = evaluate_robustness(self._clean(), [], ["gcn"], TrainConfig(), seeds=(0,))
        assert rows == []
        assert results_to_csv(rows) == "model,attack_kind,budget,seed_count,mean_acc,std_acc\n"

    def test_rows_for_every_model_and_spec(self):
        cfg = TrainConfig(epochs=4, hidden_dim=4, num_layers=2)
        specs = [AttackSpec(kind=AttackKind.RANDOM_EDGES, edge_ratio=r, seed=0)
                 for r in (0.0, 0.5)]
        rows = evaluate_robustness(self._clean(), specs, ["csgnn", "gcn"], cfg, seeds=(0, 1))
        assert len(rows) == 4
        assert {(r.model, r.budget) for r in rows} == {
            ("csgnn", "0"), ("csgnn", "0.5"), ("gcn", "0"), ("gcn", "0.5")}
        assert all(r.seed_count == 2 for r in rows)

    def test_empty_seeds_rejected(self):
        spec = AttackSpec(kind=AttackKind.RANDOM_EDGES, edge_ratio=0.0)
        with pytest.raises(ValueError, match="seed"):
            evaluate_robustness(self._clean(), [spec], ["gcn"], TrainConfig(), seeds=())

    def test_sweep_capture_sees_every_fit(self, monkeypatch):
        # the benchmark's sweep workload wraps these three module globals, calling
        # train_gcn with the graph as the only positional argument
        import csgnn.attacks as attacks
        orig = {name: getattr(attacks, name) for name in ("apply_attack", "train", "train_gcn")}
        events = []

        def capture_attack(g, spec, rng=None):
            events.append("attack")
            return orig["apply_attack"](g, spec, rng)

        def capture_train(g, config):
            params, history = orig["train"](g, config)
            events.append(("csgnn", len(history)))
            return params, history

        def capture_gcn(g, **kwargs):
            events.append(("gcn", kwargs["config"].seed, kwargs["config"].epochs))
            return orig["train_gcn"](g, **kwargs)

        monkeypatch.setattr(attacks, "apply_attack", capture_attack)
        monkeypatch.setattr(attacks, "train", capture_train)
        monkeypatch.setattr(attacks, "train_gcn", capture_gcn)
        cfg = TrainConfig(epochs=3, hidden_dim=4, num_layers=2, patience=3)
        rows = evaluate_robustness(
            self._clean(), [AttackSpec(kind=AttackKind.RANDOM_EDGES, edge_ratio=0.5, seed=0)],
            ["csgnn", "gcn"], cfg, seeds=(0, 1))
        assert events == ["attack", ("csgnn", 3), ("gcn", 0, 3),
                          "attack", ("csgnn", 3), ("gcn", 1, 3)]
        assert [r.seed_count for r in rows] == [2, 2]

    def test_zero_ratio_equals_clean_training(self):
        clean = self._clean()
        cfg = TrainConfig(epochs=5, hidden_dim=4, num_layers=2, seed=0)
        rows = evaluate_robustness(clean, [AttackSpec(kind=AttackKind.RANDOM_EDGES,
                                                      edge_ratio=0.0, seed=0)],
                                   ["csgnn"], cfg, seeds=(0,))
        from csgnn.training import train
        from csgnn.network import forward
        params, _ = train(clean, dataclasses.replace(cfg, seed=0))
        logits, _ = forward(clean, params, mode="eval")
        assert rows[0].mean_acc == pytest.approx(
            accuracy(logits, clean.labels, clean.test_mask))
