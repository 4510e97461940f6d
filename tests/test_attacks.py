import dataclasses
import warnings

import numpy as np
import pytest

from conftest import graph_of
from csgnn.attacks import (AttackKind, AttackSpec, _gcn_logits, _sym_normalized, apply_attack,
                           evaluate_robustness, feature_noise_attack, random_edge_attack,
                           results_to_csv, train_gcn)
from csgnn.sbm import gen_sbm
from csgnn.training import TrainConfig, accuracy
from csgnn.verify import frobenius_distance, l0_distance, l1_vec_distance


def small_graph(rng, n=12, p=0.35):
    upper = np.triu(rng.random((n, n)) < p, k=1)
    adjacency = (upper | upper.T).astype(float)
    masks = rng.integers(0, 3, n)
    return graph_of(adjacency, features=rng.standard_normal((n, 3)),
                    labels=rng.integers(0, 2, n), train_mask=masks == 0,
                    val_mask=masks == 1, test_mask=masks == 2)


def gcn_logits(g, w1, w2):
    """A fresh GCN forward of `w1`, `w2` on `g`, from its own normalisation."""
    a_hat = _sym_normalized(g.adjacency)
    return _gcn_logits(a_hat, a_hat @ g.features, w1, w2)[0]


class TestRandomEdgeAttack:
    def test_zero_ratio_unchanged(self):
        g = small_graph(np.random.default_rng(0))
        out = random_edge_attack(g, AttackSpec(kind=AttackKind.RANDOM_EDGES, edge_ratio=0.0),
                                 np.random.default_rng(0))
        assert l0_distance(out.adjacency, g.adjacency) == 0

    def test_full_ratio_budget_exact(self):
        # five undirected edges -> ten modified adjacency entries
        adjacency = np.zeros((6, 6))
        for i, j in [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]:
            adjacency[i, j] = adjacency[j, i] = 1.0
        g = graph_of(adjacency, features=np.zeros((6, 1)))
        out = random_edge_attack(g, AttackSpec(kind=AttackKind.RANDOM_EDGES, edge_ratio=1.0),
                                 np.random.default_rng(3))
        assert l0_distance(out.adjacency, g.adjacency) == 10
        assert l1_vec_distance(out.adjacency, g.adjacency) == 10.0

    def test_output_symmetric_binary_no_self_loops_no_removals(self):
        rng = np.random.default_rng(1)
        g = small_graph(rng)
        out = random_edge_attack(g, AttackSpec(kind=AttackKind.RANDOM_EDGES, edge_ratio=0.8),
                                 np.random.default_rng(5))
        a = out.adjacency
        assert np.array_equal(a, a.T)
        assert set(np.unique(a)) <= {0.0, 1.0}
        assert np.all(np.diag(a) == 0.0)
        assert np.all(a >= g.adjacency)

    def test_labels_and_masks_untouched(self):
        g = small_graph(np.random.default_rng(2))
        rng = np.random.default_rng(0)
        out = apply_attack(g, AttackSpec(kind=AttackKind.RANDOM_EDGES, edge_ratio=0.5), rng)
        out = apply_attack(out, AttackSpec(kind=AttackKind.FEATURE_NOISE, feat_eps=1.0), rng)
        assert out.num_undirected_edges() > g.num_undirected_edges()
        assert not np.array_equal(out.features, g.features)
        assert np.array_equal(out.labels, g.labels)
        assert np.array_equal(out.train_mask, g.train_mask)
        assert np.array_equal(out.val_mask, g.val_mask)
        assert np.array_equal(out.test_mask, g.test_mask)

    def test_an_edge_attack_shares_the_clean_graphs_other_arrays(self):
        # Graph kept read-only copies of every array it was handed, so each
        # attacked graph held a copy of the clean features
        g = gen_sbm(n=60, classes=2, p_in=0.2, p_out=0.05, feat_dim=3, signal=1.0, seed=0)
        out = random_edge_attack(g, AttackSpec(kind=AttackKind.RANDOM_EDGES, edge_ratio=0.5),
                                 np.random.default_rng(0))
        for name in ("features", "labels", "train_mask", "val_mask", "test_mask"):
            assert getattr(out, name) is getattr(g, name)
        assert not np.shares_memory(out.adjacency, g.adjacency)

    def test_runs_out_of_non_edges(self):
        g = graph_of(np.ones((4, 4)) - np.eye(4), features=np.zeros((4, 1)))
        with pytest.raises(ValueError, match="non-edges"):
            random_edge_attack(g, AttackSpec(kind=AttackKind.RANDOM_EDGES, edge_ratio=0.5),
                               np.random.default_rng(0))

    def test_a_ratio_past_the_float_range_is_too_many_edges(self):
        # edge_ratio * m overflowed to inf, and int() of it raised OverflowError;
        # a finite need still prints as the integer it is
        g = small_graph(np.random.default_rng(0))
        m = g.num_undirected_edges()
        for ratio, need in ((1e308, "inf"), (1e20, str(int(1e20 * m)))):
            with pytest.raises(ValueError, match=f"^not enough non-edges: need {need}, have "):
                random_edge_attack(g, AttackSpec(kind=AttackKind.RANDOM_EDGES, edge_ratio=ratio),
                                   np.random.default_rng(0))

    def test_seeded_determinism(self):
        g = small_graph(np.random.default_rng(3))
        spec = AttackSpec(kind=AttackKind.RANDOM_EDGES, edge_ratio=0.6)
        a = random_edge_attack(g, spec, np.random.default_rng(9))
        b = random_edge_attack(g, spec, np.random.default_rng(9))
        assert np.array_equal(a.adjacency, b.adjacency)


def triu_random_edge_attack(g, spec, rng):
    """The attack as it was written on the dense adjacency: every pair i < j
    in np.triu_indices order, the free ones drawn by rng.choice."""
    a = np.array(g.adjacency)
    m = int(np.count_nonzero(np.triu(a, k=1)))
    n_add = int(np.floor(spec.edge_ratio * m))
    if n_add == 0:
        return a
    iu, ju = np.triu_indices(g.n, k=1)
    candidates = np.flatnonzero(a[iu, ju] == 0.0)
    chosen = rng.choice(candidates, size=n_add, replace=False)
    a[iu[chosen], ju[chosen]] = 1.0
    a[ju[chosen], iu[chosen]] = 1.0
    return a


@pytest.mark.parametrize("n, p", [(7, 0.3), (100, 0.05), (333, 0.02)])
@pytest.mark.parametrize("self_loops", [False, True])
def test_the_edge_form_draws_the_triu_oracles_non_edges(n, p, self_loops):
    for seed in range(3):
        rng = np.random.default_rng([n, seed])
        upper = np.triu(rng.random((n, n)) < p, k=0 if self_loops else 1)
        g = graph_of((upper | upper.T).astype(float), features=np.zeros((n, 1)))
        assert self_loops == bool(np.any(g.edges[:, 0] == g.edges[:, 1]))
        for ratio in (0.3, 1.0, 2.5):
            spec = AttackSpec(kind=AttackKind.RANDOM_EDGES, edge_ratio=ratio)
            try:
                oracle = triu_random_edge_attack(g, spec, np.random.default_rng([seed, 1]))
            except ValueError:  # more edges asked for than there are non-edges
                with pytest.raises(ValueError, match="not enough non-edges"):
                    random_edge_attack(g, spec, np.random.default_rng([seed, 1]))
                continue
            out = random_edge_attack(g, spec, np.random.default_rng([seed, 1]))
            assert out.adjacency.tobytes() == oracle.tobytes()


class TestFeatureNoiseAttack:
    def test_zero_eps_unchanged(self):
        g = small_graph(np.random.default_rng(4))
        out = feature_noise_attack(g, AttackSpec(kind=AttackKind.FEATURE_NOISE, feat_eps=0.0),
                                   np.random.default_rng(0))
        assert np.array_equal(out.features, g.features)

    def test_budget_strictly_respected(self):
        g = small_graph(np.random.default_rng(5))
        spec = AttackSpec(kind=AttackKind.FEATURE_NOISE, feat_eps=2.5)
        out = feature_noise_attack(g, spec, np.random.default_rng(1))
        dist = frobenius_distance(out.features, g.features)
        assert dist < 2.5
        assert dist == pytest.approx(2.5, rel=1e-8)

    def test_seeded_determinism(self):
        g = small_graph(np.random.default_rng(6))
        spec = AttackSpec(kind=AttackKind.FEATURE_NOISE, feat_eps=1.0)
        assert np.array_equal(feature_noise_attack(g, spec, np.random.default_rng(2)).features,
                              feature_noise_attack(g, spec, np.random.default_rng(2)).features)

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError):
            AttackSpec(kind=AttackKind.FEATURE_NOISE, feat_eps=-1.0)

    @pytest.mark.parametrize("budget", [{"edge_ratio": float("nan")}, {"feat_eps": float("inf")}])
    def test_non_finite_budget_rejected(self, budget):
        with pytest.raises(ValueError, match="finite"):
            AttackSpec(kind=AttackKind.FEATURE_NOISE, **budget)


class TestGCNBaseline:
    def test_single_node_identity_weights(self):
        g = graph_of(np.zeros((1, 1)), features=[[2.0, 3.0]])
        assert np.allclose(gcn_logits(g, np.eye(2), np.eye(2)), [[2.0, 3.0]])

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(7)
        g = small_graph(rng)
        w1, w2 = rng.standard_normal((3, 5)), rng.standard_normal((5, 2))
        perm = rng.permutation(g.n)
        pm = np.zeros((g.n, g.n))
        pm[np.arange(g.n), perm] = 1.0
        gp = graph_of(pm @ g.adjacency @ pm.T, features=pm @ g.features,
                      labels=g.labels[perm])
        assert np.allclose(gcn_logits(gp, w1, w2), pm @ gcn_logits(g, w1, w2))

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(8)
        g = small_graph(rng)
        w1, w2 = rng.standard_normal((3, 4)), rng.standard_normal((4, 2))
        a_hat = g.adjacency + np.eye(g.n)
        d_inv_sqrt = np.diag(1.0 / np.sqrt(a_hat.sum(axis=1)))
        a_hat = d_inv_sqrt @ a_hat @ d_inv_sqrt
        oracle = a_hat @ np.maximum(a_hat @ g.features @ w1, 0.0) @ w2
        assert np.allclose(gcn_logits(g, w1, w2), oracle, atol=1e-12)

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
                w = train_gcn(g, TrainConfig(seed=seed, epochs=30, lr=1e30))
            assert np.isfinite(w.w1).all() and np.isfinite(w.w2).all()
            assert np.isfinite(gcn_logits(g, w.w1, w.w2)).all()

    def test_isolated_node_handled_by_self_loop(self):
        adjacency = np.zeros((3, 3))
        adjacency[0, 1] = adjacency[1, 0] = 1.0
        g = graph_of(adjacency, features=np.ones((3, 2)))
        assert np.all(np.isfinite(gcn_logits(g, np.eye(2), np.eye(2))))

    @pytest.mark.parametrize("epochs, lr", [(0, 1e-2), (20, 1e-2), (30, 1e30)])
    def test_the_fit_scores_its_own_weights(self, epochs, lr, monkeypatch):
        # the fit's test accuracy is a fresh forward's: at epochs=0 of the
        # initial weights, at lr=1e30 of those before a non-finite step, and
        # otherwise of the checkpoint selected; one normalisation per fit
        import csgnn.attacks as attacks
        calls = []
        monkeypatch.setattr(attacks, "_sym_normalized",
                            lambda a: calls.append(1) or _sym_normalized(a))
        g = gen_sbm(n=100, classes=2, p_in=0.1, p_out=0.02, feat_dim=8, signal=1.3, seed=0)
        for seed in (0, 1):
            fit = train_gcn(g, TrainConfig(seed=seed, epochs=epochs, lr=lr))
            fresh = accuracy(gcn_logits(g, fit.w1, fit.w2), g.labels, g.test_mask)
            assert fit.test_acc == fresh
        assert len(calls) == 2


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
        specs = [AttackSpec(kind=AttackKind.RANDOM_EDGES, edge_ratio=r) for r in (0.0, 0.5)]
        rows = evaluate_robustness(self._clean(), specs, ["csgnn", "gcn"], cfg, seeds=(0, 1))
        assert len(rows) == 4
        assert {(r.model, r.budget) for r in rows} == {
            ("csgnn", "0"), ("csgnn", "0.5"), ("gcn", "0"), ("gcn", "0.5")}
        assert all(r.seed_count == 2 for r in rows)

    def test_close_budgets_get_distinct_cells(self):
        # both used to print as 0.123457 and so wrote two rows with one budget cell
        specs = [AttackSpec(kind=AttackKind.RANDOM_EDGES, edge_ratio=r) for r in (0.1234567, 0.1234568)]
        specs += [AttackSpec(kind=AttackKind.FEATURE_NOISE, feat_eps=e) for e in (0.0, 0.5, 1.0, 1e-300)]
        cfg = TrainConfig(epochs=1, hidden_dim=4)
        rows = evaluate_robustness(self._clean(), specs, ["gcn"], cfg, seeds=(0,))
        assert [r.budget for r in rows] == ["0.1234567", "0.1234568", "0", "0.5", "1", "1e-300"]
        assert [float(r.budget) for r in rows] == [0.1234567, 0.1234568, 0.0, 0.5, 1.0, 1e-300]

    def test_empty_seeds_rejected(self):
        spec = AttackSpec(kind=AttackKind.RANDOM_EDGES, edge_ratio=0.0)
        with pytest.raises(ValueError, match="seed"):
            evaluate_robustness(self._clean(), [spec], ["gcn"], TrainConfig(), seeds=())

    def test_sweep_capture_sees_every_fit(self, monkeypatch):
        # the benchmark's sweep workload wraps these three module globals, calling
        # train_gcn with the graph as the only positional argument, and reads
        # w1 and w2 of its return; each (spec, seed) draws its attack from the
        # generator seeded with (config seed, seed)
        import csgnn.attacks as attacks
        orig = {name: getattr(attacks, name) for name in ("apply_attack", "train", "train_gcn")}
        events = []

        def capture_attack(g, spec, rng=None):
            events.append("attack")
            seeds.append(rng.bit_generator.state)
            return orig["apply_attack"](g, spec, rng)

        def capture_train(g, config):
            params, history = orig["train"](g, config)
            events.append(("csgnn", len(history)))
            return params, history

        def capture_gcn(g, **kwargs):
            events.append(("gcn", kwargs["config"].seed, kwargs["config"].epochs))
            fit = orig["train_gcn"](g, **kwargs)
            assert fit.w1.shape == (4, 4) and fit.w2.shape == (4, 2)
            return fit

        monkeypatch.setattr(attacks, "apply_attack", capture_attack)
        monkeypatch.setattr(attacks, "train", capture_train)
        monkeypatch.setattr(attacks, "train_gcn", capture_gcn)
        seeds = []
        cfg = TrainConfig(epochs=3, hidden_dim=4, num_layers=2, patience=3, seed=7)
        rows = evaluate_robustness(
            self._clean(), [AttackSpec(kind=AttackKind.RANDOM_EDGES, edge_ratio=0.5)],
            ["csgnn", "gcn"], cfg, seeds=(0, 1))
        assert events == ["attack", ("csgnn", 3), ("gcn", 0, 3),
                          "attack", ("csgnn", 3), ("gcn", 1, 3)]
        assert seeds == [np.random.default_rng([7, s]).bit_generator.state for s in (0, 1)]
        assert [r.seed_count for r in rows] == [2, 2]

    def test_zero_ratio_equals_clean_training(self):
        clean = self._clean()
        cfg = TrainConfig(epochs=5, hidden_dim=4, num_layers=2, seed=0)
        rows = evaluate_robustness(clean, [AttackSpec(kind=AttackKind.RANDOM_EDGES,
                                                      edge_ratio=0.0)],
                                   ["csgnn"], cfg, seeds=(0,))
        from csgnn.training import train
        from csgnn.network import forward
        params, _ = train(clean, dataclasses.replace(cfg, seed=0))
        logits, _ = forward(clean, params, mode="eval")
        assert rows[0].mean_acc == pytest.approx(
            accuracy(logits, clean.labels, clean.test_mask))
