import dataclasses
import json
import re
import struct
from fractions import Fraction

import numpy as np
import pytest

from csgnn.dynamics import LayerParams, feature_field, feature_step
from csgnn.equivariant import (AdjacencyStepConfig, EquivariantCoeffs, adjacency_step,
                               max_step_adjacency)
from csgnn.graph import Graph, PerturbationBudget, l1_vec_distance
from csgnn import network
from csgnn.network import (CoupledLayer, NetworkParams, certificate, evolve, forward,
                           lipschitz_upper, load_checkpoint, save_checkpoint, weighted_distance)


def zero_dynamics_layer(c, h=0.5):
    return CoupledLayer(
        feature=LayerParams(h=h, K=np.zeros((c, c))),
        adjacency=AdjacencyStepConfig(coeffs=EquivariantCoeffs(k=np.zeros(8), alpha=0.0), h=h),
    )


def random_params(rng, c_in, c, c_out, depth=2, dropout_p=0.0):
    layers = []
    for _ in range(depth):
        coeffs = EquivariantCoeffs(k=0.3 * rng.standard_normal(8),
                                   alpha=-1.0 - rng.random())
        layers.append(CoupledLayer(
            feature=LayerParams(h=0.1, K=0.5 * rng.standard_normal((c, c))),
            adjacency=AdjacencyStepConfig(coeffs=coeffs,
                                          h=0.5 * max_step_adjacency(coeffs)),
        ))
    return NetworkParams(
        encoder=rng.standard_normal((c_in, c)),
        layers=tuple(layers),
        classifier_w=rng.standard_normal((c, c_out)),
        classifier_b=rng.standard_normal(c_out),
        dropout_p=dropout_p,
    )


def _counted_adjacency_steps(monkeypatch) -> list:
    """The configs of every adjacency step `network` takes from here on."""
    calls = []

    def counting_step(a, cfg, **kwargs):
        calls.append(cfg)
        return adjacency_step(a, cfg, **kwargs)

    monkeypatch.setattr(network, "adjacency_step", counting_step)
    return calls


def random_graph(rng, n, c_in):
    upper = np.triu(rng.random((n, n)) < 0.5, k=1)
    return Graph(adjacency=(upper | upper.T).astype(float),
                 features=rng.standard_normal((n, c_in)),
                 labels=rng.integers(0, 2, n),
                 train_mask=np.arange(n) < n // 2)


class TestForward:
    def test_identity_network_returns_features(self):
        rng = np.random.default_rng(0)
        g = random_graph(rng, 5, 3)
        params = NetworkParams(
            encoder=np.eye(3),
            layers=(zero_dynamics_layer(3),),
            classifier_w=np.eye(3),
            classifier_b=np.zeros(3),
        )
        logits, trace = forward(g, params, mode="eval")
        assert np.array_equal(logits, g.features)
        assert len(trace.layer_dropped) == 1
        assert np.array_equal(trace.final_dropped, g.features)
        assert len(trace.adjacency_states) == 1
        assert np.array_equal(trace.adjacency_states[0], g.adjacency)

    @pytest.mark.parametrize("depth", [1, 2, 3])
    def test_last_adjacency_step_is_not_taken(self, depth, monkeypatch):
        rng = np.random.default_rng(9)
        g = random_graph(rng, 5, 3)
        params = random_params(rng, 3, 4, 2, depth=depth)
        calls = _counted_adjacency_steps(monkeypatch)
        _, trace = forward(g, params, mode="eval")
        assert len(calls) == depth - 1
        assert len(trace.adjacency_states) == depth
        calls.clear()
        _, as_ = evolve(g.features @ params.encoder, g.adjacency, params.layers)
        assert len(calls) == depth - 1
        assert len(as_) == depth
        assert all(np.array_equal(a, b) for a, b in zip(trace.adjacency_states, as_))

    def test_eval_mode_is_bit_deterministic(self):
        rng = np.random.default_rng(1)
        g = random_graph(rng, 6, 3)
        params = random_params(rng, 3, 4, 2)
        a, _ = forward(g, params, mode="eval")
        b, _ = forward(g, params, mode="eval")
        assert np.array_equal(a, b)

    def test_train_mode_dropout_reproducible_from_seed(self):
        rng = np.random.default_rng(2)
        g = random_graph(rng, 6, 3)
        params = random_params(rng, 3, 4, 2, dropout_p=0.5)
        a, _ = forward(g, params, mode="train", rng=np.random.default_rng(7))
        b, _ = forward(g, params, mode="train", rng=np.random.default_rng(7))
        c, _ = forward(g, params, mode="train", rng=np.random.default_rng(8))
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_recorded_masks_replay(self):
        rng = np.random.default_rng(3)
        g = random_graph(rng, 5, 3)
        params = random_params(rng, 3, 4, 2, dropout_p=0.4)
        logits, trace = forward(g, params, mode="train", rng=np.random.default_rng(0))
        input_mask = (np.random.default_rng(0).random(g.features.shape) >= 0.4) / 0.6
        assert np.array_equal(trace.input_dropped, g.features * input_mask)
        f = trace.input_dropped @ params.encoder
        for layer, a, mask in zip(params.layers, trace.adjacency_states, trace.layer_masks):
            f = feature_step(f * mask, a, layer.feature)
        assert np.array_equal(f * trace.final_mask, trace.final_dropped)
        assert np.array_equal(logits, trace.final_dropped @ params.classifier_w + params.classifier_b)

    def test_eval_matches_evolve(self):
        rng = np.random.default_rng(4)
        g = random_graph(rng, 6, 3)
        params = random_params(rng, 3, 4, 2)
        _, trace = forward(g, params, mode="eval")
        fs, as_ = evolve(g.features @ params.encoder, g.adjacency, params.layers)
        assert np.array_equal(trace.final_dropped, fs[-1])
        assert all(np.array_equal(a, b) for a, b in zip(trace.layer_dropped, fs[:-1]))
        assert all(np.array_equal(a, b) for a, b in zip(trace.adjacency_states, as_))

    def test_evolve_rejects_a_non_finite_state(self):
        rng = np.random.default_rng(4)
        g = random_graph(rng, 6, 3)
        params = random_params(rng, 3, 4, 2)
        f0 = g.features @ params.encoder
        f0[0, 0] = np.nan
        with pytest.raises(FloatingPointError, match="features after layer 1"):
            evolve(f0, g.adjacency, params.layers)

    def test_nan_aborts_with_diagnostic(self):
        rng = np.random.default_rng(5)
        g = random_graph(rng, 4, 3)
        params = random_params(rng, 3, 4, 2)
        bad = dataclasses.replace(params, encoder=np.full((3, 4), np.nan))
        with pytest.raises(FloatingPointError, match="encoded features"):
            forward(g, bad, mode="eval")

    def test_network_permutation_equivariance_learn_k(self):
        rng = np.random.default_rng(6)
        g = random_graph(rng, 7, 3)
        params = random_params(rng, 3, 4, 3)
        perm = rng.permutation(7)
        pm = np.zeros((7, 7))
        pm[np.arange(7), perm] = 1.0
        gp = Graph(adjacency=pm @ g.adjacency @ pm.T, features=pm @ g.features,
                   labels=g.labels[perm], train_mask=g.train_mask[perm])
        lhs, _ = forward(gp, params, mode="eval")
        rhs = pm @ forward(g, params, mode="eval")[0]
        assert np.abs(lhs - rhs).max() <= 1e-9 * max(1.0, np.abs(rhs).max())

    def test_feature_width_mismatch(self):
        rng = np.random.default_rng(7)
        g = random_graph(rng, 4, 3)
        params = random_params(rng, 5, 4, 2)
        with pytest.raises(ValueError, match="encoder"):
            forward(g, params, mode="eval")

    @pytest.mark.parametrize("field", ["K", "k"])
    def test_shared_weights_are_equal_in_every_layer(self, field):
        # a corrupt checkpoint could hold one, and training reads only layer 0's
        rng = np.random.default_rng(8)
        params = random_params(rng, 3, 4, 2, depth=3)
        first, other = params.layers[:2]
        slower = dataclasses.replace(first, feature=dataclasses.replace(first.feature, h=0.05))
        shared = dataclasses.replace(params, layers=(first, first, slower), share_weights=True)
        assert shared.layers[2].feature.h == 0.05  # step sizes may differ
        if field == "K":
            bad = dataclasses.replace(first, feature=other.feature)
        else:
            bad = dataclasses.replace(first, adjacency=other.adjacency)
        with pytest.raises(ValueError, match="layer 2's K or k differs from layer 0's"):
            dataclasses.replace(params, layers=(first, first, bad), share_weights=True)

    def test_a_layer_K_must_match_the_encoder_width(self):
        params = random_params(np.random.default_rng(8), 3, 4, 2, depth=3)
        layers = list(params.layers)
        layers[2] = dataclasses.replace(layers[2], feature=LayerParams(h=0.1, K=np.eye(3)))
        match = r"layer 2's K has shape \(3, 3\); the encoder width is 4"
        with pytest.raises(ValueError, match=match):
            dataclasses.replace(params, layers=tuple(layers))


class TestDistances:
    def test_weighted_distance_identical_states(self):
        f = np.ones((3, 2))
        a = np.eye(3)
        assert weighted_distance(1.0, 1.0, (f, a), (f, a)) == 0.0

    def test_weighted_distance_additivity(self):
        f1 = np.zeros((1, 2))
        f2 = np.array([[3.0, 4.0]])
        a1 = np.zeros((2, 2))
        a2 = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert weighted_distance(1.0, 1.0, (f1, a1), (f2, a2)) == 7.0

    def test_weighted_distance_homogeneous(self):
        rng = np.random.default_rng(8)
        s1 = (rng.standard_normal((3, 2)), rng.standard_normal((3, 3)))
        s2 = (rng.standard_normal((3, 2)), rng.standard_normal((3, 3)))
        base = weighted_distance(1.0, 1.0, s1, s2)
        assert weighted_distance(2.5, 2.5, s1, s2) == pytest.approx(2.5 * base, rel=1e-12)

    def test_weighted_distance_rejects_nonpositive_weights(self):
        with pytest.raises(ValueError):
            weighted_distance(0.0, 1.0, (np.zeros((1, 1)), np.zeros((1, 1))),
                              (np.zeros((1, 1)), np.zeros((1, 1))))


class TestExpansivityBound:
    """Hand cases of the bound eps_feat + eps_adj * (1 + sum_l h_l lip_l)."""

    def test_feature_only_budget(self):
        rng = np.random.default_rng(7)
        params = random_params(rng, 3, 4, 2)
        a0 = np.abs(rng.standard_normal((5, 5)))
        cert = certificate(rng.standard_normal((5, 4)), a0 + a0.T, params.layers,
                           PerturbationBudget(eps_feat=0.7, eps_adj=0.0))
        assert all(row["lipschitz_upper"] > 0 for row in cert["layers"])
        assert cert["bound"] == 0.7

    def test_zero_lipschitz(self):
        # zero features have no row gap, so every lip is 0
        rng = np.random.default_rng(8)
        params = random_params(rng, 3, 4, 2, depth=3)
        cert = certificate(np.zeros((5, 4)), np.ones((5, 5)), params.layers,
                           PerturbationBudget(eps_feat=0.3, eps_adj=0.4))
        assert [row["lipschitz_upper"] for row in cert["layers"]] == [0.0] * 3
        assert cert["bound"] == 0.3 + 0.4

    def test_single_layer_hand_case(self):
        # one node pair one unit apart on a single channel, K = I: lip = 4 * 1.5 * gap,
        # gap the padded bound on the row distance 1
        layer = CoupledLayer(feature=LayerParams(h=0.5, K=np.eye(1)),
                             adjacency=zero_dynamics_layer(1).adjacency)
        f0 = np.array([[0.0], [1.0]])
        a0 = np.array([[0.0, 0.5], [0.5, 0.0]])
        cert = certificate(f0, a0, [layer], PerturbationBudget(eps_feat=0.0, eps_adj=1.0))
        lip = 4.0 * 1.5 * network._max_row_gap(f0)
        assert cert["layers"][0]["lipschitz_upper"] == lip
        assert cert["bound"] == 1.0 * (1.0 + lip * 0.5)
        assert cert["bound"] == pytest.approx(4.0)

    def test_negative_inputs_rejected(self):
        # the certificate reads its step sizes from LayerParams, which refuses
        # a negative one, as the budget refuses a negative radius
        with pytest.raises(ValueError, match="nonnegative"):
            LayerParams(h=-0.1, K=np.eye(2))
        with pytest.raises(ValueError, match="nonnegative"):
            LayerParams(h=np.array([0.1, -0.1]), K=np.stack([np.eye(2)] * 2))
        with pytest.raises(ValueError, match="nonnegative"):
            PerturbationBudget(eps_feat=0.0, eps_adj=-1.0)


def estimate_mixed_lipschitz(f: np.ndarray, layer: LayerParams, n_samples: int, rng,
                             probe_step: float = 1e-4):
    """Sampled lower bound and analytic upper bound for Lip(A -> X(F, A)).

    Samples symmetric adjacency matrices with entries uniform in [0, 1) and
    symmetric l1-unit perturbation directions, the undirected perturbations
    the certificate bounds; the upper bound covers the whole sampled region,
    so lower <= upper on every call.
    """
    if n_samples < 1:
        raise ValueError("need at least one sample")
    f = np.asarray(f, dtype=float)
    n = f.shape[0]
    lower = 0.0
    max_abs = 0.0
    for _ in range(n_samples):
        a = rng.random((n, n))
        a = 0.5 * (a + a.T)
        direction = rng.standard_normal((n, n))
        direction = direction + direction.T
        direction /= np.abs(direction).sum()
        moved = feature_field(f, a + probe_step * direction, layer)
        base = feature_field(f, a, layer)
        lower = max(lower, float(np.linalg.norm(moved - base)) / probe_step)
        max_abs = max(max_abs, float(np.abs(a).max()) + probe_step)
    upper = network.lipschitz_upper(f, layer, max_abs)
    if not lower <= upper + 1e-12:
        raise ArithmeticError(f"sampled Lipschitz quotient {lower} exceeded the analytic bound {upper}")
    return lower, upper


class TestMixedLipschitz:
    def test_zero_features_give_zero_bounds(self):
        layer = LayerParams(h=0.1, K=np.eye(2))
        lower, upper = estimate_mixed_lipschitz(np.zeros((4, 2)), layer, 5,
                                                np.random.default_rng(0))
        assert lower == 0.0
        assert upper == 0.0

    def test_zero_weights_give_zero_upper(self):
        rng = np.random.default_rng(1)
        layer = LayerParams(h=0.1, K=np.zeros((2, 2)))
        lower, upper = estimate_mixed_lipschitz(rng.standard_normal((4, 2)), layer, 5, rng)
        assert upper == 0.0
        assert lower <= 1e-12

    def test_lower_below_upper(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            n, c = int(rng.integers(2, 6)), int(rng.integers(1, 4))
            layer = LayerParams(h=0.1, K=rng.standard_normal((c, c)))
            lower, upper = estimate_mixed_lipschitz(rng.standard_normal((n, c)), layer, 8, rng)
            assert lower <= upper + 1e-12

    def test_upper_bounds_realized_differences(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            n, c = 4, 2
            layer = LayerParams(h=0.1, K=rng.standard_normal((c, c)))
            f = rng.standard_normal((n, c))
            a = rng.random((n, n))
            a = 0.5 * (a + a.T)
            d = rng.standard_normal((n, n))
            d = d + d.T
            diff = np.linalg.norm(feature_field(f, a + d, layer) - feature_field(f, a, layer))
            bound = lipschitz_upper(f, layer, max(np.abs(a).max(), np.abs(a + d).max()))
            assert diff <= bound * l1_vec_distance(a + d, a) + 1e-9


    def test_bound_violation_raises_a_real_error(self, monkeypatch):
        # an `assert` would vanish under `python -O`
        monkeypatch.setattr(network, "lipschitz_upper", lambda f, layer, max_abs_entry: 0.0)
        rng = np.random.default_rng(4)
        with pytest.raises(ArithmeticError, match="exceeded the analytic bound"):
            estimate_mixed_lipschitz(rng.standard_normal((4, 2)), LayerParams(h=0.1, K=np.eye(2)), 3, rng)


def _exact_max_sq_gap(g) -> Fraction:
    rows = [[Fraction(x) for x in row] for row in g.tolist()]
    return max(sum((x - y) ** 2 for x, y in zip(r, q)) for r in rows for q in rows)


class TestMaxRowGap:
    def test_shared_offset_does_not_cancel_the_gap(self):
        assert network._max_row_gap(np.array([[1e8, 0.0], [1e8, 0.1]])) >= 0.1

    def test_bounds_the_exact_pairwise_max_from_above(self):
        rng = np.random.default_rng(6)
        for _ in range(40):
            n, c = int(rng.integers(2, 12)), int(rng.integers(1, 6))
            spread = 10.0 ** rng.uniform(-3, 3)
            offset = 10.0 ** rng.uniform(0, 9) * rng.standard_normal(c)
            g = spread * rng.standard_normal((n, c)) + offset
            exact = _exact_max_sq_gap(g)
            gap = network._max_row_gap(g)
            assert Fraction(gap) ** 2 >= exact
            assert gap <= float(exact) ** 0.5 * (1 + 1e-12)

    def test_zero_and_single_rows(self):
        assert network._max_row_gap(np.zeros((3, 2))) == 0.0
        assert network._max_row_gap(np.array([[5.0, -1.0]])) == 0.0


class TestCertificate:
    def test_zero_budget_zero_bound(self):
        rng = np.random.default_rng(4)
        params = random_params(rng, 3, 4, 2)
        cert = certificate(rng.standard_normal((5, 4)), np.eye(5), params.layers,
                           PerturbationBudget(eps_feat=0.0, eps_adj=0.0))
        assert cert["bound"] == 0.0

    def test_zero_coefficient_network(self):
        params = NetworkParams(encoder=np.eye(2), layers=(zero_dynamics_layer(2),),
                               classifier_w=np.eye(2), classifier_b=np.zeros(2))
        cert = certificate(np.ones((3, 2)), np.eye(3), params.layers,
                           PerturbationBudget(eps_feat=0.25, eps_adj=0.5))
        assert cert["bound"] == pytest.approx(0.75)

    def test_matches_expansivity_bound(self):
        rng = np.random.default_rng(5)
        params = random_params(rng, 3, 4, 2, depth=3)
        budget = PerturbationBudget(eps_feat=0.3, eps_adj=0.7)
        f0 = rng.standard_normal((6, 4))
        a0 = np.abs(rng.standard_normal((6, 6)))
        cert = certificate(f0, a0 + a0.T, params.layers, budget)
        fs, as_ = evolve(f0, a0 + a0.T, params.layers)
        total = 0.0
        for l, (row, layer) in enumerate(zip(cert["layers"], params.layers)):
            lip = lipschitz_upper(fs[l], layer.feature, np.abs(as_[l]).max() + 0.7)
            assert row["lipschitz_upper"] == lip
            total += row["h_feature"] * lip
        assert cert["bound"] == pytest.approx(0.3 + 0.7 * (1.0 + total), rel=1e-12)

    def test_takes_only_the_adjacency_steps_its_layers_read(self, monkeypatch):
        rng = np.random.default_rng(6)
        params = random_params(rng, 3, 4, 2, depth=2)
        a0 = np.abs(rng.standard_normal((6, 6)))
        calls = _counted_adjacency_steps(monkeypatch)
        certificate(rng.standard_normal((6, 4)), a0 + a0.T, params.layers,
                    PerturbationBudget(eps_feat=0.3, eps_adj=0.7))
        assert len(calls) == 1


# the arrays of a depth-2 checkpoint's body, in body order
BODY_2 = ["encoder", "classifier_w", "classifier_b", "layer0.K", "layer0.k", "layer1.K", "layer1.k"]


def _arrays_refused(found):
    """The refusal of a depth-2 header whose arrays are `found`."""
    return re.escape(f"arrays must be {BODY_2}, in this order; got {found}")


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(6)
        params = random_params(rng, 3, 4, 2, depth=2, dropout_p=0.25)
        path = tmp_path / "model.ckpt"
        save_checkpoint(params, path)
        loaded = load_checkpoint(path)
        assert np.array_equal(loaded.encoder, params.encoder)
        assert np.array_equal(loaded.classifier_w, params.classifier_w)
        assert np.array_equal(loaded.classifier_b, params.classifier_b)
        assert loaded.dropout_p == params.dropout_p
        for a, b in zip(loaded.layers, params.layers):
            assert np.array_equal(a.feature.K, b.feature.K)
            assert np.array_equal(a.adjacency.coeffs.k, b.adjacency.coeffs.k)
            assert a.feature.h == b.feature.h
            assert a.adjacency.h == b.adjacency.h
        path2 = tmp_path / "again.ckpt"
        save_checkpoint(loaded, path2)
        assert path.read_bytes() == path2.read_bytes()

    @pytest.mark.parametrize("depth, share_weights", [(1, False), (3, False), (3, True)])
    def test_every_depth_round_trips_in_body_order(self, tmp_path, depth, share_weights):
        params = random_params(np.random.default_rng(depth), 3, 4, 2, depth=depth)
        if share_weights:
            params = dataclasses.replace(params, layers=(params.layers[0],) * depth,
                                         share_weights=True)
        path = tmp_path / "model.ckpt"
        save_checkpoint(params, path)
        header, _ = _checkpoint_parts(path)
        assert [spec["name"] for spec in header["arrays"]] == [
            "encoder", "classifier_w", "classifier_b",
            *(f"layer{l}.{key}" for l in range(depth) for key in ("K", "k"))]
        loaded = load_checkpoint(path)
        assert loaded.share_weights == share_weights
        for name in ("encoder", "classifier_w", "classifier_b"):
            assert np.array_equal(getattr(loaded, name), getattr(params, name))
        for a, b in zip(loaded.layers, params.layers, strict=True):
            assert np.array_equal(a.feature.K, b.feature.K)
            assert np.array_equal(a.adjacency.coeffs.k, b.adjacency.coeffs.k)
            assert (a.feature.h, a.feature.leaky_slope) == (b.feature.h, b.feature.leaky_slope)
            assert (a.adjacency.h, a.adjacency.leaky_slope, a.adjacency.coeffs.alpha) == (
                b.adjacency.h, b.adjacency.leaky_slope, b.adjacency.coeffs.alpha)

    def test_another_version_is_rejected(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(random_params(np.random.default_rng(8), 3, 4, 2), path)
        raw = path.read_bytes()
        start = len(network._MAGIC)
        path.write_bytes(raw[:start] + struct.pack("<I", 2) + raw[start + 4:])
        with pytest.raises(ValueError, match="^unsupported checkpoint version 2$"):
            load_checkpoint(path)

    def test_trailing_bytes_are_rejected(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(random_params(np.random.default_rng(8), 3, 4, 2), path)
        path.write_bytes(path.read_bytes() + struct.pack("<d", 0.0))
        with pytest.raises(ValueError, match="^trailing bytes in checkpoint$"):
            load_checkpoint(path)

    @pytest.mark.parametrize("mutate, match", [
        (lambda h, arrays: h.pop("dropout_p"), "header lacks key"),
        (lambda h, arrays: h["layers"][1].pop("has_K"), "layer 1 lacks key"),
        (lambda h, arrays: h["arrays"][0].pop("shape"), "array entry lacks key"),
        # these ids name the case (a missing, repeated, unknown or moved array);
        # the one comparison of the array list refuses all four
        pytest.param(lambda h, arrays: _drop_array(h, arrays, "layer0.K"),
                     _arrays_refused([name for name in BODY_2 if name != "layer0.K"]),
                     id=r"<lambda>-lacks array\(s\) layer0.K"),
        (lambda h, arrays: h["layers"][0].update(has_W=True), "learn_w parameterization was removed"),
        (lambda h, arrays: h["layers"][1].update(parameterization="learn_w"),
         "layer 1 must be learn_k"),
        (lambda h, arrays: h["layers"][0].update(has_W="no"), "layer 0 must be learn_k"),
        pytest.param(lambda h, arrays: _append_array(h, arrays, "encoder"),
                     _arrays_refused(BODY_2 + ["encoder"]), id="<lambda>-'encoder' appears twice"),
        pytest.param(lambda h, arrays: _append_array(h, arrays, "layer5.K"),
                     _arrays_refused(BODY_2 + ["layer5.K"]), id="<lambda>-layer5.K are not used"),
        pytest.param(lambda h, arrays: _swap_arrays(h, arrays, 1, 2),
                     _arrays_refused(["encoder", "classifier_b", "classifier_w", *BODY_2[3:]]),
                     id="arrays out of body order"),
        (lambda h, arrays: h["layers"][0].update(has_K=False), "identity K"),
        (lambda h, arrays: h["layers"][1].update(has_K=1), "layer 1 must be learn_k.*got has_K 1"),
        (lambda h, arrays: h["arrays"][2].update(shape=[-2]), "shape"),
        (lambda h, arrays: h["arrays"][2].update(shape=[2.0]), "shape"),
        (lambda h, arrays: h["arrays"][0].update(shape=[1, 3, 4]), "'encoder'.*expected 2 axes"),
        (lambda h, arrays: h["arrays"][-1].update(shape=[1, 8]), "'layer1.k'.*expected 1 axes"),
        (lambda h, arrays: h["layers"][0].update(h_feature=float("nan")), "h_feature"),
        (lambda h, arrays: h["layers"][1].update(h_adjacency=float("inf")), "h_adjacency"),
        (lambda h, arrays: h["layers"][0].update(feature_slope=float("nan")), "feature_slope"),
        (lambda h, arrays: h["layers"][0].update(adjacency_slope="0.1"), "adjacency_slope"),
        (lambda h, arrays: h["layers"][0].update(feature_slope=2.0), "slope must lie in"),
        (lambda h, arrays: h["layers"][1].update(adjacency_slope=0.0), "slope must lie in"),
        (lambda h, arrays: h["layers"][1].update(alpha=float("-inf")), "alpha"),
        (lambda h, arrays: h.update(dropout_p=float("nan")), "dropout_p"),
        (lambda h, arrays: arrays[1].__setitem__(0, np.nan), "'classifier_w' has non-finite"),
        (lambda h, arrays: arrays[-1].__setitem__(3, -np.inf), "'layer1.k' has non-finite"),
    ])
    def test_bad_header_or_body_rejected(self, tmp_path, mutate, match):
        path = tmp_path / "model.ckpt"
        save_checkpoint(random_params(np.random.default_rng(8), 3, 4, 2), path)
        header, arrays = _checkpoint_parts(path)
        mutate(header, arrays)
        _write_checkpoint_parts(path, header, arrays)
        with pytest.raises(ValueError, match=match):
            load_checkpoint(path)

    def test_a_K_of_another_width_is_rejected_naming_the_layer(self, tmp_path):
        # it used to load, and certify failed later inside numpy's matmul
        path = tmp_path / "model.ckpt"
        save_checkpoint(random_params(np.random.default_rng(8), 3, 4, 2, depth=3), path)
        header, arrays = _checkpoint_parts(path)
        i = [spec["name"] for spec in header["arrays"]].index("layer2.K")
        header["arrays"][i]["shape"], arrays[i] = [3, 3], np.eye(3).ravel()
        _write_checkpoint_parts(path, header, arrays)
        match = r"layer 2's K has shape \(3, 3\); the encoder width is 4"
        with pytest.raises(ValueError, match=match):
            load_checkpoint(path)

    def test_unmodified_parts_round_trip(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(random_params(np.random.default_rng(8), 3, 4, 2), path)
        header, arrays = _checkpoint_parts(path)
        _write_checkpoint_parts(tmp_path / "again.ckpt", header, arrays)
        load_checkpoint(tmp_path / "again.ckpt")

    def test_shape_larger_than_body_rejected(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(random_params(np.random.default_rng(8), 3, 4, 2), path)
        header, arrays = _checkpoint_parts(path)
        header["arrays"][0]["shape"] = [2**40, 2**40]
        _write_checkpoint_parts(path, header, arrays)
        with pytest.raises(ValueError, match="truncated"):
            load_checkpoint(path)

    @pytest.mark.parametrize("cut", [len(network._MAGIC) + 1, len(network._MAGIC) + 10, 40, -8])
    def test_truncated_checkpoint_rejected(self, tmp_path, cut):
        path = tmp_path / "model.ckpt"
        save_checkpoint(random_params(np.random.default_rng(8), 3, 4, 2), path)
        path.write_bytes(path.read_bytes()[:cut])
        with pytest.raises(ValueError, match="truncated"):
            load_checkpoint(path)

    def test_corrupt_checkpoint_rejected(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"not a checkpoint at all")
        with pytest.raises(ValueError):
            load_checkpoint(path)


def _checkpoint_parts(path):
    """(header dict, flat arrays in body order) of a checkpoint file."""
    raw = path.read_bytes()
    start = len(network._MAGIC) + 4
    (hlen,) = struct.unpack("<Q", raw[start:start + 8])
    header = json.loads(raw[start + 8:start + 8 + hlen])
    offset = start + 8 + hlen
    arrays = []
    for spec in header["arrays"]:
        count = int(np.prod(spec["shape"]))
        arrays.append(np.frombuffer(raw[offset:offset + 8 * count], dtype="<f8").copy())
        offset += 8 * count
    return header, arrays


def _write_checkpoint_parts(path, header, arrays):
    blob = json.dumps(header).encode()
    path.write_bytes(network._MAGIC + struct.pack("<I", network._VERSION)
                     + struct.pack("<Q", len(blob)) + blob
                     + b"".join(np.asarray(a, dtype="<f8").tobytes() for a in arrays))


def _drop_array(header, arrays, name):
    i = [spec["name"] for spec in header["arrays"]].index(name)
    del header["arrays"][i], arrays[i]


def _swap_arrays(header, arrays, i, j):
    specs = header["arrays"]
    specs[i], specs[j] = specs[j], specs[i]
    arrays[i], arrays[j] = arrays[j], arrays[i]


def _append_array(header, arrays, name):
    header["arrays"].append({"name": name, "shape": [2]})
    arrays.append(np.zeros(2))
