import dataclasses
import os
import struct
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import csgnn
from csgnn import config as cfgmod
from csgnn.cli import main
from csgnn.equivariant import AdjacencyStepConfig, EquivariantCoeffs, max_step_adjacency
from csgnn.graph import load_graph
from csgnn.network import NetworkParams, certificate, load_checkpoint, save_checkpoint
from csgnn.graph import PerturbationBudget


def run(argv):
    return main(argv)


def _copy_graph(src, dst):
    dst.mkdir()
    for name in ("edges.txt", "features.csv", "labels.csv", "masks.csv"):
        (dst / name).write_bytes((src / name).read_bytes())
    return dst


@pytest.fixture(scope="module")
def sbm_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("sbm")
    code = run(["gen-sbm", "--out", str(out), "--seed", "0",
                "--set", "n=30", "--set", "classes=2", "--set", "p_in=0.4",
                "--set", "p_out=0.05", "--set", "feat_dim=4", "--set", "signal=1.5"])
    assert code == 0
    return out


@pytest.fixture(scope="module")
def readme_graph(tmp_path_factory):
    """The README's n=100 SBM."""
    out = tmp_path_factory.mktemp("readme_sbm")
    assert run(["gen-sbm", "--out", str(out), "--seed", "0", "--set", "n=100",
                "--set", "p_in=0.1", "--set", "signal=1.3"]) == 0
    return out


@pytest.fixture(scope="module")
def trained_dir(tmp_path_factory, sbm_dir):
    out = tmp_path_factory.mktemp("run")
    code = run(["train", "--out", str(out), "--seed", "0",
                "--set", f"graph={sbm_dir}", "--set", "epochs=8",
                "--set", "hidden_dim=4", "--set", "num_layers=2"])
    assert code == 0
    return out


class TestConfigFormat:
    def test_round_trip(self):
        # the values as a config file writes them, read back as their keys' kinds
        text = "epochs = 12\nh = 0.25\nshare_weights = true\ngraph = data/sbm\n"
        raw = cfgmod.loads(text)
        assert raw == {"epochs": "12", "h": "0.25", "share_weights": "true", "graph": "data/sbm"}
        kinds = {"epochs": int, "h": float, "share_weights": bool, "graph": str}
        values = {key: cfgmod.read(key, raw[key], kind) for key, kind in kinds.items()}
        assert values == {"epochs": 12, "h": 0.25, "share_weights": True, "graph": "data/sbm"}
        assert [type(v) for v in values.values()] == [int, float, bool, str]

    def test_comments_and_blank_lines(self):
        text = "# a comment\n\nepochs = 3  # trailing\n"
        assert cfgmod.loads(text) == {"epochs": "3"}

    def test_malformed_line_rejected(self):
        with pytest.raises(ValueError, match="key = value"):
            cfgmod.loads("epochs: 3\n")

    def test_overrides(self):
        out = cfgmod.overrides(["a=2", "b=x", "a= 3 "])
        assert out == {"a": "3", "b": "x"}

    def test_read_keeps_exact_values(self):
        assert type(cfgmod.read("epochs", "1e2", int)) is int
        assert cfgmod.read("epochs", "1e2", int) == 100
        assert cfgmod.read("h", "1", float) == 1.0
        assert cfgmod.read("share_weights", "False", bool) is False
        assert cfgmod.read("graph", "123", str) == "123"


# each of these used to be cast silently: epochs=2.7 trained 2 epochs, h=yes
# trained with h = 1.0, n=100.7 wrote 100 nodes
@pytest.mark.parametrize("command, override", [
    ("train", "epochs=2.7"), ("train", "h=yes"), ("train", "share_weights=1"),
    ("train", "seed=0.5"), ("gen-sbm", "n=100.7"), ("gen-sbm", "classes=2.9"),
    ("gen-sbm", "signal=true"), ("attack-sweep", "n_seeds=1.5"), ("certify", "eps_adj=no"),
    ("verify", "trials_scale=true"),
])
def test_a_value_that_would_be_cast_inexactly_is_runtime_error(sbm_dir, trained_dir, tmp_path,
                                                                capsys, command, override):
    needs = {"train": [f"graph={sbm_dir}", "epochs=1"],
             "attack-sweep": [f"graph={sbm_dir}", "epochs=1", "edge_ratios=0"],
             "certify": [f"graph={sbm_dir}", f"checkpoint={trained_dir}/model.ckpt"],
             "verify": ["trials_scale=0.02"]}.get(command, [])
    argv = [command, "--out", str(tmp_path / "out")]
    for item in needs + [override]:
        argv += ["--set", item]
    assert run(argv) == 3
    key = override.split("=")[0]
    assert capsys.readouterr().err.startswith(f"error: config key '{key}' must")
    assert not (tmp_path / "out").exists()


def test_an_integral_float_reads_as_an_integer(tmp_path):
    args = ["gen-sbm", "--seed", "2", "--set", "feat_dim=3"]
    assert run(args + ["--out", str(tmp_path / "a"), "--set", "n=24"]) == 0
    assert run(args + ["--out", str(tmp_path / "b"), "--set", "n=2.4e1"]) == 0
    for name in ("edges.txt", "features.csv", "labels.csv", "masks.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


@pytest.mark.parametrize("command, override, message", [
    ("gen-sbm", "p_in=" + "1" * 400, "error: config key 'p_in' is too large"),
    ("attack-sweep", "n_seeds=" + "9" * 30, "error: config key 'n_seeds' must"),
], ids=["int-too-large-for-float", "too-many-seeds"])
def test_an_oversized_value_is_runtime_error(sbm_dir, tmp_path, capsys, command, override,
                                              message):
    argv = [command, "--out", str(tmp_path / "out"), "--set", override]
    if command == "attack-sweep":
        argv += ["--set", f"graph={sbm_dir}", "--set", "epochs=1", "--set", "edge_ratios=0"]
    assert run(argv) == 3
    assert capsys.readouterr().err.startswith(message)
    assert not (tmp_path / "out").exists()


# each of these used to run (a 10-trial verify for a non-positive
# trials_scale) or fail with a message that did not name the key
@pytest.mark.parametrize("command, args, key", [
    ("verify", ["--set", "trials_scale=-5"], "trials_scale"),
    ("verify", ["--set", "trials_scale=0"], "trials_scale"),
    ("verify", ["--set", "trials_scale=nan"], "trials_scale"),
    ("verify", ["--seed", "-1"], "seed"),
    ("train", ["--seed", "-1"], "seed"),
    ("attack-sweep", ["--set", "edge_ratios=0,abc"], "edge_ratios"),
    ("attack-sweep", ["--set", "edge_ratios=0,-1"], "edge_ratios"),
    ("attack-sweep", ["--set", "feat_eps_list=0.5,inf"], "feat_eps_list"),
    ("attack-sweep", ["--set", "edge_ratios=0,,1,"], "edge_ratios"),
    ("attack-sweep", ["--set", "feat_eps_list=0.5,"], "feat_eps_list"),
    ("certify", ["--set", "eps_feat=-1"], "eps_feat"),
    ("certify", ["--set", "eps_adj=-0.5"], "eps_adj"),
], ids=["negative-trials-scale", "zero-trials-scale", "nan-trials-scale",
        "verify-negative-seed",
        "train-negative-seed", "non-numeric-edge-ratio", "negative-edge-ratio",
        "infinite-feature-budget", "empty-edge-ratio-entry", "empty-feature-budget-entry",
        "negative-eps-feat", "negative-eps-adj"])
def test_a_bad_run_option_is_runtime_error_naming_its_key(sbm_dir, trained_dir, tmp_path, capsys,
                                                           command, args, key):
    argv = [command, "--out", str(tmp_path / "out"), *args]
    if command == "certify":
        argv += ["--set", f"graph={sbm_dir}", "--set", f"checkpoint={trained_dir}/model.ckpt"]
    elif command != "verify":
        argv += ["--set", f"graph={sbm_dir}", "--set", "epochs=1"]
    assert run(argv) == 3
    assert capsys.readouterr().err.startswith(f"error: config key '{key}' must")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["train", "attack-sweep"])
def test_learn_w_is_runtime_error(sbm_dir, tmp_path, capsys, command):
    assert run([command, "--out", str(tmp_path / "out"), "--set", f"graph={sbm_dir}",
                "--set", "epochs=1", "--set", "parameterization=learn_w"]) == 3
    assert "learn_w parameterization was removed" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_out_of_memory_is_runtime_error(tmp_path, capsys, monkeypatch):
    def oversized(**kwargs):
        raise MemoryError("Unable to allocate 8.88 PiB")

    monkeypatch.setattr("csgnn.cli.gen_sbm", oversized)
    assert run(["gen-sbm", "--out", str(tmp_path / "out"), "--set", "n=100000000"]) == 3
    assert capsys.readouterr().err == "error: Unable to allocate 8.88 PiB\n"
    assert not (tmp_path / "out").exists()


class TestGenSbm:
    def test_outputs_are_byte_deterministic(self, tmp_path):
        args = ["gen-sbm", "--seed", "3", "--set", "n=24", "--set", "feat_dim=3"]
        run(args + ["--out", str(tmp_path / "a")])
        run(args + ["--out", str(tmp_path / "b")])
        for name in ("edges.txt", "features.csv", "labels.csv", "masks.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_two_cliques_when_p_in_is_one(self, tmp_path):
        code = run(["gen-sbm", "--out", str(tmp_path), "--seed", "0",
                    "--set", "n=10", "--set", "p_in=1.0", "--set", "p_out=0.0"])
        assert code == 0
        g = load_graph(tmp_path)
        same = g.labels[:, None] == g.labels[None, :]
        off_diag = ~np.eye(10, dtype=bool)
        assert np.all(g.adjacency[same & off_diag] == 1.0)
        assert np.all(g.adjacency[~same] == 0.0)

    def test_zero_signal_means_equal_class_means(self, tmp_path):
        code = run(["gen-sbm", "--out", str(tmp_path), "--seed", "1",
                    "--set", "n=400", "--set", "signal=0.0", "--set", "feat_dim=3"])
        assert code == 0
        g = load_graph(tmp_path)
        m0 = g.features[g.labels == 0].mean(axis=0)
        m1 = g.features[g.labels == 1].mean(axis=0)
        assert np.abs(m0 - m1).max() < 0.3

    def test_bad_probabilities_exit_3(self, tmp_path):
        assert run(["gen-sbm", "--out", str(tmp_path), "--set", "p_in=0.1",
                    "--set", "p_out=0.5"]) == 3

    @pytest.mark.parametrize("signal", ["nan", "inf", "-inf"])
    def test_a_non_finite_signal_is_named(self, tmp_path, capsys, signal):
        # it used to reach Graph, whose error blamed the generated entries
        assert run(["gen-sbm", "--out", str(tmp_path / "out"), "--set", f"signal={signal}"]) == 3
        assert capsys.readouterr().err == f"error: signal must be finite, got {float(signal)}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("n, classes", [(3, 3), (4, 2), (5, 2), (8, 3), (1, 2)])
    def test_a_class_without_a_train_a_validation_and_a_test_node_is_refused(
            self, tmp_path, capsys, n, classes):
        # n=3, classes=3 wrote an empty validation split, which train refused;
        # n=4, classes=2 wrote no test node, and train printed test_acc = nan
        assert run(["gen-sbm", "--out", str(tmp_path / "out"), "--set", f"n={n}",
                    "--set", f"classes={classes}"]) == 3
        assert capsys.readouterr().err == (
            f"error: n={n} and classes={classes} leave a class without a train, a validation"
            " and a test node: n // classes must be at least 3\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("n, classes", [(9, 3), (7, 2)])
    def test_the_smallest_sizes_allowed_train_with_every_split_filled(self, tmp_path, capsys,
                                                                        n, classes):
        assert run(["gen-sbm", "--out", str(tmp_path / "graph"), "--set", f"n={n}",
                    "--set", f"classes={classes}", "--set", "p_in=0.5"]) == 0
        g = load_graph(tmp_path / "graph")
        for mask in (g.train_mask, g.val_mask, g.test_mask):
            assert set(g.labels[mask]) == set(range(classes))
        assert run(["train", "--out", str(tmp_path / "run"), "--set", f"graph={tmp_path}/graph",
                    "--set", "epochs=2"]) == 0
        assert "test_acc = nan" not in capsys.readouterr().out


class TestTrainCommand:
    def test_writes_expected_artifacts(self, trained_dir):
        assert (trained_dir / "metrics.csv").exists()
        assert (trained_dir / "model.ckpt").exists()
        text = (trained_dir / "metrics.csv").read_text()
        assert text.startswith("epoch,train_loss,val_acc,test_acc")
        assert len(text.strip().split("\n")) == 9

    def test_missing_graph_key_is_usage_error(self, tmp_path):
        assert run(["train", "--out", str(tmp_path)]) == 2

    def test_missing_graph_dir_is_runtime_error(self, tmp_path):
        assert run(["train", "--out", str(tmp_path),
                    "--set", f"graph={tmp_path}/nope"]) == 3

    def test_a_numeric_graph_path_is_read_as_a_path(self, tmp_path, monkeypatch, capsys):
        # it used to be read as the int 123 and exit 1 with a TypeError traceback
        monkeypatch.chdir(tmp_path)
        assert run(["train", "--set", "graph=123"]) == 3
        assert capsys.readouterr().err == "error: 123/features.csv not found.\n"

    def test_negative_edge_index_is_runtime_error(self, sbm_dir, tmp_path):
        graph = _copy_graph(sbm_dir, tmp_path / "graph")
        with open(graph / "edges.txt", "a") as fh:
            fh.write("-1 5\n")
        assert run(["train", "--out", str(tmp_path / "run"), "--set", f"graph={graph}",
                    "--set", "epochs=1"]) == 3

    @pytest.mark.parametrize("fault", ["two_columns", "value_2"])
    def test_bad_masks_file_is_runtime_error(self, sbm_dir, tmp_path, capsys, fault):
        graph = _copy_graph(sbm_dir, tmp_path / "graph")
        lines = (graph / "masks.csv").read_text().splitlines()
        if fault == "two_columns":
            lines = [line.rsplit(",", 1)[0] for line in lines]
        else:
            lines[1] = "2" + lines[1][1:]
        (graph / "masks.csv").write_text("\n".join(lines) + "\n")
        code = run(["train", "--out", str(tmp_path / "run"), "--set", f"graph={graph}",
                    "--set", "epochs=1"])
        assert code == 3
        assert "masks.csv" in capsys.readouterr().err

    @pytest.mark.parametrize("fault", ["one_column", "three_columns"])
    def test_bad_edges_file_is_runtime_error(self, sbm_dir, tmp_path, capsys, fault):
        # one column used to raise IndexError out of `main`; three trained
        # silently on the first two
        graph = _copy_graph(sbm_dir, tmp_path / "graph")
        rows = [line.split() for line in (graph / "edges.txt").read_text().splitlines()]
        rows = [row[:1] if fault == "one_column" else row + ["0"] for row in rows]
        (graph / "edges.txt").write_text("".join(" ".join(row) + "\n" for row in rows))
        code = run(["train", "--out", str(tmp_path / "run"), "--set", f"graph={graph}",
                    "--set", "epochs=1"])
        assert code == 3
        assert "edges.txt" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_non_finite_feature_is_rejected_before_any_output(self, sbm_dir, trained_dir,
                                                              tmp_path, capsys):
        # train used to write a header-only metrics.csv and an untrained
        # model.ckpt, and certify to certify a bound of nan
        graph = _copy_graph(sbm_dir, tmp_path / "graph")
        lines = (graph / "features.csv").read_text().splitlines()
        lines[3] = "nan" + lines[3][lines[3].index(","):]
        (graph / "features.csv").write_text("\n".join(lines) + "\n")
        code = run(["train", "--out", str(tmp_path / "run"), "--set", f"graph={graph}",
                    "--set", "epochs=1"])
        assert code == 3
        assert "finite" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()
        code = run(["certify", "--set", f"checkpoint={trained_dir}/model.ckpt",
                    "--set", f"graph={graph}"])
        captured = capsys.readouterr()
        assert code == 3
        assert "finite" in captured.err and "certified" not in captured.out

    def test_misspelled_key_is_usage_error(self, sbm_dir, tmp_path, capsys):
        # it used to train with the default patience of 50
        code = run(["train", "--out", str(tmp_path), "--set", f"graph={sbm_dir}",
                    "--set", "pateince=1"])
        assert code == 2
        assert "pateince" in capsys.readouterr().err
        assert not (tmp_path / "metrics.csv").exists()

    @pytest.mark.parametrize("override", ["hidden_dim=0", "h=nan", "epochs=-3", "lr=nan",
                                          "weight_decay=-1", "dropout_p=1"])
    def test_bad_hyperparameter_is_runtime_error(self, sbm_dir, tmp_path, capsys, override):
        code = run(["train", "--out", str(tmp_path), "--set", f"graph={sbm_dir}",
                    "--set", override])
        assert code == 3
        assert override.split("=")[0] in capsys.readouterr().err
        assert not (tmp_path / "metrics.csv").exists()

    @pytest.mark.parametrize("override", ["alpha=nan", "alpha=-inf", "alpha=0.5",
                                          "leaky_slope=0", "leaky_slope=1.5", "leaky_slope=nan"])
    def test_bad_alpha_or_slope_is_rejected_before_training(self, sbm_dir, tmp_path, capsys,
                                                            override):
        code = run(["train", "--out", str(tmp_path), "--set", f"graph={sbm_dir}",
                    "--set", override])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: {override.split('=')[0]} must")
        assert not (tmp_path / "metrics.csv").exists()

    @pytest.mark.parametrize("override", ["lr=1e30", "weight_decay=1e30"])
    def test_non_finite_adam_step_stops_training(self, readme_graph, tmp_path, capsys, override):
        # at such a rate or decay an Adam step overflows a tensor after a few epochs
        # (it used to exit 3 from the step-bound code that read it, and the
        # forward pass after the step warned of the overflow); training stops
        # there and keeps the best checkpoint before it
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run(["train", "--out", str(tmp_path), "--seed", "0",
                        "--set", f"graph={readme_graph}", "--set", override])
        assert code == 0, capsys.readouterr().err
        # the overflows are the handled outcome, not a numpy warning
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        summary = cfgmod.loads((tmp_path / "summary.txt").read_text())
        rows = (tmp_path / "metrics.csv").read_text().splitlines()[1:]
        assert int(summary["epochs_run"]) == len(rows) < 200
        params = load_checkpoint(tmp_path / "model.ckpt")
        tensors = [params.encoder, params.classifier_w, params.classifier_b]
        for layer in params.layers:
            tensors += [layer.feature.K, layer.adjacency.coeffs.k]
        assert all(np.isfinite(t).all() for t in tensors)

    def test_deterministic_outputs(self, sbm_dir, tmp_path):
        args = ["train", "--seed", "1", "--set", f"graph={sbm_dir}",
                "--set", "epochs=6", "--set", "hidden_dim=4",
                "--set", "num_layers=2", "--set", "dropout_p=0.3"]
        run(args + ["--out", str(tmp_path / "a")])
        run(args + ["--out", str(tmp_path / "b")])
        for name in ("metrics.csv", "model.ckpt", "summary.txt"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


class TestAttackSweep:
    def test_table_and_determinism(self, sbm_dir, tmp_path):
        args = ["attack-sweep", "--seed", "0", "--set", f"graph={sbm_dir}",
                "--set", "edge_ratios=0,0.5", "--set", "n_seeds=2",
                "--set", "epochs=4", "--set", "hidden_dim=4", "--set", "num_layers=2"]
        assert run(args + ["--out", str(tmp_path / "a")]) == 0
        assert run(args + ["--out", str(tmp_path / "b")]) == 0
        csv_a = (tmp_path / "a" / "results.csv").read_bytes()
        assert csv_a == (tmp_path / "b" / "results.csv").read_bytes()
        lines = csv_a.decode().strip().split("\n")
        assert lines[0] == "model,attack_kind,budget,seed_count,mean_acc,std_acc"
        assert len(lines) == 5  # 2 budgets x 2 models
        models = {line.split(",")[0] for line in lines[1:]}
        assert models == {"csgnn", "gcn"}

    def test_gcn_trains_with_the_run_config(self, sbm_dir, tmp_path):
        # both models take the run's TrainConfig: an override must move the gcn row too
        args = ["attack-sweep", "--seed", "0", "--set", f"graph={sbm_dir}",
                "--set", "edge_ratios=0", "--set", "n_seeds=3", "--set", "epochs=40"]
        rows = {}
        for patience in (1, 40):
            out = tmp_path / f"p{patience}"
            assert run(args + ["--set", f"patience={patience}", "--out", str(out)]) == 0
            lines = (out / "results.csv").read_text().splitlines()[1:]
            rows[patience] = {line.split(",")[0]: line for line in lines}
        assert rows[1]["gcn"] != rows[40]["gcn"]

    @pytest.mark.parametrize("model", ["csgnn", "gcn"])
    def test_an_empty_validation_split_is_runtime_error(self, tmp_path, capsys, model):
        # the gcn-only sweep used to exit 0, scoring the untrained initial weights
        graph = tmp_path / "graph"
        assert run(["gen-sbm", "--out", str(graph), "--set", "n=60"]) == 0
        lines = (graph / "masks.csv").read_text().splitlines()
        folded = [f"{t},0,{int(v == '1' or s == '1')}"
                  for t, v, s in (line.split(",") for line in lines[1:])]
        (graph / "masks.csv").write_text("\n".join(lines[:1] + folded) + "\n")
        code = run(["attack-sweep", "--out", str(tmp_path / "out"), "--set", f"graph={graph}",
                    "--set", f"models={model}", "--set", "edge_ratios=0", "--set", "n_seeds=2",
                    "--set", "epochs=20"])
        assert code == 3
        assert "training requires nonempty train and validation masks" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_a_model_named_twice_is_usage_error(self, tmp_path, capsys):
        # it used to train gcn twice per (budget, seed) and write two identical gcn rows;
        # the graph does not exist, so the refusal comes before anything is loaded
        code = run(["attack-sweep", "--out", str(tmp_path / "out"),
                    "--set", f"graph={tmp_path}/nope", "--set", "models=gcn,csgnn, gcn"])
        assert code == 2
        assert capsys.readouterr().err == "usage error: model 'gcn' is named twice\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key, value, budget", [
        ("edge_ratios", "0,0.0", "0"), ("feat_eps_list", "0.5,1,0.50", "0.5"),
        ("edge_ratios", "0.1234567,1,0.12345670", "0.1234567"),
        # a negative zero is the budget 0, and is named so
        ("edge_ratios", "0,-0", "0"), ("feat_eps_list", "-0.0,1,0", "0"),
    ])
    def test_a_repeated_budget_is_usage_error(self, tmp_path, capsys, key, value, budget):
        # a repeated edge ratio used to be trained twice and written as two identical rows;
        # the graph does not exist, so the refusal comes before anything is loaded
        code = run(["attack-sweep", "--out", str(tmp_path / "out"),
                    "--set", f"graph={tmp_path}/nope", "--set", f"{key}={value}"])
        assert code == 2
        assert capsys.readouterr().err == (f"usage error: config key {key!r} lists the budget "
                                           f"{budget} twice\n")
        assert not (tmp_path / "out").exists()

    def test_no_budget_is_usage_error(self, tmp_path, capsys):
        # it used to write a header-only results.csv and exit 0
        code = run(["attack-sweep", "--out", str(tmp_path / "out"),
                    "--set", f"graph={tmp_path}/nope", "--set", "edge_ratios="])
        assert code == 2
        assert capsys.readouterr().err == ("usage error: attack-sweep needs a budget: edge_ratios"
                                           " and feat_eps_list are both empty\n")
        assert not (tmp_path / "out").exists()

    def test_an_unknown_model_is_usage_error(self, tmp_path, capsys):
        code = run(["attack-sweep", "--out", str(tmp_path / "out"),
                    "--set", f"graph={tmp_path}/nope", "--set", "models=csgnn,mlp"])
        assert code == 2
        assert capsys.readouterr().err == "usage error: unknown model 'mlp'\n"
        assert not (tmp_path / "out").exists()

    def test_non_finite_adam_step_stops_training(self, readme_graph, tmp_path, capsys):
        # every fit stops where a step overflows, without a numpy warning
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run(["attack-sweep", "--out", str(tmp_path), "--seed", "0",
                        "--set", f"graph={readme_graph}", "--set", "models=csgnn",
                        "--set", "lr=1e30", "--set", "edge_ratios=0,0.5", "--set", "n_seeds=2"])
        assert code == 0, capsys.readouterr().err
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        rows = [line.split(",") for line in (tmp_path / "results.csv").read_text().splitlines()[1:]]
        assert [row[:3] for row in rows] == [["csgnn", "random_edges", "0"],
                                             ["csgnn", "random_edges", "0.5"]]
        assert all(0.0 <= float(row[4]) <= 1.0 for row in rows)

    def test_close_budgets_get_distinct_cells(self, sbm_dir, tmp_path):
        # both used to be written as 0.123457; an empty feat_eps_list still means no
        # feature budgets
        code = run(["attack-sweep", "--out", str(tmp_path), "--set", f"graph={sbm_dir}",
                    "--set", "models=gcn", "--set", "edge_ratios=0.1234567,0.1234568",
                    "--set", "feat_eps_list=", "--set", "n_seeds=1", "--set", "epochs=1"])
        assert code == 0
        rows = (tmp_path / "results.csv").read_text().splitlines()[1:]
        assert [row.split(",")[2] for row in rows] == ["0.1234567", "0.1234568"]

    def test_negative_zero_budget_reads_as_zero(self, sbm_dir, tmp_path):
        # `-0` used to pass the nonnegative check and be written as the budget cell -0
        code = run(["attack-sweep", "--out", str(tmp_path), "--set", f"graph={sbm_dir}",
                    "--set", "models=gcn", "--set", "edge_ratios=-0", "--set", "feat_eps_list=-0.0",
                    "--set", "n_seeds=1", "--set", "epochs=1"])
        assert code == 0
        rows = (tmp_path / "results.csv").read_text().splitlines()[1:]
        assert [row.split(",")[1:3] for row in rows] == [["random_edges", "0"],
                                                         ["feature_noise", "0"]]

    def test_no_seeds_is_runtime_error(self, sbm_dir, tmp_path, capsys):
        code = run(["attack-sweep", "--out", str(tmp_path), "--set", f"graph={sbm_dir}",
                    "--set", "n_seeds=0", "--set", "epochs=2"])
        assert code == 3
        assert "config key 'n_seeds' must" in capsys.readouterr().err
        assert not (tmp_path / "results.csv").exists()

    def test_an_edge_ratio_past_the_float_range_is_too_many_edges(self, readme_graph, tmp_path,
                                                                   capsys):
        # edge_ratio * m overflowed to inf, and int() of it exited with "cannot
        # convert float infinity to integer"
        code = run(["attack-sweep", "--out", str(tmp_path / "out"), "--seed", "0",
                    "--set", f"graph={readme_graph}", "--set", "edge_ratios=1e308",
                    "--set", "epochs=1", "--set", "n_seeds=1"])
        assert code == 3
        assert capsys.readouterr().err == "error: not enough non-edges: need inf, have 4664\n"
        assert not (tmp_path / "out" / "results.csv").exists()


class TestVerifyCommand:
    def test_quick_suite_passes(self, tmp_path, capsys):
        code = run(["verify", "--seed", "0", "--out", str(tmp_path),
                    "--set", "trials_scale=0.02"])
        out = capsys.readouterr().out
        assert code == 0
        assert [p.name for p in tmp_path.iterdir()] == ["verify_report.txt"]
        assert "adjacency_l1_contraction" in out
        assert "tmatrix_vectorization_consistency" in out

    def test_fault_injection_flips_exit_code(self, capsys, contraction_step_scale):
        contraction_step_scale(25.0)
        code = run(["verify", "--seed", "0", "--set", "trials_scale=0.02"])
        out = capsys.readouterr().out
        assert code == 1
        assert "adjacency_l1_contraction                     FAIL" in out

    def test_the_removed_fault_scale_is_a_usage_error(self, tmp_path, capsys):
        code = run(["verify", "--out", str(tmp_path / "out"),
                    "--set", "fault_adjacency_step_scale=25"])
        assert code == 2
        assert "fault_adjacency_step_scale" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_report_lists_every_suite(self, capsys):
        run(["verify", "--seed", "1", "--set", "trials_scale=0.02"])
        out = capsys.readouterr().out
        for check_id in (
            "metric_l0_l1_binary_agreement", "metric_l1_lower_bound",
            "graph_permutation_composition", "adjacency_l1_contraction",
            "adjacency_equivariance", "adjacency_symmetry_preservation",
            "equivariant_map_linearity", "tmatrix_vectorization_consistency",
            "tmatrix_l1_norm_bound", "adjacency_jacobian_probe_margin_regime",
            "adjacency_jacobian_probe_unconstrained", "feature_gradient_adjointness",
            "feature_frobenius_contraction", "feature_energy_monotonicity",
            "feature_constant_row_fixed_point", "feature_step_equivariance",
            "coupled_expansivity_bound", "coupled_weighted_contraction",
            "gradient_finite_difference",
        ):
            assert check_id in out

    def test_deterministic_report(self, tmp_path):
        args = ["verify", "--seed", "2", "--set", "trials_scale=0.02"]
        run(args + ["--out", str(tmp_path / "a")])
        run(args + ["--out", str(tmp_path / "b")])
        assert ((tmp_path / "a" / "verify_report.txt").read_bytes()
                == (tmp_path / "b" / "verify_report.txt").read_bytes())


class TestCertifyCommand:
    def test_zero_budget_gives_zero_bound(self, sbm_dir, trained_dir, tmp_path, capsys):
        code = run(["certify", "--out", str(tmp_path),
                    "--set", f"checkpoint={trained_dir}/model.ckpt",
                    "--set", f"graph={sbm_dir}",
                    "--set", "eps_feat=0", "--set", "eps_adj=0"])
        out = capsys.readouterr().out
        assert code == 0
        assert "certified output-distance bound = 0" in out
        assert "warning" not in out

    def test_warns_when_feature_step_exceeds_ball_bound(self, sbm_dir, trained_dir, capsys):
        params = load_checkpoint(trained_dir / "model.ckpt")
        g = load_graph(sbm_dir)
        cert = certificate(g.features @ params.encoder, g.adjacency, params.layers,
                           PerturbationBudget(eps_feat=0.0, eps_adj=5.0))
        over = [row["layer"] for row in cert["layers"] if row["h_feature"] > row["h_feature_safe"]]
        assert over
        code = run(["certify", "--set", f"checkpoint={trained_dir}/model.ckpt",
                    "--set", f"graph={sbm_dir}", "--set", "eps_feat=0", "--set", "eps_adj=5"])
        lines = capsys.readouterr().out.strip().split("\n")
        assert code == 0
        assert lines[-1].startswith("certified output-distance bound = ")
        warning = [line for line in lines if "h_feat above h_feat_safe" in line]
        assert warning == [lines[-2]]
        assert warning[0].startswith("warning: layers " + ",".join(map(str, over)) + " ")

    def test_warns_when_a_layer_leaves_the_slope_uniform_regime(self, sbm_dir, trained_dir,
                                                                 tmp_path, capsys):
        # the last layer's adjacency step feeds nothing, so only its margin changes
        params = load_checkpoint(trained_dir / "model.ckpt")
        last = params.layers[-1].adjacency
        coeffs = EquivariantCoeffs(k=np.ones(8), alpha=last.coeffs.alpha)
        assert last.leaky_slope * -coeffs.alpha < (1 - last.leaky_slope) * np.abs(coeffs.k).sum()
        adjacency = AdjacencyStepConfig(coeffs=coeffs, h=max_step_adjacency(coeffs),
                                        leaky_slope=last.leaky_slope)
        layers = (*params.layers[:-1], dataclasses.replace(params.layers[-1], adjacency=adjacency))
        bad = tmp_path / "bad.ckpt"
        save_checkpoint(dataclasses.replace(params, layers=layers), bad)
        code = run(["certify", "--set", f"checkpoint={bad}", "--set", f"graph={sbm_dir}"])
        lines = capsys.readouterr().out.strip().split("\n")
        assert code == 0
        assert lines[-2] == (f"warning: layers {len(layers)} have negative slope-uniform margin;"
                             " the l1 nonexpansiveness of their adjacency step is not certified"
                             " for all activation patterns")
        assert lines[-1] == "certified output-distance bound = 0"
        assert sum(line.startswith("warning") for line in lines) == 1

    def test_an_array_list_out_of_body_order_names_the_expected_list(self, sbm_dir, trained_dir,
                                                                       tmp_path, capsys):
        raw = (trained_dir / "model.ckpt").read_bytes()
        old, new = b'"name":"layer1.K"', b'"name":"layer9.K"'
        assert old in raw
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(raw.replace(old, new))  # same length: the header length still holds
        code = run(["certify", "--set", f"checkpoint={bad}", "--set", f"graph={sbm_dir}"])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.err == (
            "error: checkpoint arrays must be ['encoder', 'classifier_w', 'classifier_b',"
            " 'layer0.K', 'layer0.k', 'layer1.K', 'layer1.k'], in this order; got ['encoder',"
            " 'classifier_w', 'classifier_b', 'layer0.K', 'layer0.k', 'layer9.K', 'layer1.k']\n")
        assert captured.out == ""

    def test_bound_matches_in_process_recomputation(self, sbm_dir, trained_dir, capsys):
        code = run(["certify",
                    "--set", f"checkpoint={trained_dir}/model.ckpt",
                    "--set", f"graph={sbm_dir}",
                    "--set", "eps_feat=0.25", "--set", "eps_adj=1.5"])
        out = capsys.readouterr().out
        assert code == 0
        params = load_checkpoint(trained_dir / "model.ckpt")
        g = load_graph(sbm_dir)
        cert = certificate(g.features @ params.encoder, g.adjacency, params.layers,
                           PerturbationBudget(eps_feat=0.25, eps_adj=1.5))
        printed = float(out.strip().split("=")[-1])
        assert printed == pytest.approx(cert["bound"], rel=1e-9)

    def test_non_finite_checkpoint_entry_is_runtime_error(self, sbm_dir, trained_dir, tmp_path,
                                                          capsys):
        raw = (trained_dir / "model.ckpt").read_bytes()
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(raw[:-8] + struct.pack("<d", float("nan")))  # last entry of the last k
        code = run(["certify", "--set", f"checkpoint={bad}", "--set", f"graph={sbm_dir}"])
        assert code == 3
        assert "non-finite" in capsys.readouterr().err

    @pytest.mark.parametrize("old, new", [
        (b'"parameterization":"learn_k"', b'"parameterization":"learn_w"'),
        (b'"has_W":false', b'"has_W":true '),
    ], ids=["learn_w", "has_W"])
    def test_learn_w_checkpoint_is_runtime_error(self, sbm_dir, trained_dir, tmp_path, capsys,
                                                 old, new):
        raw = (trained_dir / "model.ckpt").read_bytes()
        assert old in raw
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(raw.replace(old, new))  # same length: the header length still holds
        code = run(["certify", "--set", f"checkpoint={bad}", "--set", f"graph={sbm_dir}"])
        assert code == 3
        assert "learn_w parameterization was removed" in capsys.readouterr().err

    @pytest.mark.parametrize("override", ["eps_feat=nan", "eps_adj=nan", "eps_feat=inf"])
    def test_non_finite_budget_is_runtime_error(self, sbm_dir, trained_dir, capsys, override):
        code = run(["certify", "--set", f"checkpoint={trained_dir}/model.ckpt",
                    "--set", f"graph={sbm_dir}", "--set", override])
        captured = capsys.readouterr()
        assert code == 3
        assert "finite" in captured.err
        assert "certified" not in captured.out

    def test_overflowing_bound_is_runtime_error(self, sbm_dir, trained_dir, tmp_path, capsys):
        # it printed numpy's overflow warning, then a bound of inf, and exited 0
        code = run(["certify", "--out", str(tmp_path / "out"),
                    "--set", f"checkpoint={trained_dir}/model.ckpt",
                    "--set", f"graph={sbm_dir}", "--set", "eps_adj=1e308"])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.err == ("error: the certified bound for eps_feat=0.0 and eps_adj=1e+308"
                                " is not finite\n")
        assert captured.out == ""
        assert not (tmp_path / "out").exists()

    def test_mismatched_shared_weights_are_runtime_error(self, sbm_dir, trained_dir, tmp_path,
                                                         capsys):
        # its two layers hold different K and k; it used to certify as if that were shared
        raw = (trained_dir / "model.ckpt").read_bytes()
        bad = tmp_path / "bad.ckpt"
        old, new = b'"share_weights":false', b'"share_weights":true '
        assert old in raw
        bad.write_bytes(raw.replace(old, new))  # same length: the header length still holds
        code = run(["certify", "--set", f"checkpoint={bad}", "--set", f"graph={sbm_dir}"])
        captured = capsys.readouterr()
        assert code == 3
        assert "layer 1's K or k differs from layer 0's" in captured.err
        assert captured.out == ""

    def test_a_K_of_another_width_is_runtime_error(self, sbm_dir, trained_dir, tmp_path, capsys):
        # numpy's matmul message used to name neither the layer nor the widths
        params = load_checkpoint(trained_dir / "model.ckpt")
        layers = list(params.layers)
        layers[1] = dataclasses.replace(
            layers[1], feature=dataclasses.replace(layers[1].feature, K=np.eye(3)))
        corrupt = object.__new__(NetworkParams)  # skips the check under test
        corrupt.__dict__.update(vars(params), layers=tuple(layers))
        bad = tmp_path / "bad.ckpt"
        save_checkpoint(corrupt, bad)
        code = run(["certify", "--set", f"checkpoint={bad}", "--set", f"graph={sbm_dir}"])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.err == "error: layer 1's K has shape (3, 3); the encoder width is 4\n"
        assert captured.out == ""

    def test_feature_width_mismatch_is_runtime_error(self, trained_dir, tmp_path, capsys):
        # numpy's matmul message used to name neither width
        graph = tmp_path / "sbm3"
        assert run(["gen-sbm", "--out", str(graph), "--set", "n=30", "--set", "feat_dim=3"]) == 0
        capsys.readouterr()
        code = run(["certify", "--set", f"checkpoint={trained_dir}/model.ckpt",
                    "--set", f"graph={graph}"])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.err == ("error: the graph's feature width 3 does not match the checkpoint's"
                                " encoder input 4\n")

    def test_a_numeric_checkpoint_path_leaves_stdin_unread(self, tmp_path):
        # `checkpoint=0` used to open file descriptor 0 (stdin) as the checkpoint and close it
        src = str(Path(csgnn.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        probe = ("import sys; from csgnn.cli import main; "
                 "code = main(['certify', '--set', 'checkpoint=0', '--set', 'graph=x']); "
                 "sys.stdout.write(sys.stdin.read()); sys.exit(code)")
        proc = subprocess.run([sys.executable, "-c", probe], env=env, cwd=tmp_path,
                              input="left for the caller", capture_output=True, text=True)
        assert proc.returncode == 3
        assert proc.stderr == "error: [Errno 2] No such file or directory: '0'\n"
        assert proc.stdout == "left for the caller"

    @pytest.mark.parametrize("seed", [["--seed", "1"], ["--set", "seed=1"]], ids=["flag", "set"])
    def test_a_seed_is_usage_error(self, sbm_dir, trained_dir, tmp_path, capsys, seed):
        # certify draws nothing at random; it used to accept a seed and ignore it
        code = run(["certify", "--out", str(tmp_path / "out"), *seed,
                    "--set", f"checkpoint={trained_dir}/model.ckpt", "--set", f"graph={sbm_dir}"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == "usage error: certify does not read the config key(s) seed\n"
        assert captured.out == ""
        assert not (tmp_path / "out").exists()

    def test_missing_checkpoint_key_is_usage_error(self):
        assert run(["certify", "--set", "graph=x"]) == 2

    def test_misspelled_budget_key_is_usage_error(self, sbm_dir, trained_dir, capsys):
        # it used to certify a bound of 0 for the unread eps_fet
        code = run(["certify", "--set", f"checkpoint={trained_dir}/model.ckpt",
                    "--set", f"graph={sbm_dir}", "--set", "eps_fet=0.5"])
        captured = capsys.readouterr()
        assert code == 2
        assert "eps_fet" in captured.err
        assert "certified" not in captured.out


@pytest.mark.parametrize("command, key", [
    ("gen-sbm", "epochs"), ("train", "eps_feat"), ("attack-sweep", "trials_scale"),
    ("verify", "graph"), ("certify", "n_seeds"),
])
def test_each_command_rejects_a_key_it_does_not_read(tmp_path, capsys, command, key):
    config = tmp_path / "run.cfg"
    config.write_text(f"seed = 3\n{key} = 1\n")
    assert run([command, "--config", str(config), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and key in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, source", [("train", "override"),
                                             ("attack-sweep", "config-line")])
@pytest.mark.parametrize("key", ["lr_embed", "lr_node", "lr_adj", "wd_embed", "wd_node", "wd_adj"])
def test_a_removed_per_group_key_is_usage_error(tmp_path, capsys, command, source, key):
    # the three Adam groups merged into one lr and one weight_decay; the graph
    # does not exist, so the refusal comes before anything is loaded
    if source == "override":
        argv = ["--set", f"{key}=0.01"]
    else:
        config = tmp_path / "run.cfg"
        config.write_text(f"seed = 3\n{key} = 0.01\n")
        argv = ["--config", str(config)]
    assert run([command, "--out", str(tmp_path / "out"), "--set", f"graph={tmp_path}/nope",
                *argv]) == 2
    assert capsys.readouterr().err == (f"usage error: {command} does not read the config "
                                       f"key(s) {key}\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("source", ["override", "config-line"])
def test_a_malformed_setting_is_usage_error(tmp_path, capsys, source):
    # both used to exit 3, as runtime errors
    if source == "override":
        argv, message = ["--set", "trials_scale"], "override must look like key=value"
    else:
        config = tmp_path / "run.cfg"
        config.write_text("seed = 3\ntrials_scale 0.5\n")
        argv, message = ["--config", str(config)], "line 2: expected 'key = value'"
    assert run(["verify", "--out", str(tmp_path / "out"), *argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and message in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("source", ["override", "config-line"])
def test_an_empty_key_is_usage_error(tmp_path, capsys, source):
    # both used to exit 2 with "does not read the config key(s) " naming no key
    if source == "override":
        argv, message = ["--set", "=5"], "override must look like key=value, got '=5'"
    else:
        config = tmp_path / "run.cfg"
        config.write_text("seed = 3\n= 5\n")
        argv, message = ["--config", str(config)], "line 2: expected 'key = value'"
    assert run(["verify", "--out", str(tmp_path / "out"), *argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and message in err
    assert not (tmp_path / "out").exists()


def test_a_config_file_that_is_not_utf8_is_usage_error(tmp_path, capsys):
    # it used to exit 3 with the codec's message, which named neither file nor line
    config = tmp_path / "run.cfg"
    config.write_bytes(b"seed = 3\n\xff = 1\n")
    assert run(["verify", "--config", str(config), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == (f"usage error: config file {config} is not UTF-8 text:"
                                       " byte 0xff at position 9\n")
    assert not (tmp_path / "out").exists()


def test_cli_import_does_not_load_scipy():
    # importing scipy.sparse.linalg costs 0.3-0.5 s of start-up on every command
    src = str(Path(csgnn.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    probe = ("import sys, csgnn.cli; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


@pytest.mark.parametrize("command", ["train", "certify"])
@pytest.mark.parametrize("where", ["file", "below-a-file"])
def test_an_out_path_through_a_file_is_refused_before_any_work(sbm_dir, trained_dir, tmp_path,
                                                                capsys, monkeypatch, command,
                                                                where):
    # train used to run every epoch and certify to print its certificate, then
    # both exited 3 with "[Errno 17] File exists"
    monkeypatch.setattr("csgnn.cli.train", None)
    monkeypatch.setattr("csgnn.cli.certificate", None)
    blocker = tmp_path / "taken"
    blocker.write_text("keep me\n")
    out = blocker if where == "file" else blocker / "out"
    needs = {"train": [f"graph={sbm_dir}"],
             "certify": [f"graph={sbm_dir}", f"checkpoint={trained_dir}/model.ckpt"]}[command]
    argv = [command, "--out", str(out)]
    for item in needs:
        argv += ["--set", item]
    assert run(argv) == 3
    captured = capsys.readouterr()
    assert captured.err == f"error: --out {out}: {blocker} exists and is not a directory\n"
    assert captured.out == ""
    assert blocker.read_text() == "keep me\n"


def test_an_edgeless_graph_runs_without_a_warning(tmp_path, capsys):
    # its empty edges.txt used to print numpy's loadtxt warning on every load,
    # which pytest's filterwarnings turns into an error
    graph, run_dir = tmp_path / "graph", tmp_path / "run"
    assert run(["gen-sbm", "--out", str(graph), "--set", "n=20", "--set", "p_in=0.001",
                "--set", "p_out=0"]) == 0
    assert (graph / "edges.txt").read_bytes() == b""
    assert run(["train", "--out", str(run_dir), "--set", f"graph={graph}",
                "--set", "epochs=2"]) == 0
    assert run(["certify", "--set", f"graph={graph}",
                "--set", f"checkpoint={run_dir}/model.ckpt", "--set", "eps_feat=0.5"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert "certified output-distance bound = 0.5\n" in captured.out
