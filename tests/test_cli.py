import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import csgnn
from csgnn import config as cfgmod
from csgnn.cli import main
from csgnn.graph import load_graph
from csgnn.network import certificate, load_checkpoint
from csgnn.graph import PerturbationBudget


def run(argv):
    return main(argv)


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
        values = {"epochs": 12, "h": 0.25, "share_weights": True, "graph": "data/sbm"}
        assert cfgmod.loads(cfgmod.dumps(values)) == values

    def test_comments_and_blank_lines(self):
        text = "# a comment\n\nepochs = 3  # trailing\n"
        assert cfgmod.loads(text) == {"epochs": 3}

    def test_malformed_line_rejected(self):
        with pytest.raises(ValueError, match="key = value"):
            cfgmod.loads("epochs: 3\n")

    def test_overrides(self):
        out = cfgmod.apply_overrides({"a": 1}, ["a=2", "b=x"])
        assert out == {"a": 2, "b": "x"}


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

    def test_negative_edge_index_is_runtime_error(self, sbm_dir, tmp_path):
        graph = tmp_path / "graph"
        graph.mkdir()
        for name in ("edges.txt", "features.csv", "labels.csv", "masks.csv"):
            (graph / name).write_bytes((sbm_dir / name).read_bytes())
        with open(graph / "edges.txt", "a") as fh:
            fh.write("-1 5\n")
        assert run(["train", "--out", str(tmp_path / "run"), "--set", f"graph={graph}",
                    "--set", "epochs=1"]) == 3

    @pytest.mark.parametrize("override", ["hidden_dim=0", "h=nan", "epochs=-3", "lr_node=nan",
                                          "dropout_p=1"])
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

    @pytest.mark.parametrize("override", ["lr_node=1e30", "lr_adj=1e30"])
    def test_non_finite_adam_step_stops_training(self, readme_graph, tmp_path, capsys, override):
        # at such a rate an Adam step overflows a tensor after a few epochs
        # (it used to exit 3 from the step-bound code that read it); training
        # stops there and keeps the best checkpoint before it
        code = run(["train", "--out", str(tmp_path), "--seed", "0", "--set", f"graph={readme_graph}",
                    "--set", override])
        assert code == 0, capsys.readouterr().err
        summary = cfgmod.loads((tmp_path / "summary.txt").read_text())
        rows = (tmp_path / "metrics.csv").read_text().splitlines()[1:]
        assert summary["epochs_run"] == len(rows) < 200
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

    def test_no_seeds_is_runtime_error(self, sbm_dir, tmp_path, capsys):
        code = run(["attack-sweep", "--out", str(tmp_path), "--set", f"graph={sbm_dir}",
                    "--set", "n_seeds=0", "--set", "epochs=2"])
        assert code == 3
        assert "seed" in capsys.readouterr().err
        assert not (tmp_path / "results.csv").exists()


class TestVerifyCommand:
    def test_quick_suite_passes(self, tmp_path, capsys):
        code = run(["verify", "--seed", "0", "--out", str(tmp_path),
                    "--set", "trials_scale=0.02"])
        out = capsys.readouterr().out
        assert code == 0
        assert (tmp_path / "verify_report.txt").exists()
        assert "adjacency_l1_contraction" in out
        assert "tmatrix_vectorization_consistency" in out

    def test_fault_injection_flips_exit_code(self, capsys):
        code = run(["verify", "--seed", "0", "--set", "trials_scale=0.02",
                    "--set", "fault_adjacency_step_scale=25.0"])
        out = capsys.readouterr().out
        assert code == 1
        assert "adjacency_l1_contraction                     FAIL" in out

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
        cert = certificate(g.features @ params.encoder, g.adjacency, params,
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

    def test_bound_matches_in_process_recomputation(self, sbm_dir, trained_dir, capsys):
        code = run(["certify",
                    "--set", f"checkpoint={trained_dir}/model.ckpt",
                    "--set", f"graph={sbm_dir}",
                    "--set", "eps_feat=0.25", "--set", "eps_adj=1.5"])
        out = capsys.readouterr().out
        assert code == 0
        params = load_checkpoint(trained_dir / "model.ckpt")
        g = load_graph(sbm_dir)
        cert = certificate(g.features @ params.encoder, g.adjacency, params,
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

    @pytest.mark.parametrize("override", ["eps_feat=nan", "eps_adj=nan", "eps_feat=inf"])
    def test_non_finite_budget_is_runtime_error(self, sbm_dir, trained_dir, capsys, override):
        code = run(["certify", "--set", f"checkpoint={trained_dir}/model.ckpt",
                    "--set", f"graph={sbm_dir}", "--set", override])
        captured = capsys.readouterr()
        assert code == 3
        assert "finite" in captured.err
        assert "certified" not in captured.out

    def test_missing_checkpoint_key_is_usage_error(self):
        assert run(["certify", "--set", "graph=x"]) == 2


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
