"""`train` and `certify` outputs pinned to the bit.

The n=300 digests and the certificate text below were produced by the code
that checked adjacency symmetry on every kernel call; deciding it once per
trajectory must not move a bit. The n=100 digests were produced by the code
that still carried the learn_w parameterization; removing it must not move a
bit of a learn_k run. The n=300 run takes the Lanczos step bound, the n=100
run trains with dropout. The README block's digests (its `train`, `certify`
and two `attack-sweep` commands on the README graph, as CI's "README CLI
block" step runs them) were produced by the code that scored each GCN fit
with a second normalisation and forward; handing back the selecting
forward's test accuracy must not move a bit of the `gcn` rows. The pins hold
for one BLAS thread and for the library's default thread count alike.
"""

import hashlib

import pytest

from csgnn.cli import main

N300_DIGESTS = {
    "metrics.csv": "412efc64013e6d95b366fa5e6bbb9241cf3d1e8681088f3443aa87ad34986e88",
    "model.ckpt": "940e4353fe1fdfe445fcc131942a9d881c8161e7cd025444cc193a9d15816dad",
    "summary.txt": "2168361e47b64864296c1a7a2f23717148562afdf66456edcb92cede22bc5485",
}
N100_DROPOUT_DIGESTS = {
    "metrics.csv": "38924c2344b8d488b62e6582fbfe7634f8d48c08946a86458c5ebd62a1747b65",
    "model.ckpt": "4cf9ad2a91aea7ad0365284891e56d25414d2c51c29105b1da48edabcafcdab4",
    "summary.txt": "3654c48c583ea925175e7e01af5d1a86b8bc54aeab999f39409dbaa8526a6436",
}
README_DIGESTS = {
    "clean/metrics.csv": "0e248f0eb04f9e9fc145ef2e732dd05d2f64c7e40bc3516e18ec20aea063dfa1",
    "clean/model.ckpt": "db96e07c03ad4237ff2d3d8d649bb0ed36b5ef97119a5e1a37f8462a20f4ab90",
    "clean/summary.txt": "e10a3c243a9c25a8ff55953d051071f37f15e26566f41ae1ae5d63bad4745ec5",
    "cert/certificate.txt": "f5173ae4d72a35baa6e065136625734a7151b9610ad9a758fc877390e0b0bc76",
    "sweep/results.csv": "42d92b822cd9f962496a5bebe9edf9bc0e72d71742e0826f07844303fbd53910",
    "noise/results.csv": "0fa7e3c2257354f836e8de6b327ea8344ab5438d6ef4b316a45d74bcf57899e9",
}
N300_CERTIFICATE = """\
expansivity certificate (embedded-state budgets)
eps_feat = 0.5
eps_adj  = 2
encoder spectral gain = 1.98732
layer  h_feat      h_feat_safe  h_adj       h_adj_max   slope_margin  lip_upper
1      0.004188    0.001541     0.5         1.834       0.05937       210.72
2      0.005185    0.001827     0.5         1.707       0.02262       202.34
warning: layers 1,2 have h_feat above h_feat_safe; their feature step bound does not hold \
over the eps_adj ball around the clean trajectory
certified output-distance bound = 6.363335265
"""


def _digests(run_dir, names=("metrics.csv", "model.ckpt", "summary.txt")) -> dict:
    return {name: hashlib.sha256((run_dir / name).read_bytes()).hexdigest() for name in names}


@pytest.fixture(scope="module")
def n300(tmp_path_factory):
    """An n=300 SBM (past the Lanczos crossover) and a 6-epoch learn_k fit on it."""
    root = tmp_path_factory.mktemp("n300")
    assert main(["gen-sbm", "--out", str(root / "graph"), "--seed", "1", "--set", "n=300",
                 "--set", "p_in=0.05", "--set", "p_out=0.005", "--set", "signal=1.3"]) == 0
    assert main(["train", "--out", str(root / "run"), "--seed", "0",
                 "--set", f"graph={root / 'graph'}", "--set", "epochs=6"]) == 0
    return root


def test_learn_k_train_outputs_at_n300(n300):
    assert _digests(n300 / "run") == N300_DIGESTS


def test_certify_text_at_n300(n300, tmp_path, capsys):
    capsys.readouterr()
    assert main(["certify", "--out", str(tmp_path), "--set", f"checkpoint={n300 / 'run' / 'model.ckpt'}",
                 "--set", f"graph={n300 / 'graph'}", "--set", "eps_feat=0.5",
                 "--set", "eps_adj=2.0"]) == 0
    assert capsys.readouterr().out == N300_CERTIFICATE
    assert (tmp_path / "certificate.txt").read_text() == N300_CERTIFICATE


def test_learn_k_train_outputs_with_dropout_at_n100(tmp_path):
    assert main(["gen-sbm", "--out", str(tmp_path / "graph"), "--seed", "0", "--set", "n=100",
                 "--set", "p_in=0.1", "--set", "signal=1.3"]) == 0
    assert main(["train", "--out", str(tmp_path / "run"), "--seed", "0",
                 "--set", f"graph={tmp_path / 'graph'}", "--set", "epochs=10",
                 "--set", "dropout_p=0.3"]) == 0
    assert _digests(tmp_path / "run") == N100_DROPOUT_DIGESTS


def test_readme_cli_block_outputs(tmp_path):
    graph = f"graph={tmp_path / 'sbm'}"
    sweep = ["--seed", "0", "--set", graph, "--set", "epochs=20", "--set", "n_seeds=2"]
    assert main(["gen-sbm", "--out", str(tmp_path / "sbm"), "--seed", "0", "--set", "n=100",
                 "--set", "p_in=0.1", "--set", "signal=1.3"]) == 0
    assert main(["train", "--out", str(tmp_path / "clean"), "--seed", "0", "--set", graph]) == 0
    assert main(["certify", "--out", str(tmp_path / "cert"),
                 "--set", f"checkpoint={tmp_path / 'clean' / 'model.ckpt'}", "--set", graph,
                 "--set", "eps_feat=0.5", "--set", "eps_adj=2.0"]) == 0
    assert main(["attack-sweep", "--out", str(tmp_path / "sweep"), *sweep,
                 "--set", "edge_ratios=0,0.5,1.0"]) == 0
    assert main(["attack-sweep", "--out", str(tmp_path / "noise"), *sweep,
                 "--set", "edge_ratios=", "--set", "feat_eps_list=0.5"]) == 0
    assert _digests(tmp_path, README_DIGESTS) == README_DIGESTS
