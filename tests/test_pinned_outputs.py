"""`train` and `certify` outputs pinned to the bit.

The digests and the certificate text below were produced by the code that
checked adjacency symmetry on every kernel call; deciding it once per
trajectory must not move a bit. The n=300 run takes the Lanczos step bound,
the n=100 run learns W with dropout. The pins hold for one BLAS thread and
for the library's default thread count alike.
"""

import hashlib

import pytest

from csgnn.cli import main

N300_DIGESTS = {
    "metrics.csv": "412efc64013e6d95b366fa5e6bbb9241cf3d1e8681088f3443aa87ad34986e88",
    "model.ckpt": "940e4353fe1fdfe445fcc131942a9d881c8161e7cd025444cc193a9d15816dad",
    "summary.txt": "2168361e47b64864296c1a7a2f23717148562afdf66456edcb92cede22bc5485",
}
N100_LEARN_W_DIGESTS = {
    "metrics.csv": "75a4200898d62964c94c8e9e1a79b1dc3ec5843a8e2828516194338aa83e05ff",
    "model.ckpt": "8b8667b6de97e7b62fefe9117ceac08ffa51c1b35c05c7476908bdc39236e50e",
    "summary.txt": "47db326b1afeace731c8f805a2c11614c18846df92e0cd2109b565a2392dbd09",
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


def _digests(run_dir) -> dict:
    return {name: hashlib.sha256((run_dir / name).read_bytes()).hexdigest()
            for name in ("metrics.csv", "model.ckpt", "summary.txt")}


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


def test_learn_w_train_outputs_with_dropout_at_n100(tmp_path):
    assert main(["gen-sbm", "--out", str(tmp_path / "graph"), "--seed", "0", "--set", "n=100",
                 "--set", "p_in=0.1", "--set", "signal=1.3"]) == 0
    assert main(["train", "--out", str(tmp_path / "run"), "--seed", "0",
                 "--set", f"graph={tmp_path / 'graph'}", "--set", "epochs=10",
                 "--set", "parameterization=learn_w", "--set", "dropout_p=0.3"]) == 0
    assert _digests(tmp_path / "run") == N100_LEARN_W_DIGESTS
