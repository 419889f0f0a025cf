"""Golden outputs: fixed-seed runs must write the same bytes as when their
sha256 values were recorded in CHANGES.md.  A change that alters rounding
on purpose updates these values and says so there."""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from cbo import cli

CONFIGS = Path(__file__).resolve().parent.parent / "docs" / "configs"
RECORDED_WITH = "numpy 2.4.6"

GOLDEN = {
    "run_rastrigin/metrics.csv": "cd84b22d75cf52c5ac99a39d24ff1d86c754b2b95c133e79653f19cb4b4daae2",
    "run_rastrigin/summary.txt": "4697189efea7d7462c6290faa6fdf1ad177c0dcd853dbb7e14e595634ad0d780",
    "run_rastrigin/theory.txt": "61ebfd07ee3ea1c30c195a57d846c933540b893c5762814ed40a5195f996f359",
    "mfa_sweep/sweep.csv": "5310f00034edb4da5014c6d6c45017fce1fba7763fb2de706e1bb21db60bca62",
    "mfa_sweep/summary.txt": "26b47d1d55e980acb99cd4408f90a7aca47df5782bcff5062260e14fc2cf4f62",
    "fig_trajectories/mean_trajectories.csv":
        "06b1ed9575c7edcf9ef38d4d07a39a4a5bff8c5eff94996117f22b2b7fde5e5c",
    "fig_trajectories/summary.txt":
        "4cc56ac654f915f0b45294d8d7b5d5d48f54825b4aedf1371e0c34a1e4e16d32",
    "fig_trajectories/trajectories.csv":
        "10f4af81313eac9ed89ccc45ddc6842e2cddbcf51594de63262615420329df7f",
    "fig_variance/mu1/metrics.csv": "ed069fdd9f825943240071b6b07ee43706583fa9928edc37b9f5da5e5850de2a",
    "fig_variance/mu1/summary.txt": "1efe76222e1b96fd416f61a2b7b764f751f0b960eef7943e4971f7d6b99abea9",
    "fig_variance/mu2/metrics.csv": "7652de5398017a741a353618d0e1ef35d20388f46ac93038d34c3456400155af",
    "fig_variance/mu2/summary.txt": "8d5d229d37fe43ca3cc97fd42ca6328a1dc850f311e537eaa2dc58c5e0b029d9",
    "fig_variance/mu3/metrics.csv": "82de78232902fe11aff03eca17d14e3276d2b648df907b616417fbc2559ed437",
    "fig_variance/mu3/summary.txt": "9768e62a62264c3561dac729a80c410d4c2c2b94a8c2e0d64f2a222589b7f9f0",
    "fig_variance/mu4/metrics.csv": "f5b20fc5119977306aee030168085fabe873e5fd992b6992e0f1a4dba5c7bc70",
    "fig_variance/mu4/summary.txt": "dd31a09154c86ad4ed1a78209c76e6071574437d35ee579159dd8e78c6287ef3",
    "fig_variance/summary.txt": "b4aa9ead0d50742b029fe6bedb67b61c38295df35c2e902af16d2836c4a26f6a",
    "laplace_audit/report.txt": "b9792d37e92cd4a727d440730581dbf3bf815e8064fca70a28f18a66c27076b2",
}


def _config_into(tmp_path, name):
    cfg = json.loads((CONFIGS / f"{name}.json").read_text())
    cfg["outputs"] = str(tmp_path / name)
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def test_fixed_seed_outputs_byte_identical(tmp_path):
    assert cli.main(["run", _config_into(tmp_path, "run_rastrigin")]) == 0
    assert cli.main(["theory", _config_into(tmp_path, "run_rastrigin")]) == 0
    assert cli.main(["preset", "mfa-sweep", _config_into(tmp_path, "mfa_sweep")]) == 0
    assert cli.main(["preset", "fig-trajectories", "--runs", "2", "--n", "60",
                     "--out", str(tmp_path / "fig_trajectories")]) == 0
    assert cli.main(["preset", "fig-variance", "--scale", "0.001",
                     "--out", str(tmp_path / "fig_variance")]) == 0
    assert cli.main(["preset", "laplace-audit", _config_into(tmp_path, "laplace_audit")]) == 0
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in GOLDEN}
    changed = sorted(name for name in GOLDEN if got[name] != GOLDEN[name])
    if changed:
        pytest.fail(
            f"outputs differ from the recorded bytes: {changed}; the hashes were "
            f"recorded with {RECORDED_WITH}, this run used numpy {np.__version__}"
        )
