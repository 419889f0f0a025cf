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
    "mfa_sweep/sweep.csv": "5310f00034edb4da5014c6d6c45017fce1fba7763fb2de706e1bb21db60bca62",
    "mfa_sweep/summary.txt": "26b47d1d55e980acb99cd4408f90a7aca47df5782bcff5062260e14fc2cf4f62",
    "fig_trajectories/mean_trajectories.csv":
        "06b1ed9575c7edcf9ef38d4d07a39a4a5bff8c5eff94996117f22b2b7fde5e5c",
    "fig_trajectories/summary.txt":
        "4cc56ac654f915f0b45294d8d7b5d5d48f54825b4aedf1371e0c34a1e4e16d32",
    "fig_trajectories/trajectories.csv":
        "10f4af81313eac9ed89ccc45ddc6842e2cddbcf51594de63262615420329df7f",
}


def _config_into(tmp_path, name):
    cfg = json.loads((CONFIGS / f"{name}.json").read_text())
    cfg["outputs"] = str(tmp_path / name)
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def test_fixed_seed_outputs_byte_identical(tmp_path):
    assert cli.main(["run", _config_into(tmp_path, "run_rastrigin")]) == 0
    assert cli.main(["preset", "mfa-sweep", _config_into(tmp_path, "mfa_sweep")]) == 0
    assert cli.main(["preset", "fig-trajectories", "--runs", "2", "--n", "60",
                     "--out", str(tmp_path / "fig_trajectories")]) == 0
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in GOLDEN}
    changed = sorted(name for name in GOLDEN if got[name] != GOLDEN[name])
    if changed:
        pytest.fail(
            f"outputs differ from the recorded bytes: {changed}; the hashes were "
            f"recorded with {RECORDED_WITH}, this run used numpy {np.__version__}"
        )
