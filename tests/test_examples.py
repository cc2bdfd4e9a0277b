"""The cheap examples run clean as scripts.

``quickstart`` drives ``SpotTuneOrchestrator`` and ``run_single_spot``
through the public ``repro`` names, ``spot_market_explorer`` the
simulated cloud and its billing, and ``early_shutdown_tuning``
EarlyCurve over live numpy trainers.  The two examples that train
predictor banks take minutes and are not run here.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "example, headline",
    [
        ("quickstart", "Selected top-3 configurations (by EarlyCurve prediction):"),
        ("spot_market_explorer", "Markets about to revoke have zero expected cost"),
        ("early_shutdown_tuning", "Early shutdown used"),
    ],
    ids=["quickstart", "spot_market_explorer", "early_shutdown_tuning"],
)
def test_example_runs_clean(tmp_path, example, headline):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    completed = subprocess.run(
        [sys.executable, str(ROOT / "examples" / f"{example}.py")],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert completed.returncode == 0, completed.stderr
    assert headline in completed.stdout
    assert "Traceback" not in completed.stderr
