"""The experiment scripts run end to end on tiny arguments."""

import subprocess
import sys
from pathlib import Path

import pytest

from helpers import child_env

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize(
    "argv",
    [
        ["factor_recovery.py", "--groups", "2x4", "--loadings", "0.8", "--noises", "0.4",
         "--length", "80", "--seeds", "2"],
        ["rolling_survival.py", "--length", "240", "--width", "60", "--step", "30", "--seeds", "2"],
        pytest.param(
            ["rolling_survival.py", "--length", "241", "--width", "60", "--step", "30",
             "--seeds", "2"],
            id="rolling_survival.py-odd-length",
        ),
        ["rebase_frames.py", "--length", "80"],
    ],
    ids=lambda argv: argv[0],
)
def test_script_runs(argv, tmp_path):
    out = subprocess.run(
        [sys.executable, str(SCRIPTS / argv[0]), *argv[1:]],
        cwd=tmp_path,
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip()
    assert out.stderr == ""
