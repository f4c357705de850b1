"""Every demo script runs to completion from a temporary working directory and
prints, bit for bit, the output pinned in fingerprints.json."""

import pytest

from make_fingerprints import DEMOS, check_pin, run_demo, sha256


def test_demos_present():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(demo, tmp_path):
    proc = run_demo(demo, tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
    check_pin("demos", demo.stem, sha256(proc.stdout))
