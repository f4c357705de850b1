"""Write tests/fingerprints.json: the SHA-256 of every driver's saved record.

Each pin is the hash of `record.json` or `metrics.csv` as `htx <command>`
writes them, for the five run commands on the default config and on the
16-cell blurred field. Every command runs in process through `cli.main`,
from a fresh working directory and with the relative `--out runs`: the
record holds its output path, so an absolute one would change its bytes.
The file also records the Python, numpy and scipy versions it was made with;
the bitwise promise holds for one such stack.

Run it from the repository root after a change that moves bits on purpose,
and list each moved pin:

    PYTHONPATH=src python tests/make_fingerprints.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np
import scipy

from htx import cli

PATH = Path(__file__).with_name("fingerprints.json")
# None runs with no --config, i.e. on the defaults (the two-component 2-d mixture)
CONFIGS = {
    "default": None,
    "field": {"density": {"kind": "gaussian_field", "cells": 16, "length_scale": 3.0},
              "operator": {"kind": "blur", "kernel_std": 2.0, "noise_std": 0.25}},
}
COMMANDS = ("restore", "ablate-exponent", "ablate-weightfn", "baseline-sdedit", "sample")
FILES = ("record.json", "metrics.csv")


def stack() -> dict[str, str]:
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__}


def fingerprint(config: str, command: str) -> dict[str, str]:
    """{file: SHA-256} of what `htx <command>` saves on CONFIGS[config], run in the cwd."""
    argv = [command, "--out", "runs"]
    if CONFIGS[config] is not None:
        Path("config.json").write_text(json.dumps(CONFIGS[config]))
        argv += ["--config", "config.json"]
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"htx {' '.join(argv)} exited {code}")
    record = next(line[len("wrote "):] for line in printed.getvalue().splitlines()
                  if line.startswith("wrote ") and line.endswith("record.json"))
    out = Path(record).parent
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in FILES}


def main() -> int:
    pins = {}
    home = os.getcwd()
    for config in CONFIGS:
        for command in COMMANDS:
            with tempfile.TemporaryDirectory() as work:
                os.chdir(work)
                try:
                    pins[f"{config}/{command}"] = fingerprint(config, command)
                finally:
                    os.chdir(home)
    PATH.write_text(json.dumps({"stack": stack(), "pins": pins}, indent=2) + "\n")
    print(f"wrote {PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
