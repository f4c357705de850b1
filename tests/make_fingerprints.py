"""Write tests/fingerprints.json: the bitwise pins of what htx prints and saves.

The file holds three sections of pins:

- `pins`: the SHA-256 of `record.json` and `metrics.csv` as `htx <command>`
  writes them, for the five run commands on the default config and on the
  16-cell blurred field, and under `values` the SHA-256 of the record's
  values in a form that does not depend on its layout (`value_hash`). Every
  command runs in process through `cli.main`, from a fresh working directory
  and with the relative `--out runs`: the record holds its output path, so an
  absolute one would change its bytes.
- `verify`: the `repr` of the value of each of the ten `htx verify` checks.
- `demos`: the SHA-256 of the standard output of each demo script.

The file also records the Python, numpy and scipy versions it was made with;
the bitwise promise holds for one such stack. `check_pin` is the one rule the
tests apply: a moved pin fails and names itself, except on another stack,
where it is skipped with the versions that differ.

Run it from the repository root after a change that moves bits on purpose,
and list each moved pin:

    PYTHONPATH=src python tests/make_fingerprints.py

It prints one line per pin that moved, `section/key: old → new` (`moved_pins`),
with the relative change of a verify value, ready to paste into the change log.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
import scipy

from htx import cli, verify

PATH = Path(__file__).with_name("fingerprints.json")
ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
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


def sha256(data: str | bytes) -> str:
    return hashlib.sha256(data.encode() if isinstance(data, str) else data).hexdigest()


def columns(trials) -> dict[str, list]:
    """An arm's per-trial table as {metric: [trial 0, trial 1, ...]}, from that
    form or from one row per trial, [{metric: value}, ...]."""
    if isinstance(trials, dict):
        return trials
    return {key: [row[key] for row in trials] for key in (trials[0] if trials else ())}


def value_hash(doc: dict) -> str:
    """SHA-256 of a record's `aggregates`, `extras` and per-trial table, with
    the table in column form and every key sorted, so that a change of layout
    alone does not move it while any changed value does."""
    values = {"aggregates": doc["aggregates"], "extras": doc["extras"],
              "per_trial": {arm: columns(trials) for arm, trials in doc["per_trial"].items()}}
    return sha256(json.dumps(values, sort_keys=True))


def fingerprint(config: str, command: str) -> dict[str, str]:
    """{file: SHA-256} of what `htx <command>` saves on CONFIGS[config], run in the
    cwd, and under "values" the `value_hash` of its record."""
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
    pins = {name: sha256((out / name).read_bytes()) for name in FILES}
    pins["values"] = value_hash(json.loads((out / "record.json").read_text()))
    return pins


def run_demo(demo: Path, cwd) -> subprocess.CompletedProcess:
    """Run one demo script in cwd, importing htx from this checkout's src/."""
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    return subprocess.run([sys.executable, str(demo)], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=600)


def check_pin(section: str, key: str, got) -> None:
    """Return if `got` equals the pin fingerprints.json[section][key].

    Otherwise fail, naming the pin; on another stack than the pins were made
    on, skip instead, naming the versions that differ.
    """
    pinned = json.loads(PATH.read_text())
    want = pinned[section][key]
    if got == want:
        return
    if isinstance(want, dict):
        detail = f"{key}: {', '.join(n for n in want if got[n] != want[n])} moved from its pin"
    else:
        detail = f"{section}/{key} moved from its pin {want} (now {got})"
    differs = {name: (pinned["stack"][name], version) for name, version in stack().items()
               if pinned["stack"][name] != version}
    if differs:
        pytest.skip(f"{detail}; pins were made on another stack: "
                    + ", ".join(f"{name} {was} (here {now})"
                                for name, (was, now) in differs.items()))
    pytest.fail(detail)


def _flat(doc: dict) -> dict[str, str]:
    """Every pin of a fingerprints document as {"section/key": value}; a run
    command's pins are keyed by file, as "pins/<config>/<command>/<file>"."""
    flat = {}
    for section in ("pins", "verify", "demos"):
        for key, value in doc.get(section, {}).items():
            if isinstance(value, dict):
                flat.update({f"{section}/{key}/{name}": pin for name, pin in value.items()})
            else:
                flat[f"{section}/{key}"] = value
    return flat


def moved_pins(old: dict, new: dict) -> list[str]:
    """One line per pin that differs between two fingerprints documents:
    `section/key: old → new`, a hash shown by its first 8 digits and a verify
    value whole, with its relative change; a pin on one side only reads (none)
    on the other."""
    was, now = _flat(old), _flat(new)
    lines = []
    for key in [*now, *(key for key in was if key not in now)]:
        before, after = was.get(key), now.get(key)
        if before == after:
            continue
        line = f"{key}: {_shown(key, before)} → {_shown(key, after)}"
        if key.startswith("verify/") and before is not None and after is not None:
            base = float(before)
            if base != 0.0:
                line += f" ({float(after) / base - 1.0:+.2%})"
        lines.append(line)
    return lines


def _shown(key: str, pin: str | None) -> str:
    if pin is None:
        return "(none)"
    return pin if key.startswith("verify/") else pin[:8]


def main() -> int:
    pins = {}
    demos = {}
    home = os.getcwd()
    for config in CONFIGS:
        for command in COMMANDS:
            with tempfile.TemporaryDirectory() as work:
                os.chdir(work)
                try:
                    pins[f"{config}/{command}"] = fingerprint(config, command)
                finally:
                    os.chdir(home)
    values = {}
    for check in verify.ALL_CHECKS:
        result = check()
        values[result.name] = repr(result.value)
    for demo in DEMOS:
        with tempfile.TemporaryDirectory() as work:
            proc = run_demo(demo, work)
        if proc.returncode != 0:
            raise RuntimeError(f"{demo.name} exited {proc.returncode}: {proc.stderr}")
        demos[demo.stem] = sha256(proc.stdout)
    old = json.loads(PATH.read_text()) if PATH.exists() else {}
    new = {"stack": stack(), "pins": pins, "verify": values, "demos": demos}
    PATH.write_text(json.dumps(new, indent=2) + "\n")
    print(f"wrote {PATH}")
    for line in moved_pins(old, new):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
