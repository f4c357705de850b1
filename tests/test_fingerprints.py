"""Every driver's saved record, byte for byte, against the committed pins.

The pins in fingerprints.json were made by make_fingerprints.py with the
Python, numpy and scipy versions it records. On that stack a moved pin fails
and names the record; on another stack a mismatch is skipped with the
versions that differ, because the bitwise promise holds for one stack.
"""

import json

import pytest

from make_fingerprints import COMMANDS, CONFIGS, FILES, PATH, fingerprint, stack

PINNED = json.loads(PATH.read_text())


@pytest.mark.parametrize("config", CONFIGS)
@pytest.mark.parametrize("command", COMMANDS)
def test_record_bytes_match_pin(config, command, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    key = f"{config}/{command}"
    got = fingerprint(config, command)
    moved = [name for name in FILES if got[name] != PINNED["pins"][key][name]]
    if not moved:
        return
    differs = {name: (PINNED["stack"][name], version) for name, version in stack().items()
               if PINNED["stack"][name] != version}
    detail = f"{key}: {', '.join(moved)} moved from its pin"
    if differs:
        pytest.skip(f"{detail}; pins were made on another stack: "
                    + ", ".join(f"{name} {was} (here {now})"
                                for name, (was, now) in differs.items()))
    pytest.fail(detail)
