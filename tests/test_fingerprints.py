"""Every driver's saved record, byte for byte, against the committed pins.

Each pin also holds the hash of the record's values in column form
(`make_fingerprints.value_hash`): a change of the record's layout alone moves
its record.json pin and leaves its values pin where it was.

The pins in fingerprints.json were made by make_fingerprints.py with the
Python, numpy and scipy versions it records. On that stack a moved pin fails
and names the record; on another stack a mismatch is skipped with the
versions that differ, because the bitwise promise holds for one stack.
The `htx verify` values are checked in test_acceptance and the demo output
in test_demos, where they are computed anyway.
"""

import pytest

from make_fingerprints import COMMANDS, CONFIGS, check_pin, fingerprint


@pytest.mark.parametrize("config", CONFIGS)
@pytest.mark.parametrize("command", COMMANDS)
def test_record_bytes_match_pin(config, command, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    check_pin("pins", f"{config}/{command}", fingerprint(config, command))
