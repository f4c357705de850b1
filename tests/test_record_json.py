"""The record writer against `json.dumps(indent=2)`: the same text, byte for byte.

`experiments._record_json` writes record.json with json's C encoder and puts
in the newlines and indentation afterwards.  Whatever tree it is given, its
text must be what `json.dumps(_jsonable(tree), indent=2, allow_nan=False)`
writes.  The trees stay small: at most 4 items per container.
"""

import json
import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from htx.experiments import _jsonable, _record_json

# any characters, non-ASCII and control ones among them, and more often the
# brackets, separators and escapes that the writer's replacements touch
TEXT = st.text(st.one_of(st.characters(), st.sampled_from('{}[],: "\\\x00\n\x7fé')),
               max_size=5)
SCALARS = st.one_of(st.none(), st.booleans(), st.integers(),
                    st.floats(allow_nan=False, allow_infinity=False), TEXT)
FLAT_DICTS = st.dictionaries(TEXT, SCALARS, max_size=4)
FLAT_LISTS = st.lists(SCALARS, max_size=4)
# per-trial rows: a list of non-empty flat dicts, or of non-empty flat lists
ROWS = st.one_of(st.lists(st.dictionaries(TEXT, SCALARS, min_size=1, max_size=4),
                          min_size=1, max_size=4),
                 st.lists(st.lists(SCALARS, min_size=1, max_size=4), min_size=1, max_size=4))
TREES = st.recursive(st.one_of(SCALARS, FLAT_DICTS, FLAT_LISTS, ROWS),
                     lambda inner: st.one_of(st.lists(inner, max_size=4),
                                             st.dictionaries(TEXT, inner, max_size=4)),
                     max_leaves=12)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(TREES)
@example([{"a": 1}, {}, {"b": "}\x00{"}])
@example([{"a": "{"}, {"b": 2}])
@example([[1], [2, [3]], [{}]])
@example({"": [], "k": {}, "n": [[], {}, [[]]]})
def test_writes_what_json_dumps_writes(tree):
    assert _record_json(tree) == json.dumps(tree, indent=2, allow_nan=False)


def test_converts_what_jsonable_converts():
    # numpy values, tuples and non-finite floats: null where a metric is undefined
    tree = {"a": (np.float64(np.nan), np.int64(3), np.float32(1.5), np.bool_(True)),
            "b": np.arange(6.0).reshape(2, 3), "c": [{"x": math.inf}, {"x": 1.0}],
            "d": np.float64(0.1), "e": [[1.0, -math.inf], [2.0, 3.0]],
            1: [2.5], 2.5: {"x": 1}, True: None, None: "é"}
    assert _record_json(tree) == json.dumps(_jsonable(tree), indent=2, allow_nan=False)
