"""The record writer against `json.dumps`: compact strict JSON, byte for byte.

`experiments._compact` writes record.json with json's C encoder, and runs the
tree through `_jsonable` only when the encoder rejects it (numpy values,
non-finite floats).  Whatever tree it is given, its text must be what
`json.dumps(_jsonable(tree), allow_nan=False)` writes.  The trees stay small:
at most 4 items per container.
"""

import json
import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from htx.experiments import _compact, _jsonable

# any characters, non-ASCII and control ones among them, and more often the
# brackets, separators and escapes that JSON writes or escapes
TEXT = st.text(st.one_of(st.characters(), st.sampled_from('{}[],: "\\\x00\n\x7fé')),
               max_size=5)
SCALARS = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), TEXT,
                    st.sampled_from([math.nan, math.inf, -math.inf]),
                    st.floats().map(np.float64), st.floats(width=32).map(np.float32),
                    st.integers(-2**63, 2**63 - 1).map(np.int64), st.booleans().map(np.bool_))
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
@example({"m": [1.0, math.nan], "s": np.float64(-math.inf)})
def test_writes_what_json_dumps_writes(tree):
    text = _compact(tree)
    assert text == json.dumps(_jsonable(tree), allow_nan=False)
    # json.loads calls parse_constant for each NaN, Infinity or -Infinity token only
    assert json.loads(text, parse_constant=_non_finite_token) == json.loads(
        json.dumps(_jsonable(tree)))


def _non_finite_token(token):
    raise AssertionError(f"{token} is not strict JSON")


def test_converts_what_jsonable_converts():
    # numpy values, tuples and non-finite floats: null where a metric is undefined
    tree = {"a": (np.float64(np.nan), np.int64(3), np.float32(1.5), np.bool_(True)),
            "b": np.arange(6.0).reshape(2, 3), "c": [{"x": math.inf}, {"x": 1.0}],
            "d": np.float64(0.1), "e": [[1.0, -math.inf], [2.0, 3.0]],
            1: [2.5], 2.5: {"x": 1}, True: None, None: "é"}
    assert _compact(tree) == json.dumps(_jsonable(tree), allow_nan=False)
