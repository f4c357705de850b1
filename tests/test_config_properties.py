"""Property tests at the config boundary.

Any JSON document either passes `ExperimentConfig.from_dict` and every
`build_*` function, or one of them raises `ConfigError`; nothing else
escapes.  The documents stay small: integers at or below 32 (the largest
`density.cells` drawn), and lists of at most 4 items, so a mixture has at
most 4 components in 4 dimensions.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from htx.config import (CHOICE_FIELDS, DEFAULTS, ExperimentConfig, build_density,
                        build_operator, build_sampler, build_schedule, build_weights)
from htx.errors import ConfigError


def _json(scalars):
    return st.recursive(scalars, lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(st.text(max_size=4), inner, max_size=2)), max_leaves=16)


SMALL_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(-2, 32), st.floats(),
                          st.text(max_size=4))
# integer literals too large for a float, which json.loads returns as exact ints
HUGE_INTS = st.sampled_from([2 ** 64, 10 ** 400, -(10 ** 400)])
ANY_JSON = _json(st.one_of(SMALL_SCALARS, HUGE_INTS))
NUMBERS = st.one_of(st.floats(), st.integers(-2, 32), HUGE_INTS)


def _field(section, key):
    """Values for one field: its default, one of its own type, or any JSON."""
    default = DEFAULTS[section][key]
    if (section, key) == ("density", "cells"):
        return st.one_of(st.just(default), st.integers(-2, 32), _json(SMALL_SCALARS))
    if isinstance(default, list):
        typed = st.lists(st.one_of(NUMBERS, st.lists(NUMBERS, max_size=4)), max_size=4)
    elif isinstance(default, str):
        typed = st.sampled_from(CHOICE_FIELDS.get((section, key), ["", "runs"]))
    else:
        typed = NUMBERS
    return st.one_of(st.just(default), typed, ANY_JSON)


SECTIONS = {section: st.one_of(
    st.fixed_dictionaries({}, optional={key: _field(section, key) for key in keys}),
    ANY_JSON) for section, keys in DEFAULTS.items()}
DOCUMENTS = st.one_of(st.fixed_dictionaries({}, optional=SECTIONS), ANY_JSON)


def _built(build, *args):
    """build(*args), or None where it raises ConfigError."""
    try:
        return build(*args)
    except ConfigError:
        return None


@settings(derandomize=True, max_examples=200, deadline=None)
@given(DOCUMENTS)
@example({"density": {"variance": 10 ** 400}})
@example({"density": {"means": [[0, 10 ** 400]], "weights": [1]}})
@example({"density": {"kind": "gaussian_field", "jitter": 0.0, "length_scale": 100.0}})
def test_document_builds_or_raises_config_error(doc):
    cfg = _built(ExperimentConfig.from_dict, doc)
    if cfg is None:
        return
    schedule = _built(build_schedule, cfg)
    gm = _built(build_density, cfg)
    _built(build_weights, cfg)
    if gm is not None:
        _built(build_operator, cfg, gm.dim)
    if schedule is not None:
        _built(build_sampler, cfg, schedule)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(DOCUMENTS)
def test_round_trip_keeps_the_digest(doc):
    cfg = _built(ExperimentConfig.from_dict, doc)
    if cfg is not None:
        assert ExperimentConfig.from_dict(cfg.to_dict()).digest() == cfg.digest()
