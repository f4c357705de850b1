"""Property tests at the config and record boundaries.

`ExperimentConfig.from_dict` builds every section, so any JSON document
either raises `ConfigError` there, and nothing else escapes, or every
`build_*` function then succeeds on the parsed config.  An accepted document
whose fields hold values of their own type, run through each of the five run
commands by `cli.main` at 2 trials and at most 40 steps, exits 0 with a record
or 2 with one line on stderr and no record.  Any document that
`RunRecord.from_json` accepts re-emits as CSV and SVG.  The documents stay
small: integers at or below 32 (the largest `density.cells` drawn), and lists
of at most 4 items, so a mixture has at most 4 components in 4 dimensions.
A saved weight file loads back bitwise, and any truncated, extended or
header-corrupted copy of it raises `ConfigError`.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path
from xml.etree import ElementTree

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from htx import cli
from htx.config import (CHOICE_FIELDS, DEFAULTS, ExperimentConfig, build_density,
                        build_operator, build_sampler, build_schedule, build_weights)
from htx.errors import ConfigError
from htx.experiments import CHECK_KEYS, RunRecord, emit_report
from htx.schedules import CONSTANT, POWER_OF_SIGMA, POWER_OF_TIME
from htx.scorenet import MlpNet, load_weights, save_weights


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
# the values of each field that selects a variant (WeightSchedule checks the family)
CHOICES = {**CHOICE_FIELDS, ("guidance", "family"): (POWER_OF_SIGMA, POWER_OF_TIME, CONSTANT)}


def _field(section, key, junk=True):
    """Values for one field: its default, one of its own type, or (with junk) any JSON."""
    default = DEFAULTS[section][key]
    if (section, key) == ("density", "cells"):
        typed, junk_values = st.integers(-2, 32), _json(SMALL_SCALARS)
    else:
        junk_values = ANY_JSON
        if isinstance(default, list):
            typed = st.lists(st.one_of(NUMBERS, st.lists(NUMBERS, max_size=4)), max_size=4)
        elif isinstance(default, str):
            typed = st.sampled_from(CHOICES.get((section, key), ["", "runs"]))
        else:
            typed = NUMBERS
    return st.one_of(st.just(default), typed, *([junk_values] if junk else []))


SECTIONS = {section: st.one_of(
    st.fixed_dictionaries({}, optional={key: _field(section, key) for key in keys}),
    ANY_JSON) for section, keys in DEFAULTS.items()}
DOCUMENTS = st.one_of(st.fixed_dictionaries({}, optional=SECTIONS), ANY_JSON)
# documents whose every field holds its default or a value of its own type
TYPED_DOCUMENTS = st.fixed_dictionaries({}, optional={
    section: st.fixed_dictionaries({}, optional={key: _field(section, key, junk=False)
                                                 for key in keys})
    for section, keys in DEFAULTS.items()})


@settings(derandomize=True, max_examples=200, deadline=None)
@given(DOCUMENTS)
@example({"density": {"variance": 10 ** 400}})
@example({"density": {"means": [[0, 10 ** 400]], "weights": [1]}})
@example({"density": {"kind": "gaussian_field", "jitter": 0.0, "length_scale": 100.0}})
def test_document_builds_or_raises_config_error(doc):
    try:
        cfg = ExperimentConfig.from_dict(doc)
    except ConfigError:
        return
    gm, op, schedule, scfg = cfg.built
    assert build_operator(cfg, build_density(cfg).dim).dim == op.dim == gm.dim
    assert build_sampler(cfg, build_schedule(cfg)) == scfg
    for exponent in (None, *cfg.experiment["exponents"]):
        build_weights(cfg, exponent)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(DOCUMENTS)
def test_round_trip_keeps_the_digest(doc):
    try:
        cfg = ExperimentConfig.from_dict(doc)
    except ConfigError:
        return
    assert ExperimentConfig.from_dict(cfg.to_dict()).digest() == cfg.digest()


# the most sampler steps a run of the exit-code property takes
PROPERTY_STEPS = 40


@settings(derandomize=True, max_examples=150, deadline=None)
@given(TYPED_DOCUMENTS)
@example({"operator": {"noise_std": 1e160}})
@example({"density": {"kind": "gaussian_field", "variance": 2 ** 64, "jitter": 5.0}})
@example({"density": {"kind": "gaussian_field", "jitter": 4.1973848737427287e+223}})
@example({"guidance": {"exponent": 2 ** 64, "invalid_exponent": 2 ** 64}})
def test_accepted_document_runs_to_exit_0_or_2(doc):
    try:
        steps = ExperimentConfig.from_dict(doc).sampler["steps"]
    except ConfigError:
        return
    doc = {**doc, "sampler": {**doc.get("sampler", {}), "steps": min(steps, PROPERTY_STEPS)}}
    with tempfile.TemporaryDirectory() as work:
        config = Path(work) / "config.json"
        config.write_text(json.dumps(doc))
        for command in cli.RUN_DRIVERS:
            out = Path(work) / command
            stderr = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
                code = cli.main([command, "--config", str(config), "--trials", "2",
                                 "--out", str(out)])
            records = list(out.rglob("record.json"))
            if code == 0:
                assert len(records) == 1, command
            else:
                assert code == 2 and not records, (command, code)
                assert len(stderr.getvalue().splitlines()) == 1, (command, stderr.getvalue())


METRICS = ("mse_to_y", "mse_to_coarse", "loglik_p0")
FINITE = st.one_of(st.integers(-2, 32), st.floats(allow_nan=False, allow_infinity=False))
# aggregate rows as a run writes them, null among the means as record.json writes
# a non-finite one; two series over a few x values, so that charts get drawn
ROWS = st.fixed_dictionaries(
    {"series": st.sampled_from(["a", "b"]), "x": st.integers(0, 3), "n": st.integers(0, 32)},
    optional={**{f"{m}_mean": st.one_of(FINITE, st.none()) for m in METRICS},
              "mse_to_y_se": FINITE, "moment_distances": ANY_JSON})


@st.composite
def records(draw):
    """A record as a run writes it, with at most one value replaced by any JSON."""
    doc = {"kind": "k", "digest": "d", "config": {}, "seed": 0, "per_trial": {},
           "aggregates": draw(st.lists(ROWS, max_size=6))}
    if draw(st.booleans()):
        doc["checks"] = [{key: draw(ANY_JSON) for key in CHECK_KEYS}]
    if doc["aggregates"] and draw(st.booleans()):
        row = draw(st.sampled_from(doc["aggregates"]))
        row[draw(st.sampled_from(sorted(row)))] = draw(st.one_of(NUMBERS, ANY_JSON))
    return doc


def _record(*rows):
    return {"kind": "k", "digest": "d", "config": {}, "seed": 0, "per_trial": {},
            "aggregates": [{"series": "a", "x": float(i), "n": 2, **row}
                           for i, row in enumerate(rows)]}


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("records")


@settings(derandomize=True, max_examples=150, deadline=None)
@given(doc=st.one_of(records(), ANY_JSON))
@example(doc=_record({"mse_to_y_mean": 1.0}, {"mse_to_y_mean": None}))
@example(doc=_record({"mse_to_y_mean": 1.0}, {"mse_to_y_mean": "2"}))
@example(doc=_record({"mse_to_y_mean": 1.0}, {"mse_to_y_mean": 2.0, "x": "foo"}))
@example(doc=_record({"mse_to_y_mean": 1.0}, {"mse_to_y_mean": 2.0, "series": ["a"]}))
@example(doc={**_record({"mse_to_y_mean": 1.0, "series": "a<b & c\x00"},
                        {"mse_to_y_mean": 2.0, "series": "a<b & c\x00"}), "kind": "<&\x01"})
def test_accepted_record_re_emits(scratch, doc):
    path = scratch / "record.json"
    path.write_text(json.dumps(doc))
    try:
        record = RunRecord.from_json(path)
    except ConfigError:
        return
    emit_report(record, "csv", scratch)
    for chart in emit_report(record, "svg", scratch):
        ElementTree.parse(chart)


@st.composite
def nets(draw):
    """A net of dim 1-4 and widths 1-16, with a few entries set to any float
    (signed zeros, infinities, NaNs)."""
    seed = draw(st.integers(0, 2 ** 32 - 1))
    net = MlpNet.init(draw(st.integers(1, 4)), (draw(st.integers(1, 16)),
                                                draw(st.integers(1, 16))),
                      rng=np.random.default_rng(seed))
    params = [p.copy() for p in net.params]
    for value in draw(st.lists(st.floats(), max_size=6)):
        p = params[draw(st.integers(0, 5))]
        p.flat[draw(st.integers(0, p.size - 1))] = value
    return MlpNet(tuple(params), net.dim)


def _saved(scratch, net) -> bytes:
    save_weights(net, scratch / "net.htx")
    return (scratch / "net.htx").read_bytes()


def _load(scratch, blob: bytes) -> MlpNet:
    (scratch / "net.htx").write_bytes(blob)
    return load_weights(scratch / "net.htx")


# magic, the number of layer sizes, four uint32 sizes
HEADER_BYTES = 7 + 1 + 4 * 4


@settings(derandomize=True, max_examples=50, deadline=None)
@given(nets())
def test_weight_file_round_trips_bitwise(scratch, net):
    loaded = _load(scratch, _saved(scratch, net))
    assert loaded.dim == net.dim
    for got, want in zip(loaded.params, net.params, strict=True):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


@settings(derandomize=True, max_examples=5, deadline=None)
@given(nets())
def test_every_truncated_weight_file_is_config_error(scratch, net):
    blob = _saved(scratch, net)
    for size in range(len(blob)):
        with pytest.raises(ConfigError):
            _load(scratch, blob[:size])


@settings(derandomize=True, max_examples=50, deadline=None)
@given(nets(), st.binary(min_size=1, max_size=64))
def test_weight_file_with_trailing_bytes_is_config_error(scratch, net, tail):
    with pytest.raises(ConfigError):
        _load(scratch, _saved(scratch, net) + tail)


@settings(derandomize=True, max_examples=20, deadline=None)
@given(nets(), st.integers(1, 255))
def test_weight_file_with_a_flipped_header_byte_is_config_error(scratch, net, mask):
    blob = _saved(scratch, net)
    for i in range(HEADER_BYTES):
        with pytest.raises(ConfigError):
            _load(scratch, blob[:i] + bytes([blob[i] ^ mask]) + blob[i + 1:])
