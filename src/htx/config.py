"""JSON experiment configuration with defaults and a content digest.

A config document has sections `experiment`, `density`, `operator`,
`schedule`, `guidance`, and `sampler`; every field has a default, so the
minimal config is `{"experiment": {"kind": "restore"}}`.

`from_dict` checks each field's type, then builds every section once (kept as
`ExperimentConfig.built`), with the weights of every exponent: a value out of
range is rejected by the constructor that holds its range, naming its
`section.key`, so a config that parses is a config that runs.
"""

from __future__ import annotations

import functools
import hashlib
import json
import sys
from dataclasses import dataclass, field

import numpy as np

from . import oracle
from .errors import ConfigError
from .schedules import OTFM, VP, NoiseSchedule, WeightSchedule
from .solvers import EULER_ODE, SamplerConfig

DEFAULTS = {
    "experiment": {
        "kind": "restore",
        "trials": 200,
        "seed": 0,
        "out": "runs",
        "exponents": [1.0, 3.0, 5.0, 7.0, 9.0],
        "t0_fractions": [0.2, 0.5, 0.8],
    },
    "density": {
        # "mixture": explicit 2-d components; "gaussian_field": smooth 1-d grid prior
        "kind": "mixture",
        "weights": [0.5, 0.5],
        "means": [[-3.0, 0.0], [3.0, 0.0]],
        "variance": 1.0,
        "cells": 16,
        "length_scale": 3.0,
        "jitter": 1e-6,
    },
    "operator": {
        "kind": "blur",
        "kernel_std": 2.0,
        "factor": 2,
        "indices": [0],
        "noise_std": 0.25,
    },
    "schedule": {
        "kind": "vp",
        "beta_min": 0.1,
        "beta_max": 20.0,
        "t_min": 1e-3,
        "t_max": None,  # schedule-dependent default
    },
    "guidance": {
        "family": "power_of_sigma",
        "exponent": 5.0,
        "constant": 1.0,
        "valid_exponent": None,
        "invalid_exponent": None,
    },
    "sampler": {
        "steps": 1000,
        "record_every": 0,
        "start": None,  # defaults to schedule.t_max
        "end": None,    # defaults to schedule.t_min
    },
}

INTEGER_FIELDS = (("experiment", "trials"), ("experiment", "seed"),
                  ("density", "cells"), ("sampler", "steps"), ("sampler", "record_every"))
# operator.factor is a shrink scale or, for downsample, an integer (build_operator)
NUMBER_FIELDS = (("density", "variance"), ("density", "length_scale"), ("density", "jitter"),
                 ("operator", "kernel_std"), ("operator", "factor"), ("operator", "noise_std"),
                 ("schedule", "beta_min"), ("schedule", "beta_max"), ("schedule", "t_min"),
                 ("guidance", "exponent"), ("guidance", "constant"))
OPTIONAL_NUMBER_FIELDS = (("schedule", "t_max"), ("guidance", "valid_exponent"),
                          ("guidance", "invalid_exponent"), ("sampler", "start"),
                          ("sampler", "end"))
NUMBER_LIST_FIELDS = (("experiment", "exponents"), ("experiment", "t0_fractions"))
# largest gaussian_field grid: its prior allocates cells^2 covariance entries and
# takes about 0.5 s to build at this size
MAX_CELLS = 1024
# most trials per run: a run holds several (trials, d) float arrays, each 82 MB at
# this bound and MAX_CELLS; the largest shipped check draws 500
MAX_TRIALS = 10_000
_INF = float("inf")
# closed [low, high] ranges of the fields that no section's constructor bounds
RANGED_FIELDS = {("experiment", "trials"): (1, MAX_TRIALS), ("experiment", "seed"): (0, _INF),
                 ("density", "cells"): (1, MAX_CELLS),
                 ("guidance", "valid_exponent"): (0.0, _INF),
                 ("guidance", "invalid_exponent"): (0.0, _INF)}
# fields that select a variant, with the values each may take; the builders
# dispatch on these without checking them (WeightSchedule checks guidance.family)
CHOICE_FIELDS = {
    ("experiment", "kind"): ("restore", "ablate_exponent", "ablate_weight_family",
                             "baseline_sdedit", "verify", "train_score", "sample_unguided"),
    ("density", "kind"): ("mixture", "gaussian_field"),
    ("operator", "kind"): ("identity", "blur", "downsample", "mask", "shrink"),
    ("schedule", "kind"): (VP, OTFM),
}


def _is_number(value) -> bool:
    """An int or float within float range; JSON's 1e400 parses as inf and is not one."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


def _is_integer(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


# each field table, with the test its values pass and its name in a message
_TYPES = ((INTEGER_FIELDS, _is_integer, "an integer"), (NUMBER_FIELDS, _is_number, "a number"),
          (OPTIONAL_NUMBER_FIELDS, lambda v: v is None or _is_number(v), "a number or null"),
          (NUMBER_LIST_FIELDS, lambda v: isinstance(v, list) and v and all(map(_is_number, v)),
           "a non-empty list of numbers"))


def _json_copy(value):
    """A copy of a JSON tree: each dict and list is new, every leaf is shared."""
    if isinstance(value, dict):
        return {key: _json_copy(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_json_copy(item) for item in value]
    return value


def _merge_section(name: str, overrides) -> dict:
    if not isinstance(overrides, dict):
        raise ConfigError(f"section {name!r} must be an object, got {overrides!r}")
    base = _json_copy(DEFAULTS[name])
    for key, value in overrides.items():
        if key not in base:
            raise ConfigError(f"unknown key {key!r} in section {name!r}")
        base[key] = value
    return base


def read_document(path):
    """The JSON document at path; ConfigError if it cannot be read or parsed."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:  # json.JSONDecodeError is a ValueError
        raise ConfigError(f"cannot read config {path}: {exc}") from exc


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: dict = field(default_factory=dict)
    density: dict = field(default_factory=dict)
    operator: dict = field(default_factory=dict)
    schedule: dict = field(default_factory=dict)
    guidance: dict = field(default_factory=dict)
    sampler: dict = field(default_factory=dict)

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        if not isinstance(doc, dict):
            raise ConfigError(f"a config must be an object, got {doc!r}")
        unknown = set(doc) - set(DEFAULTS)
        if unknown:
            raise ConfigError(f"unknown config sections: {sorted(unknown)}")
        sections = {name: _merge_section(name, doc.get(name, {})) for name in DEFAULTS}
        cfg = cls(**sections)
        for (section, key), allowed in CHOICE_FIELDS.items():
            value = getattr(cfg, section)[key]
            if value not in allowed:
                raise ConfigError(f"{section}.{key} must be one of {list(allowed)}, "
                                  f"got {value!r}")
        for names, typed, kind in _TYPES:
            for section, key in names:
                value = getattr(cfg, section)[key]
                if not typed(value):
                    raise ConfigError(f"{section}.{key} must be {kind}, got {value!r}")
        for (section, key), (low, high) in RANGED_FIELDS.items():
            value = getattr(cfg, section)[key]
            if value is not None and not low <= value <= high:
                raise ConfigError(f"{section}.{key} must lie in [{low}, {high}], got {value!r}")
        out = cfg.experiment["out"]
        if not (isinstance(out, str) and out):
            raise ConfigError(f"experiment.out must be a non-empty path string, got {out!r}")
        cfg.built  # builds every section; each constructor's ConfigError names its field
        build_weights(cfg)
        for i, exponent in enumerate(cfg.experiment["exponents"]):
            try:
                build_weights(cfg, exponent)
            except ConfigError as exc:
                raise ConfigError(f"experiment.exponents[{i}]: {exc}") from None
        return cfg

    @classmethod
    def from_json(cls, path) -> "ExperimentConfig":
        return cls.from_dict(read_document(path))

    @functools.cached_property
    def built(self) -> tuple:
        """(density, operator, schedule, sampler), built once per config; not a
        field, so equality, `to_dict` and `digest` see the sections only."""
        schedule = build_schedule(self)
        density = build_density(self)
        return density, build_operator(self, density.dim), schedule, build_sampler(self, schedule)

    def to_dict(self) -> dict:
        return {name: _json_copy(getattr(self, name)) for name in DEFAULTS}

    def digest(self) -> str:
        sections = {name: getattr(self, name) for name in DEFAULTS}
        canonical = json.dumps(sections, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()[:12]


def build_schedule(cfg: ExperimentConfig) -> NoiseSchedule:
    sec = cfg.schedule
    if sec["kind"] == VP:
        t_max = 1.0 if sec["t_max"] is None else sec["t_max"]
        return NoiseSchedule.vp(sec["beta_min"], sec["beta_max"], sec["t_min"], t_max)
    t_max = 1.0 - 1e-3 if sec["t_max"] is None else sec["t_max"]
    return NoiseSchedule.otfm(sec["t_min"], t_max)


def rbf_field_prior(cells: int, length_scale: float, variance: float = 1.0,
                    jitter: float = 1e-6) -> oracle.GaussianMixture:
    """Zero-mean Gaussian prior over a 1-d grid with smooth RBF covariance.

    The jitter ridge keeps the Cholesky factorization well posed; RBF kernels
    on dense grids are otherwise numerically rank deficient.
    """
    for key, value in (("cells", cells), ("length_scale", length_scale), ("variance", variance)):
        if not value > 0:
            raise ConfigError(f"density.{key} must be positive, got {value!r}")
    if jitter < 0:
        raise ConfigError(f"density.jitter must be >= 0, got {jitter!r}")
    idx = np.arange(cells, dtype=float)
    cov = variance * np.exp(-0.5 * ((idx[:, None] - idx[None, :]) / length_scale) ** 2)
    cov += jitter * np.eye(cells)
    try:
        return oracle.GaussianMixture(np.array([1.0]), np.zeros((1, cells)), cov[None])
    except ValueError as exc:  # e.g. jitter 0 leaves the RBF kernel singular
        raise ConfigError(f"density.variance, length_scale and jitter give no usable "
                          f"field covariance: {exc}") from exc


def _leaves(value) -> list:
    """The non-list items of a nested list, or [value] if it is not a list."""
    if not isinstance(value, list):
        return [value]
    return [leaf for item in value for leaf in _leaves(item)]


def _float_array(sec: dict, key: str, ndim: int) -> np.ndarray:
    if not all(map(_is_number, _leaves(sec[key]))):
        raise ConfigError(f"density.{key} must hold finite numbers only, got {sec[key]!r}")
    try:
        arr = np.asarray(sec[key], dtype=float)
    except ValueError as exc:  # a ragged nesting
        raise ConfigError(f"density.{key} must be numeric: {exc}") from exc
    if arr.ndim != ndim or arr.size == 0:
        raise ConfigError(f"density.{key} must be a non-empty {ndim}-d array of finite "
                          f"numbers, got {sec[key]!r}")
    return arr


def build_density(cfg: ExperimentConfig) -> oracle.GaussianMixture:
    sec = cfg.density
    if sec["kind"] == "mixture":
        means = _float_array(sec, "means", ndim=2)
        weights = _float_array(sec, "weights", ndim=1)
        if weights.shape[0] != means.shape[0]:
            raise ConfigError("density.weights must give one weight per row of density.means")
        if np.any(weights <= 0) or abs(weights.sum() - 1.0) > 1e-12:
            raise ConfigError(f"density.weights must be positive and sum to 1, "
                              f"got {sec['weights']!r}")
        if not sec["variance"] > 0:
            raise ConfigError(f"density.variance must be a positive number, "
                              f"got {sec['variance']!r}")
        covs = np.stack([sec["variance"] * np.eye(means.shape[1])] * means.shape[0])
        return oracle.GaussianMixture(weights, means, covs)
    return rbf_field_prior(sec["cells"], sec["length_scale"], sec["variance"], sec["jitter"])


def build_operator(cfg: ExperimentConfig, dim: int) -> oracle.DegradationOperator:
    sec = cfg.operator
    kind = sec["kind"]
    noise_std = sec["noise_std"]
    if kind == "identity":
        return oracle.identity_operator(dim, noise_std)
    if kind == "blur":
        return oracle.blur_1d(sec["kernel_std"], dim, noise_std)
    if kind == "downsample":
        if not _is_integer(sec["factor"]):
            raise ConfigError(f"operator.factor must be an integer for downsample, "
                              f"got {sec['factor']!r}")
        return oracle.downsample(sec["factor"], dim, noise_std)
    if kind == "mask":
        indices = sec["indices"]
        if not (isinstance(indices, list)
                and all(_is_integer(i) and 0 <= i < dim for i in indices)):
            raise ConfigError(f"operator.indices must be a list of integers in [0, {dim}), "
                              f"got {indices!r}")
        return oracle.mask(indices, dim, noise_std)
    return oracle.shrink(sec["factor"], dim, noise_std)


def build_weights(cfg: ExperimentConfig, exponent: float | None = None) -> WeightSchedule:
    sec = cfg.guidance
    return WeightSchedule(sec["family"],
                          exponent=sec["exponent"] if exponent is None else exponent,
                          constant=sec["constant"])


def build_sampler(cfg: ExperimentConfig, schedule: NoiseSchedule,
                  solver: str = EULER_ODE) -> SamplerConfig:
    sec = cfg.sampler
    start = schedule.t_max if sec["start"] is None else sec["start"]
    end = schedule.t_min if sec["end"] is None else sec["end"]
    for key, value in (("start", start), ("end", end)):
        if not schedule.t_min <= value <= schedule.t_max:
            raise ConfigError(f"sampler.{key} must lie in the schedule's "
                              f"[{schedule.t_min}, {schedule.t_max}], got {value!r}")
    return SamplerConfig(steps=sec["steps"], start=start, end=end, solver=solver,
                         seed=cfg.experiment["seed"],
                         record_every=sec["record_every"])
