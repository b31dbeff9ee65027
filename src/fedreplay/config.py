"""Experiment configuration: INI-style files, defaults, validation.

The file format is ``key = value`` under section headers (see README for
the full grammar). Every key is checked against the known set so typos
fail loudly, and every invariant violation names the offending field. An
empty file is valid and yields the documented defaults.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass

from .federation import AGGREGATIONS
from .memory import POLICIES
from .stream import ASSIGNMENT_MODES, DATASET_FORMATS
from .uncertainty import METRICS, PERTURBATION_KINDS

DATA_SOURCES = ("synthetic", "file")
OPTIMIZERS = ("sgd", "adam")

# Bound on center_spread, cluster_sigma and sigma: a larger finite scale
# overflows the first forward pass, which then reads as a diverged run.
MAX_DATA_SCALE = 1e100


class ConfigError(Exception):
    """Raised for unreadable, unparsable, or invalid configuration."""


@dataclass
class ExperimentConfig:
    # experiment
    clients: int = 5
    tasks: int = 4
    batch_size: int = 10
    test_split: float = 0.2
    seed: int = 0
    output_dir: str = "out"
    # data
    data_source: str = "synthetic"
    classes: int = 8
    samples_per_class: int = 100
    class_sizes: tuple[int, ...] | None = None
    dim: int = 16
    center_spread: float = 3.0
    cluster_sigma: float = 1.0
    task_assignment: str = "shuffle"
    data_path: str | None = None
    data_format: str = "csv"
    # memory
    memory_capacity: int = 100
    memory_policy: str = "bottom_k"
    uncertainty_metric: str = "bi"
    # perturbation
    perturbation_count: int = 12
    perturbation_kind: str = "gaussian"
    noise_sigma: float = 0.1
    mask_fraction: float = 0.25
    # federation
    burn_in: int = 30
    q: int = 5
    aggregation: str = "fedavg"
    fedprox_mu: float = 0.01
    # model
    hidden_dims: tuple[int, ...] = (64,)
    optimizer: str = "sgd"
    learning_rate: float = 0.1
    reset_optimizer_on_sync: bool = False

    def validate(self) -> None:
        def require(cond: bool, name: str, why: str) -> None:
            if not cond:
                raise ConfigError(f"invalid value for {name}: {why}")

        # inf and nan parse as numbers but no float setting means anything with them.
        for (_, key), (attr, parse) in _SCHEMA.items():
            if parse is _parse_float:
                require(math.isfinite(getattr(self, attr)), key, "must be finite")
            if key in ("center_spread", "cluster_sigma", "sigma"):
                require(getattr(self, attr) <= MAX_DATA_SCALE, key, f"must be <= 1e{math.log10(MAX_DATA_SCALE):.0f}")
        require(self.clients >= 1, "clients", "must be >= 1")
        require(self.tasks >= 2, "tasks", "must be >= 2 (forgetting is undefined otherwise)")
        require(self.batch_size >= 1, "batch_size", "must be >= 1")
        require(0.0 < self.test_split < 1.0, "test_split", "must lie in (0, 1)")
        require(self.seed >= 0, "seed", "must be >= 0")
        require(self.data_source in DATA_SOURCES, "source", f"must be one of {DATA_SOURCES}")
        if self.data_source == "synthetic":
            require(self.classes >= 2, "classes", "must be >= 2")
            require(self.tasks <= self.classes, "tasks", "must not exceed the class count")
            if self.class_sizes is not None:
                require(
                    len(self.class_sizes) == self.classes,
                    "class_sizes",
                    "needs one entry per class",
                )
                require(all(n >= 1 for n in self.class_sizes), "class_sizes", "entries must be >= 1")
            else:
                require(self.samples_per_class >= 1, "samples_per_class", "must be >= 1")
            require(self.dim >= 2, "dim", "must be >= 2")
            require(self.center_spread >= 0, "center_spread", "must be >= 0")
            require(self.cluster_sigma >= 0, "cluster_sigma", "must be >= 0")
        else:
            require(bool(self.data_path), "path", "required for file data source")
            require(self.data_format in DATASET_FORMATS, "format", f"must be one of {DATASET_FORMATS}")
        require(
            self.task_assignment in ASSIGNMENT_MODES,
            "task_assignment",
            f"must be one of {ASSIGNMENT_MODES}",
        )
        require(self.memory_capacity >= 0, "capacity", "must be >= 0")
        require(self.memory_policy in POLICIES, "policy", f"must be one of {POLICIES}")
        require(self.uncertainty_metric in METRICS, "metric", f"must be one of {METRICS}")
        require(self.perturbation_count >= 1, "count", "must be >= 1")
        require(
            self.perturbation_kind in PERTURBATION_KINDS,
            "kind",
            f"must be one of {PERTURBATION_KINDS}",
        )
        require(self.noise_sigma > 0, "sigma", "must be > 0")
        require(0.0 <= self.mask_fraction < 1.0, "mask_fraction", "must lie in [0, 1)")
        require(self.burn_in >= 0, "burn_in", "must be >= 0")
        require(self.q >= 1, "q", "must be >= 1")
        require(self.aggregation in AGGREGATIONS, "aggregation", f"must be one of {AGGREGATIONS}")
        require(self.fedprox_mu >= 0, "fedprox_mu", "must be >= 0")
        require(len(self.hidden_dims) >= 1, "hidden", "needs at least one layer width")
        require(all(h >= 1 for h in self.hidden_dims), "hidden", "widths must be >= 1")
        require(self.optimizer in OPTIMIZERS, "optimizer", f"must be one of {OPTIMIZERS}")
        require(self.learning_rate > 0, "learning_rate", "must be > 0")

    def check_bi_copies(self, dim: int) -> None:
        """Refuse BI retention whose perturbed copies of a ``dim``-feature input would all score 0."""
        scored = self.memory_capacity > 0 and self.memory_policy in ("bottom_k", "top_k")
        if not scored or self.uncertainty_metric != "bi":
            return
        if self.perturbation_count < 2:
            raise ConfigError("invalid value for count: BI needs at least 2 perturbed copies")
        if self.perturbation_kind == "mask" and round(self.mask_fraction * dim) == 0:
            raise ConfigError(f"invalid value for mask_fraction: masks 0 of {dim} features, so BI copies are identical")

    def echo(self) -> dict:
        """Stable, JSON-ready view of every resolved field, keyed as in the file.

        ``[experiment]`` keys sit at the top level, every other section is
        one nested dict; sequences become lists, or None when empty.
        """
        out: dict = {}
        for (section, key), (attr, _) in _SCHEMA.items():
            value = getattr(self, attr)
            if isinstance(value, (tuple, list)):
                value = list(value) or None
            (out if section == "experiment" else out.setdefault(section, {}))[key] = value
        return out


def _parse_int(raw: str, name: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"invalid value for {name}: {raw!r} is not an integer") from None


def _parse_float(raw: str, name: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(f"invalid value for {name}: {raw!r} is not a number") from None


def _parse_bool(raw: str, name: str) -> bool:
    lowered = raw.strip().lower()
    if lowered in ("true", "yes", "on", "1"):
        return True
    if lowered in ("false", "no", "off", "0"):
        return False
    raise ConfigError(f"invalid value for {name}: {raw!r} is not a boolean")


def _parse_int_list(raw: str, name: str) -> tuple[int, ...]:
    try:
        return tuple(int(part.strip()) for part in raw.split(",") if part.strip())
    except ValueError:
        raise ConfigError(f"invalid value for {name}: {raw!r} is not a comma-separated int list") from None


def _parse_str(raw: str, name: str) -> str:
    return raw.strip()


# (section, key) -> (config attribute, parser)
_SCHEMA = {
    ("experiment", "clients"): ("clients", _parse_int),
    ("experiment", "tasks"): ("tasks", _parse_int),
    ("experiment", "batch_size"): ("batch_size", _parse_int),
    ("experiment", "test_split"): ("test_split", _parse_float),
    ("experiment", "seed"): ("seed", _parse_int),
    ("experiment", "output_dir"): ("output_dir", _parse_str),
    ("data", "source"): ("data_source", _parse_str),
    ("data", "classes"): ("classes", _parse_int),
    ("data", "samples_per_class"): ("samples_per_class", _parse_int),
    ("data", "class_sizes"): ("class_sizes", _parse_int_list),
    ("data", "dim"): ("dim", _parse_int),
    ("data", "center_spread"): ("center_spread", _parse_float),
    ("data", "cluster_sigma"): ("cluster_sigma", _parse_float),
    ("data", "task_assignment"): ("task_assignment", _parse_str),
    ("data", "path"): ("data_path", _parse_str),
    ("data", "format"): ("data_format", _parse_str),
    ("memory", "capacity"): ("memory_capacity", _parse_int),
    ("memory", "policy"): ("memory_policy", _parse_str),
    ("memory", "metric"): ("uncertainty_metric", _parse_str),
    ("perturbation", "count"): ("perturbation_count", _parse_int),
    ("perturbation", "kind"): ("perturbation_kind", _parse_str),
    ("perturbation", "sigma"): ("noise_sigma", _parse_float),
    ("perturbation", "mask_fraction"): ("mask_fraction", _parse_float),
    ("federation", "burn_in"): ("burn_in", _parse_int),
    ("federation", "q"): ("q", _parse_int),
    ("federation", "aggregation"): ("aggregation", _parse_str),
    ("federation", "fedprox_mu"): ("fedprox_mu", _parse_float),
    ("model", "hidden"): ("hidden_dims", _parse_int_list),
    ("model", "optimizer"): ("optimizer", _parse_str),
    ("model", "learning_rate"): ("learning_rate", _parse_float),
    ("model", "reset_optimizer_on_sync"): ("reset_optimizer_on_sync", _parse_bool),
}

_SECTIONS = {section for section, _ in _SCHEMA}


def parse_config(path) -> ExperimentConfig:
    """Parse and validate an experiment config file."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"), strict=True)
    try:
        with open(path, "r") as fh:
            parser.read_file(fh, source=str(path))
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from None
    except configparser.Error as exc:
        raise ConfigError(f"config parse error: {exc}") from None

    config = ExperimentConfig()
    for section in parser.sections():
        if section not in _SECTIONS:
            raise ConfigError(f"unknown config section [{section}]")
        for key, raw in parser.items(section):
            entry = _SCHEMA.get((section, key))
            if entry is None:
                raise ConfigError(f"unknown config key {key!r} in section [{section}]")
            attr, parse = entry
            setattr(config, attr, parse(raw, key))
    config.validate()
    return config
