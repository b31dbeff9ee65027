"""Experiment configuration: INI-style files, defaults, validation.

The file format is ``key = value`` under section headers (see README for the
full grammar). Each key is one ``ExperimentConfig`` field that carries its
section, file key and parser. Keys and sections are case-sensitive, and unknown
ones fail loudly. A config is frozen and validated when built, and every
invariant violation names the offending field. An empty file yields the defaults.
Each rule is checked once, here or, for what only the data decide (a file's
shape and classes, a task too small to split), by the runner once it has the
data; the modules that take these values do not check them again. Likewise
a value one module makes (a mini-batch, the label remap, a test split) is
not checked again by the modules it is handed to.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field, fields

from .federation import AGGREGATIONS
from .memory import POLICIES, SCORED_POLICIES
from .stream import ASSIGNMENT_MODES, DATASET_FORMATS, parse_ascii
from .uncertainty import METRICS, PERTURBATION_KINDS

DATA_SOURCES = ("synthetic", "file")
OPTIMIZERS = ("sgd", "adam")

# Bound on center_spread, cluster_sigma and sigma: a larger finite scale
# overflows the first forward pass, which then reads as a diverged run.
MAX_DATA_SCALE = 1e100


class ConfigError(Exception):
    """Raised for unreadable, unparsable, or invalid configuration."""


def _parse_int(raw: str, name: str) -> int:
    try:
        return parse_ascii(raw, int)
    except ValueError:
        raise ConfigError(f"invalid value for {name}: {raw!r} is not an integer") from None


def _parse_float(raw: str, name: str) -> float:
    try:
        return parse_ascii(raw, float)
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
        return tuple(parse_ascii(part.strip(), int) for part in raw.split(",") if part.strip())
    except ValueError:
        raise ConfigError(f"invalid value for {name}: {raw!r} is not a comma-separated int list") from None


def _parse_str(raw: str, name: str) -> str:
    return raw.strip()


def _key(section: str, parse, default, key: str | None = None):
    """A config field read from ``key`` (default: the field's name) under ``[section]`` by ``parse``."""
    return field(default=default, metadata={"section": section, "key": key, "parse": parse})


@dataclass(frozen=True)
class ExperimentConfig:
    # Field order is the order of the summary.json echo.
    clients: int = _key("experiment", _parse_int, 5)
    tasks: int = _key("experiment", _parse_int, 4)
    batch_size: int = _key("experiment", _parse_int, 10)
    test_split: float = _key("experiment", _parse_float, 0.2)
    seed: int = _key("experiment", _parse_int, 0)
    output_dir: str = _key("experiment", _parse_str, "out")
    data_source: str = _key("data", _parse_str, "synthetic", key="source")
    classes: int = _key("data", _parse_int, 8)
    samples_per_class: int = _key("data", _parse_int, 100)
    class_sizes: tuple[int, ...] | None = _key("data", _parse_int_list, None)
    dim: int = _key("data", _parse_int, 16)
    center_spread: float = _key("data", _parse_float, 3.0)
    cluster_sigma: float = _key("data", _parse_float, 1.0)
    task_assignment: str = _key("data", _parse_str, "shuffle")
    data_path: str | None = _key("data", _parse_str, None, key="path")
    data_format: str = _key("data", _parse_str, "csv", key="format")
    memory_capacity: int = _key("memory", _parse_int, 100, key="capacity")
    memory_policy: str = _key("memory", _parse_str, "bottom_k", key="policy")
    uncertainty_metric: str = _key("memory", _parse_str, "bi", key="metric")
    perturbation_count: int = _key("perturbation", _parse_int, 12, key="count")
    perturbation_kind: str = _key("perturbation", _parse_str, "gaussian", key="kind")
    noise_sigma: float = _key("perturbation", _parse_float, 0.1, key="sigma")
    mask_fraction: float = _key("perturbation", _parse_float, 0.25)
    burn_in: int = _key("federation", _parse_int, 30)
    q: int = _key("federation", _parse_int, 5)
    aggregation: str = _key("federation", _parse_str, "fedavg")
    hidden_dims: tuple[int, ...] = _key("model", _parse_int_list, (64,), key="hidden")
    optimizer: str = _key("model", _parse_str, "sgd")
    learning_rate: float = _key("model", _parse_float, 0.1)
    reset_optimizer_on_sync: bool = _key("model", _parse_bool, False)

    def __post_init__(self) -> None:
        self.validate()

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
        require(bool(self.output_dir), "output_dir", "must not be empty")
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
        require(len(self.hidden_dims) >= 1, "hidden", "needs at least one layer width")
        require(all(h >= 1 for h in self.hidden_dims), "hidden", "widths must be >= 1")
        require(self.optimizer in OPTIMIZERS, "optimizer", f"must be one of {OPTIMIZERS}")
        require(self.learning_rate > 0, "learning_rate", "must be > 0")
        if self.data_source == "synthetic":
            self.check_copies(self.dim)

    def check_copies(self, dim: int) -> None:
        """Refuse scored retention whose perturbed copies of a ``dim``-feature input give every sample one score."""
        if self.memory_capacity == 0 or self.memory_policy not in SCORED_POLICIES:
            return
        masked = round(self.mask_fraction * dim) if self.perturbation_kind == "mask" else None
        if masked == dim:  # every copy is the zero vector, under any metric
            raise ConfigError(f"invalid value for mask_fraction: masks all {dim} features, so every copy is zero")
        if self.uncertainty_metric != "bi":  # the confidence scores need no spread between copies
            return
        if self.perturbation_count < 2:
            raise ConfigError("invalid value for count: BI needs at least 2 perturbed copies")
        if masked == 0:
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


# (section, key) -> (config attribute, parser), in field order
_SCHEMA = {
    (f.metadata["section"], f.metadata["key"] or f.name): (f.name, f.metadata["parse"])
    for f in fields(ExperimentConfig)
}
_SECTIONS = {section for section, _ in _SCHEMA}


def parse_config(path, seed: int | None = None) -> ExperimentConfig:
    """Parse and validate an experiment config file; ``seed``, if given, overrides the file's.

    Values are read literally: ``%`` is an ordinary character, not interpolation.
    """
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"), strict=True, interpolation=None)
    parser.optionxform = str  # keys are case-sensitive, like section names
    try:
        with open(path, "r") as fh:
            parser.read_file(fh, source=str(path))
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from None
    except configparser.Error as exc:
        raise ConfigError(f"config parse error: {exc}") from None

    if parser.defaults():
        raise ConfigError(f"unknown config section [{parser.default_section}]")
    values = {}
    for section in parser.sections():
        if section not in _SECTIONS:
            raise ConfigError(f"unknown config section [{section}]")
        for key, raw in parser.items(section):
            entry = _SCHEMA.get((section, key))
            if entry is None:
                raise ConfigError(f"unknown config key {key!r} in section [{section}]")
            attr, parse = entry
            values[attr] = parse(raw, key)
    if seed is not None:
        values["seed"] = seed
    return ExperimentConfig(**values)
