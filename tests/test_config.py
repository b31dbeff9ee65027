"""Config file parsing, defaults, and validation."""

import re
from dataclasses import FrozenInstanceError, fields
from pathlib import Path

import numpy as np
import pytest
from test_stream import write_csv

from fedreplay.cli import main as cli_main
from fedreplay.config import _SCHEMA, ConfigError, ExperimentConfig, _parse_float, parse_config


def _write(tmp_path, text):
    path = tmp_path / "experiment.ini"
    path.write_text(text)
    return path


class TestDefaults:
    def test_empty_config_is_valid(self, tmp_path):
        config = parse_config(_write(tmp_path, ""))
        assert config.clients == 5
        assert config.batch_size == 10
        assert config.burn_in == 30
        assert config.q == 5
        assert config.perturbation_count == 12
        assert config.test_split == 0.2

    def test_defaults_validate_standalone(self):
        ExperimentConfig().validate()


class TestDeclaredOnce:
    """Each key is one frozen field, checked when the config is built."""

    def test_invalid_value_refused_when_built(self):
        with pytest.raises(ConfigError, match=r"^invalid value for clients: must be >= 1$"):
            ExperimentConfig(clients=0)

    def test_fields_cannot_be_reassigned(self):
        config = ExperimentConfig()
        with pytest.raises(FrozenInstanceError):
            config.clients = 0

    def test_no_two_fields_share_a_key(self):
        assert len(_SCHEMA) == len(fields(ExperimentConfig))


class TestReadmeGrammar:
    """The ```ini block in README.md is the documented grammar; it must not drift from the parser."""

    @pytest.fixture
    def block(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        (block,) = re.findall(r"^```ini\n(.*?)^```$", readme, flags=re.DOTALL | re.MULTILINE)
        return block

    def test_block_parses_to_the_defaults(self, tmp_path, block):
        assert parse_config(_write(tmp_path, block)).echo() == ExperimentConfig().echo()

    def test_block_names_every_key_and_no_other(self, block):
        keys = set()
        section = None
        for line in block.splitlines():
            if header := re.fullmatch(r"\[(\w+)\]", line.strip()):
                section = header[1]
            elif key := re.match(r"#?\s*(\w+)\s*=", line):
                keys.add((section, key[1]))
        assert keys == set(_SCHEMA)


_SHIPPED = sorted((Path(__file__).parents[1] / "configs").glob("*.ini"))


@pytest.mark.parametrize("path", _SHIPPED, ids=[p.stem for p in _SHIPPED])
def test_shipped_config_parses(path):
    """Every shipped config names only keys and values the parser accepts."""
    parse_config(path)


class TestParsing:
    def test_values_parse_and_echo(self, tmp_path):
        config = parse_config(
            _write(
                tmp_path,
                """
                [experiment]
                clients = 3
                tasks = 2
                seed = 11

                [federation]
                q = 5
                aggregation = class_weighted

                [model]
                hidden = 32, 16
                optimizer = adam
                learning_rate = 0.01
                """,
            )
        )
        assert config.clients == 3
        assert config.hidden_dims == (32, 16)
        assert config.optimizer == "adam"
        echo = config.echo()
        assert echo["federation"]["q"] == 5
        assert echo["federation"]["aggregation"] == "class_weighted"
        assert echo["seed"] == 11

    def test_inline_comments_allowed(self, tmp_path):
        config = parse_config(_write(tmp_path, "[experiment]\nclients = 4  # four of them\n"))
        assert config.clients == 4
        config = parse_config(_write(tmp_path, "; a full-line comment\n[experiment]\nclients = 4 ; four\n"))
        assert config.clients == 4

    def test_unknown_key_rejected(self, tmp_path, capsys):
        # fedprox_mu is no key: the program has no FedProx aggregation
        for section, key in [("experiment", "clinets"), ("federation", "fedprox_mu")]:
            path = _write(tmp_path, f"[{section}]\n{key} = 0.1\n")
            assert cli_main(["run", str(path), "--out", str(tmp_path / "out")]) == 1
            assert capsys.readouterr() == ("", f"config error: unknown config key {key!r} in section [{section}]\n")
            assert not (tmp_path / "out").exists()

    def test_keys_are_case_sensitive(self, tmp_path, capsys):
        path = _write(tmp_path, "[experiment]\nCLIENTS = 2\n")
        assert cli_main(["run", str(path), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr() == ("", "config error: unknown config key 'CLIENTS' in section [experiment]\n")
        assert not (tmp_path / "out").exists()

    def test_unknown_section_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown config section"):
            parse_config(_write(tmp_path, "[experiments]\nclients = 5\n"))

    def test_parse_error_reports_line(self, tmp_path):
        with pytest.raises(ConfigError, match="line"):
            parse_config(_write(tmp_path, "[experiment]\nclients 5\n"))

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            parse_config(tmp_path / "nope.ini")

    def test_type_errors_name_key(self, tmp_path):
        with pytest.raises(ConfigError, match="batch_size"):
            parse_config(_write(tmp_path, "[experiment]\nbatch_size = ten\n"))


class TestValidation:
    def test_zero_clients_names_field(self, tmp_path):
        with pytest.raises(ConfigError, match="clients"):
            parse_config(_write(tmp_path, "[experiment]\nclients = 0\n"))

    def test_bad_test_split(self, tmp_path):
        with pytest.raises(ConfigError, match="test_split"):
            parse_config(_write(tmp_path, "[experiment]\ntest_split = 1.5\n"))

    def test_bad_policy(self, tmp_path):
        with pytest.raises(ConfigError, match="policy"):
            parse_config(_write(tmp_path, "[memory]\npolicy = reservoir\n"))

    def test_bad_metric(self, tmp_path):
        with pytest.raises(ConfigError, match="metric"):
            parse_config(_write(tmp_path, "[memory]\nmetric = variance\n"))

    def test_bad_aggregation(self, tmp_path):
        with pytest.raises(ConfigError, match="aggregation"):
            parse_config(_write(tmp_path, "[federation]\naggregation = median\n"))

    def test_tasks_capped_by_classes(self, tmp_path):
        with pytest.raises(ConfigError, match="tasks"):
            parse_config(_write(tmp_path, "[experiment]\ntasks = 9\n[data]\nclasses = 8\n"))

    def test_file_source_needs_path(self, tmp_path):
        with pytest.raises(ConfigError, match="path"):
            parse_config(_write(tmp_path, "[data]\nsource = file\n"))

    def test_class_sizes_must_match_classes(self, tmp_path):
        with pytest.raises(ConfigError, match="class_sizes"):
            parse_config(_write(tmp_path, "[data]\nclasses = 5\nclass_sizes = 10, 20\n"))

    def test_random_policy_ignores_metric(self, tmp_path):
        config = parse_config(_write(tmp_path, "[memory]\npolicy = random\nmetric = en\n"))
        assert config.memory_policy == "random"
        assert config.uncertainty_metric == "en"

    def test_capacity_zero_allowed(self, tmp_path):
        config = parse_config(_write(tmp_path, "[memory]\ncapacity = 0\n"))
        assert config.memory_capacity == 0

    def test_negative_burn_in(self, tmp_path):
        with pytest.raises(ConfigError, match="invalid value for burn_in: must be >= 0"):
            parse_config(_write(tmp_path, "[federation]\nburn_in = -1\n"))

    def test_zero_q(self, tmp_path):
        with pytest.raises(ConfigError, match="invalid value for q: must be >= 1"):
            parse_config(_write(tmp_path, "[federation]\nq = 0\n"))


_RULES = [
    ({"perturbation_count": 0}, "count", "must be >= 1"),
    ({"perturbation_kind": "cutout"}, "kind", "must be one of ('gaussian', 'mask')"),
    ({"noise_sigma": 0.0}, "sigma", "must be > 0"),
    ({"mask_fraction": 1.0}, "mask_fraction", "must lie in [0, 1)"),
    ({"uncertainty_metric": "variance"}, "metric", "must be one of ('bi', 'lc', 'rc', 'en')"),
    ({"uncertainty_metric": "ms"}, "metric", "must be one of ('bi', 'lc', 'rc', 'en')"),
    ({"aggregation": "fedprox"}, "aggregation", "must be one of ('fedavg', 'class_weighted')"),
    ({"memory_capacity": -1}, "capacity", "must be >= 0"),
    ({"memory_policy": "reservoir"}, "policy", "must be one of ('bottom_k', 'top_k', 'random', 'class_balanced_random')"),
    ({"batch_size": 0}, "batch_size", "must be >= 1"),
    ({"clients": 0}, "clients", "must be >= 1"),
    ({"tasks": 1}, "tasks", "must be >= 2 (forgetting is undefined otherwise)"),
    ({"tasks": 9, "classes": 8}, "tasks", "must not exceed the class count"),
    ({"task_assignment": "random"}, "task_assignment", "must be one of ('shuffle', 'size_descending')"),
    ({"classes": 1}, "classes", "must be >= 2"),
    ({"dim": 1}, "dim", "must be >= 2"),
    ({"samples_per_class": 0}, "samples_per_class", "must be >= 1"),
    ({"class_sizes": (10, 20)}, "class_sizes", "needs one entry per class"),
    ({"class_sizes": (10,) * 7 + (0,)}, "class_sizes", "entries must be >= 1"),
    ({"hidden_dims": (0,)}, "hidden", "widths must be >= 1"),
    ({"learning_rate": 0.0}, "learning_rate", "must be > 0"),
]


class TestRulesTheModulesRelyOn:
    """The perturbation, memory, stream and model code take these values unchecked; building the config refuses them."""

    @pytest.mark.parametrize(
        "overrides,key,why", _RULES, ids=[",".join(f"{k}={v}" for k, v in o.items()) for o, _, _ in _RULES]
    )
    def test_refused_when_built(self, overrides, key, why):
        with pytest.raises(ConfigError) as exc:
            ExperimentConfig(**overrides)
        assert str(exc.value) == f"invalid value for {key}: {why}"


_SMALL = """
[experiment]
clients = 2
tasks = 2
batch_size = 5

[data]
classes = 4
samples_per_class = 10
dim = 4

[memory]
capacity = 8
policy = bottom_k
metric = bi

[perturbation]
"""


class TestEmptyOutputDir:
    """An empty output directory would mean the working directory, so it is refused before anything runs."""

    @pytest.mark.parametrize(
        "text,argv",
        [(_SMALL.replace("batch_size = 5", "batch_size = 5\noutput_dir ="), []), (_SMALL, ["--out", ""])],
        ids=["output_dir", "--out"],
    )
    def test_refused(self, tmp_path, monkeypatch, capsys, text, argv):
        path = _write(tmp_path, text)
        monkeypatch.chdir(tmp_path)
        assert cli_main(["run", str(path), "--force", *argv]) == 1
        assert capsys.readouterr() == ("", "config error: invalid value for output_dir: must not be empty\n")
        assert [p.name for p in tmp_path.iterdir()] == [path.name]


class TestIdenticalBICopies:
    """Copies that cannot tell samples apart are refused.

    BI over identical copies scores every sample 0, and copies that are all
    zero give every sample one score under any metric.
    """

    def _refused(self, tmp_path, capsys, text, message):
        out = tmp_path / "out"
        assert cli_main(["run", str(_write(tmp_path, text)), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"config error: invalid value for {message}\n"
        assert not out.exists()

    def _file_data(self, tmp_path, text):
        """``text`` reading a 3-feature, 4-class CSV file in place of synthetic data."""
        data = tmp_path / "data.csv"
        write_csv(data, np.random.default_rng(0).normal(size=(40, 3)), np.repeat(np.arange(4), 10))
        return text.replace("[data]", f"[data]\nsource = file\npath = {data}")

    @pytest.mark.parametrize("policy", ["bottom_k", "top_k"])
    def test_single_copy(self, tmp_path, capsys, policy):
        text = _SMALL.replace("bottom_k", policy) + "count = 1\n"
        self._refused(tmp_path, capsys, text, "count: BI needs at least 2 perturbed copies")

    def test_mask_of_no_feature(self, tmp_path, capsys):
        text = _SMALL + "kind = mask\nmask_fraction = 0.1\n"
        self._refused(tmp_path, capsys, text, "mask_fraction: masks 0 of 4 features, so BI copies are identical")

    def test_mask_of_no_feature_in_file_data(self, tmp_path, capsys):
        text = self._file_data(tmp_path, _SMALL) + "kind = mask\nmask_fraction = 0.1\n"
        self._refused(tmp_path, capsys, text, "mask_fraction: masks 0 of 3 features, so BI copies are identical")

    @pytest.mark.parametrize("policy", ["bottom_k", "top_k"])
    @pytest.mark.parametrize("metric", ["bi", "lc", "rc", "en"])
    def test_mask_of_every_feature(self, tmp_path, capsys, policy, metric):
        text = _SMALL.replace("bottom_k", policy).replace("metric = bi", f"metric = {metric}")
        text += "kind = mask\nmask_fraction = 0.9\n"
        self._refused(tmp_path, capsys, text, "mask_fraction: masks all 4 features, so every copy is zero")

    def test_mask_of_every_feature_in_file_data(self, tmp_path, capsys):
        text = self._file_data(tmp_path, _SMALL.replace("metric = bi", "metric = en"))
        text += "kind = mask\nmask_fraction = 0.9\n"
        self._refused(tmp_path, capsys, text, "mask_fraction: masks all 3 features, so every copy is zero")

    @pytest.mark.parametrize(
        "overrides",
        [
            {"uncertainty_metric": "lc"},
            {"memory_policy": "random"},
            {"memory_capacity": 0},
            {"perturbation_count": 2, "perturbation_kind": "mask", "mask_fraction": 0.25},
            {"memory_policy": "random", "perturbation_kind": "mask", "mask_fraction": 0.9},
            {"uncertainty_metric": "lc", "perturbation_kind": "mask", "mask_fraction": 0.75},
        ],
    )
    def test_copies_not_needed_or_distinct(self, overrides):
        ExperimentConfig(**{"perturbation_count": 1, **overrides}).check_copies(4)


_FLOAT_KEYS = sorted((section, key) for (section, key), (_, parse) in _SCHEMA.items() if parse is _parse_float)


class TestNonFiniteFloats:
    def test_every_float_key_is_covered(self):
        assert {key for _, key in _FLOAT_KEYS} == {
            "test_split",
            "center_spread",
            "cluster_sigma",
            "sigma",
            "mask_fraction",
            "learning_rate",
        }

    @pytest.mark.parametrize("raw", ["inf", "-inf", "nan"])
    @pytest.mark.parametrize("section,key", _FLOAT_KEYS)
    def test_rejected_through_cli_naming_the_key(self, tmp_path, capsys, section, key, raw):
        path = _write(tmp_path, f"[{section}]\n{key} = {raw}\n")
        assert cli_main(["run", str(path), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == f"config error: invalid value for {key}: must be finite\n"
        assert not (tmp_path / "out").exists()
