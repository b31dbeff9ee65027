"""Config file parsing, defaults, and validation."""

import numpy as np
import pytest

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
        assert config.fedprox_mu == 0.01
        assert config.test_split == 0.2

    def test_defaults_validate_standalone(self):
        ExperimentConfig().validate()


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

    def test_unknown_key_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown config key"):
            parse_config(_write(tmp_path, "[experiment]\nclinets = 5\n"))

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


class TestIdenticalBICopies:
    """BI over copies that are all the same scores every sample 0, so such a config is refused."""

    def _refused(self, tmp_path, capsys, text, message):
        out = tmp_path / "out"
        assert cli_main(["run", str(_write(tmp_path, text)), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"config error: invalid value for {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("policy", ["bottom_k", "top_k"])
    def test_single_copy(self, tmp_path, capsys, policy):
        text = _SMALL.replace("bottom_k", policy) + "count = 1\n"
        self._refused(tmp_path, capsys, text, "count: BI needs at least 2 perturbed copies")

    def test_mask_of_no_feature(self, tmp_path, capsys):
        text = _SMALL + "kind = mask\nmask_fraction = 0.1\n"
        self._refused(tmp_path, capsys, text, "mask_fraction: masks 0 of 4 features, so BI copies are identical")

    def test_mask_of_no_feature_in_file_data(self, tmp_path, capsys):
        from fedreplay.stream import save_vector_dataset

        data = tmp_path / "data.csv"
        save_vector_dataset(data, np.random.default_rng(0).normal(size=(40, 3)), np.repeat(np.arange(4), 10), "csv")
        text = _SMALL.replace("[data]", f"[data]\nsource = file\npath = {data}") + "kind = mask\nmask_fraction = 0.1\n"
        self._refused(tmp_path, capsys, text, "mask_fraction: masks 0 of 3 features, so BI copies are identical")

    @pytest.mark.parametrize(
        "overrides",
        [
            {"uncertainty_metric": "lc"},
            {"memory_policy": "random"},
            {"memory_capacity": 0},
            {"perturbation_count": 2, "perturbation_kind": "mask", "mask_fraction": 0.25},
        ],
    )
    def test_copies_not_needed_or_distinct(self, overrides):
        ExperimentConfig(**{"perturbation_count": 1, **overrides}).check_bi_copies(4)


_FLOAT_KEYS = sorted((section, key) for (section, key), (_, parse) in _SCHEMA.items() if parse is _parse_float)


class TestNonFiniteFloats:
    def test_every_float_key_is_covered(self):
        assert {key for _, key in _FLOAT_KEYS} == {
            "test_split",
            "center_spread",
            "cluster_sigma",
            "sigma",
            "mask_fraction",
            "fedprox_mu",
            "learning_rate",
        }

    @pytest.mark.parametrize("raw", ["inf", "-inf", "nan"])
    @pytest.mark.parametrize("section,key", _FLOAT_KEYS)
    def test_rejected_through_cli_naming_the_key(self, tmp_path, capsys, section, key, raw):
        path = _write(tmp_path, f"[{section}]\n{key} = {raw}\n")
        assert cli_main(["run", str(path), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == f"config error: invalid value for {key}: must be finite\n"
        assert not (tmp_path / "out").exists()
