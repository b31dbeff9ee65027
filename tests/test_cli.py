"""The command line: what each command prints, and that every command takes one path."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from test_golden import _BASE
from test_stream import write_csv

import fedreplay
from fedreplay.cli import main as cli_main
from fedreplay.config import _SCHEMA, ExperimentConfig, parse_config


def _ini(**overrides):
    """The golden regime, with ``overrides``, as config file text."""
    fields = {**_BASE, **overrides}
    sections = {}
    for (section, key), (attr, _) in _SCHEMA.items():
        if attr in fields:
            value = fields[attr]
            if isinstance(value, tuple):
                value = ", ".join(map(str, value))
            sections.setdefault(section, []).append(f"{key} = {value}\n")
    return "".join(f"[{section}]\n" + "".join(lines) for section, lines in sections.items())


def _write(path, text):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)
    return path


def _tree(root):
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


class TestStdout:
    def test_run(self, tmp_path, capsys):
        config = _write(tmp_path / "exp.ini", _ini(seed=3))
        out = tmp_path / "out"
        assert cli_main(["run", str(config), "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        rounds = len((out / "rounds.log").read_text().splitlines())
        assert rounds > 0
        assert capsys.readouterr().out == (
            f"A={summary['avg_last_accuracy']:.4f} F={summary['avg_last_forgetting']:.4f} "
            f"rounds={rounds} seed=3 out={out}\n"
        )

    def test_grid(self, tmp_path, capsys):
        grid = tmp_path / "grid"
        _write(grid / "a.ini", _ini())
        _write(grid / "b.ini", _ini(memory_policy="random"))
        _write(grid / "a.cfg", _ini())  # only .ini files are grid configs
        _write(grid / "notes.txt", "not a config")
        (grid / "c.ini").mkdir()  # a directory is not a config file, whatever its name
        out = tmp_path / "gout"
        assert cli_main(["grid", str(grid), "--out", str(out)]) == 0
        lines = []
        for stem in ("a", "b"):
            summary = json.loads((out / stem / "summary.json").read_text())
            lines.append(f"{stem}: A={summary['avg_last_accuracy']:.4f} F={summary['avg_last_forgetting']:.4f}\n")
        assert capsys.readouterr().out == "".join(lines)
        assert sorted(p.name for p in out.iterdir()) == ["a", "b"]

    def test_dump_memory(self, tmp_path, capsys):
        config = _write(tmp_path / "exp.ini", _ini())
        out = tmp_path / "mem"
        assert cli_main(["dump-memory", str(config), "--out", str(out)]) == 0
        dumps = sorted(out.iterdir())
        assert [p.name for p in dumps] == ["memory_0.csv", "memory_1.csv"]
        stored = sum(len(p.read_text().splitlines()) - 1 for p in dumps)
        assert stored > 0
        assert capsys.readouterr().out == f"dumped 2 memory snapshots to {out} (total stored: {stored})\n"

    @pytest.mark.parametrize("command,prefix", [("run", "acc_matrix"), ("dump-memory", "memory")])
    def test_force_removes_an_earlier_runs_client_files(self, tmp_path, capsys, command, prefix):
        """A 2-client rerun under ``--force`` over a 3-client output leaves no third client's file, and only those go."""
        out = tmp_path / "out"
        config = _write(tmp_path / "c3.ini", _ini(clients=3))
        assert cli_main([command, str(config), "--out", str(out)]) == 0
        assert (out / f"{prefix}_2.csv").exists()
        (out / "notes.txt").write_text("kept")
        config = _write(tmp_path / "c2.ini", _ini(clients=2))
        assert cli_main([command, str(config), "--out", str(out), "--force"]) == 0
        assert sorted(p.name for p in out.glob(f"{prefix}_*.csv")) == [f"{prefix}_0.csv", f"{prefix}_1.csv"]
        assert (out / "notes.txt").read_text() == "kept"

    @pytest.mark.parametrize("command", ["run", "grid"])
    def test_seed_option(self, tmp_path, capsys, command):
        config = _write(tmp_path / "grid" / "exp.ini", _ini(seed=0))
        path, summary = (config.parent, "out/exp/summary.json") if command == "grid" else (config, "out/summary.json")
        assert cli_main([command, str(path), "--seed", "3", "--out", str(tmp_path / "out")]) == 0
        assert json.loads((tmp_path / summary).read_text())["seed"] == 3

    def test_help_names_every_command(self, capsys):
        with pytest.raises(SystemExit) as exit_:
            cli_main(["--help"])
        assert exit_.value.code == 0
        assert "{run,grid,dump-memory}" in capsys.readouterr().out


def test_grid_writes_the_bytes_of_run(tmp_path, capsys):
    """``grid`` runs each file exactly as ``run`` does."""
    grid = tmp_path / "grid"
    cases = {"bottom_k": {}, "top_k_lc": {"memory_policy": "top_k", "uncertainty_metric": "lc"}}
    for stem, overrides in cases.items():
        path = _write(grid / f"{stem}.ini", _ini(**overrides))
        assert parse_config(path).echo() == ExperimentConfig(**{**_BASE, **overrides}).echo()
    assert cli_main(["grid", str(grid), "--out", str(tmp_path / "g")]) == 0
    for stem in cases:
        assert cli_main(["run", str(grid / f"{stem}.ini"), "--out", str(tmp_path / "r" / stem)]) == 0
    grid_tree, run_tree = _tree(tmp_path / "g"), _tree(tmp_path / "r")
    assert len(grid_tree) == 2 * 5  # summary.json, per_client.csv, 2 accuracy matrices, rounds.log
    assert grid_tree == run_tree


def test_run_bytes_do_not_follow_the_blas_thread_count(tmp_path):
    """A 3-client run where rounds fire writes the same bytes on one and on two BLAS threads."""
    config = _write(tmp_path / "exp.ini", _ini(clients=3))
    src = str(Path(fedreplay.__file__).parents[1])
    trees = []
    for threads in ("1", "2"):
        out = tmp_path / f"out{threads}"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        argv = [sys.executable, "-m", "fedreplay.cli", "run", str(config), "--out", str(out)]
        subprocess.run(argv, env=env, check=True, capture_output=True)
        assert (out / "rounds.log").read_text().count("\n") > 0
        trees.append(_tree(out))
    assert sorted(trees[0]) == [
        "acc_matrix_0.csv", "acc_matrix_1.csv", "acc_matrix_2.csv", "per_client.csv", "rounds.log", "summary.json"
    ]
    assert trees[0] == trees[1]


class TestConfigErrors:
    """Mistakes in the named config path are config errors (exit 1) that create nothing."""

    def _refused(self, tmp_path, capsys, argv, err):
        before = _tree(tmp_path)
        assert cli_main(argv + ["--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr() == ("", err)
        assert _tree(tmp_path) == before
        assert not (tmp_path / "out").exists()

    def test_grid_missing_directory(self, tmp_path, capsys):
        missing = tmp_path / "nope"
        err = f"config error: cannot read config directory: [Errno 2] No such file or directory: '{missing}'\n"
        self._refused(tmp_path, capsys, ["grid", str(missing)], err)

    def test_grid_path_is_a_file(self, tmp_path, capsys):
        config = _write(tmp_path / "exp.ini", _ini())
        err = f"config error: cannot read config directory: [Errno 20] Not a directory: '{config}'\n"
        self._refused(tmp_path, capsys, ["grid", str(config)], err)

    def test_task_too_small_to_split(self, tmp_path, capsys):
        config = _write(tmp_path / "exp.ini", _ini(classes=2, samples_per_class=1, tasks=2))
        err = "config error: invalid value for tasks: task 1 has 1 example, too few for a train/test split\n"
        self._refused(tmp_path, capsys, ["run", str(config)], err)

    def test_client_without_training_examples(self, tmp_path, capsys):
        config = _write(tmp_path / "exp.ini", _ini(clients=5, classes=2, samples_per_class=3, tasks=2))
        err = "config error: invalid value for clients: task 1 has only 2 training examples\n"
        self._refused(tmp_path, capsys, ["run", str(config)], err)

    @pytest.mark.parametrize(
        "field,value,err",
        [
            ("clients", "1_0", "clients: '1_0' is not an integer"),
            ("learning_rate", "0.1_5", "learning_rate: '0.1_5' is not a number"),
            ("seed", "\u0663", "seed: '\u0663' is not an integer"),
            ("hidden_dims", "6_4", "hidden: '6_4' is not a comma-separated int list"),
        ],
    )
    def test_number_with_separator_or_non_ascii_digit(self, tmp_path, capsys, field, value, err):
        """Python's ``int`` and ``float`` read ``1_0`` as 10 and Arabic-Indic digits as digits; a config refuses both."""
        config = tmp_path / "exp.ini"
        config.write_text(_ini(**{field: value}), encoding="utf-8")
        self._refused(tmp_path, capsys, ["run", str(config)], f"config error: invalid value for {err}\n")

    @pytest.mark.parametrize("command", ["run", "grid"])
    @pytest.mark.parametrize("seed", ["1_0", "\u0663"])
    def test_seed_option_with_separator_or_non_ascii_digit(self, tmp_path, capsys, command, seed):
        """``--seed`` is read as the config's ``seed`` is: ``1_0`` and ``\u0663`` are refused, not read as 10 and 3."""
        config = _write(tmp_path / "grid" / "exp.ini", _ini())
        path = config.parent if command == "grid" else config
        err = f"config error: invalid value for seed: {seed!r} is not an integer\n"
        self._refused(tmp_path, capsys, [command, str(path), "--seed", seed], err)

    @pytest.mark.parametrize("text", ["[DEFAULT]\nseed = 3\n", "[DEFAULT]\nseed = 3\n\n[data]\nclasses = 6\n"])
    def test_default_section_rejected(self, tmp_path, capsys, text):
        config = _write(tmp_path / "exp.ini", text)
        self._refused(tmp_path, capsys, ["run", str(config)], "config error: unknown config section [DEFAULT]\n")


class TestValuesAreLiteral:
    """A ``%`` in a value is an ordinary character, not interpolation syntax."""

    def test_data_file_name_with_percent(self, tmp_path, capsys):
        data = tmp_path / "100%_data.csv"
        write_csv(data, np.random.default_rng(0).normal(size=(60, 4)), np.repeat(np.arange(6), 10))
        config = _write(tmp_path / "exp.ini", _ini(data_source="file", data_path=str(data)))
        assert cli_main(["run", str(config), "--out", str(tmp_path / "out")]) == 0
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["config"]["data"]["path"] == str(data)

    def test_output_dir_echoed_verbatim(self, tmp_path, capsys):
        config = _write(tmp_path / "exp.ini", _ini(output_dir="out%(x)s"))
        assert cli_main(["run", str(config), "--out", str(tmp_path / "out")]) == 0
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["config"]["output_dir"] == "out%(x)s"
