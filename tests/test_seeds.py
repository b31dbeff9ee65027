"""Every draw derives from the master seed: no module makes a generator of its own."""

import ast
from pathlib import Path

import fedreplay

SOURCES = sorted(Path(fedreplay.__file__).parent.glob("*.py"))


def _names_default_rng(node) -> bool:
    """True for ``default_rng`` and any dotted name ending in it, such as ``np.random.default_rng``."""
    return (isinstance(node, ast.Name) and node.id == "default_rng") or (
        isinstance(node, ast.Attribute) and node.attr == "default_rng"
    )


def _unseeded_generators(tree):
    """Line numbers of ``default_rng()`` calls with no seed and of ``default_factory=...default_rng``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and _names_default_rng(node.func):
            seed = node.args[0] if node.args else next((k.value for k in node.keywords if k.arg == "seed"), None)
            if seed is None or (isinstance(seed, ast.Constant) and seed.value is None):
                yield node.lineno
        if isinstance(node, ast.keyword) and node.arg == "default_factory" and _names_default_rng(node.value):
            yield node.value.lineno


def test_no_unseeded_generator_in_the_package():
    assert {p.name for p in SOURCES} >= {"memory.py", "stream.py", "uncertainty.py"}
    found = [f"{p.name}:{line}" for p in SOURCES for line in _unseeded_generators(ast.parse(p.read_text()))]
    assert found == []


def test_checker_flags_each_pattern():
    text = """
import numpy as np
from numpy.random import default_rng
a = np.random.default_rng()
b = default_rng(None)
c = field(default_factory=np.random.default_rng)
d = np.random.default_rng(0)
e = default_rng(seed=1)
"""
    assert sorted(_unseeded_generators(ast.parse(text))) == [4, 5, 6]
