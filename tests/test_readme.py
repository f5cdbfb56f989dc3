"""The code examples in README.md run as documented.

Every ```python block is executed, and every ```ini block is run as a
config file through the CLI, which must exit 0.
"""

import re
from pathlib import Path

import pytest

from rvblab.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def _blocks(language):
    blocks = re.findall(rf"^```{language}\n(.*?)^```$", README.read_text(), flags=re.M | re.S)
    return [pytest.param(b, id=f"{language}-{i}") for i, b in enumerate(blocks)]


def test_readme_has_examples():
    # an empty parametrization below would skip, not fail
    assert _blocks("python") and _blocks("ini")


@pytest.mark.parametrize("source", _blocks("python"))
def test_python_block_runs(source):
    exec(compile(source, str(README), "exec"), {})


@pytest.mark.parametrize("config", _blocks("ini"))
def test_config_example_exits_zero(config, tmp_path):
    path = tmp_path / "run.ini"
    path.write_text(config)
    assert main(["--config", str(path), "--out", str(tmp_path / "out")]) == 0
