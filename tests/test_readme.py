"""The README's library example, which counts as part of the API, runs as written."""

import ast
import functools
import re
from pathlib import Path

import sensopt.training
from sensopt.training import TrainConfig

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_example() -> str:
    """The first python block of the README's "## Library use" section."""
    section = README.read_text(encoding="utf-8").split("\n## Library use\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_the_readme_library_example_prints_the_selected_settings(monkeypatch, capsys):
    # One epoch in place of the default's 100: the calls are under test, not the fit.
    monkeypatch.setattr(sensopt.training, "TrainConfig", functools.partial(TrainConfig, epochs=1))
    exec(compile(_library_example(), str(README), "exec"), {})
    settings = ast.literal_eval(capsys.readouterr().out.strip())
    assert isinstance(settings, tuple) and len(settings) == 5
    assert all(isinstance(value, float) for value in settings)
