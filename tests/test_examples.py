"""Every example imports, and runs only when executed as a script.

CI runs each example to completion.  Tier-1 imports them, which is cheap
and catches an example that names something the package no longer
exports, and checks that each one guards ``main()`` behind
``__main__``, so that importing it runs nothing.
"""

import importlib.util
from pathlib import Path

import pytest

EXAMPLES = sorted((Path(__file__).resolve().parents[1] / "examples").glob("*.py"))


def test_there_are_examples():
    assert len(EXAMPLES) >= 8


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda path: path.stem)
def test_example_imports_without_running(path, capsys):
    spec = importlib.util.spec_from_file_location(f"example_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.main)
    assert 'if __name__ == "__main__":\n    main()' in path.read_text(encoding="utf-8")
    assert capsys.readouterr().out == ""  # importing it ran nothing
