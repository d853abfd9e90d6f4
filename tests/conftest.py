"""Fixtures shared by test modules: one tiny run of the seeded recipe
(tools/recipe.py) per session, which test_recipe and test_cli both read."""

import importlib.util
from pathlib import Path

import pytest

RECIPE_SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "recipe.py"


@pytest.fixture(scope="session")
def recipe():
    spec = importlib.util.spec_from_file_location("recipe", RECIPE_SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="session")
def tiny_record(recipe, tmp_path_factory):
    """The ``recipe.json`` of ``tools/recipe.py OUT --tiny``; its stage
    directories sit beside it."""
    out = tmp_path_factory.mktemp("recipe") / "run"
    assert recipe.main([str(out), "--tiny"]) == 0
    return out / recipe.RECORD
