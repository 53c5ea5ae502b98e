import sys
from pathlib import Path

import pytest
from hypothesis import settings

TESTS_DIR = Path(__file__).resolve().parent
REPO_ROOT = TESTS_DIR.parent
FIXTURES = REPO_ROOT / "fixtures"

sys.path.insert(0, str(TESTS_DIR))

# `--hypothesis-profile=deep` runs each property without its own example
# count, such as test_library_model_prints_diagrams_and_evaluates, 5,000 times
settings.register_profile("deep", max_examples=5000, deadline=None)

from dimcalc.checker import check_model
from dimcalc.parser import parse_model


def load_model(name: str):
    path = FIXTURES / name
    return parse_model(path.read_text(encoding="utf-8"), file=name)


def load_checked(name: str):
    return check_model(load_model(name))


@pytest.fixture(scope="session")
def acme_model():
    return load_model("acme.dml")


@pytest.fixture(scope="session")
def acme_checked(acme_model):
    return check_model(acme_model)


@pytest.fixture(scope="session")
def pricing_model():
    return load_model("pricing.dml")


@pytest.fixture(scope="session")
def pricing_checked(pricing_model):
    return check_model(pricing_model)
