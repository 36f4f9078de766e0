import sys
from pathlib import Path

import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).resolve().parent))

# Example counts of the tests that leave theirs to the profile: "default"
# for Tier-1, "ci" (pytest --hypothesis-profile=ci) five times as many,
# with the examples derived from each test, the same on every run.
DEFAULT_EXAMPLES = 30
settings.register_profile("default", max_examples=DEFAULT_EXAMPLES)
settings.register_profile("ci", max_examples=5 * DEFAULT_EXAMPLES, derandomize=True)

from bvsum import BvFunction, load_function  # noqa: E402

CORPUS_DIR = Path(__file__).resolve().parent.parent / "corpus"

CORPUS_NAMES = sorted(p.name for p in CORPUS_DIR.glob("*.json"))

# text nested n levels deep: n ops on one path, or n open parentheses
DEEP = {
    "sum": lambda n: "+".join(["x"] * (n + 1)),
    "minus": lambda n: "-" * n + "x",
    "power": lambda n: "^".join(["x"] + ["1"] * n),
    "parentheses": lambda n: "(" * n + "x" + ")" * n,
}


@pytest.fixture(scope="session")
def corpus() -> dict[str, BvFunction]:
    return {p.name: load_function(p) for p in sorted(CORPUS_DIR.glob("*.json"))}


@pytest.fixture(scope="session")
def corpus_dir() -> Path:
    return CORPUS_DIR


def corpus_path(name: str) -> Path:
    return CORPUS_DIR / name
