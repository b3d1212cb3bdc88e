"""Ratchet on the tolerance literals of the package.

A tolerance literal is a number token with an exponent (1e-12, 2.5e-8) in
a module's code; comments and strings do not count. Each module may hold
at most the count below, so a new literal is a deliberate change of this
table, and a module that sheds some lowers its entry.
"""

import io
import tokenize
from pathlib import Path

import pytest

import bellqkd

MAX_LITERALS = {
    "__init__.py": 0,
    "__main__.py": 0,
    "cli.py": 0,
    "filtering.py": 12,
    "metrics.py": 3,
    "protocol_sim.py": 1,
    "states.py": 3,
}

PACKAGE = Path(bellqkd.__file__).parent


def tolerance_literals(source: str) -> int:
    tokens = tokenize.generate_tokens(io.StringIO(source).readline)
    return sum(1 for tok in tokens
               if tok.type == tokenize.NUMBER and "e" in tok.string.lower()
               and not tok.string.lower().startswith("0x"))


def test_every_module_has_a_count():
    assert sorted(p.name for p in PACKAGE.glob("*.py")) == sorted(MAX_LITERALS)


@pytest.mark.parametrize("name", sorted(MAX_LITERALS))
def test_tolerance_literals_within_count(name):
    n = tolerance_literals((PACKAGE / name).read_text(encoding="utf-8"))
    assert n <= MAX_LITERALS[name], (
        f"{name} has {n} tolerance literals, above its count of "
        f"{MAX_LITERALS[name]}: name and justify the new one, and raise the "
        f"count here deliberately")
