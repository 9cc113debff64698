"""The range table: every interval in errors.RANGES is checked by
check_ranges, in one message form, and every entry is used in src/."""

import ast
import math
from pathlib import Path

import numpy as np
import pytest

import onsetkit
from onsetkit.errors import NOT_GIVEN, RANGES, ConfigError, check_ranges

SRC = Path(onsetkit.__file__).parent


def _rejects(name, value) -> bool:
    try:
        check_ranges(**{name: value})
    except ConfigError as e:
        assert str(e) == f"{name} must be in {RANGES[name]}, got {value!r}"
        return True
    return False


@pytest.mark.parametrize("name", sorted(RANGES))
def test_each_interval_holds_its_closed_ends_and_nothing_outside(name):
    interval = RANGES[name]
    lo, hi = (float(end) for end in interval[1:-1].split(","))
    for end, closed, outward in ((lo, interval[0] == "[", -math.inf),
                                 (hi, interval[-1] == "]", math.inf)):
        assert _rejects(name, end) is not closed
        if math.isfinite(end):
            assert _rejects(name, np.nextafter(end, outward).item())
            assert not _rejects(name, np.nextafter(end, -outward).item())
    assert _rejects(name, math.nan)
    if name in NOT_GIVEN:
        check_ranges(**{name: None})
    else:
        with pytest.raises(TypeError):
            check_ranges(**{name: None})


def _names_checked_in_src() -> set:
    """check_ranges keywords, and the fields of classes that call check_fields."""
    names = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "check_ranges":
                names |= {kw.arg for kw in node.keywords if kw.arg}
            if isinstance(node, ast.ClassDef) and any(
                    getattr(n, "id", None) == "check_fields" for n in ast.walk(node)):
                names |= {n.target.id for n in node.body if isinstance(n, ast.AnnAssign)}
    return names


def test_every_range_is_used_in_src():
    assert set(RANGES) - _names_checked_in_src() == set()
