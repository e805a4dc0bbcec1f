"""Self-test of the benchmark's oracles: every op kind accepts its real
result and reports one corrupted result.

Run from the root of a checkout:

    PYTHONPATH=src python3 -m pytest -q perfbench/test_checks.py
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402


class _Unchanged(Exception):
    pass


def _bump(value):
    """The same structure with its first int (depth first) changed."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, (tuple, list)):
        for i, item in enumerate(value):
            try:
                new = _bump(item)
            except _Unchanged:
                continue
            return value[:i] + type(value)([new]) + value[i + 1:]
    raise _Unchanged


def corrupt_biject(res):
    # one image replaced by another
    dom, images, back, cod = res
    return dom, [images[1]] + images[1:], back, cod


def corrupt_ext_table(res):
    cells, expansions = res
    cells = dict(cells)
    key = next(iter(cells))
    cells[key] += 1
    return cells, expansions


def corrupt_walk_codec(cells):
    # in the largest cell, one object's image replaced by another's
    idx = max(range(len(cells)), key=lambda i: len(cells[i][1]))
    cell, dom, cod, images, back = cells[idx]
    out = list(cells)
    out[idx] = (cell, dom, cod, [images[1]] + images[1:], back)
    return out


# kinds not listed here get _bump of their result
CORRUPT = {"biject": corrupt_biject, "ext-table": corrupt_ext_table, "walk-codec": corrupt_walk_codec}


@pytest.fixture(scope="module")
def perm_count_plan():
    return workloads.build_perm_count(0)


@pytest.fixture(scope="module")
def ext_graph_plan():
    return workloads.build_ext_graph(0)


@pytest.fixture(scope="module")
def tableau_round():
    inp = workloads.tableau_inputs()
    return workloads.tableau_round(inp, random.Random(0))


def _assert_check_catches(op):
    result = op.run()
    assert op.check(result) is None, f"{op.label}: real result rejected"
    problem = op.check(CORRUPT.get(op.kind, _bump)(result))
    assert problem is not None, f"{op.label}: corrupted result accepted"


@pytest.mark.parametrize("kind", ["count", "count-da", "biject"])
def test_perm_count_checks(perm_count_plan, kind):
    ops = [op for op in perm_count_plan.rounds[0] if op.kind == kind]
    _assert_check_catches(min(ops, key=lambda op: op.label))


@pytest.mark.parametrize("kind", ["ext-table", "discover", "walk-codec"])
def test_ext_graph_checks(ext_graph_plan, kind):
    ext_graph_plan.before_round()
    discover = next(op for op in ext_graph_plan.rounds[0] if op.kind == "discover" and "{132}" in op.label)
    if kind == "discover":
        _assert_check_catches(discover)
        return
    if kind == "walk-codec":
        discover.run()
        op = next(o for o in ext_graph_plan.rounds[0] if o.after == discover.label and o.label.endswith("d=2"))
    else:
        op = next(o for o in ext_graph_plan.rounds[0] if o.kind == kind and "{132}" in o.label)
    _assert_check_catches(op)


@pytest.mark.parametrize("kind", list(workloads.TABLEAU_ROUND))
def test_tableau_checks(tableau_round, kind):
    _assert_check_catches(next(op for op in tableau_round if op.kind == kind))


def test_failing_op_is_counted_not_fatal():
    """The round loop records a raising op as failed and keeps going."""
    import child

    bad = workloads.Op("count", "raises", lambda: 1 // 0, lambda res: None)
    good = workloads.Op("count", "passes", lambda: 3, lambda res: workloads._mismatch("x", res, 3))
    plan = workloads.Plan([[bad, good]], lambda: None)
    log = child.Log()
    child.run_rounds(plan, workloads, log, rounds=2)
    assert log.attempted == {"count": 4}
    assert log.failed == {"count": 2}
    assert log.first_failure.startswith("raises: raised ZeroDivisionError")
