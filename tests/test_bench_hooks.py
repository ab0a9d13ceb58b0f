"""The benchmark under ``bench/`` traces sminlab functions by module and
name and replays Monte Carlo trials through public ``linalg`` functions;
these tests fail when a rename would leave a hook pointing at nothing."""

import ast
import inspect
import sys
import textwrap
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"
sys.path.insert(0, str(BENCH))

import layers  # noqa: E402
import workloads  # noqa: E402
from sminlab import linalg  # noqa: E402


@pytest.mark.parametrize("target", layers.targets(), ids=lambda t: t.name)
def test_traced_target_exists(target):
    assert callable(getattr(target.owner, target.attr, None))


def linalg_names(fn) -> set[str]:
    tree = ast.parse(textwrap.dedent(inspect.getsource(fn)))
    return {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "linalg"
    }


@pytest.mark.parametrize("fn", [workloads.tail_values, workloads.McTail._replay_counterexample])
def test_replayed_linalg_names_exist(fn):
    names = linalg_names(fn)
    assert {"singular_values", "RANK_RTOL"} <= names
    assert [name for name in sorted(names) if not hasattr(linalg, name)] == []
