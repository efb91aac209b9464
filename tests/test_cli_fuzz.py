"""Config fuzz of the command line: every bounded config, well typed or not,
ends in exit code 0, 2 or 3 with no traceback, and a valid config with a
non-number inside one of its lists ends in 2 before any work."""

import contextlib
import copy
import io
import json
import math
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from germdeform import cli, cremer
from germdeform.cli import main

MALFORMED = st.one_of(
    st.none(),
    st.booleans(),
    st.sampled_from(["", "1", "x"]),
    st.just([]),
    st.just({}),
    st.sampled_from([float("nan"), float("inf"), -1e300, 0.5]),
)


def maybe(values):
    """A value of the right type seven times in eight, else a malformed one.
    The valid choices come first, so examples shrink toward them."""
    return st.integers(1, 8).flatmap(lambda k: MALFORMED if k == 8 else values)


def polar(moduli):
    """[re, im] pairs of the given moduli at any argument."""
    return st.tuples(moduli, st.floats(-3.2, 3.2)).map(
        lambda ra: [ra[0] * math.cos(ra[1]), ra[0] * math.sin(ra[1])]
    )


GERM = maybe(
    st.fixed_dictionaries(
        {
            "coeffs": st.sampled_from(
                [
                    [[2, 0], [1, 0]],
                    [[-0.5, 1.2], [1, 0]],
                    [[2, 0], [1, 0], [0.2, 0]],
                    [[0.5, 0], [1, 0]],
                    [[1, 0], [1, 0]],
                ]
            )
        },
        optional={"radius_U": maybe(st.sampled_from([3.0, 1.5, 0.5, -1.0]))},
    )
)
ORDER = maybe(st.sampled_from([1, 2, 3, 0]))
INDEX = maybe(st.sampled_from([0, 1, 2, -1]))
ORDERS = maybe(st.lists(ORDER, min_size=1, max_size=3))
TARGET = maybe(polar(st.sampled_from([3.0, 1.5, 6.0, 20.0, 0.5])))
# the grid is always given, so no solve runs at a default grid
GRID = {"grid": maybe(st.sampled_from([32, 16, 24, 30, 17, 14]))}
SOLVER = {
    "pad": maybe(st.sampled_from([1, 2, 0])),
    "solver_tol": maybe(st.sampled_from([1e-8, 1e-4, 1e-12, 0.0, -1.0])),
}
DEFORMATIONS = maybe(
    st.lists(
        maybe(st.fixed_dictionaries({"order": ORDER, "target": TARGET}, optional={"cycle_index": INDEX})),
        min_size=1,
        max_size=2,
    )
)
CONFIGS = {
    "straighten": st.fixed_dictionaries(dict(GRID, germ=GERM, deformations=DEFORMATIONS), optional=SOLVER),
    "render": st.fixed_dictionaries(
        dict(GRID, germ=GERM, deformations=DEFORMATIONS),
        optional=dict(SOLVER, lines=maybe(st.integers(-1, 40)), field_csv=maybe(st.booleans())),
    ),
    "motion": st.fixed_dictionaries(
        {
            **GRID,
            "germ": GERM,
            "t_values": maybe(st.lists(maybe(polar(st.sampled_from([0.4, 0.3, 0.9, 0.0, 1.05]))), min_size=1, max_size=3)),
            "points": maybe(st.lists(maybe(polar(st.floats(0.0, 0.4))), min_size=1, max_size=2)),
        },
        optional=dict(SOLVER, orders=ORDERS),
    ),
    "cycles": st.fixed_dictionaries({"germ": GERM, "orders": ORDERS}),
    "koenigs": st.fixed_dictionaries(
        {"germ": GERM, "order": ORDER}, optional={"cycle_index": INDEX, "base_index": INDEX}
    ),
    "deform-local": st.fixed_dictionaries(
        {"germ": GERM, "order": ORDER, "target": TARGET}, optional={"cycle_index": INDEX}
    ),
}


def run_config(command: str, cfg) -> tuple[int, str]:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cfg.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            rc = main([command, "--config", str(path), "--out", str(Path(tmp) / "out")])
    return rc, err.getvalue()


@pytest.mark.parametrize("command", sorted(CONFIGS))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_configs_keep_the_exit_contract(command, data):
    rc, err = run_config(command, data.draw(CONFIGS[command]))
    assert rc in (0, 2, 3), (rc, err)
    assert "Traceback" not in err
    assert (rc == 0) == (err == "")


QUAD = {"coeffs": [[2, 0], [1, 0]]}
TARGET_3 = [{"order": 1, "target": [3.0, 0.0]}]
VALID = {
    "cycles": {"germ": dict(QUAD, radius_U=3.0), "orders": [1, 2]},
    "koenigs": {"germ": QUAD, "order": 1},
    "deform-local": {"germ": QUAD, "order": 1, "target": [3.0, 0.0]},
    "straighten": {"germ": QUAD, "deformations": TARGET_3, "grid": 32},
    "render": {"germ": QUAD, "deformations": TARGET_3, "grid": 32},
    "motion": {"germ": QUAD, "t_values": [[0.4, 0.0]], "points": [[0.1, 0.0]], "orders": [1], "grid": 32},
    "cremer": {"quotients": [1, 2, 3], "degree": 2},
}
# the first call of each command past its config
WORK = [(cli, name) for name in ("find_cycles", "repelling_cycle", "global_deform", "motion_sample")]
WORK.append((cremer, "growth_ratios"))


def list_numbers(node, path=()):
    """Paths to the numbers that sit inside a list: pair entries and list
    integers, not the numbers under an object key."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from list_numbers(value, path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            if isinstance(value, (int, float)):
                yield path + (i,)
            else:
                yield from list_numbers(value, path + (i,))


@pytest.mark.parametrize("command", sorted(VALID))
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_a_non_number_in_a_list_exits_2_before_any_work(command, data):
    cfg = copy.deepcopy(VALID[command])
    path = data.draw(st.sampled_from(list(list_numbers(cfg))))
    node = cfg
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = data.draw(st.sampled_from([True, False, "", "1", None, [], {}]))
    with contextlib.ExitStack() as stack:
        for owner, name in WORK:
            stack.enter_context(mock.patch.object(owner, name, side_effect=AssertionError("work ran")))
        rc, err = run_config(command, cfg)
    assert rc == 2, (path, err)
    # the message names the innermost key on the path
    assert [k for k in path if isinstance(k, str)][-1] in err, (path, err)
