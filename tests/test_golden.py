import dataclasses
import json
import math
import re

import pytest

from allencahn.experiments import convergence_study

from golden_outputs import GOLDEN, SHAPES, environment, snapshot, te_guess_misses

# On other numpy or scipy versions the transforms may round differently;
# floats are then compared to this relative tolerance, everything else
# (step and branch counts, divergence, names) exactly.
RTOL = 1e-8

# a float as repr writes it; integers (step counts) stay in the text
_FLOAT = re.compile(r"(-?\d+\.\d*(?:e[-+]?\d+)?|-?\d+e[-+]?\d+|-?inf|nan)")


def _close(a: str, b: str) -> bool:
    """The two reprs have the same text, integers included, and floats
    equal to RTOL."""
    pa, pb = _FLOAT.split(a), _FLOAT.split(b)
    if len(pa) != len(pb):
        return False
    for i, (x, y) in enumerate(zip(pa, pb)):
        if i % 2 == 0:
            if x != y:
                return False
        elif not (x == y or math.isclose(float(x), float(y), rel_tol=RTOL)):
            return False
    return True


def _leaves(tree, path=""):
    if isinstance(tree, dict):
        for k, v in tree.items():
            yield from _leaves(v, f"{path}/{k}")
    elif isinstance(tree, list):
        yield path, len(tree)
        for i, v in enumerate(tree):
            yield from _leaves(v, f"{path}[{i}]")
    else:
        yield path, tree


def _differences(fresh: dict, pinned: dict, exact: bool) -> list[str]:
    if exact:
        return [k for k in pinned if fresh[k] != pinned[k]]
    return [
        k for k in pinned
        if (isinstance(pinned[k], int) and fresh[k] != pinned[k])
        or (isinstance(pinned[k], str) and not _close(fresh[k], pinned[k]))
    ]


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_file_covers_every_shape(golden):
    assert sorted(golden["shapes"]) == sorted(SHAPES)
    for key in ("numpy", "scipy", "python", "platform"):
        assert golden["environment"][key]


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("name", list(SHAPES))
def test_outputs_equal_golden_file(golden, name, threads):
    # Bitwise on the versions the file was written with; on others, step
    # counts exactly and floats to RTOL, and the test says so.  Regenerate
    # the file with tests/golden_outputs.py when outputs move on purpose.
    cfg = SHAPES[name]
    result = convergence_study(dataclasses.replace(cfg, threads=threads))
    if name == "te-guess-miss":
        assert te_guess_misses(cfg, result) == [0.25]
    fresh = dict(_leaves(snapshot(result)))
    pinned = dict(_leaves(golden["shapes"][name]))
    assert fresh.keys() == pinned.keys()
    env, here = golden["environment"], environment()
    exact = (env["numpy"], env["scipy"]) == (here["numpy"], here["scipy"])
    if not exact:
        print(
            f"golden {name}: numpy {here['numpy']} / scipy {here['scipy']} against "
            f"the file's {env['numpy']} / {env['scipy']}; compared integers "
            f"exactly and floats to rtol {RTOL}"
        )
    differ = _differences(fresh, pinned, exact)
    assert not differ, [(k, pinned[k], fresh[k]) for k in differ[:5]]


def test_tolerant_comparison_keeps_integers_exact():
    pinned = "SampleOutcome(error=0.5, steps=4, max_sup=1.0, min_step=inf, x=nan)"
    assert _close(pinned, pinned.replace("0.5", "0.5000000000001"))
    assert not _close(pinned, pinned.replace("0.5", "0.5001"))
    assert not _close(pinned, pinned.replace("steps=4", "steps=5"))
    assert not _close(pinned, pinned.replace("inf", "1e+300"))
    assert _close("a=1e-05", "a=1.0000000000001e-05")


def test_tolerant_comparison_of_a_shape(golden):
    pinned = dict(_leaves(golden["shapes"]["smoke"]))
    key = "/cells[0]/outcomes[0]"
    nudged = dict(pinned)
    nudged[key] = pinned[key].replace("error=", "error=1")
    assert _differences(pinned, pinned, True) == []
    assert _differences(nudged, pinned, False) == [key]
    nudged[key] = re.sub(r"steps=(\d+)", lambda m: f"steps={int(m[1]) + 1}", pinned[key])
    assert _differences(nudged, pinned, False) == [key]
