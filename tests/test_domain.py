"""The radius commands over the whole float domain: every cell exits 0 or 2, and none warns.

Twelve values from 1e-300 to 1e300 are crossed as ``--r1`` x ``--r2`` for the
commands that take no sample count, ``surface`` and ``grid-check`` on coarse
grids, ``mc-check`` at 2000 samples, and as ``--r1`` x ``--b1 X 0`` for
``circle-average``.  Exit 0 means every verdict passed and exit 2 that an input
rule named a flag: a radius flag, for ``grid-check`` the grid's ``--extent`` or
``--epsilon``, for ``mass-check`` also ``--nodes`` where fewer nodes would meet
its node-rounding limit, for ``mc-check`` also ``--margin``, and for
``circle-average`` the radius or the centre ``--b1``.  ``mc-check`` may exit 1
when every FAIL is one of its two statistical verdicts, which fail by design
at 2000 samples.  Any other cell that FAILs is a strict xfail naming the
ROADMAP item that mends it, so its mark must go when that item lands.
"""

import pytest

from ringconv.cli import main

pytestmark = pytest.mark.filterwarnings("error")

VALUES = ["1e-300", "1e-150", "1e-12", "1e-9", "1e-3", "1", "3", "1e3", "1e7", "1e9", "1e150", "1e300"]
ARGS = {"profile": ["--points", "50"], "surface": ["--spacing", "0.5"], "mass-check": [], "roots-check": [],
        "grid-check": ["--extent", "16", "--spacing", "0.08", "--epsilon", "0.16"], "neumann-check": [],
        "circle-average": [], "mc-check": ["--samples", "2000", "--bins", "40"]}
ERRORS = {"grid-check": ("error: --extent", "error: --epsilon"), "circle-average": ("error: --r1", "error: --b1"),
          "mass-check": ("error: --r", "error: --nodes"), "mc-check": ("error: --r", "error: --margin")}
# The verdicts a command may FAIL by chance at the sweep's sizes.
STATISTICAL = {"mc-check": ("FAIL interior histogram agreement:", "FAIL sector uniformity (sigma units):")}
# The flag that takes the second value of a cell; circle-average has one radius, and the second value
# is the x coordinate of its centre.
SECOND = {"circle-average": ["--b1", "{}", "0"]}

# These FAIL "root-path vs closed form on a radial sweep": the root route bisects a fixed
# bracket [1e-12, pi - 1e-12] to an absolute width of 1e-13.
ROOT_BISECTION = "ROADMAP item 3: the root route's bisection is not endpoint-adaptive"
ROOT_BISECTION_CELLS = [
    ("1e-12", "1e-3"), ("1e-12", "1"), ("1e-12", "3"), ("1e-12", "1e3"),
    ("1e-9", "1"), ("1e-9", "3"), ("1e-9", "1e3"),
    ("1e-3", "1e-12"), ("1e-3", "1e7"), ("1e-3", "1e9"),
    ("1", "1e-12"), ("1", "1e-9"), ("1", "1e7"), ("1", "1e9"),
    ("3", "1e-12"), ("3", "1e-9"), ("3", "1e7"), ("3", "1e9"),
    ("1e3", "1e-12"), ("1e3", "1e-9"), ("1e7", "1e-3"), ("1e7", "1"),
    ("1e9", "1e-3"), ("1e9", "1"), ("1e9", "3"),
]
XFAILS = {"roots-check": dict.fromkeys(ROOT_BISECTION_CELLS, ROOT_BISECTION)}


def _cells():
    for command in ARGS:
        for r1 in VALUES:
            for r2 in VALUES:
                reason = XFAILS.get(command, {}).get((r1, r2))
                marks = [pytest.mark.xfail(strict=True, reason=reason)] if reason else []
                yield pytest.param(command, r1, r2, marks=marks, id=f"{command}-{r1}-{r2}")


@pytest.mark.parametrize("command, r1, r2", _cells())
def test_exits_0_or_2(command, r1, r2, capsys):
    second = [arg.format(r2) for arg in SECOND.get(command, ["--r2", "{}"])]
    code = main([command, "--r1", r1, *second] + ARGS[command])
    out, err = capsys.readouterr()
    if code == 2:
        assert err.startswith(ERRORS.get(command, "error: --r"))
    else:
        fails = [line for line in out.splitlines() if line.startswith("FAIL")]
        assert code == (1 if fails else 0) and err == ""
        assert all(line.startswith(STATISTICAL.get(command, ())) for line in fails)
