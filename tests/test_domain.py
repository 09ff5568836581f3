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
at 2000 samples.  No cell is an expected failure: the root route bisects
theta to adjacent floats on a ``phi`` that does not cancel near the support's
ends, so every ``roots-check`` cell passes.  ``EXTRA`` adds cells the crossing
misses.
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

# Cells beyond the crossing of VALUES: an mc-check annulus edge past 1.34e154, whose square overflows.  The
# default margin of 0.2 would not clear r1 + r2 by the sampler's radius error there.
EXTRA = [("mc-check", "1.35e154", "5e151", ["--samples", "20000", "--bins", "2000", "--margin", "1e152"])]


def _cells():
    cells = [(command, r1, r2, ARGS[command]) for command in ARGS for r1 in VALUES for r2 in VALUES] + EXTRA
    return [pytest.param(*cell, id="-".join(cell[:3])) for cell in cells]


@pytest.mark.parametrize("command, r1, r2, args", _cells())
def test_exits_0_or_2(command, r1, r2, args, capsys):
    second = [arg.format(r2) for arg in SECOND.get(command, ["--r2", "{}"])]
    code = main([command, "--r1", r1, *second] + args)
    out, err = capsys.readouterr()
    if code == 2:
        assert err.startswith(ERRORS.get(command, "error: --r"))
    else:
        fails = [line for line in out.splitlines() if line.startswith("FAIL")]
        assert code == (1 if fails else 0) and err == ""
        assert all(line.startswith(STATISTICAL.get(command, ())) for line in fails)
