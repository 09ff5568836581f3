"""The radius commands over the whole float domain: every cell exits 0 or 2, and none warns.

Twelve radii from 1e-300 to 1e300 are crossed as ``--r1`` x ``--r2`` for the
commands that take no sample count, and for ``grid-check`` on a coarse grid.
Exit 0 means every verdict passed and exit 2 that an input rule named a flag:
a radius flag, or for ``grid-check`` the grid's ``--extent`` or ``--epsilon``.  A cell that still FAILs
(exit 1) is a strict xfail naming the ROADMAP item that mends it, so its mark
must go when that item lands.
"""

import pytest

from ringconv.cli import main

pytestmark = pytest.mark.filterwarnings("error")

VALUES = ["1e-300", "1e-150", "1e-12", "1e-9", "1e-3", "1", "3", "1e3", "1e7", "1e9", "1e150", "1e300"]
ARGS = {"profile": ["--points", "50"], "mass-check": [], "roots-check": [],
        "grid-check": ["--extent", "16", "--spacing", "0.08", "--epsilon", "0.16"]}
ERRORS = {"grid-check": ("error: --extent", "error: --epsilon")}

# These FAIL "root-path vs closed form on a radial sweep": the root route bisects a fixed
# bracket [1e-12, pi - 1e-12] to an absolute width of 1e-13.
ROOT_BISECTION = "ROADMAP item 3: the root route's bisection is not endpoint-adaptive"
ROOT_BISECTION_CELLS = [
    ("1e-12", "1e-3"), ("1e-12", "1"), ("1e-12", "3"),
    ("1e-9", "1"), ("1e-9", "3"), ("1e-9", "1e3"),
    ("1e-3", "1e-12"), ("1e-3", "1e7"), ("1e-3", "1e9"),
    ("1", "1e-12"), ("1", "1e-9"), ("1", "1e7"), ("1", "1e9"),
    ("3", "1e-12"), ("3", "1e-9"), ("3", "1e7"), ("3", "1e9"),
    ("1e3", "1e-9"), ("1e7", "1e-3"), ("1e7", "1"),
    ("1e9", "1e-3"), ("1e9", "1"), ("1e9", "3"),
]
# These also FAIL "minimum strictly below 1% perturbations": the support is about 18 ulps wide,
# so 1% of it rounds away.
THIN_PROBE = ROOT_BISECTION + "; ROADMAP item 5: the interior-minimum probe of a support a few ulps wide"
THIN_PROBE_CELLS = [("1e-12", "1e3"), ("1e3", "1e-12")]


def _cells():
    xfails = dict.fromkeys(ROOT_BISECTION_CELLS, ROOT_BISECTION) | dict.fromkeys(THIN_PROBE_CELLS, THIN_PROBE)
    for command in ARGS:
        for r1 in VALUES:
            for r2 in VALUES:
                reason = xfails.get((r1, r2)) if command == "roots-check" else None
                marks = [pytest.mark.xfail(strict=True, reason=reason)] if reason else []
                yield pytest.param(command, r1, r2, marks=marks, id=f"{command}-{r1}-{r2}")


@pytest.mark.parametrize("command, r1, r2", _cells())
def test_exits_0_or_2(command, r1, r2, capsys):
    code = main([command, "--r1", r1, "--r2", r2] + ARGS[command])
    out, err = capsys.readouterr()
    assert code in (0, 2)
    if code == 0:
        assert "FAIL" not in out and err == ""
    else:
        assert err.startswith(ERRORS.get(command, "error: --r"))
