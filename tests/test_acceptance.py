"""Release gate: every acceptance criterion must hold at its stated tolerance.

Each criterion prints one pass/fail line via `collidesim validate`; here each
becomes one parametrized test so a red run points at the exact broken claim.
The statistical criteria (unbiasedness, coverage) take a few minutes combined.
"""

import itertools
from fractions import Fraction

import pytest
from scipy.stats import binom

from collidesim import acceptance
from fresh_interpreter import run_child


@pytest.mark.parametrize("name", [k for k, _ in acceptance.CRITERIA])
def test_criterion_passes(name):
    res = acceptance.run_criterion(name)
    assert res.name == name
    assert res.passed, f"FAIL {name}: {res.detail}"


def test_unknown_criterion_rejected():
    with pytest.raises(ValueError):
        acceptance.run_criterion("made-up")


def test_run_all_covers_every_criterion():
    names = [r.name for r in acceptance.run_all(["nonmarkov-reductions"])]
    assert names == ["nonmarkov-reductions"]
    assert len(acceptance.CRITERIA) == 9


def test_binomial_allowance_matches_scipy():
    quantile = acceptance._binom_quantile
    # the hoeffding-coverage allowance: (q, n_rep, delta) = (0.99, 200, 0.1)
    assert quantile(0.99, 200, 0.1) == int(binom.ppf(0.99, 200, 0.1)) == 30
    grid = itertools.product(
        (0.01, 0.05, 0.5, 0.9, 0.95, 0.99, 0.999),
        (1, 2, 5, 10, 30, 100, 200, 500),
        (0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99),
    )
    tie = (0.9, 1, 0.1)  # tested on its own below
    for q, n, p in grid:
        if (q, n, p) != tie:
            assert quantile(q, n, p) == int(binom.ppf(q, n, p)), (q, n, p)


def test_binomial_allowance_compares_exactly():
    # P[Bin(1, 0.1) <= 0] = 1 - 0.1 is exactly 0.9 in floats, where scipy
    # reads the quantile as 0; the binary values give 1 - p a little under q
    # (about 2.8e-17), so the exact rule moves on to k = 1
    assert 1 - Fraction(0.1) < Fraction(0.9)
    assert acceptance._binom_quantile(0.9, 1, 0.1) == 1
    # a CDF equal to q reaches it, including q = 1 at k = n
    assert acceptance._binom_quantile(0.5, 1, 0.5) == 0
    assert acceptance._binom_quantile(1.0, 3, 0.5) == 3


def test_validate_loads_no_scipy():
    # the three criteria that once took their exponentials and binomial
    # tail from scipy run on numpy alone
    names = "exact-map-equivalence,hoeffding-coverage,map-distance-bounds"
    code = (
        "from collidesim.cli import main; "
        "rc = main(['validate', '--only', sys.argv[1]]); "
        "print(rc, scipy_modules())"
    )
    out = run_child(code, names).strip().splitlines()
    assert [line.split()[0] for line in out[:-1]] == ["PASS"] * 3
    assert out[-1] == "0 []"
