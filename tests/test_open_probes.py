"""The probe ledger: each open probe of ROADMAP.md as a strict-xfail test.

Each test asserts the correct outcome, which the library does not give
yet, so it is expected to fail.  A change that mends a probe turns its
test into an XPASS, which fails under ``strict``: that change drops the
marker and names the test in CHANGES.md.

Two checks pin P1's wrong outcome as expected and conflict with this file:
``tests/test_detector.py::test_adjacent_swaps_on_the_line_certify_however_their_distance_rounds``
(k = 4 and 5 among others) and CI's "Eval certify through the console
script" step (k = 104).  Items 6 and 14 settle them.
"""

from fractions import Fraction

import numpy as np
import pytest

from renormlab import WeightedComposition, triple_norm
from renormlab.detector import certify
from renormlab.operators import multiplication


@pytest.mark.xfail(strict=True, reason="ROADMAP item 14 (and 24), probe P1")
def test_p1_the_swap_of_x4_and_x5_is_not_certified(line_cfg):
    # the swap moves the norm of the indicator of x_4 by 1.56e-3, far above
    # both truncation bounds (8.06e-64)
    space = line_cfg.space
    fwd = np.arange(space.n)
    fwd[[4, 5]] = [5, 4]
    T = WeightedComposition(space, np.ones(space.n), fwd, fwd.copy())
    assert certify(T, line_cfg).verdict != "certified-in-G"


@pytest.mark.xfail(strict=True, reason="ROADMAP item 16(a), probe P6")
def test_p6_a_weight_off_one_by_5e_10_is_rejected(line_cfg):
    assert certify(multiplication(line_cfg.space, 1 + 5e-10), line_cfg).verdict == "rejected"


@pytest.mark.xfail(strict=True, reason="ROADMAP item 17, probe P7")
def test_p7_the_norm_of_a_base_indicator_is_at_most_the_exact_lambda(line_cfg):
    # README's sandwich as stated: value <= true, where the true norm of
    # the indicator of base point i is lambda_i = 1 + (11/10 - 1) 2^-i
    for i in range(1, 13):
        x = np.zeros(line_cfg.space.n)
        x[line_cfg.base_points[i - 1]] = 1.0
        exact = 1 + (Fraction(11, 10) - 1) * Fraction(1, 2**i)
        assert Fraction(triple_norm(x, line_cfg).value) <= exact, i
