import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

import germdeform as gd

GOLDEN_MARGIN_D2 = -0.5345188487842418  # log(log 5)/3 - log 2, the peak ratio


def fibonacci(n: int) -> int:
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def test_golden_convergents_are_fibonacci():
    cf = gd.ContinuedFraction(gd.golden_quotients(80))
    conv = cf.convergents()
    assert len(conv) == 80
    for i, (p, q) in enumerate(conv, start=1):
        assert p == fibonacci(i)
        assert q == fibonacci(i + 1)


def test_golden_value():
    cf = gd.ContinuedFraction(gd.golden_quotients(40))
    assert cf.value() == pytest.approx((math.sqrt(5) - 1) / 2)


def test_pell_denominators():
    cf = gd.ContinuedFraction(gd.pell_quotients(6))
    qs = [q for _, q in cf.convergents()]
    assert qs == [2, 5, 12, 29, 70, 169]


def test_golden_margin_negative():
    cf = gd.ContinuedFraction(gd.golden_quotients(40))
    margin = gd.cremer_margin(cf, 2)
    assert margin < 0
    assert margin == pytest.approx(GOLDEN_MARGIN_D2)


def test_margin_grows_with_degree_drop():
    # the same rotation number clears a smaller degree threshold more easily;
    # degree enters only through -log(d)
    cf = gd.ContinuedFraction(gd.golden_quotients(40))
    m2 = gd.cremer_margin(cf, 2)
    m3 = gd.cremer_margin(cf, 3)
    assert m3 == pytest.approx(m2 + math.log(2) - math.log(3))


def test_tower_quotients_frozen():
    qs = gd.tower_quotients(seed=2, count=8)
    assert qs[0] == 2
    assert qs[1] == 257421778131727866134528
    # only the prefix that fits in memory is materialized
    assert len(qs) == 2


def test_tower_margin_positive():
    qs = gd.tower_quotients(seed=2, count=8)
    cf = gd.ContinuedFraction(qs)
    ratios = gd.growth_ratios(cf)
    assert len(ratios) >= 1
    for _, _, r in ratios:
        assert r - math.log(2) > 0
    margin = gd.cremer_margin(cf, 2)
    assert margin == pytest.approx(1.3068528194400546)
    # from seed 4 on, e^{2 q_1} passes 700, so the second quotient comes from
    # _ceil_exp_div's big-integer branch; log log q_2 / q_1 is still 2
    for seed in (4, 5, 6):
        cf = gd.ContinuedFraction(gd.tower_quotients(seed=seed, count=3))
        assert gd.cremer_margin(cf, 2) == pytest.approx(2 - math.log(2), abs=1e-12)


def test_growth_ratio_contents():
    cf = gd.ContinuedFraction(gd.golden_quotients(10))
    rows = gd.growth_ratios(cf)
    for n, q, r in rows:
        assert isinstance(q, int)
        assert r > 0
    # denominators are increasing Fibonacci numbers
    assert [q for _, q, _ in rows] == sorted(q for _, q, _ in rows)


def test_growth_ratio_past_float_range():
    # q_n of the golden mean leaves the float range near n = 1477; the
    # ratio is then the correctly rounded quotient, deep in the subnormals
    cf = gd.ContinuedFraction(gd.golden_quotients(1500))
    n, q_n, r = gd.growth_ratios(cf)[-1]
    q_next = cf.convergents()[n][1]
    assert q_n > 2**1024
    assert r == float(Fraction(math.log(math.log(q_next))) / q_n)
    assert 0 < r < 1e-300


def test_margin_window():
    cf = gd.ContinuedFraction(gd.golden_quotients(40))
    full = gd.cremer_margin(cf, 2)
    tail = gd.cremer_margin(cf, 2, window=5)
    # golden ratios converge from above, so a trailing window is no larger
    assert tail <= full + 1e-12


def test_margin_requires_data():
    with pytest.raises(gd.InsufficientDataError):
        gd.cremer_margin(gd.ContinuedFraction((1,)), 2)


def test_quotients_must_be_positive_integers():
    with pytest.raises(gd.DomainError):
        gd.ContinuedFraction((1, 0, 2))
    with pytest.raises(gd.DomainError):
        gd.ContinuedFraction((1, -3))
    with pytest.raises(gd.DomainError):
        gd.ContinuedFraction(())


def test_a_bool_is_not_a_quotient():
    # True is an int to isinstance, and would read as the quotient 1
    with pytest.raises(gd.DomainError, match="partial quotients"):
        gd.ContinuedFraction((True, 2))
    with pytest.raises(gd.DomainError, match="seed quotient"):
        gd.tower_quotients(seed=True, count=2)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda cf: gd.ContinuedFraction((1, 2.0)), r"partial quotients\[1\] must be an integer"),
        (lambda cf: gd.golden_quotients(2.5), "count must be an integer"),
        (lambda cf: gd.pell_quotients(True), "count must be an integer"),
        (lambda cf: gd.tower_quotients(seed=2.0), "seed quotient must be an integer"),
        (lambda cf: gd.tower_quotients(count=2.5), "count must be an integer"),
        (lambda cf: gd.cremer_margin(cf, 2.5), "degree must be an integer"),
        (lambda cf: gd.cremer_margin(cf, True), "degree must be an integer"),
        (lambda cf: gd.cremer_margin(cf, 2, window=2.5), "window must be an integer"),
        (lambda cf: gd.margin_rows_csv(cf, 2.0), "degree must be an integer"),
        (lambda cf: gd.margin_rows_csv(cf, 0), "degree must be >= 2"),
        (lambda cf: gd.margin_rows_csv(cf, 1), "degree must be >= 2"),
    ],
    ids=[
        "float-quotient", "golden-float-count", "pell-bool-count", "float-seed", "tower-float-count",
        "float-degree", "bool-degree", "float-window", "rows-float-degree", "rows-degree-0",
        "rows-degree-1",
    ],
)
def test_integer_arguments_are_refused_by_name(call, message):
    cf = gd.ContinuedFraction(gd.golden_quotients(10))
    with pytest.raises(gd.DomainError, match="^" + message):
        call(cf)


def test_numpy_integers_are_integers():
    quotients = np.array([1, 2] * 50, dtype=np.int64)
    cf = gd.ContinuedFraction(tuple(quotients))
    # the convergents stay exact past 64 bits
    assert cf.convergents() == gd.ContinuedFraction(tuple(quotients.tolist())).convergents()
    assert cf.convergents()[-1][1] > 2**64
    assert gd.golden_quotients(np.int64(3)) == (1, 1, 1)
    assert gd.tower_quotients(seed=np.int64(2), count=np.int32(3)) == gd.tower_quotients(2, 3)
    assert gd.cremer_margin(cf, np.int64(2), window=np.int64(5)) == gd.cremer_margin(cf, 2, window=5)
    assert gd.margin_rows_csv(cf, np.int64(3)) == gd.margin_rows_csv(cf, 3)


def test_quotients_are_kept_as_a_tuple_of_python_ints():
    # an array of two quotients ended in numpy's ambiguous truth value, and
    # a list was kept as a list, so the frozen fraction was unhashable
    forms = [[1, 2, 3], (1, 2, 3), np.array([1, 2, 3]), iter([1, 2, 3])]
    fractions = [gd.ContinuedFraction(q) for q in forms]
    assert all(cf == fractions[0] for cf in fractions)
    assert len({hash(cf) for cf in fractions}) == 1
    for cf in fractions:
        assert cf.quotients == (1, 2, 3)
        assert all(type(a) is int for a in cf.quotients)


@pytest.mark.parametrize("quotients", [3, 2.5, None, np.int64(3)], ids=["int", "float", "none", "numpy-int"])
def test_quotients_that_are_not_iterable_are_refused(quotients):
    with pytest.raises(gd.DomainError, match=r"^partial quotients must be an iterable \(got "):
        gd.ContinuedFraction(quotients)


def test_csv_rows():
    cf = gd.ContinuedFraction(gd.golden_quotients(10))
    text = gd.margin_rows_csv(cf, 2)
    lines = text.strip().split("\n")
    assert lines[0] == "n,q_n,ratio,margin"
    assert len(lines) > 2


@given(st.lists(st.integers(1, 50), min_size=2, max_size=20))
def test_convergents_neighbor_determinant(quotients):
    conv = gd.ContinuedFraction(tuple(quotients)).convergents()
    for (p0, q0), (p1, q1) in zip(conv, conv[1:]):
        assert abs(p1 * q0 - p0 * q1) == 1
