"""The exact simplex, checked against vertex enumeration and against scipy."""

from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vcgames.exactlp import Unbounded, maximize

F = Fraction


def test_simple_two_var():
    # max x + y st x <= 2, y <= 3, x + y <= 4
    val, x = maximize(
        [F(1), F(1)],
        [[F(1), F(0)], [F(0), F(1)], [F(1), F(1)]],
        [F(2), F(3), F(4)],
    )
    assert val == 4
    assert x[0] + x[1] == 4


def test_fractional_optimum():
    # max 3x + 2y st x + y <= 4, 2x + y <= 6: unique optimum at (2, 2)
    val, x = maximize(
        [F(3), F(2)],
        [[F(1), F(1)], [F(2), F(1)]],
        [F(4), F(6)],
    )
    assert val == 10
    assert x == [F(2), F(2)]


def test_exact_rationals_survive():
    val, x = maximize([F(1)], [[F(3)]], [F(1)])
    assert val == F(1, 3)
    assert x == [F(1, 3)]


def test_unbounded():
    with pytest.raises(Unbounded):
        maximize([F(1), F(1)], [[F(1), F(-1)]], [F(1)])


def test_zero_objective():
    val, x = maximize([F(0), F(0)], [[F(1), F(1)]], [F(5)])
    assert val == 0
    assert x == [F(0), F(0)]


def test_degenerate_rhs():
    # a zero rhs forces a degenerate vertex; Bland's rule must still terminate
    val, x = maximize(
        [F(1), F(1)],
        [[F(1), F(0)], [F(1), F(1)]],
        [F(0), F(2)],
    )
    assert val == 2
    assert x == [F(0), F(2)]


def test_negative_rhs_rejected():
    with pytest.raises(ValueError):
        maximize([F(1)], [[F(1)]], [F(-1)])


def test_row_length_mismatch():
    with pytest.raises(ValueError):
        maximize([F(1), F(1)], [[F(1)]], [F(1)])


@pytest.mark.parametrize("rhs", [[], [F(1), F(2)]], ids=["short", "long"])
def test_rhs_length_mismatch(rhs):
    with pytest.raises(ValueError, match="rhs"):
        maximize([F(1)], [[F(1)]], rhs)


@pytest.mark.parametrize(
    "c, rows, rhs",
    [
        ([0.1], [[1]], [F(3, 10)]),
        ([1], [[0.5]], [F(3, 10)]),
        ([1], [[1]], [0.3]),
    ],
    ids=["c", "rows", "rhs"],
)
def test_float_refused(c, rows, rhs):
    with pytest.raises(ValueError, match="float"):
        maximize(c, rows, rhs)


def test_int_entries_give_fractions():
    val, x = maximize([1, 1], [[1, 0], [1, 1]], [1, F(3, 2)])
    assert val == F(3, 2) and type(val) is Fraction
    assert x == [1, F(1, 2)] and all(type(xi) is Fraction for xi in x)


def test_bland_vertex_on_tied_lp():
    # every point of the edge from (1, 0) to (0, 1) is optimal; Bland's rule
    # enters x first and stops at (1, 0)
    val, x = maximize([1, 1], [[1, 1], [1, 0], [0, 1]], [1, 1, 1])
    assert val == 1
    assert x == [1, 0]


def test_bland_leaving_row_on_ratio_tie():
    # x enters first, tied between rows 1 and 3; the lower slack (row 1)
    # leaves, and the walk ends at (0, 0, 1), not at the equally good (0, 1, 0)
    val, x = maximize([1, 2, 2], [[2, 0, 1], [0, 1, 0], [2, 2, 2]], [2, 2, 2])
    assert val == 2
    assert x == [0, 0, 1]


fracs = st.fractions(min_value=F(-4), max_value=F(4), max_denominator=5)
pos_fracs = st.fractions(min_value=F(0), max_value=F(6), max_denominator=5)
# rhs with denominators up to 2^900, as continuous dynamics reach 868 bits
big_fracs = st.integers(1, 2**900).flatmap(
    lambda den: st.integers(0, 6 * den).map(lambda num: F(num, den))
)


def _det(a):
    if not a:
        return F(1)
    return sum(
        (-1) ** j * a[0][j] * _det([row[:j] + row[j + 1 :] for row in a[1:]])
        for j in range(len(a))
        if a[0][j]
    )


def _dot(u, v):
    return sum((F(a) * b for a, b in zip(u, v)), F(0))


def _vertices(rows, rhs, k):
    """Every point of {y : rows.y <= rhs} in k dimensions where k of the
    inequalities are independent and tight, solved by Cramer's rule."""
    for tight in combinations(range(len(rows)), k):
        a = [list(rows[i]) for i in tight]
        det = _det(a)
        if det == 0:
            continue
        y = []
        for j in range(k):
            aj = [row[:j] + [rhs[i]] + row[j + 1 :] for row, i in zip(a, tight)]
            y.append(_det(aj) / det)
        if all(_dot(row, y) <= b for row, b in zip(rows, rhs)):
            yield y


def _bounds(k):
    return [[-int(i == j) for j in range(k)] for i in range(k)]  # -y_i <= 0


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 3).flatmap(
        lambda n: st.tuples(
            st.lists(st.one_of(st.integers(-4, 4), fracs), min_size=n, max_size=n),
            st.integers(1, 4).flatmap(
                lambda m: st.tuples(
                    st.lists(
                        st.lists(st.one_of(st.integers(-4, 4), fracs), min_size=n, max_size=n),
                        min_size=m,
                        max_size=m,
                    ),
                    st.lists(st.one_of(pos_fracs, big_fracs), min_size=m, max_size=m),
                )
            ),
        )
    )
)
def test_against_vertex_enumeration(data):
    c, (rows, rhs) = data
    n, m = len(c), len(rows)
    # the primal's vertices, and the dual's: min b.y st A^T y >= c, y >= 0;
    # x = 0 is feasible, so the LP is bounded iff the dual has a vertex
    primal = list(_vertices(rows + _bounds(n), rhs + [0] * n, n))
    dual_rows = [[-rows[i][j] for i in range(m)] for j in range(n)]
    dual = list(_vertices(dual_rows + _bounds(m), [-cj for cj in c] + [0] * m, m))
    if not dual:
        with pytest.raises(Unbounded):
            maximize(c, rows, rhs)
        return
    val, x = maximize(c, rows, rhs)
    assert val == max(_dot(c, v) for v in primal) == min(_dot(rhs, y) for y in dual)
    assert val == _dot(c, x)
    assert all(xi >= 0 for xi in x)
    for row, b in zip(rows, rhs):
        assert _dot(row, x) <= b


@settings(max_examples=30, deadline=None)
@given(
    st.integers(1, 3).flatmap(
        lambda n: st.tuples(
            st.lists(fracs, min_size=n, max_size=n),
            st.integers(1, 4).flatmap(
                lambda m: st.tuples(
                    st.lists(
                        st.lists(fracs, min_size=n, max_size=n),
                        min_size=m,
                        max_size=m,
                    ),
                    st.lists(pos_fracs, min_size=m, max_size=m),
                )
            ),
        )
    )
)
def test_against_scipy(data):
    pytest.importorskip("scipy")
    from scipy.optimize import linprog

    c, (rows, rhs) = data
    n = len(c)
    try:
        val, x = maximize(c, rows, rhs)
    except Unbounded:
        # scipy's status codes are unreliable on degenerate unbounded inputs,
        # so certify the verdict ourselves: a ray d in [0,1]^n with A d <= 0
        # and c.d > 0 proves unboundedness by plain arithmetic
        box = [[F(int(i == j)) for j in range(n)] for i in range(n)]
        _, d = maximize(c, list(rows) + box, [F(0)] * len(rows) + [F(1)] * n)
        assert all(di >= 0 for di in d)
        for row in rows:
            assert sum(a * di for a, di in zip(row, d)) <= 0
        assert sum(ci * di for ci, di in zip(c, d)) > 0
        return
    # solution must be feasible and match scipy's optimum to float tolerance
    for row, b in zip(rows, rhs):
        assert sum(a * xi for a, xi in zip(row, x)) <= b
    assert all(xi >= 0 for xi in x)
    res = linprog(
        [-float(ci) for ci in c],
        A_ub=[[float(a) for a in row] for row in rows],
        b_ub=[float(b) for b in rhs],
        bounds=[(0, None)] * len(c),
        method="highs",
    )
    assert res.status == 0
    assert abs(float(val) + res.fun) < 1e-7


@settings(max_examples=100, deadline=None)
@given(
    st.integers(1, 3).flatmap(
        lambda n: st.tuples(
            st.lists(st.one_of(st.integers(-4, 4), fracs), min_size=n, max_size=n),
            st.integers(1, 4).flatmap(
                lambda m: st.lists(
                    st.lists(st.one_of(st.integers(-4, 4), fracs), min_size=n, max_size=n),
                    min_size=m,
                    max_size=m,
                )
            ),
        )
    ),
    st.data(),
    st.integers(1, 2**300) | st.fractions(F(1, 50), F(50), max_denominator=50),
)
def test_rhs_scale_scales_value_and_vertex(lp, data, s):
    # a common positive rhs scale changes no pivot: the exact best response
    # relies on this to pass integer bounds over its price scale
    c, rows = lp
    rhs = data.draw(st.lists(pos_fracs | st.integers(0, 9), min_size=len(rows), max_size=len(rows)))
    try:
        val, x = maximize(c, rows, rhs)
    except Unbounded:
        with pytest.raises(Unbounded):
            maximize(c, rows, [s * b for b in rhs])
        return
    assert maximize(c, rows, [s * b for b in rhs]) == (s * val, [s * xi for xi in x])


def _int_lps(entries):
    return st.integers(1, 4).flatmap(
        lambda n: st.tuples(
            st.lists(entries, min_size=n, max_size=n),
            st.integers(1, 6).flatmap(
                lambda m: st.tuples(
                    st.lists(st.lists(entries, min_size=n, max_size=n), min_size=m, max_size=m),
                    st.lists(st.integers(0, 9) | st.integers(0, 2**900), min_size=m, max_size=m),
                )
            ),
        )
    )


@settings(max_examples=150, deadline=None)
@given(_int_lps(st.integers(0, 1)) | _int_lps(st.integers(-4, 4)))
def test_int_lp_matches_the_same_lp_as_fractions(lp):
    # an all-int LP skips the per-row scaling, which would build the same
    # tableau; the exact best response's 0/1 rows and integer bounds (up to
    # 2^900 over its price scale) take that route
    c, (rows, rhs) = lp
    as_fractions = ([F(a) for a in c], [[F(a) for a in row] for row in rows], [F(b) for b in rhs])
    try:
        val, x = maximize(c, rows, rhs)
    except Unbounded:
        with pytest.raises(Unbounded):
            maximize(*as_fractions)
        return
    assert maximize(*as_fractions) == (val, x)
    assert type(val) is Fraction and all(type(xi) is Fraction for xi in x)


divisors = st.integers(1, 50) | st.integers(1, 2**300)


@settings(max_examples=150, deadline=None)
@given(_int_lps(st.integers(0, 1)) | _int_lps(st.integers(-4, 4)), st.data(), divisors)
def test_row_scales_keep_the_vertex(lp, data, c_div):
    # dividing a row together with its rhs by its own positive integer
    # leaves the feasible set as it is, and dividing c only divides the
    # value; a rational LP's tableau scales each row back by its own lcm,
    # so Bland's rule walks to the int LP's vertex
    c, (rows, rhs) = lp
    row_divs = data.draw(st.lists(divisors, min_size=len(rows), max_size=len(rows)))
    scaled = (
        [F(a, c_div) for a in c],
        [[F(a, k) for a in row] for row, k in zip(rows, row_divs)],
        [F(b, k) for b, k in zip(rhs, row_divs)],
    )
    try:
        val, x = maximize(c, rows, rhs)
    except Unbounded:
        with pytest.raises(Unbounded):
            maximize(*scaled)
        return
    assert maximize(*scaled) == (val / c_div, x)
