import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

from volforge.errors import FitError
from volforge.simplex import minimize_simplex


def counted(fn):
    """fn with a count of its calls in .calls."""
    def wrapper(x):
        wrapper.calls += 1
        return fn(x)
    wrapper.calls = 0
    return wrapper


def scipy_simplex(fn, x0, max_iter):
    """The oracle: scipy's Nelder-Mead with minimize_simplex's simplex and caps."""
    x0 = np.asarray(x0, dtype=float)
    if max_iter is None:
        max_iter = 500 * len(x0)
    sim = np.tile(x0, (len(x0) + 1, 1))
    for i, v in enumerate(x0):
        sim[i + 1, i] += 0.1 if v == 0 else 0.1 * abs(v) + 0.1 * 0.1
    with np.errstate(invalid="ignore"):   # inf - inf in scipy's convergence test
        res = minimize(fn, x0, method="Nelder-Mead",
                       options={"initial_simplex": sim, "xatol": 1e-8, "fatol": 1e-8,
                                "maxiter": max_iter, "maxfev": 4 * max_iter})
    return res.x, float(res.fun), int(res.nit)


def assert_matches_scipy(fn, x0, max_iter=None):
    """Equal x bytes, fun, nit and objective calls, or a FitError where scipy's fun is not finite."""
    ref_fn, our_fn = counted(fn), counted(fn)
    x_ref, f_ref, nit_ref = scipy_simplex(ref_fn, x0, max_iter)
    if math.isfinite(f_ref):
        x, f, nit = minimize_simplex(our_fn, x0, max_iter)
    else:
        with pytest.raises(FitError) as info:
            minimize_simplex(our_fn, x0, max_iter)
        d = info.value.diagnostics
        x, f, nit = np.array(d["x"]), d["fun"], d["nit"]
    assert x.tobytes() == x_ref.tobytes()
    assert f == f_ref or (math.isnan(f) and math.isnan(f_ref))
    assert (nit, our_fn.calls) == (nit_ref, ref_fn.calls)


def objective(kind, c, radius, outside):
    """A test objective centred on c; `outside` is its value beyond `radius`."""
    def base(x):
        if kind == "quadratic":
            return sum((i + 1.0) * (v - m) ** 2 for i, (v, m) in enumerate(zip(x, c)))
        if kind == "rosenbrock":
            return (sum(100.0 * (x[i + 1] - x[i] ** 2) ** 2 + (1.0 - x[i]) ** 2
                        for i in range(len(x) - 1)) + (x[0] - c[0]) ** 2)
        if kind == "abs":
            return sum(abs(v - m) for v, m in zip(x, c))
        if kind == "linear":   # its minimum, if any, lies on the region's edge
            return sum(m * v for v, m in zip(x, c))
        # a staircase: whole regions of equal values, so vertices tie
        return math.floor(4.0 * sum((v - m) ** 2 for v, m in zip(x, c))) / 4.0

    def fn(x):
        if outside is not None and sum(v * v for v in x) > radius:
            return outside
        return base(x)
    return fn


coords = st.floats(-2.0, 2.0, allow_nan=False) | st.sampled_from([0.0, -0.0, 1.0])


@st.composite
def problems(draw):
    dim = draw(st.integers(1, 8))
    kind = draw(st.sampled_from(["quadratic", "rosenbrock", "abs", "linear", "steps"]))
    c = draw(st.lists(coords, min_size=dim, max_size=dim))
    x0 = draw(st.lists(coords, min_size=dim, max_size=dim))
    # None is no region; 1e12 is garch_fit's plateau for a rejected point
    outside = draw(st.sampled_from([None, 1e12, math.nan, math.inf]))
    radius = draw(st.floats(0.5, 8.0))
    max_iter = draw(st.sampled_from([1, 2, 5, 40, None]))
    return objective(kind, c, radius, outside), x0, max_iter


class TestScipyOracle:
    @settings(max_examples=200, deadline=None)
    @given(problems())
    def test_same_bits_iterations_and_calls(self, problem):
        assert_matches_scipy(*problem)

    def test_plateau_ties_match(self):
        # garch_fit's 1e12 plateau ties vertices outside the ball.  np.argsort
        # need not keep ties in input order (numpy's SIMD sorts do not), and on
        # such a host a stable sort walks this simplex to another end.
        assert_matches_scipy(objective("abs", [0.8, 1.0, -0.3, -0.0], 1.7, 1e12),
                             [-0.9, 0.5, 0.3, -0.5])

    def test_nan_vertex_at_collapse_matches(self):
        # the simplex collapses onto the edge of a NaN region with a NaN vertex
        # left; |f_0 - NaN| <= tol is False, so it goes on, as np.max has it
        assert_matches_scipy(lambda x: -float(sum(x)) if sum(x) < 1.0 else math.nan,
                             [0.0] * 3)


class TestContract:
    def test_quadratic_minimum(self):
        x, f, nit = minimize_simplex(lambda x: float((x[0] - 1.5) ** 2 + (x[1] + 0.5) ** 2),
                                     [0.0, 0.0])
        np.testing.assert_allclose(x, [1.5, -0.5], atol=1e-6)
        assert f < 1e-12 and 1 < nit < 1000

    def test_each_call_gets_its_own_float_list(self):
        seen = []

        def fn(x):
            assert type(x) is list and all(type(v) is float for v in x)
            seen.append(x)
            return sum(v * v for v in x)
        minimize_simplex(fn, np.array([1.0, 2.0]), max_iter=20)
        assert len({id(x) for x in seen}) == len(seen)

    def test_objective_may_mutate_its_argument(self):
        def fn(x):
            return sum((i + 1.0) * (v - 0.3) ** 2 for i, v in enumerate(x))

        def mutating(x):
            f = fn(x)
            x[0] += 1.0
            return f
        x0 = [0.5, -1.0, 2.0]
        x, f, nit = minimize_simplex(mutating, x0)
        x_ref, f_ref, nit_ref = minimize_simplex(fn, x0)
        assert (x.tobytes(), f.hex(), nit) == (x_ref.tobytes(), f_ref.hex(), nit_ref)

    def test_evaluations_capped_at_four_times_iterations(self):
        fn = counted(lambda x: sum(abs(v - 3.0) for v in x))
        _, _, nit = minimize_simplex(fn, [0.0] * 4, max_iter=10)
        assert fn.calls <= 40 and nit <= 10

    def test_nan_vertex_raises_fit_error(self):
        # a cap of one iteration leaves the initial simplex, NaN vertex and all
        with pytest.raises(FitError) as info:
            minimize_simplex(lambda x: math.nan if x[0] > 0.05 else float(x[0] ** 2),
                             [0.0], max_iter=1)
        assert math.isnan(info.value.diagnostics["fun"])
