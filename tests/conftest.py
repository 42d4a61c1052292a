import math

import numpy as np
import pytest
from hypothesis import settings

from lineactions.maps import FLOAT_INVERSE_WIDTH, TrigPolyLift

# `pytest --hypothesis-profile=ci` (the CI tier-1 step) prints, for a failing
# randomized test, the blob that replays it with @reproduce_failure
settings.register_profile("ci", print_blob=True)


def phase_sine_lift_of(amplitude, phase):
    """x + amplitude sin(2 pi (x - phase)) as a trigonometric-polynomial lift."""
    t = 2 * math.pi * phase
    return TrigPolyLift(1, 0.0, (-amplitude * math.sin(t),), (amplitude * math.cos(t),))


def reference_invert_float(lift, y):
    """invert_float as it was before a Newton step could be accepted on a
    bound: every answer is an iterate whose own evaluation met the stopping
    test.  The reference for the bits of both inverse forms."""
    deg, f0 = lift.degree, lift._f0
    t = (y - f0) / deg
    a = math.floor(t)
    while f0 + deg * a > y:
        a -= 1
    while f0 + deg * (a + 1) < y:
        a += 1
    a, b = float(a), float(a + 1)
    starts = lift._starts_view
    cells = len(starts) - 1
    u = min(max((t - a) * cells, 0.0), cells)
    i = min(int(u), cells - 1)
    x = a + (starts[i] + (u - i) * (starts[i + 1] - starts[i]))
    tol = 1e-14 * max(1.0, abs(y))
    for step in range(80):
        per, slope = lift._value_slope(x)
        fx = deg * x + per - y
        d = deg + slope
        xn = x - fx / d if d > 0 else x
        if abs(fx) <= tol and (step or xn == x):
            return x
        if fx < 0:
            a = x
        else:
            b = x
        if not (a <= xn <= b) or xn == x:
            xn = 0.5 * (a + b)
        x = xn
        if b - a <= FLOAT_INVERSE_WIDTH * max(1.0, abs(x)):
            break
    return x


def reference_invert_array(lift, ys):
    """invert_array as it was before a Newton step could be accepted on a bound."""
    deg, f0 = lift.degree, lift._f0
    t = (ys - f0) / deg
    a = np.floor(t)
    while (over := f0 + deg * a > ys).any():
        a[over] -= 1.0
    while (under := f0 + deg * (a + 1.0) < ys).any():
        a[under] += 1.0
    b = a + 1.0
    starts = lift._starts
    cells = len(starts) - 1
    u = np.clip((t - a) * cells, 0.0, cells)
    i = np.minimum(u.astype(np.intp), cells - 1)
    x = a + (starts[i] + (u - i) * (starts[i + 1] - starts[i]))
    tol = 1e-14 * np.maximum(1.0, np.abs(ys))
    todo = np.arange(len(ys))
    for step in range(80):
        if not todo.size:
            break
        xt = x[todo]
        per, slope = lift._series(xt)
        fx = deg * xt + (lift.a0 + per) - ys[todo]
        d = deg + slope
        newton = d > 0
        xn = np.where(newton, xt - fx / np.where(newton, d, 1.0), xt)
        going = np.abs(fx) > tol[todo]
        if not step:
            going |= xn != xt
        todo, xt, fx, xn = todo[going], xt[going], fx[going], xn[going]
        at, bt = np.where(fx < 0, xt, a[todo]), np.where(fx < 0, b[todo], xt)
        a[todo], b[todo] = at, bt
        xn = np.where((at <= xn) & (xn <= bt) & (xn != xt), xn, 0.5 * (at + bt))
        x[todo] = xn
        todo = todo[bt - at > FLOAT_INVERSE_WIDTH * np.maximum(1.0, np.abs(xn))]
    return x


@pytest.fixture(scope="session")
def phase_sine_lift():
    return phase_sine_lift_of


@pytest.fixture(scope="session")
def reference_inverse():
    """(invert_float, invert_array) of TrigPolyLift as they were before a
    Newton step could be accepted on a bound, taking the lift first."""
    return reference_invert_float, reference_invert_array
