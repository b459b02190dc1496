import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from mstpp.geometry import (
    ErosionError,
    Window,
    cone_volume,
    cylinder_volume,
    direction_in_cone,
    erode_window,
    unit_ball_volume,
)

from .conftest import UNIT
from .oracles import mc_volume, wedge_contains


class TestVolumes:
    def test_unit_ball(self):
        assert unit_ball_volume(1) == pytest.approx(2.0)
        assert unit_ball_volume(2) == pytest.approx(math.pi)
        assert unit_ball_volume(3) == pytest.approx(4.0 * math.pi / 3.0)

    def test_cylinder_examples(self):
        assert cylinder_volume(0.1, 0.1, 2) == pytest.approx(0.00628319, abs=1e-8)
        assert cylinder_volume(0.0, 5.0, 2) == 0.0
        assert cylinder_volume(1.0, 0.5, 3) == pytest.approx(4.18879, abs=1e-5)

    @pytest.mark.parametrize("r,t,d", [(0.1, 0.1, 2), (0.3, 0.2, 2), (0.5, 0.5, 3)])
    def test_cylinder_against_monte_carlo(self, r, t, d):
        def indicator(dx, dt):
            return (np.linalg.norm(dx, axis=1) <= r) & (np.abs(dt) <= t)

        est = mc_volume(indicator, r, t, d, n_samples=1_000_000, seed=7)
        assert est == pytest.approx(cylinder_volume(r, t, d), rel=0.01)

    def test_cone_against_monte_carlo(self):
        phi, psi, r, t = 0.0, math.pi / 2.0, 0.4, 0.3

        def indicator(dx, dt):
            inside = np.array([wedge_contains(v, phi, psi) for v in dx])
            return inside & (np.linalg.norm(dx, axis=1) <= r) & (np.abs(dt) <= t)

        est = mc_volume(indicator, r, t, 2, n_samples=200_000, seed=8)
        assert est == pytest.approx(cone_volume(phi, psi, r, t), rel=0.02)

    def test_full_span_cone_is_cylinder(self):
        assert cone_volume(-math.pi / 2, math.pi / 2, 0.3, 0.2) == pytest.approx(
            cylinder_volume(0.3, 0.2, 2)
        )


class TestDirectionInCone:
    def test_matches_angle_oracle(self):
        rng = np.random.default_rng(3)
        dx = rng.normal(size=500)
        dy = rng.normal(size=500)
        for phi, psi in [(0.0, math.pi / 2), (-0.7, 0.9), (-math.pi / 2, 0.1)]:
            got = direction_in_cone(dx, dy, phi, psi)
            want = [wedge_contains((a, b), phi, psi) for a, b in zip(dx, dy)]
            assert list(got) == want

    def test_apex_belongs_to_every_cone(self):
        assert direction_in_cone(np.array([0.0]), np.array([0.0]), 0.0, 0.1)[0]

    def test_half_plane_span_covers_all(self):
        rng = np.random.default_rng(4)
        dx, dy = rng.normal(size=50), rng.normal(size=50)
        assert direction_in_cone(dx, dy, -math.pi / 2, math.pi / 2).all()


class TestErodeWindow:
    unit = Window(spatial=((0.0, 1.0), (0.0, 1.0)), temporal=(0.0, 1.0))

    def test_example(self):
        e = erode_window(self.unit, 0.1, 0.2)
        assert e.spatial == ((0.1, 0.9), (0.1, 0.9))
        assert e.temporal == (0.2, 0.8)
        assert e.spatial_volume == pytest.approx(0.64)

    def test_zero_erosion_is_identity(self):
        e = erode_window(self.unit, 0.0, 0.0)
        assert e == self.unit

    def test_emptying_erosion_rejected(self):
        with pytest.raises(ErosionError):
            erode_window(self.unit, 0.5, 0.0)

    def test_negative_erosion_rejected(self):
        with pytest.raises(ValueError):
            erode_window(self.unit, -0.1, 0.0)

    @given(
        st.floats(min_value=0, max_value=0.2),
        st.floats(min_value=0, max_value=0.2),
        st.floats(min_value=0, max_value=0.2),
        st.floats(min_value=0, max_value=0.2),
    )
    def test_monotone(self, r1, t1, dr, dt):
        small = erode_window(self.unit, r1, t1)
        big = erode_window(self.unit, r1 + dr, t1 + dt)
        for (slo, shi), (blo, bhi) in zip(small.spatial, big.spatial):
            assert blo >= slo and bhi <= shi
        assert big.temporal[0] >= small.temporal[0]
        assert big.temporal[1] <= small.temporal[1]

    def test_window_validation(self):
        with pytest.raises(ValueError):
            Window(spatial=((0.0, 0.0), (0.0, 1.0)), temporal=(0.0, 1.0))
        with pytest.raises(ValueError):
            Window(spatial=((0.0, 1.0),), temporal=(1.0, 0.0))


LAG_FUNCTIONS = {
    "cylinder_volume": lambda r, t: cylinder_volume(r, t, 2),
    "cone_volume": lambda r, t: cone_volume(0.0, 1.0, r, t),
    "erode_window": lambda r, t: erode_window(UNIT, r, t),
}


@pytest.mark.parametrize("r, t", [(math.nan, 0.1), (0.1, math.nan), (-0.1, 0.1), (0.1, -0.1)])
@pytest.mark.parametrize("name", LAG_FUNCTIONS)
def test_negative_or_nan_lags_are_refused(name, r, t):
    # a NaN lag is neither a volume of NaN nor an erosion that empties an axis
    with pytest.raises(ValueError, match="requires r >= 0 and t >= 0") as exc:
        LAG_FUNCTIONS[name](r, t)
    assert not isinstance(exc.value, ErosionError)
