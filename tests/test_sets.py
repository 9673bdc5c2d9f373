from __future__ import annotations

import math

import numpy as np
import pytest

from eqmarkov.errors import InvalidArgumentError
from eqmarkov.sets import (
    ArcUnion,
    Circle,
    IntervalUnion,
    Lemniscate,
    PeriodicSet,
    affine_image,
    gamma_of,
    locate,
    set_from_json,
    set_to_json,
    wrap_angle,
    wrap_angles,
)


class TestConstruction:
    def test_touching_bands_rejected(self):
        with pytest.raises(InvalidArgumentError):
            IntervalUnion((0.0, 1.0, 1.0, 2.0))
        with pytest.raises(InvalidArgumentError):
            IntervalUnion((0.0, 0.0))

    def test_odd_count_rejected(self):
        with pytest.raises(InvalidArgumentError):
            IntervalUnion((0.0, 1.0, 2.0))

    def test_band_accessors(self):
        e = IntervalUnion((-1.0, -0.3, 0.2, 1.0))
        assert e.m == 2
        assert e.bands == ((-1.0, -0.3), (0.2, 1.0))
        assert e.gaps == ((-0.3, 0.2),)
        assert e.covering_interval == (-1.0, 1.0)

    def test_full_circle_not_an_arc_union(self):
        with pytest.raises(InvalidArgumentError):
            ArcUnion((-math.pi, math.pi))

    def test_arc_angles_range(self):
        with pytest.raises(InvalidArgumentError):
            ArcUnion((0.0, 3.5))
        a = ArcUnion((-1.0, -0.5, 0.5, 1.0))
        assert a.m == 2

    def test_circle_and_lemniscate_validation(self):
        with pytest.raises(InvalidArgumentError):
            Circle(0.0)
        with pytest.raises(InvalidArgumentError):
            Lemniscate((1.0,))
        with pytest.raises(InvalidArgumentError):
            Lemniscate((1.0, 0.0))
        lem = Lemniscate((0.0, 0.0, 1.0))  # z^2
        assert lem.degree == 2
        assert lem.on_curve(complex(math.cos(0.3), math.sin(0.3)))
        assert not lem.on_curve(1.1 + 0j)

    def test_periodic_set_requires_window(self):
        with pytest.raises(InvalidArgumentError):
            PeriodicSet(IntervalUnion((-4.0, 0.0)))
        with pytest.raises(InvalidArgumentError):
            PeriodicSet(IntervalUnion((-math.pi, math.pi)))
        p = PeriodicSet(IntervalUnion((-1.0, 1.0)))
        assert p.locate(1.0 + 2 * math.pi).kind == "endpoint"


class TestGamma:
    def test_single_symmetric_interval(self):
        g = gamma_of(PeriodicSet(IntervalUnion((-math.pi / 2, math.pi / 2))))
        assert g.arcs == ((-math.pi / 2, math.pi / 2),)

    def test_two_symmetric_bands(self):
        g = gamma_of(PeriodicSet(IntervalUnion((-1.0, -0.5, 0.5, 1.0))))
        assert g.m == 2
        assert g.angles == (-1.0, -0.5, 0.5, 1.0)


class TestAffine:
    def test_plain_scaling(self):
        assert affine_image(IntervalUnion((-1.0, 1.0)), 2.0, 0.0).endpoints == (-2.0, 2.0)

    def test_reflection_resorts(self):
        assert affine_image(IntervalUnion((0.0, 1.0)), -1.0, 0.0).endpoints == (-1.0, 0.0)

    def test_gaps_scale(self):
        e = IntervalUnion((0.0, 1.0, 2.0, 4.0))
        scaled = affine_image(e, 3.0, 0.0)
        assert scaled.gaps == ((3.0, 6.0),)

    def test_group_action(self):
        e = IntervalUnion((-1.0, -0.3, 0.2, 1.0))
        once = affine_image(affine_image(e, 2.0, 1.0), -0.5, 0.25)
        composed = affine_image(e, -1.0, -0.25)
        assert once.endpoints == pytest.approx(composed.endpoints)

    def test_zero_scale_rejected(self):
        with pytest.raises(InvalidArgumentError):
            affine_image(IntervalUnion((0.0, 1.0)), 0.0, 0.0)


class TestLocate:
    def test_interior(self):
        assert locate(IntervalUnion((-1.0, 1.0)), 0.0).kind == "interior"

    def test_endpoint_index_is_one_based(self):
        assert locate(IntervalUnion((-1.0, 1.0)), 1.0) == ("endpoint", 2)
        assert locate(IntervalUnion((-1.0, 1.0)), -1.0) == ("endpoint", 1)

    def test_gap_and_outside(self):
        e = IntervalUnion((-1.0, -0.5, 0.5, 1.0))
        assert locate(e, 0.0).kind == "gap"
        assert locate(e, 2.0).kind == "outside"

    @pytest.mark.parametrize("theta", [math.inf, -math.inf, math.nan])
    def test_non_finite_angle_rejected(self, theta):
        # a non-finite angle has no wrap into [-pi, pi)
        with pytest.raises(InvalidArgumentError, match="point must be finite"):
            ArcUnion((-2.0, -0.5, 0.5, 2.0)).locate_angle(theta)
        with pytest.raises(InvalidArgumentError, match="point must be finite"):
            PeriodicSet(IntervalUnion((-2.0, -0.5, 0.5, 2.0))).locate(theta)


class TestJson:
    @pytest.mark.parametrize(
        "obj",
        [
            IntervalUnion((-1.0, -0.3, 0.2, 1.0)),
            ArcUnion((-1.0, 1.0)),
            Circle(0.5),
            Circle(2.0, 1 + 2j),
            Lemniscate((0.0, 2.0)),
            Lemniscate((1j, 0.0, 1.0)),
            PeriodicSet(IntervalUnion((-1.0, 1.0))),
        ],
    )
    def test_round_trip(self, obj):
        assert set_from_json(set_to_json(obj)) == obj

    def test_parse_from_text(self):
        s = set_from_json('{"type":"intervals","endpoints":[-1,1]}')
        assert isinstance(s, IntervalUnion)
        assert s.endpoints == (-1.0, 1.0)

    def test_malformed_inputs(self):
        for bad in ("{", '{"type":"blob"}', '{"type":"intervals"}', '[1,2]',
                    '{"type":"intervals","endpoints":[1,"x"]}'):
            with pytest.raises(InvalidArgumentError):
                set_from_json(bad)


def test_wrap_angle():
    assert wrap_angle(math.pi) == pytest.approx(-math.pi)
    assert wrap_angle(-math.pi) == pytest.approx(-math.pi)
    assert wrap_angle(0.3 + 4 * math.pi) == pytest.approx(0.3, abs=1e-12)
    assert wrap_angle(-0.3 - 2 * math.pi) == pytest.approx(-0.3, abs=1e-12)


def test_wrap_angles_matches_wrap_angle_bitwise():
    rng = np.random.default_rng(7)
    theta = np.concatenate([
        rng.uniform(-50.0, 50.0, 2000),
        [0.0, -0.0, math.pi, -math.pi, 2 * math.pi, -2 * math.pi, 3 * math.pi, -3 * math.pi,
         np.nextafter(math.pi, 0.0), np.nextafter(-math.pi, -4.0), 1e6 + 0.5],
    ])
    got = wrap_angles(theta)
    want = np.array([wrap_angle(float(t)) for t in theta])
    assert np.array_equal(got, want)
    assert np.all((-math.pi <= got) & (got < math.pi))
