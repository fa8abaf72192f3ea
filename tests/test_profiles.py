import io
from dataclasses import replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gridtwin.profiles import (ProfileError, ScalingRule, TimeSeriesProfile,
                               load_profile, sample, scale)


def serialize(profile):
    lines = ["t_s,value_kw"]
    for t, v in profile.points:
        lines.append(f"{t!r},{v!r}")
    return "\n".join(lines) + "\n"


def scan_sample(points, interpolation, t):
    """Reference: walk the knots from the start."""
    if t <= points[0][0]:
        return points[0][1]
    if t >= points[-1][0]:
        return points[-1][1]
    for (t0, v0), (t1, v1) in zip(points, points[1:]):
        if t0 <= t < t1:
            if interpolation == "hold":
                return v0
            return v0 + (v1 - v0) * (t - t0) / (t1 - t0)


class TestLoadProfile:
    def test_direct_parse(self):
        p = load_profile(b"0,5.0\n60,6.0")
        assert p.points == ((0.0, 5.0), (60.0, 6.0))

    def test_header_is_accepted(self):
        p = load_profile(io.BytesIO(b"t_s,value_kw\n0,5.0\n60,6.0"))
        assert len(p.points) == 2

    def test_decreasing_timestamps_rejected(self):
        with pytest.raises(ProfileError, match="not after"):
            load_profile("60,1.0\n0,2.0")

    def test_duplicate_timestamps_rejected(self):
        with pytest.raises(ProfileError):
            load_profile("0,1.0\n0,2.0")

    def test_empty_file(self):
        with pytest.raises(ProfileError, match="no data rows"):
            load_profile("")

    def test_garbage_reports_line(self):
        with pytest.raises(ProfileError, match="line 2"):
            load_profile("0,1.0\nbogus")

    def test_serialize_round_trip(self):
        p = load_profile("0,4.25\n17.5,8.125\n60,0.0", interpolation="linear")
        assert load_profile(serialize(p), interpolation="linear") == p


class TestSample:
    linear = TimeSeriesProfile(((0.0, 4.0), (100.0, 8.0)), "linear")
    hold = TimeSeriesProfile(((0.0, 4.0), (100.0, 8.0)), "hold")

    def test_linear_midpoint(self):
        assert sample(self.linear, 50.0) == pytest.approx(6.0)

    def test_hold_uses_latest_knot(self):
        assert sample(self.hold, 50.0) == 4.0

    def test_before_first_point(self):
        assert sample(self.linear, -10.0) == 4.0

    def test_after_last_point(self):
        assert sample(self.hold, 1e6) == 8.0

    @given(t=st.floats(1, 99), eps=st.floats(1e-9, 1e-6))
    def test_linear_is_continuous_between_knots(self, t, eps):
        assert abs(sample(self.linear, t) - sample(self.linear, t + eps)) < 1e-3

    @given(times=st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=30,
                          unique=True),
           values=st.lists(st.floats(-1e6, 1e6), min_size=30, max_size=30),
           data=st.data())
    def test_matches_linear_scan(self, times, values, data):
        points = tuple(zip(sorted(times), values))
        knots = [t for t, _ in points]
        probes = [knots[0] - 1.0, knots[-1] + 1.0, *knots,
                  *((a + b) / 2 for a, b in zip(knots, knots[1:])),
                  data.draw(st.floats(-2e6, 2e6))]
        for interpolation in ("hold", "linear"):
            p = TimeSeriesProfile(points, interpolation)
            for t in probes:
                assert sample(p, t) == scan_sample(points, interpolation, t)

    def test_times_follow_replace(self):
        p = replace(self.linear, points=((5.0, 1.0), (6.0, 2.0)))
        assert p.times == (5.0, 6.0)
        assert scale(p, ScalingRule(2.0)).times == (5.0, 6.0)
        assert p == TimeSeriesProfile(((5.0, 1.0), (6.0, 2.0)), "linear")


class TestScale:
    def test_factor(self):
        p = TimeSeriesProfile(((0.0, 10.0), (1.0, 20.0)))
        assert [v for _, v in scale(p, ScalingRule(0.5)).points] == [5.0, 10.0]

    def test_identity(self):
        p = TimeSeriesProfile(((0.0, 10.0),))
        assert scale(p, ScalingRule(1.0)) == p

    def test_clamp(self):
        p = TimeSeriesProfile(((0.0, 10.0), (1.0, 50.0)))
        scaled = scale(p, ScalingRule(1.0, clamp_max_kw=36.0))
        # oracle: scan every point independently
        assert [v for _, v in scaled.points] == \
            [min(v, 36.0) for _, v in p.points] == [10.0, 36.0]

    def test_zero_factor_rejected(self):
        with pytest.raises(ProfileError):
            ScalingRule(0.0)

    @given(values=st.lists(st.floats(0.01, 100), min_size=1, max_size=20),
           factor=st.floats(0.1, 10))
    def test_scale_inverts(self, values, factor):
        p = TimeSeriesProfile(tuple((float(i), v) for i, v in enumerate(values)))
        back = scale(scale(p, ScalingRule(factor)), ScalingRule(1.0 / factor))
        for (_, a), (_, b) in zip(p.points, back.points):
            assert a == pytest.approx(b, abs=1e-9)
