import math
import shutil
import struct
import subprocess
import sys
from array import array
from dataclasses import replace
from pathlib import Path

import pytest
import yaml
from hypothesis import example, given
from hypothesis import strategies as st

from gridtwin import data_path
from gridtwin.profiles import (ProfileError, TimeSeriesProfile, load_profile,
                               sample)
from gridtwin.scenario import ScenarioConfig, validate
from tests.helpers import write_tiny_config


def serialize(profile):
    lines = ["t_s,value_kw"]
    for t, v in profile.points:
        lines.append(f"{t!r},{v!r}")
    return "\n".join(lines) + "\n"


def reference_load_profile(source, interpolation="hold"):
    """Reference: the line-by-line loader, one knot at a time."""
    text = source.decode("utf-8-sig") if isinstance(source, bytes) else source
    lines = text.splitlines()
    if not lines:
        raise ProfileError("no data rows")
    start = 1 if lines and lines[0].strip().lower().replace(" ", "") == "t_s,value_kw" else 0
    points = []
    for lineno, line in enumerate(lines[start:], start=start + 1):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != 2:
            raise ProfileError(f"line {lineno}: expected 't,value', got {line!r}")
        try:
            t, v = float(parts[0]), float(parts[1])
        except ValueError:
            raise ProfileError(f"line {lineno}: not numeric: {line!r}") from None
        if points and t <= points[-1][0]:
            raise ProfileError(
                f"line {lineno}: timestamp {t} not after {points[-1][0]}")
        points.append((t, v))
    if not points:
        raise ProfileError("no data rows")
    return TimeSeriesProfile(tuple(t for t, _ in points),
                             array("d", (v for _, v in points)), interpolation)


# a field as a profile file may hold it: a number in several spellings,
# nan and the infinities, one that overflows, or something that is none
FIELDS = st.one_of(
    st.floats(-1e6, 1e6).map(repr),
    st.integers(-1000, 1000).map(str),
    st.sampled_from(["nan", "inf", "-inf", "NaN", "+Infinity", "1e308",
                     "1e999", "-0.0", " 2.5 ", "1_0", "", "x", "0x1", "1,5"]))
ODD_LINES = st.one_of(
    st.sampled_from(["", " ", "\t", "  \t "]),
    st.lists(FIELDS, min_size=1, max_size=3).map(",".join))


@st.composite
def profile_texts(draw):
    """Profile CSV text: increasing knots, with equal, decreasing, odd,
    blank and whitespace-only lines inserted, with or without a header,
    and LF, CRLF or CR line ends."""
    times = sorted(draw(st.lists(st.integers(-50, 500), max_size=12)))
    # mostly plain numbers, so that many texts are well-formed
    value = st.one_of(*[st.floats(-1e6, 1e6).map(repr)] * 4, FIELDS)
    spell = draw(st.sampled_from((str, lambda t: repr(t / 2))))
    lines = [f"{spell(t)},{draw(value)}" for t in times]
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(lines)))
        lines.insert(i, draw(st.one_of(
            ODD_LINES, st.sampled_from(lines or [""]))))  # repeats a knot
    if draw(st.booleans()):
        lines.insert(0, draw(st.sampled_from(
            ["t_s,value_kw", "T_S, Value_KW", " t_s,value_kw\t"])))
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return end.join(lines) + draw(st.sampled_from(["", end, end * 2]))


def outcome(load, text, interpolation):
    """The profile's repr (exact to the bit) or the ProfileError's text."""
    try:
        return repr(load(text, interpolation))
    except ProfileError as exc:
        return f"ProfileError: {exc}"


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
        p = load_profile(b"t_s,value_kw\n0,5.0\n60,6.0")
        assert len(p.points) == 2

    @pytest.mark.parametrize("load", [load_profile, reference_load_profile])
    @pytest.mark.parametrize("text", ["t_s,value_kw\n0,5.0\n60,6.0",
                                      "0,5.0\n60,6.0"], ids=["header", "bare"])
    def test_byte_order_mark_is_skipped(self, load, text):
        # spreadsheets' "CSV UTF-8" exports start with one
        marked = load(b"\xef\xbb\xbf" + text.encode())
        assert marked == load(text.encode()) == load(text)

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

    @given(text=profile_texts(),
           interpolation=st.sampled_from(("hold", "linear", "cubic")))
    @example(text="t_s,value_kw\n0,1\n1,2\n", interpolation="hold")
    @example(text="0,1\n\n1,2", interpolation="hold")         # blank line
    @example(text="0,1\r\n1,2\r\n", interpolation="linear")   # CRLF
    @example(text="0,1\n1,inf", interpolation="linear")
    @example(text="0,1\ninf,2", interpolation="linear")
    @example(text="0,nan\n1,2\n0.5,3", interpolation="hold")  # order first
    @example(text="inf,1\n5,2", interpolation="hold")
    @example(text="1,2\nnan,3", interpolation="hold")
    @example(text="0,nan\n1,2", interpolation="cubic")
    @example(text="0,1\n0,2", interpolation="hold")
    @example(text="0,1\n1,2,3", interpolation="hold")
    @example(text="0,1\nx,2", interpolation="hold")
    @example(text="t_s,value_kw\n", interpolation="hold")
    @example(text=" \n\t", interpolation="hold")
    def test_matches_reference(self, text, interpolation):
        assert outcome(load_profile, text, interpolation) \
            == outcome(reference_load_profile, text, interpolation)
        assert outcome(load_profile, text.encode(), interpolation) \
            == outcome(load_profile, text, interpolation)

    def test_holds_its_knots_in_two_columns(self):
        p = load_profile("t_s,value_kw\n0,5.0\n60,6.0\n120,5.5\n")
        assert p.times == (0.0, 60.0, 120.0)
        assert p.values.typecode == "d" and list(p.values) == [5.0, 6.0, 5.5]
        assert p.points[1] == (60.0, 6.0) and p.points[-2:] == \
            ((60.0, 6.0), (120.0, 5.5))
        assert replace(p, interpolation="linear").values is p.values

    def test_serialize_round_trip(self):
        p = load_profile("0,4.25\n17.5,8.125\n60,0.0", interpolation="linear")
        assert load_profile(serialize(p), interpolation="linear") == p


def test_bundled_profiles_are_what_the_generator_writes(tmp_path):
    # the generator writes beside its tools/ directory: a copy in a
    # temporary tree leaves the repository's files as they are
    tools = tmp_path / "tools"
    tools.mkdir()
    script = Path(__file__).resolve().parents[1] / "tools" / \
        "gen_demo_profiles.py"
    shutil.copy(script, tools)
    subprocess.run([sys.executable, str(tools / script.name)], check=True,
                   capture_output=True, timeout=60)
    out = tmp_path / "src" / "gridtwin" / "data" / "profiles"
    for name in ("load.csv", "pv.csv"):
        assert (out / name).read_bytes() == \
            data_path("profiles", name).read_bytes(), name


class TestSample:
    linear = TimeSeriesProfile((0.0, 100.0), array("d", [4.0, 8.0]), "linear")
    hold = TimeSeriesProfile((0.0, 100.0), array("d", [4.0, 8.0]), "hold")

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
            p = TimeSeriesProfile(tuple(knots), array("d", values[:len(knots)]),
                                  interpolation)
            for t in probes:
                assert sample(p, t) == scan_sample(points, interpolation, t)

    def test_times_follow_replace(self):
        p = replace(self.linear, times=(5.0, 6.0), values=array("d", [1, 2]))
        assert p.points == ((5.0, 1.0), (6.0, 2.0))
        assert load_profile(serialize(p), factor=2.0).times == (5.0, 6.0)
        assert p == TimeSeriesProfile((5.0, 6.0), array("d", [1, 2]), "linear")


# (times, values, error text) of knots every profile refuses
BAD = {
    "mismatched-lengths": ((0.0, 1.0, 2.0), [1.0, 2.0], "3 times but 2 values"),
    "no-knots": ((), [], "empty profile"),
    "nan-value": ((0.0, 1.0), [1.0, math.nan],
                  "non-finite profile point (1.0, nan)"),
    "inf-value": ((0.0, 1.0), [-math.inf, 2.0],
                  "non-finite profile point (0.0, -inf)"),
    "nan-time": ((0.0, math.nan), [1.0, 2.0],
                 "non-finite profile point (nan, 2.0)"),
    "inf-time": ((0.0, math.inf), [1.0, 2.0],
                 "non-finite profile point (inf, 2.0)"),
    "equal-times": ((1.0, 1.0), [1.0, 2.0],
                    "timestamps must be strictly increasing (1.0 then 1.0)"),
    "decreasing-times": ((1.0, 0.0), [1.0, 2.0],
                         "timestamps must be strictly increasing (1.0 then 0.0)"),
}
GOOD = TimeSeriesProfile((0.0, 1.0), array("d", [1.0, 2.0]))


class TestEveryWayIsChecked:
    """The constructor is the one check of the knots: each way of making
    a profile goes through it and refuses bad knots with the same text."""

    MAKERS = {
        "constructor": lambda t, v: TimeSeriesProfile(t, v),
        "replace": lambda t, v: replace(GOOD, times=t, values=v),
    }

    @pytest.mark.parametrize("make", MAKERS.values(), ids=MAKERS)
    @pytest.mark.parametrize("times, values, error", BAD.values(), ids=BAD)
    def test_refused(self, make, times, values, error):
        with pytest.raises(ProfileError) as exc:
            make(times, array("d", values))
        assert str(exc.value) == error

    @pytest.mark.parametrize("column, bad, error", [
        ("times", (0.0, 1.0, 2.0), "3 times but 2 values"),
        ("times", (), "0 times but 2 values"),
        ("times", (math.inf, 1.0), "non-finite profile point (inf, 1.0)"),
        ("times", (0.0, math.nan), "non-finite profile point (nan, 2.0)"),
        ("times", (0.0, 0.0),
         "timestamps must be strictly increasing (0.0 then 0.0)"),
        ("times", (1.0, 0.0),
         "timestamps must be strictly increasing (1.0 then 0.0)"),
        ("values", array("d", [1.0]), "2 times but 1 values"),
        ("values", array("d"), "2 times but 0 values"),
        ("values", array("d", [1.0, math.nan]),
         "non-finite profile point (1.0, nan)"),
        ("values", array("d", [math.inf, 2.0]),
         "non-finite profile point (0.0, inf)"),
    ])
    def test_replacing_one_column(self, column, bad, error):
        with pytest.raises(ProfileError) as exc:
            replace(GOOD, **{column: bad})
        assert str(exc.value) == error

    def test_a_good_profile_is_kept(self):
        for make in self.MAKERS.values():
            assert make(GOOD.times, GOOD.values) == GOOD

    def test_finite_values_whose_sum_overflows_are_kept(self):
        values = array("d", [1e308, 1e308, -1e308])
        assert TimeSeriesProfile((0.0, 1.0, 2.0), values).values == values


def two_pass(text, interpolation="hold", factor=1.0, clamp_max_kw=None):
    """Reference: load, then multiply and cap every knot, and check the
    knots again."""
    p = reference_load_profile(text, interpolation)
    if factor <= 0:
        raise ProfileError(f"scaling factor must be > 0, got {factor}")
    values = [v * factor for v in p.values]
    if clamp_max_kw is not None:
        values = [clamp_max_kw if clamp_max_kw < v else v for v in values]
    return TimeSeriesProfile(p.times, array("d", values), interpolation)


def bits(load, *args):
    """The profile's every time and value as packed doubles, or the
    ProfileError's text."""
    try:
        p = load(*args)
    except ProfileError as exc:
        return f"ProfileError: {exc}"
    return (p.interpolation, b"".join(map(struct.Struct("d").pack, p.times)),
            b"".join(map(struct.Struct("d").pack, p.values)))


KNOT_VALUES = st.one_of(
    st.floats(-1e6, 1e6),
    st.sampled_from([0.0, -0.0, 36.0, 1e308, -1e308, math.nan, math.inf,
                     -math.inf]))


@st.composite
def knot_texts(draw):
    """(text, its finite values): knots in order or not, signed zeros,
    values near the largest double, nan and the infinities."""
    times = draw(st.lists(st.integers(-5, 50), min_size=1, max_size=10))
    if draw(st.booleans()):
        times = sorted(set(times))
    values = draw(st.lists(KNOT_VALUES, min_size=len(times),
                           max_size=len(times)))
    text = "".join(f"{t},{v!r}\n" for t, v in zip(times, values))
    return text, [v for v in values if math.isfinite(v)]


@st.composite
def scaled_loads(draw):
    """(text, interpolation, factor, clamp_max_kw) of one loader call."""
    text, values = draw(st.one_of(
        knot_texts(), profile_texts().map(lambda text: (text, []))))
    factor = draw(st.one_of(
        st.just(1.0), st.floats(-2.0, 20.0),
        st.sampled_from([0.0, -0.0, -1.0, 0.5, 10.0, math.nan, math.inf])))
    products = [v * factor for v in values]
    cap = draw(st.one_of(
        st.none(), st.just(0.0), st.floats(0.0, 1e6),
        st.sampled_from(products or [36.0])))    # a tie, or below the peak
    interpolation = draw(st.sampled_from(("hold", "linear", "cubic")))
    return text, interpolation, factor, cap


class TestScale:
    """The loader's scaling rule: each value multiplied by factor, then
    capped at clamp_max_kw if set."""

    def test_factor(self):
        p = load_profile("0,10.0\n1,20.0", factor=0.5)
        assert list(p.values) == [5.0, 10.0]

    def test_identity(self):
        p = TimeSeriesProfile((0.0,), array("d", [10.0]))
        assert load_profile("0,10") == load_profile("0,10", factor=1.0) == p

    def test_clamp(self):
        text = "0,10.0\n1,50.0"
        scaled = load_profile(text, clamp_max_kw=36.0)
        # oracle: scan every point independently
        assert [v for _, v in scaled.points] == \
            [min(v, 36.0) for _, v in load_profile(text).points] == \
            [10.0, 36.0]

    def test_overflowed_knot_is_refused(self):
        with pytest.raises(ProfileError, match="non-finite profile point"):
            load_profile("0,1e308\n1,2", factor=10)
        # a clamp still bounds the product, as it bounds any other value
        clamped = load_profile("0,1e308\n1,2", factor=10, clamp_max_kw=36.0)
        assert clamped.points == ((0.0, 36.0), (1.0, 20.0))

    @pytest.mark.parametrize("which", ["load", "pv"])
    def test_validate_reports_an_overflowed_knot(self, tmp_path, which):
        path = write_tiny_config(tmp_path)
        (tmp_path / f"{which}.csv").write_text("0,1e308\n1,2\n")
        cfg = yaml.safe_load(path.read_text())
        cfg["profiles"][which]["factor"] = 10
        path.write_text(yaml.safe_dump(cfg))
        issues = validate(ScenarioConfig.load(path))
        assert f"profiles.{which}: non-finite profile point (0.0, inf)" \
            in issues

    def test_zero_factor_rejected(self):
        for factor in (0.0, -1.0):
            with pytest.raises(ProfileError, match=(
                    rf"^scaling factor must be > 0, got {factor}$")):
                load_profile("0,10.0", factor=factor)

    @given(values=st.lists(st.floats(0.01, 100), min_size=1, max_size=20),
           factor=st.floats(0.1, 10))
    def test_scale_inverts(self, values, factor):
        text = "".join(f"{t},{v!r}\n" for t, v in enumerate(values))
        p = load_profile(text)
        back = load_profile(serialize(load_profile(text, factor=factor)),
                            factor=1.0 / factor)
        for (_, a), (_, b) in zip(p.points, back.points):
            assert a == pytest.approx(b, abs=1e-9)

    @given(scaled_loads())
    @example(("0,1e308\n1,2", "hold", 10.0, None))     # the product overflows
    @example(("0,1e308\n1,2", "hold", 10.0, 36.0))     # and the cap bounds it
    @example(("0,-0.0\n1,36.0\n2,50", "hold", 1.0, 36.0))  # a tie, a signed 0
    @example(("0,-0.0\n1,5", "linear", 1.0, 0.0))      # a cap of 0
    @example(("0,5\n1,inf", "hold", 1.0, 36.0))        # a cap would hide inf
    @example(("0,5\n1,inf", "hold", 0.0, 36.0))        # a bad knot is first
    @example(("0,nan\n1,50", "hold", 1.0, 36.0))
    @example(("1,5\n0,inf", "hold", -1.0, None))       # a bad line is first
    @example(("0,5\n1,50", "cubic", 0.0, 36.0))
    @example(("0,5\n1,50", "hold", math.nan, None))
    def test_matches_the_two_pass_path(self, call):
        assert bits(load_profile, *call) == bits(two_pass, *call)
