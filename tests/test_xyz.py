"""xyz IO: save_xyz writes np.savetxt(fmt="%.9g") bytes, and load_xyz
reads what the per-line parser below reads, errors included."""

import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from bonereg import PointCloud, load_xyz, save_xyz


def reference_load_xyz(path) -> PointCloud:
    """The per-line parser load_xyz had before its one-pass read."""
    lines = Path(path).read_text().splitlines()
    rows = [ln.split() for ln in lines if ln.strip()]
    if not rows:
        return PointCloud(np.zeros((0, 3)))
    if set(map(len, rows)) != {3}:
        lineno, width = next((i, len(f)) for i, f in enumerate(map(str.split, lines), 1)
                             if f and len(f) != 3)
        raise ValueError(f"{path}, line {lineno}: expected 3 columns, found {width}")
    return PointCloud(np.array(rows, dtype=float))


def outcome(load, path):
    """(dtype, shape, bytes) of the loaded points, or (type, message) of
    the exception."""
    try:
        pts = load(path).points
    except Exception as exc:  # any failure must match, type and message
        return type(exc), str(exc)
    return pts.dtype, pts.shape, pts.tobytes()


finite = st.floats(allow_nan=False, allow_infinity=False, width=64)


def cloud_arrays(max_n=30):
    return st.integers(0, max_n).flatmap(
        lambda n: arrays(np.float64, (n, 3), elements=finite))


def saved_text(a) -> str:
    return ("%.9g %.9g %.9g\n" * len(a)) % tuple(a.ravel().tolist())


tokens = st.one_of(
    finite.map(lambda v: "%.9g" % v),
    finite.map(repr),
    st.integers(-10**6, 10**6).map(str),
    st.sampled_from(["#", "1_0", "1e5_0", "nan", "-nan", "inf", "-inf", "Infinity",
                     "1e400", "-0", ".5", "5.", "+1", "1,5", "abc", "0x10", "1d0",
                     "\u0661", "\u0663.\u0665", "1\x00"]))
separators = st.sampled_from([" ", "  ", "\t", " \t ", "\x0b", "\x1f", "\xa0", "\u3000"])
blank_lines = st.sampled_from(["", " ", "\t", "  \t ", "\x0c", "\x85", "\u2028"])


@st.composite
def rows_text(draw):
    """Lines of 0 to 5 tokens (3 most often) with mixed whitespace, blank
    lines among them."""
    lines = []
    for _ in range(draw(st.integers(0, 8))):
        if draw(st.integers(0, 4)) == 0:
            lines.append(draw(blank_lines))
            continue
        width = draw(st.sampled_from([3, 3, 3, 0, 1, 2, 4, 5]))
        row = [draw(tokens) for _ in range(width)]
        seps = [draw(separators) for _ in range(width + 1)]
        lines.append(seps[0] + "".join(t + s for t, s in zip(row, seps[1:])))
    return "\n".join(lines) + draw(st.sampled_from(["", "\n"]))


@st.composite
def saved_variant(draw):
    """save_xyz output, with tabs for some spaces and blank lines put in."""
    lines = saved_text(draw(cloud_arrays())).splitlines()
    if draw(st.booleans()):
        lines = [ln.replace(" ", "\t", draw(st.integers(0, 2))) for ln in lines]
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(0, len(lines))), draw(blank_lines))
    return "\n".join(lines) + "\n"


@settings(max_examples=300, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=st.one_of(saved_variant(), rows_text()),
       newline=st.sampled_from(["\n", "\r\n", "\r"]))
@example(text="0 0 0\n1 1 1\n\n2 2\n3 3 3\n", newline="\n")
@example(text="1 2 3\n# 4 5\n", newline="\r\n")
@example(text="1_0 2 3\n", newline="\n")
@example(text="nan 2 3\n", newline="\n")
@example(text="1 2 3\n\x1f\n4 5 6\n", newline="\n")
@example(text=" \t \n\n", newline="\r\n")
def test_load_xyz_matches_per_line_parser(tmp_path, text, newline):
    path = tmp_path / "c.xyz"
    path.write_bytes(text.replace("\n", newline).encode("utf-8"))
    assert outcome(load_xyz, path) == outcome(reference_load_xyz, path)


@settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(cloud_arrays(60))
@example(np.array([[0.0, -0.0, 5e-324], [1e308, -1.7976931348623157e308, 0.1]]))
def test_save_xyz_bytes_equal_savetxt(tmp_path, a):
    cloud = PointCloud(a)
    save_xyz(cloud, tmp_path / "ours.xyz")
    np.savetxt(tmp_path / "theirs.xyz", cloud.points, fmt="%.9g")
    assert (tmp_path / "ours.xyz").read_bytes() == (tmp_path / "theirs.xyz").read_bytes()


def test_saved_cloud_reads_back_as_before(tmp_path):
    scales = 10.0 ** np.arange(-2, 1)
    cloud = PointCloud(np.random.default_rng(3).normal(size=(500, 3)) * scales)
    save_xyz(cloud, tmp_path / "c.xyz")
    assert outcome(load_xyz, tmp_path / "c.xyz") == \
        outcome(reference_load_xyz, tmp_path / "c.xyz")


def test_save_xyz_awkward_values_text(tmp_path):
    cloud = PointCloud(np.array([[-0.0, 5e-324, 1e308], [0.1, 123456789.5, -0.0]]))
    save_xyz(cloud, tmp_path / "c.xyz")
    assert (tmp_path / "c.xyz").read_bytes() == \
        b"-0 4.94065646e-324 1e+308\n0.1 123456790 -0\n"


def test_save_xyz_empty_cloud_writes_empty_file(tmp_path):
    save_xyz(PointCloud(np.zeros((0, 3))), tmp_path / "c.xyz")
    assert (tmp_path / "c.xyz").read_bytes() == b""
    assert load_xyz(tmp_path / "c.xyz").points.shape == (0, 3)


@pytest.mark.parametrize("text", ["", "\n", "  \t \r\n\n \x0b\n"])
def test_whitespace_only_file_is_empty_cloud_without_warning(tmp_path, text):
    (tmp_path / "c.xyz").write_bytes(text.encode())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pts = load_xyz(tmp_path / "c.xyz").points
    assert pts.shape == (0, 3) and pts.dtype == np.float64
