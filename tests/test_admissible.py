"""Screen of admissible inputs: `capaf verify` ends in a result or a
documented error, never a traceback.

Hypothesis draws the norm family (an SPD matrix for the ellipsoid, one to
three small zonal terms on the isotropic base for the perturbed norm), w0
inside the open admissible interval, n, a mesh level 0-3 and one to three
seeds, and runs `verify` in-process.  The draw is derandomized, so every run
screens the same configs.  A second screen breaks one geometry rule (w0 at
or beyond an end of its interval, mesh level -1 or 8, n = 0 or 3) and
expects exit 2 with only the README's geometry messages.
"""

from __future__ import annotations

import contextlib
import io
import os
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from capaf.capgeom import admissible_range
from capaf.cli import main
from capaf.norms import EllipsoidNorm, IsotropicNorm, PerturbedNorm, PerturbTerm

README = Path(__file__).resolve().parents[1] / "README.md"

# exit-2 messages as the README gives them; L, W, M and K stand for the mesh
# level, w0, the stencil margin and a count
DOCUMENTED = (
    "error: no mesh edge crosses the region boundary at mesh level L (omega0 = W); "
    "a finer mesh level helps",
    "error: the region meets every face of the mesh at mesh level L (omega0 = W), "
    "which leaves it no boundary; a finer mesh level helps",
    "error: empty parameter region: no mesh vertex lies inside it at mesh level L "
    "(omega0 = W); a finer mesh level helps",
    "error: no interior nodes clear the stencil margin M (arc length) from the boundary "
    "at mesh level L, omega0 = W; the cap is too thin for this level, and a finer mesh "
    "level helps",
    "error: interior node with nonpositive region residual",
    "error: expected two region boundary angles, found K at mesh level L (omega0 = W); the "
    "region or its complement is narrower than the 4096-angle boundary scan resolves at every "
    "mesh level, and an omega0 farther from the ends of its admissible interval helps",
)


# the geometry messages as the README gives them; N, W, lo, hi and L stand
# for n, w0, the ends of w0's interval and the mesh level
GEOMETRY_MESSAGES = (
    "config error: geometry.n: N unsupported (meshing restricted to n in {1, 2})",
    "config error: geometry.omega0: W outside the admissible open interval (lo, hi)",
    "config error: mesh.level: L out of range [0, 7]",
)


def _pattern(template):
    parts = re.split(r"\b(lo|hi|[LWMKN])\b", template)
    return re.compile("".join(r"\S+?" if k % 2 else re.escape(p)
                              for k, p in enumerate(parts)) + "$")


PATTERNS = [_pattern(t) for t in DOCUMENTED]
GEOMETRY_PATTERNS = [_pattern(t) for t in GEOMETRY_MESSAGES]


def test_the_readme_lists_every_documented_message():
    text = " ".join(README.read_text(encoding="utf-8").split())
    for template in DOCUMENTED:
        assert f"`{template}`" in text, template


def test_the_readme_lists_every_geometry_message():
    text = " ".join(README.read_text(encoding="utf-8").split())
    for template in GEOMETRY_MESSAGES:
        assert f"`{template}`" in text, template


def _floats(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


@st.composite
def admissible_configs(draw):
    """The config text of one admissible run."""
    n = draw(st.sampled_from((1, 2)))
    d = n + 1
    family = draw(st.sampled_from(("isotropic", "ellipsoid", "perturbed")))
    norm_lines = [f"family = {family}"]
    if family == "isotropic":
        norm = IsotropicNorm(d)
    elif family == "ellipsoid":
        a = np.array(draw(st.lists(_floats(-0.5, 0.5), min_size=d * d, max_size=d * d)))
        m = a.reshape(d, d) @ a.reshape(d, d).T + draw(_floats(0.3, 1.5)) * np.eye(d)
        m = 0.5 * (m + m.T)
        norm_lines.append("matrix = " + " ".join(map(repr, m.ravel().tolist())))
        norm = EllipsoidNorm(m)
    else:
        norm_lines.append("base = isotropic")
        terms = []
        for k in range(draw(st.integers(1, 3))):
            kind = draw(st.sampled_from(("bump", "linear", "quadratic")))
            angle = draw(_floats(0.0, 2.0 * np.pi))
            height = draw(_floats(-1.0, 1.0))
            ring = np.sqrt(1.0 - height * height)
            center = [float(v) for v in ([ring * np.cos(angle), ring * np.sin(angle), height]
                                         if d == 3 else [np.cos(angle), np.sin(angle)])]
            width = draw(_floats(0.3, 1.5)) if kind == "bump" else 0.0
            bound = {"bump": 0.1 * width * width, "linear": 0.3, "quadratic": 0.1}[kind]
            amplitude = draw(_floats(-bound, bound))
            terms.append(PerturbTerm(kind, tuple(center), width, amplitude))
            norm_lines.append(f"term{k + 1} = {kind} " + " ".join(map(repr, center))
                              + f" {width!r} {amplitude!r}")
        norm = PerturbedNorm(IsotropicNorm(d), terms)
    lo, hi = admissible_range(norm)
    t = draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    omega0 = float(min(max(lo + t * (hi - lo), np.nextafter(lo, hi)), np.nextafter(hi, lo)))
    level = draw(st.integers(0, 3))
    seeds = draw(st.lists(st.integers(0, 99999), min_size=1, max_size=3, unique=True))
    return _config_text(n, omega0, norm_lines, level, seeds)


def _config_text(n, omega0, norm_lines, level, seeds):
    return "\n".join([
        "[geometry]", f"n = {n}", f"omega0 = {omega0!r}", "[norm]", *norm_lines,
        "[mesh]", f"level = {level}", "[seeds]", "seeds = " + " ".join(map(str, seeds)), ""])


@settings(max_examples=25, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(admissible_configs())
def test_admissible_inputs_verify_without_a_traceback(text):
    _assert_verify_ends_documented(text)


# inputs a random screen met: a level-1 ellipsoid whose random body, scaled
# by 1.7 in the routes suite, failed the capillary test that the body itself
# passed; and an n = 1 ellipsoid one rounding unit above the lower end of its
# w0 interval, whose region is a single point to round-off
PINNED = {
    "scaled-body": _config_text(
        2, -0.8587769496868798,
        ["family = ellipsoid", "matrix = 0.8615931742952361 -0.20129746526993839 "
         "6.64443166272704e-161 -0.20129746526993839 1.2415972240904647 3.4420941228478797e-161 "
         "6.64443166272704e-161 3.4420941228478797e-161 0.7390972240904647"], 1, [450]),
    "n1-point-region": _config_text(
        1, -0.5757888719701958,
        ["family = ellipsoid", "matrix = 0.30293909627347015 0.006807275839073186 "
         "0.006807275839073186 0.3315328250847106"], 0, [1]),
}


@pytest.mark.parametrize("case", sorted(PINNED))
def test_pinned_inputs_verify_without_a_traceback(case):
    _assert_verify_ends_documented(PINNED[case])


def _assert_verify_ends_documented(text):
    """`verify` on the config text exits 0 or 1, or 2 with README-listed
    messages only."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "screen.ini")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["verify", "--config", path, "--out", os.path.join(tmp, "out")])
    assert code in (0, 1, 2), text
    if code == 2:
        lines = err.getvalue().splitlines()
        assert lines, text
        for line in lines:
            assert any(p.match(line) for p in PATTERNS), (line, text)


@st.composite
def inadmissible_configs(draw):
    """The config text of one run that breaks one geometry rule."""
    n = draw(st.sampled_from((1, 2)))
    d = n + 1
    if draw(st.booleans()):
        norm_lines, norm = ["family = isotropic"], IsotropicNorm(d)
    else:
        a = np.array(draw(st.lists(_floats(-0.5, 0.5), min_size=d * d, max_size=d * d)))
        m = a.reshape(d, d) @ a.reshape(d, d).T + draw(_floats(0.3, 1.5)) * np.eye(d)
        m = 0.5 * (m + m.T)
        norm_lines = ["family = ellipsoid", "matrix = " + " ".join(map(repr, m.ravel().tolist()))]
        norm = EllipsoidNorm(m)
    lo, hi = admissible_range(norm)
    omega0, level = 0.5 * (lo + hi), draw(st.integers(0, 3))
    broken = draw(st.sampled_from(("omega0", "level", "n")))
    if broken == "omega0":
        beyond = draw(st.sampled_from((0.0, 1e-9, 0.5)))
        omega0 = draw(st.sampled_from((lo - beyond, hi + beyond)))
    elif broken == "level":
        level = draw(st.sampled_from((-1, 8)))
    else:
        n = draw(st.sampled_from((0, 3)))
    return _config_text(n, omega0, norm_lines, level, [1])


@settings(max_examples=30, derandomize=True, deadline=None, database=None)
@given(inadmissible_configs())
def test_inadmissible_geometry_exits_2_with_a_geometry_message(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "screen.ini")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["verify", "--config", path, "--out", os.path.join(tmp, "out")])
    assert code == 2, text
    lines = err.getvalue().splitlines()
    assert lines, text
    for line in lines:
        assert any(p.match(line) for p in GEOMETRY_PATTERNS), (line, text)
