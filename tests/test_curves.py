import numpy as np
import pytest
from conftest import assert_chain_vertices
from hypothesis import example, given, settings
from hypothesis import strategies as st_

from discflux import curves
from discflux.curves import (
    CLAMP_SLACK,
    MonotoneBijection,
    SampledCurve,
    lower_convex_envelope,
    merge_close,
    run_bounds,
    upper_concave_envelope,
)
from discflux.errors import DomainError
from discflux.fluxes import get_flux


def test_sampled_curve_interpolates_nodes_exactly():
    x = np.array([0.0, 0.5, 1.0, 2.0])
    y = np.array([0.0, 1.0, 0.5, 0.0])
    c = SampledCurve(x, y)
    assert np.array_equal(c(x), y)
    assert c(0.25) == pytest.approx(0.5)
    assert c.domain == (0.0, 2.0)


def test_sampled_curve_rejects_bad_tables():
    with pytest.raises(ValueError):
        SampledCurve(np.array([0.0, 0.0, 1.0]), np.zeros(3))
    with pytest.raises(ValueError):
        SampledCurve(np.array([0.0, 1.0]), np.array([0.0, np.nan]))
    with pytest.raises(ValueError):
        SampledCurve(np.array([0.0, 1.0]), np.zeros(3))


def test_clamp_mode_raises_far_outside_but_tolerates_slack():
    c = SampledCurve(np.array([0.0, 1.0]), np.array([0.0, 2.0]))
    assert c(1.0 + 1e-10) == pytest.approx(2.0)
    with pytest.raises(DomainError):
        c(1.5)


def test_bijection_identity_and_translation():
    ident = MonotoneBijection.identity(0.0, 1.0)
    assert ident.forward(0.3) == pytest.approx(0.3)
    shift = MonotoneBijection.translation(0.25, -1.0, 1.0)
    assert shift.forward(0.0) == pytest.approx(0.25)
    assert shift.inverse(0.25) == pytest.approx(0.0)


def test_bijection_roundtrip_random():
    rng = np.random.default_rng(0)
    for _ in range(20):
        n = int(rng.integers(3, 12))
        bp = np.sort(rng.uniform(-2, 2, size=n))
        bp = merge_close(bp)
        if len(bp) < 2:
            continue
        vals = np.cumsum(rng.uniform(0.05, 1.0, size=len(bp)))
        m = MonotoneBijection(bp, vals)
        probe = rng.uniform(bp[0], bp[-1], size=50)
        assert np.max(np.abs(m.inverse(m.forward(probe)) - probe)) < 1e-12


def test_bijection_rejects_non_monotone():
    with pytest.raises(ValueError):
        MonotoneBijection(np.array([0.0, 1.0, 2.0]), np.array([0.0, 1.0, 1.0]))
    with pytest.raises(ValueError):
        MonotoneBijection(np.array([0.0, 1.0, 1.0]), np.array([0.0, 1.0, 2.0]))
    # the same node checks as SampledCurve: non-finite entries are rejected
    for bp, vals in (([0.0, 0.5, 1.0], [0.0, 0.5, np.inf]), ([0.0, 0.5, np.nan], [0.0, 0.5, 1.0])):
        with pytest.raises(ValueError, match="finite"):
            MonotoneBijection(np.array(bp), np.array(vals))
        with pytest.raises(ValueError, match="finite"):
            SampledCurve(np.array(vals), np.array(bp))


def test_curve_and_map_arrays_are_read_only():
    # an in-place write could undo the constructor's checks after the fact, so
    # every stored array refuses one, and its flag cannot be set back; the
    # caller's own arrays stay writable
    x, y = np.linspace(0.0, 1.0, 5), np.linspace(0.0, 2.0, 5)
    curve = SampledCurve(x, y)
    m = MonotoneBijection(x, y)
    branch = get_flux("burgers-like").f
    for arr in (curve.x, curve.y, m.breakpoints, m.values, branch.x, branch.y):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0.05
        with pytest.raises(ValueError, match="WRITEABLE"):
            arr.flags.writeable = True
    x[0] = y[0] = -1.0
    assert curve.x[0] == curve.y[0] == m.breakpoints[0] == m.values[0] == 0.0


def _clipped_interp(u, xp, fp):
    """Reference lookup: clip to the node span, then interpolate."""
    return np.interp(np.clip(np.asarray(u, dtype=float), xp[0], xp[-1]), xp, fp)


def test_lookups_share_slack_edges_nan_and_empty_input():
    x = np.array([-2.0, -0.1, 0.3, 2.0])
    curve = SampledCurve(x, np.array([0.0, 1.0, -1.0, 0.5]))
    bij = MonotoneBijection(x, np.array([0.0, 1.0, 5.0, 10.0]))
    # each evaluation keeps its own slack: absolute for curves, relative to
    # the span (here 4 and 10) for the bijection's domain and range
    cases = [
        (curve, curve.x, curve.y, CLAMP_SLACK),
        (bij.forward, bij.breakpoints, bij.values, CLAMP_SLACK * 4.0),
        (bij.inverse, bij.values, bij.breakpoints, CLAMP_SLACK * 10.0),
    ]
    rng = np.random.default_rng(7)
    for evaluate, xp, fp, slack in cases:
        lo, hi = xp[0] - slack, xp[-1] + slack
        inside = np.concatenate(([lo, hi, xp[0], xp[-1]], xp, rng.uniform(lo, hi, 200)))
        assert np.array_equal(evaluate(inside), _clipped_interp(inside, xp, fp))
        assert evaluate(lo) == fp[0] and evaluate(hi) == fp[-1]
        for beyond in (np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf)):
            with pytest.raises(DomainError):
                evaluate(beyond)
            with pytest.raises(DomainError):   # a NaN beside it does not hide it
                evaluate([np.nan, beyond])
        out = evaluate(np.array([np.nan, xp[1]]))
        assert np.isnan(out[0]) and out[1] == fp[1]
        assert np.isnan(evaluate(np.nan))
        assert evaluate(np.array([])).shape == (0,)
        assert evaluate(np.empty((0, 3))).shape == (0, 3)


def test_lower_convex_envelope_hand_case():
    # tent data: the convex minorant is the straight chord
    x = np.array([0.0, 1.0, 2.0])
    y = np.array([0.0, 1.0, 0.0])
    ex, ey = lower_convex_envelope(x, y)
    assert np.allclose(ex, [0.0, 2.0])
    assert np.allclose(ey, [0.0, 0.0])


def test_upper_concave_envelope_hand_case():
    x = np.array([0.0, 1.0, 2.0])
    y = np.array([0.0, -1.0, 0.0])
    ex, ey = upper_concave_envelope(x, y)
    assert np.allclose(ex, [0.0, 2.0])
    assert np.allclose(ey, [0.0, 0.0])


def test_envelopes_random_properties():
    rng = np.random.default_rng(3)
    for _ in range(25):
        n = int(rng.integers(4, 40))
        x = np.sort(rng.uniform(0, 1, size=n))
        x = merge_close(x)
        if len(x) < 3:
            continue
        y = rng.normal(size=len(x))
        ex, ey = lower_convex_envelope(x, y)
        # vertices are a subset of the data, endpoints included
        assert ex[0] == x[0] and ex[-1] == x[-1]
        # minorant property on the data nodes
        assert np.all(np.interp(x, ex, ey) <= y + 1e-12)
        # convexity: slopes non-decreasing
        slopes = np.diff(ey) / np.diff(ex)
        assert np.all(np.diff(slopes) >= -1e-12)
        # mirror identity with the concave version
        cx, cy = upper_concave_envelope(x, -y)
        assert np.allclose(cx, ex) and np.allclose(cy, -ey)


@st_.composite
def _samples(draw):
    """Strictly increasing nodes with values: general floats, or an integer lattice full of collinear triples."""
    n = draw(st_.integers(2, 120))
    if draw(st_.booleans()):
        step = draw(st_.sampled_from([1.0, 0.5, 3.0]))
        x = step * np.arange(n, dtype=float) - draw(st_.integers(-5, 5))
        y = np.array(draw(st_.lists(st_.integers(-4, 4), min_size=n, max_size=n)), dtype=float)
    else:
        reals = st_.floats(-1e3, 1e3, allow_subnormal=False)
        x = np.sort(draw(st_.lists(reals, min_size=n, max_size=n, unique=True)))
        y = np.array(draw(st_.lists(reals, min_size=n, max_size=n)))
    return x, y


@settings(max_examples=300, deadline=None)
@given(samples=_samples())
# rounding ties the depths of x = 0 and x = tiny below the chord, so the split
# certifies 0, which lies on the chord of its final neighbours and must go
@example(samples=(np.array([-1e3, -999.0, 0.0, np.finfo(float).tiny, 1.0, 1e3]),
                  np.array([-5.0, 0.0, -5.0, -5.0, 0.0, 0.0])))
def test_envelopes_match_the_monotone_chain(samples):
    assert_chain_vertices(*samples)


@pytest.mark.parametrize("name", ["burgers-like", "demo-cross", "demo-swapped", "zero"])
def test_envelopes_match_the_monotone_chain_on_registry_branches(name):
    flux = get_flux(name)
    mid = flux.f.x.size // 2
    for branch in (flux.f, flux.g):
        for part in (slice(None), slice(None, mid + 1), slice(mid, None)):
            assert_chain_vertices(branch.x[part], branch.y[part])


class _PassCounter:
    """numpy for ``curves``, counting the one ``cumsum`` of each envelope pass that does not return."""

    def __init__(self):
        self.passes = 1

    def __getattr__(self, name):
        return getattr(np, name)

    def cumsum(self, *args, **kwargs):
        self.passes += 1
        return np.cumsum(*args, **kwargs)


def test_envelopes_match_the_monotone_chain_in_few_passes(monkeypatch):
    # u^2 cut off by its tangent at u = 1/2: dropping points on their
    # neighbours' chord alone would take one pass per cut-off vertex (2,048);
    # the quickhull split keeps every pass count to a handful, also on a
    # branch crossing its chord three times and on the registry branches
    u = np.linspace(0.0, 1.0, 4097)
    tangent = u ** 2
    tangent[-1] = 0.75
    cases = [(tangent, 6), (u * (1.0 - u) * (1.0 + 0.6 * np.sin(4.0 * np.pi * u)), 8)]
    branches = [branch for name in ("burgers-like", "demo-cross") for branch in (get_flux(name).f, get_flux(name).g)]
    cases += [(sign * branch.y, 6) for branch in branches for sign in (1.0, -1.0)]
    for y, most in cases:
        counter = _PassCounter()
        monkeypatch.setattr(curves, "np", counter)
        lower_convex_envelope(u, y)
        monkeypatch.undo()
        assert counter.passes <= most
        assert_chain_vertices(u, y)


@pytest.mark.parametrize("x, y", [
    ([0.0, 1.0, 2.0, 3.0], [0.0, 1.0, 0.0]),
    ([0.0, 1.0, 2.0], [0.0, np.nan, 1.0]),
    ([0.0, np.nan, 2.0], [0.0, -1.0, 1.0]),
    ([0.0, 1.0, np.inf], [0.0, -1.0, 1.0]),
    ([2.0, 1.0, 0.0], [0.0, 1.0, 0.0]),
    ([0.0, 1.0, 1.0], [0.0, -1.0, 1.0]),
    ([0.0], [0.0]),
    ([[0.0, 1.0], [2.0, 3.0]], [[0.0, 1.0], [0.0, 1.0]]),
], ids=["short-y", "nan-y", "nan-x", "inf-x", "decreasing-x", "repeated-x", "one-entry", "2-d"])
def test_envelopes_reject_bad_tables(x, y):
    # the curve contract: 1-d, same shape, finite, strictly increasing nodes
    for envelope in (lower_convex_envelope, upper_concave_envelope):
        with pytest.raises(ValueError):
            envelope(np.array(x), np.array(y))


@pytest.mark.parametrize("breaks, first, last", [
    ([False, False, False], [0], [3]),
    ([True, True, True], [0, 1, 2, 3], [0, 1, 2, 3]),
    ([], [0], [0]),
    ([False, True, False, False, True], [0, 2, 5], [1, 4, 5]),
], ids=["no-breaks", "all-breaks", "single-entry", "mixed"])
def test_run_bounds(breaks, first, last):
    got_first, got_last = run_bounds(np.array(breaks, dtype=bool))
    assert got_first.tolist() == first and got_last.tolist() == last


def test_merge_close_dedupes():
    x = np.array([0.0, 1.0, 1.0 + 1e-15, 2.0])
    out = merge_close(x)
    assert len(out) == 3
    assert out[-1] == 2.0
