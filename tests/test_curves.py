import numpy as np
import pytest

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
