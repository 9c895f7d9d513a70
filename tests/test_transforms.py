"""Crossing checks, connection validation, and the two transform builders."""

from dataclasses import replace

import numpy as np
import pytest
from conftest import monotone_chain
from hypothesis import given, settings
from hypothesis import strategies as st_

import discflux as dx
from discflux.errors import ConstructionError
from discflux.curves import _on_union, merge_close
from discflux import transforms
from discflux.transforms import TOL_CROSS, _audit, _translation_pair, _violation_amount


# ---------------------------------------------------------------- crossing

def test_crossing_holds_for_compliant_pair(demo_cross):
    rep = dx.check_crossing(*dx.composed_fluxes(demo_cross, dx.identity_transform(demo_cross)))
    assert rep.holds
    assert rep.witness is None
    assert len(rep.crossings) == 1
    # f - g = u(1-u)(2u-1) has its sign change exactly at 1/2
    assert rep.crossings[0] == pytest.approx(0.5, abs=1e-12)


def test_crossing_fails_with_canonical_witness(demo_swapped):
    rep = dx.check_crossing(*dx.composed_fluxes(demo_swapped, dx.identity_transform(demo_swapped)))
    assert not rep.holds
    u, v = rep.witness
    # midpoints of the trailing negative and leading positive sign regions
    assert u == pytest.approx(0.75, abs=1e-9)
    assert v == pytest.approx(0.25, abs=1e-9)
    assert u > v


def test_crossing_report_consistency(demo_cross, demo_swapped):
    # a report holds exactly when it has no witness
    for flux in (demo_cross, demo_swapped):
        for pair in (dx.identity_transform(flux), dx.build_translation_transform(flux)):
            rep = dx.check_crossing(*dx.composed_fluxes(flux, pair))
            assert rep.holds is (rep.witness is None)
            assert rep.to_dict()["holds"] is rep.holds
    assert not dx.check_crossing(*dx.composed_fluxes(demo_swapped, dx.identity_transform(demo_swapped))).holds


def test_crossing_dead_band_absorbs_noise(burgers):
    u = np.linspace(0, 1, 513)
    rng = np.random.default_rng(11)
    base = np.asarray(burgers.f(u))
    wiggle = base + rng.uniform(-1, 1, size=u.size) * 1e-12
    wiggle[0] = wiggle[-1] = 0.0
    fa = dx.SampledCurve(u, wiggle)
    gb = dx.SampledCurve(u, base)
    assert dx.check_crossing(fa, gb, dead_band=1e-10).holds


def test_crossing_requires_common_domain(burgers):
    fa = dx.SampledCurve(np.linspace(0, 1, 11), np.zeros(11))
    gb = dx.SampledCurve(np.linspace(0, 2, 11), np.zeros(11))
    with pytest.raises(ValueError):
        dx.check_crossing(fa, gb)


def test_violation_amount_orders_candidates():
    assert _violation_amount(np.array([-1.0, 0.0, 1.0])) == 0.0
    assert _violation_amount(np.array([1.0, -0.5, 1.0])) == pytest.approx(0.5)
    assert _violation_amount(np.array([0.2, -0.6])) == pytest.approx(0.2)
    assert _violation_amount(np.array([])) == 0.0


@st_.composite
def _lattice(draw):
    """A strictly increasing node lattice from 0 to 1 with 2 to 20 nodes."""
    steps = draw(st_.lists(st_.floats(0.1, 1.0), min_size=1, max_size=19))
    nodes = np.concatenate(([0.0], np.cumsum(steps)))
    return nodes / nodes[-1]


@st_.composite
def _curves_with_clear_gaps(draw):
    """fa, gb on one lattice whose differences are 0 or at least 1e-6 in size.

    Gaps that size cannot be pushed across the 1e-10 dead band by the
    rounding of a shift by a constant of magnitude at most 1.
    """
    x = draw(_lattice())
    gap = st_.one_of(st_.just(0.0), st_.floats(1e-6, 1.0), st_.floats(-1.0, -1e-6))
    y_g = np.array(draw(st_.lists(st_.floats(-1.0, 1.0), min_size=len(x), max_size=len(x))))
    d = np.array(draw(st_.lists(gap, min_size=len(x), max_size=len(x))))
    return dx.SampledCurve(x, y_g + d), dx.SampledCurve(x, y_g)


@settings(max_examples=200, deadline=None)
@given(curves=_curves_with_clear_gaps(), shift=st_.floats(-1.0, 1.0))
def test_crossing_verdict_invariant_under_common_shift(curves, shift):
    fa, gb = curves
    base = dx.check_crossing(fa, gb)
    moved = dx.check_crossing(dx.SampledCurve(fa.x, fa.y + shift), dx.SampledCurve(gb.x, gb.y + shift))
    assert moved.holds == base.holds
    assert moved.witness == base.witness
    assert len(moved.crossings) == len(base.crossings)
    assert np.allclose(moved.crossings, base.crossings, rtol=0.0, atol=1e-9)


@settings(max_examples=200, deadline=None)
@given(data=st_.data(), dead_band=st_.sampled_from([0.0, 1e-10, 0.01, 0.3]))
def test_violation_amount_decides_crossing_on_one_lattice(data, dead_band):
    # the translation search decides each shift with _violation_amount on the
    # composed breakpoint union, so it must agree with check_crossing there
    x = data.draw(_lattice())
    values = st_.lists(st_.floats(-1.0, 1.0), min_size=len(x), max_size=len(x))
    fa = dx.SampledCurve(x, data.draw(values))
    gb = dx.SampledCurve(x, data.draw(values))
    fails = not dx.check_crossing(fa, gb, dead_band).holds
    assert fails == (_violation_amount(fa.y - gb.y) > dead_band)


def _check_crossing_loop(fa, gb, dead_band):
    """The run walk check_crossing used before it was vectorised; the test oracle."""
    grid = merge_close(np.union1d(fa.x, gb.x))
    d = np.asarray(fa(grid)) - np.asarray(gb(grid))
    s = np.where(d > dead_band, 1, np.where(d < -dead_band, -1, 0))
    runs = []  # [sign, first_index, last_index]
    for idx in np.flatnonzero(s):
        sign = int(s[idx])
        if runs and runs[-1][0] == sign:
            runs[-1][2] = idx
        else:
            runs.append([sign, idx, idx])
    crossings = []
    for r1, r2 in zip(runs, runs[1:]):
        i1, i2 = r1[2], r2[1]
        crossings.append(float(grid[i1] + (-d[i1]) * (grid[i2] - grid[i1]) / (d[i2] - d[i1])))
    first_pos = next((k for k, r in enumerate(runs) if r[0] == 1), None)
    bad = [r for k, r in enumerate(runs) if r[0] == -1 and first_pos is not None and k > first_pos]
    if bad:
        pos_run, neg_run = runs[first_pos], bad[-1]
        witness = (
            float(0.5 * (grid[neg_run[1]] + grid[neg_run[2]])),
            float(0.5 * (grid[pos_run[1]] + grid[pos_run[2]])),
        )
        return dx.CrossingReport(tuple(crossings), witness)
    return dx.CrossingReport(tuple(crossings), None)


# values on the scale of the 1e-10 default dead band, exactly at it, and of order one
_crossing_values = st_.one_of(
    st_.floats(-1.0, 1.0),
    st_.floats(-3e-10, 3e-10),
    st_.sampled_from([0.0, 1e-10, -1e-10]),
)


@settings(max_examples=300, deadline=None)
@given(data=st_.data(), dead_band=st_.sampled_from([0.0, 1e-10, 0.01]))
def test_check_crossing_matches_run_walk(data, dead_band):
    xf, xg = data.draw(_lattice()), data.draw(_lattice())
    fa = dx.SampledCurve(xf, data.draw(st_.lists(_crossing_values, min_size=len(xf), max_size=len(xf))))
    gb = dx.SampledCurve(xg, data.draw(st_.lists(_crossing_values, min_size=len(xg), max_size=len(xg))))
    assert dx.check_crossing(fa, gb, dead_band) == _check_crossing_loop(fa, gb, dead_band)



def test_check_crossing_matches_run_walk_on_built_pairs(demo_cross, demo_swapped, demo_connection):
    pairs = [
        (demo_cross, dx.identity_transform(demo_cross)),
        (demo_swapped, dx.identity_transform(demo_swapped)),
        (demo_swapped, dx.build_translation_transform(demo_swapped)),
        (dx.get_flux("burgers-like"), demo_connection[1]),
    ]
    for flux, pair in pairs:
        fa, gb = dx.composed_fluxes(flux, pair)
        assert dx.check_crossing(fa, gb) == _check_crossing_loop(fa, gb, TOL_CROSS)

# -------------------------------------------------------------- connections

def test_is_connection_frozen_cases(burgers):
    ok = dx.is_connection(burgers, 0.75, 0.25)
    assert ok.ok and ok.flux_gap == pytest.approx(0.0, abs=1e-12)
    assert ok.u_star_f == pytest.approx(0.5, abs=1e-3)
    assert ok.u_star_g == pytest.approx(0.5, abs=1e-3)

    # equal states have zero flux gap, so only the bracket can fail
    bad_order = dx.is_connection(burgers, 0.3, 0.3)
    assert not bad_order.ok and "ordering" in bad_order.reason

    mismatch = dx.is_connection(burgers, 0.75, 0.3)
    assert not mismatch.ok
    # |f(0.3) - g(0.75)| = |0.21 - 0.1875|
    assert mismatch.flux_gap == pytest.approx(0.0225, abs=1e-6)


def test_connection_endpoints_classic_only(burgers):
    # A = b and B = a sit on the closed brackets, which pass
    assert dx.is_connection(burgers, 1.0, 0.0).ok


# -------------------------------------------------------- translation search

def test_translation_zero_shift_for_compliant_pair(demo_cross):
    pair = dx.build_translation_transform(demo_cross)
    assert pair.shifts == (0.0, 0.0)
    assert pair.kind == "translation"


def test_translation_fixes_swapped_pair(demo_swapped):
    pair = dx.build_translation_transform(demo_swapped)
    k_l, k_r = pair.shifts
    assert k_l > k_r
    assert k_l == pytest.approx(0.16, abs=1e-9)
    assert k_r == pytest.approx(0.0, abs=1e-12)
    rep = dx.check_crossing(*dx.composed_fluxes(demo_swapped, pair))
    assert rep.holds
    assert dx.verify_transform(demo_swapped, pair).ok


def test_translation_reports_best_miss_when_unrepairable():
    # f leaves b through negative values and g enters a through negative
    # values; shifting preserves both tails, so the blended difference is
    # positive near the left hull end and negative near the right one for
    # every k_l >= k_r and the search must give up with its best miss.
    u = np.linspace(0.0, 1.0, 513)
    hump = 0.1 * np.sin(2 * np.pi * u)
    pair = dx.FluxPair(dx.SampledCurve(u, hump), dx.SampledCurve(u, -hump))
    with pytest.raises(ConstructionError) as err:
        dx.build_translation_transform(pair)
    assert err.value.payload is not None
    assert err.value.payload["violation"] > 0.05
    assert err.value.payload["shifts"] is not None


@pytest.mark.parametrize("name", ["burgers-like", "demo-cross", "demo-swapped", "zero"])
def test_translation_search_reads_the_composed_difference(monkeypatch, name):
    # the search evaluates f(v) - g(v + d) directly, with no composed curve;
    # on the registry lattices that is, bit for bit, the difference the
    # composed pair of each shift gives on its breakpoint union.  A search
    # whose every amount reads as a miss tries every shift of the grid.
    flux = dx.get_flux(name)
    width = flux.b - flux.a
    shifts = np.linspace(-width, width, transforms._SHIFT_NODES)
    shifts = shifts[shifts >= 0.0]
    for miss in (False, True):
        seen = []

        def amount(d):
            seen.append(d)
            return np.inf if miss else _violation_amount(d)

        monkeypatch.setattr(transforms, "_violation_amount", amount)
        if miss:
            with pytest.raises(ConstructionError):
                dx.build_translation_transform(flux)
            assert len(seen) == len(shifts)
        else:
            assert dx.build_translation_transform(flux).shifts == (shifts[len(seen) - 1], 0.0)
        for d, diff in zip(shifts, seen):
            _, fa, gb = _on_union(*dx.composed_fluxes(flux, _translation_pair(flux, d, 0.0)))
            assert np.array_equal(diff, fa - gb), d


def _translation_search_2d(flux, nodes):
    """A norm-ordered search over both shifts; the oracle of the 1-D scan.

    Every pair k_r <= k_l of the grid is checked exactly, in order of
    |k_l| + |k_r| with ties toward smaller k_l.  Pairs with k_l - k_r > b - a
    are skipped: such a pair passes only if (b - a, 0) does, which has the
    smaller norm, so it cannot come before a success.  Returns k_l - k_r of
    the first success, or None.
    """
    width = flux.b - flux.a
    ks = np.linspace(-width, width, nodes)
    pairs = [(float(kl), float(kr)) for kl in ks for kr in ks if kr <= kl and kl - kr <= width]
    pairs.sort(key=lambda p: (abs(p[0]) + abs(p[1]), p[0]))
    for k_l, k_r in pairs:
        if dx.check_crossing(*dx.composed_fluxes(flux, _translation_pair(flux, k_l, k_r))).holds:
            return k_l - k_r
    return None


def _random_flux_pair(rng):
    """Tent-shaped branches on [0, 1] with noise; they vanish at both ends."""
    u = np.linspace(0.0, 1.0, int(rng.integers(9, 40)))

    def branch():
        peak = rng.uniform(0.2, 0.8)
        tent = np.where(u < peak, u / peak, (1.0 - u) / (1.0 - peak))
        noise = rng.uniform(-1.0, 1.0, size=u.size) * rng.uniform(0.0, 0.04)
        y = rng.uniform(0.1, 0.3) * tent + noise
        y[0] = y[-1] = 0.0
        return y

    return dx.FluxPair.from_arrays(u, branch(), branch())


def test_translation_search_matches_2d_oracle(monkeypatch):
    rng = np.random.default_rng(41)
    found = []
    for k in range(15):
        flux = _random_flux_pair(rng)
        nodes = (15, 17, 19, 21)[k % 4]
        monkeypatch.setattr(transforms, "_SHIFT_NODES", nodes)
        expected = _translation_search_2d(flux, nodes)
        try:
            d, k_r = dx.build_translation_transform(flux).shifts
            assert k_r == 0.0
        except ConstructionError:
            d = None
        found.append(d)
        if expected is None:
            assert d is None
            continue
        assert d == pytest.approx(expected, abs=1e-12)
        # the verdict depends on d alone: every split of d passes, and every
        # split one grid step below fails
        step = 2.0 * (flux.b - flux.a) / (nodes - 1)
        for shift, holds in ((d, True), (d - step, False)):
            if shift < 0.0:
                continue
            for k_r in np.linspace(-shift, 0.0, 5):
                pair = _translation_pair(flux, shift + k_r, k_r)
                assert dx.check_crossing(*dx.composed_fluxes(flux, pair)).holds == holds
    # the sample must exercise compliant, repaired and unrepairable pairs
    assert 0.0 in found and None in found and any(d for d in found)


# ------------------------------------------------------ connection transform

def test_connection_transform_matches_hand_construction(burgers, demo_connection):
    conn, pair = demo_connection
    assert pair.c == pytest.approx(0.5)
    assert pair.alpha.forward(0.5) == pytest.approx(0.25, abs=1e-12)
    assert pair.beta.forward(0.5) == pytest.approx(0.75, abs=1e-12)

    fa, gb = dx.composed_fluxes(burgers, pair)
    v = np.linspace(0, 0.5, 101)
    # left of the meeting point the composed right-branch is the linear minorant
    assert np.max(np.abs(np.asarray(fa(v)) - 0.375 * v)) < 1e-13
    w = np.linspace(0.5, 1.0, 101)
    assert np.max(np.abs(np.asarray(gb(w)) - 0.375 * (1 - w))) < 1e-13

    # closed form of the resulting alpha on [0, 1/2]
    exact = (1 - np.sqrt(1 - 1.5 * v)) / 2
    assert np.max(np.abs(pair.alpha.forward(v) - exact)) < 1e-6

    rep = dx.check_crossing(fa, gb)
    assert rep.holds and rep.crossings == (pytest.approx(0.5),)


def test_connection_transform_asymmetric_branches(demo_cross):
    # g = 2u(1-u)^2 on the left, f = u(1-u) on the right
    A = 0.6
    gA = float(demo_cross.g(A))
    # solve f(B) = g(A) on the sampled rising branch so the gap is exact
    fs = demo_cross.f
    rising = fs.x <= 0.5
    B = float(np.interp(gA, fs.y[rising], fs.x[rising]))
    conn = dx.Connection(A, B)
    assert dx.is_connection(demo_cross, A, B).ok
    pair = dx.build_connection_transform(demo_cross, conn)
    fa, gb = dx.composed_fluxes(demo_cross, pair)
    assert abs(float(fa(pair.c)) - float(gb(pair.c))) < 1e-8
    assert abs(pair.alpha.forward(pair.c) - B) <= 1e-16
    assert abs(pair.beta.forward(pair.c) - A) < 1e-12
    assert dx.verify_transform(demo_cross, pair).ok


@pytest.mark.parametrize("A, B", [(0.75, 0.25), (0.9, 0.1), (0.6, 0.4)])
def test_connection_tables_match_the_monotone_chain(monkeypatch, burgers, A, B):
    # both minorant inversions read the envelope's vertices as breakpoints
    built = dx.build_connection_transform(burgers, dx.Connection(A, B)).table()
    monkeypatch.setattr(transforms, "lower_convex_envelope", monotone_chain)
    ref = dx.build_connection_transform(burgers, dx.Connection(A, B)).table()
    assert all(np.array_equal(got, want) for got, want in zip(built, ref, strict=True))


def test_connection_transform_degenerate_states(burgers):
    # A and B both equal to the critical point: every bridge collapses
    pair = dx.build_connection_transform(burgers, dx.Connection(0.5, 0.5))
    assert dx.verify_transform(burgers, pair).ok
    assert pair.alpha.forward(pair.c) == pytest.approx(0.5, abs=1e-9)


def test_connection_transform_rejects_invalid_states(burgers):
    with pytest.raises(ValueError):
        dx.build_connection_transform(burgers, dx.Connection(0.3, 0.25))


def test_reconstruction_recovers_steady_profile(burgers, demo_connection):
    conn, pair = demo_connection
    x = np.linspace(-2, 2, 101)
    u = dx.steady_connection_state(burgers, conn, x)
    v_left = pair.beta.inverse(u[x <= 0])
    v_right = pair.alpha.inverse(u[x > 0])
    # both sides map the steady profile to the same constant level c
    assert np.max(np.abs(v_left - pair.c)) < 1e-12
    assert np.max(np.abs(v_right - pair.c)) < 1e-12


# ------------------------------------------------------------------- audits

def test_transform_pair_requires_common_domain():
    a = dx.MonotoneBijection.identity(0.0, 1.0)
    b = dx.MonotoneBijection.identity(0.0, 2.0)
    with pytest.raises(ValueError):
        dx.TransformPair(a, b)


@pytest.mark.parametrize("alpha, beta, name, ends", [
    ((0.0, 1.0), (1e-10, 1.0), "beta", "v = 0 and 1e-10"),
    ((0.0, 1.0 - 1e-10), (0.0, 1.0), "alpha", "v = 0.99999999989999999 and 1"),
], ids=["low", "high"])
def test_transform_pair_names_the_map_that_repeats_an_end(alpha, beta, name, ends):
    # domain ends closer than CLAMP_SLACK pass the shared-domain check; the
    # map with the inner end is clamped across the gap and repeats its end value
    a, b = (dx.MonotoneBijection(np.array(d), np.array(d)) for d in (alpha, beta))
    with pytest.raises(ValueError) as got:
        dx.TransformPair(a, b)
    message = str(got.value)
    assert message.startswith(f"{name} repeats its end value ")
    assert f"at {ends}: two domain ends that differ by 1e-10, less than CLAMP_SLACK = 1e-09" in message
    # nodes a clear gap apart are a pair's own kinks
    dx.TransformPair(dx.MonotoneBijection.identity(0.0, 1.0),
                     dx.MonotoneBijection(np.array([0.0, 1e-6, 1.0]), np.array([0.0, 0.25, 1.0])))


@pytest.mark.parametrize("extra, error", [
    ({"shifts": 0.16}, TypeError),
    ({"shifts": (0.16,)}, ValueError),
    ({"shifts": (0.16, 0.0, 0.0)}, ValueError),
    ({"shifts": (np.inf, 0.0)}, ValueError),
    ({"shifts": (0.0, np.nan)}, ValueError),
    ({"connection": {"A": 0.75, "B": 0.25}}, TypeError),
    ({"shifts": (0.0, 0.0), "connection": dx.Connection(0.75, 0.25)}, ValueError),
], ids=["number", "one", "three", "inf", "nan", "dict-connection", "both"])
def test_transform_pair_rejects_malformed_metadata(extra, error):
    ident = dx.MonotoneBijection.identity(0.0, 1.0)
    with pytest.raises(error):
        dx.TransformPair(ident, ident, **extra)


def test_kind_and_c_are_derived(burgers, demo_connection):
    ident = dx.MonotoneBijection.identity(0.0, 1.0)
    ramp = dx.MonotoneBijection(np.array([0.0, 0.5, 1.0]), np.array([0.0, 0.25, 1.0]))
    conn, pair = demo_connection
    assert dx.TransformPair(ident, ident).kind == "identity"
    assert dx.TransformPair(ramp, ident).kind == "custom"
    assert dx.TransformPair(ident, ident, shifts=[0, 0]).shifts == (0.0, 0.0)
    assert _translation_pair(burgers, 0.0, 0.0).kind == "translation"
    assert pair.kind == "connection"
    assert dx.TransformPair(ramp, ident).c is None
    assert pair.alpha.forward(pair.c) == pytest.approx(conn.B, abs=1e-12)


@pytest.mark.parametrize("A, B", [(0.75, 0.25), (0.8, 0.2), (0.9, 0.1), (0.6, 0.4), (0.5, 0.5)])
def test_connection_c_is_the_builders_knot(tmp_path, burgers, A, B):
    # c = (v1 + v2) / 2 with v1, v2 a third of the domain in from each end,
    # bit for bit, before and after a trip through the CSV table
    a, b = burgers.a, burgers.b
    knot = 0.5 * ((a + (b - a) / 3.0) + (b - (b - a) / 3.0))
    pair = dx.build_connection_transform(burgers, dx.Connection(A, B))
    dx.save_transform_csv(tmp_path / "t.csv", pair)
    back = dx.load_transform_csv(tmp_path / "t.csv")
    assert pair.c == back.c == knot
    assert pair.beta.forward(knot) == back.beta.forward(knot) == A
    # the audit holds alpha(c) to B within 1e-12; the built pairs meet it to a few ulps
    for p in (pair, back):
        assert abs(p.alpha.forward(knot) - B) <= 1e-16
        assert dx.verify_transform(burgers, p).ok


def test_verify_flags_maps_that_are_not_the_translation_of_their_shifts(demo_swapped):
    built = dx.build_translation_transform(demo_swapped)
    k_l, k_r = built.shifts
    assert dx.verify_transform(demo_swapped, built).ok
    # the pair of other shifts, or the same maps relabelled, fail the audit
    for pair in (dx.TransformPair(built.alpha, built.beta, shifts=(k_l, k_r + 0.01)),
                 dx.TransformPair(built.alpha, built.beta, shifts=(k_r, k_l)),
                 dx.TransformPair(built.alpha, built.beta, shifts=(0.0, 5.0))):
        audit = dx.verify_transform(demo_swapped, pair)
        assert not audit.ok
        assert any("not the translation pair of shifts" in msg for msg in audit.failures)


def test_verify_flags_a_connection_its_maps_do_not_realise(burgers):
    # c = beta^-1(0.75) = 0.75 and f(0.75) = f(0.25), so the composed fluxes
    # agree at c; but alpha carries c to 0.75, not to B
    ident = dx.MonotoneBijection.identity(0.0, 1.0)
    audit = dx.verify_transform(burgers, dx.TransformPair(ident, ident, connection=dx.Connection(0.75, 0.25)))
    assert not audit.ok
    assert audit.failures == ("alpha(c) misses the connection's B = 0.25 (gap 5.000e-01)",)



def test_verify_flags_a_connection_whose_composed_fluxes_disagree_at_c(demo_cross):
    # c = beta^-1(0.3) = 0.3 and alpha carries it to B = 0.3; but f(0.3) and
    # g(0.3) differ, so (0.3, 0.3) is no connection of this pair
    ident = dx.MonotoneBijection.identity(0.0, 1.0)
    audit = dx.verify_transform(demo_cross, dx.TransformPair(ident, ident, connection=dx.Connection(0.3, 0.3)))
    assert not audit.ok
    assert audit.failures == ("composed fluxes disagree at c: |f_a(c)-g_b(c)| = 8.400e-02",)

def test_verify_flags_non_crossing_pair(demo_swapped):
    audit = dx.verify_transform(demo_swapped, dx.identity_transform(demo_swapped))
    assert not audit.ok
    assert any("crossing" in msg for msg in audit.failures)
    assert audit.crossing is not None and not audit.crossing.holds


def test_verify_flags_composition_escape(burgers):
    alpha = dx.MonotoneBijection.identity(0.0, 1.0)
    beta = dx.MonotoneBijection(np.array([0.0, 1.0]), np.array([0.3, 1.5]))
    audit = dx.verify_transform(burgers, dx.TransformPair(alpha, beta))
    assert not audit.ok
    assert any("composition" in msg for msg in audit.failures)


def test_verify_flags_a_map_its_inverse_does_not_undo(burgers):
    # a segment 1e-14 high is strictly increasing, so the pair constructs, but
    # inverting it loses all but a few digits of the argument
    m = dx.MonotoneBijection(np.array([0.0, 0.5, 0.6, 1.0]), np.array([0.0, 0.5, 0.5 + 1e-14, 1.0]))
    audit = dx.verify_transform(burgers, dx.TransformPair(m, m))
    assert audit.failures == ("round-trip error 5.506e-04 exceeds tolerance",)
    assert audit.round_trip_error > 1e-4


def test_identity_transform_roundtrip(burgers):
    audit = dx.verify_transform(burgers, dx.identity_transform(burgers))
    assert audit.ok
    assert audit.round_trip_error < 1e-14


# ------------------------------------------------------------- kept audits

def test_a_pair_is_composed_once(monkeypatch, burgers):
    # the builder audits the pair it returns; the solves, the verifications
    # and the ladder's three solves all read that audit
    calls = []
    real = transforms.composed_fluxes

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(transforms, "composed_fluxes", counted)
    pair = dx.build_connection_transform(burgers, dx.Connection(0.75, 0.25))
    cfg = dx.SolverConfig(cells=64, t_end=0.05)
    u0 = lambda x: np.where(x <= 0.0, 0.8, 0.4)
    fields = [dx.solve(burgers, u0, pair, cfg) for _ in range(2)]
    audits = [dx.verify_transform(f.flux, f.transform) for f in fields]
    dx.ladder(burgers, u0, pair, cfg, levels=3)
    assert all(a.ok for a in audits)
    assert len(calls) == 1


def test_the_kept_audit_is_keyed_on_the_flux_object(burgers, demo_swapped):
    pair = dx.identity_transform(burgers)
    for flux, holds in ((burgers, True), (demo_swapped, False), (burgers, True)):
        audit = dx.verify_transform(flux, pair)
        assert audit.ok == audit.crossing.holds == holds
        assert (audit.crossing.witness is None) == holds
        assert dx.verify_transform(flux, pair) is audit
        assert audit == dx.verify_transform(flux, dx.identity_transform(flux))
    # a pair made by replace keeps nothing of the audit it was made from
    built = dx.build_translation_transform(demo_swapped)
    assert dx.verify_transform(demo_swapped, built).ok
    moved = replace(built, shifts=(built.shifts[0], built.shifts[1] + 0.01))
    audit = dx.verify_transform(demo_swapped, moved)
    assert not audit.ok
    assert any("not the translation pair of shifts" in msg for msg in audit.failures)


@pytest.mark.parametrize("name, build, states", [
    ("burgers-like", dx.identity_transform, (0.8, 0.4)),
    ("demo-swapped", dx.build_translation_transform, (0.3, 0.7)),
    ("burgers-like", lambda flux: dx.build_connection_transform(flux, dx.Connection(0.75, 0.25)), (0.8, 0.4)),
], ids=["identity", "translation", "connection"])
def test_solves_never_write_the_kept_tables(name, build, states):
    flux = dx.get_flux(name)
    cfg = dx.SolverConfig(cells=64, t_end=0.05)
    u0 = lambda x: np.where(x <= 0.0, *states)
    pair = build(flux)
    runs = [dx.solve(flux, u0, pair, cfg) for _ in range(2)]
    kept, fresh = _audit(flux, pair), _audit(flux, build(flux))
    assert kept[0] == fresh[0]
    for table, want in zip(kept[1], fresh[1]):
        # writable, since np.interp copies a read-only table on every call
        assert table.flags.writeable
        assert table.tobytes() == want.tobytes()
    reference = dx.solve(flux, u0, build(flux), cfg)
    for run in runs:
        for key in ("u", "v", "mass", "boundary_flux"):
            assert getattr(run, key).tobytes() == getattr(reference, key).tobytes()
        assert run.stats == reference.stats
