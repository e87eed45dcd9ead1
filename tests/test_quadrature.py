"""Radial quadrature and the dyadic-shell divergence classifier.

Known closed forms used as oracles: gaussian integrals sqrt(pi)^d, and
integral of (1 + |xi|)^(-3/4) over [-1, 1], which is 8 (2^(1/4) - 1).
"""

import inspect
import math
import warnings

import numpy as np
import pytest

import fellerkit as fk
from fellerkit import quadrature
from fellerkit.quadrature import (
    IntegralResult,
    classify_family,
    classify_improper,
    direction_set,
    integrate_radial,
    surface_area,
)


class TestIntegrateRadial:
    def test_gaussian_one_dimensional(self):
        res = integrate_radial(lambda r: np.exp(-(r**2)), 1, 0.0, np.inf)
        assert res.value == pytest.approx(math.sqrt(math.pi), rel=1e-12)
        assert res.classification == "convergent"
        assert res.annulus_trace == []

    def test_gaussian_two_dimensional(self):
        res = integrate_radial(lambda r: np.exp(-(r**2)), 2, 0.0, np.inf)
        assert res.value == pytest.approx(math.pi, rel=1e-10)
        assert res.abs_error_estimate < 1e-6

    def test_infinite_integrand_is_undetermined(self):
        res = integrate_radial(lambda r: math.inf, 1, 0.0, 1.0)
        assert res.classification == "undetermined"
        assert not res.infinite
        assert res.to_dict() == {
            "value": None,
            "abs_error_estimate": None,
            "classification": "undetermined",
            "annulus_trace": [],
        }


class TestClassifyImproper:
    def test_gaussian_full_space(self):
        res = classify_improper(lambda xi: np.exp(-np.asarray(xi) ** 2), 1, include_tail=True)
        assert res.classification == "convergent"
        assert res.value == pytest.approx(math.sqrt(math.pi), rel=1e-9)

    def test_gaussian_unit_ball_default(self):
        # default is the unit ball only: 2 * integral_0^1 e^(-r^2) dr
        res = classify_improper(lambda xi: np.exp(-np.asarray(xi) ** 2), 1)
        assert res.value == pytest.approx(1.493648265624854, rel=1e-9)

    def test_three_quarters_power_on_ball(self):
        res = classify_improper(lambda xi: (1 + np.abs(np.asarray(xi))) ** -0.75, 1)
        assert res.classification == "convergent"
        assert res.value == pytest.approx(8 * (2**0.25 - 1), rel=1e-12)

    def test_three_quarters_power_with_tail_diverges(self):
        res = classify_improper(
            lambda xi: (1 + np.abs(np.asarray(xi))) ** -0.75, 1, include_tail=True
        )
        assert res.classification == "divergent_at_infinity"
        assert res.infinite
        assert res.value == math.inf

    def test_inverse_modulus_diverges_at_zero(self):
        res = classify_improper(lambda xi: 1.0 / np.abs(np.asarray(xi)), 1)
        assert res.classification == "divergent_at_zero"
        assert res.infinite

    def test_annulus_trace_structure(self):
        res = classify_improper(lambda xi: np.exp(-np.asarray(xi) ** 2), 1)
        trace = res.annulus_trace
        assert trace[0][0] == -40
        idx = [j for j, _ in trace]
        assert idx == sorted(idx)
        assert all(v >= 0 for _, v in trace)

    def test_log_squared_weight_is_conservatively_divergent(self):
        # integrable at both ends, but the shell masses decay like 1/j^2 on
        # the dyadic scale: the ratio test cannot certify that, and the
        # classifier prefers a false "divergent" to a false "convergent"
        def f(xi):
            r = np.abs(np.asarray(xi))
            return 1.0 / (r * (1.0 + np.log(r) ** 2))

        res = classify_improper(f, 1, include_tail=True)
        assert res.classification == "divergent_at_zero"

    def test_oscillating_shells_are_undetermined(self):
        # alternating shell masses defeat both the nondecreasing test and
        # the geometric tail extrapolation: no verdict is invented
        def f(xi):
            r = np.abs(np.asarray(xi))
            j = np.floor(np.log2(r))
            return 0.8 ** np.abs(j) * (1 + 0.9 * np.cos(np.pi * j)) / r

        res = classify_improper(f, 1)
        assert res.classification == "undetermined"
        assert math.isnan(res.value)
        assert len(res.annulus_trace) == 400

    def test_kink_inside_a_shell_is_resolved(self):
        # the infinite slope at |xi| = 0.7 sits inside the shell [0.5, 1],
        # which the shell rule has to bisect to meet its budget:
        # 2 * integral_0^1 |r - 0.7|^(1/2) dr = (4/3) (0.7^1.5 + 0.3^1.5)
        res = classify_improper(lambda xi: np.sqrt(np.abs(np.abs(xi) - 0.7)), 1)
        assert res.classification == "convergent"
        assert res.value == pytest.approx(4.0 / 3.0 * (0.7**1.5 + 0.3**1.5), rel=1e-9)

    @pytest.mark.parametrize(
        "f, d, radial",
        [
            (lambda xi: np.where(np.abs(xi) < 0.3, np.inf, 1.0), 1, True),
            # +inf and -inf on the two sides: the direction mean is nan
            (lambda xi: np.where(xi > 0, np.inf, -np.inf), 1, False),
            (lambda xi: np.where(xi[..., 0] > 0, np.inf, -np.inf), 2, False),
        ],
    )
    def test_nonfinite_node_values_diverge_without_warnings(self, f, d, radial):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = classify_improper(f, d, radial=radial)
        assert res.classification == "divergent_at_zero"
        assert res.value == math.inf

    def test_nonradial_two_dimensional(self):
        # angular weight 1 + sin^2 averages to 3/2, so the full-plane
        # gaussian integral becomes 1.5 pi
        def f(xi):
            xi = np.asarray(xi)
            x, y = xi[..., 0], xi[..., 1]
            ang = np.arctan2(y, x)
            return (1 + np.sin(ang) ** 2) * np.exp(-(x**2) - y**2)

        res = classify_improper(f, 2, include_tail=True, radial=False)
        assert res.classification == "convergent"
        assert res.value == pytest.approx(1.5 * math.pi, rel=1e-6)


class TestPointShape:
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("radial", [True, False])
    def test_one_integrand_in_every_dimension(self, d, radial):
        # points are component-last in every dimension, so one gaussian
        # written with the norm over the last axis serves d = 1, 2 and 3
        shapes = set()

        def f(xi):
            shapes.add(xi.shape[1:])
            return np.exp(-np.linalg.norm(xi, axis=-1) ** 2)

        res = classify_improper(f, d, include_tail=True, radial=radial)
        assert res.classification == "convergent"
        assert res.value == pytest.approx(math.pi ** (d / 2), rel=1e-9)
        assert shapes == {(1 if radial else len(direction_set(d)), d)}


def _norm(xi, d):
    xi = np.asarray(xi)
    return np.abs(xi) if d == 1 else np.linalg.norm(xi, axis=-1)


def _angle_weight(xi, d, a, b):
    """a + b sin(angle) in the plane, 1 in d = 1; a radial walk reads it on
    the e_1 ray only."""
    if d == 1:
        return 1.0
    xi = np.asarray(xi)
    return a + b * np.sin(np.arctan2(xi[..., 1], xi[..., 0]))


def _family_rows(d):
    """Integrands over R^d, one per classification, plus two rows kinked
    inside the shell [0.5, 1], whose bisections part after the first cut."""
    def convergent(xi):
        return _angle_weight(xi, d, 1.0, 0.5) * np.exp(-_norm(xi, d) ** 2)

    def divergent_at_zero(xi):  # |xi|^(-d - 1/2)
        return _angle_weight(xi, d, 1.5, 1.0) * _norm(xi, d) ** (-d - 0.5)

    def divergent_at_infinity(xi):  # decays like |xi|^(-d + 1/2)
        return _angle_weight(xi, d, 1.0, 0.5) / (1.0 + _norm(xi, d)) ** (d - 0.5)

    def nonfinite(xi):  # +inf on the ball of radius 0.3
        r = _norm(xi, d)
        return np.where(r < 0.3, np.inf, np.exp(-r))

    def kinked_at(k):
        return lambda xi: np.sqrt(np.abs(_norm(xi, d) - k)) * np.exp(-_norm(xi, d))

    return {
        "convergent": convergent,
        "divergent_at_zero": divergent_at_zero,
        "divergent_at_infinity": divergent_at_infinity,
        "nonfinite": nonfinite,
        "kinked_at_0.6": kinked_at(0.6),
        "kinked_at_0.9": kinked_at(0.9),
    }


def _same_float(a, b):
    return (math.isnan(a) and math.isnan(b)) or a == b


class TestClassifyFamily:
    @pytest.mark.parametrize("d, radial", [(1, True), (2, True), (2, False)])
    def test_each_row_gets_its_result_alone(self, d, radial):
        rows = _family_rows(d)
        fns = list(rows.values())

        def family(xi):
            return np.stack([fn(xi) for fn in fns])

        with np.errstate(divide="ignore", over="ignore"):
            together = classify_family(family, len(fns), d, include_tail=True, radial=radial)
            alone = [classify_improper(fn, d, include_tail=True, radial=radial) for fn in fns]
        assert [res.classification for res in together] == [
            "convergent", "divergent_at_zero", "divergent_at_infinity", "divergent_at_zero",
            "convergent", "convergent",
        ]
        for name, got, want in zip(rows, together, alone):
            assert _same_float(got.value, want.value), name
            assert _same_float(got.abs_error_estimate, want.abs_error_estimate), name
            assert got.classification == want.classification, name
            assert [j for j, _ in got.annulus_trace] == [j for j, _ in want.annulus_trace], name
            assert all(
                _same_float(v, w) for (_, v), (_, w) in zip(got.annulus_trace, want.annulus_trace)
            ), name

    @pytest.mark.parametrize("d, radial", [(1, True), (2, False)])
    def test_rows_with_and_without_a_tail(self, d, radial):
        fns = list(_family_rows(d).values())
        tails = [True, False] * (len(fns) // 2)

        def family(xi):
            return np.stack([fn(xi) for fn in fns])

        with np.errstate(divide="ignore", over="ignore"):
            together = classify_family(family, len(fns), d, include_tail=tails, radial=radial)
            alone = [
                classify_improper(fn, d, include_tail=tail, radial=radial)
                for fn, tail in zip(fns, tails)
            ]
        for got, want, tail in zip(together, alone, tails):
            # repr round-trips a float, so equal reprs are equal bits
            assert repr(got) == repr(want)
            assert tail or all(j < 0 for j, _ in got.annulus_trace)

    def test_one_call_per_pass_for_all_rows(self):
        # the walk asks f once per shell pass, never once per row
        calls = []

        def family(xi):
            calls.append(len(xi))
            return np.exp(-np.outer([1.0, 2.0, 4.0], np.asarray(xi) ** 2))

        res = classify_family(family, 3, 1, include_tail=True)
        assert [r.classification for r in res] == ["convergent"] * 3
        for scale, r in zip([1.0, 2.0, 4.0], res):
            assert r.value == pytest.approx(math.sqrt(math.pi / scale), rel=1e-9)
        longest = max(len(r.annulus_trace) for r in res)
        assert len(calls) <= 2 * longest

    def test_empty_family(self):
        assert classify_family(lambda xi: np.zeros((0, np.size(xi))), 0, 1) == []

    @staticmethod
    def _staggered_rows():
        """Rows on the ladder of 1 that join its walks at different rungs,
        one at 3 on a ladder of its own; the row at 4 is +inf on its third
        inner shell [0.5, 1] and again on [1/16, 1/8], a shell it never
        walks.  The radius, the tail and the integrand of each."""
        def inf_on(*shells):
            def f(r):
                hit = np.zeros(r.shape, dtype=bool)
                for lo, hi in shells:
                    hit |= (r >= lo) & (r < hi)
                return np.where(hit, np.inf, np.exp(-r))
            return f

        return [
            (4.0, True, inf_on((0.5, 1.0), (1 / 16, 1 / 8))),
            (2.0, False, lambda r: np.exp(-r * r)),
            (1.0, True, lambda r: r**-1.5),
            (0.5, True, lambda r: np.sqrt(np.abs(r - 0.3)) * np.exp(-r)),
            (1 / 64, False, lambda r: np.exp(-r)),
            (3.0, True, lambda r: (1.0 + r) ** -0.5),
        ]

    def test_rows_joining_at_different_rungs_get_their_walks_alone(self):
        # a round holds the first passes of the shells a walk is sure to
        # take; the row that leaves on a nonfinite shell ignores its cells
        # of the later ones
        rows = self._staggered_rows()
        radii, tails, fns = map(list, zip(*rows))
        calls = []

        def family(xi):
            calls.append(len(xi))
            r = np.abs(xi[..., 0])
            return np.stack([fn(r) for fn in fns])

        with np.errstate(divide="ignore"):
            together = classify_family(family, len(fns), 1, radius=radii, include_tail=tails)
            alone = [
                classify_improper(lambda xi, fn=fn: fn(np.abs(xi[..., 0])), 1, radius=r,
                                  include_tail=tail)
                for r, tail, fn in rows
            ]
        assert [res.classification for res in together] == [
            "divergent_at_zero", "convergent", "divergent_at_zero", "convergent", "convergent",
            "divergent_at_infinity",
        ]
        for i, (got, want) in enumerate(zip(together, alone)):
            # repr round-trips a float, so equal reprs are equal bits
            assert repr(got) == repr(want), i
        assert 3 * len(calls) < max(len(res.annulus_trace) for res in together)

    def test_only_the_nodes_a_row_walks_leave_it_undetermined(self):
        # with rows_of, f is +inf on [1/16, 1/8]: the rows that walk it are
        # undetermined, whatever rows_of makes of it; the row at 4 leaves
        # on its nonfinite third shell first, and the row at 1/64 joins
        # below it
        def q(xi):
            r = np.abs(xi[..., 0])
            return np.where((r >= 1 / 16) & (r < 1 / 8), np.inf, r)

        rows = [row for k, row in enumerate(self._staggered_rows()) if k in (0, 1, 4)]
        radii, tails, fns = map(list, zip(*rows))

        def rows_of(fns):
            return lambda values, idx: np.stack([fns[i](values) for i in idx])

        with np.errstate(divide="ignore"):
            together = classify_family(
                q, len(fns), 1, rows_of=rows_of(fns), radius=radii, include_tail=tails
            )
            alone = [
                classify_family(q, 1, 1, rows_of=rows_of([fn]), radius=r, include_tail=tail)[0]
                for r, tail, fn in rows
            ]
        assert [res.classification for res in together] == [
            "divergent_at_zero", "undetermined", "convergent",
        ]
        assert [repr(res) for res in together] == [repr(res) for res in alone]


class TestLockstep:
    """Walks at several radii and in both directions share each envelope
    call, and every row still gets the result of one call per radius."""

    @staticmethod
    def _rows(d):
        """Each row of _family_rows twice: at radius 1 with a tail (both
        directions, so inner and outer errors add up), and at radius 0.5
        or 2 with every third row tailed."""
        rows = []
        for k, fn in enumerate(_family_rows(d).values()):
            rows += [(fn, 1.0, True), (fn, (0.5, 2.0)[k % 2], k % 3 == 0)]
        return rows

    @pytest.mark.parametrize("d, radial", [
        (1, True), (1, False), (2, True), (2, False), (3, True), (3, False),
    ])
    def test_per_row_radii_match_one_call_per_radius(self, d, radial):
        rows = self._rows(d)
        if d > 1 and not radial:  # 1024 directions: keep one row of each kind
            rows = rows[:8]
        fns, radii, tails = map(list, zip(*rows))

        def family(fns):
            return lambda xi: np.stack([fn(xi) for fn in fns])

        with np.errstate(divide="ignore", over="ignore"):
            together = classify_family(
                family(fns), len(fns), d, radius=radii, include_tail=tails, radial=radial
            )
            alone = {}
            for r in dict.fromkeys(radii):
                at_r = [i for i, radius in enumerate(radii) if radius == r]
                results = classify_family(
                    family([fns[i] for i in at_r]), len(at_r), d, radius=r,
                    include_tail=[tails[i] for i in at_r], radial=radial,
                )
                alone.update(zip(at_r, results))
        assert {res.classification for res in together} == {
            "convergent", "divergent_at_zero", "divergent_at_infinity"
        }
        for i, got in enumerate(together):
            # repr round-trips a float, so equal reprs are equal bits
            assert repr(got) == repr(alone[i]), i

    @pytest.mark.parametrize("d, radial", [(1, False), (2, True), (2, False)])
    def test_a_row_is_computed_only_at_its_own_walks_nodes(self, d, radial):
        # f returns |xi|, so ``rows_of`` sees the radii it is asked at
        radii = [1.0, 1.0, 0.5, 2.0, 2.0]
        tails = [True, False, False, True, False]
        scales = np.array([1.0, 2.0, 0.5, 1.0, 3.0])
        asked = []

        def rows_of(q, idx):
            asked.append((idx.tolist(), float(q.min()), float(q.max())))
            return np.exp(-scales[idx].reshape((-1,) + (1,) * q.ndim) * q**2)

        def family(xi):
            r = _norm(xi, d)
            return np.exp(-scales.reshape((-1,) + (1,) * r.ndim) * r**2)

        split = classify_family(
            lambda xi: _norm(xi, d), 5, d, rows_of=rows_of, radius=radii, include_tail=tails,
            radial=radial,
        )
        whole = classify_family(family, 5, d, radius=radii, include_tail=tails, radial=radial)
        assert [repr(res) for res in split] == [repr(res) for res in whole]
        for idx, low, top in asked:
            # the rows of one walk share a ladder (here every radius does)
            assert len({math.frexp(radii[i])[0] for i in idx}) == 1
            # each row is asked only inside its own domain: on an inner
            # shell, below its radius; on an outer one, above it, and only
            # if it has a tail
            for i in idx:
                assert top < radii[i] or (low > radii[i] and tails[i]), (i, low, top)

    @pytest.mark.parametrize("radial, error", [
        (True, 1.9582714751450937e-13), (False, 1.9582714751450942e-13),
    ])
    def test_errors_add_inner_shells_first(self, radial, error):
        # pinned from the walk that ran all inner shells before the outer
        # ones; adding the outer errors first ends in ...094e-13 and ...945e-13
        fn = _family_rows(2)["convergent"]
        (res,) = classify_family(
            lambda xi: fn(xi)[None], 1, 2, include_tail=True, radial=radial
        )
        assert res.classification == "convergent"
        assert res.abs_error_estimate == error

    def test_an_error_in_an_outer_shell_propagates(self):
        class EnvelopeFailure(Exception):
            pass

        def f(xi):
            if np.abs(xi).max() > 1e3:
                raise EnvelopeFailure("no envelope beyond |xi| = 1e3")
            return np.exp(-np.asarray(xi) ** 2)

        with pytest.raises(EnvelopeFailure, match=r"no envelope beyond \|xi\| = 1e3"):
            classify_family(f, 1, 1, radius=[1.0], include_tail=True)
        # without the outward walk nothing reaches 1e3
        assert classify_improper(f, 1).classification == "convergent"


class TestLadders:
    """Radii that differ by a power of two walk one ladder of shells per
    direction, and each row still gets the result of its radius alone."""

    @staticmethod
    def _walked_rows(monkeypatch):
        """The rows of every shell pass, as the tuple of rows per call."""
        calls = []
        real = quadrature._shell_integrals

        def spy(rows, *args):
            calls.append(tuple(rows))
            return (yield from real(rows, *args))

        monkeypatch.setattr(quadrature, "_shell_integrals", spy)
        return calls

    @pytest.mark.parametrize("d, radial", [(1, True), (1, False), (2, True), (2, False)])
    def test_rows_at_r_2r_4r_8r_match_each_radius_alone(self, d, radial, monkeypatch):
        fns = _family_rows(d)
        # rows at r, 2r, 4r and 8r, each with and without a tail, then one
        # at 3r, which is on a ladder of its own; the three rows kinked in
        # the shell [r/2, r] share its bisections
        radii = [0.75 * 2**s for s in range(4) for _ in range(2)] + [2.25]
        tails = [True, False] * 4 + [True]
        rows = [fns[name] for name in (
            "kinked_at_0.6", "convergent", "kinked_at_0.6", "divergent_at_zero",
            "divergent_at_infinity", "nonfinite", "kinked_at_0.9", "kinked_at_0.6", "convergent",
        )]
        calls = self._walked_rows(monkeypatch)
        with np.errstate(divide="ignore", over="ignore"):
            together = classify_family(
                lambda xi: np.stack([fn(xi) for fn in rows]), len(rows), d, radius=radii,
                include_tail=tails, radial=radial,
            )
            monkeypatch.undo()
            alone = [
                classify_improper(fn, d, radius=r, include_tail=tail, radial=radial)
                for fn, r, tail in zip(rows, radii, tails)
            ]
        for i, (got, want) in enumerate(zip(together, alone)):
            # repr round-trips a float, so equal reprs are equal bits
            assert repr(got) == repr(want), i
            # shell indices are relative to the row's own radius
            first = {-1, 0} & {j for j, _ in got.annulus_trace}
            assert first == ({-1, 0} if tails[i] else {-1}), i
        # the row at 3r walks alone; the rows of every radius on the ladder
        # of r share passes
        assert all(call == (8,) or 8 not in call for call in calls)
        assert any({0, 2, 4, 6} <= set(call) for call in calls)

    def test_an_occupation_row_shares_the_heat_rows_ladder(self, monkeypatch):
        # in d = 1 the occupation row of r = 0.25 walks |eta| <= 4r = 1,
        # the heat rows' radius, and those of 0.5 and 2 the radii 2 and 8
        env = fk.build_envelope(fk.alpha_stable(0.5, 1))
        calls = self._walked_rows(monkeypatch)
        *_, heat, _, occ = fk.frequency_criteria(
            env, None, True, [0.5, 1.0], occupation_radii=[0.25, 0.5, 2.0]
        )
        monkeypatch.undo()
        assert any({1, 3, 4, 5} <= set(call) for call in calls)  # a heat row and all three
        for r_occ, got in zip([0.25, 0.5, 2.0], occ):
            # reference: the row's radius walked alone, halved to eta space
            want = classify_improper(
                lambda eta: np.reciprocal(env.q_inf(eta)), 1, radius=4.0 * r_occ,
                radial=env.radial,
            )
            assert want.classification == "convergent"
            assert repr(got) == repr(IntegralResult(
                0.5 * want.value, 0.5 * want.abs_error_estimate, want.classification,
                [(j, 0.5 * v) for j, v in want.annulus_trace],
            ))
        assert [res.classification for res in heat] == ["convergent"] * 2

    @pytest.mark.parametrize("radius", [0.0, -1.0, math.nan, math.inf])
    def test_a_radius_must_be_finite_and_positive(self, radius):
        def f(xi):
            return np.exp(-np.sum(xi**2, axis=-1))

        with pytest.raises(fk.ConfigError, match="radius must be positive"):
            classify_improper(f, 1, radius=radius, include_tail=True)
        with pytest.raises(fk.ConfigError, match="radius must be positive"):
            classify_family(lambda xi: f(xi)[None], 1, 1, radius=[radius])
        with pytest.raises(fk.ConfigError, match="radius must be positive"):
            classify_family(lambda xi: np.stack([f(xi)] * 2), 2, 1, radius=[1.0, radius])


def _qk21_mismatches(k, p, bad_nodes):
    """The cells of a random (k, p, 21) block of node values that break
    "each qk21 piece is reduced on its own": those whose value or error
    differs in any bit from the cell reduced alone; then, with
    ``bad_nodes`` (node -> value) written into cell (k // 2, p // 2), that
    cell unless its value is nonfinite and its error inf, and each other
    cell whose bits moved."""
    import numpy as np

    from fellerkit.quadrature import _gauss_kronrod

    rng = np.random.default_rng([k, p])
    vals = np.exp(rng.normal(0.0, 3.0, (k, p, 1))) * (1.0 + 0.5 * rng.standard_normal((k, p, 21)))
    half = rng.uniform(0.1, 2.0, p)
    value, error = _gauss_kronrod(vals, half)
    wrong = []
    for i, j in np.ndindex(k, p):
        alone = _gauss_kronrod(vals[i : i + 1, j : j + 1], half[j : j + 1])
        if [value[i, j], error[i, j]] != [alone[0][0, 0], alone[1][0, 0]]:
            wrong.append(("alone", i, j))
    cell = (k // 2, p // 2)
    for node, x in bad_nodes.items():
        vals[cell + (node,)] = x
    bad_value, bad_error = _gauss_kronrod(vals, half)
    if np.isfinite(bad_value[cell]) or bad_error[cell] != np.inf:
        wrong.append(("nonfinite", *cell))
    moved = (bad_value.view(np.uint64) != value.view(np.uint64)) | (
        bad_error.view(np.uint64) != error.view(np.uint64)
    )
    moved[cell] = False
    return wrong + [("moved", int(i), int(j)) for i, j in zip(*np.nonzero(moved))]


#: (1, 489) holds the cells of (163, 3) in one row, as a lockstep round joins them
QK21_BLOCKS = [(1, 1), (163, 1), (1, 3), (163, 3), (1, 489)]
#: an inf, a nan, and an inf and a -inf whose sum is nan
NONFINITE_NODES = [{7: math.inf}, {7: math.nan}, {7: math.inf, 13: -math.inf}]


class TestGaussKronrod:
    """Each (row, piece) cell of a qk21 block is reduced over its 21 nodes
    on its own, so it has the same bits whatever else is in the block; a
    BLAS product gave other bits on a (163, 3) block than on its cells."""

    @pytest.mark.parametrize("bad_nodes", NONFINITE_NODES)
    @pytest.mark.parametrize("k, p", QK21_BLOCKS)
    def test_a_block_equals_its_cells_alone(self, k, p, bad_nodes):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _qk21_mismatches(k, p, bad_nodes) == []

    def test_on_every_cpu_target(self, under_cpu_targets):
        # bits differ between numpy's dispatch targets, so each child
        # compares its blocks with its own cells
        probe = "from math import inf, nan\n" + inspect.getsource(_qk21_mismatches) + (
            f"print(all(_qk21_mismatches(k, p, bad) == [] for k, p in {QK21_BLOCKS}"
            f" for bad in {NONFINITE_NODES}))\n"
        )
        assert under_cpu_targets(probe) == {"default": "True", "no AVX512": "True"}


class TestDirectionHelpers:
    def test_direction_counts(self):
        d1 = direction_set(1)
        assert np.array_equal(d1, np.array([[1.0], [-1.0]]))
        d2 = direction_set(2)
        assert d2.shape == (1024, 2)
        assert np.allclose(np.linalg.norm(d2, axis=1), 1.0)
        d3 = direction_set(3)
        assert d3.shape == (1024, 3)
        assert np.allclose(np.linalg.norm(d3, axis=1), 1.0)

    def test_surface_areas(self):
        # the recursion S_d = 2 pi / (d - 2) * S_{d-2} is exact in the
        # dimensions the package works in
        assert surface_area(1) == 2.0
        assert surface_area(2) == 2 * math.pi
        assert surface_area(3) == 4 * math.pi

    @pytest.mark.parametrize("d", range(1, 13))
    def test_surface_area_matches_the_gamma_formula(self, d):
        gamma_form = 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)
        assert surface_area(d) == pytest.approx(gamma_form, rel=1e-15, abs=0.0)

    def test_surface_area_dimension_guard(self):
        with pytest.raises(ValueError, match="positive integer"):
            surface_area(0)

    def test_direction_dimension_guard(self):
        with pytest.raises(ValueError, match="dimensions 1 to 3"):
            direction_set(4)
