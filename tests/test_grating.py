"""Grating objective: residual algebra, error combination, profiles, the
synthetic recording model's landscape, and the batch objective's bits."""

import itertools
import json
import math

import numpy as np
import pytest
from scipy.optimize import minimize

from nichebench.grating import (
    DESIGN_VARIABLE_NAMES,
    SYNTHETIC_AMPLITUDES,
    SYNTHETIC_FREQUENCIES,
    GratingParams,
    SyntheticRecordingModel,
    default_anchor,
    default_bounds,
    grating_problem,
    integrated_square_error,
    load_profile,
    make_default_problem,
    perfect_recording_values,
    residuals,
)


class TestResiduals:
    def test_perfect_values_zero_every_residual(self):
        params = load_profile()[0]
        r = residuals(perfect_recording_values(params), params)
        # algebraically zero; the division leaves float-rounding crumbs
        assert all(abs(v) < 1e-9 for v in r)
        assert r[3] == 0.0  # b4 = 0 keeps the last residual exact

    def test_zero_recording_values(self):
        params = load_profile()[0]
        r1, r2, r3, r4 = residuals((0.0, 0.0, 0.0, 0.0), params)
        assert r1 == -params.n0
        assert r2 == -params.n0 * params.b2
        assert r3 == -params.n0 * params.b3
        assert r4 == -params.n0 * params.b4 == 0.0

    def test_b4_zero_profile(self):
        params = load_profile()[0]
        j40 = 0.123
        _, _, _, r4 = residuals((0.0, 0.0, 0.0, j40), params)
        assert r4 == j40 / (2.0 * params.lambda0)

    def test_linearity_in_recording_values(self):
        params = load_profile()[0]
        rng = np.random.default_rng(7)
        for _ in range(200):
            j1 = tuple(rng.normal(size=4))
            j2 = tuple(rng.normal(size=4))
            combined = residuals(tuple(a + b for a, b in zip(j1, j2)), params)
            r1 = residuals(j1, params)
            r2 = residuals(j2, params)
            r0 = residuals((0.0, 0.0, 0.0, 0.0), params)
            for c, a, b, z in zip(combined, r1, r2, r0):
                assert c - a - b + z == pytest.approx(0.0, abs=1e-9)


class TestIntegratedSquareError:
    def test_zero_residuals(self):
        assert integrated_square_error((0.0, 0.0, 0.0, 0.0), 90.0) == 0.0

    def test_unit_first_residual(self):
        assert integrated_square_error((1.0, 0.0, 0.0, 0.0), 90.0) == 1.0

    def test_unit_second_residual(self):
        assert integrated_square_error((0.0, 1.0, 0.0, 0.0), 90.0) == 2700.0

    def test_even_under_sign_flip(self):
        rng = np.random.default_rng(11)
        for _ in range(500):
            r = tuple(rng.normal(size=4))
            flipped = tuple(-v for v in r)
            assert integrated_square_error(r, 90.0) == integrated_square_error(flipped, 90.0)

    def test_nonnegative_on_random_residuals(self):
        rng = np.random.default_rng(13)
        r = rng.uniform(-10, 10, size=(1_000_000, 4))
        w2, w4, w6 = 90.0 ** 2, 90.0 ** 4, 90.0 ** 6
        values = (
            r[:, 0] ** 2
            + w2 * (2 * r[:, 0] * r[:, 2] + r[:, 1] ** 2) / 3.0
            + w4 * (r[:, 2] ** 2 + 2 * r[:, 1] * r[:, 3]) / 5.0
            + w6 * r[:, 3] ** 2 / 7.0
        )
        assert np.all(values >= 0.0)
        # spot-check the vectorized oracle against the implementation
        for row in r[:100]:
            assert integrated_square_error(tuple(row), 90.0) == pytest.approx(
                float(
                    row[0] ** 2
                    + w2 * (2 * row[0] * row[2] + row[1] ** 2) / 3
                    + w4 * (row[2] ** 2 + 2 * row[1] * row[3]) / 5
                    + w6 * row[3] ** 2 / 7
                )
            )

    def test_invalid_half_width(self):
        with pytest.raises(ValueError):
            integrated_square_error((0.0, 0.0, 0.0, 0.0), 0.0)


class TestUnitsAndProfiles:
    def test_default_profile_values(self):
        params, bounds = load_profile()
        assert params.n0 == 1400.0
        assert params.b2 == 8.2453e-4
        assert params.b3 == 3.0015e-7
        assert params.b4 == 0.0
        assert params.w0 == 90.0
        assert params.lambda0 == 4.131e-4
        assert params.mirror_radii == (1000.0, 1000.0)
        assert bounds.shape == (8, 2)
        assert np.array_equal(bounds, default_bounds())

    def test_custom_profile_roundtrip(self, tmp_path):
        payload = {
            "n0": 900.0, "b2": 1e-3, "b3": 2e-7, "b4": 5e-10,
            "w0": 45.0, "lambda0": 5e-4,
            "mirror_radii": [800.0, 1200.0],
            "bounds": {"angle": [-1.0, 1.0], "distance": [200.0, 900.0]},
        }
        path = tmp_path / "profile.json"
        path.write_text(json.dumps(payload))
        params, bounds = load_profile(path)
        assert params.n0 == 900.0 and params.w0 == 45.0
        assert params.mirror_radii == (800.0, 1200.0)
        assert np.array_equal(bounds[0], [-1.0, 1.0])
        assert np.array_equal(bounds[7], [200.0, 900.0])

    def test_missing_bounds_fall_back_to_default_box(self, tmp_path):
        payload = {"n0": 900.0, "b2": 1e-3, "b3": 2e-7, "b4": 0.0, "w0": 45.0, "lambda0": 5e-4}
        for partial in ({}, {"bounds": {"angle": [-1.0, 1.0]}}):
            path = tmp_path / "profile.json"
            path.write_text(json.dumps({**payload, **partial}))
            _, bounds = load_profile(path)
            expected = default_bounds()
            if partial:
                expected[:4] = [-1.0, 1.0]
            assert bounds.tobytes() == expected.tobytes()

    def test_unknown_keys_rejected_and_packaged_profile_loads(self, tmp_path):
        # a misspelt key would otherwise fall back to a default unnoticed
        payload = {"n0": 900.0, "b2": 1e-3, "b3": 2e-7, "b4": 0.0, "w0": 45.0, "lambda0": 5e-4}
        misspelt = {k: v for k, v in payload.items() if k != "lambda0"}
        path = tmp_path / "profile.json"
        for profile, message in (({**misspelt, "lamda0": 5e-4}, "unknown profile key 'lamda0'"),
                                 ({**payload, "lamda0": 5e-4}, "unknown profile key 'lamda0'"),
                                 ({**payload, "bounds": {"angel": [-1.0, 1.0]}},
                                  "unknown bounds key 'angel'")):
            path.write_text(json.dumps(profile))
            with pytest.raises(ValueError, match=message):
                load_profile(path)
        params, bounds = load_profile()
        assert params.lambda0 == 4.131e-4 and np.array_equal(bounds, default_bounds())

    def test_missing_field_rejected(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text(json.dumps({"n0": 1.0}))
        with pytest.raises(ValueError):
            load_profile(path)

    def test_params_validation(self):
        base = dict(n0=1.0, b2=0.0, b3=0.0, b4=0.0, w0=90.0, lambda0=1e-4)
        with pytest.raises(ValueError):
            GratingParams(**{**base, "n0": -1.0})
        # every number is checked; NaN would slip past the n0 <= 0 test
        for name in base:
            for bad in (math.nan, math.inf, -math.inf):
                with pytest.raises(ValueError, match=f"{name} must be finite"):
                    GratingParams(**{**base, name: bad})
        for radii in ((math.nan, 1.0), (1.0, math.inf), (0.0, 1.0), (10**400, 1.0)):
            with pytest.raises(ValueError, match="mirror radii must be positive and finite"):
                GratingParams(**base, mirror_radii=radii)
        for radii in ((True, 1.0), ("a", 1.0)):
            with pytest.raises(ValueError, match="mirror_radii must be a number"):
                GratingParams(**base, mirror_radii=radii)
        for radii in ((), (1.0,), (1.0, 2.0, 3.0), 5.0):
            with pytest.raises(ValueError, match="mirror_radii must be two numbers"):
                GratingParams(**base, mirror_radii=radii)
        radii = GratingParams(**base, mirror_radii=(np.int64(500), 2)).mirror_radii
        assert radii == (500.0, 2.0) and all(type(r) is float for r in radii)


class TestDesignVector:
    def test_vector_order(self):
        documented = {"gamma": 0.35, "eta_c": -0.20, "delta": 0.12, "eta_d": -0.40,
                      "p_c": 850.0, "q_c": 1150.0, "p_d": 700.0, "q_d": 1250.0}
        anchor = default_anchor()
        assert anchor.dtype == np.float64
        assert anchor.tolist() == [documented[name] for name in DESIGN_VARIABLE_NAMES]


class TestSyntheticModel:
    def test_anchor_is_exactly_zero_error(self):
        params = load_profile()[0]
        model = SyntheticRecordingModel()
        j = model(default_anchor(), params)
        # sin(0) sums vanish exactly, so the anchor reproduces the
        # zero-residual recording values bit for bit
        assert j == perfect_recording_values(params)
        problem = grating_problem(model, params)
        # the residual division leaves rounding crumbs of ~1e-13 lines/mm
        assert 0.0 <= problem.objective(default_anchor()) < 1e-18

    def test_deterministic(self):
        params = load_profile()[0]
        model = SyntheticRecordingModel()
        x = default_bounds().mean(axis=1)
        assert model(x, params) == model(x, params)
        # each default model owns its arrays: none is shared with another
        # model or with the module constants
        other = SyntheticRecordingModel()
        for mine, theirs, constant in zip(
                (model.anchor, model.amplitudes, model.frequencies),
                (other.anchor, other.amplitudes, other.frequencies),
                (default_anchor(), SYNTHETIC_AMPLITUDES, SYNTHETIC_FREQUENCIES)):
            assert np.array_equal(mine, constant)
            assert not np.shares_memory(mine, theirs) and not np.shares_memory(mine, constant)

    def test_problem_shape(self):
        problem = make_default_problem()
        assert problem.dimension == 8
        assert problem.direction == "min"
        assert problem.known_peaks == ()
        assert problem.name == "grating"

    def test_objective_nonnegative_over_box(self):
        problem = make_default_problem()
        rng = np.random.default_rng(17)
        xs = rng.uniform(problem.bounds[:, 0], problem.bounds[:, 1], size=(2000, 8))
        values = np.array([problem.objective(x) for x in xs])
        assert np.all(values >= 0.0)
        assert values.max() > 1e-4  # the landscape is not flat

    def test_multiple_separated_minima_below_threshold(self):
        # multimodality oracle: random sampling plus local refinement must
        # expose at least two deep optima >0.1 apart in normalized space
        problem = make_default_problem()
        lo, hi = problem.bounds[:, 0], problem.bounds[:, 1]
        span = hi - lo
        rng = np.random.default_rng(19)
        xs = rng.uniform(lo, hi, size=(10_000, 8))
        values = np.array([problem.objective(x) for x in xs])
        starts = xs[np.argsort(values)[:40]]
        minima = []
        for start in starts:
            res = minimize(problem.objective, start, method="Nelder-Mead",
                           options={"xatol": 1e-10, "fatol": 1e-12, "maxiter": 20000,
                                    "maxfev": 20000, "adaptive": True})
            x = np.clip(res.x, lo, hi)
            if problem.objective(x) < 1e-4:
                minima.append(x)
        distinct = []
        for x in minima:
            if all(np.linalg.norm((x - q) / span) >= 0.1 for q in distinct):
                distinct.append(x)
        assert len(distinct) >= 2

    def test_negative_error_warns_once(self, caplog, monkeypatch):
        import nichebench.grating as grating_module

        # -1 for every design, as a float for one design or an array for a batch
        monkeypatch.setattr(grating_module, "integrated_square_error", lambda r, w: r[0] * 0.0 - 1.0)
        rows = np.array([default_anchor()] * 3)
        for calls in ("scalar", "batch", "scalar then batch"):
            problem = grating_problem(SyntheticRecordingModel(), load_profile()[0])
            caplog.clear()
            with caplog.at_level("WARNING"):
                if "scalar" in calls:
                    assert problem.objective(default_anchor()) == -1.0
                    assert problem.objective(default_anchor()) == -1.0
                if "batch" in calls:
                    assert problem.objective.many(rows).tolist() == [-1.0] * 3
                    assert problem.objective.many(rows).tolist() == [-1.0] * 3
            warnings = [r for r in caplog.records if "negative" in r.message]
            assert len(warnings) == 1, calls


def assert_batch_matches_scalar(objective, rows):
    """``objective.many(rows)`` against one call per row, bit for bit
    (signed zeros and NaN payloads included)."""
    got = objective.many(rows)
    want = np.array([objective(row) for row in rows])
    assert got.dtype == want.dtype == np.float64 and got.shape == want.shape == (len(rows),)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


class TestBatchObjective:
    def test_random_rows_match_scalar_calls(self):
        objective = make_default_problem().objective
        bounds = default_bounds()
        lo, hi = bounds[:, 0], bounds[:, 1]
        rng = np.random.default_rng(2024)
        for m in (1, 2, 3, 7, 50, 101):
            for _ in range(4000 // m):
                assert_batch_matches_scalar(objective, lo + (hi - lo) * rng.random((m, 8)))

    def test_box_corners_and_anchor_match_scalar_calls(self):
        objective = make_default_problem().objective
        corners = np.array(list(itertools.product(*default_bounds().tolist())))
        assert corners.shape == (256, 8)
        assert_batch_matches_scalar(objective, corners)
        anchor = default_anchor()
        assert_batch_matches_scalar(objective, anchor[None, :])
        # the zero-error design keeps its rounding crumb on both paths
        error = objective(anchor)
        assert 0.0 < error < 1e-24
        assert objective.many(np.array([anchor, anchor])).tolist() == [error, error]

    def test_rows_of_the_wrong_width_rejected(self):
        objective = make_default_problem().objective
        for rows in (np.zeros((3, 7)), np.zeros((1, 9)), np.zeros(8), np.zeros((2, 2, 8))):
            with pytest.raises(ValueError, match="wrong dimension"):
                objective.many(rows)
        with pytest.raises(ValueError, match="wrong dimension"):
            objective(np.zeros(7))

    def test_model_without_many_is_evaluated_row_by_row(self):
        calls = []

        def model(design, params):
            calls.append(design)
            return SyntheticRecordingModel()(design, params)

        params = load_profile()[0]
        objective = grating_problem(model, params).objective
        rows = default_bounds().mean(axis=1) + np.zeros((5, 8))
        rows[:, 0] += np.linspace(-0.5, 0.5, 5)
        got = objective.many(rows)
        assert len(calls) == 5
        want = make_default_problem().objective.many(rows)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
