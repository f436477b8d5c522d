import warnings
from dataclasses import replace

import numpy as np
import pytest

from ugckit import gpr, joints
from ugckit.data import FamilyKind, JointFamily, average_runs, parse_measurements
from ugckit.errors import InputError, MissingThicknessError, OutOfValidatedRangeError

from conftest import (
    UndefinedFold,
    assert_same_model,
    bench_square_dataset,
    curve_bench_csv,
    gp_loo_rmse,
    refit_loo_residuals_gp,
    refit_loo_rmse_poly,
    spectrum_V,
    square_bench_csv,
    square_return_true,
)

SQ = FamilyKind.SQUARE_SYM
CURVE = FamilyKind.CURVE


def square_quadratic(theta):
    return 1.6940 + 0.0225 * theta - 0.0002 * theta * theta


def curve_quadratic(theta, thickness):
    return -2.4933 + 0.1164 * theta + 0.0 * thickness - 0.0007 * theta**2 + 8.4377 * thickness**2


class TestBuiltinModels:
    def test_square_at_90(self):
        m = joints.builtin_model(SQ)
        (mean,), *_ = joints.predict_many(m, [90.0])
        assert mean == pytest.approx(2.0990, abs=1e-4)

    def test_square_prior_mean_across_angles(self):
        m = joints.builtin_model(SQ)
        for theta in (30.0, 60.0, 90.0, 120.0, 150.0):
            (mean,), *_ = joints.predict_many(m, [theta])
            assert mean == pytest.approx(square_quadratic(theta), abs=1e-9)

    def test_curve_at_90_04(self):
        m = joints.builtin_model(CURVE)
        (mean,), *_ = joints.predict_many(m, [90.0], 0.4)
        assert mean == pytest.approx(3.6627, abs=1e-4)

    def test_curve_at_140_08(self):
        m = joints.builtin_model(CURVE)
        (mean,), *_ = joints.predict_many(m, [140.0], 0.8)
        assert mean == pytest.approx(5.4828, abs=1e-4)

    def test_curve_prior_mean_everywhere_on_grid(self):
        m = joints.builtin_model(CURVE)
        for theta in (30.0, 75.0, 110.0, 150.0):
            for t in (0.4, 0.6, 1.0, 1.6):
                (mean,), *_ = joints.predict_many(m, [theta], t)
                assert mean == pytest.approx(curve_quadratic(theta, t), abs=1e-9)

    def test_anchors_are_angle_by_thickness_rows(self):
        # angle column first, thickness varying fastest, as archives store them
        X = joints.builtin_model(CURVE).force_model.train_x
        assert X.shape == (20, 2)
        assert X[:5].tolist() == [[30.0, 0.4], [30.0, 0.8], [30.0, 1.2], [30.0, 1.6], [60.0, 0.4]]
        assert joints.builtin_model(SQ).force_model.train_x[:, 0].tolist() == [
            30.0, 60.0, 90.0, 120.0, 150.0,
        ]

    def test_unavailable_families(self):
        for kind in (FamilyKind.STRAIGHT, FamilyKind.DOUBLE_CURVE, FamilyKind.SQUARE_NONSYM):
            message = f"^no built-in force coefficients for family '{kind.value}'$"
            with pytest.raises(InputError, match=message):
                joints.builtin_model(kind)

    def test_builtin_has_no_return_model(self):
        m = joints.builtin_model(SQ)
        assert m.return_model is None
        assert joints.predict_many(m, [90.0])[2] == [None]

    def test_curve_force_never_decreases_with_thickness(self):
        # zero linear-T coefficient plus positive T^2 coefficient
        m = joints.builtin_model(CURVE)
        for theta in np.arange(60.0, 141.0, 10.0):
            forces = [joints.predict_many(m, [theta], t)[0][0] for t in (0.4, 0.8, 1.2, 1.6)]
            assert all(b >= a for a, b in zip(forces, forces[1:]))


class TestValidatedRange:
    def test_curve_refuses_out_of_window(self):
        m = joints.builtin_model(CURVE)
        for theta in (20.0, 29.0, 151.0, 160.0):
            with pytest.raises(OutOfValidatedRangeError):
                joints.predict_many(m, [theta], 0.8)

    def test_curve_allows_extrapolation_on_request(self):
        m = joints.builtin_model(CURVE)
        *_, (flags,) = joints.predict_many(m, [20.0], 0.8, allow_extrapolation=True)
        assert joints.WARN_EXTRAPOLATION in flags

    def test_curve_requires_thickness(self):
        m = joints.builtin_model(CURVE)
        with pytest.raises(MissingThicknessError):
            joints.predict_many(m, [90.0])

    def test_square_warns_only(self):
        m = joints.builtin_model(SQ)
        *_, (flags,) = joints.predict_many(m, [10.0])
        assert joints.WARN_EXTRAPOLATION in flags

    def test_square_rest_force_caveat(self):
        m = joints.builtin_model(SQ)
        (mean,), _, _, (flags,) = joints.predict_many(m, [0.0])
        assert mean == pytest.approx(1.6940, abs=1e-9)
        assert joints.WARN_REST_FORCE in flags


class TestEnvelopes:
    def test_straight(self):
        env = joints.envelope_for(JointFamily(FamilyKind.STRAIGHT))
        assert env.yield_angle == 135.0
        assert env.self_contact_angle is None

    def test_thin_curve(self):
        env = joints.envelope_for(JointFamily(CURVE, 0.4))
        assert env.max_observed_force == 2.9
        assert env.return_decay_onset == 90.0

    def test_thick_curve(self):
        env = joints.envelope_for(JointFamily(CURVE, 0.8))
        assert env.max_observed_force == 7.1
        assert env.yield_angle == 140.0
        assert joints.envelope_for(JointFamily(CURVE, 1.6)) == env

    def test_double_curve(self):
        env = joints.envelope_for(JointFamily(FamilyKind.DOUBLE_CURVE))
        assert env.yield_angle == 150.0
        assert env.self_contact_angle == 110.0
        assert env.max_observed_force == 15.5

    def test_square_sym(self):
        env = joints.envelope_for(JointFamily(SQ))
        assert env.self_contact_angle == 150.0
        assert env.return_decay_onset == 70.0

    def test_square_nonsym(self):
        env = joints.envelope_for(JointFamily(FamilyKind.SQUARE_NONSYM))
        assert env.return_decay_onset == 40.0

    @pytest.mark.parametrize(
        "args, message",
        [
            ((80.0, None, None, 90.0), "need 0 < decay onset <= yield <= 180, got 90.0, 80.0"),
            ((90.0, 0.0, None, 70.0), "self_contact_angle 0.0 outside (0, 180]"),
        ],
        ids=["onset-past-yield", "contact-at-zero"],
    )
    def test_rejects_inconsistent_angles(self, args, message):
        with pytest.raises(ValueError) as err:
            joints.JointEnvelope(*args)
        assert str(err.value) == message

    def test_json_export_covers_every_row(self):
        doc = joints.envelope_table_as_json()
        assert doc["version"] == joints.ENVELOPE_TABLE_VERSION
        assert len(doc["envelopes"]) == 6
        straight = next(r for r in doc["envelopes"] if r["family"] == "straight")
        assert straight["yield_angle_deg"] == 135.0


class TestFitFamilyModel:
    def test_insufficient_data(self):
        header = "family,thickness_mm,deformation_angle_deg,direction,force_n,return_angle_deg,run_id"
        rows = [f"square_sym,,{t},forward,1.0,170,r1" for t in (30, 60, 90, 120)]
        ds = parse_measurements(header + "\n" + "\n".join(rows) + "\n")
        with pytest.raises(InputError, match="^square_sym: 4 samples, need at least 5$"):
            joints.fit_family_model(ds, SQ)

    def test_noiseless_quadratic_recovered(self):
        header = "family,thickness_mm,deformation_angle_deg,direction,force_n,return_angle_deg,run_id"
        rows = []
        for theta in range(10, 171, 16):
            f = 0.5 + 0.02 * theta + 1e-4 * theta * theta
            rows.append(f"square_sym,,{theta},forward,{f!r},170,r1")
        ds = parse_measurements(header + "\n" + "\n".join(rows) + "\n")
        model = joints.fit_family_model(ds, SQ, noise_variance=0.0)
        assert model.force_loo_rmse < 1e-6  # quadratic lives in the basis span

    def test_fixture_predictions_within_two_sigma(self, square_dataset):
        from ugckit.data import average_runs

        ds = average_runs(square_dataset)
        model = joints.fit_family_model(ds, SQ)
        for theta, force in zip(ds.deformation_angle.tolist(), ds.force.tolist()):
            (mean,), (std,), *_ = joints.predict_many(model, [theta], allow_extrapolation=True)
            noise = model.force_model.noise_variance
            assert abs(mean - force) <= 2.0 * np.sqrt(std**2 + noise)

    def test_monotone_fixture_gives_monotone_window(self, square_dataset):
        model = joints.fit_family_model(square_dataset, SQ)
        (lo, hi), *_ = joints.predict_many(model, [30.0, 120.0])
        assert lo < hi

    def test_curve_family_fits_two_inputs(self, curve_dataset):
        model = joints.fit_family_model(curve_dataset, CURVE)
        assert model.force_model.input_dim == 2
        (mean,), *_ = joints.predict_many(model, [90.0], 0.8)
        assert mean == pytest.approx(0.3 + 0.02 * 90 - 5e-5 * 8100 + 4 * 0.64, abs=0.5)

    def test_return_angle_flat_then_decaying(self, square_dataset):
        model = joints.fit_family_model(square_dataset, SQ)
        _, _, (flat,), _ = joints.predict_many(model, [60.0])
        assert flat == pytest.approx(180.0, abs=2.0)
        _, _, (decayed,), _ = joints.predict_many(model, [150.0])
        assert decayed < 179.0
        assert decayed == pytest.approx(square_return_true(150.0), abs=5.0)

    def test_one_eigendecomposition_for_both_targets(self, square_dataset, eigh_calls):
        # the LOO score reads the fitted model's factor instead of taking its
        # own, and the return model is fitted on the force model's spectrum
        model = joints.fit_family_model(square_dataset, SQ)
        assert len(eigh_calls) == 1
        assert model.return_model.spectrum is model.force_model.spectrum
        assert model.force_loo_rmse is not None and model.return_loo_rmse is not None

    @pytest.mark.parametrize("kind, dataset", [(SQ, "square_dataset"), (CURVE, "curve_dataset")])
    def test_shared_spectrum_models_equal_lone_fits(self, request, kind, dataset):
        ds = request.getfixturevalue(dataset)
        model = joints.fit_family_model(ds, kind)
        X, force, ret = joints.family_training_arrays(ds, kind)
        for gp, y in ((model.force_model, force), (model.return_model, ret)):
            v = float(np.var(y))
            lone = gpr.fit(X, y, joints._default_hyper(kind, v), max(1e-8, 0.01 * v))
            assert_same_model(gp, lone)

    def test_loo_rmse_gp_scores_the_fitted_model(self, square_dataset):
        model = joints.fit_family_model(square_dataset, SQ)
        gp = model.force_model
        rmse = gp_loo_rmse(gp.train_x, gp.train_y, gp.hyper, gp.noise_variance)
        assert rmse == model.force_loo_rmse

    def test_return_angle_identity_at_zero(self, square_dataset):
        model = joints.fit_family_model(square_dataset, SQ)
        assert joints.predict_many(model, [0.0])[2] == [180.0]

    def test_return_angle_always_clamped(self, square_dataset):
        model = joints.fit_family_model(square_dataset, SQ)
        for theta in np.linspace(0.0, 180.0, 37):
            _, _, (val,), _ = joints.predict_many(model, [float(theta)], allow_extrapolation=True)
            assert 0.0 <= val <= 180.0


class TestTuning:
    def test_grid_follows_each_target(self, square_dataset):
        model = joints.fit_family_model(square_dataset, SQ, tune=True)
        for gp in (model.force_model, model.return_model):
            v = float(np.var(gp.train_y))
            assert gp.hyper.length_scales[0] in (5.0, 10.0, 20.0, 40.0)  # deg
            assert 0.5 * v <= gp.hyper.signal_variance <= 2.0 * v
            assert 1e-3 * v <= gp.noise_variance <= 1e-1 * v

    def test_change_of_units_picks_same_candidate(self, square_dataset):
        scaled = replace(square_dataset, force=1000.0 * square_dataset.force)
        base = joints.fit_family_model(square_dataset, SQ, tune=True).force_model
        big = joints.fit_family_model(scaled, SQ, tune=True).force_model
        assert big.hyper.length_scales == base.hyper.length_scales
        assert big.hyper.signal_variance == pytest.approx(1e6 * base.hyper.signal_variance)
        assert big.noise_variance == pytest.approx(1e6 * base.noise_variance)

    @pytest.mark.parametrize("kind, dataset, calls", [
        (SQ, "square_dataset", [(51, 51)] * 4),
        (CURVE, "curve_dataset", [(108, 108)] * 12),
        # 9 angles x 4 thicknesses, each pair once: one eigh per distinct
        # (axis, length scale), in the order the 12 tuples first need it
        (CURVE, "averaged_curve_dataset", [(9, 9)] + [(4, 4)] * 3 + [(9, 9)] * 3),
    ])
    def test_one_eigendecomposition_per_length_scale_tuple(
        self, request, eigh_calls, kind, dataset, calls
    ):
        # the pick is built from the eigendecomposition it was scored with,
        # and both targets are scored on the same one
        ds = request.getfixturevalue(dataset)
        joints.fit_family_model(ds, kind, tune=True)
        assert eigh_calls == calls

    @pytest.mark.parametrize("seed", range(1, 6))
    def test_product_grid_picks_equal_the_dense_eighs(self, monkeypatch, eigh_calls, seed):
        # the benchmark's curve shape: 81 angles x 4 thicknesses after averaging
        angles = np.linspace(30.0, 150.0, 81).tolist()
        csv = curve_bench_csv(np.random.default_rng(seed), angles=angles)
        ds = average_runs(parse_measurements(csv), 1.0)
        grid = joints.fit_family_model(ds, CURVE, tune=True)
        # 4 angle and 3 thickness length scales: one eigh each, none for the picks
        assert eigh_calls == [(81, 81)] + [(4, 4)] * 3 + [(81, 81)] * 3
        eigh_calls.clear()
        monkeypatch.setattr(gpr, "_product_grid", lambda rows: None)
        dense = joints.fit_family_model(ds, CURVE, tune=True)
        assert eigh_calls == [(324, 324)] * 12
        for got, want in ((grid.force_model, dense.force_model),
                          (grid.return_model, dense.return_model)):
            assert (got.hyper, got.noise_variance) == (want.hyper, want.noise_variance)
        assert grid.force_loo_rmse == pytest.approx(dense.force_loo_rmse, rel=1e-10)
        assert grid.return_loo_rmse == pytest.approx(dense.return_loo_rmse, rel=1e-10)

    # (signal variance / var(y), angle length scale, noise / var(y)) of the
    # force and return picks: scoring runs on the dense eigh, so the
    # low-rank form the picks take changes no pick
    @pytest.mark.parametrize("seed, picks", [
        (1, [(0.5, 40.0, 0.003), (0.5, 20.0, 0.003)]),
        (2, [(0.5, 40.0, 0.003), (0.5, 20.0, 0.003)]),
        (3, [(0.5, 40.0, 0.003), (0.5, 40.0, 0.003)]),
        (4, [(0.5, 40.0, 0.003), (1.0, 40.0, 0.003)]),
        (5, [(0.5, 40.0, 0.001), (0.5, 40.0, 0.003)]),
    ])
    def test_low_rank_picks_at_n_340_are_the_dense_ones(self, seed, picks):
        model = joints.fit_family_model(bench_square_dataset(seed), SQ, tune=True)
        for gp, (sf2, ls, noise) in zip((model.force_model, model.return_model), picks):
            assert gp.spectrum.truncated
            v = float(np.var(gp.train_y))
            assert gp.hyper.signal_variance == sf2 * v
            assert gp.hyper.length_scales == (ls,)
            assert gp.noise_variance == noise * v

    @pytest.mark.parametrize("kind, dataset", [(SQ, "square_dataset"), (CURVE, "curve_dataset")])
    def test_jointly_tuned_models_equal_lone_tunes(self, request, kind, dataset):
        ds = request.getfixturevalue(dataset)
        model = joints.fit_family_model(ds, kind, tune=True)
        X, force, ret = joints.family_training_arrays(ds, kind)
        for gp, y in ((model.force_model, force), (model.return_model, ret)):
            grid = joints._default_tuning_grid(kind, float(np.var(y)))
            (lone,) = gpr.tune_hyperparams(X, [(y, grid)])
            assert_same_model(gp, lone)

    def test_tuning_takes_no_noise_variance(self, square_dataset, eigh_calls):
        with pytest.raises(ValueError, match="noise_variance"):
            joints.fit_family_model(square_dataset, SQ, noise_variance=0.5, tune=True)
        assert not eigh_calls  # refused before any fit

    def test_infinite_configured_noise_rejected(self, square_dataset):
        with pytest.raises(ValueError, match="^noise_variance: must be a finite number$"):
            joints.fit_family_model(square_dataset, SQ, noise_variance=np.inf)


class TestPolyBaseline:
    def test_loo_checks_sample_count_before_fitting(self, monkeypatch):
        # a fold holds 19 points; degree 300 used to build and factor a
        # 301 x 301 normal matrix in each fold before failing
        def no_matrix(*args, **kwargs):
            raise AssertionError("a matrix was built")

        monkeypatch.setattr(np, "vander", no_matrix)
        x = np.linspace(10.0, 170.0, 20)
        assert joints.loo_rmse_poly(x, 0.01 * x, 300) is None

    @pytest.mark.parametrize("x, y", [
        ([10.0, 20.0, 30.0, 40.0], [1.0, 0.0, 2.0]),
        ([10.0, 20.0, 30.0], [1.0, 0.0, 2.0, 3.0]),
        ([[10.0, 0.4], [20.0, 0.4], [30.0, 0.4]], [1.0, 0.0]),
    ], ids=["short-y", "long-y", "rows"])
    def test_loo_refuses_a_y_without_one_entry_per_row(self, x, y):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            message = f"^x has {len(x)} rows but y has {len(y)} entries$"
            with pytest.raises(InputError, match=message):
                joints.loo_rmse_poly(x, y, 1)

    @pytest.mark.parametrize(
        "x, degree",
        [([90.0] * 10, 2), ([30.0, 60.0, 90.0] * 4, 5)],
        ids=["one-angle", "three-angles"],
    )
    def test_loo_is_none_on_too_few_distinct_angles(self, x, degree):
        # three angles four times: every fold is defined (leverage 1/4), but
        # the Vandermonde matrix has rank 3 of 6, so the score is None
        assert joints.loo_rmse_poly(x, np.arange(len(x), dtype=float), degree) is None

    @pytest.mark.parametrize("degree", [1, 3, 7])
    @pytest.mark.parametrize("averaged", [False, True], ids=["raw", "averaged"])
    def test_per_thickness_pools_the_refits(self, curve_dataset, degree, averaged):
        ds = average_runs(curve_dataset) if averaged else curve_dataset
        X, force, _ = joints.family_training_arrays(ds, CURVE)
        groups = [X[:, 1] == t for t in np.unique(X[:, 1])]
        sq = sum(g.sum() * refit_loo_rmse_poly(X[g, 0], force[g], degree) ** 2 for g in groups)
        want = float(np.sqrt(sq / len(force)))
        assert joints.loo_rmse_poly(X, force, degree) == pytest.approx(want, rel=1e-10)

    def test_per_thickness_is_none_when_one_thickness_is_short(self):
        # 9 angles at 0.4 mm but 4 at 0.8 mm: a 0.8 mm fold of 3 rows
        # cannot fit degree 3
        X = np.array([(a, 0.4) for a in np.linspace(30.0, 150.0, 9)]
                     + [(a, 0.8) for a in (30.0, 70.0, 110.0, 150.0)])
        assert joints.loo_rmse_poly(X, X[:, 0] * X[:, 1], 3) is None
        assert joints.loo_rmse_poly(X, X[:, 0] * X[:, 1], 2) is not None

    def test_gpr_beats_degree_seven_on_step_fixture(self):
        # steep smooth step + noise makes the degree-7 fit ring; the GP does not
        rng = np.random.default_rng(77)
        theta = np.linspace(10, 170, 20) + rng.uniform(-2, 2, 20)
        y = 2.0 + 1.5 * np.tanh((theta - 90.0) / 8.0) + rng.normal(0, 0.1, 20)
        v = float(np.var(y))
        grid = gpr.GridSpec(
            (0.5 * v, v, 2 * v), ((5.0, 10.0, 20.0, 40.0),), (1e-3, 1e-2, 1e-1)
        )
        (m,) = gpr.tune_hyperparams(theta[:, None], [(y, grid)])
        gp_rmse = gp_loo_rmse(theta[:, None], y, m.hyper, m.noise_variance)
        poly_rmse = joints.loo_rmse_poly(theta, y, 7)
        assert gp_rmse < poly_rmse


def c8_trial(seed):
    """One trial of acceptance criterion C8: a noisy step at 20 angles and the
    GP hyperparameters tuned on it."""
    rng = np.random.default_rng(1000 + seed)
    theta = np.linspace(10.0, 170.0, 20) + rng.uniform(-2.0, 2.0, 20)
    y = 2.0 + 1.5 * np.tanh((theta - 90.0) / 8.0) + rng.normal(0.0, 0.1, 20)
    v = float(np.var(y))
    grid = gpr.GridSpec((0.5 * v, v, 2.0 * v), ((5.0, 10.0, 20.0, 40.0),),
                        (1e-3, 3e-3, 1e-2, 3e-2, 1e-1))
    (m,) = gpr.tune_hyperparams(theta[:, None], [(y, grid)])
    return theta, y, m.hyper, m.noise_variance


class TestClosedFormLoo:
    """Closed-form LOO RMSEs against one refit per held-out row."""

    @pytest.mark.parametrize("seed", range(5))
    def test_gp_matches_refit(self, seed):
        theta, y, hyper, noise = c8_trial(seed)
        refit = refit_loo_residuals_gp(theta[:, None], y, hyper, noise)
        want = float(np.sqrt(np.mean(refit**2)))
        assert gp_loo_rmse(theta[:, None], y, hyper, noise) == pytest.approx(want, rel=1e-10)

    @pytest.mark.parametrize("degree", [1, 3, 5, 7])
    def test_press_matches_refit(self, degree):
        for seed in range(10):
            theta, y, _, _ = c8_trial(seed)
            want = refit_loo_rmse_poly(theta, y, degree)
            assert joints.loo_rmse_poly(theta, y, degree) == pytest.approx(want, rel=1e-10)

    @pytest.mark.parametrize(
        "x, degree",
        [
            (np.linspace(10.0, 170.0, 8), 7),  # 7 rows per fold
            (np.array([30.0, 30.0, 90.0]), 1),  # a fold of one angle
            (np.array([30.0, 30.0, 90.0, 90.0, 120.0]), 2),
            (np.array([30.0, 60.0, 90.0] * 4), 5),  # rank 3 of 6
        ],
    )
    def test_poly_is_none_where_a_refit_fails(self, x, degree):
        y = 0.01 * x
        with pytest.raises(UndefinedFold):
            refit_loo_rmse_poly(x, y, degree)
        assert joints.loo_rmse_poly(x, y, degree) is None

    def test_gp_rmse_is_none_where_a_fold_is_undefined(self):
        header = "family,thickness_mm,deformation_angle_deg,direction,force_n,return_angle_deg,run_id"
        rows = [f"curve,{t},{a},forward,{f},170,r1" for a, t, f in
                [(30, 0.4, 2.1), (60, 1.2, 4.0), (90, 0.8, 3.2), (120, 1.6, 6.5), (150, 0.4, 2.9)]]
        ds = parse_measurements(header + "\n" + "\n".join(rows) + "\n")
        model = joints.fit_family_model(ds, CURVE)
        assert model.force_loo_rmse is None and model.return_loo_rmse is None


class TestVectorQueries:
    def test_force_matches_scalar_calls(self, fitted_models):
        for kind, thickness, thetas in [
            (SQ, None, [0.0, 10.0, 90.0, 160.0]),
            (CURVE, 0.8, [20.0, 30.0, 90.0, 150.0]),
            (CURVE, 2.0, [45.0, 120.0]),
        ]:
            model = fitted_models[kind]
            means, stds, _, flags = joints.predict_many(
                model, thetas, thickness, allow_extrapolation=True
            )
            for i, theta in enumerate(thetas):
                (mean,), (std,), _, (one_flags,) = joints.predict_many(
                    model, [theta], thickness, allow_extrapolation=True
                )
                assert means[i] == pytest.approx(mean, abs=1e-12)
                assert stds[i] ** 2 == pytest.approx(std**2, abs=1e-12)
                assert flags[i] == one_flags

    def test_return_matches_scalar_calls(self, fitted_models):
        thetas = [0.0, 10.0, 60.0, 150.0, 180.0]
        _, _, many, _ = joints.predict_many(fitted_models[SQ], thetas)
        assert many[0] == 180.0
        for theta, value in zip(thetas, many):
            _, _, (one,), _ = joints.predict_many(fitted_models[SQ], [theta])
            assert value == pytest.approx(one, abs=1e-12)

    def test_return_angles_skip_the_variances(self, monkeypatch, fitted_models):
        # the return model answers means only; its angles are the clipped
        # means of a full prediction, bit for bit
        model = fitted_models[SQ]
        thetas = np.linspace(10.0, 170.0, 301)
        want = np.clip(gpr.predict_many(model.return_model, thetas)[0], 0.0, 180.0).tolist()
        calls = _spy_predictions(monkeypatch)
        _, _, returns, _ = joints.predict_many(model, thetas)
        assert returns == want
        # one call for the pair, which gives variances for its first model only
        assert calls == [("predict_targets", (model.force_model, model.return_model), {})]

    def test_every_angle_validated(self, fitted_models):
        with pytest.raises(InputError, match="^theta: must be a finite number$"):
            joints.predict_many(fitted_models[SQ], [30.0, float("nan"), 60.0])
        with pytest.raises(OutOfValidatedRangeError):
            joints.predict_many(fitted_models[CURVE], [30.0, 151.0], 0.8)
        with pytest.raises(OutOfValidatedRangeError):
            joints.predict_many(fitted_models[CURVE], [29.0, 30.0], 0.8)

    def test_arrays_and_one_flag_tuple_per_angle(self):
        model = joints.builtin_model(SQ)
        means, stds, returns, flags = joints.predict_many(model, range(0, 181, 90))
        assert means.dtype == stds.dtype == np.float64
        assert means.shape == stds.shape == (3,)
        assert returns == [180.0, None, None]
        assert flags == [
            (joints.WARN_EXTRAPOLATION, joints.WARN_REST_FORCE), (), (joints.WARN_EXTRAPOLATION,)
        ]

    @pytest.mark.parametrize(
        "bad, problem",
        [("abc", "expected float"), (None, "expected float"), ([1.0], "expected float"),
         (10**400, "must be a finite number")],
    )
    def test_message_names_the_first_bad_angle(self, bad, problem):
        # the NaN after the bad angle would read "must be a finite number"
        model = joints.builtin_model(SQ)
        with pytest.raises(InputError, match=f"^theta: {problem}$"):
            joints.predict_many(model, [30.0, bad, float("nan")])

    @pytest.mark.parametrize(
        "bad", ["90", True, b"45", np.bool_(True)], ids=["str", "bool", "bytes", "numpy-bool"]
    )
    def test_non_numbers_rejected(self, bad):
        # float() would read each of these; a query takes real numbers only
        model = joints.builtin_model(SQ)
        with pytest.raises(InputError, match="^theta: expected float$"):
            joints.predict_many(model, [bad])

    @pytest.mark.parametrize("bad", ["0.8", True])
    def test_non_number_thickness_rejected(self, bad):
        model = joints.builtin_model(CURVE)
        with pytest.raises(InputError, match="^thickness: expected float$"):
            joints.predict_many(model, [90.0], bad)

    def test_numpy_scalars_accepted(self):
        model = joints.builtin_model(CURVE)
        means, _, _, _ = joints.predict_many(model, [np.float32(90), np.int64(60)], np.float64(0.8))
        assert means.tolist() == joints.predict_many(model, [90.0, 60.0], 0.8)[0].tolist()

    def test_flat_reference_needs_no_return_model(self):
        model = joints.builtin_model(SQ)
        assert joints.predict_many(model, [0.0, 0.0])[2] == [180.0, 180.0]
        assert joints.predict_many(model, [0.0, 30.0])[2] == [180.0, None]
        assert joints.predict_many(model, [30.0])[2] == [None]


def _spy_predictions(monkeypatch):
    """(function, model or models, keyword arguments) of each gpr prediction
    call joints makes during the test; not the calls those make in turn."""
    calls, depth = [], [0]
    for name in ("predict_many", "predict_targets"):
        predict = getattr(gpr, name)

        def spy(gp, X, *args, _name=name, _predict=predict, **kwargs):
            if not depth[0]:
                calls.append((_name, tuple(gp) if _name == "predict_targets" else gp, kwargs))
            depth[0] += 1
            try:
                return _predict(gp, X, *args, **kwargs)
            finally:
                depth[0] -= 1

        monkeypatch.setattr(gpr, name, spy)
    return calls


def _unshared_predict(model: gpr.FittedGP, X):
    """Means and variances as predictions were made before the cross-kernel
    was shared: per block, k_* at the model's own signal variance, |W'k_*|^2
    from k_* W with W = V d^-1/2 and, on the low-rank form, the complement
    from a second product k_* V."""
    Q = np.asarray(X, dtype=float).reshape(len(X), -1)
    V = spectrum_V(model.spectrum)
    W = V / np.sqrt(model.d)
    means, variances = [], []
    for start in range(0, len(Q), 256):
        q = Q[start : start + 256]
        k = gpr.kernel_matrix(q, model.train_x, model.hyper)
        means.append(np.einsum("ij,j->i", gpr.basis_matrix(q), model.beta)
                     + np.einsum("ij,j->i", k, model.alpha))
        v = k @ W
        var = model.hyper.signal_variance - np.einsum("ij,ij->i", v, v)
        if model.spectrum.truncated:
            tail = k - (k @ V) @ V.T
            var -= np.einsum("ij,ij->i", tail, tail) / model.noise_variance
        variances.append(var)
    return np.concatenate(means), np.maximum(np.concatenate(variances), 0.0)


def _extended_variances(model: gpr.FittedGP, X):
    """sf2 - |W'k_*|^2 of a Kronecker-form model in x87 extended precision
    (a 64-bit significand), from the float64 k_*, d and axis factors with V
    expanded here: the value that both the expanded product k_* W and the
    rotation through the axis factors round."""
    if np.finfo(np.longdouble).eps > 1e-18:
        pytest.skip("needs an extended-precision long double")
    V_a, V_t, order, index = model.spectrum.kron
    ext = np.longdouble
    V = np.kron(V_a.astype(ext), V_t.astype(ext))[np.ix_(index, order)]
    k_star = gpr.kernel_matrix(X, model.train_x, model.hyper).astype(ext)
    v = k_star @ (V / np.sqrt(model.d.astype(ext)))
    return (model.hyper.signal_variance - np.einsum("ij,ij->i", v, v)).astype(float)


def _assert_unshared_answers(model, thetas, thickness, got):
    """got, joints.predict_many's answer, against _unshared_predict: the
    force means and return angles bit for bit, and the stds to 1e-12
    relative (on the low-rank form, against a lone gpr.predict_many, whose
    |W'k_*|^2 comes from k_* V).

    On the Kronecker form the stds come from V'k_*' through the axis
    factors, which rounds the cancelling difference sf2 - |W'k_*|^2 apart
    from _unshared_predict's k_* W: where the variance falls to 1e-4 sf2 no
    float64 route is within 1e-12 relative of the exact value, k_* W
    included. Both are held instead to its extended-precision value
    (_extended_variances) within 24 eps sf2; on the benchmark's tuned curve
    pairs of seeds 1-5 the rotation measures at most 10 eps sf2 and k_* W
    at most 13.2."""
    means, stds, returns, _ = got
    X = np.asarray(thetas, dtype=float)[:, None]
    if thickness is not None:
        X = np.column_stack([X, np.full(len(X), thickness)])
    want_means, want_var = _unshared_predict(model.force_model, X)
    assert np.array_equal(means, want_means)
    bent = X[:, 0] != 0.0
    back = np.clip(_unshared_predict(model.return_model, X[bent])[0], 0.0, 180.0).tolist()
    assert [r for r, b in zip(returns, bent) if b] == back
    assert [r for r, b in zip(returns, bent) if not b] == [180.0] * int((~bent).sum())
    spectrum = model.force_model.spectrum
    if spectrum.kron is None:
        if spectrum.truncated:
            want_var = gpr.predict_many(model.force_model, X)[1]
        np.testing.assert_allclose(stds, np.sqrt(want_var), rtol=1e-12, atol=0.0)
    else:
        exact = np.maximum(_extended_variances(model.force_model, X), 0.0)
        bound = 24 * np.finfo(float).eps * model.force_model.hyper.signal_variance
        assert np.abs(np.square(stds) - exact).max() <= bound
        assert np.abs(want_var - exact).max() <= bound


@pytest.fixture(scope="module")
def bench_pair():
    """The benchmark's untuned square pair, n = 340: both targets on one
    low-rank spectrum."""
    return joints.fit_family_model(bench_square_dataset(1), SQ)


class TestSharedCrossKernel:
    """joints.predict_many answers force and return from one cross-kernel
    per query block where the pair shares rows and length scales and every
    angle is bent, and from one call per component otherwise."""

    def test_sweep_of_the_bench_pair_makes_one_kernel_per_block(self, kernel_shapes, bench_pair):
        force, back = bench_pair.force_model, bench_pair.return_model
        assert force.spectrum.truncated and back.spectrum is force.spectrum
        thetas = np.linspace(10.0, 170.0, 1601)  # ugc predict --sweep 10:170:0.1
        X = thetas[:, None]
        want_means, want_var = gpr.predict_many(force, X)
        want_back = np.clip(gpr.predict_many(back, X, with_variances=False)[0], 0.0, 180.0)
        kernel_shapes.clear()
        means, stds, returns, _ = joints.predict_many(bench_pair, thetas)
        # 1,601 = 6 x 256 + 65: 7 blocks, one kernel each, not one per target
        assert kernel_shapes == [(256, 340)] * 6 + [(65, 340)]
        assert np.array_equal(means, want_means)
        assert returns == want_back.tolist()
        np.testing.assert_allclose(stds, np.sqrt(want_var), rtol=1e-12, atol=0.0)
        # the variance's one k_* V product moves the stds by rounding only
        np.testing.assert_allclose(stds, np.sqrt(_unshared_predict(force, X)[1]), rtol=1e-10)
        _assert_unshared_answers(bench_pair, thetas, None, (means, stds, returns, None))

    def test_tuned_curve_pair_on_two_length_scales_takes_two_calls(self, monkeypatch):
        # the benchmark's seed-1 curve rows: 81 angles x 4 thicknesses, averaged
        rng = np.random.default_rng(1)
        square_bench_csv(rng, angles=np.linspace(10.0, 170.0, 340).tolist())
        csv = curve_bench_csv(rng, angles=np.linspace(30.0, 150.0, 81).tolist())
        rows = average_runs(parse_measurements(csv), 1.0)
        model = joints.fit_family_model(rows, CURVE, tune=True)
        force, back = model.force_model, model.return_model
        assert force.hyper.length_scales == (40.0, 0.8)
        assert back.hyper.length_scales == (20.0, 0.8)
        thetas = np.linspace(30.0, 150.0, 601)
        calls = _spy_predictions(monkeypatch)
        got = joints.predict_many(model, thetas, 0.8)
        assert [(name, kwargs) for name, _, kwargs in calls] == [
            ("predict_many", {}), ("predict_many", {"with_variances": False})]
        _assert_unshared_answers(model, thetas, 0.8, got)

    def test_a_batch_holding_zero_takes_two_calls(self, monkeypatch, fitted_models):
        model = fitted_models[SQ]
        thetas = [0.0, *np.linspace(10.0, 170.0, 300)]
        calls = _spy_predictions(monkeypatch)
        got = joints.predict_many(model, thetas)
        assert calls == [("predict_many", model.force_model, {}),
                         ("predict_many", model.return_model, {"with_variances": False})]
        assert got[2][0] == 180.0
        _assert_unshared_answers(model, thetas, None, got)

    @pytest.mark.parametrize("dense_target", ["force", "return"])
    def test_targets_in_different_forms_share_the_kernel(self, kernel_shapes, dense_target):
        # one target's noise fails the low-rank check and takes the dense eigh
        X, force_y, back_y = joints.family_training_arrays(bench_square_dataset(1), SQ)
        hf = gpr.KernelHyperParams(float(np.var(force_y)), (20.0,))
        hb = gpr.KernelHyperParams(float(np.var(back_y)), (20.0,))
        ratio = {"force": 0.01, "return": 0.01, dense_target: 1e-7}  # noise / signal variance
        force = gpr.fit(X, force_y, hf, ratio["force"] * hf.signal_variance)
        back = gpr.fit(X, back_y, hb, ratio["return"] * hb.signal_variance, spectrum=force.spectrum)
        dense, low = (force, back) if dense_target == "force" else (back, force)
        assert not dense.spectrum.truncated and low.spectrum.truncated
        model = joints.JointFamilyModel(kind=SQ, force_model=force, return_model=back)
        thetas = np.linspace(10.0, 170.0, 1601)
        kernel_shapes.clear()
        got = joints.predict_many(model, thetas)
        assert kernel_shapes == [(256, 340)] * 6 + [(65, 340)]
        # the force variances come from the force model's own V
        _assert_unshared_answers(model, thetas, None, got)


@pytest.fixture(scope="module")
def fitted_models():
    square = parse_measurements(square_bench_csv(np.random.default_rng(7)))
    curve = parse_measurements(curve_bench_csv(np.random.default_rng(11)))
    return {SQ: joints.fit_family_model(square, SQ), CURVE: joints.fit_family_model(curve, CURVE)}


class TestNonFiniteQueries:
    @pytest.mark.parametrize("allow", [False, True])
    def test_thickness_whose_basis_overflows_refused(self, fitted_models, allow):
        # gpr.fit's rule for X: the query's quadratic basis must be finite
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(
                InputError, match="^thickness: values too large for the quadratic basis$"
            ):
                joints.predict_many(fitted_models[CURVE], [90.0], 1e300, allow_extrapolation=allow)
            # 1e150 squared is still a float, and the query answers
            means, _, _, _ = joints.predict_many(
                fitted_models[CURVE], [90.0], 1e150, allow_extrapolation=True
            )
        assert np.isfinite(means).all()

    @pytest.mark.parametrize("lead", [[], [60.0]], ids=["one-angle", "second-angle"])
    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize(
        "kind, name", [(SQ, "theta"), (CURVE, "theta"), (CURVE, "thickness")]
    )
    def test_rejected_naming_the_argument(self, fitted_models, lead, bad, kind, name):
        query = {"theta": 90.0, "thickness": 0.8 if kind is CURVE else None}
        query[name] = float(bad)
        thetas = [*lead, query["theta"]]
        with pytest.raises(InputError, match=f"^{name}: must be a finite number$"):
            joints.predict_many(
                fitted_models[kind], thetas, query["thickness"], allow_extrapolation=True
            )
