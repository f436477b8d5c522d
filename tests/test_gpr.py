

import itertools
import math
import re
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ugckit import gpr, joints
from ugckit.data import FamilyKind, average_runs, parse_measurements
from ugckit.errors import InputError, NotPositiveDefiniteError, UnsupportedDimensionError

from conftest import (
    assert_same_model,
    dense_refit_loo_residuals,
    model_loo_residuals,
    oracle_gp,
    oracle_lml,
    random_gp_instance,
    refit_loo_residuals_gp,
)


DEMO_DATA = Path(__file__).resolve().parents[1] / "demos" / "data"


def hp(sf2=1.0, ls=(1.0,)):
    return gpr.KernelHyperParams(sf2, ls)


def se_formula(a, b, h) -> float:
    """sf2 * exp(-0.5 * sum(((a_j - b_j) / l_j)^2)), one pair at a time."""
    return h.signal_variance * math.exp(
        -0.5 * sum(((p - q) / l) ** 2 for p, q, l in zip(a, b, h.length_scales))
    )


class TestKernel:
    def test_self_covariance_is_signal_variance(self):
        assert gpr.kernel_matrix([[90.0]], [[90.0]], hp()).tolist() == [[1.0]]
        X = [[1.0, 2.0], [5.0, -3.0]]
        assert np.diag(gpr.kernel_matrix(X, X, hp(2.5, (3.0, 4.0)))).tolist() == [2.5, 2.5]

    def test_unit_separation_closed_form(self):
        # exp(-0.5) for unit distance at unit length scale
        K = gpr.kernel_matrix([[0.0]], [[1.0]], hp())
        assert K.shape == (1, 1)
        assert K[0, 0] == pytest.approx(0.6065306597126334, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(InputError, match="^points of dim 2/1 vs 1 length scales$"):
            gpr.kernel_matrix([[0.0, 1.0]], [[0.0]], hp())
        with pytest.raises(InputError, match="^points of dim 2/2 vs 1 length scales$"):
            gpr.kernel_matrix([[0.0, 1.0]], [[0.0, 1.0]], hp())

    @given(
        st.lists(st.floats(-100, 100), min_size=2, max_size=2),
        st.lists(st.floats(-100, 100), min_size=2, max_size=2),
        st.floats(0.0, 10.0),
        st.lists(st.floats(0.1, 50.0), min_size=2, max_size=2),
    )
    def test_symmetry(self, a, b, sf2, ls):
        h = hp(sf2, tuple(ls))
        ab = gpr.kernel_matrix([a], [b], h)[0, 0]
        assert ab == pytest.approx(gpr.kernel_matrix([b], [a], h)[0, 0], rel=1e-13)
        # abs covers subnormal results, where one ulp is a large relative step
        assert ab == pytest.approx(se_formula(a, b, h), rel=1e-12, abs=1e-300)

    def test_matrix_matches_pairwise(self):
        rng = np.random.default_rng(0)
        X = rng.uniform(0, 5, (8, 2))
        h = hp(1.3, (1.0, 2.0))
        K = gpr.kernel_matrix(X, X, h)
        assert np.array_equal(K, K.T)
        for i in range(8):
            for j in range(8):
                assert K[i, j] == pytest.approx(se_formula(X[i], X[j], h), rel=1e-13)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_in_place_result_keeps_the_bits_of_the_formula(self, dim):
        rng = np.random.default_rng(9)
        A, B = rng.uniform(0.0, 150.0, (40, dim)), rng.uniform(0.0, 150.0, (30, dim))
        h = hp(1.7, (20.0, 0.4)[:dim])
        sq = np.zeros((40, 30))
        for j in range(dim):
            sq += ((A[:, j : j + 1] - B[:, j : j + 1].T) / h.length_scales[j]) ** 2
        assert np.array_equal(gpr.kernel_matrix(A, B, h), h.signal_variance * np.exp(-0.5 * sq))
        # a model's k_* is its signal variance times the unit-signal kernel, bit for bit
        assert np.array_equal(
            gpr.kernel_matrix(A, B, h), 1.7 * gpr.kernel_matrix(A, B, hp(1.0, h.length_scales))
        )

    def test_random_kernel_matrices_positive_definite(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = int(rng.integers(2, 31))
            X = rng.uniform(0, 3, (n, 1))
            K = gpr.kernel_matrix(X, X, hp(2.0, (0.5,))) + 1e-8 * np.eye(n)
            np.linalg.cholesky(K)  # raises if not PD

    @pytest.mark.parametrize("X, ls", [([[0.0], [1.0]], 5e-324), ([[-1e308], [1e308]], 1.0)],
                             ids=["subnormal-length-scale", "huge-rows"])
    def test_distance_past_the_float_range_is_a_silent_zero(self, X, ls):
        # exp(-inf) = 0 is the exact limit, so the overflow raises no warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            K = gpr.kernel_matrix(X, X, hp(2.0, (ls,)))
        assert K.tolist() == [[2.0, 0.0], [0.0, 2.0]]


class TestBasis:
    def test_one_dim(self):
        assert gpr.basis_matrix([90.0, 0.0]).tolist() == [[1.0, 90.0, 8100.0], [1.0, 0.0, 0.0]]

    def test_two_dim_angle_first(self):
        assert gpr.basis_matrix([[90.0, 0.4]])[0].tolist() == pytest.approx(
            [1.0, 90.0, 0.4, 8100.0, 0.16]
        )

    def test_unsupported_dimension(self):
        with pytest.raises(UnsupportedDimensionError):
            gpr.basis_matrix([[1.0, 2.0, 3.0]])


class TestFitPredict:
    def test_single_point_zero_noise_interpolates(self):
        m = gpr.fit([[2.0]], [5.0], hp(), noise_variance=0.0, beta=[0.0, 0.0, 0.0])
        (mean,), (var,) = gpr.predict_many(m, [2.0])
        assert mean == pytest.approx(5.0, abs=1e-10)
        assert var == pytest.approx(0.0, abs=1e-8)

    def test_duplicate_rows_zero_noise_rejected(self):
        with pytest.raises(NotPositiveDefiniteError):
            gpr.fit([[1.0], [1.0]], [1.0, 2.0], hp(), noise_variance=0.0)

    def test_spectrum_negative_past_the_jitter_rejected(self):
        # 200 rows within 1e-3 of one another: K1 is all but rank one, and its
        # rounding-level negative eigenvalues, scaled by sf2 = 1e8, outweigh
        # the jitter
        X = np.linspace(0.0, 1e-3, 200)
        with pytest.raises(NotPositiveDefiniteError, match="even with jitter"):
            gpr.fit(X, np.zeros(200), hp(1e8), noise_variance=0.0)

    def test_duplicate_rows_fine_with_noise(self):
        m = gpr.fit([[1.0], [1.0]], [1.0, 2.0], hp(), noise_variance=0.1)
        (mean,), _ = gpr.predict_many(m, [1.0])
        assert mean == pytest.approx(1.5, abs=0.2)

    def test_beta_length_checked(self):
        with pytest.raises(InputError, match="^beta has 2 terms, basis needs 3$"):
            gpr.fit([[1.0]], [1.0], hp(), 0.1, beta=[1.0, 2.0])

    @pytest.mark.parametrize("noise", [math.nan, math.inf, -math.inf])
    def test_non_finite_noise_rejected(self, noise):
        # inf fitted beta = 0 and saved an archive no loader accepts; nan
        # escaped as numpy's LinAlgError
        with pytest.raises(ValueError, match="^noise_variance: must be a finite number$"):
            gpr.fit([[0.0], [1.0], [2.0]], [1.0, 0.0, 2.0], hp(1.0, (2.0,)), noise)

    def test_array_noise_rejected_as_a_non_number(self):
        # == 0.0 on the array ran before the typed-number rule and raised
        # numpy's "truth value ... is ambiguous"
        with pytest.raises(ValueError, match="^noise_variance: expected float$"):
            gpr.fit([[0.0], [1.0], [2.0]], [1.0, 0.0, 2.0], hp(1.0, (2.0,)), np.zeros(2))

    @pytest.mark.parametrize("X, y, beta, field", [
        ([[0.0], [1.0], [2.0]], ["1.0", "0.0", "2.0"], None, "y"),
        ([[0.0], [1.0], [2.0]], [True, False, True], None, "y"),
        ([[False], [True], [True]], [1.0, 0.0, 2.0], None, "X"),
        ([[0.0], [1.0], [2.0]], [1.0, 0.0, 2.0], ["1", 0, 0], "beta"),
        # a bool among ints or floats: numpy's array of the list hides it
        ([[0.0], [1.0], [2.0]], [1.0, 0.0, 2.0], [True, 0, 0], "beta"),
        ([[0.0], [1.0], [2.0]], [1.0, 0.0, 2.0], [1.0, True, 0.0], "beta"),
    ])
    def test_array_inputs_take_the_typed_number_rule(self, X, y, beta, field):
        # float() reads each of these, so fit took them as 1.0 and 0.0
        with pytest.raises(ValueError, match=f"^{field}: expected float$"):
            gpr.fit(X, y, hp(1.0, (2.0,)), 0.1, beta=beta)

    def test_non_finite_fixed_beta_rejected(self):
        # fit took it, warning in the alpha product, and only predict failed
        with pytest.raises(ValueError, match="^beta: must be a finite number$"):
            gpr.fit([[0.0], [1.0], [2.0]], [1.0, 0.0, 2.0], hp(1.0, (2.0,)), 0.1,
                    beta=[math.nan, 0.0, 0.0])

    @pytest.mark.parametrize("X", [
        [[0.0], [1e300], [2.0]],
        [[30.0, 0.4], [60.0, -1e200], [90.0, 1.2]],
    ], ids=["1-D", "2-D"])
    def test_x_whose_basis_overflows_rejected_naming_x(self, X):
        # x^2 past the float range: numpy warned in the basis, and the fit
        # went on with inf
        dim, y = len(X[0]), [1.0, 0.0, 2.0]
        grid = gpr.GridSpec((1.0,), ((2.0,),) * dim, (0.1,))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for call in (lambda: gpr.fit(X, y, hp(1.0, (2.0,) * dim), 0.1),
                         lambda: gpr.tune_hyperparams(X, [(y, grid)])):
                message = "^X: values too large for the quadratic basis$"
                with pytest.raises(ValueError, match=message):
                    call()

    @pytest.mark.parametrize("Xq", [["1.0"], [True], [b"1"], [[1.0], [True]]])
    def test_query_points_take_the_typed_number_rule(self, Xq):
        m = gpr.fit([[0.0], [1.0], [2.0]], [1.0, 0.0, 2.0], hp(1.0, (2.0,)), 0.1)
        with pytest.raises(ValueError, match="^Xq: expected float$"):
            gpr.predict_many(m, Xq)

    @pytest.mark.parametrize("form", ["dense", "kronecker", "low_rank"])
    def test_model_holds_linear_arrays_outside_its_spectrum(self, form):
        # the n x r factor W = V diag(d)^-1/2 is formed where it is used, not kept
        if form == "kronecker":
            X, y = _shuffled_grid()
        else:
            X = np.linspace(10.0, 170.0, 100 if form == "dense" else 340)[:, None]
            y = np.sin(X[:, 0] / 30.0)
        m = gpr.fit(X, y, hp(1.0, (20.0, 0.4)[: X.shape[1]]), 0.01)
        assert m.spectrum.truncated == (form == "low_rank")
        held = sum(v.nbytes for v in vars(m).values() if isinstance(v, np.ndarray))
        assert held <= 4 * len(X) * 8

    def test_matches_oracle_fixed_and_gls_beta(self):
        rng = np.random.default_rng(123)
        worst = 0.0
        for trial in range(20):
            X, y, sf2, ls, noise, beta, queries = random_gp_instance(rng)
            use_gls = trial % 2 == 0
            h = hp(sf2, ls)
            m = gpr.fit(X, y, h, noise, beta=None if use_gls else beta)
            if use_gls:
                ob, _ = oracle_gp(X, y, sf2, ls, noise, beta=None)
                assert m.beta == pytest.approx(ob, abs=1e-8)
            _, opredict = oracle_gp(X, y, sf2, ls, noise, beta=m.beta)
            for q, mean, var in zip(queries, *gpr.predict_many(m, queries)):
                omean, ovar = opredict(q)
                worst = max(worst, abs(mean - omean), abs(var - ovar))
        assert worst < 1e-10

    def test_rank_deficient_gls_is_minimum_norm(self):
        X, y, h, noise = _one_thickness_curve()
        m = gpr.fit(X, y, h, noise)
        want_beta, opredict = oracle_gp(X, y, h.signal_variance, h.length_scales, noise)
        assert np.max(np.abs(m.beta - want_beta)) < 1e-8
        # off the training thickness the mean depends on how beta splits
        # across the collinear columns
        (mean,), _ = gpr.predict_many(m, [[90.0, 1.2]])
        assert abs(mean - opredict([90.0, 1.2])[0]) < 1e-8

    def test_zero_noise_interpolation_many_instances(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            n = int(rng.integers(4, 12))
            # jittered grid keeps neighbors at least ~0.3 length scales apart,
            # so the zero-noise kernel matrix stays comfortably invertible
            x = np.linspace(0.0, 10.0, n) + rng.uniform(-0.3, 0.3, n)
            y = np.sin(x) + 0.1 * x
            m = gpr.fit(x[:, None], y, hp(1.0, (1.5,)), noise_variance=0.0)
            means, variances = gpr.predict_many(m, x)
            for yi, mean, var in zip(y, means, variances):
                assert mean == pytest.approx(yi, abs=1e-6)
                assert var >= 0.0

    def test_prior_reversion_far_from_data(self):
        rng = np.random.default_rng(9)
        X = rng.uniform(0, 5, (12, 1))
        beta = np.array([0.5, -0.2, 0.01])
        y = gpr.basis_matrix(X) @ beta + rng.normal(0, 0.1, 12)
        m = gpr.fit(X, y, hp(1.7, (1.0,)), 0.01, beta=beta)
        q = [30.0]  # 25 length scales past the data
        (mean,), (var,) = gpr.predict_many(m, q)
        assert abs(mean - float(gpr.basis_matrix(q)[0] @ beta)) < 1e-6
        assert abs(var - 1.7) < 1e-6

    def test_variance_at_training_points_bounded_by_noise(self):
        rng = np.random.default_rng(21)
        X = np.linspace(0, 8, 15)[:, None]
        y = rng.normal(0, 1, 15)
        noise = 1e-4
        m = gpr.fit(X, y, hp(1.0, (1.0,)), noise)
        _, variances = gpr.predict_many(m, X)
        for var in variances:
            assert 0.0 <= var <= noise + 1e-8

    def test_adding_a_point_never_raises_variance(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            n = int(rng.integers(3, 15))
            X = rng.uniform(0, 6, (n, 1))
            y = rng.normal(0, 1, n)
            h = hp(1.2, (1.0,))
            m_small = gpr.fit(X, y, h, 0.05)
            x_new = rng.uniform(0, 6)
            m_big = gpr.fit(
                np.vstack([X, [[x_new]]]), np.append(y, rng.normal()), h, 0.05
            )
            queries = rng.uniform(-2, 8, 6)
            _, v_small = gpr.predict_many(m_small, queries)
            _, v_big = gpr.predict_many(m_big, queries)
            assert np.all(v_big <= v_small + 1e-9)

    def test_query_dimension_checked(self):
        m = gpr.fit([[1.0]], [1.0], hp(), 0.1)
        with pytest.raises(InputError, match="^query dim 2 vs training dim 1$"):
            gpr.predict_many(m, [[1.0, 2.0]])

    def test_fitted_model_is_immutable(self):
        m = gpr.fit([[1.0], [2.0]], [1.0, 2.0], hp(), 0.1)
        with pytest.raises(ValueError):
            m.alpha[0] = 99.0
        with pytest.raises(ValueError):
            m.train_y[0] = 99.0


def _two_targets(n=20):
    rng = np.random.default_rng(31)
    X = np.sort(rng.uniform(0.0, 10.0, n))[:, None]
    return X, np.sin(X[:, 0]) + rng.normal(0.0, 0.1, n), 3.0 * np.cos(X[:, 0])


class TestSharedSpectrum:
    def test_matching_spectrum_is_reused_bit_for_bit(self, eigh_calls):
        X, y1, y2 = _two_targets()
        first = gpr.fit(X, y1, hp(1.0, (2.0,)), 0.01)
        second = gpr.fit(X.copy(), y2, hp(4.0, (2.0,)), 0.1, spectrum=first.spectrum)
        assert len(eigh_calls) == 1
        assert second.spectrum is first.spectrum
        assert_same_model(second, gpr.fit(X, y2, hp(4.0, (2.0,)), 0.1))

    @pytest.mark.parametrize("change", ["row", "length_scale", "signed_zero"])
    def test_other_rows_or_length_scales_take_their_own_eigh(self, eigh_calls, change):
        X, y1, y2 = _two_targets()
        X[0, 0] = 0.0
        first = gpr.fit(X, y1, hp(1.0, (2.0,)), 0.01)
        other, ls = X.copy(), (2.0,)
        if change == "row":
            other[5, 0] = np.nextafter(other[5, 0], np.inf)
        elif change == "length_scale":
            ls = (np.nextafter(2.0, np.inf),)
        else:
            other[0, 0] = -0.0  # the same kernel, but not the same rows bit for bit
        second = gpr.fit(other, y2, hp(4.0, ls), 0.1, spectrum=first.spectrum)
        assert len(eigh_calls) == 2
        assert second.spectrum is not first.spectrum
        assert np.signbit(second.train_x).tolist() == np.signbit(other).tolist()
        assert_same_model(second, gpr.fit(other, y2, hp(4.0, ls), 0.1))

    def test_spectrum_is_read_only_and_owns_its_rows(self):
        X, y1, _ = _two_targets()
        m = gpr.fit(X, y1, hp(), 0.1)
        X[0, 0] = 99.0
        assert m.train_x[0, 0] != 99.0
        assert m.train_x is m.spectrum.x
        for array in (m.spectrum.x, m.spectrum.lam, m.spectrum.V):
            with pytest.raises(ValueError):
                array[0] = 99.0


def _one_thickness_curve():
    """41 curve rows at 0.8 mm: thickness and its square are multiples of the
    constant column, so H has rank 3 of 5."""
    rng = np.random.default_rng(5)
    X = np.column_stack([np.linspace(30.0, 150.0, 41), np.full(41, 0.8)])
    y = 0.02 * X[:, 0] - 5e-5 * X[:, 0] ** 2 + 2.56 + rng.normal(0.0, 0.08, 41)
    assert np.linalg.matrix_rank(gpr.basis_matrix(X)) == 3
    return X, y, hp(float(np.var(y)), (20.0, 0.4)), 0.01 * float(np.var(y))


def _rel_gap(got, want) -> float:
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


class TestLooResiduals:
    """The closed form against one refit per held-out row, to 1e-10 relative."""

    def test_one_dimensional(self):
        rng = np.random.default_rng(3)
        X = np.sort(rng.uniform(10.0, 170.0, 40))[:, None]
        y = 1.7 + 0.023 * X[:, 0] - 5e-5 * X[:, 0] ** 2 + rng.normal(0.0, 0.05, 40)
        h, noise = hp(float(np.var(y)), (20.0,)), 0.01 * float(np.var(y))
        got = model_loo_residuals(gpr.fit(X, y, h, noise))
        assert _rel_gap(got, refit_loo_residuals_gp(X, y, h, noise)) < 1e-10

    def test_two_dimensional(self):
        rng = np.random.default_rng(4)
        X = np.array([[a, t] for t in (0.4, 0.8, 1.2, 1.6) for a in np.linspace(30, 150, 9)])
        y = 0.02 * X[:, 0] + 4.0 * X[:, 1] ** 2 + rng.normal(0.0, 0.08, len(X))
        h, noise = hp(float(np.var(y)), (20.0, 0.4)), 0.01 * float(np.var(y))
        got = model_loo_residuals(gpr.fit(X, y, h, noise))
        assert _rel_gap(got, refit_loo_residuals_gp(X, y, h, noise)) < 1e-10

    def test_random_instances(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            X, y, sf2, ls, noise, _, _ = random_gp_instance(rng, n_max=30)
            got = model_loo_residuals(gpr.fit(X, y, hp(sf2, ls), noise))
            assert _rel_gap(got, refit_loo_residuals_gp(X, y, hp(sf2, ls), noise)) < 1e-10

    def test_rank_deficient_basis_at_one_thickness(self, eigh_calls):
        # the mean at every held-out row is still defined
        X, y, h, noise = _one_thickness_curve()
        model = gpr.fit(X, y, h, noise)
        assert eigh_calls == [(41, 41), (1, 1)]  # a 41 x 1 product grid
        got, rank = gpr.loo_residuals(gpr.basis_matrix(X), y, model)
        assert _rel_gap(got, refit_loo_residuals_gp(X, y, h, noise)) < 1e-10
        assert rank == 3  # thickness and its square are multiples of the constant

    def test_jitter_path_matches_refits_on_the_jittered_matrix(self):
        rng = np.random.default_rng(6)
        X = np.linspace(0.0, 10.0, 40)[:, None]
        h = hp(1e-6, (2.0,))
        K = gpr.kernel_matrix(X, X, h)
        # zero noise: K's spectrum reaches 0, so the factorization needs the jitter
        assert np.linalg.eigvalsh(K).min() <= 0
        H = gpr.basis_matrix(X)
        y = H @ np.array([0.5, -0.1, 0.01]) + rng.normal(0.0, 1e-3, 40)
        got = model_loo_residuals(gpr.fit(X, y, h, 0.0))
        want = dense_refit_loo_residuals(K + gpr.JITTER * np.eye(40), H, y)
        assert _rel_gap(got, want) < 1e-10

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_targets_rejected(self, bad):
        # a NaN target must not pass for an undefined fold: fit, which every
        # model that loo_residuals reads comes from, rejects it
        X, y = np.linspace(0.0, 5.0, 8)[:, None], np.arange(8.0)
        y[3] = bad
        with pytest.raises(ValueError, match="^y: must be a finite number$"):
            gpr.fit(X, y, hp(), 0.1)

    def test_allocates_less_than_one_n_by_n_array(self):
        # n = 1000: a low-rank model, and the polynomial baseline (F = I)
        X = np.linspace(10.0, 170.0, 1000)[:, None]
        y = 2.0 + 0.02 * X[:, 0] + np.random.default_rng(9).normal(0.0, 0.05, 1000)
        v = float(np.var(y))
        model = gpr.fit(X, y, hp(v, (20.0,)), 0.01 * v)
        assert model.spectrum.truncated
        H = gpr.basis_matrix(X)
        for call in (lambda: gpr.loo_residuals(H, y, model),
                     lambda: joints.loo_rmse_poly(X, y, 7)):
            tracemalloc.start()
            try:
                call()
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 1000 * 1000 * np.dtype(float).itemsize

    def test_undefined_folds_are_nan(self):
        # five rows for the five-term 2-D basis: without its row, no fold
        # identifies the mean at the held-out point
        X = np.array([[30.0, 0.4], [60.0, 1.2], [90.0, 0.8], [120.0, 1.6], [150.0, 0.4]])
        y = np.array([2.1, 4.0, 3.2, 6.5, 2.9])
        assert np.linalg.matrix_rank(gpr.basis_matrix(X)) == 5
        assert np.isnan(model_loo_residuals(gpr.fit(X, y, hp(2.0, (20.0, 0.4)), 0.02))).all()


def _shuffled_grid():
    """An averaged curve grid, 9 angles x 4 thicknesses, rows in random order."""
    rng = np.random.default_rng(12)
    X = np.array([[a, t] for t in (0.4, 0.8, 1.2, 1.6) for a in np.linspace(30.0, 150.0, 9)])
    X = X[rng.permutation(len(X))]
    y = 0.02 * X[:, 0] + 4.0 * X[:, 1] ** 2 + rng.normal(0.0, 0.08, len(X))
    return X, y


class TestKroneckerSpectrum:
    """Rows that are exactly the product of their angles and thicknesses take
    one eigh per axis; all other rows take the dense n x n eigh."""

    def test_grid_index_is_each_rows_product_cell(self):
        X, _ = _shuffled_grid()
        (a, t), index = gpr._product_grid(X)
        cells = np.searchsorted(a, X[:, 0]) * t.size + np.searchsorted(t, X[:, 1])
        assert index.tolist() == cells.tolist()

    def test_signed_zeros_are_one_value(self):
        # as np.unique(X, axis=0) counts them
        _, cells = gpr._row_cells(np.array([[0.0, 0.4], [-0.0, 0.4], [1.0, 0.4]]))
        assert cells.tolist() == [0, 0, 1]
        grid = gpr._product_grid(np.array([[0.0, 0.4], [-0.0, 0.8], [1.0, 0.4], [1.0, 0.8]]))
        assert grid is not None and grid[1].tolist() == [0, 1, 2, 3]

    def test_rebuilds_the_dense_kernel_on_shuffled_rows(self, eigh_calls):
        X, _ = _shuffled_grid()
        s = gpr._kernel_eigh(X, (20.0, 0.4))
        assert eigh_calls == [(9, 9), (4, 4)]
        K = gpr.kernel_matrix(X, X, hp(1.0, (20.0, 0.4)))
        assert _rel_gap((s.V * s.lam) @ s.V.T, K) <= 1e-13
        assert _rel_gap(s.V.T @ s.V, np.eye(len(X))) <= 1e-13
        assert np.all(np.diff(s.lam) >= 0)  # ascending, as eigh returns it

    def test_fit_matches_the_dense_inverse_oracle(self):
        X, y = _shuffled_grid()
        sf2, ls, noise = float(np.var(y)), (20.0, 0.4), 0.01 * float(np.var(y))
        model = gpr.fit(X, y, hp(sf2, ls), noise)
        oracle_beta, _ = oracle_gp(X, y, sf2, ls, noise)
        assert np.max(np.abs(model.beta - oracle_beta)) < 1e-8  # C1's bound on the GLS beta
        _, opredict = oracle_gp(X, y, sf2, ls, noise, beta=model.beta)
        off_rows = np.random.default_rng(3).uniform((30.0, 0.4), (150.0, 1.6), (7, 2))
        queries = np.vstack([X[:3], off_rows])
        for q, mean, var in zip(queries, *gpr.predict_many(model, queries)):
            omean, ovar = opredict(q)
            assert abs(mean - omean) < 1e-10 and abs(var - ovar) < 1e-10

    @pytest.mark.parametrize("rows", ["ragged", "repeated_pair", "repeated_runs", "one_dim"])
    def test_other_rows_take_one_dense_eigh(self, eigh_calls, curve_dataset, rows):
        X, _ = _shuffled_grid()
        if rows == "ragged":
            X = X[1:]  # one (angle, thickness) pair has no row
        elif rows == "repeated_pair":
            X[0] = X[1]  # 9 x 4 distinct values over 36 rows, but not each pair once
        elif rows == "repeated_runs":
            X, _, _ = joints.family_training_arrays(curve_dataset, FamilyKind.CURVE)
        else:
            X = np.linspace(10.0, 170.0, 17)[:, None]
        y = np.sin(X[:, 0] / 30.0)
        gpr.fit(X, y, hp(1.0, (20.0, 0.4)[: X.shape[1]]), 0.01)
        assert eigh_calls == [(len(X), len(X))]


def _low_rank_instance(rng, n, dim, ratio, rough=False):
    """A C1-style problem on n rows at noise = ratio * sf2, with targets the
    model describes: a quadratic, a smooth sf2-sized signal and noise of the
    noise variance; rough targets are the quadratic plus white noise of
    variance sf2, as in random_gp_instance. The rows are 1-D with a tenth of
    them repeated, or n of the cells of an angle x thickness grid (a ragged
    grid), 20 rows per unit along the angle."""
    span = n / 20.0
    if dim == 1:
        X = rng.uniform(0.0, span, (n, 1))
        X[: n // 10] = X[n // 10 : 2 * (n // 10)]
    else:
        cells = [(a, t) for a in np.linspace(0.0, span, n // 4 + 3) for t in (0.0, 0.5, 1.0, 1.5)]
        X = np.array(cells)[np.sort(rng.choice(len(cells), n, replace=False))]
    assert gpr._product_grid(X) is None
    sf2 = float(rng.uniform(0.5, 1.5))
    ls = rng.uniform(0.7, 2.5, dim)
    beta = rng.uniform(-1.0, 1.0, 2 * dim + 1) / np.r_[1.0, [span] * dim, [span**2] * dim]
    signal = math.sqrt(sf2) * np.sin(X / ls + rng.uniform(0.0, 2.0 * np.pi, dim)).sum(axis=1)
    y = gpr.basis_matrix(X) @ beta + signal + rng.normal(0.0, math.sqrt(ratio * sf2), n)
    if rough:
        y = gpr.basis_matrix(X) @ beta + rng.normal(0.0, math.sqrt(sf2), n)
    queries = rng.uniform(0.0, span, (6, dim))
    return X, y, hp(sf2, tuple(ls.tolist())), ratio * sf2, beta, queries


def _whole_kernel_low_rank(X, ls):
    """The low-rank spectrum (lam, V, tail) from the whole n x n K1: its
    diagonal and pivot rows read from the matrix, L' allocated to the cap."""
    K1 = gpr.kernel_matrix(X, X, hp(1.0, ls))
    n = len(X)
    d = K1.diagonal().copy()
    Lt = np.empty((n // 2, n))
    for k in range(n // 2):
        p = int(np.argmax(d))
        row = K1[p] - Lt[:k, p] @ Lt[:k]
        row /= math.sqrt(d[p])
        Lt[k] = row
        d -= row * row
        d[p] = 0.0
        np.maximum(d, 0.0, out=d)
        if k == 0:
            tol = n * np.finfo(float).eps * (row @ row)
        tail = float(d.sum())
        if tail <= tol:
            _, s, Vt = np.linalg.svd(Lt[: k + 1], full_matrices=False)
            return s * s, Vt.T, tail
    raise AssertionError("rank past n / 2")


def _dense_whitener(X, h, noise):
    """The whitener of the dense n x n eigh of K1, with the jitter retry:
    the dense form's arithmetic, written out."""
    lam, V = np.linalg.eigh(gpr.kernel_matrix(X, X, hp(1.0, h.length_scales)))
    d = h.signal_variance * lam + noise
    return V / np.sqrt(d + gpr.JITTER if d.min() <= 0 else d)


class TestLowRankSpectrum:
    """1-D rows from LOW_RANK_MIN_ROWS up: pivoted Cholesky and a thin SVD
    in place of the n x n eigh, where the noise check lets a model take it.
    Ragged 2-D rows keep the dense eigh."""

    # rough targets at noise/sf2 = 1e-3 are what set LOW_RANK_DELTA: without
    # the noise check two of them take the low-rank form and miss the oracle
    # by 8e-10
    @pytest.mark.parametrize("ratio, rough", [
        *((r, False) for r in (1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0)),
        *((r, True) for r in (1e-3, 1e-2, 1e-1, 1.0)),
    ])
    def test_matches_the_dense_inverse_oracle(self, ratio, rough):
        rng = np.random.default_rng(0 if rough else int(-math.log10(ratio)))
        worst, forms = 0.0, []
        shapes = [(128, 1), (256, 2), (340, 1), (400, 2), (256, 1), (400, 1)]
        for trial, (n, dim) in enumerate(shapes):
            X, y, h, noise, beta, queries = _low_rank_instance(rng, n, dim, ratio, rough)
            use_gls = trial % 2 == 0
            m = gpr.fit(X, y, h, noise, beta=None if use_gls else beta)
            K1 = gpr.kernel_matrix(X, X, hp(1.0, h.length_scales))
            low = gpr._low_rank(X, h.length_scales, K1)
            certified = low is not None and (
                h.signal_variance * low.tail <= gpr.LOW_RANK_DELTA * noise
            )
            assert m.spectrum.truncated == (m.spectrum.lam.size < n) == certified
            forms.append(certified)
            if ratio <= 1e-5:
                # the dense form's own rounding misses 1e-10 against the
                # oracle here (cond(A) ~ lam_max / ratio), so the check is
                # that the model is the dense eigh's, bit for bit
                assert np.array_equal(m.spectrum.V / np.sqrt(m.d), _dense_whitener(X, h, noise))
                continue
            if use_gls:
                want_beta, _ = oracle_gp(X, y, h.signal_variance, h.length_scales, noise)
                assert m.beta == pytest.approx(want_beta, abs=1e-8)
            _, opredict = oracle_gp(X, y, h.signal_variance, h.length_scales, noise, beta=m.beta)
            for q, mean, var in zip(queries, *gpr.predict_many(m, queries)):
                omean, ovar = opredict(q)
                worst = max(worst, abs(mean - omean), abs(var - ovar))
        assert worst < 1e-10
        # n = 128 stays below the crossover and 2-D rows are not tried; on
        # the 1-D rows from 256 up the noise check sends 1e-4 and below to the
        # dense form and keeps 1e-2 and up on the low-rank one
        assert not forms[0] and not forms[1] and not forms[3]
        if not rough and (ratio <= 1e-4 or ratio >= 1e-2):
            assert [forms[2], *forms[4:]] == [ratio >= 1e-2] * 3

    def test_zero_noise_takes_the_dense_form(self):
        X = np.linspace(10.0, 170.0, 300)[:, None]
        y = np.sin(X[:, 0] / 30.0)
        h = hp(1.0, (20.0,))
        assert gpr.fit(X, y, h, 1e-2).spectrum.truncated
        m = gpr.fit(X, y, h, 0.0)
        assert not m.spectrum.truncated
        assert np.array_equal(m.spectrum.V / np.sqrt(m.d), _dense_whitener(X, h, 0.0))

    def test_rank_past_the_cap_takes_the_dense_form(self):
        X = np.linspace(0.0, 300.0, 300)[:, None]
        y = np.sin(X[:, 0] / 7.0)
        h = hp(1.0, (0.3,))  # nearly the identity: the rank never falls below n / 2
        K1 = gpr.kernel_matrix(X, X, hp(1.0, h.length_scales))
        assert gpr._pivoted_cholesky(K1, 150) is None
        assert gpr._pivoted_cholesky(K1, 300) is not None
        m = gpr.fit(X, y, h, 1e-2)
        assert not m.spectrum.truncated and m.spectrum.low_rank is None
        assert np.array_equal(m.spectrum.V / np.sqrt(m.d), _dense_whitener(X, h, 1e-2))

    @pytest.mark.parametrize("n", [340, 1000])
    def test_spectrum_from_pivot_rows_equals_the_whole_kernel_one(
        self, eigh_calls, kernel_shapes, n
    ):
        X = np.linspace(10.0, 170.0, n)[:, None]
        lam, V, tail = _whole_kernel_low_rank(X, (20.0,))
        kernel_shapes.clear()
        s = gpr._kernel_eigh(X, (20.0,))
        # one kernel row per pivot, and no n x n K1 or eigh
        assert s.truncated and kernel_shapes == [(1, n)] * lam.size and eigh_calls == []
        assert np.array_equal(s.lam, lam) and np.array_equal(s.V, V) and s.tail == tail

    def test_fit_allocates_a_tenth_of_one_n_by_n_array(self):
        n = 1000
        X = np.linspace(10.0, 170.0, n)[:, None]
        y = 2.0 + 0.02 * X[:, 0] + np.random.default_rng(2).normal(0.0, 0.05, n)
        h = hp(float(np.var(y)), (20.0,))
        tracemalloc.start()
        try:
            m = gpr.fit(X, y, h, 0.01 * h.signal_variance)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert m.spectrum.truncated
        assert peak < 0.1 * n * n * np.dtype(float).itemsize

    def test_an_attempt_past_the_cap_falls_back_to_the_dense_eigh(
        self, eigh_calls, kernel_shapes
    ):
        n = 300
        X = np.linspace(0.0, n - 1.0, n)[:, None]  # rows 1 apart
        y = np.sin(X[:, 0] / 7.0)
        h = hp(1.0, (0.5,))  # below the row spacing: the rank never falls below n / 2
        m = gpr.fit(X, y, h, 1e-2)
        # n / 2 pivot rows, then the whole K1 for the dense eigh
        assert kernel_shapes == [(1, n)] * (n // 2) + [(n, n)]
        assert eigh_calls == [(n, n)]
        assert not m.spectrum.truncated and m.spectrum.low_rank is None
        want = gpr.fit(X, y, h, 1e-2, spectrum=gpr._dense(X, h.length_scales))
        assert_same_model(m, want)
        assert np.array_equal(m.spectrum.V, want.spectrum.V)

    @pytest.mark.parametrize("n", [255, 256])  # either side of LOW_RANK_MIN_ROWS
    def test_rows_below_the_crossover_take_the_dense_form(self, eigh_calls, n):
        X = np.linspace(10.0, 170.0, n)[:, None]
        y = 2.0 + 0.02 * X[:, 0] + np.random.default_rng(3).normal(0.0, 0.05, n)
        h = hp(float(np.var(y)), (20.0,))
        m = gpr.fit(X, y, h, 0.01 * h.signal_variance)
        low_rank = n >= gpr.LOW_RANK_MIN_ROWS
        assert m.spectrum.truncated == low_rank
        assert eigh_calls == ([] if low_rank else [(n, n)])
        if not low_rank:
            assert np.array_equal(m.spectrum.V / np.sqrt(m.d), _dense_whitener(X, h, 0.01 * h.signal_variance))

    def test_ragged_two_dim_rows_take_the_dense_form(self, eigh_calls):
        # the benchmark's curve grid, 81 angles x 4 thicknesses, one cell short
        cells = [(a, t) for a in np.linspace(30.0, 150.0, 81) for t in (0.6, 0.8, 1.0, 1.2)]
        X = np.array(cells[1:])
        y = 2.0 + 0.02 * X[:, 0] + np.random.default_rng(6).normal(0.0, 0.05, len(X))
        h = hp(float(np.var(y)), (20.0, 0.4))
        # pivoted Cholesky would meet the certificate well inside the cap here
        K1 = gpr.kernel_matrix(X, X, hp(1.0, h.length_scales))
        assert gpr._pivoted_cholesky(K1, len(X) // 2) is not None
        m = gpr.fit(X, y, h, 0.01 * h.signal_variance)
        assert not m.spectrum.truncated and eigh_calls == [(323, 323)]
        assert np.array_equal(m.spectrum.V / np.sqrt(m.d), _dense_whitener(X, h, 0.01 * h.signal_variance))

    def test_tuning_builds_its_picks_from_the_kernels_it_scored(self, monkeypatch, eigh_calls):
        X = np.linspace(10.0, 170.0, 340)[:, None]
        y = 2.0 + 0.02 * X[:, 0] + np.random.default_rng(5).normal(0.0, 0.05, 340)
        v = float(np.var(y))
        search = gpr.GridSpec((0.5 * v, v), ((10.0, 20.0, 40.0),), (0.003 * v, 0.01 * v))
        builds, kernel_matrix = [], gpr.kernel_matrix
        monkeypatch.setattr(gpr, "kernel_matrix", lambda *a: builds.append(1) or kernel_matrix(*a))
        (m,) = gpr.tune_hyperparams(X, [(y, search)])
        # one K1 and one dense eigh per length scale scored, none for the pick
        assert len(builds) == 3 and eigh_calls == [(340, 340)] * 3
        assert m.spectrum.truncated
        assert_same_model(m, gpr.fit(X, y, m.hyper, m.noise_variance))

    @pytest.mark.parametrize("first_fails", [False, True])
    def test_a_target_failing_the_noise_check_takes_its_own_dense_spectrum(
        self, eigh_calls, first_fails
    ):
        X = np.linspace(10.0, 170.0, 340)[:, None]
        rng = np.random.default_rng(8)
        y1, y2 = np.sin(X[:, 0] / 30.0), 180.0 - 0.1 * X[:, 0] + rng.normal(0.0, 1.0, 340)
        h1, h2 = hp(1.0, (20.0,)), hp(100.0, (20.0,))
        passes, fails = 1e-2, 1e-5  # noise over signal variance
        n1, n2 = (fails, 100.0 * passes) if first_fails else (passes, 100.0 * fails)
        first = gpr.fit(X, y1, h1, n1)
        second = gpr.fit(X, y2, h2, n2, spectrum=first.spectrum)
        dense, low = (first, second) if first_fails else (second, first)
        assert low.spectrum.truncated and not dense.spectrum.truncated
        assert dense.spectrum.low_rank is low.spectrum  # one pivoted Cholesky for both
        assert eigh_calls == [(340, 340)]
        assert_same_model(first, gpr.fit(X, y1, h1, n1))
        assert_same_model(second, gpr.fit(X, y2, h2, n2))

    def test_loo_residuals_match_the_dense_form(self):
        X = np.linspace(10.0, 170.0, 340)[:, None]
        y = 2.0 + 0.02 * X[:, 0] + np.random.default_rng(4).normal(0.0, 0.05, 340)
        h, noise = hp(float(np.var(y)), (20.0,)), 0.01 * float(np.var(y))
        m = gpr.fit(X, y, h, noise)
        assert m.spectrum.truncated
        H = gpr.basis_matrix(X)
        got, rank = gpr.loo_residuals(H, y, m)
        dense = gpr.fit(X, y, h, noise, spectrum=gpr._dense(X, h.length_scales))
        assert np.array_equal(dense.spectrum.V / np.sqrt(dense.d), _dense_whitener(X, h, noise))
        want, want_rank = gpr.loo_residuals(H, y, dense)
        assert rank == want_rank == 3
        assert _rel_gap(got, want) < 1e-10


class TestPredictMany:
    def test_matches_per_point_predict_and_dense_oracle(self):
        rng = np.random.default_rng(12)
        for trial in range(6):
            X, y, sf2, ls, noise, _, _ = random_gp_instance(rng)
            m = gpr.fit(X, y, hp(sf2, ls), noise)
            # more rows than one block, so block boundaries are crossed
            Xq = rng.uniform(-1.0, 6.0, size=(600, X.shape[1]))
            means, variances = gpr.predict_many(m, Xq)
            single = np.array([gpr.predict_many(m, [q]) for q in Xq])[:, :, 0]
            # a row's mean does not depend on its batch; its variance may in the last bits
            assert np.array_equal(means, single[:, 0])
            assert np.max(np.abs(variances - single[:, 1])) < 1e-10
            _, opredict = oracle_gp(X, y, sf2, ls, noise, beta=m.beta)
            for q, mean, var in zip(Xq[::50], means[::50], variances[::50]):
                omean, ovar = opredict(q)
                assert abs(mean - omean) < 1e-10 and abs(var - ovar) < 1e-10

    def test_one_dimensional_rows_are_angles(self):
        m = gpr.fit(np.linspace(0.0, 5.0, 8)[:, None], np.arange(8.0), hp(), 0.1)
        means, _ = gpr.predict_many(m, [1.0, 2.5])
        rows, _ = gpr.predict_many(m, [[1.0], [2.5]])
        assert means == pytest.approx(rows, abs=1e-12)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_rejects_non_finite_rows(self, bad):
        m = gpr.fit(np.linspace(0.0, 5.0, 8)[:, None], np.arange(8.0), hp(), 0.1)
        with pytest.raises(ValueError, match="finite"):
            gpr.predict_many(m, [[1.0], [bad]])
        with pytest.raises(ValueError, match="finite"):
            gpr.predict_many(m, [bad])

    def test_query_dimension_checked(self):
        m = gpr.fit(np.linspace(0.0, 5.0, 8)[:, None], np.arange(8.0), hp(), 0.1)
        with pytest.raises(InputError, match="^query dim 2 vs training dim 1$"):
            gpr.predict_many(m, [[1.0, 2.0]])

    def test_rejects_three_dimensional_queries(self):
        m = gpr.fit(np.linspace(0.0, 5.0, 8)[:, None], np.arange(8.0), hp(), 0.1)
        with pytest.raises(InputError, match=r"got shape \(2, 1, 1\)"):
            gpr.predict_many(m, np.zeros((2, 1, 1)))

    def test_non_finite_prediction_names_the_point(self):
        # the quadratic mean overflows far outside the data
        m = gpr.fit(np.linspace(0.0, 5.0, 8)[:, None], np.arange(8.0) ** 2, hp(), 0.1)
        with warnings.catch_warnings(), pytest.raises(ValueError, match=r"\[1e\+200\]"):
            warnings.simplefilter("error", RuntimeWarning)  # the overflow stays silent
            gpr.predict_many(m, [[1.0], [1e200], [1e300]])


    def test_means_only_skips_the_variances(self):
        rng = np.random.default_rng(5)
        X, y, sf2, ls, noise, _, _ = random_gp_instance(rng)
        m = gpr.fit(X, y, hp(sf2, ls), noise)
        Xq = rng.uniform(-1.0, 6.0, size=(300, X.shape[1]))
        means, variances = gpr.predict_many(m, Xq, with_variances=False)
        assert variances is None
        assert np.array_equal(means, gpr.predict_many(m, Xq)[0])

    @pytest.mark.parametrize("n", [60, 340])  # the dense and the low-rank form
    def test_targets_share_the_cross_kernel(self, kernel_shapes, n):
        X = np.linspace(10.0, 170.0, n)[:, None]
        rng = np.random.default_rng(n)
        y1, y2 = np.sin(X[:, 0] / 30.0), 180.0 - 0.1 * X[:, 0] + rng.normal(0.0, 1.0, n)
        first = gpr.fit(X, y1, hp(1.0, (20.0,)), 1e-2)
        second = gpr.fit(X, y2, hp(100.0, (20.0,)), 1.0, spectrum=first.spectrum)
        assert first.spectrum.truncated == (n >= gpr.LOW_RANK_MIN_ROWS)
        Xq = np.linspace(0.0, 180.0, 600)
        kernel_shapes.clear()
        (m1, m2), variances = gpr.predict_targets((first, second), Xq)
        assert kernel_shapes == [(256, n), (256, n), (88, n)]
        want1, want_var = gpr.predict_many(first, Xq)
        assert np.array_equal(m1, want1) and np.array_equal(variances, want_var)
        assert np.array_equal(m2, gpr.predict_many(second, Xq, with_variances=False)[0])
        (m1, m2), variances = gpr.predict_targets((first, second), Xq, with_variances=False)
        assert variances is None and np.array_equal(m1, want1)

    def test_targets_on_other_rows_or_length_scales_refused(self):
        X = np.linspace(0.0, 5.0, 8)[:, None]
        m = gpr.fit(X, np.arange(8.0), hp(), 0.1)
        for other in (gpr.fit(X + 1.0, np.arange(8.0), hp(), 0.1),
                      gpr.fit(X, np.arange(8.0), hp(1.0, (2.0,)), 0.1)):
            with pytest.raises(ValueError, match="same rows and length scales"):
                gpr.predict_targets((m, other), [1.0])

    def test_targets_name_the_first_bad_point_model_by_model(self):
        X = np.linspace(0.0, 5.0, 8)[:, None]
        # one model's mean overflows at 1e150 only, the other's from 1e100 on
        late = gpr.fit(X, np.arange(8.0), hp(), 0.1, beta=[0.0, 0.0, 1e10])
        early = gpr.fit(X, np.arange(8.0), hp(), 0.1, beta=[0.0, 1e220, 0.0])
        query = [[1.0], [1e100], [1e150]]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for models, point in (((late, early), r"\[1e\+150\]"), ((early, late), r"\[1e\+100\]")):
                with pytest.raises(ValueError, match=point):
                    gpr.predict_targets(models, query)

    def test_means_only_names_a_non_finite_mean(self):
        m = gpr.fit(np.linspace(0.0, 5.0, 8)[:, None], np.arange(8.0) ** 2, hp(), 0.1)
        with warnings.catch_warnings(), pytest.raises(ValueError, match=r"\[1e\+200\]"):
            warnings.simplefilter("error", RuntimeWarning)
            gpr.predict_many(m, [[1.0], [1e200]], with_variances=False)


class TestTookJitter:
    def test_zero_noise_on_dense_rows_takes_the_retry(self):
        # 81 angles 1.5 deg apart at a 20 deg length scale: the smallest
        # eigenvalues of K round to zero or below
        X = np.linspace(30.0, 150.0, 81)[:, None]
        y = np.sin(X[:, 0] / 20.0)
        h = hp(1.0, (20.0,))
        jittered = gpr.fit(X, y, h, 0.0)
        assert gpr.took_jitter(jittered)
        assert not gpr.took_jitter(gpr.fit(X, y, h, 1e-2))
        # the retry is the fit at noise JITTER, bit for bit
        d = h.signal_variance * jittered.spectrum.lam + gpr.JITTER
        assert np.array_equal(jittered.d, d)

    def test_well_spread_rows_need_no_retry(self):
        X = np.linspace(0.0, 10.0, 6)[:, None]
        assert not gpr.took_jitter(gpr.fit(X, np.cos(X[:, 0]), hp(), 0.0))


def _brute_force_pick(X, y, grid):
    """The first candidate of grid in scan order (signal variance, length
    scales, noise variance) with the highest log marginal likelihood, each
    scored from the dense covariance with slogdet and a GLS solve; it shares
    no code with the library. Returns ((hyper, noise), score)."""
    X = np.asarray(X, dtype=float)
    n = len(y)
    H = np.hstack([np.ones((n, 1)), X, X**2])
    sq = (X[:, None, :] - X[None, :, :]) ** 2
    best, best_ll = None, -np.inf
    for sf2 in grid.signal_variances:
        for ls in itertools.product(*grid.length_scale_grids):
            K = sf2 * np.exp(-0.5 * (sq / np.square(ls)).sum(axis=-1))
            for noise in grid.noise_variances:
                A = K + noise * np.eye(n)
                sign, logdet = np.linalg.slogdet(A)
                assert sign > 0
                Ai_H, Ai_y = np.linalg.solve(A, H), np.linalg.solve(A, y)
                beta = np.linalg.solve(H.T @ Ai_H, H.T @ Ai_y)
                r = y - H @ beta
                ll = -0.5 * (r @ np.linalg.solve(A, r) + logdet + n * math.log(2 * math.pi))
                if ll > best_ll:
                    best, best_ll = (hp(sf2, ls), noise), ll
    return best, best_ll


def _scores(Hw, yw, d):
    """Tuning's score of stacked candidates Hw (c, n, p) and yw (c, n) from
    the R of one QR (_qr_residual), and the same score from _gls's residual,
    one SVD per candidate."""
    rw = gpr._qr_residual(np.concatenate([Hw, yw[..., None]], axis=-1), Hw.shape[-1])
    z = np.array([gpr._gls(h, y)[1] for h, y in zip(Hw, yw)])
    return gpr._log_likelihood(rw, d), gpr._log_likelihood(z, d)


def _whitened_stack(X, y, ls, sf2s, noises):
    """[H | y] whitened for each (sf2, noise) pair on the dense eigh of K1,
    as tuning whitens it: (Hw, yw, d)."""
    lam, V = np.linalg.eigh(gpr.kernel_matrix(X, X, hp(1.0, ls)))
    d = np.array(sf2s)[:, None] * lam + np.array(noises)[:, None]
    Mw = (V.T @ np.column_stack([gpr.basis_matrix(X), y])) / np.sqrt(d)[:, :, None]
    return Mw[..., :-1], Mw[..., -1], d


class TestTriangularScore:
    """Tuning's score from the R of a QR of [Hw | yw] against the score from
    _gls's SVD residual, to 1e-12 relative."""

    def test_random_stacks(self):
        rng = np.random.default_rng(33)
        for c, n, p in [(7, 30, 5), (4, 12, 3), (3, 100, 5)]:
            Hw = rng.normal(size=(c, n, p)) * rng.uniform(0.1, 10.0, p)  # uneven columns
            yw = rng.normal(size=(c, n))
            got, want = _scores(Hw, yw, rng.uniform(0.1, 5.0, (c, n)))
            assert _rel_gap(got, want) < 1e-12

    def test_rank_deficient_basis_at_one_thickness(self):
        X, y, h, noise = _one_thickness_curve()
        v = h.signal_variance
        sf2s, noises = (0.5 * v, v, 2.0 * v, v), (noise, noise, noise, 1e-3 * v)
        Hw, yw, d = _whitened_stack(X, y, h.length_scales, sf2s, noises)
        assert {gpr._gls(h_c, y_c)[2].shape[1] for h_c, y_c in zip(Hw, yw)} == {3}
        got, want = _scores(Hw, yw, d)
        assert _rel_gap(got, want) < 1e-12

    @pytest.mark.parametrize("dim, n", [
        (1, 1), (1, 2), (1, 3), (1, 4), (2, 1), (2, 3), (2, 5), (2, 6),
    ])
    def test_at_most_one_row_more_than_basis_terms(self, dim, n):
        rng = np.random.default_rng(n)
        X = rng.uniform([10.0, 0.4][:dim], [170.0, 1.6][:dim], (n, dim))
        y = rng.normal(2.0, 1.0, n)
        Hw, yw, d = _whitened_stack(X, y, (20.0, 0.4)[:dim], (1.0, 2.0), (0.01, 0.1))
        got, want = _scores(Hw, yw, d)
        assert _rel_gap(got, want) < 1e-12

    def test_tunes_as_few_rows_as_basis_terms(self):
        # n = p = 5: R has no row below its p x p block
        X = [[30.0, 0.4], [60.0, 1.2], [90.0, 0.8], [120.0, 1.6], [150.0, 0.4]]
        y = np.array([2.1, 4.0, 3.2, 6.5, 2.9])
        grid = joints._default_tuning_grid(FamilyKind.CURVE, float(np.var(y)))
        (m,) = gpr.tune_hyperparams(X, [(y, grid)])
        (hyper, noise), _ = _brute_force_pick(X, y, grid)
        assert (m.hyper, m.noise_variance) == (hyper, noise)


class TestTuneHyperparams:
    @pytest.mark.parametrize("kind", [FamilyKind.SQUARE_SYM, FamilyKind.CURVE])
    def test_picks_the_brute_force_argmax(self, request, kind):
        # square: 17 angles x 3 runs, repeated rows (the dense spectrum);
        # curve: the demo's runs averaged to a 9 x 4 product grid (the
        # per-axis factors). Both targets are tuned in one call.
        if kind is FamilyKind.CURVE:
            ds = average_runs(parse_measurements((DEMO_DATA / "curve_bench.csv").read_text()))
        else:
            ds = request.getfixturevalue("square_dataset")
        X, force, ret = joints.family_training_arrays(ds, kind)
        if kind is FamilyKind.CURVE:
            assert gpr._product_grid(X) is not None and X.shape == (36, 2)
        targets = [(y, joints._default_tuning_grid(kind, float(np.var(y)))) for y in (force, ret)]
        for model, (y, grid) in zip(gpr.tune_hyperparams(X, targets), targets):
            (hyper, noise), score = _brute_force_pick(X, y, grid)
            assert (model.hyper, model.noise_variance) == (hyper, noise)
            assert oracle_lml(X, y, hyper.signal_variance, hyper.length_scales, noise,
                              model.beta) == pytest.approx(score, rel=1e-9)

    def test_singleton_grid_returns_it(self):
        grid = gpr.GridSpec((2.0,), ((3.0,),), (0.01,))
        (m,) = gpr.tune_hyperparams([[0.0], [1.0]], [([0.0, 1.0], grid)])
        assert m.hyper == gpr.KernelHyperParams(2.0, (3.0,))
        assert m.noise_variance == 0.01

    def test_empty_grid(self):
        with pytest.raises(InputError, match="^every grid axis needs at least one candidate$"):
            gpr.tune_hyperparams([[0.0]], [([0.0], gpr.GridSpec((), ((1.0,),), (0.1,)))])

    def test_recovers_generating_hyperparams(self):
        rng = np.random.default_rng(42)
        X = np.sort(rng.uniform(0, 10, 40))[:, None]
        truth = gpr.KernelHyperParams(1.0, (1.0,))
        K = gpr.kernel_matrix(X, X, truth) + 0.01 * np.eye(40)
        y = np.linalg.cholesky(K) @ rng.standard_normal(40)
        grid = gpr.GridSpec(
            signal_variances=(0.25, 1.0, 4.0),
            length_scale_grids=((0.25, 1.0, 4.0),),
            noise_variances=(0.0025, 0.01, 0.04),
        )
        (m,) = gpr.tune_hyperparams(X, [(y, grid)])
        assert m.hyper == truth
        assert m.noise_variance == 0.01

    @pytest.mark.parametrize("y, error, match", [
        ([1.0, float("nan"), 2.0], ValueError, "^y: must be a finite number$"),
        ([1.0, float("inf"), 2.0], ValueError, "^y: must be a finite number$"),
        ([1.0, 2.0], InputError, "3 rows but y has 2"),
    ])
    def test_rejects_unusable_targets(self, y, error, match):
        grid = gpr.GridSpec((1.0,), ((1.0,),), (0.1,))
        with pytest.raises(error, match=match):
            gpr.tune_hyperparams([[0.0], [1.0], [2.0]], [(y, grid)])

    def test_agrees_with_fit_on_zero_noise_at_repeated_rows(self):
        # fit rejects zero noise on a repeated row, so tuning must not pick it
        X, y = [[0.0], [0.0], [1.0], [2.0]], [0.0, 0.1, 1.0, 2.0]
        with pytest.raises(NotPositiveDefiniteError):
            gpr.tune_hyperparams(X, [(y, gpr.GridSpec((1.0,), ((1.0,),), (0.0,)))])
        with pytest.raises(NotPositiveDefiniteError, match="duplicate training rows"):
            gpr.fit(X, y, hp(), 0.0)
        (m,) = gpr.tune_hyperparams(X, [(y, gpr.GridSpec((1.0,), ((1.0,),), (0.0, 0.1)))])
        assert m.noise_variance == 0.1
        gpr.fit(X, y, m.hyper, m.noise_variance)
        # distinct rows keep zero noise a candidate
        (m,) = gpr.tune_hyperparams(X[1:], [(y[1:], gpr.GridSpec((1.0,), ((1.0,),), (0.0,)))])
        assert m.noise_variance == 0.0
        gpr.fit(X[1:], y[1:], m.hyper, m.noise_variance)

    def test_rejects_negative_noise_candidate(self):
        with pytest.raises(ValueError, match="noise_variance must be finite and >= 0"):
            grid = gpr.GridSpec((1.0,), ((1.0,),), (-0.1,))
            gpr.tune_hyperparams([[0.0], [1.0]], [([0.0, 1.0], grid)])

    def test_rejects_infinite_noise_candidate(self):
        # rejected, not skipped: an infinite noise would make an all-zero beta the pick
        with pytest.raises(ValueError, match="^noise_variance: must be a finite number$"):
            grid = gpr.GridSpec((1.0,), ((1.0,),), (0.1, math.inf))
            gpr.tune_hyperparams([[0.0], [1.0], [2.0]], [([1.0, 0.0, 2.0], grid)])

    @pytest.mark.parametrize(
        "sf2, problem",
        [(float("nan"), ": must be a finite number$"),
         (-1.0, " must be finite and >= 0, got -1.0$")],
    )
    def test_rejects_bad_signal_variance_candidate(self, sf2, problem):
        # rejected, not skipped, though large noise keeps the spectrum positive
        with pytest.raises(ValueError, match=f"^signal_variance{problem}"):
            grid = gpr.GridSpec((1.0, sf2), ((1.0,),), (10.0,))
            gpr.tune_hyperparams([[0.0], [1.0], [2.0]], [([1.0, 0.0, 2.0], grid)])

    def test_rejects_grid_of_other_dimension(self):
        grid = gpr.GridSpec((1.0,), ((1.0,), (1.0,)), (0.1,))
        with pytest.raises(InputError, match="X dim 1 vs 2"):
            gpr.tune_hyperparams([[0.0], [1.0], [2.0]], [([1.0, 0.0, 2.0], grid)])

    @pytest.mark.parametrize("dim", [1, 2])
    def test_pick_is_the_model_fit_builds_there(self, dim):
        rng = np.random.default_rng(4)
        X = rng.uniform(0.0, 5.0, (25, dim))
        y = np.sin(X).sum(axis=1) + rng.normal(0.0, 0.1, 25)
        grid = gpr.GridSpec((0.5, 1.0), ((0.5, 1.0, 2.0),) * dim, (1e-3, 1e-2, 1e-1))
        (m,) = gpr.tune_hyperparams(X, [(y, grid)])
        ref = gpr.fit(X, y, m.hyper, m.noise_variance)
        for name in ("beta", "d", "alpha"):
            assert np.array_equal(getattr(m, name), getattr(ref, name)), name

    @staticmethod
    def _check_against_dense_oracle(X, y, grid):
        # every candidate scored at the dense oracle's GLS beta, in scan order
        best, best_ll = None, -np.inf
        for sf2 in grid.signal_variances:
            for ls in itertools.product(*grid.length_scale_grids):
                for noise in grid.noise_variances:
                    beta, _ = oracle_gp(X, y, sf2, ls, noise)
                    ll = oracle_lml(X, y, sf2, ls, noise, beta)
                    if ll > best_ll:
                        best, best_ll = (hp(sf2, ls), noise), ll
        (m,) = gpr.tune_hyperparams(X, [(y, grid)])
        assert (m.hyper, m.noise_variance) == best
        sf2, ls = m.hyper.signal_variance, m.hyper.length_scales
        assert oracle_lml(X, y, sf2, ls, m.noise_variance, m.beta) == pytest.approx(
            best_ll, rel=1e-9
        )

    @pytest.mark.parametrize("seed", range(5))
    def test_c8_trial_picks_the_dense_oracles_first_argmax(self, seed):
        rng = np.random.default_rng(1000 + seed)
        theta = np.linspace(10.0, 170.0, 20) + rng.uniform(-2.0, 2.0, 20)
        y = 2.0 + 1.5 * np.tanh((theta - 90.0) / 8.0) + rng.normal(0.0, 0.1, 20)
        v = float(np.var(y))
        grid = gpr.GridSpec(
            (0.5 * v, v, 2.0 * v), ((5.0, 10.0, 20.0, 40.0),), (1e-3, 3e-3, 1e-2, 3e-2, 1e-1)
        )
        self._check_against_dense_oracle(theta[:, None], y, grid)

    @pytest.mark.parametrize("repeated_row", [False, True])
    def test_rank_deficient_basis_pick_is_the_dense_oracles_first_argmax(self, repeated_row):
        # H has rank 3 of 5 at one thickness, so the stacked GLS masks two
        # directions of every candidate; the 41 rows are a 41 x 1 product
        # grid, and a repeated row sends tuning down the dense path
        X, y, _, _ = _one_thickness_curve()
        if repeated_row:
            X, y = np.vstack([X, X[20]]), np.append(y, y[20] + 0.05)
        assert (gpr._product_grid(X) is None) == repeated_row
        v = float(np.var(y))
        grid = gpr.GridSpec(
            signal_variances=(0.5 * v, v, 2.0 * v),
            length_scale_grids=((10.0, 20.0, 40.0), (0.4,)),
            noise_variances=(1e-3 * v, 1e-2 * v, 1e-1 * v),
        )
        self._check_against_dense_oracle(X, y, grid)

    def test_two_dim_pick_is_the_dense_oracles_first_argmax(self):
        rng = np.random.default_rng(9)
        X = np.array([[a, t] for t in (0.4, 0.8, 1.2, 1.6) for a in np.linspace(30.0, 150.0, 5)])
        y = 0.02 * X[:, 0] + 4.0 * X[:, 1] ** 2 + rng.normal(0.0, 0.08, len(X))
        v = float(np.var(y))
        grid = gpr.GridSpec(
            signal_variances=(0.5 * v, v, 2.0 * v),
            length_scale_grids=((10.0, 20.0, 40.0), (0.2, 0.4, 0.8)),
            noise_variances=(1e-3 * v, 1e-2 * v, 1e-1 * v),
        )
        self._check_against_dense_oracle(X, y, grid)

    def test_targets_share_one_eigh_per_tuple_and_equal_lone_tunes(self, eigh_calls):
        X, y1, y2 = _two_targets()
        # the same length scales, but each target its own signal and noise axes
        g1 = gpr.GridSpec((0.5, 1.0), ((0.5, 1.0, 2.0),), (1e-3, 1e-2, 1e-1))
        g2 = gpr.GridSpec((4.5, 9.0, 18.0), ((0.5, 1.0, 2.0),), (9e-3, 9e-2))
        pair = gpr.tune_hyperparams(X, [(y1, g1), (y2, g2)])
        assert len(eigh_calls) == 3
        for model, y, grid in zip(pair, (y1, y2), (g1, g2)):
            (lone,) = gpr.tune_hyperparams(X, [(y, grid)])
            assert_same_model(model, lone)
        assert len(eigh_calls) == 9

    def test_targets_need_the_same_length_scale_grids(self):
        X, y1, y2 = _two_targets()
        g1 = gpr.GridSpec((1.0,), ((0.5, 1.0),), (0.1,))
        g2 = gpr.GridSpec((1.0,), ((0.5, 2.0),), (0.1,))
        with pytest.raises(ValueError, match="same length_scale_grids"):
            gpr.tune_hyperparams(X, [(y1, g1), (y2, g2)])

    def test_needs_a_target(self):
        with pytest.raises(ValueError, match="at least one"):
            gpr.tune_hyperparams([[0.0], [1.0]], [])

    def test_deterministic(self):
        rng = np.random.default_rng(2)
        X = rng.uniform(0, 5, (15, 1))
        y = rng.normal(0, 1, 15)
        grid = gpr.GridSpec((0.5, 1.0), ((0.5, 1.0, 2.0),), (0.01, 0.1))
        (a,), (b,) = gpr.tune_hyperparams(X, [(y, grid)]), gpr.tune_hyperparams(X, [(y, grid)])
        assert (a.hyper, a.noise_variance) == (b.hyper, b.noise_variance)
        for name in ("beta", "d", "alpha"):
            assert np.array_equal(getattr(a, name), getattr(b, name))


def _grid(axis, value):
    """A grid of good candidates, with value second on axis."""
    axes = {"signal_variances": (1.0,), "length_scale_grids": ((1.0,),), "noise_variances": (0.1,)}
    axes[axis] = ((2.0, value),) if axis == "length_scale_grids" else (2.0, value)
    return gpr.GridSpec(**axes)


# fit() with the same value on its own, which must fail in the grid's words
_FIT_WITH = {
    "signal_variances": lambda v: gpr.fit([[0.0]], [0.0], hp(v), 0.1),
    "length_scale_grids": lambda v: gpr.fit([[0.0]], [0.0], hp(1.0, (v,)), 0.1),
    "noise_variances": lambda v: gpr.fit([[0.0]], [0.0], hp(), v),
}


def _value_cases(axis, label, out_of_range):
    cases = [(True, f"{label}: expected float")]
    cases += [(v, f"{label}: must be a finite number") for v in (math.nan, math.inf, -math.inf)]
    return [pytest.param(axis, v, m, id=f"{axis}-{v}") for v, m in cases + out_of_range]


GRID_VALUE_CASES = [
    *_value_cases("signal_variances", "signal_variance",
                  [(-1.0, "signal_variance must be finite and >= 0, got -1.0")]),
    *_value_cases("length_scale_grids", "length scales",
                  [(-1.0, "length scales must all be finite and > 0, got (-1.0,)"),
                   (0.0, "length scales must all be finite and > 0, got (0.0,)")]),
    *_value_cases("noise_variances", "noise_variance",
                  [(-1.0, "noise_variance must be finite and >= 0, got -1.0")]),
]


class TestGridSpec:
    """Each grid rule is checked when the grid is built, by fit()'s rule."""

    @pytest.mark.parametrize("axes", [
        ((), ((1.0,),), (0.1,)),
        ((1.0,), (), (0.1,)),
        ((1.0,), ((),), (0.1,)),
        ((1.0,), ((1.0,), ()), (0.1,)),
        ((1.0,), ((1.0,),), ()),
    ], ids=["signal", "no-length-scale-axis", "length-scale", "second-length-scale", "noise"])
    def test_refuses_an_empty_axis(self, axes):
        with pytest.raises(InputError, match="^every grid axis needs at least one candidate$"):
            gpr.GridSpec(*axes)

    @pytest.mark.parametrize("axes, name", [
        ((1.0, ((1.0,),), (0.1,)), "signal_variances"),
        (((1.0,), 1.0, (0.1,)), "length_scale_grids"),
        (((1.0,), (1.0, 2.0), (0.1,)), "length_scale_grids[0]"),
        (((1.0,), ((1.0,),), 0.1), "noise_variances"),
    ], ids=["signal", "length-scales", "flat-length-scales", "noise"])
    def test_refuses_an_axis_that_is_not_a_sequence(self, axes, name):
        # tuple() of a number raised Python's own TypeError, naming no axis
        message = f"^{re.escape(name)}: expected a sequence of candidates$"
        with pytest.raises(InputError, match=message):
            gpr.GridSpec(*axes)

    @pytest.mark.parametrize("axis, bad, message", GRID_VALUE_CASES)
    def test_refuses_a_value_fit_refuses_in_its_words(self, axis, bad, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            _grid(axis, bad)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            _FIT_WITH[axis](bad)

    def test_words_a_bad_length_scale_for_the_first_bad_tuple_in_scan_order(self):
        # scan order: (1.0, 0.5), then (1.0, -1.0), before -2.0 comes up
        with pytest.raises(ValueError, match=re.escape("got (1.0, -1.0)") + "$"):
            gpr.GridSpec((1.0,), ((1.0, -2.0), (0.5, -1.0)), (0.1,))

    def test_stores_floats(self):
        grid = gpr.GridSpec(np.array([1, 2]), [np.geomspace(1, 4, 3)], [np.float64(0.1), 0])
        assert grid == gpr.GridSpec((1.0, 2.0), ((1.0, 2.0, 4.0),), (0.1, 0.0))
        values = (*grid.signal_variances, *grid.length_scale_grids[0], *grid.noise_variances)
        assert {type(v) for v in values} == {float}


class TestHyperParamValidation:
    @pytest.mark.parametrize("bad", [True, np.True_])
    def test_rejects_bools(self, bad):
        # float(True) is 1.0: a bool would pass as a number
        with pytest.raises(ValueError, match="^signal_variance: expected float$"):
            gpr.KernelHyperParams(bad, (1.0,))
        with pytest.raises(ValueError, match="^length scales: expected float$"):
            gpr.KernelHyperParams(1.0, (20.0, bad))

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            gpr.KernelHyperParams(-1.0, (1.0,))
        with pytest.raises(ValueError):
            gpr.KernelHyperParams(1.0, (0.0,))
        with pytest.raises(ValueError):
            gpr.KernelHyperParams(1.0, ())

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_rejects_non_finite_values(self, bad):
        with pytest.raises(ValueError, match="signal_variance"):
            gpr.KernelHyperParams(bad, (1.0,))
        with pytest.raises(ValueError, match="length scales"):
            gpr.KernelHyperParams(1.0, (20.0, bad))
