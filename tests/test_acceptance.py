"""Acceptance suite: one test per release criterion, at pinned tolerances.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL line
per criterion.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from ugckit import archive, gpr, joints, mechanics
from ugckit.data import FamilyKind, JointFamily
from ugckit.errors import OutOfValidatedRangeError

from conftest import gp_loo_rmse, oracle_gp, random_gp_instance


@contextmanager
def criterion(label):
    try:
        yield
    except BaseException:
        print(f"[FAIL] {label}")
        raise
    print(f"[PASS] {label}")


def test_c01_gpr_matches_dense_inverse_oracle():
    with criterion("C1 GPR oracle equivalence (100 instances, 1e-10 abs, <5 s)"):
        rng = np.random.default_rng(2024)
        start = time.perf_counter()
        worst = 0.0
        for trial in range(100):
            X, y, sf2, ls, noise, beta, queries = random_gp_instance(rng)
            use_gls = trial % 2 == 0
            model = gpr.fit(
                X, y, gpr.KernelHyperParams(sf2, ls), noise, beta=None if use_gls else beta
            )
            if use_gls:
                # the coefficient estimate must agree with the oracle's own
                # dense-inverse GLS; 1e-8 absorbs the two solvers' rounding
                oracle_beta, _ = oracle_gp(X, y, sf2, ls, noise, beta=None)
                assert np.max(np.abs(model.beta - oracle_beta)) < 1e-8
            # predict path checked at the fitted coefficients, so the 1e-10
            # bound tests the eigendecomposition solve against the explicit inverse
            _, opredict = oracle_gp(X, y, sf2, ls, noise, beta=model.beta)
            for q, mean, var in zip(queries, *gpr.predict_many(model, queries)):
                omean, ovar = opredict(q)
                worst = max(worst, abs(mean - omean), abs(var - ovar))
        elapsed = time.perf_counter() - start
        assert worst < 1e-10, f"worst deviation {worst:.3e}"
        assert elapsed < 5.0, f"took {elapsed:.2f} s"


def test_c02_zero_noise_interpolation():
    with criterion("C2 zero-noise interpolation (50 instances, 1e-6)"):
        rng = np.random.default_rng(7)
        for trial in range(50):
            if trial % 2 == 0:
                n = int(rng.integers(4, 16))
                X = (np.linspace(0.0, 10.0, n) + rng.uniform(-0.25, 0.25, n))[:, None]
                hyper = gpr.KernelHyperParams(1.0, (1.5,))
            else:
                k = int(rng.integers(2, 5))
                g = np.linspace(0.0, 10.0, k)
                xx, yy = np.meshgrid(g, g)
                X = np.column_stack([xx.ravel(), yy.ravel()])
                X = X + rng.uniform(-0.4, 0.4, X.shape)
                hyper = gpr.KernelHyperParams(1.0, (2.0, 2.0))
            y = np.sin(0.4 * X.sum(axis=1)) + 0.05 * X[:, 0]
            model = gpr.fit(X, y, hyper, noise_variance=0.0)
            means, _ = gpr.predict_many(model, X)
            for mean, target in zip(means, y):
                assert abs(mean - target) < 1e-6


def test_c03_prior_reversion_far_from_data():
    with criterion("C3 prior reversion at >= 10 length scales (1e-6)"):
        rng = np.random.default_rng(15)
        for _ in range(20):
            d = int(rng.integers(1, 3))
            n = int(rng.integers(5, 20))
            X = rng.uniform(0.0, 5.0, (n, d))
            sf2 = float(rng.uniform(0.5, 2.0))
            hyper = gpr.KernelHyperParams(sf2, tuple(rng.uniform(0.5, 1.0, d)))
            beta = rng.uniform(-1.0, 1.0, 2 * d + 1)
            y = gpr.basis_matrix(X) @ beta + rng.normal(0.0, 0.2, n)
            model = gpr.fit(X, y, hyper, 0.05, beta=beta)
            q = np.full(d, 5.0 + 10.0 * max(hyper.length_scales) + 1.0)
            (mean,), (var,) = gpr.predict_many(model, [q])
            assert abs(mean - float(gpr.basis_matrix([q])[0] @ beta)) < 1e-6
            assert abs(var - sf2) < 1e-6


def test_c04_builtin_coefficient_evaluations():
    with criterion("C4 built-in coefficients: square 2.0990 N, curve 3.6627 N (1e-4)"):
        # hand arithmetic: 1.6940 + 0.0225*90 - 0.0002*8100 = 2.0990
        square = joints.builtin_model(FamilyKind.SQUARE_SYM)
        got = joints.predict_many(square, [90.0])[0][0]
        assert abs(got - 2.0990) < 1e-4, f"square at 90 deg gave {got}"
        # hand arithmetic: -2.4933 + 0.1164*90 + 0*0.4 - 0.0007*8100 + 8.4377*0.16 = 3.6627
        curve = joints.builtin_model(FamilyKind.CURVE)
        got = joints.predict_many(curve, [90.0], 0.4)[0][0]
        assert abs(got - 3.6627) < 1e-4, f"curve at (90 deg, 0.4 mm) gave {got}"


def test_c05_worked_design_reproduction():
    with criterion("C5 worked ring design: arcs, 31.8 deg, 42 N, 1.905 mm, >= 3 mm"):
        start = time.perf_counter()
        spec = mechanics.RingDesignSpec(
            outer_radius=100.0,
            n_sections=5,
            joints_per_ring=40,
            target_ratio=0.85,
            actuator=mechanics.ActuatorSpec(rated_torque=0.08, spindle_radius=3.0),
            joint=JointFamily(FamilyKind.SQUARE_SYM),
            ring_layers=2,
            per_joint_force_override=1.05,
        )
        report = mechanics.design_module(spec, joints.builtin_model(FamilyKind.SQUARE_SYM))
        assert abs(report.half_section_arc - 62.8) <= 0.05
        assert abs(report.target_half_arc - 53.4) <= 0.05
        # independent oracle: arccos over the halved triangle legs
        oracle_angle = math.degrees(
            math.acos(((report.half_section_arc - report.arc_delta) / 2.0) / (report.half_section_arc / 2.0))
        )
        assert abs(report.bend_angle - oracle_angle) < 1e-9
        assert abs(report.bend_angle - 31.8) <= 0.1
        assert report.total_force == 42.0  # 40 joints x 1.05 N, exact
        assert abs(report.min_spindle_radius - 1.905) <= 1e-3
        assert report.recommended_spindle_radius >= 3.0
        assert time.perf_counter() - start < 1.0


def test_c06_envelope_table_exact_values():
    with criterion("C6 envelope table equals the published bench values"):
        env = joints.envelope_for(JointFamily(FamilyKind.STRAIGHT))
        assert env.yield_angle == 135.0
        env = joints.envelope_for(JointFamily(FamilyKind.CURVE, 0.4))
        assert env.max_observed_force == 2.9
        env = joints.envelope_for(JointFamily(FamilyKind.CURVE, 1.2))
        assert env.max_observed_force == 7.1
        assert env.yield_angle == 140.0
        env = joints.envelope_for(JointFamily(FamilyKind.DOUBLE_CURVE))
        assert env.yield_angle == 150.0
        assert env.self_contact_angle == 110.0
        assert env.max_observed_force == 15.5
        env = joints.envelope_for(JointFamily(FamilyKind.SQUARE_SYM))
        assert env.self_contact_angle == 150.0
        assert env.return_decay_onset == 70.0
        env = joints.envelope_for(JointFamily(FamilyKind.SQUARE_NONSYM))
        assert env.return_decay_onset == 40.0


def test_c07_curve_range_guard():
    with criterion("C7 curve range guard at 29 and 151 deg"):
        model = joints.builtin_model(FamilyKind.CURVE)
        with pytest.raises(OutOfValidatedRangeError):
            joints.predict_many(model, [29.0], 0.8)
        with pytest.raises(OutOfValidatedRangeError):
            joints.predict_many(model, [151.0], 0.8)
        # boundary angles stay legal
        joints.predict_many(model, [30.0], 0.8)
        joints.predict_many(model, [150.0], 0.8)


def test_c08_gpr_beats_degree7_polynomial():
    with criterion("C8 GPR LOO beats degree-7 LOO in >= 95/100 seeded trials"):
        wins = 0
        for seed in range(100):
            rng = np.random.default_rng(1000 + seed)
            theta = np.linspace(10.0, 170.0, 20) + rng.uniform(-2.0, 2.0, 20)
            y = 2.0 + 1.5 * np.tanh((theta - 90.0) / 8.0) + rng.normal(0.0, 0.1, 20)
            v = float(np.var(y))
            grid = gpr.GridSpec(
                signal_variances=(0.5 * v, v, 2.0 * v),
                length_scale_grids=((5.0, 10.0, 20.0, 40.0),),
                noise_variances=(1e-3, 3e-3, 1e-2, 3e-2, 1e-1),
            )
            (m,) = gpr.tune_hyperparams(theta[:, None], [(y, grid)])
            gp_rmse = gp_loo_rmse(theta[:, None], y, m.hyper, m.noise_variance)
            poly_rmse = joints.loo_rmse_poly(theta, y, 7)
            wins += gp_rmse < poly_rmse
        assert wins >= 95, f"GPR won only {wins}/100 trials"
        # the refit-LOO scores won all 100; the closed forms must keep that
        assert wins == 100, f"GPR won {wins}/100 trials, the refits won 100"


def test_c09_serialization_keeps_predictions_byte_identical(tmp_path, square_dataset):
    with criterion("C9 save/load keeps predictions byte-identical (10 queries)"):
        rng = np.random.default_rng(33)
        fitted = joints.fit_family_model(square_dataset, FamilyKind.SQUARE_SYM)
        cases = [
            (joints.builtin_model(FamilyKind.SQUARE_SYM).force_model, 1),
            (joints.builtin_model(FamilyKind.CURVE).force_model, 2),
            (fitted.force_model, 1),
            (fitted.return_model, 1),
        ]
        for idx, (model, dim) in enumerate(cases):
            path = tmp_path / f"model{idx}.json"
            archive.save_model(model, path)
            loaded, _ = archive.load_archive(path)
            queries = []
            for _ in range(10):
                q = rng.uniform(0.0, 180.0, dim)
                if dim == 2:
                    q[1] = rng.uniform(0.4, 1.6)
                queries.append(q)
            before = gpr.predict_many(model, queries)
            after = gpr.predict_many(loaded, queries)
            for b, a in zip(before, after):
                assert b.tolist() == a.tolist(), f"{b} != {a}"
