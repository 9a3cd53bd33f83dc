"""Information-matrix assembly, eigen-analysis, classification, and queries."""

import importlib.machinery
import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy.stats import chi2

import identikit as ik
from identikit import fim, models
from identikit.fim import (IDENTIFIABLE, RANK_DEFICIENT, RankDeficientFimWarning, assemble_fim,
                           combination_variance, design_score)
from identikit.models import builtin_registry


def interior_points(model, count, seed, inset=0.05):
    rng = np.random.default_rng(seed)
    span = model.space.upper - model.space.lower
    pts = []
    while len(pts) < count:
        theta = model.space.lower + (inset + (1 - 2 * inset) * rng.random(model.space.dimension)) * span
        if model.space.contains(theta):
            pts.append(theta)
    return pts


DESIGNS = {
    "linear": ik.Design(np.arange(4.0), 0.1),
    "biexponential": ik.Design(np.linspace(0.25, 3.0, 8), 0.1),
    "redundant-exponential": ik.Design(np.linspace(0.0, 3.0, 8), 0.1),
    "reciprocal": ik.Design(np.linspace(1.0, 10.0, 10), 0.1),
    "logistic": ik.Design(np.linspace(0.5, 5.0, 8), 0.1),
}


class TestAssemble:
    def test_identity(self):
        rep = assemble_fim(np.eye(2), sigma=1.0)
        np.testing.assert_array_equal(rep.fim, np.eye(2))
        np.testing.assert_array_equal(rep.eigenvalues, [1.0, 1.0])
        assert rep.rank == 2 and rep.classification == IDENTIFIABLE

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            assemble_fim(np.array([[np.nan, 0.0]]), sigma=1.0)
        with pytest.raises(ValueError):
            assemble_fim(np.eye(2), sigma=0.0)

    @pytest.mark.parametrize("sigma, replicates, argument", [
        # formerly a verdict: rank-deficient, then rank 0 for each of the next three, and for
        # 1.5 a matrix scaled by 1.5 reported with replicates 1
        (float("nan"), 1, "sigma"),
        (float("inf"), 1, "sigma"),
        (1.0, 0, "replicates"),
        (1.0, -1, "replicates"),
        (1.0, 1.5, "replicates"),
        (1.0, True, "replicates"),
        (1e-13, 1, "sigma"),
    ])
    def test_sigma_and_replicates_take_the_design_rules(self, sigma, replicates, argument):
        with pytest.raises(ValueError, match=f"^{argument} must be "):
            assemble_fim(np.eye(2), sigma=sigma, replicates=replicates)

    def test_integer_replicates_scale_exactly(self):
        rep = assemble_fim(np.eye(2), sigma=np.float64(0.5), replicates=np.int64(3))
        assert type(rep.sigma) is float and type(rep.replicates) is int
        np.testing.assert_array_equal(rep.fim, 12.0 * np.eye(2))

    def test_redundant_exponential_rank_deficient(self):
        model = ik.get_model("redundant-exponential")
        design = DESIGNS[model.name]
        for theta in interior_points(model, 20, seed=2):
            rep = ik.fim_report(model, design, theta)
            assert rep.rank <= 2
            assert rep.classification == RANK_DEFICIENT

    def test_replicate_doubling_is_exact(self):
        model = ik.get_model("biexponential")
        design = DESIGNS[model.name]
        r1 = ik.fim_report(model, design, [2.0, 1.0])
        r2 = ik.fim_report(model, design.with_replicates(2), [2.0, 1.0])
        assert np.array_equal(r2.fim, 2.0 * r1.fim)

    def test_sigma_scaling_is_exact(self):
        V = np.array([[1.0, 2.0], [0.5, -1.0], [3.0, 0.25]])
        quarter = assemble_fim(V, sigma=2.0).fim
        full = assemble_fim(V, sigma=1.0).fim
        assert np.array_equal(quarter, full / 4.0)

    def test_eigen_reconstruction(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            V = rng.normal(size=(7, 3))
            rep = assemble_fim(V, sigma=0.3)
            rebuilt = (rep.eigenvectors * rep.eigenvalues) @ rep.eigenvectors.T
            assert np.max(np.abs(rebuilt - rep.fim)) <= 1e-10 * np.max(np.abs(rep.fim))
            assert np.max(np.abs(rep.eigenvectors.T @ rep.eigenvectors - np.eye(3))) < 1e-10
            assert np.all(np.diff(rep.eigenvalues) <= 0)


class TestClassification:
    def test_plainly_identifiable(self):
        rep = assemble_fim(np.diag([np.sqrt(2.0), 1.0]), sigma=1.0, rank_tolerance=1e-10)  # lam = (2, 1)
        assert rep.classification == IDENTIFIABLE
        assert rep.eigenvectors[:, rep.rank:].shape == (2, 0)

    def test_zero_eigenvalue_gives_null_direction(self):
        V = np.array([[1.0, 0.0], [1.0, 0.0]])  # lam = (2, 0)
        rep = assemble_fim(V, sigma=1.0)
        assert rep.classification == RANK_DEFICIENT
        assert rep.rank == 1
        np.testing.assert_allclose(np.abs(rep.eigenvectors[:, rep.rank]), [0.0, 1.0], atol=1e-12)

    def test_rank_tolerance_sets_the_cut(self):
        V = np.diag([1.0, 1e-6])  # lam = (1, 1e-12)
        assert assemble_fim(V, sigma=1.0).rank == 1
        rep = assemble_fim(V, sigma=1.0, rank_tolerance=1e-13)
        assert (rep.rank, rep.classification) == (2, IDENTIFIABLE)
        assert assemble_fim(np.zeros((2, 2)), sigma=1.0).rank == 0

    def test_biexponential_symmetric_point_rank_deficient(self):
        # equal rates give identical sensitivity columns; oracle via the
        # analytic Jacobian assembled directly
        model = ik.get_model("biexponential")
        design = DESIGNS[model.name]
        V = model.jacobian(design.time_points, np.array([1.0, 1.0]))
        np.testing.assert_array_equal(V[:, 0], V[:, 1])
        rep = assemble_fim(V, sigma=0.1)
        assert rep.classification == RANK_DEFICIENT

    def test_agrees_with_ground_truth_labels(self):
        # local test at generic interior points; the swap-symmetric model is
        # locally identifiable away from its symmetry set, so it counts as
        # identifiable here
        for model in builtin_registry():
            design = DESIGNS[model.name]
            rng = np.random.default_rng(23)
            span = model.space.upper - model.space.lower
            checked = 0
            while checked < 20:
                theta = model.space.lower + (0.05 + 0.9 * rng.random(model.space.dimension)) * span
                if model.name == "biexponential" and abs(theta[0] - theta[1]) < 0.1:
                    continue
                rep = ik.fim_report(model, design, theta)
                expect = (
                    RANK_DEFICIENT
                    if model.identifiability == "structurally-unidentifiable"
                    else IDENTIFIABLE
                )
                assert rep.classification == expect, (model.name, theta)
                checked += 1


class TestSloppiness:
    def test_exact_geometric_spectrum_is_sloppy(self):
        rep = assemble_fim(np.diag([1.0, np.sqrt(1e-3), np.sqrt(1e-6)]), sigma=1.0)
        stats = rep.sloppiness
        assert stats.spread_decades == pytest.approx(6.0, abs=1e-12)
        assert stats.r_squared == pytest.approx(1.0, abs=1e-12)
        assert stats.sloppy

    def test_narrow_spectrum_not_sloppy(self):
        rep = assemble_fim(np.diag([np.sqrt(2.0), 1.0]), sigma=1.0)
        stats = rep.sloppiness
        assert stats.spread_decades < 3.0
        assert not stats.sloppy

    def test_wide_but_nonlinear_spectrum_fails_fit_rule(self):
        # lam = (1, 1e-8, 1e-8.5): spread 8.5 decades but the log-linear fit is
        # poor; oracle values from an independent least-squares computation
        rep = assemble_fim(np.diag([1.0, 1e-4, 10**-4.25]), sigma=1.0)
        stats = rep.sloppiness
        assert stats.spread_decades == pytest.approx(8.5, rel=1e-12)
        assert stats.slope == pytest.approx(-4.25, rel=1e-12)
        assert stats.r_squared == pytest.approx(0.793956043956044, rel=1e-10)
        assert not stats.sloppy

    def test_undefined_on_singular_spectrum(self):
        rep = assemble_fim(np.array([[1.0, 0.0], [1.0, 0.0]]), sigma=1.0)
        assert rep.rank == 1
        assert rep.sloppiness is None


class TestCombinationVariance:
    def test_diagonal(self):
        rep = assemble_fim(np.diag([2.0, 1.0]), sigma=1.0)  # I = diag(4, 1)
        assert combination_variance(rep, [1.0, 0.0]) == pytest.approx(0.25)

    def test_unit_vectors_give_single_parameter_variance(self):
        V = np.array([[2.0, 0.3], [0.1, 1.0], [0.5, 0.8]])
        rep = assemble_fim(V, sigma=0.7)
        inv = np.linalg.inv(rep.fim)
        for i in range(2):
            e = np.eye(2)[i]
            assert combination_variance(rep, e) == pytest.approx(inv[i, i], rel=1e-12)

    def test_top_eigenvector_minimises_over_unit_sphere(self):
        # brute-force oracle: scan the unit circle for min a^T I^-1 a
        V = np.array([[2.0, 0.3], [0.1, 1.0], [0.5, 0.8]])
        rep = assemble_fim(V, sigma=1.0)
        inv = np.linalg.inv(rep.fim)
        angles = np.linspace(0.0, np.pi, 20001)
        directions = np.column_stack([np.cos(angles), np.sin(angles)])
        brute_min = np.min(np.einsum("kp,pq,kq->k", directions, inv, directions))
        top = rep.eigenvectors[:, 0]
        value = combination_variance(rep, top)
        assert value == pytest.approx(1.0 / rep.eigenvalues[0], rel=1e-12)
        assert value == pytest.approx(brute_min, rel=1e-6)

    def test_positive_rescaling(self):
        V = np.array([[2.0, 0.3], [0.1, 1.0], [0.5, 0.8]])
        rep = assemble_fim(V, sigma=1.0)
        a = np.array([0.4, -1.1])
        assert combination_variance(rep, 2 * a) == pytest.approx(
            4 * combination_variance(rep, a), rel=1e-12
        )

    def test_null_space_component_gives_infinite_variance(self):
        rep = assemble_fim(np.array([[1.0, 0.0], [1.0, 0.0]]), sigma=1.0)
        assert combination_variance(rep, [0.3, 0.1]) == np.inf

    def test_row_space_direction_uses_pseudo_inverse_with_flag(self):
        rep = assemble_fim(np.array([[1.0, 0.0], [1.0, 0.0]]), sigma=1.0)
        with pytest.warns(RankDeficientFimWarning):
            value = combination_variance(rep, [1.0, 0.0])
        assert value == pytest.approx(0.5)

    def test_rejects_zero_direction(self):
        rep = assemble_fim(np.eye(2), sigma=1.0)
        with pytest.raises(ValueError):
            combination_variance(rep, [0.0, 0.0])


class TestConfidenceEllipsoid:
    def test_circular_region_radius(self):
        # independent quantile route: chi2_2 inverse CDF is -2 log(1 - level)
        rep = assemble_fim(np.eye(2), sigma=1.0)
        ell = ik.confidence_ellipsoid(rep, [0.0, 0.0], 0.95)
        expected = np.sqrt(-2.0 * np.log(0.05))
        np.testing.assert_allclose(ell.semi_axis_lengths, expected, rtol=1e-12)
        assert expected == pytest.approx(2.4477, abs=1e-4)

    def test_larger_eigenvalue_shorter_axis(self):
        rep = assemble_fim(np.diag([3.0, 1.0]), sigma=1.0)
        ell = ik.confidence_ellipsoid(rep, [0.0, 0.0], 0.9)
        assert ell.semi_axis_lengths[0] < ell.semi_axis_lengths[1]
        assert rep.eigenvalues[0] > rep.eigenvalues[1]

    def test_replicate_doubling_shrinks_axes_by_sqrt_half(self):
        model = ik.get_model("biexponential")
        design = DESIGNS[model.name]
        theta = [2.0, 1.0]
        e1 = ik.confidence_ellipsoid(ik.fim_report(model, design, theta), theta, 0.95)
        e2 = ik.confidence_ellipsoid(
            ik.fim_report(model, design.with_replicates(2), theta), theta, 0.95
        )
        ratios = e2.semi_axis_lengths / e1.semi_axis_lengths
        np.testing.assert_allclose(ratios, 1.0 / np.sqrt(2.0), atol=1e-12)

    def test_rank_deficient_rejected(self):
        rep = assemble_fim(np.array([[1.0, 0.0], [1.0, 0.0]]), sigma=1.0)
        with pytest.raises(ValueError):
            ik.confidence_ellipsoid(rep, [0.0, 0.0], 0.95)

    @pytest.mark.parametrize("center", [[1.0], [1.0, 2.0, 3.0], [[1.0, 2.0]], [1.0, float("nan")],
                                        [float("inf"), 1.0]])
    def test_center_must_be_a_finite_vector_of_length_p(self, center):
        # a 1-element center on a 2-parameter report was formerly returned as given
        rep = assemble_fim(np.eye(2), sigma=1.0)
        with pytest.raises(ValueError, match="^theta_hat must be a finite vector of length p$"):
            ik.confidence_ellipsoid(rep, center, 0.95)

    def test_rank_deficient_rejected_before_the_quantile_loads(self, monkeypatch):
        monkeypatch.setattr(fim, "_scipy_extension", refuse_to_load)
        rep = assemble_fim(np.array([[1.0, 0.0], [1.0, 0.0]]), sigma=1.0)
        with pytest.raises(ValueError, match="full-rank"):
            ik.confidence_ellipsoid(rep, [0.0, 0.0], 0.95)


def refuse_to_load(subpackage, name):
    raise AssertionError(f"scipy.{subpackage}.{name} loaded")


class TestChi2Quantile:
    @pytest.mark.parametrize("df", [0, -1, 1.5, True])
    def test_df_other_than_a_positive_int_is_rejected_before_loading(self, df, monkeypatch):
        monkeypatch.setattr(fim, "_scipy_extension", refuse_to_load)
        with pytest.raises(ValueError, match="df must be an integer >= 1"):
            fim.chi2_quantile(0.95, df)

    def test_missing_quantile_extension_is_an_import_error_naming_the_path(self, monkeypatch):
        monkeypatch.setattr(importlib.machinery, "EXTENSION_SUFFIXES", [".missing"])
        models._scipy_extension.cache_clear()
        try:
            with pytest.raises(ImportError, match=r"special[/\\]_special_ufuncs with the suffixes \.missing"):
                fim.chi2_quantile(0.95, 1)
        finally:
            models._scipy_extension.cache_clear()


class TestDesignScore:
    def test_identity_d_score(self):
        # two unit rows, sigma 1: information is the 2x2 identity
        X = np.eye(2)
        model = ik.get_model("linear", design_matrix=X)
        design = ik.Design(np.arange(2.0), 1.0)
        assert design_score(model, design, [0.0, 0.0], "D") == pytest.approx(1.0)

    def test_doubling_design_scales_d_score(self):
        model = ik.get_model("biexponential")
        design = DESIGNS[model.name]
        d1 = design_score(model, design, [2.0, 1.0], "D")
        d2 = design_score(model, design.with_replicates(2), [2.0, 1.0], "D")
        assert d2 == 2**2 * d1

    def test_reciprocal_d_score_falls_with_theta(self):
        # sensitivity -1/theta^2 shrinks, so the same design is worth less at
        # large theta; without its analytic Jacobian the model's route is finite differences
        model = replace(ik.get_model("reciprocal"), jacobian=None)
        design = DESIGNS[model.name]
        low = design_score(model, design, [0.5], "D")
        high = design_score(model, design, [10.0], "D")
        assert low > high

    def test_a_score_infinite_when_rank_deficient(self):
        model = ik.get_model("redundant-exponential")
        design = DESIGNS[model.name]
        assert design_score(model, design, [1.0, -0.5, 0.5], "A") == np.inf

    def test_d_and_e_scores_are_zero_when_rank_deficient(self):
        # two points on the flat manifold (a, b, c) -> (a e^s, b, c - s), 1e-5 apart: the
        # round-off null eigenvalue differs between them, the scores must not
        model = ik.get_model("redundant-exponential")
        design = DESIGNS[model.name]
        for s in (0.0, 1e-5):
            theta = [np.exp(s), -0.5, 0.5 - s]
            assert ik.fim_report(model, design, theta).classification == "rank-deficient"
            assert design_score(model, design, theta, "D") == 0.0
            assert design_score(model, design, theta, "E") == 0.0

    def test_e_score_is_min_eigenvalue(self):
        model = ik.get_model("biexponential")
        design = DESIGNS[model.name]
        rep = ik.fim_report(model, design, [2.0, 1.0])
        assert design_score(model, design, [2.0, 1.0], "E") == rep.eigenvalues[-1]

    def test_unknown_criterion(self):
        model = ik.get_model("reciprocal")
        with pytest.raises(ValueError):
            design_score(model, DESIGNS["reciprocal"], [1.0], "Z")
