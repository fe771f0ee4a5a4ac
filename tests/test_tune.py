import dataclasses

import numpy as np
import pytest
import copsurv as cs
from copsurv import shards, tune
from copsurv.censoring import impute_smc
from copsurv.copulas import ClaytonFamily
from copsurv.errors import ConfigurationError, DegeneracyError
from copsurv.tune import grid_search


class TestGridSearch:
    def test_single_cell_returned(self, censored_exp50):
        data = cs.standardize(censored_exp50)
        result = grid_search(data, "clayton", (0.9,), n_particles=100, seed=1)
        assert result.bandwidth == 0.9
        assert len(result.table) == 1

    def test_uncensored_scores_are_prequential(self, uncensored_exp50):
        # fully observed data is scored exactly by a one-particle pass
        result = grid_search(uncensored_exp50, "clayton", (0.6, 1.0, 1.4),
                             n_particles=100, seed=1)
        for cell in result.table:
            expected = impute_smc(uncensored_exp50,
                                  ClaytonFamily(cell.bandwidth),
                                  n_particles=1, seed=1)
            assert cell.score == expected.log_z
            assert cell.final_ess == 1.0

    def test_scores_match_direct_smc_call(self, censored_exp50):
        data = cs.standardize(censored_exp50)
        result = grid_search(data, "clayton", (0.8, 1.2), n_particles=200,
                             seed=5)
        for cell in result.table:
            direct = impute_smc(data, ClaytonFamily(cell.bandwidth),
                                n_particles=200, seed=5)
            assert cell.score == direct.log_z

    def test_bad_cell_rejected_before_any_scoring(self, censored_exp50,
                                                  monkeypatch):
        def score(*args, **kwargs):
            raise AssertionError("a cell was scored")

        monkeypatch.setattr(tune, "impute_smc", score)
        with pytest.raises(ConfigurationError):
            grid_search(cs.standardize(censored_exp50), "gaussian", (0.5, 1.2),
                        n_particles=100, seed=1)

    @pytest.mark.parametrize("n_shards", [1, 2])
    def test_every_cell_degenerate_raises(self, censored_exp50, monkeypatch,
                                          n_shards):
        def degenerate(*args, **kwargs):
            raise DegeneracyError("all particle weights vanished")

        monkeypatch.setattr(tune, "impute_smc", degenerate)
        monkeypatch.setattr(shards, "_worker_count",
                            lambda n_items, min_items: n_shards)
        with pytest.raises(DegeneracyError,
                           match="^every grid cell degenerated$"):
            grid_search(cs.standardize(censored_exp50), "clayton", (0.5, 0.9),
                        n_particles=100, seed=1)

    def test_bit_reproducible(self, censored_exp50):
        data = cs.standardize(censored_exp50)
        grid = dict(bandwidths=(0.7, 1.0, 1.3), n_particles=150, seed=9)
        t1 = grid_search(data, "clayton", **grid).table
        t2 = grid_search(data, "clayton", **grid).table
        assert t1 == t2

    def test_monotone_refinement(self, censored_exp50):
        data = cs.standardize(censored_exp50)
        small = grid_search(data, "clayton", (0.8, 1.2), n_particles=150,
                            seed=2)
        large = grid_search(data, "clayton", (0.6, 0.8, 1.0, 1.2, 1.4),
                            n_particles=150, seed=2)
        assert large.score >= small.score

    def test_ties_break_to_smallest_bandwidth(self, uncensored_exp50,
                                              monkeypatch):
        # duplicated cells give identical deterministic scores
        result = grid_search(uncensored_exp50, "clayton", (1.3, 0.9, 0.9, 1.3),
                             n_particles=50, seed=0)
        best_score = max(c.score for c in result.table)
        candidates = [c.bandwidth for c in result.table if c.score == best_score]
        assert result.bandwidth == min(candidates)
        # distinct bandwidths that score the same, after a degenerate one
        def flat(data, family, **kwargs):
            if family.bandwidth == 0.5:
                raise DegeneracyError("all particle weights vanished")
            return dataclasses.replace(impute_smc(data, ClaytonFamily(1.0),
                                                  **kwargs), log_z=-3.0)

        monkeypatch.setattr(tune, "impute_smc", flat)
        result = grid_search(uncensored_exp50, "clayton", (1.3, 0.5, 0.9),
                             n_particles=50, seed=0)
        assert (result.bandwidth, result.score) == (0.9, -3.0)

    def test_argmax_stable_across_seeds(self, censored_exp50):
        """The selected cell is a Monte Carlo argmax: re-estimating under
        a second seed must land within one grid step."""
        data = cs.standardize(censored_exp50)
        bandwidths = tuple(np.round(np.arange(0.5, 1.51, 0.1), 10))
        first = grid_search(data, "clayton", bandwidths, n_particles=800,
                            seed=3)
        second = grid_search(data, "clayton", bandwidths, n_particles=800,
                             seed=4)
        assert abs(first.bandwidth - second.bandwidth) <= 0.1 + 1e-9

    def test_empty_grid_rejected(self, censored_exp50):
        with pytest.raises(ConfigurationError, match="bandwidth grid is empty"):
            grid_search(censored_exp50, "clayton", ())

    def test_bad_rho_x_cell_rejected_with_the_grid(self, censored_exp50):
        with pytest.raises(ConfigurationError, match="rho_x values"):
            grid_search(censored_exp50, "clayton", (0.5,), (0.3, 1.0))

    @pytest.mark.parametrize("bandwidths, rho_x_values, covariates, match", [
        ((), None, False, "^bandwidth grid is empty$"),
        ((0.5,), (), True, "^rho_x grid is empty$"),
        ((0.5,), (0.3, 1.0), True, r"^rho_x values must lie in \[0, 1\)"),
        ((0.5,), (0.3,), False, "no covariates"),
    ], ids=["empty-bandwidths", "empty-rho-x", "rho-x-1", "no-covariates"])
    def test_rho_x_grid_without_covariates_rejected_before_scoring(
            self, censored_exp50, monkeypatch, bandwidths, rho_x_values,
            covariates, match):
        """Every bad configuration is raised before a cell is scored."""
        def score(*args, **kwargs):
            raise AssertionError("a cell was scored")

        monkeypatch.setattr(tune, "impute_smc", score)
        data = cs.standardize(censored_exp50)
        if covariates:
            data = dataclasses.replace(
                data, covariates=np.linspace(-1.0, 1.0, data.n)[:, None])
        with pytest.raises(ConfigurationError, match=match):
            grid_search(data, "clayton", bandwidths, rho_x_values,
                        n_particles=100, seed=1)

    def test_joint_rho_x_search(self):
        rng = np.random.default_rng(6)
        n = 40
        x = rng.normal(size=(n, 1))
        y = np.exp(0.6 * x[:, 0]) * rng.exponential(1.0, n)
        c = rng.exponential(2.0, n)
        data = cs.SurvivalDataset(times=np.minimum(y, c),
                                  status=(y < c).astype(int), covariates=x)
        data = cs.permute(cs.standardize(data), 6)
        result = grid_search(data, "gaussian", (0.4, 0.6), (0.3, 0.7),
                             n_particles=150, seed=6)
        assert len(result.table) == 4
        assert result.rho_x in (0.3, 0.7)
