import numpy as np
import pytest
from numpy.testing import assert_allclose

from copsurv import dataio, shards
from copsurv.dataio import (
    SurvivalDataset,
    load_csv,
    permute,
    simulate_censored_exponential,
    standardize,
    take,
    write_matrix,
    write_rows,
)
from copsurv.errors import ConfigurationError, DataError

from conftest import make_dataset


def write_csv(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestLoadCsv:
    def test_two_rows(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", "time,status\n1.0,1\n2.0,0\n")
        data = load_csv(path)
        assert data.n == 2
        assert data.n_observed == 1
        assert_allclose(data.times, [1.0, 2.0])

    def test_covariates_selected_by_name(self, tmp_path):
        path = write_csv(tmp_path / "d.csv",
                         "time,status,age,thick\n1,1,60,2.5\n2,0,70,1.0\n")
        data = load_csv(path, covariate_cols=["thick"])
        assert data.covariates.shape == (2, 1)
        assert_allclose(data.covariates[:, 0], [2.5, 1.0])

    def test_empty_file(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", "")
        with pytest.raises(DataError):
            load_csv(path)

    def test_header_only(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", "time,status\n")
        with pytest.raises(DataError, match="no data rows"):
            load_csv(path)

    def test_missing_column(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", "time,s\n1.0,1\n")
        with pytest.raises(DataError, match="missing column"):
            load_csv(path)

    def test_row_addressed_bad_time(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", "time,status\n1.0,1\n-2.0,1\n")
        with pytest.raises(DataError, match="row 2"):
            load_csv(path)

    def test_row_addressed_infinite_time(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", "time,status\n1.0,1\ninf,1\n")
        with pytest.raises(DataError, match="row 2: time must be positive "
                                            "and finite, got inf"):
            load_csv(path)

    def test_row_addressed_nonfinite_covariate(self, tmp_path):
        path = write_csv(tmp_path / "d.csv",
                         "time,status,x\n1.0,1,0.5\n2.0,0,0.1\n3.0,1,nan\n")
        with pytest.raises(DataError, match="row 3: covariate values must be "
                                            "finite, got \\[nan\\]"):
            load_csv(path, covariate_cols=["x"])

    def test_row_addressed_bad_status(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", "time,status\n1.0,2\n")
        with pytest.raises(DataError, match="row 1"):
            load_csv(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError):
            load_csv(tmp_path / "absent.csv")

    def test_trial_arm_split_by_column(self, tmp_path):
        # clinical-trial-shaped file: 312 rows, 158 arm 1 / 154 arm 2
        rng = np.random.default_rng(0)
        arms = np.array([1] * 158 + [2] * 154)
        path = tmp_path / "trial.csv"
        write_rows(path, ["time", "status", "trt"],
                   zip(rng.exponential(1000.0, 312),
                       rng.integers(0, 2, 312), arms))
        data = load_csv(path, covariate_cols=["trt"])
        assert data.n == 312
        assert int((data.covariates[:, 0] == 1).sum()) == 158
        assert int((data.covariates[:, 0] == 2).sum()) == 154


class TestStandardize:
    def test_two_observed(self):
        data = make_dataset([2.0, 2.0], [1, 1])
        out = standardize(data)
        assert_allclose(out.times, [1.0, 1.0])
        assert_allclose(out.scale_factor, 0.5)

    def test_mixed_records(self):
        data = make_dataset([1.0, 3.0], [1, 0])
        out = standardize(data)
        assert_allclose(out.scale_factor, 0.25)
        assert_allclose(out.times, [0.25, 0.75])

    def test_rate_mle_becomes_one(self, censored_exp50):
        out = standardize(censored_exp50)
        mle = out.n_observed / out.times.sum()
        assert_allclose(mle, 1.0, rtol=1e-12)

    def test_no_events_rejected(self):
        data = make_dataset([1.0, 2.0], [0, 0])
        with pytest.raises(DataError):
            standardize(data)

    def test_covariates_zscored(self):
        cov = np.array([[1.0, 5.0], [3.0, 5.0], [5.0, 5.0]])
        data = make_dataset([1, 2, 3], [1, 1, 1], covariates=cov)
        out = standardize(data)
        assert_allclose(out.covariates[:, 0].mean(), 0.0, atol=1e-12)
        assert_allclose(out.covariates[:, 0].std(), 1.0, rtol=1e-12)
        # constant column: sd treated as 1, centered to zero
        assert_allclose(out.covariates[:, 1], 0.0, atol=1e-12)
        assert out.covariate_shift_scale.shape == (2, 2)

    def test_like_applies_the_training_scale_without_events(self):
        cov = np.array([[1.0, 5.0], [3.0, 5.0], [5.0, 5.0]])
        train = standardize(make_dataset([1, 2, 3], [1, 0, 1], covariates=cov))
        test_cov = np.array([[2.0, 4.0], [7.0, 5.0]])
        test = make_dataset([0.5, 4.0], [0, 0], covariates=test_cov)
        out = standardize(test, like=train)
        mean, sd = train.covariate_shift_scale.T
        assert np.array_equal(out.times, test.times * train.scale_factor)
        assert np.array_equal(out.covariates, (test_cov - mean) / sd)
        assert out.scale_factor == train.scale_factor
        assert np.array_equal(out.status, [0, 0])

    def test_unscale_round_trip(self, censored_exp50):
        out = standardize(censored_exp50)
        assert_allclose(out.times / out.scale_factor, censored_exp50.times,
                        rtol=1e-10)


class TestPermute:
    def test_single_record_identity(self):
        data = make_dataset([1.0], [1])
        assert permute(data, 0).times[0] == 1.0

    def test_seed_reproducible(self, censored_exp50):
        p1 = permute(censored_exp50, 5)
        p2 = permute(censored_exp50, 5)
        assert np.array_equal(p1.times, p2.times)
        assert np.array_equal(p1.perm, p2.perm)

    def test_all_orders_uniform(self):
        data = make_dataset([1.0, 2.0, 3.0], [1, 1, 1])
        counts = {}
        trials = 10_000
        for seed in range(trials):
            key = tuple(permute(data, seed).times)
            counts[key] = counts.get(key, 0) + 1
        assert len(counts) == 6
        for count in counts.values():
            assert abs(count / trials - 1 / 6) < 0.02

    def test_composition_tracks_source_order(self):
        raw = simulate_censored_exponential(40, seed=8)
        twice = permute(permute(raw, 1), 2)
        assert np.array_equal(twice.times, raw.times[twice.perm])
        assert np.array_equal(twice.status, raw.status[twice.perm])

    def test_take_keeps_naming_input_rows(self):
        raw = make_dataset([1.0, 2.0, 3.0, 4.0], [1, 0, 1, 1],
                           covariates=[[0.0], [1.0], [2.0], [3.0]])
        sub = take(raw, np.array([3, 1]))
        assert np.array_equal(sub.times, [4.0, 2.0])
        assert np.array_equal(sub.status, [1, 0])
        assert np.array_equal(sub.covariates, [[3.0], [1.0]])
        assert np.array_equal(sub.perm, [3, 1])
        assert np.array_equal(take(sub, np.array([1])).perm, [1])


class TestSimulate:
    def test_reproducible(self):
        d1 = simulate_censored_exponential(20, seed=4)
        d2 = simulate_censored_exponential(20, seed=4)
        assert np.array_equal(d1.times, d2.times)
        assert np.array_equal(d1.status, d2.status)

    def test_vanishing_censoring_rate(self):
        data = simulate_censored_exponential(200, 1.0, 1e-9, seed=1)
        assert data.censoring_fraction == 0.0

    def test_round_trips_through_csv(self, tmp_path):
        data = simulate_censored_exponential(15, seed=2)
        path = tmp_path / "sim.csv"
        write_rows(path, ["time", "status"], zip(data.times, data.status))
        loaded = load_csv(path)
        assert np.array_equal(loaded.times, data.times)
        assert np.array_equal(loaded.status, data.status)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            simulate_censored_exponential(0)
        with pytest.raises(ConfigurationError):
            simulate_censored_exponential(5, rate_y=-1.0)


class TestWriteRows:
    SPECIALS = [-0.0, 5e-324, 1e300, 0.1, 3.0, -2.0, np.inf, -np.inf, np.nan]

    def matrix(self):
        rng = np.random.default_rng(7)
        m = rng.normal(size=(5, len(self.SPECIALS))) * 10.0 ** rng.integers(
            -300, 300, size=(5, len(self.SPECIALS)))
        m[0] = self.SPECIALS
        return m

    def test_float_matrix_matches_per_cell_path(self, tmp_path):
        """A float64 matrix (fast path) writes the same bytes as its rows
        given cell by cell, as numpy scalars or as Python floats."""
        m = self.matrix()
        header = ["w"] + [f"c{j}" for j in range(m.shape[1] - 1)]
        variants = {"matrix": m, "rows": iter(list(m)),
                    "np_cells": [tuple(r) for r in m], "floats": m.tolist()}
        written = {}
        for name, rows in variants.items():
            write_rows(tmp_path / f"{name}.csv", header, rows)
            written[name] = (tmp_path / f"{name}.csv").read_bytes()
        assert len(set(written.values())) == 1
        first = written["matrix"].split(b"\r\n")[1]
        assert first == b"-0.0,5e-324,1e+300,0.1,3.0,-2.0,inf,-inf,nan"

    def test_float_matrix_round_trips(self, tmp_path):
        m = self.matrix()
        write_rows(tmp_path / "m.csv", [str(j) for j in range(m.shape[1])], m)
        back = np.loadtxt(tmp_path / "m.csv", delimiter=",", skiprows=1)
        assert np.array_equal(back, m, equal_nan=True)
        assert np.signbit(back[0, 0])

    def test_line_terminator_is_crlf(self, tmp_path):
        path = tmp_path / "t.csv"
        write_rows(path, ["a", "b"], np.array([[1.0, 2.0], [3.0, 4.0]]))
        write_rows(tmp_path / "u.csv", ["a", "b"], [(1, 2.5)])
        assert path.read_bytes() == b"a,b\r\n1.0,2.0\r\n3.0,4.0\r\n"
        assert (tmp_path / "u.csv").read_bytes() == b"a,b\r\n1,2.5\r\n"

    def test_mixed_rows_go_through_format_cell(self, tmp_path, monkeypatch):
        cells = []
        format_cell = dataio._format_cell

        def counted(value):
            cells.append(value)
            return format_cell(value)

        monkeypatch.setattr(dataio, "_format_cell", counted)
        path = tmp_path / "mixed.csv"
        write_rows(path, ["k", "x", "flag"],
                   [(1, 0.5, True), (np.int64(2), np.float64(1e-7), "s"),
                    np.array([3, 4, 5])])
        assert len(cells) == 9
        assert path.read_bytes() == (b"k,x,flag\r\n1,0.5,1\r\n2,1e-07,s\r\n"
                                     b"3,4,5\r\n")


class TestWriteMatrix:
    @staticmethod
    def per_cell(tmp_path, header, m):
        write_rows(tmp_path / "cells.csv", header, [tuple(r) for r in m])
        return (tmp_path / "cells.csv").read_bytes()

    @staticmethod
    def longest_reprs():
        """4 rows of distinct values whose reprs all have the longest
        length, VALUE_SLOT_BYTES - 1 characters: a row fills its slot."""
        values = -np.random.default_rng(2).uniform(1, 9, 200) * 1e-300
        values = values[[len(repr(v)) == dataio.VALUE_SLOT_BYTES - 1
                         for v in values.tolist()]]
        return values[:24].reshape(4, 6)

    @pytest.mark.parametrize("n_shards", [1, 2, 3])
    @pytest.mark.parametrize("case", ["specials", "one_row", "seven_rows",
                                      "longest_reprs"])
    def test_bytes_match_the_per_cell_path(self, tmp_path, monkeypatch,
                                           n_shards, case):
        """At 1, 2 and 3 row shards, the bytes of `write_rows` given the
        rows cell by cell: TestWriteRows' matrix with its specials row (5
        rows, which 2 and 3 shards do not divide), one row, 7 rows of
        float32-rounded CDF values, and rows that fill their slots."""
        m = {"specials": TestWriteRows().matrix(),
             "one_row": np.array([TestWriteRows.SPECIALS]),
             "seven_rows": 1.0 - np.random.default_rng(3).random(
                 (7, 150)).astype(np.float32),
             "longest_reprs": self.longest_reprs()}[case]
        monkeypatch.setattr(shards, "_worker_count",
                            lambda n_items, min_items: n_shards)
        header = ["weight"] + [repr(0.5 * j) for j in range(m.shape[1] - 1)]
        write_matrix(tmp_path / "m.csv", header, m)
        assert (tmp_path / "m.csv").read_bytes() == self.per_cell(
            tmp_path, header, m)

    def test_sharded_at_the_process_cpu_count(self, tmp_path):
        """A table large enough to shard on every CPU of the process."""
        m = np.random.default_rng(5).normal(size=(401, 31)) * 1e-3
        header = [f"c{j}" for j in range(31)]
        write_matrix(tmp_path / "m.csv", header, m)
        assert (tmp_path / "m.csv").read_bytes() == self.per_cell(
            tmp_path, header, m)

    def test_no_cell_goes_through_format_cell(self, tmp_path, monkeypatch):
        cells = []
        monkeypatch.setattr(dataio, "_format_cell", cells.append)
        path = tmp_path / "m.csv"
        write_matrix(path, ["a", "b"], np.ones((4, 2)))
        assert cells == []
        assert path.read_bytes() == b"a,b\r\n" + b"1.0,1.0\r\n" * 4


class TestDatasetValidation:
    def test_nonpositive_times(self):
        with pytest.raises(DataError):
            make_dataset([0.0, 1.0], [1, 1])

    def test_bad_status(self):
        with pytest.raises(DataError):
            make_dataset([1.0], [2])

    def test_empty(self):
        with pytest.raises(DataError):
            SurvivalDataset(times=np.empty(0), status=np.empty(0, dtype=int))

    def test_covariate_row_mismatch(self):
        with pytest.raises(DataError):
            make_dataset([1.0, 2.0], [1, 1], covariates=np.ones((3, 1)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_times(self, bad):
        """NaN compares False with 0, so a positivity check alone lets it
        through to a NaN scale factor."""
        with pytest.raises(DataError, match="positive and finite"):
            SurvivalDataset([1.0, bad, 2.0, 0.5], [1, 1, 0, 1])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_covariates(self, bad):
        with pytest.raises(DataError, match="covariate values must be finite"):
            SurvivalDataset([1.0, 2.0], [1, 0],
                            covariates=np.array([[0.5], [bad]]))
