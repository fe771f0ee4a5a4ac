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
    write_table,
)
from copsurv.errors import ConfigurationError, DataError

from conftest import make_dataset, write_cells


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
        write_table(path, ["time", "status", "trt"],
                    [rng.exponential(1000.0, 312), rng.integers(0, 2, 312),
                     arms])
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
        write_table(path, ["time", "status"], [data.times, data.status])
        loaded = load_csv(path)
        assert np.array_equal(loaded.times, data.times)
        assert np.array_equal(loaded.status, data.status)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            simulate_censored_exponential(0)
        with pytest.raises(ConfigurationError):
            simulate_censored_exponential(5, rate_y=-1.0)


class TestWriteTable:
    SPECIALS = [-0.0, 5e-324, 1e300, 0.1, 3.0, -2.0, np.inf, -np.inf, np.nan]

    def matrix(self):
        rng = np.random.default_rng(7)
        m = rng.normal(size=(5, len(self.SPECIALS))) * 10.0 ** rng.integers(
            -300, 300, size=(5, len(self.SPECIALS)))
        m[0] = self.SPECIALS
        return m

    @staticmethod
    def longest_reprs():
        """4 rows of distinct values whose reprs all have the longest
        length, VALUE_SLOT_BYTES - 1 characters: a row fills its slot."""
        values = -np.random.default_rng(2).uniform(1, 9, 200) * 1e-300
        values = values[[len(repr(v)) == dataio.VALUE_SLOT_BYTES - 1
                         for v in values.tolist()]]
        return values[:24].reshape(4, 6)

    @staticmethod
    def mixed():
        """7 rows of an int, a float, a bool, a str and a 2-D float
        column; the ints and floats include ones of the longest text."""
        ints = np.arange(7) * 10**17
        ints[0] = np.iinfo(np.int64).min
        floats = np.random.default_rng(4).normal(size=7) * 1e-300
        flags = np.array([True, False, False, True, True, False, True])
        names = ["", "a", "0.3", "x_y", "", "-1e-07", "nan"]
        block = 1.0 - np.random.default_rng(6).random((7, 3)).astype(
            np.float32)
        return [ints, floats, flags, names, block]

    def case(self, name):
        """(header, columns, rows) of a test table: `columns` as
        `write_table` takes them, `rows` as the per-cell reference."""
        columns = {
            "specials": lambda: [self.matrix()],
            "one_row": lambda: [np.array([self.SPECIALS])],
            "seven_rows": lambda: [1.0 - np.random.default_rng(3).random(
                (7, 150)).astype(np.float32)],
            "longest_reprs": lambda: [self.longest_reprs()],
            "ints": lambda: self.mixed()[:1],
            "bools": lambda: self.mixed()[2:3],
            "strs": lambda: [self.mixed()[3], self.mixed()[3]],
            "mixed": self.mixed,
        }[name]()
        rows = [sum((list(c[i]) if np.ndim(c) == 2 else [c[i]]
                     for c in columns), []) for i in range(len(columns[0]))]
        header = ["weight"] + [repr(0.5 * j) for j in range(len(rows[0]) - 1)]
        return header, columns, rows

    @pytest.mark.parametrize("n_shards", [1, 2, 3])
    @pytest.mark.parametrize("name", ["specials", "one_row", "seven_rows",
                                      "longest_reprs", "ints", "bools",
                                      "strs", "mixed"])
    def test_bytes_match_the_per_cell_reference(self, tmp_path, monkeypatch,
                                                n_shards, name):
        """At 1, 2 and 3 row shards, the bytes of `csv.writer` given the
        rows cell by cell: a float matrix with a row of specials (5
        rows, which 2 and 3 shards do not divide), one row, 7 rows of
        float32-rounded CDF values, rows that fill their slots, and int,
        bool, str and mixed 1-D and 2-D columns."""
        header, columns, rows = self.case(name)
        monkeypatch.setattr(shards, "_worker_count",
                            lambda n_items, min_items: n_shards)
        write_table(tmp_path / "t.csv", header, columns)
        write_cells(tmp_path / "cells.csv", header, rows)
        assert ((tmp_path / "t.csv").read_bytes()
                == (tmp_path / "cells.csv").read_bytes())

    def test_a_block_and_its_columns_write_the_same_bytes(self, tmp_path):
        """A float matrix given as one 2-D column, as split blocks, as
        1-D columns or as lists of Python floats."""
        m = self.matrix()
        header = ["w"] + [f"c{j}" for j in range(m.shape[1] - 1)]
        variants = {"block": [m], "blocks": [m[:, :1], m[:, 1:]],
                    "columns": list(m.T), "floats": m.T.tolist()}
        written = {}
        for name, columns in variants.items():
            write_table(tmp_path / f"{name}.csv", header, columns)
            written[name] = (tmp_path / f"{name}.csv").read_bytes()
        assert len(set(written.values())) == 1
        first = written["block"].split(b"\r\n")[1]
        assert first == b"-0.0,5e-324,1e+300,0.1,3.0,-2.0,inf,-inf,nan"

    def test_float_matrix_round_trips(self, tmp_path):
        m = self.matrix()
        write_table(tmp_path / "m.csv", [str(j) for j in range(m.shape[1])],
                    [m])
        back = np.loadtxt(tmp_path / "m.csv", delimiter=",", skiprows=1)
        assert np.array_equal(back, m, equal_nan=True)
        assert np.signbit(back[0, 0])

    def test_line_terminator_is_crlf(self, tmp_path):
        path = tmp_path / "t.csv"
        write_table(path, ["a", "b"], [np.array([[1.0, 2.0], [3.0, 4.0]])])
        write_table(tmp_path / "u.csv", ["a", "b"], [[1], [2.5]])
        assert path.read_bytes() == b"a,b\r\n1.0,2.0\r\n3.0,4.0\r\n"
        assert (tmp_path / "u.csv").read_bytes() == b"a,b\r\n1,2.5\r\n"

    def test_sharded_at_the_process_cpu_count(self, tmp_path):
        """A table large enough to shard on every CPU of the process."""
        m = np.random.default_rng(5).normal(size=(401, 31)) * 1e-3
        header = [f"c{j}" for j in range(31)]
        write_table(tmp_path / "m.csv", header, [m[:, 0], m[:, 1:]])
        write_cells(tmp_path / "cells.csv", header, m.tolist())
        assert ((tmp_path / "m.csv").read_bytes()
                == (tmp_path / "cells.csv").read_bytes())

    def test_only_float_values_count_toward_a_shard(self, tmp_path,
                                                     monkeypatch):
        """A W1 trace of 20 chains over 201 steps, 4020 floats beside two
        int columns, is formatted in this process on two CPUs; a table
        of as many values, all floats, is formatted in two shards."""
        worker_count = shards._worker_count
        counts = []

        def counted(n_items, min_items):
            counts.append(worker_count(n_items, min_items))
            return counts[-1]

        monkeypatch.setattr(shards.os, "sched_getaffinity",
                            lambda pid: {0, 1})
        monkeypatch.setattr(shards, "_worker_count", counted)
        chain, step = np.indices((20, 201))
        w1 = np.random.default_rng(8).random(chain.size)
        write_table(tmp_path / "w1.csv", ["chain", "step", "w1"],
                    [chain.ravel(), step.ravel(), w1])
        write_table(tmp_path / "f.csv", ["a", "b", "c"],
                    [w1, w1 + 1.0, w1 + 2.0])
        assert counts == [1, 2]

    def test_no_rows_writes_the_header(self, tmp_path):
        path = tmp_path / "t.csv"
        write_table(path, ["chain", "step", "w1"],
                    [np.arange(0), np.arange(0), np.empty(0)])
        assert path.read_bytes() == b"chain,step,w1\r\n"

    def test_a_row_longer_than_its_slot_is_refused(self, tmp_path):
        with pytest.raises(ValueError, match="row 1 does not fit its 26-byte"):
            write_table(tmp_path / "t.csv", ["name"], [["a", "b" * 25]])

    def test_columns_of_unequal_length_are_refused(self, tmp_path):
        with pytest.raises(ValueError, match="differ in length"):
            write_table(tmp_path / "t.csv", ["a", "b"], [[1, 2], [1.0]])
        assert not (tmp_path / "t.csv").exists()


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
