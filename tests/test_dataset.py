import json

import numpy as np
import pytest

from localicp.dataset import (
    MultiEnvDataset,
    dataset_from_dict,
    dataset_to_dict,
    from_arrays,
    read_csv,
    read_json,
    write_csv,
    write_json,
)
from localicp.errors import InvalidInputError, ShapeError


def sample_dataset(labels=None):
    rng = np.random.default_rng(0)
    covs = [rng.normal(size=(4, 2)), rng.normal(size=(6, 2))]
    tgts = [rng.normal(size=4), rng.normal(size=6)]
    return from_arrays(covs, tgts, env_labels=labels)


class TestContainers:
    def test_environment_validation(self):
        with pytest.raises(ShapeError):
            from_arrays([np.zeros((3, 2))], [np.zeros(4)])
        with pytest.raises(InvalidInputError):
            from_arrays([np.array([[np.nan, 1.0]])], [np.zeros(1)])
        with pytest.raises(InvalidInputError, match="at least one observation"):
            from_arrays([np.zeros((2, 1)), np.zeros((0, 1))], [np.zeros(2), np.zeros(0)])

    def test_overflowing_entries_rejected(self):
        # Finite entries whose sum of squares overflows, in one environment.
        x = np.ones((3, 2))
        with pytest.raises(InvalidInputError, match="non-finite or overflowing"):
            from_arrays([x, np.full((3, 2), 1e200)], [np.ones(3), np.ones(3)])
        with pytest.raises(InvalidInputError, match="non-finite or overflowing"):
            from_arrays([x, x], [np.ones(3), np.full(3, 1e200)])

    def test_padding_must_be_zero(self):
        data = sample_dataset()
        xs = data.covariates.copy()
        xs[-1, 0, 0] = 1.0  # row 5 of an environment with 4 rows
        with pytest.raises(ShapeError, match="must be zero"):
            MultiEnvDataset(xs, data.target, data.sample_sizes, data.num_covariates)
        with pytest.raises(ShapeError):
            MultiEnvDataset(xs[:-1], data.target[:-1], data.sample_sizes, data.num_covariates)

    def test_basic_properties(self):
        data = sample_dataset()
        assert data.num_envs == 2
        assert data.num_covariates == 2
        assert data.sample_sizes == (4, 6)
        assert not data.intercept_added
        assert data.env_labels == ("1", "2")

    def test_with_intercept_appends_last_column(self):
        data = sample_dataset().with_intercept()
        assert data.intercept_added
        for env in data.environments:
            assert env.covariates.shape[1] == 3
            np.testing.assert_array_equal(env.covariates[:, -1], 1.0)
        # The covariate count excludes the constant column.
        assert data.num_covariates == 2

    def test_padded_layout(self):
        data = sample_dataset()
        assert data.covariates.shape == (6, 2, 2) and data.target.shape == (6, 2)
        assert data.covariates.flags.c_contiguous and data.target.flags.c_contiguous
        np.testing.assert_array_equal(data.covariates[4:, :, 0], 0.0)
        np.testing.assert_array_equal(data.target[4:, 0], 0.0)

    def test_with_intercept_leaves_padding_zero(self):
        # Unequal n_e: the ones column stops at each environment's own rows,
        # so the cross-products match a per-environment reference.
        rng = np.random.default_rng(3)
        covs = [rng.normal(size=(n, 2)) for n in (5, 9, 7)]
        tgts = [rng.normal(size=n) for n in (5, 9, 7)]
        data = from_arrays(covs, tgts).with_intercept()
        np.testing.assert_array_equal(data.covariates[:, 2], np.arange(9)[:, None] < [5, 9, 7])
        explicit = from_arrays([np.column_stack([x, np.ones(len(x))]) for x in covs], tgts)
        assert np.array_equal(data.covariates, explicit.covariates)
        gram, xty = data.cross_products
        assert np.array_equal(gram, explicit.cross_products[0])
        assert np.array_equal(xty, explicit.cross_products[1])
        for e, (x, y) in enumerate(zip(covs, tgts)):
            x1 = np.column_stack([x, np.ones(len(y))])
            np.testing.assert_allclose(gram[:, :, e], x1.T @ x1, rtol=1e-13, atol=1e-13)
            np.testing.assert_allclose(xty[:, e], x1.T @ y, rtol=1e-13, atol=1e-13)
        assert data.sample_sizes == (5, 9, 7)

    def test_arrays_are_read_only_views(self):
        # A write through an environment view or into the cached Gram
        # matrices would leave later fits stale, so it is refused; the
        # caller's arrays stay writable and are shared, not copied.
        data = sample_dataset()
        gram, xty = (a.copy() for a in data.cross_products)
        with pytest.raises(ValueError):
            data.environments[0].covariates[0, 0] = 100.0
        with pytest.raises(ValueError):
            data.target[0, 0] = 100.0
        with pytest.raises(ValueError):
            data.cross_products[1][0, :] += 50.0
        with pytest.raises(ValueError):
            data.cross_products[0][0, 0] = 50.0
        assert np.array_equal(data.cross_products[0], gram)
        assert np.array_equal(data.cross_products[1], xty)
        xs, ys = np.zeros((3, 1, 2)), np.ones((3, 2))
        wrapped = MultiEnvDataset(xs, ys, (3, 3), 1)
        assert xs.flags.writeable and ys.flags.writeable
        assert np.shares_memory(wrapped.covariates, xs) and np.shares_memory(wrapped.target, ys)

    def test_with_intercept_idempotent(self):
        data = sample_dataset().with_intercept()
        assert data.with_intercept() is data

    def test_mixed_covariate_width_rejected(self):
        rng = np.random.default_rng(1)
        with pytest.raises(ShapeError, match="environment 1 has 4 columns, expected 2"):
            from_arrays(
                [rng.normal(size=(3, 2)), rng.normal(size=(3, 4))],
                [rng.normal(size=3), rng.normal(size=3)],
            )
        data = sample_dataset()
        with pytest.raises(ShapeError, match=r"\(6, 2, 2\), .*expected \(6, 3, 2\)"):
            MultiEnvDataset(data.covariates, data.target, data.sample_sizes, num_covariates=3)


class TestCsv:
    def test_round_trip(self, tmp_path):
        data = sample_dataset(labels=("lab", "field"))
        path = tmp_path / "data.csv"
        write_csv(data, path)
        back = read_csv(path)
        assert back.env_labels == ("lab", "field")
        for a, b in zip(data.environments, back.environments):
            np.testing.assert_array_equal(a.covariates, b.covariates)
            np.testing.assert_array_equal(a.target, b.target)

    def test_environment_order_by_first_appearance(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text(
            "env,x1,y\n"
            "b,1.0,2.0\n"
            "a,3.0,4.0\n"
            "b,5.0,6.0\n"
        )
        data = read_csv(path)
        assert data.env_labels == ("b", "a")
        assert data.sample_sizes == (2, 1)

    def test_header_error_mentions_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("foo,bar\n1,2\n")
        with pytest.raises(InvalidInputError, match="line 1"):
            read_csv(path)

    def test_bad_value_mentions_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("env,x1,y\n1,1.0,2.0\n1,oops,2.0\n")
        with pytest.raises(InvalidInputError, match="line 3"):
            read_csv(path)
        for row, field in (("1,nan,2.0", "x1"), ("2,1.0,-inf", "y")):
            path.write_text(f"env,x1,y\n1,1.0,2.0\n{row}\n")
            with pytest.raises(InvalidInputError, match=f"bad.csv: line 3: {field} "):
                read_csv(path)

    def test_field_count_error(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("env,x1,y\n1,1.0\n")
        with pytest.raises(InvalidInputError, match="line 2"):
            read_csv(path)

    def test_intercept_datasets_not_exported(self, tmp_path):
        with pytest.raises(InvalidInputError):
            write_csv(sample_dataset().with_intercept(), tmp_path / "x.csv")


class TestJson:
    def test_round_trip(self, tmp_path):
        data = sample_dataset(labels=("e1", "e2"))
        path = tmp_path / "data.json"
        write_json(data, path)
        back = read_json(path)
        assert back.env_labels == ("e1", "e2")
        for a, b in zip(data.environments, back.environments):
            np.testing.assert_array_equal(a.covariates, b.covariates)
            np.testing.assert_array_equal(a.target, b.target)
        # Documents written with a metadata block still load; it is ignored.
        doc = json.loads(path.read_text())
        doc["metadata"] = {"origin": "unit test"}
        path.write_text(json.dumps(doc))
        assert read_json(path).env_labels == ("e1", "e2")

    def test_dict_round_trip(self):
        data = sample_dataset()
        doc = dataset_to_dict(data)
        assert doc["schema_version"] == 1
        back = dataset_from_dict(doc)
        assert back.num_covariates == 2

    def test_declared_width_mismatch(self):
        doc = dataset_to_dict(sample_dataset())
        doc["num_covariates"] = 5
        with pytest.raises(ShapeError):
            dataset_from_dict(doc)

    def test_malformed_document(self):
        with pytest.raises(InvalidInputError):
            dataset_from_dict({"environments": "nope"})
        for doc, field in (
            ({"environments": 5, "num_covariates": 1}, "environments"),
            ({"environments": [], "num_covariates": "x"}, "num_covariates"),
        ):
            with pytest.raises(InvalidInputError, match=field):
                dataset_from_dict(doc)

    def test_json_parse_error_mentions_position(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(InvalidInputError, match="line 1"):
            read_json(path)
