import numpy as np
import pytest

import tarp.data
from tarp.data import (
    DataError,
    Dataset,
    StandardizationParams,
    _scan_table,
    load_csv,
    load_table,
    read_only,
    standardize,
    write_csv,
)

from oracles import write_csv_via_csv_writer


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestLoadCsv:
    def test_basic_parse(self, tmp_path):
        path = write(tmp_path, "a,b,y\n1,2,3\n4,5,6\n7,8,9\n")
        ds = load_csv(path, "y")
        assert ds.n == 3 and ds.p == 2
        assert ds.column_names == ["a", "b"]
        np.testing.assert_array_equal(ds.response, [3.0, 6.0, 9.0])
        np.testing.assert_array_equal(ds.design, [[1, 2], [4, 5], [7, 8]])

    def test_target_in_middle_preserves_order(self, tmp_path):
        path = write(tmp_path, "a,y,b\n1,2,3\n4,5,6\n")
        ds = load_csv(path, "y")
        assert ds.column_names == ["a", "b"]
        np.testing.assert_array_equal(ds.design[:, 1], [3.0, 6.0])

    def test_bad_cell_names_row_and_column(self, tmp_path):
        path = write(tmp_path, "a,b,y\n1,2,3\n4,abc,6\n")
        with pytest.raises(DataError, match=r"row 3.*'b'.*abc"):
            load_csv(path, "y")

    def test_missing_target(self, tmp_path):
        path = write(tmp_path, "a,b\n1,2\n3,4\n")
        with pytest.raises(DataError, match="target column 'y'"):
            load_csv(path, "y")

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="cannot open"):
            load_csv(tmp_path / "nope.csv", "y")

    def test_too_few_rows(self, tmp_path):
        path = write(tmp_path, "a,y\n1,2\n")
        with pytest.raises(DataError, match="at least 2"):
            load_csv(path, "y")

    def test_binary_response_detected(self, tmp_path):
        path = write(tmp_path, "a,y\n1,0\n2,1\n3,1\n")
        assert load_csv(path, "y").response_kind == "binary"


def write_bytes(tmp_path, text, name="data.csv"):
    # bytes, so CRLF line endings reach the parser unchanged
    path = tmp_path / name
    path.write_bytes(text.encode("utf-8"))
    return path


class TestLoadTable:
    @pytest.mark.parametrize(
        "text, expected",
        [
            ('a,b\n"1.5","2"\n"3",4\n', [[1.5, 2.0], [3.0, 4.0]]),
            ("a,b\n 1.5 , 2\n3 ,  4\n", [[1.5, 2.0], [3.0, 4.0]]),
            ("a,b\r\n1,2\r\n3,4\r\n", [[1.0, 2.0], [3.0, 4.0]]),
            ("a,b\n1,2\n3,4\n\n\n", [[1.0, 2.0], [3.0, 4.0]]),
            ("a,b\n1,2\n   \n3,4\n  \n", [[1.0, 2.0], [3.0, 4.0]]),
            ("a,b\n1_000,2\n3,4\n", [[1000.0, 2.0], [3.0, 4.0]]),
            ("a,b,c\n1,2,3\n", [[1.0, 2.0, 3.0]]),
            ("a\n1\n2\n3\n", [[1.0], [2.0], [3.0]]),
        ],
        ids=[
            "quoted", "spaces", "crlf", "trailing_blank", "whitespace_blank",
            "underscore", "single_row", "single_column",
        ],
    )
    def test_same_matrix_as_scan(self, tmp_path, text, expected):
        path = write_bytes(tmp_path, text)
        header, table = load_table(path)
        scan_header, scan_table = _scan_table(path, header)
        assert header == scan_header
        assert table.dtype == np.float64 and table.shape == scan_table.shape
        np.testing.assert_array_equal(table, scan_table)
        np.testing.assert_array_equal(table, expected)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("a,b\n1,nan\n3,4\n", "row 2, column 'b': non-finite value 'nan'"),
            ("a,b\n1,2\n-inf,4\n", "row 3, column 'a': non-finite value '-inf'"),
            ("a,b\n1,2\n3\n4,5\n", "row 3 has 1 cells, expected 2"),
            ("a,b\n", "no data rows"),
            ("", "file is empty"),
            ("a,b\n1,2\n3,x\n", "row 3, column 'b': cannot parse 'x' as a number"),
        ],
        ids=["nan", "inf", "ragged", "header_only", "empty", "bad_last_cell"],
    )
    def test_error_messages(self, tmp_path, text, message):
        path = write_bytes(tmp_path, text)
        with pytest.raises(DataError) as excinfo:
            load_table(path)
        assert str(excinfo.value) == f"{path}: {message}"

    @pytest.mark.parametrize(
        "text, repeated",
        [
            ("a,b,c,d,e,y,y\n1,2,3,4,5,6,6\n7,8,9,1,2,3,3\n", "y"),
            ("a,b,c,d,e,y,y\n1,2,3,4,5,6,6\n  \n7,8,9,1,2,3,3\n", "y"),
            ("a, b ,b\n1,2,3\n", "b"),
        ],
        ids=["c_parser", "scan", "after_strip"],
    )
    def test_repeated_name_is_data_error(self, tmp_path, text, repeated):
        # both parsers, and load_csv through them, take the one header that
        # load_table reads; a second response column would otherwise stay in
        # the design
        path = write_bytes(tmp_path, text)
        for read in (load_table, lambda path: load_csv(path, "y")):
            with pytest.raises(DataError) as excinfo:
                read(path)
            assert str(excinfo.value) == (
                f"{path}: column {repeated!r} appears twice in the header"
            )

    @pytest.mark.parametrize(
        "text",
        ["a,y,b\n1,,2\n3,NA,4\n5,nan,6\n", "a,y,b\n1,,2\n  \n3,NA,4\n5,nan,6\n"],
        ids=["c_parser", "scan"],
    )
    def test_dropped_column_is_not_parsed(self, tmp_path, text):
        path = write_bytes(tmp_path, text)
        seen = []

        def drop(names):
            seen.append(names)
            return names.index("y")

        header, table = load_table(path, drop=drop)
        assert seen == [["a", "y", "b"]]
        scan_header, scan_table = _scan_table(path, ["a", "y", "b"], 1)
        assert header == ["a", "b"] == scan_header
        assert table.dtype == np.float64
        np.testing.assert_array_equal(table, [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        np.testing.assert_array_equal(table, scan_table)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("a,y,b\n1,,2\n3,4\n", "row 3 has 2 cells, expected 3"),
            ("a,y,b\n1,,2\n3,,4,5\n", "row 3 has 4 cells, expected 3"),
            ("a,y,b\n1,,2\n3,,4\n5,,\n", "row 4, column 'b': cannot parse '' as a number"),
            ("a,y,b\n1,,2\nnan,,4\n", "row 3, column 'a': non-finite value 'nan'"),
        ],
        ids=["short_row", "long_row", "blank_kept_cell", "nan_kept_cell"],
    )
    def test_dropped_column_is_still_counted(self, tmp_path, text, message):
        path = write_bytes(tmp_path, text)
        with pytest.raises(DataError) as excinfo:
            load_table(path, drop=lambda names: 1)
        assert str(excinfo.value) == f"{path}: {message}"

    def test_writer_bytes_match_the_csv_writer_oracle(self, tmp_path):
        rng = np.random.default_rng(9)
        design = rng.standard_normal((30, 6)) * np.logspace(-300, 300, 6)
        design[0] = [-0.0, 0.0, 1e-300, 1e300, 3.0, -7.0]
        design[1] = [5e-324, -1.7976931348623157e308, 0.1, 1e16, 1e22, 2.0**60]
        names = ["a,b", 'say "hi"', "plain", "x y", "", "tab\tname"]
        ds = Dataset(design, np.arange(30.0) - 4.0, column_names=names)
        write_csv(ds, tmp_path / "fast.csv", target="y,target")
        write_csv_via_csv_writer(ds, tmp_path / "oracle.csv", target="y,target")
        assert (tmp_path / "fast.csv").read_bytes() == (
            tmp_path / "oracle.csv"
        ).read_bytes()

    def test_written_file_parses_bit_for_bit_without_the_scan(
        self, tmp_path, monkeypatch
    ):
        rng = np.random.default_rng(8)
        design = rng.standard_normal((40, 25)) * np.logspace(-300, 300, 25)
        write_csv(Dataset(design, rng.standard_normal(40)), tmp_path / "d.csv")
        header = (tmp_path / "d.csv").read_text().splitlines()[0].split(",")
        _, expected = _scan_table(tmp_path / "d.csv", header)

        def no_scan(*args):
            raise AssertionError("a clean file fell back to the per-cell scan")

        monkeypatch.setattr(tarp.data, "_scan_table", no_scan)
        _, table = load_table(tmp_path / "d.csv")
        np.testing.assert_array_equal(table, expected)
        np.testing.assert_array_equal(table[:, :-1], design)


class TestDatasetValidation:
    def test_rejects_nan(self):
        with pytest.raises(DataError, match="NaN or Inf"):
            Dataset(np.array([[1.0], [np.nan]]), np.array([1.0, 2.0]))

    def test_rejects_nonbinary_binary(self):
        with pytest.raises(DataError, match="0 and 1"):
            Dataset(np.eye(2), np.array([0.0, 2.0]), response_kind="binary")

    def test_default_column_names(self):
        ds = Dataset(np.eye(3), np.zeros(3))
        assert ds.column_names == ["x1", "x2", "x3"]

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_float64_design_kept_without_copy(self, order):
        X = np.asarray(np.arange(12.0).reshape(4, 3), order=order)
        assert np.shares_memory(Dataset(X, np.zeros(4)).design, X)


class TestStandardize:
    def test_simple_column(self):
        ds = Dataset(np.array([[1.0], [2.0], [3.0]]), np.array([4.0, 5.0, 6.0]))
        std, params = standardize(ds)
        np.testing.assert_allclose(std.design[:, 0], [-1.0, 0.0, 1.0])
        assert params.column_means[0] == 2.0
        assert params.column_scales[0] == 1.0
        # response centered by its mean
        np.testing.assert_allclose(std.response, [-1.0, 0.0, 1.0])
        assert params.response_mean == 5.0

    def test_constant_column_flagged(self):
        ds = Dataset(
            np.array([[5.0, 1.0], [5.0, 2.0], [5.0, 3.0]]), np.zeros(3)
        )
        std, params = standardize(ds)
        np.testing.assert_array_equal(std.design[:, 0], [0.0, 0.0, 0.0])
        assert params.constant_mask[0] and not params.constant_mask[1]
        assert params.column_scales[0] == 1.0

    def test_constant_column_not_exact_in_binary_is_flagged(self):
        # twenty 0.1s: the mean rounds to 0.10000000000000002 and the scale
        # to ~1.4e-17, which would put a new 0.2 at ~7e15
        X = np.column_stack([np.full(20, 0.1), np.arange(20.0)])
        std, params = standardize(Dataset(X, np.arange(20.0)))
        assert params.constant_mask.tolist() == [True, False]
        # centred only: rounding-level values, no longer -0.975 in every row
        np.testing.assert_allclose(std.design[:, 0], 0.0, atol=1e-15)
        new_row = params.transform_design(np.array([[0.2, 3.0]]))
        assert np.isfinite(new_row).all() and abs(new_row[0, 0]) < 1.0

    @pytest.mark.parametrize(
        "centre, spread", [(1.0, 1e-9), (0.0, 1e-100)],
        ids=["relative_spread_1e-9", "tiny_values_around_0"],
    )
    def test_column_that_varies_at_a_tiny_scale_is_not_flagged(self, centre, spread):
        rng = np.random.default_rng(4)
        X = centre + spread * rng.standard_normal((20, 2))
        std, params = standardize(Dataset(X, np.arange(20.0)))
        assert not params.constant_mask.any()
        np.testing.assert_allclose(std.design.std(axis=0, ddof=1), 1.0)

    def test_idempotent(self):
        rng = np.random.default_rng(0)
        ds = Dataset(rng.standard_normal((20, 5)), rng.standard_normal(20))
        std1, _ = standardize(ds)
        std2, _ = standardize(std1)
        np.testing.assert_allclose(std2.design, std1.design, atol=1e-12)
        np.testing.assert_allclose(std2.response, std1.response, atol=1e-12)

    def test_binary_response_not_centered(self):
        ds = Dataset(np.eye(4), np.array([0.0, 1.0, 0.0, 1.0]), response_kind="binary")
        std, params = standardize(ds)
        assert params.response_mean is None
        np.testing.assert_array_equal(std.response, ds.response)

    def test_no_test_leakage(self):
        # held-out columns keep nonzero means under training params
        rng = np.random.default_rng(1)
        train = Dataset(rng.standard_normal((30, 4)) + 1.0, rng.standard_normal(30))
        _, params = standardize(train)
        held_out = rng.standard_normal((30, 4)) + 5.0
        transformed = params.transform_design(held_out)
        assert np.all(np.abs(transformed.mean(axis=0)) > 0.5)


    @pytest.mark.parametrize(
        "scale", [1e200, 1e307], ids=["variance_overflows", "sum_overflows"]
    )
    def test_overflowing_column_is_named(self, scale):
        # every entry is finite, but the squares or the sum of c and d overflow;
        # the first such column is named, and numpy warns of nothing
        rng = np.random.default_rng(2)
        X = rng.standard_normal((30, 4))
        X[:, 2] = scale * rng.uniform(0.5, 1.0, 30)
        X[:, 3] = X[:, 2]
        ds = Dataset(X, rng.standard_normal(30), column_names=["a", "b", "c", "d"])
        with np.errstate(all="raise"), pytest.raises(
            DataError, match="^column 'c' is too large"
        ):
            standardize(ds)

    def test_lone_column_of_opposite_huge_values_is_named(self):
        # a single column is summed pairwise: partial sums of +inf and -inf
        # meet, and the NaN mean must not warn either
        X = np.full((32, 1), 1.7e308)
        X[1::2] *= -1.0
        with np.errstate(all="raise"), pytest.raises(DataError, match="^column 'x1'"):
            standardize(Dataset(X, np.arange(32.0)))

    def test_huge_column_whose_variance_is_finite_standardizes(self):
        rng = np.random.default_rng(2)
        X = rng.standard_normal((30, 4))
        X[:, 2] *= 1e150
        with np.errstate(all="raise"):
            std, params = standardize(Dataset(X, rng.standard_normal(30)))
        assert np.isfinite(params.column_scales).all()
        np.testing.assert_allclose(std.design.std(axis=0, ddof=1), 1.0)

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_transform_design_is_a_column_major_copy(self, order):
        rng = np.random.default_rng(3)
        train = Dataset(rng.standard_normal((30, 5)) * 4.0 + 2.0, rng.standard_normal(30))
        _, params = standardize(train)
        X = np.asarray(rng.standard_normal((12, 5)) * 3.0, order=order)
        before = X.copy()
        out = params.transform_design(X)
        assert out.flags.f_contiguous
        expected = (X - params.column_means) / params.column_scales
        assert out.tobytes() == expected.tobytes()
        np.testing.assert_array_equal(X, before)


class TestStandardizationParams:
    @staticmethod
    def params(**change):
        fields = dict(column_means=np.zeros(3), column_scales=np.ones(3),
                      constant_mask=np.zeros(3, dtype=bool), response_mean=0.0)
        return StandardizationParams(**{**fields, **change})

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"column_scales": np.ones(2)}, "have shapes"),
            ({"constant_mask": np.zeros(4, dtype=bool)}, "have shapes"),
            ({"column_means": np.zeros((3, 1)), "column_scales": np.ones((3, 1)),
              "constant_mask": np.zeros((3, 1), dtype=bool)}, "have shapes"),
            ({"column_means": np.array([0.0, np.inf, 0.0])}, "must be finite"),
            ({"column_scales": np.array([1.0, np.nan, 1.0])}, "must be finite"),
            ({"column_scales": np.array([1.0, 0.0, 1.0])}, "must be positive"),
        ],
        ids=["scales_short", "mask_long", "not_vectors", "mean_inf", "scale_nan",
             "scale_zero"],
    )
    def test_construction_checks_invariants(self, change, message):
        self.params()
        with pytest.raises(ValueError, match=message):
            self.params(**change)


class TestReadOnly:
    def test_owned_array_is_frozen_in_place(self):
        array = np.arange(3.0)
        assert read_only(array) is array
        assert not array.flags.writeable

    def test_writable_view_is_copied(self):
        base = np.arange(6.0).reshape(2, 3)
        frozen = read_only(base[0])
        assert frozen.base is None and not frozen.flags.writeable
        base[0] = -1.0
        np.testing.assert_array_equal(frozen, [0.0, 1.0, 2.0])

    def test_read_only_array_is_kept(self):
        array = np.frombuffer(np.arange(3.0).tobytes())
        assert not array.flags.writeable
        assert read_only(array) is array
