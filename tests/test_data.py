from dataclasses import replace

import numpy as np
import pytest

from changeplane import ColumnSpec, Dataset, load_csv, save_csv, validate
from changeplane.errors import DataError, ParameterError, ValidationError


def write_csv(path, text):
    path.write_text(text, encoding="utf-8")
    return path


def test_load_csv_basic(tmp_path):
    f = write_csv(tmp_path / "d.csv", "y,x1,z1\n1,0.5,2\n2,1.5,3\n3,2.5,4\n")
    spec = ColumnSpec(response="y", baseline=["x1"], diff=["x1"], grouping=["z1"])
    ds = load_csv(f, spec)
    assert (ds.n, ds.r, ds.p, ds.q) == (3, 2, 1, 2)
    np.testing.assert_allclose(ds.y, [1, 2, 3])
    np.testing.assert_allclose(ds.x_base[:, 0], 1.0)  # injected intercept
    np.testing.assert_allclose(ds.x_base[:, 1], [0.5, 1.5, 2.5])
    np.testing.assert_allclose(ds.x_diff[:, 0], [0.5, 1.5, 2.5])
    np.testing.assert_allclose(ds.z_group[:, 0], 1.0)


def test_load_csv_unparsable_cell_reports_location(tmp_path):
    rows = "\n".join(f"{i},{i}" for i in range(1, 5))
    f = write_csv(tmp_path / "d.csv", "y,x1\n" + rows + "\nabc,9\n")
    spec = ColumnSpec(response="y", baseline=["x1"], diff=["x1"], grouping=["x1"])
    with pytest.raises(DataError, match=r"row 5.*'y'"):
        load_csv(f, spec)


def test_load_csv_missing_column(tmp_path):
    f = write_csv(tmp_path / "d.csv", "y,x1\n1,2\n3,4\n")
    spec = ColumnSpec(response="y", baseline=["x9"], diff=["x1"], grouping=["x1"])
    with pytest.raises(DataError, match="x9"):
        load_csv(f, spec)


def test_load_csv_empty_file(tmp_path):
    f = write_csv(tmp_path / "d.csv", "")
    with pytest.raises(DataError, match="empty file"):
        load_csv(f, ColumnSpec(response="y", diff=["x1"]))


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
def test_load_csv_non_finite_cell_reports_location(tmp_path, cell):
    f = write_csv(tmp_path / "d.csv", f"y,x1\n1,2\n3,{cell}\n5,6\n")
    with pytest.raises(DataError, match=r"non-finite value at row 2, column 'x1'"):
        load_csv(f, ColumnSpec(response="y", diff=["x1"]))


@pytest.mark.parametrize("body, message", [
    ("1,2,3\n4,5,6,7\n8,9,10\n", "row 2 has 4 fields, the header has 3"),
    ("1,2,3\n4,5\n8,9,10\n", "row 2 has 2 fields, the header has 3"),
    ("1,2,3\n4,5,6\n\n", "row 3 has 0 fields, the header has 3"),
], ids=["long row", "short row", "trailing blank line"])
def test_load_csv_ragged_row_reports_counts(tmp_path, body, message):
    # Every row is checked, also where the unread column z1 is the one missing.
    f = write_csv(tmp_path / "d.csv", "y,x1,z1\n" + body)
    with pytest.raises(DataError, match=message):
        load_csv(f, ColumnSpec(response="y", diff=["x1"]))


def test_load_csv_header_only(tmp_path):
    f = write_csv(tmp_path / "d.csv", "y,x1\n")
    spec = ColumnSpec(response="y", baseline=["x1"], diff=["x1"], grouping=["x1"])
    with pytest.raises(DataError, match="at least 2"):
        load_csv(f, spec)


def test_round_trip(tmp_path, rng):
    f = write_csv(tmp_path / "d.csv",
                  "y,a,b,c\n" + "\n".join(
                      ",".join(repr(float(v)) for v in rng.standard_normal(4))
                      for _ in range(7)))
    spec = ColumnSpec(response="y", baseline=["a", "b"], diff=["a"],
                      grouping=["c"])
    ds1 = load_csv(f, spec)
    out = tmp_path / "out.csv"
    save_csv(ds1, out, spec)
    ds2 = load_csv(out, spec)
    for attr in ("y", "x_base", "x_diff", "z_group"):
        np.testing.assert_array_equal(getattr(ds1, attr), getattr(ds2, attr))


def test_dataset_rejects_nan():
    with pytest.raises(DataError, match="NaN"):
        Dataset(y=np.array([1.0, np.nan]), x_base=np.ones((2, 1)),
                x_diff=np.ones((2, 1)), z_group=np.ones((2, 1)))


def test_dataset_rejects_row_mismatch():
    with pytest.raises(DataError):
        Dataset(y=np.arange(3.0), x_base=np.ones((2, 1)),
                x_diff=np.ones((3, 1)), z_group=np.ones((3, 1)))


def test_dataset_vector_covariate_is_one_column():
    ds = Dataset(y=np.arange(3.0), x_base=np.ones(3), x_diff=np.arange(3.0),
                 z_group=np.ones(3))
    assert (ds.r, ds.p, ds.q) == (1, 1, 1)
    np.testing.assert_array_equal(ds.x_diff, [[0.0], [1.0], [2.0]])


@pytest.mark.parametrize("x_diff, message", [
    (np.ones((3, 1, 1)), "x_diff must be a vector or 2-D matrix, got ndim=3"),
    (np.ones((3, 0)), "x_diff must have at least one column")])
def test_dataset_rejects_bad_block_shape(x_diff, message):
    with pytest.raises(DataError, match=message):
        Dataset(y=np.arange(3.0), x_base=np.ones((3, 1)), x_diff=x_diff,
                z_group=np.ones((3, 1)))


def test_dataset_immutable():
    ds = Dataset(y=np.arange(3.0), x_base=np.ones((3, 1)),
                 x_diff=np.ones((3, 1)), z_group=np.ones((3, 1)))
    with pytest.raises(ValueError):
        ds.y[0] = 9.0


def test_validate_binomial():
    ds = Dataset(y=np.array([0.0, 1.0, 1.0]), x_base=np.ones((3, 1)),
                 x_diff=np.ones((3, 1)), z_group=np.ones((3, 1)))
    validate(ds, "binomial")  # passes
    bad = replace(ds, y=np.array([0.0, 2.0, 1.0]))
    with pytest.raises(ValidationError, match="row 2"):
        validate(bad, "binomial")


def test_validate_poisson():
    ds = Dataset(y=np.array([-1.0, 3.0, 0.0]), x_base=np.ones((3, 1)),
                 x_diff=np.ones((3, 1)), z_group=np.ones((3, 1)))
    with pytest.raises(ValidationError, match="row 1"):
        validate(ds, "poisson")


def test_validate_semiparametric_treatment():
    ds = Dataset(y=np.arange(3.0), x_base=np.ones((3, 1)),
                 x_diff=np.array([[0.0], [1.0], [0.5]]),
                 z_group=np.ones((3, 1)))
    with pytest.raises(ValidationError, match="row 3"):
        validate(ds, "semiparametric")


def test_validate_semiparametric_needs_one_treatment_column():
    ds = Dataset(y=np.arange(3.0), x_base=np.ones((3, 1)), x_diff=np.ones((3, 2)),
                 z_group=np.ones((3, 1)))
    with pytest.raises(ValidationError, match="single treatment column"):
        validate(ds, "semiparametric")


@pytest.mark.parametrize("family", ["Binomial", "laplace"])
def test_validate_takes_only_family_names(family):
    ds = Dataset(y=np.array([0.0, 1.0]), x_base=np.ones((2, 1)), x_diff=np.ones((2, 1)),
                 z_group=np.ones((2, 1)))
    with pytest.raises(ParameterError, match="unknown family"):
        validate(ds, family)


def test_validate_is_pure():
    y = np.array([0.0, 1.0])
    ds = Dataset(y=y, x_base=np.ones((2, 1)), x_diff=np.ones((2, 1)),
                 z_group=np.ones((2, 1)))
    before = ds.y.copy()
    validate(ds, "binomial")
    np.testing.assert_array_equal(ds.y, before)


def test_column_spec_response_overlap():
    with pytest.raises(DataError):
        ColumnSpec(response="y", baseline=["y"], diff=["x"], grouping=["z"])


@pytest.mark.parametrize("kwargs, message", [
    ({"diff": []}, "at least one grouping-difference"),
    ({"baseline": [], "add_intercept_baseline": False}, "baseline block would be empty"),
    ({"grouping": [], "add_intercept_grouping": False}, "grouping block would be empty")])
def test_column_spec_empty_blocks(kwargs, message):
    roles = {"baseline": ["x"], "diff": ["x"], "grouping": ["z"], **kwargs}
    with pytest.raises(DataError, match=message):
        ColumnSpec(response="y", **roles)


def test_load_csv_duplicate_header_name(tmp_path):
    # Which "x" the spec means is ambiguous, so the load fails rather than
    # pick one.
    f = write_csv(tmp_path / "d.csv", "y,x,x,z\n1,0.5,9,2\n2,1.5,8,3\n3,2.5,7,4\n")
    spec = ColumnSpec(response="y", baseline=["x"], diff=["x"], grouping=["z"])
    with pytest.raises(DataError, match="column 'x' appears more than once"):
        load_csv(f, spec)
    # A repeated name the spec does not read is left alone.
    ds = load_csv(f, ColumnSpec(response="y", diff=["z"]))
    np.testing.assert_array_equal(ds.x_diff[:, 0], [2, 3, 4])


@pytest.mark.parametrize("role", ["baseline", "diff", "grouping"])
def test_column_spec_name_twice_in_one_role(role):
    roles = {"baseline": ["x1"], "diff": ["x1"], "grouping": ["z1"]}
    roles[role] = [*roles[role], "w", roles[role][0]]
    with pytest.raises(DataError, match=f"column '{roles[role][0]}' listed twice in {role}"):
        ColumnSpec(response="y", **roles)


def test_load_csv_utf8_byte_order_mark(tmp_path):
    # Spreadsheet "CSV UTF-8" exports start the header with U+FEFF.
    text = "y,x1,z1\n1,0.5,2\n2,1.5,3\n3,2.5,4\n"
    spec = ColumnSpec(response="y", baseline=["x1"], diff=["x1"], grouping=["z1"])
    plain = load_csv(write_csv(tmp_path / "plain.csv", text), spec)
    ds = load_csv(write_csv(tmp_path / "bom.csv", "\ufeff" + text), spec)
    for a, b in [(ds.y, plain.y), (ds.x_base, plain.x_base), (ds.z_group, plain.z_group)]:
        np.testing.assert_array_equal(a, b)
