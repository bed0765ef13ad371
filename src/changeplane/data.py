"""Observation containers and CSV ingestion.

A :class:`Dataset` bundles the response ``y``, the baseline design ``x_base``
(first column conventionally all ones), the grouping-difference design
``x_diff``, and the grouping-variable design ``z_group`` (first column
conventionally all ones).  All blocks are immutable after construction;
``Dataset`` checks their shapes and that every entry is finite.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError

__all__ = ["Dataset", "ColumnSpec", "load_csv", "save_csv"]


def _as_matrix(a, name: str) -> np.ndarray:
    m = np.asarray(a, dtype=float)
    if m.ndim == 1:
        m = m[:, None]
    if m.ndim != 2:
        raise DataError(f"{name} must be a vector or 2-D matrix, got ndim={m.ndim}")
    return m


@dataclass(frozen=True)
class Dataset:
    """Immutable (y, x_base, x_diff, z_group) observation bundle."""

    y: np.ndarray
    x_base: np.ndarray
    x_diff: np.ndarray
    z_group: np.ndarray

    def __post_init__(self):
        y = np.asarray(self.y, dtype=float).ravel()
        xb = _as_matrix(self.x_base, "x_base")
        xd = _as_matrix(self.x_diff, "x_diff")
        zg = _as_matrix(self.z_group, "z_group")
        n = y.shape[0]
        if n < 2:
            raise DataError(f"need at least 2 observations, got {n}")
        for name, block in (("x_base", xb), ("x_diff", xd), ("z_group", zg)):
            if block.shape[0] != n:
                raise DataError(
                    f"{name} has {block.shape[0]} rows but y has {n}")
            if block.shape[1] < 1:
                raise DataError(f"{name} must have at least one column")
        for name, val in (("y", y), ("x_base", xb), ("x_diff", xd), ("z_group", zg)):
            if not np.all(np.isfinite(val)):
                raise DataError(f"{name} contains NaN or Inf entries")
            val = val.copy()
            val.setflags(write=False)
            object.__setattr__(self, name, val)

    @property
    def n(self) -> int:
        return self.y.shape[0]

    @property
    def r(self) -> int:
        return self.x_base.shape[1]

    @property
    def p(self) -> int:
        return self.x_diff.shape[1]

    @property
    def q(self) -> int:
        return self.z_group.shape[1]


@dataclass(frozen=True)
class ColumnSpec:
    """Maps CSV column names onto dataset roles.

    A name may serve several roles at once (e.g. a covariate that is both a
    baseline and a grouping variable), but none of the lists may contain the
    response column, and no list may name a column twice.
    """

    response: str
    baseline: list[str] = field(default_factory=list)
    diff: list[str] = field(default_factory=list)
    grouping: list[str] = field(default_factory=list)
    add_intercept_baseline: bool = True
    add_intercept_grouping: bool = True

    def __post_init__(self):
        for role, names in (("baseline", self.baseline), ("diff", self.diff),
                            ("grouping", self.grouping)):
            if self.response in names:
                raise DataError(
                    f"response column {self.response!r} also listed in {role}")
            twice = [c for c in names if names.count(c) > 1]
            if twice:
                raise DataError(f"column {twice[0]!r} listed twice in {role}")
        if not self.diff:
            raise DataError("at least one grouping-difference (diff) column required")
        if not self.baseline and not self.add_intercept_baseline:
            raise DataError("baseline block would be empty")
        if not self.grouping and not self.add_intercept_grouping:
            raise DataError("grouping block would be empty")


def load_csv(path, spec: ColumnSpec) -> Dataset:
    """Read a header-row CSV into a Dataset according to ``spec``.

    Intercept columns are prepended to the baseline / grouping blocks when the
    corresponding flags are set.  Row order is preserved.  A column the spec
    reads must appear once in the header, and every data row, a blank line
    included, must have as many fields as the header.  The file is UTF-8
    text, with or without a byte-order mark.
    """
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            # Skip a byte-order mark here: the utf-8-sig codec costs a module
            # import, ~0.5 ms, on its first use in a process.
            if fh.read(1) != "\ufeff":
                fh.seek(0)
            reader = csv.reader(fh)
            header = next(reader, None)
            rows = list(reader)
    except OSError as exc:
        raise DataError(f"{path}: cannot read: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text ({exc.reason})") from None
    if header is None:
        raise DataError(f"{path}: empty file (no header row)")

    header = [h.strip() for h in header]
    col_index = {name: i for i, name in enumerate(header)}
    needed = [spec.response] + list(spec.baseline) + list(spec.diff) + list(spec.grouping)
    for name in needed:
        if name not in col_index:
            raise DataError(f"{path}: column {name!r} not found in header {header}")
        if header.count(name) > 1:
            raise DataError(f"{path}: column {name!r} appears more than once in the header")

    for i, row in enumerate(rows):
        if len(row) != len(header):
            raise DataError(f"{path}: row {i + 1} has {len(row)} fields, "
                            f"the header has {len(header)}")
    if len(rows) < 2:
        raise DataError(f"{path}: need at least 2 data rows, found {len(rows)}")

    def column(name: str) -> np.ndarray:
        j = col_index[name]
        out = np.empty(len(rows))
        for i, row in enumerate(rows):
            try:
                v = float(row[j])
            except ValueError as exc:
                raise DataError(
                    f"{path}: cannot parse cell at row {i + 1}, column {name!r}: "
                    f"{row[j]!r}") from exc
            if not math.isfinite(v):
                raise DataError(
                    f"{path}: non-finite value at row {i + 1}, column {name!r}")
            out[i] = v
        return out

    cols = {name: column(name) for name in dict.fromkeys(needed)}
    n = len(rows)
    ones = np.ones((n, 1))

    def block(names, add_intercept):
        parts = ([ones] if add_intercept else []) + [cols[c][:, None] for c in names]
        return np.hstack(parts)

    return Dataset(
        y=cols[spec.response],
        x_base=block(spec.baseline, spec.add_intercept_baseline),
        x_diff=block(spec.diff, False),
        z_group=block(spec.grouping, spec.add_intercept_grouping),
    )


def save_csv(ds: Dataset, path, spec: ColumnSpec) -> None:
    """Write the named (non-intercept) columns back out; inverse of load_csv."""
    names = [spec.response] + list(dict.fromkeys(
        list(spec.baseline) + list(spec.diff) + list(spec.grouping)))
    base_off = 1 if spec.add_intercept_baseline else 0
    grp_off = 1 if spec.add_intercept_grouping else 0
    lookup = {}
    for k, name in enumerate(spec.baseline):
        lookup[name] = ds.x_base[:, base_off + k]
    for k, name in enumerate(spec.diff):
        lookup[name] = ds.x_diff[:, k]
    for k, name in enumerate(spec.grouping):
        lookup[name] = ds.z_group[:, grp_off + k]
    lookup[spec.response] = ds.y
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(names)
        for i in range(ds.n):
            writer.writerow([repr(float(lookup[name][i])) for name in names])

