"""Tabular dataset container, CSV loading and standardization.

All transformation parameters are owned by ``StandardizationParams`` so held-out
data is always mapped with training means/scales and predictions can be
de-centered back to original units.
"""

from __future__ import annotations

import csv
import math
import warnings
from collections import Counter
from dataclasses import dataclass, field

import numpy as np


class DataError(ValueError):
    """Raised for malformed input data (files, shapes, values)."""


RESPONSE_KINDS = ("continuous", "binary")

# every text input (CSV or config) is UTF-8; a leading byte-order mark is
# dropped, not read as part of the first name or key
TEXT_ENCODING = "utf-8-sig"


def not_utf8(path, exc: UnicodeDecodeError) -> str:
    """One-line message for a file that does not decode as UTF-8.

    The decoder counts its position from the start of a buffered chunk, not
    of the file, so the message names only the offending byte.
    """
    return f"{path}: not UTF-8 text (byte 0x{exc.object[exc.start]:02x}: {exc.reason})"


def read_only(array: np.ndarray) -> np.ndarray:
    """``array``, taken over by a type that checks it, as a read-only array.

    A writable array that owns its data is frozen in place, without a copy:
    the caller hands it over. A writable view is copied first, since writes
    through its base would still reach it. A read-only array, such as one
    over the bytes of a file, is kept as it is.
    """
    if array.flags.writeable:
        if array.base is not None:
            array = array.copy()
        array.flags.writeable = False
    return array


@dataclass(frozen=True)
class Dataset:
    """An (n x p) design matrix with an n-vector response.

    ``response_kind`` is "continuous" or "binary"; binary responses must be
    coded 0/1. All entries must be finite. A float64 design is kept as
    given, in either memory layout, without a copy.
    """

    design: np.ndarray
    response: np.ndarray
    response_kind: str = "continuous"
    column_names: list[str] = field(default_factory=list)

    def __post_init__(self):
        design = np.asarray(self.design, dtype=np.float64)
        response = np.ascontiguousarray(np.asarray(self.response, dtype=np.float64))
        if design.ndim != 2:
            raise DataError(f"design must be 2-dimensional, got shape {design.shape}")
        n, p = design.shape
        if n < 2:
            raise DataError(f"need at least 2 rows, got {n}")
        if p < 1:
            raise DataError("need at least 1 predictor column")
        if response.shape != (n,):
            raise DataError(
                f"response length {response.shape} does not match {n} design rows"
            )
        if not np.all(np.isfinite(design)):
            raise DataError("design contains NaN or Inf entries")
        if not np.all(np.isfinite(response)):
            raise DataError("response contains NaN or Inf entries")
        if self.response_kind not in RESPONSE_KINDS:
            raise DataError(f"unknown response_kind {self.response_kind!r}")
        if self.response_kind == "binary" and not np.all(
            (response == 0.0) | (response == 1.0)
        ):
            raise DataError("binary response must only contain 0 and 1")
        names = list(self.column_names) if self.column_names else [
            f"x{j + 1}" for j in range(p)
        ]
        if len(names) != p:
            raise DataError(f"{len(names)} column names for {p} columns")
        object.__setattr__(self, "design", design)
        object.__setattr__(self, "response", response)
        object.__setattr__(self, "column_names", names)

    @property
    def n(self) -> int:
        return self.design.shape[0]

    @property
    def p(self) -> int:
        return self.design.shape[1]


@dataclass(frozen=True)
class StandardizationParams:
    """Training-set column means/scales plus the response mean.

    ``column_scales`` is 1.0 for columns flagged constant; ``response_mean``
    is None for binary responses (they are never centered). The three arrays
    are taken over read-only (see ``read_only``).
    """

    column_means: np.ndarray
    column_scales: np.ndarray
    constant_mask: np.ndarray
    response_mean: float | None

    def __post_init__(self):
        for name in ("column_means", "column_scales", "constant_mask"):
            object.__setattr__(self, name, read_only(getattr(self, name)))
        means, scales = self.column_means, self.column_scales
        shapes = {means.shape, scales.shape, self.constant_mask.shape}
        if len(shapes) != 1 or means.ndim != 1:
            raise ValueError(f"means, scales and constant mask have shapes {shapes}")
        if not (np.isfinite(means).all() and np.isfinite(scales).all()):
            raise ValueError("column means and scales must be finite")
        if not (scales > 0.0).all():
            raise ValueError("column_scales must be positive")

    def transform_design(self, X: np.ndarray) -> np.ndarray:
        """(X - means) / scales as a new column-major array.

        Column-major, so each replicate's X[:, gamma] gather copies whole
        columns; both steps run in place on the one copy.
        """
        X = np.asarray(X, dtype=np.float64)
        if X.shape[1] != self.column_means.shape[0]:
            raise DataError(
                f"matrix has {X.shape[1]} columns, params expect "
                f"{self.column_means.shape[0]}"
            )
        out = np.array(X, order="F")
        out -= self.column_means
        out /= self.column_scales
        return out

    def transform_response(self, y: np.ndarray) -> np.ndarray:
        y = np.asarray(y, dtype=np.float64)
        if self.response_mean is None:
            return y.copy()
        return y - self.response_mean

    def inverse_response(self, y_centered: np.ndarray) -> np.ndarray:
        y_centered = np.asarray(y_centered, dtype=np.float64)
        if self.response_mean is None:
            return y_centered.copy()
        return y_centered + self.response_mean


def load_table(path, drop=None) -> tuple[list[str], np.ndarray]:
    """Read a numeric CSV with a header row into (column names, matrix).

    The header is read with ``csv.reader`` and the body with numpy's C parser
    (``np.loadtxt``). When that parser raises, finds no rows, a wrong column
    count or a non-finite value, the file is re-read cell by cell with
    Python's ``float()``: that scan accepts what ``float()`` accepts and
    numpy does not (whitespace-only lines, ``1_000``) and otherwise reports
    the first bad cell with its row number and column name. Both parsers
    take the one header read here, which may not name a column twice. The
    text is UTF-8, with or without a byte-order mark.

    ``drop``, if given, is called with the header's names and returns the
    index of a column to leave out, or None. Both parsers still count that
    column's cells in every row, but neither parses them, and it is missing
    from the names and the matrix returned.
    """
    try:
        fh = open(path, "r", newline="", encoding=TEXT_ENCODING)
    except OSError as exc:
        raise DataError(f"cannot open {path}: {exc.strerror}") from exc
    try:
        with fh:
            try:
                header = [h.strip() for h in next(csv.reader(fh))]
            except StopIteration:
                raise DataError(f"{path}: file is empty") from None
            # columns are picked by name: a second response column, say,
            # would stay in the design
            twice = [name for name, count in Counter(header).items() if count > 1]
            if twice:
                raise DataError(f"{path}: column {twice[0]!r} appears twice in the header")
            skip = None if drop is None else drop(header)
            # usecols would also pass rows with cells past the last one used;
            # a converter keeps the parser's check that every row is as long
            unparsed = None if skip is None else {skip: lambda cell: 0.0}
            try:
                with warnings.catch_warnings():
                    # a header-only file is reported by the scan below
                    warnings.simplefilter("ignore", UserWarning)
                    table = np.loadtxt(
                        fh, delimiter=",", comments=None, quotechar='"', ndmin=2,
                        dtype=np.float64, converters=unparsed,
                    )
            except ValueError:
                table = None
        if (
            table is None
            or table.shape[0] == 0
            or table.shape[1] != len(header)
            or not np.isfinite(table).all()
        ):
            return _scan_table(path, header, skip)
    except UnicodeDecodeError as exc:
        raise DataError(not_utf8(path, exc)) from None
    if skip is not None:
        header = header[:skip] + header[skip + 1 :]
        table = np.delete(table, skip, axis=1)
    return header, table


def _scan_table(path, header, skip=None) -> tuple[list[str], np.ndarray]:
    # one float() per cell but column skip's, under the header load_table
    # read: the parser of record for every input that the C parser rejects,
    # and the source of every row/column error message
    with open(path, "r", newline="", encoding=TEXT_ENCODING) as fh:
        reader = csv.reader(fh)
        next(reader, None)  # the header, read by load_table
        rows: list[list[float]] = []
        for row_number, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue  # ignore trailing blank lines
            if len(row) != len(header):
                raise DataError(
                    f"{path}: row {row_number} has {len(row)} cells, "
                    f"expected {len(header)}"
                )
            parsed = []
            for j, cell in enumerate(row):
                if j == skip:
                    continue
                try:
                    value = float(cell)
                except ValueError:
                    raise DataError(
                        f"{path}: row {row_number}, column {header[j]!r}: "
                        f"cannot parse {cell.strip()!r} as a number"
                    ) from None
                if not math.isfinite(value):
                    raise DataError(
                        f"{path}: row {row_number}, column {header[j]!r}: "
                        f"non-finite value {cell.strip()!r}"
                    )
                parsed.append(value)
            rows.append(parsed)
    if not rows:
        raise DataError(f"{path}: no data rows")
    names = [name for j, name in enumerate(header) if j != skip]
    return names, np.asarray(rows, dtype=np.float64)


def load_csv(path, target: str) -> Dataset:
    """Load a numeric CSV with a header row, extracting ``target`` as response.

    Column order of the remaining design columns is preserved. The response
    kind is inferred: all-0/1 responses are treated as binary.
    """
    header, table = load_table(path)
    if target not in header:
        raise DataError(f"{path}: target column {target!r} not in header")
    if len(table) < 2:
        raise DataError(f"{path}: need at least 2 data rows, got {len(table)}")
    target_idx = header.index(target)
    response = table[:, target_idx]
    design = np.delete(table, target_idx, axis=1)
    names = [h for j, h in enumerate(header) if j != target_idx]
    kind = "binary" if np.all((response == 0.0) | (response == 1.0)) else "continuous"
    return Dataset(design, response, response_kind=kind, column_names=names)


def write_csv(dataset: Dataset, path, target: str = "y") -> None:
    """Write a Dataset back to CSV with the response as column ``target``.

    Cells are the shortest round-trip ``repr`` of each float. The header
    goes through ``csv.writer`` (names may need quoting); float reprs never
    do, so the body is joined directly with the writer's ``\\r\\n`` ending.
    """
    table = np.column_stack([dataset.design, dataset.response])
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow([*dataset.column_names, target])
        for row in table:
            fh.write(",".join(map(repr, row.tolist())) + "\r\n")


def standardize(dataset: Dataset) -> tuple[Dataset, StandardizationParams]:
    """Center and scale columns to unit sample standard deviation (divisor n-1).

    Constant columns (standard deviation <= 1e-12 |mean|) are centered only
    and flagged (scale recorded as 1). A continuous response is centered by
    its mean; binary responses are left untouched. The standardized design
    is the column-major array of ``transform_design``. A column whose mean
    or standard deviation overflows (|x| ~ 1e200) raises DataError naming it.
    """
    # the column sums round differently by layout: take them row-major
    X = np.ascontiguousarray(dataset.design)
    with np.errstate(over="ignore", invalid="ignore"):
        means = X.mean(axis=0)
        scales = X.std(axis=0, ddof=1)
    finite = np.isfinite(means) & np.isfinite(scales)
    if not finite.all():
        name = dataset.column_names[int(np.argmin(finite))]
        raise DataError(
            f"column {name!r} is too large: its mean or standard deviation overflows"
        )
    # a constant value not exact in binary leaves a scale of ~1e-16 |mean|,
    # not 0; tiny values around 0 may truly vary, so not max(1, |mean|)
    constant = scales <= 1e-12 * np.abs(means)
    scales = np.where(constant, 1.0, scales)
    if dataset.response_kind == "continuous":
        response_mean = float(dataset.response.mean())
    else:
        response_mean = None
    params = StandardizationParams(
        column_means=means,
        column_scales=scales,
        constant_mask=constant,
        response_mean=response_mean,
    )
    standardized = Dataset(
        params.transform_design(X),
        params.transform_response(dataset.response),
        response_kind=dataset.response_kind,
        column_names=list(dataset.column_names),
    )
    return standardized, params
