"""Tabular dataset containers, CSV ingestion and report text, grouping and splitting.

A dataset is a set of aligned columns: non-sensitive features (continuous
or categorical), one sensitive attribute partitioning rows into groups,
and an optional binary ground-truth target. Model outputs live in a
separate :class:`PredictionSet` aligned to the same rows.

All containers are immutable after construction (arrays are marked
read-only) and safe to share across threads.
"""

from __future__ import annotations

import csv
import json
import math
import warnings
from dataclasses import dataclass, replace
from types import SimpleNamespace

import numpy as np

CONTINUOUS = "continuous"
CATEGORICAL = "categorical"


class SchemaError(ValueError):
    """A column named by the schema is missing or mis-declared."""


class ParseError(ValueError):
    """A cell could not be parsed under its declared kind."""


def _readonly(a):
    a = np.asarray(a)
    a.setflags(write=False)
    return a


def _int_codes(values, what):
    """``values`` as an int array; a non-integral value, NaN too, is an
    error, and so is a whole float that int64 cannot hold, before the cast
    that would turn it into an arbitrary code with a RuntimeWarning."""
    a = np.asarray(values)
    if a.dtype.kind == "f":
        if not (np.isfinite(a) & (np.trunc(a) == a)).all():
            raise ValueError(f"{what} must be integers, not fractions or NaN")
        if not ((a >= -(2.0**63)) & (a < 2.0**63)).all():
            raise ValueError(f"{what} must be integers within the int64 range")
    return a.astype(int, copy=False)


def cell_rows(key, n):
    """Row indices of each cell ``0..n-1`` of a nonnegative integer key.

    Cell ``c`` holds ``np.flatnonzero(key == c)``, in row order as a mask
    selects them, so a mean or sum over its rows keeps the masked one's
    bits. Rows keyed ``n`` or more fall in no cell. Several codes share one
    key flattened, e.g. ``group * n_strata + stratum``.
    """
    key = np.asarray(key, dtype=int)
    order = np.argsort(key, kind="stable")
    bounds = np.concatenate(([0], np.cumsum(np.bincount(key, minlength=n))))
    return [order[bounds[c] : bounds[c + 1]] for c in range(n)]


@dataclass(frozen=True)
class FeatureColumn:
    """One named feature column.

    Continuous columns hold floats; categorical columns hold dense integer
    codes ``0..m-1`` with ``labels`` mapping each code back to its original
    string (codes are assigned in order of first appearance).
    """

    name: str
    kind: str
    values: np.ndarray
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        if self.kind not in (CONTINUOUS, CATEGORICAL):
            raise ValueError(f"unknown column kind {self.kind!r}")
        if self.kind == CONTINUOUS:
            vals = np.asarray(self.values, dtype=float)
            if not np.isfinite(vals).all():
                raise ValueError(f"column {self.name!r}: non-finite value")
        else:
            vals = _int_codes(self.values, f"column {self.name!r}")
        object.__setattr__(self, "values", _readonly(vals))
        if self.kind == CATEGORICAL and len(vals):
            if vals.min() < 0:
                raise ValueError(f"column {self.name!r}: negative category code")
            if self.labels is not None and vals.max() >= len(self.labels):
                raise ValueError(f"column {self.name!r}: code outside label table")

    @property
    def code_labels(self):
        """``labels``, or each code as text when the column has none."""
        return self.labels or tuple(str(c) for c in range(int(self.values.max(initial=-1)) + 1))

    def decode(self):
        """Original strings of a categorical column (round-trip of coding)."""
        if self.kind != CATEGORICAL:
            raise ValueError("decode() only applies to categorical columns")
        labels = self.code_labels
        return [labels[c] for c in self.values]

    def take(self, idx):
        return replace(self, values=self.values[idx])


@dataclass(frozen=True)
class SensitiveAttribute:
    """Group membership column: dense codes ``0..g-1`` plus group labels."""

    name: str
    values: np.ndarray
    group_labels: tuple[str, ...]

    def __post_init__(self):
        vals = _int_codes(self.values, "group codes")
        object.__setattr__(self, "values", _readonly(vals))
        g = len(self.group_labels)
        if len(vals):
            if g < 2:
                raise ValueError("a sensitive attribute needs at least two groups")
            if vals.min() < 0 or vals.max() >= g:
                raise ValueError(f"group code outside 0..{g - 1}")

    @classmethod
    def from_values(cls, name, raw_values):
        """Code raw values in first-appearance order; every group must occur."""
        codes, labels = _code_first_appearance([str(v) for v in raw_values])
        return cls(name, codes, labels)

    @property
    def n_groups(self):
        return len(self.group_labels)

    def take(self, idx):
        # keeps labels/codes stable even if a group is absent in the subset
        return replace(self, values=self.values[idx])


@dataclass(frozen=True)
class Dataset:
    """Aligned feature columns, sensitive attribute and optional binary target."""

    features: tuple[FeatureColumn, ...]
    sensitive: SensitiveAttribute
    target: np.ndarray | None = None
    target_name: str = "Y"

    def __post_init__(self):
        object.__setattr__(self, "features", tuple(self.features))
        n = len(self.sensitive.values)
        for col in self.features:
            if len(col.values) != n:
                raise ValueError(f"column {col.name!r} has length {len(col.values)}, expected {n}")
        if self.target is not None:
            t = _int_codes(self.target, "target")
            if len(t) != n:
                raise ValueError("target length mismatch")
            if not ((t == 0) | (t == 1)).all():
                raise ValueError("target must be binary 0/1")
            object.__setattr__(self, "target", _readonly(t))
        if n == 0:
            warnings.warn("dataset has 0 rows", stacklevel=3)

    @property
    def n(self):
        return len(self.sensitive.values)

    @property
    def feature_names(self):
        return tuple(c.name for c in self.features)

    def feature(self, name):
        for col in self.features:
            if col.name == name:
                return col
        raise KeyError(f"no feature column named {name!r}")

    def column_codes(self, name):
        """Categorical codes of a feature, or of the target when named.

        Used by stratified operations that may condition on the target.
        """
        if name == self.target_name and self.target is not None:
            return self.target, ("0", "1")
        col = self.feature(name)
        if col.kind != CATEGORICAL:
            raise ValueError(
                f"column {name!r} is continuous; bin it first (see quantile_bin)"
            )
        return col.values, col.code_labels

    def take(self, idx):
        idx = np.asarray(idx)
        return Dataset(
            tuple(c.take(idx) for c in self.features),
            self.sensitive.take(idx),
            None if self.target is None else self.target[idx],
            self.target_name,
        )


@dataclass(frozen=True)
class PredictionSet:
    """Binary decisions and/or scores in [0, 1], aligned to a dataset."""

    decisions: np.ndarray | None = None
    scores: np.ndarray | None = None

    def __post_init__(self):
        if self.decisions is None and self.scores is None:
            raise ValueError("need decisions, scores, or both")
        if self.decisions is not None:
            d = _int_codes(self.decisions, "decisions")
            if not ((d == 0) | (d == 1)).all():
                raise ValueError("decisions must be binary 0/1")
            object.__setattr__(self, "decisions", _readonly(d))
        if self.scores is not None:
            s = np.asarray(self.scores, dtype=float)
            if not np.isfinite(s).all():
                raise ValueError("scores must be finite")
            if len(s) and (s.min() < 0.0 or s.max() > 1.0):
                raise ValueError("scores must lie in [0, 1]")
            object.__setattr__(self, "scores", _readonly(s))
        if (
            self.decisions is not None
            and self.scores is not None
            and len(self.decisions) != len(self.scores)
        ):
            raise ValueError("decisions/scores length mismatch")

    @property
    def n(self):
        return len(self.decisions if self.decisions is not None else self.scores)

    def take(self, idx):
        idx = np.asarray(idx)
        return PredictionSet(
            None if self.decisions is None else self.decisions[idx],
            None if self.scores is None else self.scores[idx],
        )


def _code_first_appearance(raw):
    seen = {}
    codes = np.array([seen.setdefault(v, len(seen)) for v in raw], dtype=int)
    return codes, tuple(seen)


def load_schema(path):
    """Read a key-value schema file (``key = value`` lines, ``#`` comments).

    Recognised keys: ``sensitive`` (required), ``target``, ``positive``
    (label of the favourable target value), ``continuous`` and
    ``categorical`` (comma-separated column lists).
    """
    schema = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise SchemaError(f"{path}:{lineno}: expected 'key = value'")
            key, _, value = line.partition("=")
            schema[key.strip()] = value.strip()
    for key in ("continuous", "categorical"):
        if key in schema:
            schema[key] = [c.strip() for c in schema[key].split(",") if c.strip()]
    return schema


def _parse_float(cell, column, row):
    try:
        value = float(cell)
    except ValueError:
        raise ParseError(
            f"row {row}: cell {cell!r} in continuous column {column!r} is not numeric"
        ) from None
    if not math.isfinite(value):
        raise ParseError(f"row {row}: cell {cell!r} in column {column!r} is not finite")
    return value


def _read_csv(path):
    """The stripped header and the non-empty rows of a CSV file.

    A name the header repeats is a schema error: every column is looked up
    by name, so all but one of the repeated columns would be lost.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = [h.strip() for h in next(reader)]
        except StopIteration:
            raise ParseError(f"{path}: empty file, no header row") from None
        rows = [row for row in reader if row]
    for i, name in enumerate(header):
        if name in header[:i]:
            raise SchemaError(f"column {name!r} appears more than once in the header of {path}")
    return header, rows


def _csv_text(rows):
    """CSV text of ``rows``: one record of ``str(field)`` values per row,
    each ending in ``\\n``.

    The writer ends records in ``\\r\\n``, then each loses its ``\\r``, so
    that a field holding either character is quoted (before Python 3.13
    only the ending's are). It writes each record in one call.
    """
    records = []
    writer = csv.writer(SimpleNamespace(write=records.append), lineterminator="\r\n")
    writer.writerows(map(str, row) for row in rows)
    return "".join(r[:-2] + "\n" for r in records)


def _json_text(doc):
    """Strict JSON text of a report or model: nan or inf raises ValueError."""
    return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _cells(rows, j, name):
    """The stripped cells of column ``j``; a short row or blank cell is missing."""
    try:
        cells = [row[j].strip() for row in rows]
    except IndexError:  # a short row
        cells = [""]
    if "" in cells:
        i = next(i for i, row in enumerate(rows) if j >= len(row) or not row[j].strip())
        raise ParseError(f"row {i + 1}: missing value in column {name!r}")
    return cells


def _numbers(cells):
    """``cells`` parsed by ``float`` in one pass, or None if one is not a number."""
    try:
        return np.array(list(map(float, cells)), dtype=float)
    except ValueError:
        return None


def _finite(values, cells, name):
    """``values``, the :func:`_numbers` of continuous column ``name``, once
    every one is finite.

    A column that failed is walked cell by cell, only to raise
    :func:`_parse_float`'s error for its first bad row.
    """
    if values is None or not np.isfinite(values).all():
        for i, c in enumerate(cells):
            _parse_float(c, name, i + 1)
    return values


def load_csv(path, schema, exclude=()):
    """Load an RFC-4180-style CSV (header row, UTF-8) into a :class:`Dataset`.

    ``schema`` maps column roles and kinds (see :func:`load_schema`); columns
    declared neither continuous nor categorical are inferred (all-numeric
    columns become continuous). Missing values and non-finite numbers
    (``nan``, ``inf``) are rejected outright: the metrics downstream have no
    sound semantics under silent imputation.
    Each column is stripped once and, unless declared categorical only,
    parsed by ``float`` once, which also decides whether an undeclared
    column is continuous. Only a column that fails is walked again cell by cell, to
    name its first bad row in the error.
    ``exclude`` names columns to ignore (e.g. prediction columns handled by
    :func:`load_predictions`).
    """
    if "sensitive" not in schema:
        raise SchemaError("schema must name a 'sensitive' column")
    header, rows = _read_csv(path)

    columns = {name: _cells(rows, j, name) for j, name in enumerate(header)}

    sens_name = schema["sensitive"]
    target_name = schema.get("target")
    for role, name in (("sensitive", sens_name), ("target", target_name)):
        if name is not None and name not in columns:
            raise SchemaError(f"{role} column {name!r} not found in {path}")
    declared_cont = set(schema.get("continuous", ()))
    declared_cat = set(schema.get("categorical", ()))
    for name in declared_cont | declared_cat:
        if name not in columns:
            raise SchemaError(f"schema names unknown column {name!r}")

    features = []
    for name in header:
        if name == sens_name or name == target_name or name in exclude:
            continue
        cells = columns[name]
        # a column declared both ways is continuous
        values = _numbers(cells) if name in declared_cont or name not in declared_cat else None
        if values is not None or name in declared_cont:
            features.append(FeatureColumn(name, CONTINUOUS, _finite(values, cells, name)))
        else:
            features.append(FeatureColumn(name, CATEGORICAL, *_code_first_appearance(cells)))

    sensitive = SensitiveAttribute(sens_name, *_code_first_appearance(columns[sens_name]))

    target = None
    if target_name is not None:
        target = _parse_target(columns[target_name], schema.get("positive"))

    return Dataset(tuple(features), sensitive, target, target_name or "Y")


def _parse_target(cells, positive):
    if positive is not None:
        return np.array([c == positive for c in cells], dtype=int)
    values = _numbers(cells)
    if values is None or not ((values == 0.0) | (values == 1.0)).all():
        for i, c in enumerate(cells):
            try:
                v = float(c)
            except ValueError:
                v = None
            if v not in (0.0, 1.0):
                raise ValueError(
                    f"row {i + 1}: unseen target value {c!r} (expected 0/1; "
                    "declare 'positive' in the schema for labelled targets)"
                )
    return values.astype(int)


def load_predictions(path, decisions=None, scores=None):
    """Read prediction columns (by name) out of a CSV into a PredictionSet."""
    if decisions is None and scores is None:
        raise ValueError("name a decisions column, a scores column, or both")
    header, rows = _read_csv(path)
    out = {}
    for role, name in (("decisions", decisions), ("scores", scores)):
        if name is None:
            continue
        if name not in header:
            raise SchemaError(f"prediction column {name!r} not found in {path}")
        cells = _cells(rows, header.index(name), name)
        out[role] = _finite(_numbers(cells), cells, name)
    return PredictionSet(out.get("decisions"), out.get("scores"))


def intersect_sensitive(attrs, name=None):
    """Cross several sensitive attributes into one composite attribute.

    The composite's groups are the occupied cells of the cross-product
    (empty cells omitted), ordered lexicographically by component codes so
    that a single attribute passes through unchanged. Guards against
    intersectional bias hiding behind per-attribute parity.
    """
    attrs = list(attrs)
    if not attrs:
        raise ValueError("need at least one attribute")
    n = len(attrs[0].values)
    for a in attrs:
        if len(a.values) != n:
            raise ValueError("sensitive attributes have mismatched lengths")
    if len(attrs) == 1:
        return attrs[0]
    # a mixed-radix key orders the cells as their component-code tuples do
    dims = tuple(a.n_groups for a in attrs)
    keys, codes = np.unique(
        np.ravel_multi_index(tuple(a.values for a in attrs), dims), return_inverse=True
    )
    cells = zip(*(c.tolist() for c in np.unravel_index(keys, dims)))
    labels = tuple(
        "&".join(a.group_labels[c] for a, c in zip(attrs, cell)) for cell in cells
    )
    return SensitiveAttribute(name or "&".join(a.name for a in attrs), codes, labels)


def split(ds, preds=None, fraction=0.7, seed=0):
    """Deterministic shuffled train/test split.

    Train size is ``max(1, min(n-1, round(fraction*n)))`` so both parts are
    nonempty. Returns ``(train, test)`` datasets, or
    ``((train_ds, train_preds), (test_ds, test_preds))`` when predictions
    are passed (prediction rows follow their dataset rows).

    The shuffle permutes row positions, not row contents: the same rows in
    another order give another split for the same seed.
    """
    if not 0.0 < fraction < 1.0:
        raise ValueError("fraction must lie strictly between 0 and 1")
    n = ds.n
    if n < 2:
        raise ValueError("need at least 2 rows to split")
    k = int(np.floor(fraction * n + 0.5))
    k = max(1, min(n - 1, k))
    perm = np.random.default_rng(seed).permutation(n)
    train_idx, test_idx = np.sort(perm[:k]), np.sort(perm[k:])
    if preds is None:
        return ds.take(train_idx), ds.take(test_idx)
    return (
        (ds.take(train_idx), preds.take(train_idx)),
        (ds.take(test_idx), preds.take(test_idx)),
    )


def quantile_bin(ds, column, bins=4):
    """Replace a continuous column by categorical quantile-bin codes.

    Needed before conditioning parity metrics on a continuous variable:
    stratified criteria quantify over strata, which is ill-posed for
    continuous conditioners. Duplicate quantile edges are merged, so fewer
    than ``bins`` strata can result. Edges are printed with the fewest
    significant digits, 6 or more, at which they all differ, so no two
    strata share a label.
    """
    col = ds.feature(column)
    if col.kind != CONTINUOUS:
        raise ValueError(f"column {column!r} is already categorical")
    if bins < 1:
        raise ValueError("bins must be >= 1")
    qs = np.quantile(col.values, np.linspace(0, 1, bins + 1)[1:-1]) if ds.n else []
    edges = np.unique(qs)
    codes = np.searchsorted(edges, col.values, side="right")
    for digits in range(6, 18):  # 17 tell any two float64 values apart
        texts = [f"{e:.{digits}g}" for e in edges]
        if len(set(texts)) == len(texts):
            break
    bounds = ["-inf", *texts, "inf"]
    labels = [f"[{lo}, {hi})" for lo, hi in zip(bounds[:-1], bounds[1:])]
    binned = FeatureColumn(column, CATEGORICAL, codes, tuple(labels))
    features = tuple(binned if c.name == column else c for c in ds.features)
    return Dataset(features, ds.sensitive, ds.target, ds.target_name)
