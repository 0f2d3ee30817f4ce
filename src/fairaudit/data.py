"""Tabular dataset containers, CSV ingestion, grouping and splitting.

A dataset is a set of aligned columns: non-sensitive features (continuous
or categorical), one sensitive attribute partitioning rows into groups,
and an optional binary ground-truth target. Model outputs live in a
separate :class:`PredictionSet` aligned to the same rows.

All containers are immutable after construction (arrays are marked
read-only) and safe to share across threads.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass, replace

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
        vals = np.asarray(self.values, dtype=float if self.kind == CONTINUOUS else int)
        object.__setattr__(self, "values", _readonly(vals))
        if self.kind == CONTINUOUS and not np.isfinite(vals).all():
            raise ValueError(f"column {self.name!r}: non-finite value")
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
        vals = np.asarray(self.values, dtype=int)
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

    def mask(self, code):
        return self.values == code

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
            t = np.asarray(self.target, dtype=int)
            if len(t) != n:
                raise ValueError("target length mismatch")
            if len(t) and not np.isin(t, (0, 1)).all():
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
        labels = col.labels or tuple(str(c) for c in range(int(col.values.max(initial=0)) + 1))
        return col.values, labels

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
            d = np.asarray(self.decisions, dtype=int)
            if len(d) and not np.isin(d, (0, 1)).all():
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
    codes = np.empty(len(raw), dtype=int)
    for i, v in enumerate(raw):
        if v not in seen:
            seen[v] = len(seen)
        codes[i] = seen[v]
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
    seen = set()
    for name in header:
        if name in seen:
            raise SchemaError(f"column {name!r} appears more than once in the header of {path}")
        seen.add(name)
    return header, rows


def load_csv(path, schema, exclude=()):
    """Load an RFC-4180-style CSV (header row, UTF-8) into a :class:`Dataset`.

    ``schema`` maps column roles and kinds (see :func:`load_schema`); columns
    declared neither continuous nor categorical are inferred (all-numeric
    columns become continuous). Missing values and non-finite numbers
    (``nan``, ``inf``) are rejected outright: the metrics downstream have no
    sound semantics under silent imputation.
    ``exclude`` names columns to ignore (e.g. prediction columns handled by
    :func:`load_predictions`).
    """
    if "sensitive" not in schema:
        raise SchemaError("schema must name a 'sensitive' column")
    header, rows = _read_csv(path)

    columns = {}
    for j, name in enumerate(header):
        cells = []
        for i, row in enumerate(rows):
            if j >= len(row) or row[j].strip() == "":
                raise ParseError(f"row {i + 1}: missing value in column {name!r}")
            cells.append(row[j].strip())
        columns[name] = cells

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
        if name in declared_cont:
            kind = CONTINUOUS
        elif name in declared_cat:
            kind = CATEGORICAL
        else:
            kind = CONTINUOUS if _all_numeric(cells) else CATEGORICAL
        if kind == CONTINUOUS:
            vals = np.array([_parse_float(c, name, i + 1) for i, c in enumerate(cells)])
            features.append(FeatureColumn(name, CONTINUOUS, vals))
        else:
            codes, labels = _code_first_appearance(cells)
            features.append(FeatureColumn(name, CATEGORICAL, codes, labels))

    sens_cells = columns[sens_name]
    if sens_cells:
        sensitive = SensitiveAttribute.from_values(sens_name, sens_cells)
    else:
        sensitive = SensitiveAttribute(sens_name, np.empty(0, dtype=int), ())

    target = None
    if target_name is not None:
        target = _parse_target(columns[target_name], schema.get("positive"))

    return Dataset(tuple(features), sensitive, target, target_name or "Y")


def _all_numeric(cells):
    for c in cells:
        try:
            float(c)
        except ValueError:
            return False
    return True


def _parse_target(cells, positive):
    if positive is not None:
        return np.array([1 if c == positive else 0 for c in cells], dtype=int)
    out = np.empty(len(cells), dtype=int)
    for i, c in enumerate(cells):
        if c in ("0", "1"):
            out[i] = int(c)
        else:
            try:
                v = float(c)
            except ValueError:
                v = None
            if v not in (0.0, 1.0):
                raise ValueError(
                    f"row {i + 1}: unseen target value {c!r} (expected 0/1; "
                    "declare 'positive' in the schema for labelled targets)"
                )
            out[i] = int(v)
    return out


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
        j = header.index(name)
        out[role] = np.array([_parse_float(row[j].strip(), name, i + 1) for i, row in enumerate(rows)])
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
    combo = np.stack([a.values for a in attrs], axis=1)
    cells = sorted({tuple(row) for row in combo})
    cell_code = {cell: k for k, cell in enumerate(cells)}
    codes = np.array([cell_code[tuple(row)] for row in combo], dtype=int)
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
    than ``bins`` strata can result.
    """
    col = ds.feature(column)
    if col.kind != CONTINUOUS:
        raise ValueError(f"column {column!r} is already categorical")
    if bins < 1:
        raise ValueError("bins must be >= 1")
    qs = np.quantile(col.values, np.linspace(0, 1, bins + 1)[1:-1]) if ds.n else []
    edges = np.unique(qs)
    codes = np.searchsorted(edges, col.values, side="right")
    labels = []
    lo = "-inf"
    for e in edges:
        labels.append(f"[{lo}, {e:g})")
        lo = f"{e:g}"
    labels.append(f"[{lo}, inf)")
    binned = FeatureColumn(column, CATEGORICAL, codes, tuple(labels))
    features = tuple(binned if c.name == column else c for c in ds.features)
    return Dataset(features, ds.sensitive, ds.target, ds.target_name)
