import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fairaudit.data import (
    CATEGORICAL,
    CONTINUOUS,
    Dataset,
    FeatureColumn,
    ParseError,
    PredictionSet,
    SchemaError,
    SensitiveAttribute,
    _int_codes,
    _read_csv,
    cell_rows,
    intersect_sensitive,
    load_csv,
    load_predictions,
    load_schema,
    quantile_bin,
    split,
)
from fairaudit.group_metrics import conditional_demographic_parity


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


BASIC_CSV = "sex,age,job,income\nm,30,a,1\nf,25,b,0\nm,40,a,1\nf,35,c,0\n"
BASIC_SCHEMA = {"sensitive": "sex", "target": "income", "continuous": ["age"]}


class TestLoadCsv:
    def test_basic_roles_and_kinds(self, tmp_path):
        ds = load_csv(write(tmp_path, "d.csv", BASIC_CSV), BASIC_SCHEMA)
        assert ds.n == 4
        assert ds.feature_names == ("age", "job")
        assert ds.feature("age").kind == CONTINUOUS
        assert ds.feature("job").kind == CATEGORICAL
        assert ds.sensitive.group_labels == ("m", "f")
        assert ds.target.tolist() == [1, 0, 1, 0]

    def test_first_appearance_coding(self, tmp_path):
        csv = "a,g\nb,x\na,y\nb,x\n"
        ds = load_csv(write(tmp_path, "d.csv", csv), {"sensitive": "g", "categorical": ["a"]})
        col = ds.feature("a")
        assert col.values.tolist() == [0, 1, 0]
        assert col.labels == ("b", "a")

    def test_coding_round_trip(self, tmp_path):
        csv = "g,c\nx,red\ny,blue\nx,red\ny,green\n"
        ds = load_csv(write(tmp_path, "d.csv", csv), {"sensitive": "g"})
        assert ds.feature("c").decode() == ["red", "blue", "red", "green"]

    def test_empty_file_valid_header_flagged(self, tmp_path):
        p = write(tmp_path, "d.csv", "sex,age\n")
        with pytest.warns(UserWarning, match="0 rows"):
            ds = load_csv(p, {"sensitive": "sex"})
        assert ds.n == 0

    def test_missing_schema_column(self, tmp_path):
        p = write(tmp_path, "d.csv", BASIC_CSV)
        with pytest.raises(SchemaError):
            load_csv(p, {"sensitive": "nope"})

    def test_non_numeric_continuous_cell_names_row(self, tmp_path):
        csv = "g,age\nm,30\nf,oops\n"
        p = write(tmp_path, "d.csv", csv)
        with pytest.raises(ParseError, match="row 2"):
            load_csv(p, {"sensitive": "g", "continuous": ["age"]})

    def test_unseen_target_value(self, tmp_path):
        csv = "g,y\nm,1\nf,2\n"
        with pytest.raises(ValueError, match="unseen target"):
            load_csv(write(tmp_path, "d.csv", csv), {"sensitive": "g", "target": "y"})

    def test_positive_label_target(self, tmp_path):
        csv = "g,inc\nm,>50K\nf,<=50K\nm,>50K\n"
        ds = load_csv(
            write(tmp_path, "d.csv", csv),
            {"sensitive": "g", "target": "inc", "positive": ">50K"},
        )
        assert ds.target.tolist() == [1, 0, 1]

    def test_missing_value_rejected(self, tmp_path):
        csv = "g,age\nm,30\nf,\n"
        with pytest.raises(ParseError, match="missing value"):
            load_csv(write(tmp_path, "d.csv", csv), {"sensitive": "g"})

    def test_schema_file_round_trip(self, tmp_path):
        p = write(
            tmp_path,
            "schema.cfg",
            "# roles\nsensitive = sex\ntarget = income\ncontinuous = age\n",
        )
        schema = load_schema(p)
        assert schema == {"sensitive": "sex", "target": "income", "continuous": ["age"]}

    def test_load_predictions(self, tmp_path):
        csv = "g,pred,s\nm,1,0.9\nf,0,0.2\n"
        p = write(tmp_path, "d.csv", csv)
        preds = load_predictions(p, decisions="pred", scores="s")
        assert preds.decisions.tolist() == [1, 0]
        assert preds.scores.tolist() == [0.9, 0.2]

    def test_repeated_header_name_rejected(self, tmp_path):
        # Read by name, the second x column would shadow the first.
        p = write(tmp_path, "d.csv", "g,x,x,y\nm,1,5,1\nf,2,3,0\nm,3,1,1\nf,4,0,0\n")
        with pytest.raises(SchemaError, match="column 'x' appears more than once"):
            load_csv(p, {"sensitive": "g", "target": "y"})

    def test_load_predictions_repeated_header_name_rejected(self, tmp_path):
        p = write(tmp_path, "d.csv", "g,pred,pred\nm,1,0\nf,0,1\n")
        with pytest.raises(SchemaError, match="column 'pred' appears more than once"):
            load_predictions(p, decisions="pred")

    def test_load_predictions_empty_file(self, tmp_path):
        with pytest.raises(ParseError, match="empty file"):
            load_predictions(write(tmp_path, "d.csv", ""), decisions="pred")

    @pytest.mark.parametrize("last_row", ["f", "f,", "f,  "], ids=["short", "empty", "blank"])
    def test_load_predictions_missing_value(self, tmp_path, last_row):
        # the same check and message as load_csv
        p = write(tmp_path, "d.csv", f"g,pred\nm,1\n{last_row}\n")
        with pytest.raises(ParseError, match=r"^row 2: missing value in column 'pred'$"):
            load_predictions(p, decisions="pred")
        with pytest.raises(ParseError, match=r"^row 2: missing value in column 'pred'$"):
            load_csv(p, {"sensitive": "g"})


class TestCellRows:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(0, 6), max_size=60), st.integers(0, 9))
    @example([], 0)
    @example([], 3)
    @example([2, 2, 0], 6)
    @example([5, 1, 5, 0], 2)
    def test_equals_flatnonzero_masks(self, key, n):
        # empty keys, empty cells, n above key.max() + 1, and keys >= n
        key = np.array(key, dtype=int)
        cells = cell_rows(key, n)
        assert len(cells) == n
        for c, rows in enumerate(cells):
            assert rows.dtype.kind == "i"
            assert np.array_equal(rows, np.flatnonzero(key == c))

    def test_negative_key_rejected(self):
        with pytest.raises(ValueError):
            cell_rows(np.array([0, -1]), 2)


NON_INTEGRAL = [0.7, 1.9, -0.2, float("nan"), float("inf")]


class TestNonIntegralCodesRejected:
    """A non-integral code is an error, not truncated (0.7 would read as 0)."""

    @pytest.mark.parametrize("bad", NON_INTEGRAL)
    def test_decisions(self, bad):
        with pytest.raises(ValueError, match="decisions must be integers"):
            PredictionSet(decisions=np.array([bad, 1.0]))

    @pytest.mark.parametrize("bad", NON_INTEGRAL)
    def test_target(self, bad):
        sa = SensitiveAttribute("g", np.array([0, 1]), ("a", "b"))
        with pytest.raises(ValueError, match="target must be integers"):
            Dataset((), sa, target=np.array([bad, 1.0]))

    @pytest.mark.parametrize("bad", NON_INTEGRAL)
    def test_group_codes(self, bad):
        with pytest.raises(ValueError, match="group codes must be integers"):
            SensitiveAttribute("g", np.array([bad, 1.0]), ("a", "b"))

    @pytest.mark.parametrize("bad", NON_INTEGRAL)
    def test_categorical_codes(self, bad):
        with pytest.raises(ValueError, match="column 'c' must be integers"):
            FeatureColumn("c", CATEGORICAL, np.array([bad, 1.0]), ("x", "y"))

    @pytest.mark.parametrize("big", [1e300, -1e300, 2.0**63, -(2.0**64)])
    def test_whole_floats_beyond_int64(self, big):
        # rejected before the cast, which would warn and make up a code
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="decisions must be integers within the int64"):
                PredictionSet(decisions=np.array([big, 1.0]))
            assert _int_codes(np.array([-(2.0**63), 2.0**62]), "codes").tolist() == [
                -(2**63), 2**62
            ]

    def test_integral_floats_accepted(self):
        sa = SensitiveAttribute("g", np.array([1.0, 0.0]), ("a", "b"))
        ds = Dataset((FeatureColumn("c", CATEGORICAL, [0.0, 2.0]),), sa, target=[1.0, 0.0])
        preds = PredictionSet(decisions=np.array([0.0, 1.0]))
        for codes, want in ((sa.values, [1, 0]), (ds.features[0].values, [0, 2]),
                            (ds.target, [1, 0]), (preds.decisions, [0, 1])):
            assert codes.dtype.kind == "i" and codes.tolist() == want


class TestContainers:
    def test_sensitive_needs_two_groups(self):
        with pytest.raises(ValueError):
            SensitiveAttribute("a", np.array([0, 0]), ("only",))

    def test_from_values_requires_every_code(self):
        sa = SensitiveAttribute.from_values("a", ["x", "y", "x"])
        assert sa.group_labels == ("x", "y")

    def test_dataset_length_mismatch(self):
        sa = SensitiveAttribute("a", np.array([0, 1]), ("x", "y"))
        col = FeatureColumn("f", CONTINUOUS, np.array([1.0]))
        with pytest.raises(ValueError, match="length"):
            Dataset((col,), sa)

    def test_target_must_be_binary(self):
        sa = SensitiveAttribute("a", np.array([0, 1]), ("x", "y"))
        with pytest.raises(ValueError, match="binary"):
            Dataset((), sa, target=np.array([0, 2]))

    def test_predictions_need_something(self):
        with pytest.raises(ValueError):
            PredictionSet()

    def test_scores_range_checked(self):
        with pytest.raises(ValueError):
            PredictionSet(scores=np.array([0.5, 1.2]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_scores_must_be_finite(self, bad):
        with pytest.raises(ValueError, match="finite"):
            PredictionSet(scores=[0.2, bad])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_continuous_column_must_be_finite(self, bad):
        with pytest.raises(ValueError, match="'x'.*non-finite"):
            FeatureColumn("x", CONTINUOUS, np.array([1.0, bad]))

    def test_arrays_read_only(self):
        sa = SensitiveAttribute("a", np.array([0, 1]), ("x", "y"))
        with pytest.raises(ValueError):
            sa.values[0] = 1


class TestIntersect:
    def test_full_cross_product(self):
        a1 = SensitiveAttribute.from_values("s", ["m", "f", "m", "f"])
        a2 = SensitiveAttribute.from_values("t", ["y", "y", "o", "o"])
        both = intersect_sensitive([a1, a2])
        assert both.n_groups == 4

    def test_degenerate_factor(self):
        a1 = SensitiveAttribute.from_values("s", ["m", "f"])
        a2 = SensitiveAttribute("t", np.array([0, 0]), ("y", "o"))
        assert intersect_sensitive([a1, a2]).n_groups == 2

    def test_occupied_cells_only(self):
        # enumeration oracle: cells present in the data
        a1 = SensitiveAttribute.from_values("s", ["m", "f", "m"])
        a2 = SensitiveAttribute.from_values("t", ["y", "y", "o"])
        both = intersect_sensitive([a1, a2])
        assert both.n_groups == 3
        assert set(both.group_labels) == {"m&y", "f&y", "m&o"}

    def test_single_attribute_identity(self):
        a1 = SensitiveAttribute.from_values("s", ["m", "f", "m"])
        out = intersect_sensitive([a1])
        assert out.group_labels == a1.group_labels
        assert out.values.tolist() == a1.values.tolist()

    def test_length_mismatch(self):
        a1 = SensitiveAttribute.from_values("s", ["m", "f"])
        a2 = SensitiveAttribute.from_values("t", ["y", "y", "o"])
        with pytest.raises(ValueError):
            intersect_sensitive([a1, a2])


def _old_intersect_sensitive(attrs, name=None):
    # verbatim copy of the per-row version the vectorised one replaced
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


@st.composite
def _attribute_lists(draw):
    """1-3 attributes of 2-4 groups over the same rows; any group may be
    absent, so cells of the cross-product can be empty."""
    n = draw(st.integers(0, 40))
    attrs = []
    for j in range(draw(st.integers(1, 3))):
        g = draw(st.integers(2, 4))
        used = draw(st.integers(1, g))  # codes drawn from the first `used` groups
        values = draw(st.lists(st.integers(0, used - 1), min_size=n, max_size=n))
        attrs.append(SensitiveAttribute(f"a{j}", np.array(values, dtype=int),
                                        tuple(f"a{j}g{k}" for k in range(g))))
    return attrs


class TestIntersectAgainstRowLoop:
    @settings(max_examples=200, deadline=None)
    @given(_attribute_lists(), st.sampled_from([None, "combo"]))
    def test_same_attribute(self, attrs, name):
        try:
            old = _old_intersect_sensitive(attrs, name)
        except ValueError as exc:  # a single occupied cell is no attribute
            with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
                intersect_sensitive(attrs, name)
            return
        new = intersect_sensitive(attrs, name)
        assert new.name == old.name
        assert new.group_labels == old.group_labels
        assert new.values.dtype == old.values.dtype
        assert np.array_equal(new.values, old.values)
        if len(attrs) == 1:
            assert new is attrs[0]


class TestColumnCodes:
    @pytest.mark.filterwarnings("ignore:dataset has 0 rows")
    def test_empty_column_without_labels_has_no_stratum(self):
        from fairaudit.group_metrics import conditional_demographic_parity

        ds = Dataset(
            (FeatureColumn("c", CATEGORICAL, np.array([], dtype=int)),),
            SensitiveAttribute("g", np.array([], dtype=int), ("a", "b")),
            target=np.array([], dtype=int),
        )
        codes, labels = ds.column_codes("c")
        assert len(codes) == 0 and labels == ()
        report = conditional_demographic_parity(ds, PredictionSet(np.array([], dtype=int)), "c")
        assert report.to_json_dict() == {
            "metric": "conditional_demographic_parity",
            "strata": {},
            "max_gap": None,
            "weighted_mean_gap": None,
            "skipped": [],
        }

    def test_unlabelled_column_reads_its_codes(self):
        ds = toy_dataset(6)
        col = FeatureColumn("c", CATEGORICAL, np.array([0, 2, 2, 0, 1, 2]))
        ds = Dataset(ds.features + (col,), ds.sensitive, ds.target)
        codes, labels = ds.column_codes("c")
        assert codes.tolist() == [0, 2, 2, 0, 1, 2] and labels == ("0", "1", "2")


def toy_dataset(n, seed=0):
    rng = np.random.default_rng(seed)
    sa = SensitiveAttribute("g", rng.integers(0, 2, n), ("a", "b"))
    col = FeatureColumn("x", CONTINUOUS, rng.normal(size=n))
    return Dataset((col,), sa, target=rng.integers(0, 2, n))


class TestSplit:
    def test_partition_and_determinism(self):
        ds = toy_dataset(10)
        tr1, te1 = split(ds, fraction=0.5, seed=3)
        tr2, te2 = split(ds, fraction=0.5, seed=3)
        assert tr1.n == te1.n == 5
        assert np.array_equal(tr1.feature("x").values, tr2.feature("x").values)
        merged = sorted(tr1.feature("x").values.tolist() + te1.feature("x").values.tolist())
        assert merged == sorted(ds.feature("x").values.tolist())

    def test_rounding_keeps_both_sides_nonempty(self):
        ds = toy_dataset(10)
        tr, te = split(ds, fraction=0.999, seed=0)
        assert (tr.n, te.n) == (9, 1)

    def test_minimal_case(self):
        ds = toy_dataset(2)
        tr, te = split(ds, fraction=0.5, seed=0)
        assert (tr.n, te.n) == (1, 1)

    def test_fraction_validated(self):
        with pytest.raises(ValueError):
            split(toy_dataset(4), fraction=1.0)

    def test_predictions_follow_rows(self):
        ds = toy_dataset(8)
        preds = PredictionSet(decisions=(ds.feature("x").values > 0).astype(int))
        (tr, ptr), (te, pte) = split(ds, preds, fraction=0.5, seed=1)
        assert np.array_equal(ptr.decisions, (tr.feature("x").values > 0).astype(int))
        assert np.array_equal(pte.decisions, (te.feature("x").values > 0).astype(int))


class TestQuantileBin:
    def test_four_bins(self):
        ds = toy_dataset(100, seed=1)
        binned = quantile_bin(ds, "x", bins=4)
        col = binned.feature("x")
        assert col.kind == CATEGORICAL
        counts = np.bincount(col.values)
        assert len(counts) == 4
        assert counts.sum() == 100

    def test_labels_keep_six_digits_where_they_tell_edges_apart(self):
        ds = toy_dataset(100, seed=1)
        qs = np.quantile(ds.feature("x").values, [0.25, 0.5, 0.75])
        a, b, c = (f"{q:g}" for q in qs)
        assert quantile_bin(ds, "x", bins=4).feature("x").labels == (
            f"[-inf, {a})", f"[{a}, {b})", f"[{b}, {c})", f"[{c}, inf)"
        )

    def test_edges_equal_to_six_digits_get_distinct_labels(self):
        # every edge printed as "1" with {:g}, so strata keyed by label
        # overwrote each other: conditional parity listed 3 of 6
        rng = np.random.default_rng(3)
        sa = SensitiveAttribute("g", rng.integers(0, 2, 400), ("a", "b"))
        ds = Dataset((FeatureColumn("x", CONTINUOUS, 1 + 1e-6 * rng.random(400)),), sa)
        col = quantile_bin(ds, "x", bins=6).feature("x")
        assert len(set(col.labels)) == 6
        dec = rng.integers(0, 2, 400)
        binned = Dataset((col,), sa)
        rep = conditional_demographic_parity(binned, PredictionSet(dec), "x", min_count=1)
        assert list(rep.strata) == list(col.labels)
        counts = np.bincount(col.values, minlength=6)
        for code, label in enumerate(col.labels):
            for g, glabel in enumerate(sa.group_labels):
                rows = (col.values == code) & (sa.values == g)
                assert rep.strata[label].groups[glabel] == dec[rows].mean()
        gaps = [rep.strata[label].gap for label in col.labels]
        assert rep.weighted_mean_gap == pytest.approx(np.dot(gaps, counts) / 400)

    def test_already_categorical_rejected(self):
        ds = toy_dataset(10)
        binned = quantile_bin(ds, "x", bins=2)
        with pytest.raises(ValueError):
            quantile_bin(binned, "x", bins=2)


# Verbatim copies of the per-cell CSV loader that column-at-a-time parsing
# replaced (renamed; ``_read_csv`` is unchanged and shared). Valid files must
# load to bit-equal values, the same kinds, labels and codes; invalid files
# must raise the same exception class with the same message.


def _old_code_first_appearance(raw):
    seen = {}
    codes = np.empty(len(raw), dtype=int)
    for i, v in enumerate(raw):
        if v not in seen:
            seen[v] = len(seen)
        codes[i] = seen[v]
    return codes, tuple(seen)


def _old_parse_float(cell, column, row):
    try:
        value = float(cell)
    except ValueError:
        raise ParseError(
            f"row {row}: cell {cell!r} in continuous column {column!r} is not numeric"
        ) from None
    if not math.isfinite(value):
        raise ParseError(f"row {row}: cell {cell!r} in column {column!r} is not finite")
    return value


def _old_cells(rows, j, name):
    cells = []
    for i, row in enumerate(rows):
        if j >= len(row) or row[j].strip() == "":
            raise ParseError(f"row {i + 1}: missing value in column {name!r}")
        cells.append(row[j].strip())
    return cells


def _old_load_csv(path, schema, exclude=()):
    if "sensitive" not in schema:
        raise SchemaError("schema must name a 'sensitive' column")
    header, rows = _read_csv(path)

    columns = {name: _old_cells(rows, j, name) for j, name in enumerate(header)}

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
            kind = CONTINUOUS if _old_all_numeric(cells) else CATEGORICAL
        if kind == CONTINUOUS:
            vals = np.array([_old_parse_float(c, name, i + 1) for i, c in enumerate(cells)])
            features.append(FeatureColumn(name, CONTINUOUS, vals))
        else:
            codes, labels = _old_code_first_appearance(cells)
            features.append(FeatureColumn(name, CATEGORICAL, codes, labels))

    sens_cells = columns[sens_name]
    if sens_cells:
        codes, labels = _old_code_first_appearance([str(v) for v in sens_cells])
        sensitive = SensitiveAttribute(sens_name, codes, labels)
    else:
        sensitive = SensitiveAttribute(sens_name, np.empty(0, dtype=int), ())

    target = None
    if target_name is not None:
        target = _old_parse_target(columns[target_name], schema.get("positive"))

    return Dataset(tuple(features), sensitive, target, target_name or "Y")


def _old_all_numeric(cells):
    for c in cells:
        try:
            float(c)
        except ValueError:
            return False
    return True


def _old_parse_target(cells, positive):
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


def _old_load_predictions(path, decisions=None, scores=None):
    if decisions is None and scores is None:
        raise ValueError("name a decisions column, a scores column, or both")
    header, rows = _read_csv(path)
    out = {}
    for role, name in (("decisions", decisions), ("scores", scores)):
        if name is None:
            continue
        if name not in header:
            raise SchemaError(f"prediction column {name!r} not found in {path}")
        cells = _old_cells(rows, header.index(name), name)
        out[role] = np.array([_old_parse_float(c, name, i + 1) for i, c in enumerate(cells)])
    return PredictionSet(out.get("decisions"), out.get("scores"))


# CSV tokens as written to the file. Padding, signs, exponents, underscores,
# non-ASCII digits, nan/inf, overflow, blank cells and quoted fields (one
# holding a comma); "1,5" unquoted is two cells, which makes a row long.
_TOKENS = (
    "0", "1", "-0", "+1", " 1 ", "1.0", "0e0", "2.5", " -3.25 ", "1e3", "-1E-2", ".5", "5.",
    "1_000", "1__0", "١٢", "٣.٥", "nan", "NaN", " inf ", "-Infinity",
    "1e500", "", "  ", "a", " b ", "x y", "é", '"1,5"', '" 3 "', '"q"', '""', "0x10",
    "1,5", "True",
)
_NAMES = ("A", "B", "C", "D", "E")


@st.composite
def csv_files(draw):
    """A header, rows of mixed tokens, and a schema that may name any column."""
    header = draw(st.lists(st.sampled_from(_NAMES), min_size=1, max_size=4, unique=True))
    if draw(st.integers(0, 9)) == 0:  # a repeated name is a schema error
        header.append(header[0])
    numeric = draw(st.booleans())  # mostly-numeric cells, so columns parse
    pool = _TOKENS[:13] if numeric else _TOKENS
    token = st.one_of(
        st.sampled_from(pool),
        st.floats(allow_nan=False, allow_infinity=False).map(repr),
        st.sampled_from(("0", "1")),
    )
    width = len(header)
    rows = draw(st.lists(
        st.lists(token, min_size=width, max_size=width)
        | st.lists(token, min_size=0, max_size=width + 1),
        max_size=12,
    ))
    text = ",".join(header) + "\n" + "".join(",".join(r) + "\n" for r in rows)
    # mostly columns of the header, sometimes one it lacks
    names = st.sampled_from(header) | st.sampled_from(_NAMES)
    schema = {}
    if draw(st.integers(0, 9)) != 9:
        schema["sensitive"] = draw(names)
    if draw(st.booleans()):
        schema["target"] = draw(names)
        if draw(st.booleans()):
            schema["positive"] = draw(st.sampled_from(("1", "a", "0")))
    for key in ("continuous", "categorical"):
        if draw(st.booleans()):
            schema[key] = draw(st.lists(names, max_size=2, unique=True))
    exclude = tuple(draw(st.lists(names, max_size=2, unique=True)))
    predictions = (draw(names), draw(st.none() | names))
    if draw(st.booleans()):
        predictions = predictions[::-1]
    return text, schema, exclude, predictions


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (ValueError, KeyError) as exc:  # ParseError, SchemaError too
        return type(exc), str(exc)


def _same_floats(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.filterwarnings("ignore:dataset has 0 rows")
class TestColumnParserAgainstCellLoop:
    @pytest.fixture(scope="class")
    def path(self, tmp_path_factory):
        return tmp_path_factory.mktemp("oracle") / "d.csv"

    @settings(max_examples=600, deadline=None)
    @given(csv_files())
    @example(("A,B\n1,2\n1,\n", {"sensitive": "A"}, (), ("B", None)))
    @example(("A,B,C\n0,nan,x\n1,abc,y\n", {"sensitive": "A", "continuous": ["B"]}, (), (None, "B")))
    @example(("A,B\n0,1_000\n1, ١٢ \n", {"sensitive": "A"}, (), (None, "B")))
    @example(("A,B\nm,1.0\nf,-0\n", {"sensitive": "A", "target": "B"}, (), ("B", None)))
    @example(("A,B\nm,1\nf,2\n", {"sensitive": "A", "target": "B"}, (), (None, None)))
    @example(("A,B\n", {"sensitive": "A", "target": "B"}, (), ("B", "B")))
    @example(("A,B\n", {"sensitive": "B", "continuous": ["A"], "categorical": ["A"]}, (), ("A", None)))
    @example(("A,B\n2,x\n", {"sensitive": "B", "continuous": ["A"], "categorical": ["A"]}, (), ("A", None)))
    def test_same_dataset_or_error(self, path, case):
        text, schema, exclude, (decisions, scores) = case
        path.write_text(text, encoding="utf-8")
        want = _outcome(_old_load_csv, path, schema, exclude)
        got = _outcome(load_csv, path, schema, exclude)
        if isinstance(want, tuple):
            assert got == want
        else:
            assert isinstance(got, Dataset)
            assert len(got.features) == len(want.features)
            for g, w in zip(got.features, want.features):
                assert (g.name, g.kind, g.labels) == (w.name, w.kind, w.labels)
                assert _same_floats(g.values, w.values)
            for g, w in ((got.sensitive, want.sensitive),):
                assert (g.name, g.group_labels) == (w.name, w.group_labels)
                assert _same_floats(g.values, w.values)
            assert got.target_name == want.target_name
            assert (got.target is None) == (want.target is None)
            if want.target is not None:
                assert _same_floats(got.target, want.target)
        want = _outcome(_old_load_predictions, path, decisions, scores)
        got = _outcome(load_predictions, path, decisions, scores)
        if isinstance(want, tuple):
            assert got == want
        else:
            for role in ("decisions", "scores"):
                g, w = getattr(got, role), getattr(want, role)
                assert (g is None) == (w is None)
                if w is not None:
                    assert _same_floats(g, w)
