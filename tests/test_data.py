import numpy as np
import pytest

from fairaudit.data import (
    CATEGORICAL,
    CONTINUOUS,
    Dataset,
    FeatureColumn,
    ParseError,
    PredictionSet,
    SchemaError,
    SensitiveAttribute,
    intersect_sensitive,
    load_csv,
    load_predictions,
    load_schema,
    quantile_bin,
    split,
)


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

    def test_already_categorical_rejected(self):
        ds = toy_dataset(10)
        binned = quantile_bin(ds, "x", bins=2)
        with pytest.raises(ValueError):
            quantile_bin(binned, "x", bins=2)
