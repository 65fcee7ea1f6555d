import math

import numpy as np
import pytest

import qcanary as qc


def test_iris_default_subset():
    ds = qc.load_iris_binary()
    assert ds.size == 100
    assert ds.feature_count == 4
    assert ds.class_names == ("setosa", "versicolor")
    assert (ds.labels == 0).sum() == 50 and (ds.labels == 1).sum() == 50
    assert ds.features.min() >= 0.0 and ds.features.max() <= 1.0
    # min-max scaling touches both endpoints in every column
    assert np.allclose(ds.features.min(axis=0), 0.0)
    assert np.allclose(ds.features.max(axis=0), 1.0)


def test_iris_other_pair():
    ds = qc.load_iris_binary(("versicolor", "virginica"))
    assert ds.size == 100
    assert ds.class_names == ("versicolor", "virginica")


def _write(tmp_path, text):
    path = tmp_path / "data.csv"
    path.write_text(text)
    return str(path)


def test_load_csv_basic(tmp_path):
    path = _write(tmp_path, "a,b,cls\n0.1,2.0,x\n0.9,4.0,y\n0.5,3.0,x\n")
    ds = qc.load_csv(path, "cls")
    assert ds.size == 3
    assert ds.feature_count == 2
    assert ds.class_names == ("x", "y")  # sorted order maps x -> 0
    assert list(ds.labels) == [0, 1, 0]


def test_load_csv_reports_malformed_lines(tmp_path):
    path = _write(tmp_path, "a,cls\n0.1,x\nnot_a_number,y\n0.3,x\n,y\n")
    with pytest.raises(ValueError) as err:
        qc.load_csv(path, "cls")
    assert "3" in str(err.value) and "5" in str(err.value)
    # float() parses nan and inf, and scaling would turn their column to NaN
    for cell in ("nan", "inf"):
        path = _write(tmp_path, f"a,cls\n0.1,x\n{cell},y\n0.3,x\n")
        with pytest.raises(ValueError, match="finite"):
            qc.load_csv(path, "cls")


def test_load_csv_class_filtering(tmp_path):
    text = "a,cls\n" + "".join(f"0.{i},{c}\n" for i, c in
                               enumerate(["x", "y", "z", "x", "y", "z"]))
    path = _write(tmp_path, text)
    with pytest.raises(ValueError):
        qc.load_csv(path, "cls")  # three classes, no filter
    ds = qc.load_csv(path, "cls", keep_classes=("z", "x"))
    assert ds.size == 4
    assert ds.class_names == ("z", "x")
    assert list(ds.labels) == [1, 0, 1, 0]  # z first -> label 0


def test_load_csv_missing_label_column(tmp_path):
    path = _write(tmp_path, "a,b\n0.1,0.2\n")
    with pytest.raises(ValueError):
        qc.load_csv(path, "cls")


def test_constant_column_scales_to_zero(tmp_path):
    path = _write(tmp_path, "a,b,cls\n5.0,1.0,x\n5.0,2.0,y\n")
    ds = qc.load_csv(path, "cls")
    assert np.allclose(ds.features[:, 0], 0.0)


def test_synth_gaussians(rng):
    ds = qc.synth_gaussians(3, 40, 2.0, rng)
    assert ds.size == 80
    assert ds.feature_count == 3
    assert (ds.labels == 0).sum() == 40
    assert ds.features.min() >= 0.0 and ds.features.max() <= 1.0
    again = qc.synth_gaussians(3, 40, 2.0, np.random.default_rng(20260816))
    assert np.array_equal(ds.features, again.features)
    with pytest.raises(ValueError, match="finite"):
        qc.synth_gaussians(3, 40, math.nan, rng)


def test_synth_separation_separates():
    rng = np.random.default_rng(1)
    ds = qc.synth_gaussians(2, 200, 6.0, rng)
    mean0 = ds.features[ds.labels == 0].mean(axis=0)
    mean1 = ds.features[ds.labels == 1].mean(axis=0)
    assert np.linalg.norm(mean1 - mean0) > 0.5
