from pathlib import Path

import numpy as np
import pytest

from safestream.data import (
    Dataset,
    load_csv,
    load_idx,
    make_synthetic,
    write_idx_images,
    write_idx_labels,
)
from safestream.errors import ConfigError, DataError
from safestream.evaluation import accuracy
from safestream.model import Architecture
from safestream.oracle import RetrainConfig, retrain


class TestIdx:
    def write_pair(self, tmp_path, images, labels):
        ip = tmp_path / "images.idx"
        lp = tmp_path / "labels.idx"
        write_idx_images(ip, images)
        write_idx_labels(lp, labels)
        return str(ip), str(lp)

    def test_round_trip_bit_identical(self, tmp_path):
        rng = np.random.default_rng(0)
        images = rng.integers(0, 256, (20, 5, 7), dtype=np.uint8)
        labels = rng.integers(0, 10, 20, dtype=np.uint8)
        ip, lp = self.write_pair(tmp_path, images, labels)
        ds = load_idx(ip, lp)
        want = images.reshape(20, 35).astype(np.float64) / 255.0
        assert np.array_equal(ds.X, want)
        assert np.array_equal(ds.y, labels.astype(np.int64))
        # loading twice is bit-identical
        again = load_idx(ip, lp)
        assert np.array_equal(ds.X, again.X)

    def test_magic_accepted_and_rejected(self, tmp_path):
        images = np.zeros((2, 3, 3), dtype=np.uint8)
        labels = np.zeros(2, dtype=np.uint8)
        ip, lp = self.write_pair(tmp_path, images, labels)
        load_idx(ip, lp)  # magic 0x00000803 / 0x00000801 accepted

        bad = tmp_path / "bad.idx"
        raw = bytearray(Path(ip).read_bytes())
        raw[3] = 0x99
        bad.write_bytes(bytes(raw))
        with pytest.raises(DataError, match="offset 0"):
            load_idx(str(bad), lp)

    def test_label_truncation_names_offset(self, tmp_path):
        images = np.zeros((10, 2, 2), dtype=np.uint8)
        labels = np.zeros(10, dtype=np.uint8)
        ip, lp = self.write_pair(tmp_path, images, labels)
        trunc = tmp_path / "trunc.idx"
        trunc.write_bytes(Path(lp).read_bytes()[: 8 + 9])  # 10 items, 9 bytes
        with pytest.raises(DataError, match="offset 17"):
            load_idx(ip, str(trunc))

    def test_pixel_truncation_names_offset(self, tmp_path):
        images = np.zeros((4, 2, 2), dtype=np.uint8)
        labels = np.zeros(4, dtype=np.uint8)
        ip, lp = self.write_pair(tmp_path, images, labels)
        trunc = tmp_path / "trunc_img.idx"
        trunc.write_bytes(Path(ip).read_bytes()[:-3])
        with pytest.raises(DataError, match="offset 29"):  # 16 + 13 of 16 bytes
            load_idx(str(trunc), lp)

    def test_count_mismatch_rejected(self, tmp_path):
        ip, _ = self.write_pair(
            tmp_path, np.zeros((3, 2, 2), dtype=np.uint8), np.zeros(3, dtype=np.uint8)
        )
        lp2 = tmp_path / "five.idx"
        write_idx_labels(lp2, np.zeros(5, dtype=np.uint8))
        with pytest.raises(DataError, match="mismatch"):
            load_idx(ip, str(lp2))


class TestCsv:
    def test_first_occurrence_label_mapping(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("f1,f2,label\n1.0,2.0,a\n3.0,4.0,b\n5.0,6.0,a\n")
        ds = load_csv(str(p), "label")
        assert ds.y.tolist() == [0, 1, 0]

    def test_constant_column_scales_to_zero(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("f1,f2,label\n7.0,1.0,0\n7.0,2.0,1\n7.0,3.0,0\n")
        ds = load_csv(str(p), "label")
        assert np.array_equal(ds.X[:, 0], np.zeros(3))
        assert ds.X[:, 1].min() == 0.0 and ds.X[:, 1].max() == 1.0

    def test_round_trip_matrix(self, tmp_path):
        rng = np.random.default_rng(1)
        X = rng.uniform(0, 1, (30, 3))
        # pin per-column min/max so min-max scaling is invertible exactly
        X[0] = 0.0
        X[1] = 1.0
        y = rng.integers(0, 3, 30)
        p = tmp_path / "t.csv"
        rows = ["a,b,c,label"]
        rows += [
            ",".join([repr(float(v)) for v in r] + [str(lab)])
            for r, lab in zip(X, y)
        ]
        p.write_text("\n".join(rows) + "\n")
        ds = load_csv(str(p), "label")
        assert np.abs(ds.X - X).max() < 1e-15

    def test_non_numeric_cell_names_row_and_column(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("f1,f2,label\n1.0,2.0,0\n1.0,oops,1\n")
        with pytest.raises(DataError, match=r"row 3.*'f2'"):
            load_csv(str(p), "label")

    @pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity", "1e400"])
    def test_non_finite_cell_names_row_and_column(self, tmp_path, cell):
        # the label column sits between the features, so the column named
        # must be the feature's own, not its position among the features
        p = tmp_path / "t.csv"
        p.write_text(f"f1,label,f2\n1.0,0,2.0\n1.0,1,2.0\n1.0,1,{cell}\n")
        with pytest.raises(DataError, match=r"non-finite.*row 4, column 'f2'"):
            load_csv(str(p), "label")

    def test_missing_label_column(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("f1,f2\n1.0,2.0\n")
        with pytest.raises(DataError, match="no column"):
            load_csv(str(p), "target")


class TestSynthetic:
    def test_wide_separation_trains_cleanly(self):
        train, _ = make_synthetic(800, 8, 2, 10.0, seed=0)
        arch = Architecture(train.dim, train.n_classes)
        params = retrain(train.X, train.y, arch, RetrainConfig(epochs=100))
        assert accuracy(params, train.X, train.y) >= 0.99

    def test_zero_separation_is_chance(self):
        train, test = make_synthetic(2000, 8, 4, 0.0, seed=0)
        arch = Architecture(train.dim, train.n_classes)
        params = retrain(train.X, train.y, arch, RetrainConfig(epochs=60))
        acc = accuracy(params, test.X, test.y)
        assert abs(acc - 0.25) < 0.1

    def test_same_seed_identical(self):
        a_train, a_test = make_synthetic(500, 8, 3, 2.0, seed=5)
        b_train, b_test = make_synthetic(500, 8, 3, 2.0, seed=5)
        assert np.array_equal(a_train.X, b_train.X)
        assert np.array_equal(a_test.ids, b_test.ids)

    def test_every_class_in_train_split(self):
        train, test = make_synthetic(300, 6, 5, 1.0, seed=2)
        assert sorted(np.unique(train.y)) == list(range(5))
        assert train.n + test.n == 300
        assert not set(train.ids) & set(test.ids)

    def test_infeasible_sizes_rejected(self):
        with pytest.raises(ConfigError):
            make_synthetic(10, 8, 5, 1.0, seed=0)
        with pytest.raises(ConfigError):
            make_synthetic(500, 3, 5, 1.0, seed=0)


class TestDataset:
    def test_unique_ids_enforced(self):
        with pytest.raises(DataError):
            Dataset(np.zeros((2, 2)), [0, 1], [3, 3])

    def test_take_still_checks_ids(self):
        train, _ = make_synthetic(200, 4, 2, 3.0, seed=0)
        with pytest.raises(DataError):
            train.take([0, 0])

    def test_id_subsetting(self):
        ds = Dataset(np.arange(10).reshape(5, 2), [0, 1, 0, 1, 0], np.arange(5))
        kept = ds.without_ids(np.array([1, 3]))
        assert kept.ids.tolist() == [0, 2, 4]
        assert kept.X.tolist() == ds.X[[0, 2, 4]].tolist()
        assert kept.y.tolist() == [0, 0, 0]
        sel = ds.select_ids(np.array([4, 0]))
        assert sorted(sel.ids.tolist()) == [0, 4]
