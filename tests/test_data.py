"""Dataset container, CSV round-trips and file writes."""

from __future__ import annotations

import os
import stat

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from csomtex import (
    DataError,
    Dataset,
    FormatError,
    UNLABELED,
    dataset_from_csv,
    dataset_to_csv,
    read_dataset,
)
from csomtex.data import format_value, require_labels, write_atomic


class TestDataset:
    def test_validation(self):
        with pytest.raises(ValueError):
            Dataset(np.zeros(3))
        with pytest.raises(ValueError):
            Dataset(np.array([[np.inf]]))
        with pytest.raises(ValueError):
            Dataset(np.zeros((2, 2)), np.array([1]))

    def test_labels_below_unlabeled_rejected(self):
        msg = r"^labels must be >= 0, or UNLABELED \(-1\) for none$"
        with pytest.raises(ValueError, match=msg):
            Dataset(np.zeros((2, 1)), np.array([0, -2]))
        assert Dataset(np.zeros((2, 1)), np.array([0, UNLABELED])).labels.tolist() == [0, -1]

    def test_class_ids_exclude_unlabeled(self):
        d = Dataset(np.zeros((4, 1)), np.array([3, UNLABELED, 0, 3]))
        assert d.class_ids.tolist() == [0, 3]
        assert not d.is_fully_labeled()
        assert Dataset(np.zeros((2, 1)), np.array([1, 1])).is_fully_labeled()

    def test_subset_and_without_labels(self):
        d = Dataset(np.arange(8, dtype=float).reshape(4, 2), np.array([0, 1, 0, 1]))
        s = d.subset([2, 0])
        np.testing.assert_array_equal(s.X, [[4.0, 5.0], [0.0, 1.0]])
        assert s.labels.tolist() == [0, 0]
        assert (d.without_labels().labels == UNLABELED).all()

    def test_require_labels(self):
        with pytest.raises(DataError):
            require_labels(Dataset(np.zeros((1, 1)), None))
        with pytest.raises(DataError):
            require_labels(Dataset(np.zeros((2, 1)), np.array([0, UNLABELED])))


class TestCsv:
    def test_layout(self):
        d = Dataset(np.array([[1.5, -2.0]]), np.array([4]))
        text = dataset_to_csv(d)
        assert text == "f0,f1,label\n1.5,-2,4\n"

    def test_unlabeled_rows_have_empty_field(self):
        d = Dataset(np.array([[1.0], [2.0]]), np.array([0, UNLABELED]))
        lines = dataset_to_csv(d).splitlines()
        assert lines[1] == "1,0"
        assert lines[2] == "2,"

    def test_fully_unlabeled_loads_as_none(self):
        d = dataset_from_csv("f0,label\n1,\n2,\n")
        assert d.labels.tolist() == [UNLABELED, UNLABELED]

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000), n=st.integers(1, 12), dim=st.integers(1, 6))
    def test_round_trip_is_exact(self, seed, n, dim):
        rng = np.random.default_rng(seed)
        X = rng.normal(scale=1e3, size=(n, dim)) * 10.0 ** rng.integers(-12, 12)
        labels = rng.integers(-1, 4, size=n)
        d = Dataset(X, None if (labels == UNLABELED).all() else labels)
        back = dataset_from_csv(dataset_to_csv(d))
        assert back == d

    @settings(max_examples=60, deadline=None)
    @given(
        dim=st.integers(1, 4),
        kind=st.sampled_from(["labeled", "unlabeled", "mixed"]),
        data=st.data(),
    )
    def test_csv_text_round_trips_byte_for_byte(self, dim, kind, data):
        value = st.floats(allow_nan=False, allow_infinity=False).map(format_value)
        label = {
            "labeled": st.integers(0, 10**6).map(str),
            "unlabeled": st.just(""),
            "mixed": st.one_of(st.just(""), st.integers(0, 10**6).map(str)),
        }[kind]
        row = st.tuples(st.lists(value, min_size=dim, max_size=dim), label)
        rows = data.draw(st.lists(row, max_size=8))
        text = ",".join([f"f{i}" for i in range(dim)] + ["label"]) + "\n"
        text += "".join(",".join(values + [lab]) + "\n" for values, lab in rows)
        d = dataset_from_csv(text)
        assert d.labels.dtype == np.int64 and d.labels.shape == (len(rows),)
        assert d.labels.tolist() == [int(lab) if lab else UNLABELED for _, lab in rows]
        assert dataset_to_csv(d) == text

    def test_17g_round_trip_extremes(self):
        vals = [0.1, 1.0 / 3.0, -0.0, 1e-308, 1.7976931348623157e308]
        for v in vals:
            assert float(format_value(v)) == v

    def test_bad_inputs(self):
        with pytest.raises(FormatError):
            dataset_from_csv("")
        with pytest.raises(FormatError):
            dataset_from_csv("a,b\n1,2\n")
        with pytest.raises(FormatError):
            dataset_from_csv("f0,label\nx,1\n")
        with pytest.raises(FormatError):
            dataset_from_csv("f0,label\n1,2.5\n")
        with pytest.raises(FormatError):
            dataset_from_csv("f0,label\n1\n")
        with pytest.raises(FormatError):
            dataset_from_csv("f0,label\nnan,1\n")

    @pytest.mark.parametrize("label", ["-1", "-2", "-10"])
    def test_negative_label_field_names_its_row(self, label):
        # "-1" is not another spelling of an empty field: UNLABELED is
        # written and read only as an empty label
        with pytest.raises(
            FormatError, match="^negative label in dataset CSV row 2; class ids must be >= 0$"
        ):
            dataset_from_csv(f"f0,label\n1,0\n2,{label}\n3,1\n")
        assert dataset_from_csv("f0,label\n1,0\n2,-0\n").labels.tolist() == [0, 0]

    @pytest.mark.parametrize(
        "text, message",
        [
            ("f0,label\n1\r2,0\n", "dataset CSV line 2 has a bare carriage return"),
            ("f0,label\n" + "1" * 200_000 + ",0\n",
             "dataset CSV line 2: field larger than field limit (131072)"),
            ("", "dataset CSV is empty"),
            ("\n\n", "dataset CSV is empty"),
            ("f0\n", "dataset CSV header must be f0,...,label"),
            ("f0,lab\n", "dataset CSV header must be f0,...,label"),
            ("f1,label\n1,0\n", "dataset CSV feature columns must be named f0..f{dim-1}"),
            ("f0,label\n1,0\n1\n", "dataset CSV row 2 has 1 fields, expected 2"),
            ("f0,label\n1,0\n1,2,3\n", "dataset CSV row 2 has 3 fields, expected 2"),
            ("f0,label\nx,1\n", "non-numeric feature in dataset CSV row 1"),
            ("f0,label\n1,2.5\n", "non-integer label in dataset CSV row 1"),
            ("f0,label\n1,9223372036854775808\n",
             "label too large in dataset CSV row 1; class ids must be < 2**63"),
            ("f0,label\n1,0\n2,-7\n",
             "negative label in dataset CSV row 2; class ids must be >= 0"),
            ("f0,label\nnan,1\n", "invalid dataset CSV: feature values must be finite"),
        ],
        ids=["bare_cr", "field_limit", "empty", "blank_lines", "one_column", "no_label_column",
             "feature_names", "short_row", "long_row", "feature", "label", "label_too_large",
             "negative_label", "nan"],
    )
    def test_malformed_input_messages(self, text, message):
        """Every message the features-CSV reader raises, word for word."""
        with pytest.raises(FormatError) as info:
            dataset_from_csv(text)
        assert str(info.value) == message

    def test_file_round_trip(self, tmp_path):
        d = Dataset(np.array([[np.pi, np.e]]), np.array([2]))
        p = tmp_path / "d.csv"
        write_atomic(p, dataset_to_csv(d))
        assert read_dataset(p) == d
        assert p.read_bytes().endswith(b"\n")


class TestAtomicWrite:
    def test_failed_write_leaves_old_target_and_no_temp_file(self, tmp_path, monkeypatch):
        target = tmp_path / "out.csv"
        target.write_text("old\n")
        # fails while encoding, before any file is opened
        with pytest.raises(UnicodeEncodeError):
            write_atomic(target, "half written\ncaf\xe9\n")

        def no_rename(src, dst):
            raise OSError("rename refused")

        # fails after the temporary file is complete
        monkeypatch.setattr(os, "replace", no_rename)
        with pytest.raises(OSError, match="rename refused"):
            write_atomic(target, "new\n")
        assert target.read_text() == "old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]

    def test_errors_name_the_target(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="'[^']*nodir/out.csv'"):
            write_atomic(tmp_path / "nodir" / "out.csv", "x\n")

    def test_replaces_target_with_plain_open_permissions(self, tmp_path):
        write_atomic(tmp_path / "a.txt", "one\n")
        write_atomic(tmp_path / "a.txt", "two\n")
        with open(tmp_path / "b.txt", "w") as fh:
            fh.write("two\n")
        assert (tmp_path / "a.txt").read_text() == "two\n"
        assert (tmp_path / "a.txt").stat().st_mode == (tmp_path / "b.txt").stat().st_mode
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.txt", "b.txt"]

    def test_replaced_file_keeps_its_mode(self, tmp_path):
        target = tmp_path / "a.txt"
        target.write_text("one\n")
        target.chmod(0o640)
        write_atomic(target, "two\n")
        assert target.read_text() == "two\n"
        assert stat.S_IMODE(target.stat().st_mode) == 0o640

    def test_symlink_is_written_through(self, tmp_path):
        real = tmp_path / "real.txt"
        real.write_text("old\n")
        link = tmp_path / "link.txt"
        link.symlink_to(real)
        write_atomic(link, "new\n")
        assert link.is_symlink()
        assert real.read_text() == "new\n"
        dangling = tmp_path / "dangling.txt"
        dangling.symlink_to(tmp_path / "made.txt")
        write_atomic(dangling, "made\n")
        assert dangling.is_symlink()
        assert (tmp_path / "made.txt").read_text() == "made\n"

    def test_special_file_is_written_through(self):
        write_atomic(os.devnull, "discarded\n")
        assert stat.S_ISCHR(os.stat(os.devnull).st_mode)
