import csv
import json
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from mstpp.geometry import Window
from mstpp.pattern import (
    ContinuousMarks,
    LabelMarks,
    LabelSet,
    MarkedPattern,
    MarkInterval,
    full_mark_set,
    load_catalog,
    pattern_from_arrays,
    permute_marks,
    project_ground,
    rescale,
    restrict_marks,
    save_catalog,
    thin,
    write_json,
    write_table,
)

import mstpp.pattern as pattern

from .conftest import UNIT, uniform_pattern
from .oracles import load_catalog_oracle


def write_csv(path, lines):
    path.write_text("\n".join(lines) + "\n")
    return str(path)


class TestMarkSpaces:
    def test_interval_lebesgue_mass(self):
        ms = ContinuousMarks(0.0, 10.0)
        assert ms.nu(MarkInterval(2.0, 5.0)) == pytest.approx(3.0)
        assert ms.nu_total() == pytest.approx(10.0)

    def test_interval_normalized_mass(self):
        ms = ContinuousMarks(0.0, 10.0, reference="normalized")
        assert ms.nu(MarkInterval(2.0, 5.0)) == pytest.approx(0.3)
        assert ms.nu_total() == pytest.approx(1.0)

    def test_interval_empirical_mass(self):
        ms = ContinuousMarks(0.0, 1.0, reference="empirical")
        marks = np.array([0.1, 0.2, 0.6, 0.9])
        assert ms.nu(MarkInterval(0.0, 0.5), marks=marks) == pytest.approx(0.5)
        with pytest.raises(ValueError, match="observed marks"):
            ms.nu(MarkInterval(0.0, 0.5))

    def test_interval_set_clipped_to_space(self):
        ms = ContinuousMarks(0.0, 1.0)
        assert ms.nu(MarkInterval(0.5, 4.0)) == pytest.approx(0.5)

    @pytest.mark.parametrize("lo, hi", [(2.0, 1.0), (np.nan, 1.0), (0.0, np.nan),
                                        (np.nan, np.nan)])
    def test_interval_rejects_crossed_or_nan_bounds(self, lo, hi):
        # a NaN bound would select no mark yet have a positive mass
        with pytest.raises(ValueError, match="lo <= hi"):
            MarkInterval(lo, hi)

    def test_labels_counting_mass(self):
        ms = LabelMarks(k=3)
        assert ms.nu(LabelSet([1, 3])) == pytest.approx(2.0)
        assert ms.nu_total() == pytest.approx(3.0)

    def test_labels_weighted_mass(self):
        ms = LabelMarks(k=2, weights=(0.4, 0.6))
        assert ms.nu(LabelSet([2])) == pytest.approx(0.6)
        assert ms.nu_total() == pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            ContinuousMarks(1.0, 1.0)
        with pytest.raises(ValueError):
            ContinuousMarks(0.0, 1.0, reference="counting")
        with pytest.raises(ValueError):
            LabelMarks(k=1)
        with pytest.raises(ValueError):
            LabelMarks(k=2, weights=(1.0, -1.0))
        with pytest.raises(ValueError):
            LabelSet([])

    @pytest.mark.parametrize("lo, hi", [(0.0, np.inf), (-np.inf, 1.0), (np.nan, 1.0),
                                        (0.0, np.nan)])
    def test_interval_space_rejects_nonfinite_bounds(self, lo, hi):
        # an infinite bound gives an infinite total mass, so a zero K
        with pytest.raises(ValueError, match="finite lo < hi"):
            ContinuousMarks(lo, hi)

    @pytest.mark.parametrize("weights", [(np.inf, 1.0), (np.nan, 1.0), (1.0, 0.0)])
    def test_label_weights_must_be_positive_and_finite(self, weights):
        with pytest.raises(ValueError, match="positive and finite"):
            LabelMarks(2, weights=weights)

    @pytest.mark.parametrize("label", [2.5, np.float64(1.5), np.inf, np.nan])
    def test_label_set_rejects_a_label_that_is_not_whole(self, label):
        # 2.5 once named label 2, and an infinite label raised OverflowError
        with pytest.raises(ValueError, match="whole numbers"):
            LabelSet([1, label])

    def test_label_set_takes_whole_floats(self):
        # the marks are stored as floats
        assert LabelSet([1, 1.0, np.float64(2.0), np.int64(3)]).labels == {1, 2, 3}
        assert LabelSet([2]).contains(2.0) and not LabelSet([2]).contains(2.5)

    @pytest.mark.parametrize("k", [2.5, 2.0, "3", None])
    def test_label_count_must_be_whole(self, k):
        # not a TypeError from range()
        with pytest.raises(ValueError, match="whole number k >= 2"):
            LabelMarks(k)

    @pytest.mark.parametrize("space, mark_set, kinds", [
        (LabelMarks(2), MarkInterval(0.0, 1.5), "LabelMarks.*LabelSet.*MarkInterval"),
        (ContinuousMarks(0.0, 1.0), LabelSet([1]), "ContinuousMarks.*MarkInterval.*LabelSet"),
    ], ids=["labels-interval", "continuous-labels"])
    def test_mark_set_of_the_wrong_kind_rejected(self, space, mark_set, kinds):
        # once an AttributeError from the space's nu
        with pytest.raises(ValueError, match=kinds):
            space.nu(mark_set)
        p = uniform_pattern(5, seed=2, mark_space=space,
                            marks="labels" if space.is_labelled else "interval")
        with pytest.raises(ValueError, match=kinds):
            restrict_marks(p, mark_set)

    def test_full_mark_set(self):
        assert full_mark_set(LabelMarks(k=3)).labels == frozenset({1, 2, 3})
        fs = full_mark_set(ContinuousMarks(-1.0, 2.0))
        assert (fs.lo, fs.hi) == (-1.0, 2.0)


class TestConstruction:
    def test_rejects_point_outside_window(self):
        with pytest.raises(ValueError, match="inside the window"):
            pattern_from_arrays(np.array([[1.5, 0.5]]), np.array([0.5]), window=UNIT)

    def test_rejects_duplicate_location_mark(self):
        x = np.array([[0.5, 0.5], [0.5, 0.5]])
        t = np.array([0.5, 0.5])
        m = np.array([1.0, 1.0])
        with pytest.raises(ValueError, match="simple"):
            pattern_from_arrays(x, t, m, UNIT, LabelMarks(k=2))

    def test_same_location_different_mark_allowed(self):
        x = np.array([[0.5, 0.5], [0.5, 0.5]])
        t = np.array([0.5, 0.5])
        m = np.array([1.0, 2.0])
        p = pattern_from_arrays(x, t, m, UNIT, LabelMarks(k=2))
        assert p.n == 2

    def test_mark_outside_space_rejected(self):
        with pytest.raises(ValueError, match="mark"):
            pattern_from_arrays(
                np.array([[0.5, 0.5]]), np.array([0.5]), np.array([3.0]),
                UNIT, LabelMarks(k=2),
            )

    def test_marks_require_space(self):
        with pytest.raises(ValueError, match="mark space"):
            pattern_from_arrays(
                np.array([[0.5, 0.5]]), np.array([0.5]), np.array([0.3]), UNIT, None
            )

    @pytest.mark.parametrize("x, t, marks, window, mark_space, message", [
        ([[0.5, 0.5], [0.25, 0.5]], [0.5], None, UNIT, None, "one row per point"),
        ([[0.5, np.inf]], [0.5], None, UNIT, None, "coordinates must be finite"),
        ([[0.5, 0.5]], [np.nan], None, UNIT, None, "times must be finite"),
        ([[0.5, 0.5]], [0.5], None, Window(((0, 1),), (0, 1)), None, "dimension mismatch"),
        ([[0.5, 0.5]], [0.5], [1.0, 2.0], UNIT, LabelMarks(k=2), "one mark per point"),
        ([[0.5, 0.5]], [0.5], None, UNIT, LabelMarks(k=2), "mark space given but no marks"),
    ], ids=["lengths", "coordinates", "times", "dimension", "marks-length", "no-marks"])
    def test_malformed_arrays_rejected(self, x, t, marks, window, mark_space, message):
        with pytest.raises(ValueError, match=message):
            pattern_from_arrays(np.array(x), np.array(t), marks, window, mark_space)

    def test_arrays_frozen(self):
        p = uniform_pattern(5, seed=1)
        with pytest.raises(ValueError):
            p.x[0, 0] = 0.0

    def test_nu_shortcuts(self):
        p = uniform_pattern(10, seed=2, marks="labels")
        assert p.nu(LabelSet([1])) == pytest.approx(1.0)
        assert p.nu_total() == pytest.approx(2.0)
        ground = uniform_pattern(4, seed=3, marks=None)
        with pytest.raises(ValueError):
            ground.nu_total()


class TestCatalogIO:
    header = "x,y,t,mark"
    ms = ContinuousMarks(0.0, 1.0)

    def test_three_rows(self, tmp_path):
        path = write_csv(tmp_path / "cat.csv", [
            self.header, "0.1,0.2,0.3,0.5", "0.4,0.5,0.6,0.7", "0.7,0.8,0.9,0.2",
        ])
        p = load_catalog(path, UNIT, self.ms)
        assert p.n == 3
        assert p.marks[1] == pytest.approx(0.7)

    def test_row_outside_window_dropped_with_report(self, tmp_path):
        path = write_csv(tmp_path / "cat.csv", [
            self.header, "0.1,0.2,0.3,0.5", "0.4,0.5,1.6,0.7",
        ])
        with pytest.warns(UserWarning, match="1 dropped"):
            p = load_catalog(path, UNIT, self.ms)
        assert p.n == 1

    def test_duplicate_rows_collapse(self, tmp_path):
        path = write_csv(tmp_path / "cat.csv", [
            self.header, "0.1,0.2,0.3,0.5", "0.1,0.2,0.3,0.5", "0.4,0.5,0.6,0.7",
        ])
        with pytest.warns(UserWarning, match="1 duplicate"):
            p = load_catalog(path, UNIT, self.ms)
        assert p.n == 2

    def test_duplicates_by_value_collapse_to_first_in_file_order(self, tmp_path):
        # exact duplicates and rows that differ only in the sign of a zero
        # collapse to their first occurrence; a row one ulp away is kept
        path = write_csv(tmp_path / "cat.csv", [
            self.header,
            "0.1,0.2,0.3,0.5",
            "0.4,0.5,0.6,0.7",
            "0.1,0.2,0.3,0.5",
            "0.0,0.5,0.6,0.7",
            "-0.0,0.5,0.6,0.7",
            "0.1,0.2,0.3,0.5000000000000001",
            "0.7,-0.0,0.2,0.1",
            "0.4,0.5,0.6,0.7",
            "0.7,0.0,0.2,0.1",
            "0.1,0.2,0.30000000000000004,0.5",
        ])
        with pytest.warns(UserWarning, match="^4 duplicate rows collapsed$"):
            p = load_catalog(path, UNIT, self.ms)
        assert p.n == 6
        assert np.array_equal(p.marks, [0.5, 0.7, 0.7, np.nextafter(0.5, 1.0), 0.1, 0.5])
        assert np.array_equal(p.t, [0.3, 0.6, 0.6, 0.3, 0.2, np.nextafter(0.3, 1.0)])
        # the first occurrence's zero, with its sign
        assert list(np.signbit([p.x[2, 0], p.x[4, 1]])) == [False, True]
        with pytest.warns(UserWarning, match="^4 duplicate rows collapsed$"):
            want = load_catalog_oracle(path, UNIT, self.ms)
        for name in ("x", "t", "marks"):
            assert getattr(p, name).tobytes() == getattr(want, name).tobytes()

    @given(st.lists(st.tuples(*[st.sampled_from([0.0, -0.0, 0.25, 0.5])] * 3),
                    max_size=40))
    def test_first_rows_match_the_structured_unique(self, rows):
        # the rule of np.unique(rows, axis=0): field-wise float equality
        rows = np.array(rows, dtype=float).reshape(-1, 3)
        want = np.sort(np.unique(rows, axis=0, return_index=True)[1])
        assert np.array_equal(pattern._first_rows(rows), want)
        # each row's group is its first row's position, in first-occurrence order
        first, group = pattern._first_rows(rows, groups=True)
        assert np.array_equal(first, want) and np.array_equal(group[first], np.arange(want.size))
        assert np.array_equal(rows[first][group], rows)

    def test_malformed_row_reports_line(self, tmp_path):
        path = write_csv(tmp_path / "cat.csv", [
            self.header, "0.1,0.2,0.3,0.5", "0.4,oops,0.6,0.7",
        ])
        with pytest.raises(ValueError, match="line 3"):
            load_catalog(path, UNIT, self.ms)

    def test_wrong_field_count_reports_line(self, tmp_path):
        path = write_csv(tmp_path / "cat.csv", [self.header, "0.1,0.2,0.3"])
        with pytest.raises(ValueError, match="line 2"):
            load_catalog(path, UNIT, self.ms)

    def test_wrong_header_rejected(self, tmp_path):
        path = write_csv(tmp_path / "cat.csv", ["a,b,c,d", "0.1,0.2,0.3,0.5"])
        with pytest.raises(ValueError, match="header"):
            load_catalog(path, UNIT, self.ms)

    def test_empty_catalog_rejected(self, tmp_path):
        path = write_csv(tmp_path / "cat.csv", [self.header])
        with pytest.raises(ValueError, match="empty"):
            load_catalog(path, UNIT, self.ms)

    def test_label_marks_parse(self, tmp_path):
        path = write_csv(tmp_path / "cat.csv", [
            self.header, "0.1,0.2,0.3,1", "0.4,0.5,0.6,2",
        ])
        p = load_catalog(path, UNIT, LabelMarks(k=2))
        assert list(p.marks) == [1.0, 2.0]

    def test_round_trip(self, tmp_path):
        p = uniform_pattern(30, seed=9)
        path = tmp_path / "out.csv"
        save_catalog(p, path)
        q = load_catalog(str(path), p.window, p.mark_space)
        assert np.array_equal(p.x, q.x)
        assert np.array_equal(p.t, q.t)
        assert np.array_equal(p.marks, q.marks)

    def test_round_trip_3d(self, tmp_path):
        # the header follows the window's dimension on both sides
        window = Window(((0.0, 1.0), (0.0, 2.0), (-1.0, 1.0)), (0.0, 1.0))
        rng = np.random.default_rng(12)
        x = rng.uniform([0.0, 0.0, -1.0], [1.0, 2.0, 1.0], (25, 3))
        p = pattern_from_arrays(x, rng.random(25), rng.random(25), window, self.ms)
        path = tmp_path / "out.csv"
        save_catalog(p, path)
        assert path.read_text().splitlines()[0] == "x1,x2,x3,t,mark"
        q = load_catalog(path, window, self.ms)
        assert np.array_equal(p.x, q.x)
        assert np.array_equal(p.t, q.t)
        assert np.array_equal(p.marks, q.marks)

    @pytest.mark.parametrize("first", ["0.1,0.2,0.3,0.5", '0.1,"0.2",0.3,0.5'],
                             ids=["plain", "quoted"])
    @pytest.mark.parametrize("kind", ["nan", "inf", "-Infinity"])
    def test_non_finite_row_is_malformed(self, tmp_path, first, kind):
        # a NaN or infinite value makes its row malformed, whichever parser
        # reads the body (a quoted field sends it to the csv loop)
        path = write_csv(tmp_path / "cat.csv", [
            self.header, first, f"0.4,{kind},0.6,0.7", "0.7,0.8,0.9,0.2",
        ])
        with pytest.raises(ValueError) as info:
            load_catalog(path, UNIT, self.ms)
        assert str(info.value) == f"line 3: values must be finite, got '0.4,{kind},0.6,0.7'"

    @pytest.mark.parametrize("body, reads", [
        (["0.1,0.2,0.3,0.5", "", "0.4,0.5,0.6,0.7", ""], "plain"),
        (["0.1,0.2,0.3,0.5", "0.1,0.2,0.3,0.5", "0.4,0.5,1.6,0.7"], "plain"),
        ([" 0.1 ,\t0.2,+0.3,.5", "4e-1,0.5,0.6,7E-1"], "plain"),
        (["0.1,0.2,0.3,0.5", "   ", "0.4,0.5,0.6,0.7"], "csv"),
        (["0.1,0.2,0.3,0.5", "\t"], "csv"),
        (['0.1,"0.2",0.3,0.5', "0.4,0.5,0.6,0.7"], "csv"),
        (['0.1,"0,2",0.3,0.5'], "csv"),
        (["0.1,0.2,0.3,0.5", "0.4,0.5,0.6,0.7", "1_0e-1,0.2,0.3,0.5"], "csv"),
        (["0.1,0.2,0.3,0.5", "# a comment"], "csv"),
        (["0.1,0.2,0.3,0.5", "0.4,0.5,0.6,0.7,"], "csv"),
        (["0.1,0.2,0.3,0.5", "0.4,,0.6,0.7"], "csv"),
        (["0.1,0.2,0.3,0.5", "0.4,0.5,0.6"], "csv"),
        (["0.1,0.2,0.3,0.5", "0.4,0.5,0.6,\x1c0.7"], "csv"),
        (["0.1,0.2,0.3,0.5", "0.4,\u20030.5,0.6,0.7"], "csv"),
        ([], "csv"),
        (["", ""], "csv"),
    ], ids=["blank-lines", "dropped-and-duplicate", "spaces-signs-exponents", "whitespace-line",
            "tab-line", "quoted-field", "quoted-comma", "underscore", "comment", "trailing-comma",
            "empty-field", "short-row", "control-character", "unicode-space", "header-only",
            "blank-only"])
    @pytest.mark.parametrize("newline", ["\n", "\r\n"])
    def test_edge_cases_match_the_row_by_row_reader(self, monkeypatch, tmp_path, body, reads,
                                                    newline):
        # the pattern bits and warnings, or the exact message, of the
        # reference reader; a plain body is read by np.loadtxt, any other by
        # the csv loop. save_catalog writes CRLF line ends
        path = tmp_path / "cat.csv"
        path.write_bytes(newline.join([self.header] + body + [""]).encode())
        loops, csv_rows = [], pattern._csv_rows
        monkeypatch.setattr(pattern, "_csv_rows", lambda *a: loops.append(1) or csv_rows(*a))
        with warnings.catch_warnings(record=True) as want_warned:
            warnings.simplefilter("always")
            try:
                want = load_catalog_oracle(path, UNIT, self.ms)
            except ValueError as exc:
                want = exc
        with warnings.catch_warnings(record=True) as got_warned:
            warnings.simplefilter("always")
            try:
                got = load_catalog(path, UNIT, self.ms)
            except ValueError as exc:
                got = exc
        assert [str(w.message) for w in got_warned] == [str(w.message) for w in want_warned]
        assert all(w.category is UserWarning for w in got_warned)
        assert len(loops) == (reads == "csv")
        if isinstance(want, ValueError):
            assert isinstance(got, ValueError) and str(got) == str(want)
            return
        for name in ("x", "t", "marks"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
            assert not getattr(got, name).flags.writeable, name

    def test_saved_catalog_reads_back_through_either_parser(self, monkeypatch, tmp_path):
        # a catalog as save_catalog writes it (CRLF, full-precision floats)
        # reads back with the bits of the pattern and of the reference
        # reader, by np.loadtxt; with one field quoted, by the csv loop
        p = uniform_pattern(500, seed=11, marks="labels")
        path = tmp_path / "cat.csv"
        save_catalog(p, path)
        lines = path.read_bytes().decode().split("\r\n")
        assert len(lines) == p.n + 2 and lines[-1] == ""
        lines[1] = '"' + lines[1].replace(",", '",', 1)
        quoted = tmp_path / "quoted.csv"
        quoted.write_bytes("\r\n".join(lines).encode())
        loops, csv_rows = [], pattern._csv_rows
        monkeypatch.setattr(pattern, "_csv_rows", lambda *a: loops.append(1) or csv_rows(*a))
        want = load_catalog_oracle(path, UNIT, LabelMarks(2))
        for source, by_csv in ((path, 0), (quoted, 1)):
            got = load_catalog(source, UNIT, LabelMarks(2))
            assert len(loops) == by_csv
            for name in ("x", "t", "marks"):
                assert getattr(got, name).tobytes() == getattr(p, name).tobytes(), name
                assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name

    def test_save_requires_marks(self, tmp_path):
        ground = uniform_pattern(3, seed=4, marks=None)
        with pytest.raises(ValueError, match="unmarked"):
            save_catalog(ground, tmp_path / "out.csv")


class TestWriters:
    def test_table_floats_read_back_exactly_and_integers_stay_integers(self, tmp_path):
        rng = np.random.default_rng(8)
        floats = np.concatenate([
            rng.standard_normal(40) * 10.0 ** rng.integers(-300, 290, 40),
            [0.1, 1 / 3, -0.0, 5e-324, np.inf, -np.inf, np.nan],
        ])
        n = floats.size
        ints = np.arange(n) - 20
        flags = np.arange(n) % 3 == 0
        singles = rng.standard_normal(n).astype(np.float32)
        scalars = [np.float64(v) for v in floats]  # not written as "np.float64(...)"
        path = tmp_path / "t.csv"
        write_table(path, ["f", "f32", "s", "i", "b"],
                    [floats, singles, scalars, ints, flags])
        assert path.read_bytes().count(b"\r\n") == n + 1
        with open(path, newline="") as fh:
            header, *rows = csv.reader(fh)
        assert header == ["f", "f32", "s", "i", "b"]
        f, f32, s, i, b = (list(col) for col in zip(*rows))
        back = np.array(f, dtype=float)
        assert np.array_equal(back, floats, equal_nan=True)
        assert np.array_equal(np.signbit(back), np.signbit(floats))
        assert s == f
        assert np.array_equal(np.array(f32, dtype=float), singles)
        assert i == [str(v) for v in ints]
        assert b == ["1" if v else "0" for v in flags]

    def test_table_columns_must_have_one_length(self, tmp_path):
        with pytest.raises(ValueError):
            write_table(tmp_path / "t.csv", ["a", "b"], [[1.0, 2.0], [3.0]])

    def test_json_sorted_indented_with_final_newline(self, tmp_path):
        doc = {"b": [1, 2.5], "a": {"z": None, "y": "text"}}
        path = tmp_path / "d.json"
        write_json(path, doc)
        assert path.read_text() == json.dumps(doc, indent=2, sort_keys=True) + "\n"

    def test_json_writes_numpy_values_as_plain_json(self, tmp_path):
        write_json(tmp_path / "d.json", {"a": np.array([0.25]), "n": np.int64(3),
                                         "k": {2: np.float32(0.5)}, "s": LabelSet((1,))})
        plain = {"a": [0.25], "n": 3, "k": {"2": 0.5}, "s": str(LabelSet((1,)))}
        assert (tmp_path / "d.json").read_text() == json.dumps(plain, indent=2, sort_keys=True) + "\n"


class TestRescale:
    def test_identity(self):
        p = uniform_pattern(10, seed=11)
        q = rescale(p, 1.0, 1.0)
        assert np.array_equal(p.x, q.x) and np.array_equal(p.t, q.t)
        assert q.window == p.window

    def test_point_example(self):
        p = pattern_from_arrays(
            np.array([[0.2, 0.4]]), np.array([0.5]), np.array([0.3]),
            UNIT, ContinuousMarks(0.0, 1.0),
        )
        q = rescale(p, 2.0, 10.0)
        assert q.x[0] == pytest.approx([0.4, 0.8])
        assert q.t[0] == pytest.approx(5.0)
        assert q.marks[0] == pytest.approx(0.3)
        assert q.window.spatial == ((0.0, 2.0), (0.0, 2.0))
        assert q.window.temporal == (0.0, 10.0)

    def test_round_trip_within_1e12(self):
        p = uniform_pattern(40, seed=12)
        q = rescale(rescale(p, 3.7, 0.21), 1.0 / 3.7, 1.0 / 0.21)
        assert np.allclose(q.x, p.x, atol=1e-12)
        assert np.allclose(q.t, p.t, atol=1e-12)

    def test_nonpositive_factor_rejected(self):
        p = uniform_pattern(3, seed=13)
        with pytest.raises(ValueError):
            rescale(p, 0.0, 1.0)


class TestRestrictAndProject:
    def test_interval_restriction(self):
        p = pattern_from_arrays(
            np.array([[0.1, 0.1], [0.2, 0.2], [0.3, 0.3]]),
            np.array([0.1, 0.2, 0.3]),
            np.array([0.2, 0.7, 0.9]),
            UNIT, ContinuousMarks(0.0, 1.0),
        )
        q = restrict_marks(p, MarkInterval(0.0, 0.5))
        assert q.n == 1 and q.marks[0] == pytest.approx(0.2)

    def test_full_space_is_identity(self):
        p = uniform_pattern(15, seed=14)
        q = restrict_marks(p, full_mark_set(p.mark_space))
        assert np.array_equal(p.x, q.x) and np.array_equal(p.marks, q.marks)

    def test_label_restriction(self):
        p = pattern_from_arrays(
            np.array([[0.1, 0.1], [0.2, 0.2], [0.3, 0.3]]),
            np.array([0.1, 0.2, 0.3]),
            np.array([1.0, 2.0, 1.0]),
            UNIT, LabelMarks(k=2),
        )
        assert restrict_marks(p, LabelSet([1])).n == 2

    def test_split_recovers_pattern(self):
        p = uniform_pattern(25, seed=15)
        low = restrict_marks(p, MarkInterval(0.0, 0.5))
        high = restrict_marks(p, MarkInterval(0.5, 1.0, closed_lo=False))
        assert low.n + high.n == p.n
        together = np.sort(np.concatenate([low.marks, high.marks]))
        assert np.array_equal(together, np.sort(p.marks))

    def test_project_ground(self):
        p = uniform_pattern(10, seed=16, marks="labels")
        g = project_ground(p)
        assert not g.is_marked and g.n == p.n
        g1 = project_ground(p, LabelSet([1]))
        assert g1.n == int(np.sum(p.marks == 1.0))


class TestThin:
    def test_determinism(self):
        p = uniform_pattern(200, seed=17)
        a, b = thin(p, 0.5, seed=99), thin(p, 0.5, seed=99)
        assert np.array_equal(a.x, b.x) and np.array_equal(a.marks, b.marks)

    def test_near_one_retention_keeps_everything(self):
        p = uniform_pattern(100, seed=18)
        assert thin(p, 1.0 - 1e-9, seed=0).n == p.n

    def test_retention_bounds(self):
        p = uniform_pattern(5, seed=19)
        for bad in (0.0, 1.0, -0.2, 1.3):
            with pytest.raises(ValueError):
                thin(p, bad)

    def test_binomial_counts(self):
        p = uniform_pattern(1000, seed=20)
        counts = np.array([thin(p, 0.5, seed=s).n for s in range(300)])
        sigma = np.sqrt(1000 * 0.25)
        # each draw inside a generous binomial band, the mean much tighter
        assert np.all(np.abs(counts - 500) < 4.5 * sigma)
        assert abs(counts.mean() - 500) < 3 * sigma / np.sqrt(300)

    def test_marks_travel_with_points(self):
        p = uniform_pattern(50, seed=21, marks="labels")
        q = thin(p, 0.4, seed=7)
        keep = np.random.default_rng(7).random(p.n) < 0.4
        assert np.array_equal(q.marks, p.marks[keep])


class TestPermuteMarks:
    def test_multiset_preserved_locations_fixed(self):
        p = uniform_pattern(30, seed=22)
        q = permute_marks(p, seed=1)
        assert np.array_equal(q.x, p.x) and np.array_equal(q.t, p.t)
        assert np.array_equal(np.sort(q.marks), np.sort(p.marks))

    def test_two_point_swap_frequency(self):
        p = pattern_from_arrays(
            np.array([[0.2, 0.2], [0.8, 0.8]]), np.array([0.2, 0.8]),
            np.array([1.0, 2.0]), UNIT, LabelMarks(k=2),
        )
        swaps = sum(permute_marks(p, seed=s).marks[0] == 2.0 for s in range(10_000))
        # binomial(10^4, 1/2): 3 sigma = 150
        assert abs(swaps - 5000) < 150

    def test_too_small_pattern_rejected(self):
        p = pattern_from_arrays(
            np.array([[0.5, 0.5]]), np.array([0.5]), np.array([1.0]),
            UNIT, LabelMarks(k=2),
        )
        with pytest.raises(ValueError):
            permute_marks(p)

    def test_distinct_locations_checked_once(self, monkeypatch):
        # permuting marks over distinct locations cannot make two points
        # coincide, so only the source pattern's first permutation checks
        p = uniform_pattern(40, seed=23, marks="labels")
        first = permute_marks(p, seed=1)

        def no_unique(*args, **kwargs):
            raise AssertionError("simplicity re-checked")

        monkeypatch.setattr(np, "unique", no_unique)
        q = permute_marks(p, seed=1)
        monkeypatch.undo()
        full = MarkedPattern(q.x, q.t, q.marks, q.window, q.mark_space)
        for a, b, c in ((q.x, first.x, full.x), (q.t, first.t, full.t),
                        (q.marks, first.marks, full.marks)):
            assert np.array_equal(a, b) and np.array_equal(a, c)
            assert not a.flags.writeable
        assert not np.shares_memory(q.x, p.x) and not np.shares_memory(q.t, p.t)
        assert not np.shares_memory(q.marks, p.marks)


class TestSimplenessInvariant:
    @given(st.integers(min_value=2, max_value=40), st.integers(min_value=0, max_value=10_000))
    def test_transformers_preserve_simpleness(self, n, seed):
        p = uniform_pattern(n, seed=seed)
        for q in (rescale(p, 2.0, 0.5), permute_marks(p, seed=seed),
                  thin(p, 0.7, seed=seed)):
            rows = np.column_stack([q.x, q.t] if q.marks is None else [q.x, q.t, q.marks])
            if rows.shape[0] > 1:
                assert np.unique(rows, axis=0).shape[0] == rows.shape[0]
