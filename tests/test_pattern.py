import csv
import json

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

from .conftest import UNIT, uniform_pattern


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
