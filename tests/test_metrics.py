import csv
import math

import numpy as np
import pytest

from antnav import (AggregateStats, EmptyRuns, RunMetrics, RunStatus, aggregate,
                    corner_count, path_length)
from antnav.metrics import fmt, write_csv, write_summary

TRAJECTORY_HEADER = ["cycle", "x", "y", "psi", "dist_to_goal"]


def metrics_of(length, corners, status=RunStatus.GOAL_REACHED):
    return RunMetrics(length, corners, 10, (5.0, 0.1), ((1.0,),), status, 12.0)


class TestAggregate:
    def test_reported_pair(self):
        stats = aggregate([metrics_of(78.84, 28), metrics_of(88.68, 35)])
        pl = stats["path_length"]
        assert pl.best == 78.84 and pl.worst == 88.68
        assert abs(pl.average - 83.76) < 1e-12

    def test_single_run_collapses(self):
        stats = aggregate([metrics_of(12.5, 4)])
        for m in stats.values():
            assert m.best == m.worst == m.average

    def test_matches_independent_recomputation(self):
        rng = np.random.default_rng(12)
        runs = [metrics_of(float(rng.uniform(10, 100)), int(rng.integers(0, 50)))
                for _ in range(10)]
        stats = aggregate(runs)
        lens = [r.path_length for r in runs]
        corns = [float(r.corners) for r in runs]
        assert stats["path_length"] == AggregateStats(min(lens), max(lens), sum(lens) / 10)
        assert stats["corners"] == AggregateStats(min(corns), max(corns), sum(corns) / 10)

    def test_empty_rejected(self):
        with pytest.raises(EmptyRuns):
            aggregate([])


class TestTrajectoryStats:
    def test_corner_count_45_and_90_alike(self):
        pts = [(0, 0), (1, 0), (2, 1), (3, 1), (3, 2)]
        assert corner_count(pts) == 3

    def test_zero_length_steps_skipped(self):
        pts = [(0, 0), (1, 0), (1, 0), (2, 0)]
        assert corner_count(pts) == 0
        assert abs(path_length(pts) - 2.0) < 1e-12

    def test_path_length_diagonals(self):
        pts = [(0, 0), (1, 1), (2, 2), (3, 2)]
        assert abs(path_length(pts) - (2 * math.sqrt(2) + 1)) < 1e-12


class TestWriters:
    def test_trajectory_csv_shape(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, TRAJECTORY_HEADER, [(0, 1.5, 2.5, 0.0, 9.0), (1, 3.0, 2.5, 0.5, 7.5)])
        rows = list(csv.reader(path.open()))
        assert rows[0] == TRAJECTORY_HEADER
        assert rows[1] == ["0", "1.5", "2.5", "0.0", "9.0"]
        assert len(rows) == 3

    def test_distance_csv(self, tmp_path):
        path = tmp_path / "d.csv"
        write_csv(path, ["cycle", "dist_to_goal"], enumerate([4.0, 3.0, 2.0]))
        rows = list(csv.reader(path.open()))
        assert rows[1:] == [["0", "4.0"], ["1", "3.0"], ["2", "2.0"]]

    def test_aggregate_csv(self, tmp_path):
        path = tmp_path / "a.csv"
        stats = aggregate([metrics_of(10.0, 2), metrics_of(20.0, 8)])
        write_csv(path, ["group", "metric", "best", "worst", "average"],
                  [("g", name, s.best, s.worst, s.average) for name, s in stats.items()])
        rows = list(csv.reader(path.open()))
        assert rows[0] == ["group", "metric", "best", "worst", "average"]
        assert rows[1] == ["g", "path_length", "10.0", "20.0", "15.0"]
        assert rows[2] == ["g", "corners", "2.0", "8.0", "5.0"]

    def test_summary_key_value_lines(self, tmp_path):
        path = tmp_path / "s.txt"
        write_summary(path, {"status": "goal_reached", "cycles": 12, "length_m": 34.5})
        text = path.read_text()
        assert text == "status: goal_reached\ncycles: 12\nlength_m: 34.5\n"

    def test_byte_identical_on_rewrite(self, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        rows = [(0, 1.0 / 3.0, 2.0 / 7.0, 0.1, 5.5)]
        write_csv(p1, TRAJECTORY_HEADER, rows)
        write_csv(p2, TRAJECTORY_HEADER, rows)
        assert p1.read_bytes() == p2.read_bytes()
        assert p1.read_bytes() == (b"cycle,x,y,psi,dist_to_goal\n"
                                   b"0,0.3333333333333333,0.2857142857142857,0.1,5.5\n")

    def test_every_value_in_fmt_form(self, tmp_path):
        path = tmp_path / "f.csv"
        write_csv(path, ["a", "b", "c", "d"], [("x,y", 3, 0.1 + 0.2, 2.0)])
        assert path.read_bytes() == b'a,b,c,d\n"x,y",3,0.30000000000000004,2.0\n'

    def test_rows_go_to_csv_as_they_are(self, tmp_path):
        # csv writes a float by repr and any other value by str, which is fmt's
        # rule, so write_csv hands it each row unconverted. Two values differ,
        # and no CLI row holds either: None ('' against fmt's 'None') and a
        # numpy float, which csv writes as the float it is
        values = [7, -3, "x,y", True, False, -0.0, 5e-324, 0.1 + 0.2, math.inf, -math.inf,
                  math.nan]
        direct, by_fmt = tmp_path / "direct.csv", tmp_path / "fmt.csv"
        write_csv(direct, ["value"], [(v,) for v in values])
        with open(by_fmt, "w", newline="", encoding="utf-8") as f:
            w = csv.writer(f, lineterminator="\n")
            w.writerow(["value"])
            w.writerows([fmt(v)] for v in values)
        assert direct.read_bytes() == by_fmt.read_bytes()
        write_csv(direct, ["value"], [(None, np.float64(0.1))])
        assert direct.read_bytes() == b'value\n,0.1\n'
        assert (fmt(None), fmt(np.float64(0.1))) == ("None", "np.float64(0.1)")
