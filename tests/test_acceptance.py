"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and measured values.
"""
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from antnav import (AcoMode, AcoParams, CostWeights, NoPathFound, PlannerKind, Pose, RunStatus,
                    WorldMap, corner_heuristic, run)
from antnav.aco import heuristic_weights
from antnav.geometry import DIR_ANGLES, DIR_OFFSETS, SQRT2
from antnav.scenario import parse_groups, parse_scenario, with_planner, with_seed, with_weights

from oracles import (corner_ref, dijkstra_ref, heuristic_ref, neighbors_ref, normalize_ref,
                     plan_subpath_ref, polar_ref, raw_constraints_ref, scan_ref, score_ref,
                     step_lengths_ref, transition_ref, without_cells)
from probes import kernel_hits, kernel_ranking, kernel_run, kernel_transition, random_field_state
from stages import CellState, GridGraph, perceive, plan_subpath

REPO = Path(__file__).resolve().parent.parent
SCENARIOS = REPO / "scenarios"

TOL = 1e-12


def report(criterion, desc, ok, detail=""):
    verdict = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {criterion} ({desc}): {verdict}"
          + (f" - {detail}" if detail else ""))
    assert ok, f"criterion {criterion}: {detail}"


class TestCriterion1:
    def test_formula_conformance(self):
        rng = np.random.default_rng(1001)
        worst = 0.0

        def track(a, b):
            nonlocal worst
            err = abs(a - b) / max(1.0, abs(a), abs(b))
            worst = max(worst, err)
            return err <= TOL

        ok = True
        # the scan and its rasterize as the kernel's perceive runs them: every
        # hit's (d, theta), turned into a world point by polar_ref, lies in
        # the cell the ray hit (to 1e-9 cells), and the grid marks that cell
        # occupied (local (0, 0) is world cell (3, 3) here)
        hits = 0
        for _ in range(1000):
            static = rng.random((15, 15)) < 0.2
            static[7, 7] = False
            world = WorldMap(static, 1.0)
            pose = Pose(7.5, 7.5, float(rng.uniform(-9, 9)))
            grid = perceive(world, pose, 4.0, 90, 1.0, 4, 0)
            samples = scan_ref(static, 1.0, pose.x, pose.y, pose.psi, 4.0, 90)
            ok &= kernel_hits(world, pose, 4.0, 90) == without_cells(samples)
            for d, theta, (r, c) in samples:
                x, y = polar_ref(pose.x, pose.y, pose.psi, d, theta)
                ok &= c - 1e-9 <= x <= c + 1 + 1e-9 and r - 1e-9 <= y <= r + 1 + 1e-9
                inside = 3 <= r <= 11 and 3 <= c <= 11
                ok &= inside and grid.cells[r - 3, c - 3] == CellState.OCCUPIED
                hits += 1
        ok &= hits > 0
        # the sub-goal constraints, families and costs as the kernel's ranking
        # (the planning cycle's) writes them
        for _ in range(1000):
            robot = Pose(rng.uniform(-10, 10), rng.uniform(-10, 10), rng.uniform(-7, 7))
            cell = (rng.uniform(-10, 10), rng.uniform(-10, 10))
            goal = (rng.uniform(-10, 10), rng.uniform(-10, 10))
            _, raw, _ = kernel_ranking([cell], robot, goal)
            for g, r in zip(raw[:, 0].tolist(),
                            raw_constraints_ref((robot.x, robot.y, robot.psi), cell, goal)):
                ok &= track(g, r)
        for _ in range(1000):
            robot = Pose(rng.uniform(-10, 10), rng.uniform(-10, 10), rng.uniform(-7, 7))
            goal = (rng.uniform(-10, 10), rng.uniform(-10, 10))
            points = rng.uniform(-10, 10, (rng.integers(1, 30), 2)).tolist()
            if rng.random() < 0.05:
                points = [goal] * len(points)  # an all-zero distance family
            w = CostWeights(*rng.uniform(0.1, 5.0, 3).tolist())
            ranked, raw, norm = kernel_ranking(points, robot, goal, w)
            refs = [normalize_ref(family) for family in raw.tolist()]
            for got, ref in zip(norm.tolist(), refs):
                for g, r in zip(got, ref):
                    ok &= track(g, r)
            nds, nt1, nt2 = refs
            for sg in ranked:
                i = sg.cell[0]
                ok &= track(sg.cost, w.beta * nt1[i] + w.alpha * nds[i] + w.omega * nt2[i])
        # the heuristic, heuristic_weights' (1 / step) ** gamma of the cell size's step
        # lengths as the kernel computes it from gamma (at gamma 1, the heuristic
        # itself), and the corner factor of the kernel's table
        for _ in range(1000):
            i = (int(rng.integers(0, 40)), int(rng.integers(0, 40)))
            d = int(rng.integers(0, 8))
            j = (i[0] + DIR_OFFSETS[d][0], i[1] + DIR_OFFSETS[d][1])
            cs = float(rng.uniform(0.1, 3.0))
            ok &= track(heuristic_weights(step_lengths_ref(cs), 1.0)[d], heuristic_ref(i, j, cs))
            prev = float(rng.uniform(-math.pi, math.pi)) if rng.random() > 0.2 else None
            ok &= track(corner_heuristic(prev, i, j), corner_ref(prev, i, j))
        # the score: plan_subpath's last series value is the best path's score
        for k in range(1000):
            dl = float(rng.uniform(0, 2)); zt = float(rng.uniform(0.01, 2))
            graph = GridGraph(np.ones((4, 4), bool), float(rng.uniform(0.5, 2.0)))
            params = AcoParams(gamma=1.0, delta=dl, zeta=zt, n_ants=4, n_iters=2)
            path, series = plan_subpath(graph, (0, 0), (3, int(rng.integers(0, 4))),
                                        params, k)
            ok &= track(series[-1], score_ref(path.length, path.corners, dl, zt))

        # the transition: the kernel's weights combined as its walk() combines them
        checked = 0
        while checked < 1000:
            case = random_field_state(rng)
            if case is None:
                continue
            tau, graph, cell, tabu, prev = case
            mode = AcoMode.IMPROVED if rng.random() < 0.5 else AcoMode.CONVENTIONAL
            params = AcoParams(phi=float(rng.uniform(0.5, 2.0)),
                               gamma=float(rng.uniform(0.5, 6.0)), mode=mode)
            dist = kernel_transition(tau, graph, cell, tabu, prev, params)
            nbr_cells = [j for _, j in neighbors_ref(graph.mask, cell)]
            ref = transition_ref(tau, graph.cols, nbr_cells, tabu,
                                 None if prev < 0 else DIR_ANGLES[prev], cell, params.phi,
                                 params.gamma, graph.cell_size, mode is AcoMode.IMPROVED)
            ok &= dist.keys() == ref.keys()
            for c, p in dist.items():
                ok &= track(p, ref[c])
            checked += 1

        # the update: the pheromone the kernel's colony run leaves against
        # that of the reference loop, whose update is update_pheromone_ref
        checked = 0
        while checked < 1000:
            case = random_field_state(rng)
            if case is None:
                continue
            _, graph, start, _, _ = case
            free = [c for c in map(tuple, np.argwhere(graph.mask).tolist()) if c != start]
            goal = free[int(rng.integers(len(free)))]
            params = AcoParams(rho=float(rng.uniform(0.05, 0.95)),
                               q=float(rng.uniform(0.1, 5.0)),
                               delta=float(rng.uniform(0.1, 2.0)),
                               zeta=float(rng.uniform(0.0, 2.0)),
                               tau0=float(rng.uniform(0.1, 3.0)),
                               n_ants=int(rng.integers(2, 5)), n_iters=int(rng.integers(1, 5)),
                               mode=AcoMode.IMPROVED if rng.random() < 0.5
                               else AcoMode.CONVENTIONAL)
            try:
                expected = plan_subpath_ref(graph, start, goal, params, checked)
            except NoPathFound as exc:
                expected = str(exc)
            got, tau = kernel_run(graph, start, goal, params, checked)
            if isinstance(expected, str) or isinstance(got, str):
                ok &= got == expected
            else:
                ok &= got[0].cells == expected[0].cells and len(got[1]) == len(expected[1])
                ok &= track(got[0].length, expected[0].length)
                for a, b in zip(got[1], expected[1]):
                    ok &= a == b == math.inf or track(a, b)
                for (i, j), v in expected[2].items():
                    d = DIR_OFFSETS.index((j[0] - i[0], j[1] - i[1]))
                    ok &= track(tau[graph.id_of(i) * 8 + d], v)
            checked += 1

        report(1, "formula conformance vs brute-force oracles", ok,
               f"worst relative error {worst:.2e} over 7000+ randomized inputs")


class TestCriterion2:
    def test_probability_and_normalization_invariants(self):
        rng = np.random.default_rng(2002)
        worst = 0.0
        checked = 0
        while checked < 10000:
            case = random_field_state(rng)
            if case is None:
                continue
            tau, graph, cell, tabu, prev = case
            params = AcoParams(phi=float(rng.uniform(0.5, 2.0)),
                               gamma=float(rng.uniform(0.5, 6.0)),
                               mode=AcoMode.IMPROVED if rng.random() < 0.5
                               else AcoMode.CONVENTIONAL)
            total = sum(kernel_transition(tau, graph, cell, tabu, prev, params).values())
            worst = max(worst, abs(total - 1.0))
            checked += 1
        # the families of the kernel's ranking, the planning cycle's
        for _ in range(10000):
            robot = Pose(rng.uniform(-100, 100), rng.uniform(-100, 100), rng.uniform(-7, 7))
            goal = (rng.uniform(-100, 100), rng.uniform(-100, 100))
            points = rng.uniform(-100, 100, (rng.integers(1, 40), 2)).tolist()
            if rng.random() < 0.02:
                points = [goal] * len(points)  # an all-zero distance family
            for family in kernel_ranking(points, robot, goal)[2].tolist():
                worst = max(worst, abs(sum(family) - 1.0))
        report(2, "distributions and families sum to 1", worst <= TOL,
               f"worst deviation {worst:.2e} over 2x10^4 states")


def layout_9x9(seed, density=0.14):
    rng = np.random.default_rng(seed)
    while True:
        mask = np.ones((9, 9), bool)
        occ = rng.random((9, 9)) < density
        occ[4, 4] = False
        mask &= ~occ
        ring = [(r, c) for r in range(9) for c in range(9)
                if (r in (0, 8) or c in (0, 8)) and mask[r, c]]
        if not ring:
            continue
        subgoal = ring[int(rng.integers(len(ring)))]
        if dijkstra_ref(mask, (4, 4), subgoal) is None:
            continue
        return mask, (4, 4), subgoal


class TestCriterion3:
    def test_shortest_path_oracle(self):
        params = AcoParams(phi=1.0, gamma=5.0, rho=0.3, q=1.0, n_ants=20, n_iters=50)
        hits = 0
        n = 25
        max_excess = 0.0
        for seed in range(n):
            mask, start, subgoal = layout_9x9(seed)
            opt = dijkstra_ref(mask, start, subgoal)
            path, _ = plan_subpath(GridGraph(mask, 1.0), start, subgoal, params, seed)
            excess = path.length - opt
            max_excess = max(max_excess, excess)
            if abs(excess) < 1e-9:
                hits += 1
        rate_ok = hits >= 0.9 * n
        bound_ok = max_excess <= 2 * SQRT2 + 1e-9
        report(3, "improved colony matches 8-connected shortest paths",
               rate_ok and bound_ok,
               f"optimal in {hits}/{n} runs (need >=90%), max excess "
               f"{max_excess:.3f} (bound {2 * SQRT2:.3f})")


def benchmark_20x20():
    rng = np.random.default_rng(424242)
    while True:
        mask = np.ones((20, 20), bool)
        occ = rng.random((20, 20)) < 0.10
        occ[0, 0] = occ[19, 19] = False
        mask &= ~occ
        if dijkstra_ref(mask, (0, 0), (19, 19)) is not None:
            return mask


def iterations_to_within(series, frac=0.05):
    finite = [v for v in series if v != math.inf]
    final = finite[-1]
    threshold = final * (1.0 + frac)
    for n, v in enumerate(series, start=1):
        if v <= threshold:
            return n
    return len(series)


class TestCriterion4:
    def test_convergence_ordering(self):
        mask = benchmark_20x20()
        grid = GridGraph(mask, 1.0)
        base = AcoParams()
        t_improved, t_conventional = [], []
        for seed in range(30):
            _, s_imp = plan_subpath(grid, (0, 0), (19, 19), base, (9000, seed))
            _, s_con = plan_subpath(grid, (0, 0), (19, 19),
                                    base.replace(mode=AcoMode.CONVENTIONAL), (9000, seed))
            t_improved.append(iterations_to_within(s_imp))
            t_conventional.append(iterations_to_within(s_con))
        med_imp = float(np.median(t_improved))
        med_con = float(np.median(t_conventional))
        report(4, "improved mode converges in fewer iterations",
               med_imp < med_con,
               f"median iterations-to-5%: improved {med_imp} vs conventional {med_con} "
               f"over 30 paired seeds")


class TestCriterion5:
    def test_weight_group_ordering(self):
        scenario = parse_scenario(SCENARIOS / "multi_obstacle.scn")
        groups = {g.name: g for g in parse_groups(SCENARIOS / "weights.groups")}
        stats = {}
        for name, g in groups.items():
            base = with_weights(scenario, g.weights, g.delta, g.zeta)
            lens, corns = [], []
            for i in range(10):
                m = run(with_seed(base, scenario.seed + i)).metrics
                lens.append(m.path_length)
                corns.append(m.corners)
            stats[name] = (sum(lens) / 10, sum(corns) / 10)
        (l1, c1), (l2, c2), (l3, c3) = stats["group1"], stats["group2"], stats["group3"]
        ok = l2 < l1 and l2 < l3 and c2 < c1 and c2 < c3
        report(5, "weight-group ordering on the 27x27 fixture", ok,
               f"avg length g1/g2/g3 = {l1:.1f}/{l2:.1f}/{l3:.1f}, "
               f"avg corners = {c1:.1f}/{c2:.1f}/{c3:.1f} (need g2 lowest)")


class TestCriterion6:
    def test_safety_and_termination(self):
        details = []
        ok = True
        for name in ("multi_obstacle", "corridor", "moving"):
            scenario = parse_scenario(SCENARIOS / f"{name}.scn")
            result = run(scenario)
            m = result.metrics
            reached = m.status is RunStatus.GOAL_REACHED
            # replay the world tick by tick and check the executed poses
            world = scenario.world
            collision_free = True
            for rec in result.records:
                world = world.advanced()
                if world.occupancy_at(world.cell_of(rec.pose.x, rec.pose.y)):
                    collision_free = False
            ok &= reached and collision_free
            details.append(f"{name}: {m.status.value} in {m.cycles} cycles"
                           f"{'' if collision_free else ' WITH COLLISION'}")
        report(6, "all shipped fixtures reach the goal without collisions", ok,
               "; ".join(details))


class TestCriterion7:
    def test_planner_ordering_on_corridor(self):
        scenario = parse_scenario(SCENARIOS / "corridor.scn")
        worst_case = (scenario.config.resolved_max_steps(scenario.world)
                      * scenario.config.cell_size * SQRT2)
        averages = {}
        failures = {}
        for kind in (PlannerKind.PROPOSED, PlannerKind.CONVENTIONAL_ACO, PlannerKind.APF):
            base = with_planner(scenario, kind)
            lens = []
            fails = 0
            for i in range(5):
                m = run(with_seed(base, scenario.seed + i)).metrics
                if m.status is RunStatus.GOAL_REACHED:
                    lens.append(m.path_length)
                else:
                    lens.append(worst_case)
                    fails += 1
            averages[kind] = sum(lens) / len(lens)
            failures[kind] = fails
        ok = (averages[PlannerKind.PROPOSED] <= averages[PlannerKind.CONVENTIONAL_ACO]
              <= averages[PlannerKind.APF])
        report(7, "average length ordered proposed <= conventional <= potential-field", ok,
               f"averages {averages[PlannerKind.PROPOSED]:.1f} / "
               f"{averages[PlannerKind.CONVENTIONAL_ACO]:.1f} / "
               f"{averages[PlannerKind.APF]:.1f} m, failures "
               f"{failures[PlannerKind.PROPOSED]}/"
               f"{failures[PlannerKind.CONVENTIONAL_ACO]}/{failures[PlannerKind.APF]}")


class TestCriterion8:
    def run_cli(self, args, out, threads):
        # nothing in the package reads REPLAN_THREADS (runs and ants are
        # serial); the byte-identity across its values still holds
        env = dict(os.environ, REPLAN_THREADS=str(threads))
        # -m imports antnav from the working directory: no install or PYTHONPATH needed
        res = subprocess.run([sys.executable, "-m", "antnav", *args, "--out", str(out)],
                             capture_output=True, text=True, env=env, cwd=REPO / "src")
        assert res.returncode == 0, res.stderr
        return out

    def test_byte_identical_outputs(self, tmp_path):
        runs = []
        for threads, name in ((0, "a"), (0, "b"), (3, "c")):
            out = self.run_cli(["run", "--scenario", str(SCENARIOS / "moving.scn"),
                                "--no-plot"], tmp_path / f"run_{name}", threads)
            runs.append((out / "trajectory.csv").read_bytes())
        compares = []
        for threads, name in ((0, "a"), (2, "b")):
            out = self.run_cli(["compare", "--scenario", str(SCENARIOS / "moving.scn"),
                                "--repeats", "2"], tmp_path / f"cmp_{name}", threads)
            blob = b"".join((out / f).read_bytes()
                            for f in ("compare_runs.csv", "comparison.csv",
                                      "distance_proposed.csv", "aco_series_proposed.csv"))
            compares.append(blob)
        ok = runs[0] == runs[1] == runs[2] and compares[0] == compares[1]
        report(8, "CLI reruns produce byte-identical CSVs across REPLAN_THREADS", ok,
               f"{len(runs)} run invocations + {len(compares)} compare invocations")


class TestCriterion9:
    def test_moving_obstacle_robustness(self):
        scenario = parse_scenario(SCENARIOS / "moving.scn")
        m = run(scenario).metrics
        d = m.dist_series
        non_increasing = sum(1 for a, b in zip(d, d[1:]) if b <= a + 1e-12)
        frac = non_increasing / (len(d) - 1)
        ok = frac >= 0.8 and m.status is RunStatus.GOAL_REACHED
        report(9, "distance to goal shrinks in >=80% of cycles with movers", ok,
               f"non-increasing in {non_increasing}/{len(d) - 1} cycles "
               f"({frac:.0%}), status {m.status.value}")
