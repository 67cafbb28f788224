"""Tests of the benchmark's own checker and process supervision.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import itertools
import os
import sys
import textwrap

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import checker  # noqa: E402
import procs  # noqa: E402


def _dense_mst(coords, metric):
    """Prim's algorithm over every pair: the reference for the bound."""
    n = len(coords)
    a, b = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    weights = checker.edge_weights(coords, a.ravel(), b.ravel(), metric).reshape(n, n)
    in_tree = np.zeros(n, dtype=bool)
    in_tree[0] = True
    best = weights[0].copy()
    total = 0.0
    for _ in range(n - 1):
        candidate = np.where(in_tree, np.inf, best)
        j = int(np.argmin(candidate))
        total += candidate[j]
        in_tree[j] = True
        best = np.minimum(best, weights[j])
    return total


def _instance(seed, n=40):
    return np.random.default_rng(seed).uniform(0, 100, (n, 2))


@pytest.mark.parametrize("metric", ["EUC_2D", "CEIL_2D"])
@pytest.mark.parametrize("seed", range(5))
def test_mst_bound_equals_dense_mst(metric, seed):
    coords = _instance(seed)
    assert checker.mst_lower_bound(coords, metric) == _dense_mst(coords, metric)


def test_mst_bound_with_coincident_and_collinear_points():
    line = np.array([[0.0, 0.0], [3.0, 0.0], [3.0, 0.0], [10.0, 0.0], [1.2, 0.0]])
    assert checker.mst_lower_bound(line, "EUC_2D") == _dense_mst(line, "EUC_2D")


def test_bound_is_below_the_optimal_tour():
    coords = _instance(7, n=8)
    optimum = min(
        checker.tour_length(coords, np.array((0,) + rest), "EUC_2D")
        for rest in itertools.permutations(range(1, 8))
    )
    assert checker.mst_lower_bound(coords, "EUC_2D") <= optimum


def test_accepts_a_valid_tour():
    coords = _instance(1)
    order = np.random.default_rng(2).permutation(len(coords))
    length = checker.tour_length(coords, order, "EUC_2D")
    bound = checker.mst_lower_bound(coords, "EUC_2D")
    assert checker.check_tour(coords, "EUC_2D", list(order), length, bound) == length


def test_length_uses_the_metric_rounding():
    coords = np.array([[0.0, 0.0], [1.2, 0.0], [1.2, 1.2]])
    # Edges 1.2, 1.2 and 1.697...: rint gives 1+1+2, ceil gives 2+2+2.
    assert checker.tour_length(coords, np.arange(3), "EUC_2D") == 4.0
    assert checker.tour_length(coords, np.arange(3), "CEIL_2D") == 6.0


def test_rejects_a_repeated_city():
    coords = _instance(1)
    order = np.arange(len(coords))
    order[5] = order[6]
    with pytest.raises(checker.TourError, match="permutation"):
        checker.check_tour(coords, "EUC_2D", order, 0.0, 0.0)


def test_rejects_a_missing_city():
    coords = _instance(1)
    with pytest.raises(checker.TourError, match="permutation"):
        checker.check_tour(coords, "EUC_2D", np.arange(len(coords) - 1), 0.0, 0.0)


def test_rejects_a_wrong_reported_length():
    coords = _instance(1)
    order = np.arange(len(coords))
    length = checker.tour_length(coords, order, "EUC_2D")
    with pytest.raises(checker.TourError, match="reported length"):
        checker.check_tour(coords, "EUC_2D", order, length - 1.0, 0.0)


def test_rejects_a_tour_below_the_bound():
    coords = _instance(1)
    order = np.arange(len(coords))
    length = checker.tour_length(coords, order, "EUC_2D")
    # The bound of the same cities spread ten times as far apart exceeds
    # this tour of the original ones.
    bound = checker.mst_lower_bound(coords * 10, "EUC_2D")
    assert bound > length
    with pytest.raises(checker.TourError, match="below the MST bound"):
        checker.check_tour(coords, "EUC_2D", order, length, bound)


def test_timeout_kills_and_reaps_the_whole_group(tmp_path):
    # The child starts a grandchild in its own process group and hangs;
    # the timeout must leave neither behind.
    script = textwrap.dedent("""
        import os, subprocess, sys, time
        subprocess.Popen([sys.executable, "-c", "import time; time.sleep(600)"],
                         process_group=0)
        print("started", flush=True)
        time.sleep(600)
    """)
    procs.become_subreaper()
    child = procs.run_child([sys.executable, "-c", script], dict(os.environ),
                            timeout=3.0, log_dir=str(tmp_path))
    assert child["code"] is None
    assert child["stdout"] == "started\n"
    # The grandchild left the group; the session still names it.
    procs.kill_and_reap(os.getpid(), {child["session"]})
    assert procs.leftovers(os.getpid(), {child["session"]}) == []


def test_a_process_left_behind_is_found_and_ended(tmp_path):
    script = textwrap.dedent("""
        import subprocess, sys
        subprocess.Popen([sys.executable, "-c", "import time; time.sleep(600)"])
    """)
    procs.become_subreaper()
    child = procs.run_child([sys.executable, "-c", script], dict(os.environ),
                            timeout=30.0, log_dir=str(tmp_path))
    assert child["code"] == 0
    found = procs.kill_and_reap(os.getpid(), {child["session"]}, grace=0.5)
    assert len(found) == 1
    assert procs.leftovers(os.getpid(), {child["session"]}) == []
