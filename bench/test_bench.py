"""Self-tests of the benchmark: formulas, checkers and op-list generation.

    python3 -m pytest bench/test_bench.py
"""

import copy
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import answers  # noqa: E402
import plan  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402


def test_shape_counts_match_hand_counts():
    # the square: 4 corners, 4 edges, 1 face
    assert answers.cube_counts(2) == {0: 4, 1: 4, 2: 1}
    assert answers.cube_counts(3) == {0: 8, 1: 12, 2: 6, 3: 1}
    # the tetrahedron: 4 vertices, 6 edges, 4 triangles, 1 solid
    assert answers.oriental_counts(3) == {0: 4, 1: 6, 2: 4, 3: 1}
    assert answers.disk_counts(2) == {0: 2, 1: 2, 2: 1}
    assert answers.boundary_disk_counts(2) == {0: 2, 1: 2}
    assert answers.boundary_disk_counts(0) == {}


def test_operation_counts_match_hand_counts():
    interval = {0: 2, 1: 1}
    point = {0: 1}
    # interval (x) interval is the square
    assert answers.tensor_counts(interval, interval) == answers.cube_counts(2)
    # point * point is an edge; interval * point is a triangle
    assert answers.join_counts(point, point) == {0: 2, 1: 1}
    assert answers.join_counts(interval, point) == answers.oriental_counts(2)
    # the suspension of a point is an edge over two poles
    assert answers.suspension_counts(point) == {0: 2, 1: 1}
    # two 2-disks glued along a 1-disk: 2 vertices, 3 edges, 2 faces
    assert answers.theta_counts((2, 2), (1,)) == {0: 2, 1: 3, 2: 2}
    # two edges sharing a vertex
    assert answers.wedge_counts(interval, interval) == {0: 3, 1: 2}
    assert answers.expr_counts(["susp", ["tensor", ["cube", 1], ["unit"]]]) == {0: 2, 1: 2, 2: 1}


def test_oriental_faces_are_alternating_sums():
    assert answers.oriental_faces(2)["0.1.2"] == {"1.2": 1, "0.2": -1, "0.1": 1}


def _op(workload, kind):
    return copy.deepcopy(next(op for op in plan.generate(workload, 7) if op["kind"] == kind))


def test_correct_answers_pass():
    ops = [_op("glue", "relations"), _op("build", "shape"), _op("analyze", "compose")]
    assert [why for _, _, why in worker.run_pass(ops)] == [None, None, None]


def test_wrong_expected_answer_is_a_failed_op():
    rel = _op("glue", "relations")
    rel["verdict"], rel["survivors"] = "based", rel["survivors"] + 1
    shape = _op("build", "shape")
    shape["expr"] = ["cube", 2]
    wrong_counts = dict(worker.CHECKS, shape=lambda op, res: worker.check_shape(
        dict(op, expr=["cube", 3]), res))
    results = worker.run_pass([rel, shape], checks=wrong_counts)
    assert all(why for _, _, why in results), results


def test_wrong_cli_answer_is_a_failed_op():
    op = {"id": "gen cube 1", "expect": 0}
    digests = {"cli": {"gen cube 1": answers.digest(b"recorded\n")}}
    assert run.check_cli(op, 0, b"recorded\n", digests) is None
    assert run.check_cli(op, 0, b"changed\n", digests)
    assert run.check_cli(op, 1, b"recorded\n", digests)


def test_same_seed_same_op_list():
    for workload in plan.WORKLOADS:
        assert plan.generate(workload, 3) == plan.generate(workload, 3)
        assert plan.generate(workload, 3) != plan.generate(workload, 4)


def test_every_workload_has_enough_ops_for_p90():
    for workload in plan.WORKLOADS:
        assert len(plan.generate(workload, 1)) >= 100


def test_recorded_digests_cover_every_drawable_output():
    digests = run.load_digests()
    assert set(plan.build_catalogue()) <= set(digests["build"])
    assert set(plan.cli_catalogue()) <= set(digests["cli"])
