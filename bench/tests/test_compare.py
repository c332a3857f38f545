"""``compare.py``: bounds, error rates, missing entries and settings."""

import json

import compare

CATALOGUE = [
    {"name": "unit_s_p50", "unit": "s", "better": "lower", "bound": 0.1},
    {"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.1},
]


def result(p50, rate, failed=0):
    return {"workloads": {"brake_grid": {"timed": {
        "error_rate": failed / 10,
        "metrics": {"unit_s_p50": {"value": p50, "unit": "s"},
                    "rate": {"value": rate, "unit": "1/s"}}}}}}


def failures(base, change):
    return [row for row in compare.compare(base, change, CATALOGUE)
            if row.startswith("FAIL")]


def test_changes_within_their_bounds_pass():
    assert failures(result(1.0, 10.0), result(1.09, 9.1)) == []
    assert failures(result(1.0, 10.0), result(0.5, 20.0)) == []


def test_a_metric_worse_than_its_bound_fails_in_its_direction():
    assert len(failures(result(1.0, 10.0), result(1.11, 10.0))) == 1
    assert len(failures(result(1.0, 10.0), result(1.0, 8.9))) == 1


def test_a_rising_error_rate_fails():
    rows = failures(result(1.0, 10.0), result(1.0, 10.0, failed=1))
    assert rows and "error_rate" in rows[0]


def test_a_missing_workload_fails():
    assert failures(result(1.0, 10.0), {"workloads": {}})


def test_a_zero_value_on_either_side_fails_instead_of_dividing():
    assert len(failures(result(0.0, 10.0), result(1.0, 10.0))) == 1
    assert len(failures(result(1.0, 10.0), result(0.0, 10.0))) == 1
    missing = result(1.0, 10.0)
    del missing["workloads"]["brake_grid"]["timed"]["metrics"]["rate"]
    assert len(failures(result(1.0, 10.0), missing)) == 1


def test_results_of_different_seeds_or_run_lengths_are_refused(tmp_path):
    catalogue = compare.load(
        f"{compare.ROOT}/BENCHMARK.json")["end_to_end"]
    metrics = {m["name"]: {"value": 1.0, "unit": m["unit"]}
               for m in catalogue}
    paths = []
    for name, seed, seconds in (("a", 1, 10.0), ("b", 1, 15.0),
                                ("c", 2, 10.0)):
        data = {"seed": seed, "seconds": seconds, "workloads": {
            "brake_grid": {"timed": {"error_rate": 0.0,
                                     "metrics": metrics}}}}
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(data))
        paths.append(str(path))
    assert compare.main([paths[0], paths[1]]) == 2
    assert compare.main([paths[0], paths[2]]) == 2
    assert compare.main([paths[0], paths[0]]) == 0
