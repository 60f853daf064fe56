"""BENCHMARK.json is generated from spec.py and stays within its format limits."""

import json
import re

import spec

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_committed_file_matches_spec():
    assert (spec.ROOT / "BENCHMARK.json").read_text() == spec.render()


def test_format_limits():
    bench = spec.benchmark_json()
    assert 2 <= len(bench["workloads"]) <= 8
    assert 1 <= bench["run_seconds"] <= 60
    names = [w["name"] for w in bench["workloads"]]
    names += [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in bench["workloads"])
    for m in bench["end_to_end"] + bench["per_layer"]:
        assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert len(json.dumps(bench)) < 64 * 1024
