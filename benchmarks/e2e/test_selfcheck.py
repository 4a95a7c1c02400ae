"""Self-check of the E23 benchmark (``python -m pytest benchmarks/e2e``).

Outside tier-1's ``testpaths`` on purpose: it spawns processes and takes
about half a minute.  It checks the instrument, not the program: that
what ``run.py`` prints is what ``BENCHMARK.json`` declares, that a smoke
run of all four workloads loses nothing, and that the ``check`` oracle
both passes on the served configuration and *fails* when one effect is
perturbed.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import oracle  # noqa: E402
import run  # noqa: E402
from workloads import catalog  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]*\Z")


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """One ``--smoke`` run of everything: ``(process, results)``."""
    work = tmp_path_factory.mktemp("e23")
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--out", "smoke.json"],
        cwd=work, capture_output=True, text=True, timeout=300)
    assert (work / "smoke.json").exists(), proc.stdout + proc.stderr
    return proc, json.loads((work / "smoke.json").read_text())["results"]


def test_names_and_units_are_those_of_benchmark_json(smoke):
    _, results = smoke
    assert [r["workload"] for r in results] == [w["name"] for w in SPEC["workloads"]]
    assert list(catalog()) == [w["name"] for w in SPEC["workloads"]]
    for group in ("end_to_end", "per_layer"):
        declared = {m["name"]: m["unit"] for m in SPEC[group]}
        for result in results:
            printed = {name: m["unit"] for name, m in result[group].items()}
            assert printed == declared, (result["workload"], group)
    for name in [w["name"] for w in SPEC["workloads"]] + list(run.END_TO_END) \
            + list(run.PER_LAYER):
        assert NAME.match(name) and len(name) <= 64, name
    assert SPEC["run_seconds"] == run.RUN_SECONDS
    assert SPEC["paths"] == ["benchmarks/e2e"]
    assert SPEC["command"] == ["python3", "benchmarks/e2e/run.py"]


def test_smoke_run_loses_nothing_and_measures_everything(smoke):
    proc, results = smoke
    assert proc.returncode in (run.EXIT_OK, run.EXIT_UNRELIABLE), proc.stdout
    for result in results:
        assert result["correct"], result["check"]
        assert result["failed_share"] == 0, result["notes"]
        for group in ("end_to_end", "per_layer"):
            missing = {name: m.get("reason") for name, m in result[group].items()
                       if m["value"] is None}
            assert not missing, (result["workload"], missing)
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "workloads"}


@pytest.mark.parametrize("name", list(catalog()))
def test_check_passes_and_catches_one_perturbed_effect(name, tmp_path):
    workload = catalog(smoke=True)[name]
    count = min(workload.check_events, 600)
    expected = oracle.reference(workload, 23, count)
    got = oracle.candidate(workload, 23, str(tmp_path / "store"), count)
    assert oracle.differences(expected, got) == []
    assert expected.firings > 0
    # The negative test of the oracle: one effect off by one character.
    if got.sink:
        got.sink[len(got.sink) // 2] += "!"
    else:
        uri = sorted(got.resources)[len(got.resources) // 2]
        version, text = got.resources[uri]
        got.resources[uri] = (version, text + "!")
    assert oracle.differences(expected, got)
