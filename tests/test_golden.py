"""Frozen exact-mode ``hdxlab stav-check`` reports.

Each case builds its complex through the CLI, runs ``stav-check`` and compares
the ``report`` payload with the file under ``tests/golden/`` at 1e-12 (the
manifest holds paths, hashes and wall time and is ignored).  Regenerate the
files only on purpose, from a commit whose reports are trusted:

    PYTHONPATH=src python tests/test_golden.py
"""

import json
import os
import sys

import pytest

from hdxlab.cli import main

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")
TOL = 1e-12

# name -> (build flags, stav-check flags)
CASES = {
    "stav_check_complete_9_5_l1": (
        ["--complete", "9", "5"],
        ["--stav", "hdx", "--l", "1", "--gamma", "0.5"]),
    "stav_check_saved_complete_14_8_l3": (
        ["--complete", "14", "8"],
        ["--stav", "hdx", "--l", "3", "--gamma", str(1 / 3)]),
    "stav_check_partite_2x9_i0_j1_k8": (
        ["--partite", ",".join(["2"] * 9)],
        ["--stav", "partite", "--colors-i", "0", "--colors-j", "1", "--k", "8",
         "--gamma", "0.5"]),
    "stav_check_neighborhood_independent_9_5": (
        ["--complete", "9", "5"],
        ["--stav", "neighborhood", "--l", "1", "--k", "0",
         "--nbhd-mode", "independent", "--gamma", "0.6"]),
    "stav_check_neighborhood_complement_9_5": (
        ["--complete", "9", "5"],
        ["--stav", "neighborhood", "--l", "1", "--k", "0",
         "--nbhd-mode", "complement", "--gamma", "0.6"]),
}


def run_case(name: str, workdir: str) -> dict:
    build, check = CASES[name]
    cpath = os.path.join(workdir, f"{name}.complex.json")
    out = os.path.join(workdir, f"{name}.report.json")
    assert main(["build", *build, "-o", cpath]) == 0
    assert main(["stav-check", "--complex", cpath, *check, "-o", out]) == 0
    with open(out) as fh:
        return json.load(fh)["report"]


def assert_close(got, want, path="report"):
    if isinstance(want, dict):
        assert isinstance(got, dict) and set(got) == set(want), path
        for k in want:
            assert_close(got[k], want[k], f"{path}.{k}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            assert_close(g, w, f"{path}[{i}]")
    elif isinstance(want, bool) or want is None or isinstance(want, str):
        assert got == want, f"{path}: {got!r} != {want!r}"
    else:
        assert isinstance(got, (int, float)) and not isinstance(got, bool), path
        assert abs(got - want) <= TOL, f"{path}: {got!r} vs {want!r}"


@pytest.mark.parametrize("name", sorted(CASES))
def test_stav_check_matches_golden(name, tmp_path):
    with open(os.path.join(GOLDEN_DIR, f"{name}.json")) as fh:
        want = json.load(fh)
    assert_close(run_case(name, str(tmp_path)), want)


if __name__ == "__main__":
    import tempfile

    os.makedirs(GOLDEN_DIR, exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for case in sorted(CASES):
            report = run_case(case, tmp)
            with open(os.path.join(GOLDEN_DIR, f"{case}.json"), "w") as fh:
                json.dump(report, fh, indent=1, sort_keys=True)
                fh.write("\n")
            print(f"wrote {case}", file=sys.stderr)
