"""Frozen exact-mode CLI reports.

Each case builds or writes its complex, runs one CLI command and compares the
``report`` payload with the file under ``tests/golden/`` at 1e-12 (the
manifest holds paths, hashes and wall time and is ignored).  A ``spectrum``
case that exports its operator as CSV also compares the (row, column, prob)
triplets, sorted.  A case with an ``{ensemble}`` placeholder first writes the
planted ensemble of ``PLANT`` (plant seed 3, alphabet 2, 20 % of the sets
resampled) for the instance its flags name; one with a ``{sets}`` placeholder
first writes its ``SETS`` entry as the ``mixing --sets-file`` JSON.  Regenerate files only on
purpose, from a commit whose reports are trusted, naming the cases to write
(all cases when none given):

    PYTHONPATH=src python tests/test_golden.py [CASE ...]
"""

import csv
import itertools
import json
import os
import sys

import numpy as np
import pytest

from hdxlab.agreement import corrupt, perfect_ensemble, save_ensemble
from hdxlab.cli import _build_instance, build_parser, main
from hdxlab.complexes import (
    Complex,
    load_complex,
    partite_complete_complex,
)

from conftest import weighted_8_3

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")
TOL = 1e-12


def _weighted_partite() -> Complex:
    """All transversals of three parts of 3, with uneven weights."""
    base = partite_complete_complex([3, 3, 3])
    tops, _ = base.top_arrays()
    w = 1.0 + (7 * tops[:, 0] + 3 * tops[:, 1] + tops[:, 2]) % 5
    return Complex(base.n_vertices, base.d, tops.copy(), w / w.sum(),
                   coloring=base.coloring)


def _mild_partite() -> Complex:
    """All transversals of parts of 3, 4 and 5, with weights within 1.6x of
    each other: the links expand well enough for the colored bound to apply."""
    base = partite_complete_complex([3, 4, 5])
    tops, _ = base.top_arrays()
    w = 1.0 + 0.2 * ((tops[:, 0] * tops[:, 1] + tops[:, 2]) % 4)
    return Complex(base.n_vertices, base.d, tops.copy(), w / w.sum(),
                   coloring=base.coloring)


def _weighted_30_3() -> Complex:
    """The 4-sets {a < b < c < d} of [30] with ab + cd = 0 or 1 mod 5, with
    weights 1 + (a^2 + b^2 + c^2 + d^2) mod 7: 435 edges and 4042 triangles,
    so its walks on those levels take the Lanczos path."""
    rows = np.array(list(itertools.combinations(range(30), 4)), dtype=np.int32)
    rows = rows[(rows[:, 0] * rows[:, 1] + rows[:, 2] * rows[:, 3]) % 5 < 2]
    w = 1.0 + (rows.astype(np.int64) ** 2).sum(axis=1) % 7
    return Complex(30, 3, rows, w / w.sum())


# complexes written with Complex.save; any other complex is `hdxlab build` flags
FIXED = {"weighted": weighted_8_3, "weighted_partite": _weighted_partite,
         "mild_partite": _mild_partite, "weighted_30_3": _weighted_30_3}

C95 = ["--complete", "9", "5"]
P2X9 = ["--partite", ",".join(["2"] * 9)]
PLANT = ["--plant-seed", "3", "--alpha", "0.2", "--mode", "exact"]
# with the default thresholds every amplification face of the PLANT ensemble is
# globally bad; these leave some of them good
LOOSE_TAUS = ["--tau-global", "0.15", "--tau-local", "0.25"]


def _spectrum(walk, *flags, on="weighted"):
    return (on, ["spectrum", "{complex}", "--walk", walk, *flags,
                 "--export-csv", "{csv}"])


def _mixing_sets(on):
    return (on, ["mixing", "{complex}", "--sets-file", "{sets}"])


# name -> the sets file of a mixing case, in the format the README documents
SETS = {
    "mixing_sets_weighted_dims_0_1": {"sets": [
        {"dim": 0, "faces": [[0], [3], [5]]},
        {"dim": 1, "faces": [[1, 2], [2, 4], [6, 7], [1, 7]]}]},
    "mixing_sets_colored_weighted_partite": {"colored": True, "sets": [
        {"colors": [0], "faces": [[0], [2]]},
        {"colors": [1, 2], "faces": [[3, 6], [4, 8], [5, 7]]}]},
}


def _decode(*flags):
    return ["decode", "--complex", "{complex}", *flags, "--ensemble", "{ensemble}"]


# name -> (complex, command argv with {complex}, {csv}, {ensemble} and {sets}
# placeholders)
CASES = {
    "stav_check_complete_9_5_l1": (
        C95, ["stav-check", "--complex", "{complex}", "--stav", "hdx", "--l", "1",
              "--gamma", "0.5"]),
    "stav_check_saved_complete_14_8_l3": (
        ["--complete", "14", "8"],
        ["stav-check", "--complex", "{complex}", "--stav", "hdx", "--l", "3",
         "--gamma", str(1 / 3)]),
    "stav_check_partite_2x9_i0_j1_k8": (
        P2X9, ["stav-check", "--complex", "{complex}", "--stav", "partite",
               "--colors-i", "0", "--colors-j", "1", "--k", "8", "--gamma", "0.5"]),
    "stav_check_neighborhood_independent_9_5": (
        C95, ["stav-check", "--complex", "{complex}", "--stav", "neighborhood",
              "--l", "1", "--k", "0", "--nbhd-mode", "independent", "--gamma", "0.6"]),
    "stav_check_neighborhood_complement_9_5": (
        C95, ["stav-check", "--complex", "{complex}", "--stav", "neighborhood",
              "--l", "1", "--k", "0", "--nbhd-mode", "complement", "--gamma", "0.6"]),
    "spectrum_up_weighted_k1": _spectrum("up", "--k", "1"),
    "spectrum_down_weighted_k1": _spectrum("down", "--k", "1"),
    "spectrum_containment_weighted_3_1": _spectrum("containment", "--k", "3", "--l", "1"),
    "spectrum_lower_weighted_2_1": _spectrum("lower", "--k", "2", "--l", "1"),
    "spectrum_complement_weighted_0_1": _spectrum("complement", "--l1", "0", "--l2", "1"),
    "spectrum_colored_weighted_partite_0_1": _spectrum(
        "colored", "--colors-i", "0", "--colors-j", "1", on="weighted_partite"),
    "spectrum_fixed_union_weighted_1_1": _spectrum("fixed-union", "--l", "1", "--j", "1"),
    "spectrum_underlying_weighted": ("weighted", ["spectrum", "{complex}", "--walk",
                                                  "underlying"]),
    # past walks.DENSE_EIG_LIMIT: the Lanczos solves of both spectrum kinds
    "spectrum_lower_weighted_30_3_2_1": ("weighted_30_3", [
        "spectrum", "{complex}", "--walk", "lower", "--k", "2", "--l", "1"]),
    "spectrum_complement_weighted_30_3_1_1": ("weighted_30_3", [
        "spectrum", "{complex}", "--walk", "complement", "--l1", "1", "--l2", "1"]),
    "verify_all_complete_9_5": (C95, ["verify", "{complex}", "--all"]),
    "verify_all_weighted_partite": ("weighted_partite", ["verify", "{complex}", "--all"]),
    "verify_all_weighted": ("weighted", ["verify", "{complex}", "--all"]),
    "verify_all_mild_partite": ("mild_partite", ["verify", "{complex}", "--all"]),
    "mixing_random_weighted_seed7": (
        "weighted", ["mixing", "{complex}", "--random-vertex-sets", "2",
                     "--density", "0.25", "--seed", "7"]),
    "mixing_sets_weighted_dims_0_1": _mixing_sets("weighted"),
    "mixing_sets_colored_weighted_partite": _mixing_sets("weighted_partite"),
    "grassmann_containment_linear_2_4": (
        None, ["grassmann", "--q", "2", "--n", "4", "--d", "2", "--flavor", "linear",
               "--walk", "containment", "--k", "1", "--l", "0"]),
    "grassmann_complement_affine_3_4_cond1": (
        None, ["grassmann", "--q", "3", "--n", "4", "--d", "1", "--flavor", "affine",
               "--walk", "complement", "--l1", "0", "--l2", "0", "--cond-dim", "1"]),
    "grassmann_containment_linear_4_4": (
        None, ["grassmann", "--q", "4", "--n", "4", "--d", "2", "--flavor", "linear",
               "--walk", "containment", "--k", "2", "--l", "1"]),
    "grassmann_containment_affine_5_3": (
        None, ["grassmann", "--q", "5", "--n", "3", "--d", "2", "--flavor", "affine",
               "--walk", "containment", "--k", "2", "--l", "1"]),
    "grassmann_complement_linear_2_6_cond2": (
        None, ["grassmann", "--q", "2", "--n", "6", "--d", "2", "--flavor", "linear",
               "--walk", "complement", "--l1", "1", "--l2", "0", "--cond-dim", "2"]),
    "agree_run_hdx_9_5_l1": (
        C95, ["agree-run", "--complex", "{complex}", "--stav", "hdx", "--l", "1", *PLANT]),
    "agree_run_partite_2x9_i0_j1_k8": (
        P2X9, ["agree-run", "--complex", "{complex}", "--stav", "partite",
               "--colors-i", "0", "--colors-j", "1", "--k", "8", *PLANT]),
    "agree_run_neighborhood_9_5": (
        C95, ["agree-run", "--complex", "{complex}", "--stav", "neighborhood",
              "--l", "1", "--k", "0", *PLANT]),
    "agree_run_hdx_9_5_l1_alphabet3": (
        C95, ["agree-run", "--complex", "{complex}", "--stav", "hdx", "--l", "1",
              "--alphabet", "3", *PLANT]),
    "decode_hdx_9_5_l1": (C95, _decode("--stav", "hdx", "--l", "1")),
    "decode_hdx_9_5_l1_loose_taus": (
        C95, _decode("--stav", "hdx", "--l", "1", *LOOSE_TAUS)),
    "decode_partite_2x9_i0_j1_k8": (
        P2X9, _decode("--stav", "partite", "--colors-i", "0", "--colors-j", "1",
                      "--k", "8", *LOOSE_TAUS)),
}


def _write_ensemble(cpath: str, argv: list, path: str) -> None:
    """Plant, corrupt and save the ensemble ``PLANT`` describes, on the
    instance that ``argv`` builds from the complex at ``cpath``."""
    x = _build_instance(load_complex(cpath), build_parser().parse_args(argv))
    plant = np.random.default_rng(3).integers(0, 2, size=len(x.ground_labels))
    f = corrupt(perfect_ensemble(x, plant, alphabet=2), 0.2, "resample_set", seed=4)
    save_ensemble(f, path)


def run_case(name: str, workdir: str):
    source, argv = CASES[name]
    cpath = os.path.join(workdir, f"{name}.complex.json")
    csv_path = os.path.join(workdir, f"{name}.csv")
    ens_path = os.path.join(workdir, f"{name}.ensemble.json")
    sets_path = os.path.join(workdir, f"{name}.sets.json")
    out = os.path.join(workdir, f"{name}.report.json")
    if isinstance(source, str):
        FIXED[source]().save(cpath)
    elif source is not None:
        assert main(["build", *source, "-o", cpath]) == 0
    if name in SETS:
        with open(sets_path, "w") as fh:
            json.dump(SETS[name], fh)
    argv = [a.format(complex=cpath, csv=csv_path, ensemble=ens_path, sets=sets_path)
            for a in argv]
    argv += ["--report" if argv[0] == "decode" else "-o", out]
    if "{ensemble}" in CASES[name][1]:
        _write_ensemble(cpath, argv, ens_path)
    assert main(argv) == 0
    with open(out) as fh:
        report = json.load(fh)["report"]
    if "--export-csv" not in argv:
        return report
    with open(csv_path, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    triplets = sorted([row, col, float(p)] for row, col, p in rows)
    return {"report": report, "triplets": triplets}


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


def _check(name, workdir):
    with open(os.path.join(GOLDEN_DIR, f"{name}.json")) as fh:
        want = json.load(fh)
    assert_close(run_case(name, workdir), want)


STAV_CHECK = sorted(n for n in CASES if n.startswith("stav_check"))


@pytest.mark.parametrize("name", STAV_CHECK)
def test_stav_check_matches_golden(name, tmp_path):
    _check(name, str(tmp_path))


@pytest.mark.parametrize("name", sorted(set(CASES) - set(STAV_CHECK)))
def test_report_matches_golden(name, tmp_path):
    _check(name, str(tmp_path))


if __name__ == "__main__":
    import tempfile

    os.makedirs(GOLDEN_DIR, exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for case in sys.argv[1:] or sorted(CASES):
            report = run_case(case, tmp)
            with open(os.path.join(GOLDEN_DIR, f"{case}.json"), "w") as fh:
                json.dump(report, fh, indent=1, sort_keys=True)
                fh.write("\n")
            print(f"wrote {case}", file=sys.stderr)
