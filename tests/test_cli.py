import json
import os
import subprocess
import sys

import numpy as np
import pytest

from hdxlab.cli import main


def run_cli(args):
    return main(args)


@pytest.fixture
def complex_file(tmp_path):
    path = tmp_path / "c.json"
    assert run_cli(["build", "--complete", "9", "5", "-o", str(path)]) == 0
    return str(path)


def test_build_and_spectrum(tmp_path, complex_file, capsys):
    out = tmp_path / "spec.json"
    code = run_cli(["spectrum", complex_file, "--walk", "complement",
                    "--l1", "1", "--l2", "1", "-o", str(out)])
    assert code == 0
    data = json.loads(out.read_text())
    assert "lambda_bip" in data["report"]["spectrum"]
    assert data["manifest"]["command"] == "spectrum"
    assert complex_file in data["manifest"]["input_hashes"]


def test_spectrum_csv_export(tmp_path, complex_file):
    csv_path = tmp_path / "walk.csv"
    out = tmp_path / "spec.json"
    assert run_cli(["spectrum", complex_file, "--walk", "up", "--k", "0",
                    "--export-csv", str(csv_path), "-o", str(out)]) == 0
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "row_face,col_face,prob"
    assert len(lines) > 1


def test_verify_all(tmp_path, complex_file):
    out = tmp_path / "verify.json"
    assert run_cli(["verify", complex_file, "--all", "-o", str(out)]) == 0
    rows = json.loads(out.read_text())["report"]["checks"]
    assert rows and all(r.get("passed") or "skipped" in r for r in rows)


def test_mixing_random(tmp_path, complex_file):
    out = tmp_path / "mix.json"
    assert run_cli(["mixing", complex_file, "--random-vertex-sets", "2",
                    "--density", "0.3", "--seed", "3", "-o", str(out)]) == 0
    rep = json.loads(out.read_text())["report"]
    assert rep["deviation"] >= 0
    # seed is mandatory for random sets
    assert run_cli(["mixing", complex_file, "--random-vertex-sets", "2"]) == 1


@pytest.mark.parametrize("density", ["-0.5", "0", "1.5", "nan"])
def test_mixing_rejects_a_density_outside_the_unit_interval(complex_file, capsys, density):
    capsys.readouterr()
    assert run_cli(["mixing", complex_file, "--seed", "1", "--density", density]) == 1
    assert capsys.readouterr().err == (f"usage error: --density must be in (0, 1], "
                                       f"got {float(density)}\n")


def test_mixing_accepts_density_one(tmp_path, complex_file):
    out = tmp_path / "mix.json"
    assert run_cli(["mixing", complex_file, "--seed", "1", "--density", "1",
                    "--random-vertex-sets", "1", "-o", str(out)]) == 0
    assert json.loads(out.read_text())["report"]["measured"] == pytest.approx(1.0)


def test_mixing_sets_file_rejects_a_vertex_out_of_range(tmp_path, capsys):
    cpath = tmp_path / "p.json"
    assert run_cli(["build", "--partite", "3,3,3", "-o", str(cpath)]) == 0
    sets = tmp_path / "sets.json"
    sets.write_text(json.dumps({"colored": True, "sets": [
        {"colors": [0], "faces": [[0]]}, {"colors": [1], "faces": [[40]]}]}))
    capsys.readouterr()
    assert run_cli(["mixing", str(cpath), "--sets-file", str(sets)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "outside [0, 9)" in err


@pytest.mark.parametrize("colored", [False, True])
def test_mixing_sets_file_rejects_no_sets(tmp_path, capsys, colored):
    cpath = tmp_path / "p.json"
    assert run_cli(["build", "--partite", "3,3,3", "-o", str(cpath)]) == 0
    sets = tmp_path / "sets.json"
    sets.write_text(json.dumps({"colored": colored, "sets": []}))
    capsys.readouterr()
    assert run_cli(["mixing", str(cpath), "--sets-file", str(sets)]) == 1
    assert capsys.readouterr().err == "error: mixing needs at least one set\n"


def readme_sets_example() -> str:
    """The one ```json block of the README: the quick tour's sets file."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(path) as fh:
        return fh.read().split("```json\n", 1)[1].split("```", 1)[0]


def test_mixing_readme_sets_file(tmp_path, complex_file):
    sets = tmp_path / "sets.json"
    sets.write_text(readme_sets_example())
    out = tmp_path / "mix.json"
    assert run_cli(["mixing", complex_file, "--sets-file", str(sets), "-o", str(out)]) == 0
    rep = json.loads(out.read_text())["report"]
    # 3 vertices times 3 edges, disjoint: 9 of the C(9, 3) triangles
    assert rep["measured"] == pytest.approx(9 / 84, abs=1e-15)


def test_grassmann_subcommand(tmp_path):
    out = tmp_path / "g.json"
    assert run_cli(["grassmann", "--q", "2", "--n", "5", "--d", "3",
                    "--flavor", "linear", "--walk", "complement",
                    "--l1", "0", "--l2", "0", "--cond-dim", "1",
                    "-o", str(out)]) == 0
    rep = json.loads(out.read_text())["report"]
    assert rep["level_counts"] == [31, 155, 155, 31]
    assert rep["walk"]["within_bound"]


def test_stav_check(tmp_path, complex_file):
    out = tmp_path / "sc.json"
    assert run_cli(["stav-check", "--complex", complex_file, "--stav", "hdx",
                    "--l", "1", "--gamma", "0.5", "-o", str(out)]) == 0
    rep = json.loads(out.read_text())["report"]
    assert rep["goodness"]["overall_pass"]


@pytest.mark.parametrize("args,message", [
    (["--stav", "hdx"], "--stav hdx needs --complex"),
    (["--stav", "custom"], "--stav custom needs --stav-file")])
def test_stav_check_missing_input_is_a_usage_error(capsys, args, message):
    capsys.readouterr()
    assert run_cli(["stav-check", *args, "--gamma", "0.5"]) == 1
    assert capsys.readouterr().err == f"usage error: {message}\n"


def test_agree_run_exact_and_mc(tmp_path, complex_file):
    out = tmp_path / "a.json"
    assert run_cli(["agree-run", "--complex", complex_file, "--stav", "hdx",
                    "--l", "1", "--plant-seed", "5", "--alpha", "0.1",
                    "-o", str(out)]) == 0
    rep = json.loads(out.read_text())["report"]
    assert 0 <= rep["rejection"]["epsilon"] <= 1
    # Monte Carlo without a seed is refused (no silent entropy)
    assert run_cli(["agree-run", "--complex", complex_file, "--stav", "hdx",
                    "--l", "1", "--plant-seed", "5", "--mode", "mc"]) == 1


def test_agree_run_monte_carlo_without_samples_is_an_error(tmp_path, complex_file, capsys):
    out = tmp_path / "a.json"
    assert run_cli(["agree-run", "--complex", complex_file, "--plant-seed", "1",
                    "--mode", "mc", "--seed", "3", "--samples", "0",
                    "-o", str(out)]) == 1
    assert capsys.readouterr().err == (
        "error: Monte Carlo needs at least one sample, got 0\n")
    assert not out.exists()


def test_agree_run_flip_one_on_one_symbol_is_an_error(complex_file, capsys):
    assert run_cli(["agree-run", "--complex", complex_file, "--plant-seed", "1",
                    "--alphabet", "1", "--alpha", "0.5",
                    "--corrupt-mode", "flip_one"]) == 1
    assert capsys.readouterr().err == (
        "error: flip_one needs an alphabet of at least 2\n")


def test_decode_deterministic(tmp_path, complex_file):
    from hdxlab.agreement import corrupt, perfect_ensemble, save_ensemble
    from hdxlab.stav import hdx_stav
    from hdxlab.complexes import load_complex
    c = load_complex(complex_file)
    x = hdx_stav(c, 5, 1)
    plant = np.arange(9) % 2
    f = corrupt(perfect_ensemble(x, plant, alphabet=2), 0.1,
                "resample_set", seed=3)
    ens = tmp_path / "f.json"
    save_ensemble(f, str(ens))
    r1, r2 = tmp_path / "d1.json", tmp_path / "d2.json"
    base = ["decode", "--complex", complex_file, "--stav", "hdx", "--l", "1",
            "--ensemble", str(ens)]
    assert run_cli(base + ["--report", str(r1)]) == 0
    assert run_cli(base + ["--report", str(r2)]) == 0
    rep1 = json.dumps(json.loads(r1.read_text())["report"], sort_keys=True)
    rep2 = json.dumps(json.loads(r2.read_text())["report"], sort_keys=True)
    assert rep1 == rep2


def test_partite_decode_compares_sets_where_g_is_defined(tmp_path):
    from hdxlab.agreement import perfect_ensemble, save_ensemble
    from hdxlab.complexes import load_complex
    from hdxlab.stav import partite_ij_stav
    cpath, ens, rep = tmp_path / "p.json", tmp_path / "f.json", tmp_path / "r.json"
    assert run_cli(["build", "--partite", ",".join(["2"] * 9), "-o", str(cpath)]) == 0
    x = partite_ij_stav(load_complex(str(cpath)), [0], [1], 8)
    save_ensemble(perfect_ensemble(x, np.arange(18) % 3 % 2, alphabet=2), str(ens))
    assert run_cli(["decode", "--complex", str(cpath), "--stav", "partite", "--colors-i", "0",
                    "--colors-j", "1", "--k", "8", "--ensemble", str(ens),
                    "--report", str(rep)]) == 0
    report = json.loads(rep.read_text())["report"]
    # g is undefined on the four vertices of colours 0 and 1, which every set
    # holds; compared there too, every set would differ
    assert report["dist_exact"] == 0.0
    assert report["dist_exact_compares"] == \
        "each set on the 14 of 18 vertices where g is defined"


def test_malformed_input_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"n_vertices": 3, "d": 1, "coloring": None,
                               "top_faces": [{"verts": [0, 1], "weight": -1.0}]}))
    assert run_cli(["spectrum", str(bad), "--walk", "underlying"]) == 1


def test_size_cap_exit_code(tmp_path):
    out = tmp_path / "huge.json"
    assert run_cli(["build", "--complete", "40", "12", "-o", str(out)]) == 2


def test_malformed_size_cap_exit_code(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("HDX_SIZE_CAP", "lots")
    assert run_cli(["build", "--complete", "9", "5", "-o", str(tmp_path / "c.json")]) == 1
    assert "usage error: HDX_SIZE_CAP" in capsys.readouterr().err


def test_not_converged_exit_code(tmp_path, unconverged_solvers, capsys):
    cpath = tmp_path / "c.json"
    assert run_cli(["build", "--complete", "12", "3", "-o", str(cpath)]) == 0
    assert run_cli(["spectrum", str(cpath), "--walk", "lower", "--k", "1",
                    "--l", "0"]) == 1
    assert "residual" in capsys.readouterr().err


def test_usage_error_exit_code():
    assert run_cli(["verify", "/nonexistent-dir/nothing.json"]) == 1
    assert run_cli(["build", "-o", "/tmp/x.json"]) == 1


def test_consecutive_calls_leak_no_defaults(tmp_path, complex_file):
    # the parser is built once a process: the flags of one call must not
    # become the defaults of the next, whatever its subcommand
    from hdxlab import cli
    assert cli.build_parser() is cli.build_parser()
    out = str(tmp_path / "r.json")
    calls = [["spectrum", complex_file, "--walk", "lower", "--k", "1", "--l", "0", "-o", out],
             ["verify", complex_file, "--fixed-union", "--l", "2", "--j", "2", "-o", out],
             ["spectrum", complex_file, "--walk", "complement", "-o", out],
             ["verify", complex_file, "--complement", "-o", out]]
    for argv in calls:
        assert run_cli(argv) == 0
        with open(out) as fh:
            flags = json.load(fh)["manifest"]["flags"]
        fresh = vars(cli.build_parser.__wrapped__().parse_args(argv))
        del fresh["func"]
        assert flags == fresh, argv


def test_console_entry_point():
    proc = subprocess.run([sys.executable, "-m", "hdxlab.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "hdxlab" in proc.stdout


def test_verify_all_partite(tmp_path):
    cpath = tmp_path / "p.json"
    assert run_cli(["build", "--partite", "3,3,3", "-o", str(cpath)]) == 0
    out = tmp_path / "v.json"
    assert run_cli(["verify", str(cpath), "--all", "-o", str(out)]) == 0
    rows = json.loads(out.read_text())["report"]["checks"]
    names = {r.get("name") for r in rows}
    assert "colored_walk" in names and "trickling" in names


def test_verify_all_solves_each_colored_walk_once(tmp_path, monkeypatch):
    from hdxlab import spectra
    calls = []
    real = spectra.colored_walk

    def counted(c, colors_i, colors_j):
        calls.append((list(colors_i), list(colors_j)))
        return real(c, colors_i, colors_j)
    monkeypatch.setattr(spectra, "colored_walk", counted)
    cpath = tmp_path / "p.json"
    assert run_cli(["build", "--partite", "4,5,6", "-o", str(cpath)]) == 0
    out = tmp_path / "v.json"
    assert run_cli(["verify", str(cpath), "--all", "-o", str(out)]) == 0
    rows = json.loads(out.read_text())["report"]["checks"]
    colored = next(r for r in rows if r.get("name") == "colored_walk")
    trickling = next(r for r in rows if r.get("name") == "trickling")
    assert "skipped" not in colored
    assert colored["lhs"] == trickling["details"]["lambda_01"]
    assert calls.count(([0], [1])) == 1
    assert sorted(calls) == [([0], [1]), ([0], [2]), ([1], [2])]
