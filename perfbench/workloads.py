"""The three benchmark workloads: fixed inputs, timed operations, checks.

A workload's ``setup`` builds its fixed inputs from the seed: complexes,
JSON files for the CLI, and the instances a sweep reuses.  One round runs
every operation of ``ops`` once.  An operation returns the program's
outputs; its check recomputes what it compares against (see ``oracles``)
and returns a list of failures, empty when the outputs are right.

hdxlab functions are looked up on their modules at call time, so the spans
that ``spans.Tracer`` wraps around them see every call.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from hdxlab import agreement, cli, complexes, decoder, errors, grassmann, spectra, \
    stav, walks

import oracles

TOL = 1e-9


@dataclass
class Op:
    name: str
    run: Callable  # state -> dict of program outputs
    check: Callable  # (state, outputs) -> list of failure messages


@dataclass
class Mutation:
    """A deliberately wrong output that the op's check must reject."""

    op: str
    what: str
    apply: Callable  # outputs -> None, edits in place


def _cli(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)


def _read_report(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)["report"]


def _close(label: str, got: float, want: float, tol: float = TOL) -> list:
    if abs(got - want) <= tol:
        return []
    return [f"{label}: got {got!r}, want {want!r} (tol {tol:g})"]


def _random_partite(rng, noise: float):
    """Random full-support weights on every transversal of a 3-partite
    complex with parts of 4 to 6 vertices."""
    sizes = rng.integers(4, 7, size=3).tolist()
    coloring = [i for i, s in enumerate(sizes) for _ in range(s)]
    offsets = np.cumsum([0] + sizes)
    tops = np.array(list(itertools.product(
        *[range(offsets[i], offsets[i + 1]) for i in range(3)])), dtype=np.int32)
    weights = np.exp(noise * rng.normal(size=len(tops)))
    return int(offsets[-1]), tops, weights / weights.sum(), coloring


def _weighted_complete_tops(rng, n: int, size: int):
    tops = np.array(list(itertools.combinations(range(n), size)), dtype=np.int32)
    weights = rng.gamma(2.0, 1.0, size=len(tops))
    return tops, weights / weights.sum()


# -- spectral -------------------------------------------------------------------------


class Spectral:
    """Large walk operators plus a sweep of small verifications."""

    name = "spectral"
    N_PARTITE = 20

    def setup(self, seed: int, workdir: str) -> dict:
        rng = np.random.default_rng([seed, 1])
        tops, weights = _weighted_complete_tops(rng, 12, 4)
        c = complexes.Complex(12, 3, tops, weights)
        path = os.path.join(workdir, "weighted_12_3.json")
        c.save(path)
        return {
            "weighted": (tops, weights),
            "colored": [_random_partite(rng, 0.2) for _ in range(self.N_PARTITE)],
            "trickling": [_random_partite(rng, 1.0) for _ in range(self.N_PARTITE)],
            "weighted_json": path,
            "verify_out": os.path.join(workdir, "verify.json"),
            "u0": int(rng.integers(0, 63)),
        }

    # complement walks on complete complexes: (n, d, l1, l2)
    def _complement(self, n, d, l1, l2):
        def run(state):
            op = walks.complement_walk(complexes.complete_complex(n, d), l1, l2)
            rep = spectra.bipartite_norm(op)
            return {"lambda": rep.lambda_bip, "method": rep.method}

        def check(state, out):
            return _close("complement lambda", out["lambda"],
                          oracles.disjointness_lambda(n, l1 + 1, l2 + 1))
        return Op(f"complement_{n}_{d}_{l1}{l2}", run, check)

    # lower walks X(k) -> X(l) -> X(k) on complete complexes
    def _lower(self, n, d, k, l):
        def run(state):
            op = walks.lower_walk(complexes.complete_complex(n, d), k, l)
            rep = spectra.square_spectrum(op)
            return {"lambda": rep.lambda2, "method": rep.method}

        def check(state, out):
            return _close("lower-walk lambda2", out["lambda"],
                          oracles.johnson_lower_lambda(n, k + 1, l + 1))
        return Op(f"lower_{n}_{d}_{k}{l}", run, check)

    @staticmethod
    def _run_colored(state):
        applicable = violations = 0
        for n, tops, weights, coloring in state["colored"]:
            y = complexes.Complex(n, 2, tops, weights, coloring=coloring)
            try:
                chk = spectra.verify_colored_bound(y, [0], [1])
            except errors.NotApplicable:
                continue
            applicable += 1
            violations += not chk.passed
        return {"applicable": applicable, "violations": violations,
                "total": len(state["colored"])}

    @staticmethod
    def _check_colored(state, out):
        fails = []
        if out["violations"]:
            fails.append(f"{out['violations']} colored-bound violations")
        if 2 * out["applicable"] < out["total"]:
            fails.append(f"only {out['applicable']}/{out['total']} colored checks apply")
        return fails

    @staticmethod
    def _run_trickling(state):
        passed = []
        for n, tops, weights, coloring in state["trickling"]:
            y = complexes.Complex(n, 2, tops, weights, coloring=coloring)
            passed.append(bool(spectra.verify_trickling(y).passed))
        return {"passed": passed}

    @staticmethod
    def _check_trickling(state, out):
        bad = out["passed"].count(False)
        return [f"{bad} trickling violations"] if bad else []

    @staticmethod
    def _run_verify_cli(state):
        rc = _cli(["verify", state["weighted_json"], "--all",
                   "-o", state["verify_out"]])
        checks = _read_report(state["verify_out"])["checks"] if rc == 0 else []
        return {"rc": rc, "checks": [(c.get("name"), c.get("passed"), c.get("lhs"),
                                      c.get("rhs")) for c in checks]}

    @staticmethod
    def _check_verify_cli(state, out):
        if out["rc"] != 0:
            return [f"hdxlab verify exited with {out['rc']}"]
        names = sorted(c[0] for c in out["checks"])
        want = sorted(["complement_walk"] * 2 + ["fixed_union"] * 2)
        fails = [] if names == want else [f"verify --all ran {names}, want {want}"]
        fails += [f"{name} failed: {lhs} > {rhs}"
                  for name, ok, lhs, rhs in out["checks"]
                  if not ok or not lhs <= rhs + TOL]
        return fails

    @staticmethod
    def _run_cheeger(state):
        g = walks.underlying_graph(complexes.Complex(12, 3, *state["weighted"]))
        rep = spectra.edge_expansion_exact(g)
        return {"phi": rep.phi, "lambda2": rep.lambda2}

    @staticmethod
    def _check_cheeger(state, out):
        joint = oracles.underlying_joint(12, *state["weighted"])
        lam, phi = oracles.graph_lambda2(joint), oracles.edge_expansion(joint)
        fails = (_close("underlying-graph lambda2", out["lambda2"], lam)
                 + _close("exact edge expansion", out["phi"], phi))
        if not (1 - lam) / 2 - TOL <= phi <= math.sqrt(2 * (1 - lam)) + TOL:
            fails.append(f"Cheeger sandwich fails: phi {phi}, lambda2 {lam}")
        return fails

    @staticmethod
    def _run_grassmann(state):
        p = grassmann.GrassmannPoset(2, 6, 2, "linear")
        counts = [len(p.level(k)) for k in range(3)]
        lam_c = spectra.bipartite_norm(
            grassmann.grassmann_containment_walk(p, 1, 0)).lambda_bip
        u0 = p.level(0)[state["u0"]]
        lam_x = spectra.bipartite_norm(
            grassmann.conditioned_complement_walk(p, 0, 0, u0)).lambda_bip
        return {"counts": counts, "containment": lam_c, "conditioned": lam_x}

    @staticmethod
    def _check_grassmann(state, out):
        want = [oracles.gaussian_binomial(6, k + 1, 2) for k in range(3)]
        fails = [] if out["counts"] == want else [
            f"level counts {out['counts']}, want {want}"]
        if not out["containment"] <= 2 ** -0.5 + TOL:
            fails.append(f"containment lambda {out['containment']} > 1/sqrt(2)")
        if not out["conditioned"] <= 0.5 + TOL:
            fails.append(f"conditioned complement lambda {out['conditioned']} > 1/2")
        return fails

    def ops(self):
        return [
            # 780 x 780 dense SVD; Kneser spectrum of 2-sets of [40]
            self._complement(40, 3, 1, 1),
            # 33 x 5456: over the dense limit, so the iterative SVD path
            self._complement(33, 3, 0, 2),
            # 1540 x 1540 dense eigvalsh
            self._lower(22, 2, 2, 1),
            # 5456 x 5456 sparse: Lanczos path
            self._lower(33, 2, 2, 1),
            Op("colored_bounds", self._run_colored, self._check_colored),
            Op("trickling", self._run_trickling, self._check_trickling),
            Op("verify_all_cli", self._run_verify_cli, self._check_verify_cli),
            Op("cheeger_exact", self._run_cheeger, self._check_cheeger),
            Op("grassmann_walks", self._run_grassmann, self._check_grassmann),
        ]

    def mutations(self):
        def bump(out):
            out["lambda"] += 1e-6

        def count(out):
            out["counts"][1] += 1
        return [Mutation("complement_40_3_11", "lambda + 1e-6", bump),
                Mutation("complement_33_3_02", "lambda + 1e-6", bump),
                Mutation("lower_22_2_21", "lambda + 1e-6", bump),
                Mutation("lower_33_2_21", "lambda + 1e-6", bump),
                Mutation("grassmann_walks", "level count + 1", count),
                Mutation("cheeger_exact", "edge expansion + 1e-6",
                         lambda out: out.__setitem__("phi", out["phi"] + 1e-6))]


# -- four-layer ---------------------------------------------------------------------

# goodness fields that the dual-route tests compare
DUAL_FIELDS = ("a1_reach_lambda", "a2a_min_edge_expansion", "a2b_max_lambda",
               "a3a_max_lambda", "a3b_max_lambda")
ALL_FIELDS = DUAL_FIELDS + ("a4_max_av_lambda", "a5_min_conditional")
INVARIANT_DEVS = ("v_marginal_uniform_dev", "sts_symmetry_dev", "sts_marginal_dev",
                  "vasa_symmetry_dev", "vasa_marginal_dev")


def _check_invariants(label: str, inv: dict, uniform_v: bool = True) -> list:
    """Invariants at TOL; the uniform v-marginal only where the weights are
    uniform."""
    devs = INVARIANT_DEVS if uniform_v else INVARIANT_DEVS[1:]
    fails = [f"{label}: {k} = {inv[k]!r} > {TOL:g}" for k in devs
             if not inv[k] <= TOL]
    fails += [f"{label}: {k} is false" for k in ("av_independent_of_s",
                                                 "positive_layers") if not inv[k]]
    return fails


def _check_complete_goodness(label: str, good: dict, d: int, l: int) -> list:
    fails = []
    if not good["a2b_max_lambda"] <= 1e-10:
        fails.append(f"{label}: A2b lambda {good['a2b_max_lambda']!r} > 1e-10")
    return fails + _close(f"{label}: A5", good["a5_min_conditional"],
                          (d + 1 - l) / (d + 1))


def _check_same(label: str, a: dict, b: dict, fields) -> list:
    return [f"{label}: {k} differs: {a[k]!r} vs {b[k]!r}" for k in fields
            if not abs(a[k] - b[k]) <= TOL]


class FourLayer:
    """Four-layer (S/T/A/V) table builds, invariants and goodness checks."""

    name = "four-layer"

    def setup(self, seed: int, workdir: str) -> dict:
        rng = np.random.default_rng([seed, 2])
        paths = {}
        for n, d in ((9, 5), (14, 8)):
            paths[n] = os.path.join(workdir, f"complete_{n}_{d}.json")
            complexes.complete_complex(n, d).save(paths[n])
        tops, weights = _weighted_complete_tops(rng, 9, 6)
        return {
            "tabular_json": paths[9],
            "saved_complete_json": paths[14],
            "out": os.path.join(workdir, "stav_check.json"),
            "weighted": (tops, weights),
            "partite": complexes.partite_complete_complex([2] * 9),
            "gamma": 0.5,
        }

    @staticmethod
    def _run_tabular_cli(state):
        rc = _cli(["stav-check", "--complex", state["tabular_json"], "--stav", "hdx",
                   "--l", "1", "--gamma", str(state["gamma"]), "-o", state["out"]])
        return {"rc": rc, **(_read_report(state["out"]) if rc == 0 else {})}

    @staticmethod
    def _check_tabular_cli(state, out):
        if out["rc"] != 0:
            return [f"hdxlab stav-check exited with {out['rc']}"]
        return (_check_invariants("complete(9,5) l=1", out["invariants"])
                + _check_complete_goodness("complete(9,5) l=1", out["goodness"], 5, 1))

    @staticmethod
    def _run_structured_api(state):
        x = stav.hdx_stav(complexes.complete_complex(16, 8), 8, 3)
        return {"invariants": stav.invariant_report(x).to_json_dict(),
                "goodness": stav.goodness_check(x, gamma=1 / 3).to_json_dict()}

    @staticmethod
    def _check_structured_api(state, out):
        return (_check_invariants("complete(16,8) l=3", out["invariants"])
                + _check_complete_goodness("complete(16,8) l=3", out["goodness"], 8, 3))

    @staticmethod
    def _run_cli_vs_api(state):
        # the saved file carries no completeness marker, so the CLI takes the
        # general path; the API keeps the closed form
        rc = _cli(["stav-check", "--complex", state["saved_complete_json"],
                   "--stav", "hdx", "--l", "3", "--gamma", str(1 / 3),
                   "-o", state["out"]])
        x = stav.hdx_stav(complexes.complete_complex(14, 8), 8, 3)
        return {"rc": rc, "cli": _read_report(state["out"])["goodness"] if rc == 0
                else None, "api": stav.goodness_check(x, gamma=1 / 3).to_json_dict()}

    @staticmethod
    def _check_cli_vs_api(state, out):
        if out["rc"] != 0:
            return [f"hdxlab stav-check exited with {out['rc']}"]
        return (_check_same("CLI vs API on complete(14,8)", out["cli"], out["api"],
                            ALL_FIELDS)
                + _check_complete_goodness("CLI complete(14,8)", out["cli"], 8, 3))

    @staticmethod
    def _run_dual_route(state):
        c = complexes.Complex(9, 5, *state["weighted"])
        tab = stav.hdx_stav(c, 5, 1, force_mode="tabular")
        struct = stav.hdx_stav(c, 5, 1, force_mode="structured")
        return {"invariants": stav.invariant_report(tab).to_json_dict(),
                "tabular": stav.goodness_check(tab, gamma=state["gamma"]).to_json_dict(),
                "structured": stav.goodness_check(
                    struct, gamma=state["gamma"]).to_json_dict()}

    @staticmethod
    def _check_dual_route(state, out):
        tab, struct = out["tabular"], out["structured"]
        fails = _check_invariants("weighted(9,5) tabular", out["invariants"],
                                  uniform_v=False)
        fails += _check_same("tabular vs structured", tab, struct, DUAL_FIELDS)
        # off the uniform path the structured A5 is a lower bound
        if not struct["a5_min_conditional"] <= tab["a5_min_conditional"] + 1e-12:
            fails.append("structured A5 exceeds the tabular value")
        return fails

    @staticmethod
    def _run_partite(state):
        x = stav.partite_ij_stav(state["partite"], [0], [1], 8)
        return {"invariants": stav.invariant_report(x).to_json_dict(),
                "goodness": stav.goodness_check(x, gamma=state["gamma"]).to_json_dict()}

    @staticmethod
    def _check_partite(state, out):
        fails = _check_invariants("partite [2]*9", out["invariants"])
        fails += _close("partite A5", out["goodness"]["a5_min_conditional"], 1.0)
        if not out["goodness"]["a2b_max_lambda"] <= 1e-10:
            fails.append("partite A2b lambda > 1e-10")
        return fails

    @staticmethod
    def _run_subspace_test(state):
        p = grassmann.GrassmannPoset(2, 4, 3, "affine")
        test = grassmann.agd_distribution(p, 3, 1)
        return {"n_s": len(test.s_labels), "n_t": len(test.t_supports),
                "s_sizes": sorted({len(s) for s in test.s_supports}),
                "t_sizes": sorted({len(t) for t in test.t_supports}),
                "nested": all(set(test.t_supports[ti]) <= set(test.s_supports[si])
                              for ti, tab in enumerate(test.sts.tables)
                              for si in tab[1].tolist())}

    @staticmethod
    def _check_subspace_test(state, out):
        want = {"n_s": oracles.subspace_count(4, 3, 2, affine=True),
                "n_t": oracles.subspace_count(4, 1, 2, affine=True),
                "s_sizes": [2 ** 3], "t_sizes": [2 ** 1], "nested": True}
        return [f"affine test distribution {k} = {out[k]!r}, want {v!r}"
                for k, v in want.items() if out[k] != v]

    def ops(self):
        return [
            Op("stav_check_tabular_cli", self._run_tabular_cli, self._check_tabular_cli),
            Op("structured_goodness_api", self._run_structured_api,
               self._check_structured_api),
            Op("cli_vs_api_saved_complete", self._run_cli_vs_api, self._check_cli_vs_api),
            Op("dual_route_weighted", self._run_dual_route, self._check_dual_route),
            Op("partite_instance", self._run_partite, self._check_partite),
            Op("affine_subspace_test", self._run_subspace_test, self._check_subspace_test),
        ]

    def mutations(self):
        def swap(report):
            a, b = report["a1_reach_lambda"], report["a3b_max_lambda"]
            report["a1_reach_lambda"], report["a3b_max_lambda"] = b, a

        return [Mutation("dual_route_weighted", "structured A1 and A3b swapped",
                         lambda out: swap(out["structured"])),
                Mutation("cli_vs_api_saved_complete", "CLI A1 and A3b swapped",
                         lambda out: swap(out["cli"])),
                Mutation("partite_instance", "A5 off by 1e-6",
                         lambda out: out["goodness"].__setitem__(
                             "a5_min_conditional",
                             out["goodness"]["a5_min_conditional"] - 1e-6))]


# -- agreement ----------------------------------------------------------------------


def _oracle_arrays(x) -> dict:
    """Support matrix, set weights and every global assignment of an
    instance whose sets all have one size."""
    return {"supports": np.array(x.s_supports, dtype=np.int64),
            "weights": np.asarray(x.st_joint.sum(axis=1)).ravel(),
            "globals": oracles.all_globals(len(x.ground_labels), 2)}


def _values(x, f) -> list:
    return [f.assignments[label].copy() for label in x.s_labels]


class Agreement:
    """Local-function ensembles swept against instances built in set-up."""

    name = "agreement"
    ALPHAS = (0.0, 0.05, 0.1, 0.2)
    PER_ALPHA = 2
    MC_SAMPLES = 20_000

    def setup(self, seed: int, workdir: str) -> dict:
        rng = np.random.default_rng([seed, 3])
        c9 = complexes.complete_complex(9, 5)
        x10 = stav.hdx_stav(complexes.complete_complex(10, 5), 5, 1)
        x9 = stav.hdx_stav(c9, 5, 1)
        nbhd = {mode: stav.neighborhood_stav(c9, 1, 0, mode)
                for mode in ("independent", "complement")}

        def spec(n, alpha):
            return (rng.integers(0, 2, size=n), alpha, int(rng.integers(1 << 30)))

        return {
            "x10": x10, "x9": x9, "c9": c9, "nbhd": nbhd,
            "oracle10": _oracle_arrays(x10), "oracle9": _oracle_arrays(x9),
            "sweep": [spec(10, a) for a in self.ALPHAS for _ in range(self.PER_ALPHA)],
            "bruteforce": spec(9, 0.1),
            "mc": spec(10, 0.1) + (int(rng.integers(1 << 30)),),
            "nbhd_specs": [spec(9, 0.0), spec(9, 0.25), spec(9, 0.25)],
        }

    @staticmethod
    def _ensemble(x, plant, alpha, seed):
        f = agreement.perfect_ensemble(x, plant, alphabet=2)
        return agreement.corrupt(f, alpha, "resample_set", seed=seed) if alpha else f

    def _sweep_op(self, i):
        def run(state):
            x = state["x10"]
            plant, alpha, seed = state["sweep"][i]
            f = self._ensemble(x, plant, alpha, seed)
            eps = agreement.rejection(x, f).epsilon
            xi, _ = agreement.surprise(x, f)
            out = decoder.global_decode(x, f)
            return {"values": _values(x, f), "epsilon": eps, "surprise": xi,
                    "g_values": out.g_values.copy(),
                    "decoder_epsilon": out.diagnostics["epsilon"],
                    "dist_decoded": agreement.dist_gamma(f, out.g_ground, 0.0, x)}

        def check(state, out):
            x, ora = state["x10"], state["oracle10"]
            plant, alpha, _ = state["sweep"][i]
            vals = out["values"]
            fails = _close("exact rejection vs pair oracle", out["epsilon"],
                           oracles.pair_rejection(x.sts.t_probs, x.sts.tables,
                                                  x.s_supports, x.t_supports, vals),
                           1e-12)
            if not 0.0 <= out["surprise"] <= 1.0:
                fails.append(f"surprise {out['surprise']} outside [0, 1]")
            g = np.asarray(out["g_values"])[None, :]
            dist = oracles.min_distance(g, ora["supports"], ora["weights"], vals, 0.0)
            fails += _close("dist_gamma of the decoded assignment", out["dist_decoded"],
                            dist, 1e-12)
            opt = oracles.min_distance(ora["globals"], ora["supports"],
                                       ora["weights"], vals, 0.0)
            if not dist <= opt + TOL:
                fails.append(f"decoded distance {dist} > optimum {opt}")
            if alpha == 0.0:
                if out["epsilon"] != 0.0 or out["decoder_epsilon"] != 0.0:
                    fails.append("perfect ensemble rejected")
                if not np.array_equal(out["g_values"], plant):
                    fails.append("planted assignment not recovered")
            return fails
        return Op(f"sweep_{i}", run, check)

    def _run_bruteforce(self, state):
        x = state["x9"]
        f = self._ensemble(x, *state["bruteforce"])
        out = decoder.global_decode(x, f)
        return {"values": _values(x, f), "g_values": out.g_values.copy(),
                "bruteforce": agreement.dist_to_perfect_bruteforce(x, f, 0.0)}

    @staticmethod
    def _check_bruteforce(state, out):
        ora = state["oracle9"]
        opt = oracles.min_distance(ora["globals"], ora["supports"], ora["weights"],
                                   out["values"], 0.0)
        dist = oracles.min_distance(np.asarray(out["g_values"])[None, :],
                                    ora["supports"], ora["weights"], out["values"], 0.0)
        fails = _close("dist_to_perfect_bruteforce vs numpy optimum",
                       out["bruteforce"], opt, 1e-12)
        if not dist <= opt + TOL:
            fails.append(f"decoded distance {dist} > optimum {opt}")
        return fails

    def _run_mc(self, state):
        x = state["x10"]
        plant, alpha, seed, mc_seed = state["mc"]
        f = self._ensemble(x, plant, alpha, seed)
        res = agreement.rejection(x, f, mode="mc", samples=self.MC_SAMPLES,
                                  seed=mc_seed)
        return {"values": _values(x, f), "epsilon": res.epsilon}

    def _check_mc(self, state, out):
        x = state["x10"]
        exact = oracles.pair_rejection(x.sts.t_probs, x.sts.tables, x.s_supports,
                                       x.t_supports, out["values"])
        se = math.sqrt(exact * (1.0 - exact) / self.MC_SAMPLES)
        if abs(out["epsilon"] - exact) <= 5 * se:
            return []
        return [f"Monte Carlo rejection {out['epsilon']} is more than 5 standard "
                f"errors ({se:.3g}) from {exact}"]

    def _run_neighborhood(self, state):
        rows = []
        base = state["nbhd"]["independent"]
        for plant, alpha, seed in state["nbhd_specs"]:
            f = self._ensemble(base, plant, alpha, seed)
            for mode, inst in state["nbhd"].items():
                weak = agreement.weak_neighborhood_tests(
                    state["c9"], 1, 0, f, mode, instance=inst).epsilon
                full = agreement.weak_neighborhood_tests(
                    state["c9"], 1, 0, f, mode, full_intersection=True,
                    instance=inst).epsilon
                rows.append((mode, alpha, _values(inst, f), weak, full))
        return {"rows": rows}

    @staticmethod
    def _check_neighborhood(state, out):
        fails = []
        for mode, alpha, vals, weak, full in out["rows"]:
            x = state["nbhd"][mode]
            for label, got, t_sup in (("weak", weak, x.t_supports),
                                      ("full", full, None)):
                fails += _close(f"{mode} {label} rejection vs pair oracle", got,
                                oracles.pair_rejection(x.sts.t_probs, x.sts.tables,
                                                       x.s_supports, t_sup, vals),
                                1e-12)
            if not weak <= full + 1e-12:
                fails.append(f"{mode}: weak rejection {weak} > full {full}")
            if alpha == 0.0 and (weak or full):
                fails.append(f"{mode}: perfect ensemble rejected")
        return fails

    def ops(self):
        return ([self._sweep_op(i) for i in range(len(self.ALPHAS) * self.PER_ALPHA)]
                + [Op("bruteforce", self._run_bruteforce, self._check_bruteforce),
                   Op("monte_carlo", self._run_mc, self._check_mc),
                   Op("neighborhood_tests", self._run_neighborhood,
                      self._check_neighborhood)])

    def mutations(self):
        def flip(out):
            out["g_values"][0] ^= 1

        def shift(out):
            out["epsilon"] += 1e-6
        return [Mutation("sweep_0", "one decoded symbol flipped", flip),
                Mutation("sweep_5", "one decoded symbol flipped", flip),
                Mutation("bruteforce", "one decoded symbol flipped", flip),
                Mutation("sweep_3", "rejection + 1e-6", shift)]


WORKLOADS = {w.name: w for w in (Spectral(), FourLayer(), Agreement())}
