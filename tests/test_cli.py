import hashlib
import json
import math

import pytest

from isinglab.cli import main
from isinglab.graphs import write_edge_list

from conftest import complete_graph, cycle_graph


def run(argv):
    return main(argv)


def test_thresholds_anchor(tmp_path):
    code = run(["thresholds", "--delta", "4", "--beta", "0.7931",
                "--out", str(tmp_path)])
    assert code == 0
    payload = json.loads((tmp_path / "thresholds.json").read_text())
    assert math.isclose(payload["beta_u"], math.log(2), abs_tol=5e-5)
    assert 1.01 < payload["lambda_u"] < 1.08
    assert (tmp_path / "manifest.json").exists()


def test_thresholds_validation_exit():
    assert run(["thresholds", "--delta", "2", "--beta", "0.5"]) == 2


@pytest.mark.parametrize("delta, beta", [("6", "4.0"), ("3", "9.54"),
                                         ("10", "2.24")])
def test_thresholds_at_large_beta_match_the_phase_diagram_row(tmp_path, delta,
                                                              beta):
    """eta_u and eta_a_bar round to 1 here; both commands report one row."""
    assert run(["thresholds", "--delta", delta, "--beta", beta,
                "--out", str(tmp_path)]) == 0
    ts = json.loads((tmp_path / "thresholds.json").read_text())
    assert run(["phase-diagram", "--delta", delta, "--beta-min", beta,
                "--beta-max", str(float(beta) + 1), "--steps", "2",
                "--out", str(tmp_path)]) == 0
    header, first = (tmp_path / "phase_diagram.csv").read_text().splitlines()[:2]
    row = dict(zip(header.split(","), map(float, first.split(","))))
    assert row == {key: ts[key] for key in row}


@pytest.mark.parametrize("argv", [
    ["thresholds", "--delta", "3", "--beta", "1.098612288668111"],
    ["phase-diagram", "--delta", "3", "--beta-min", "1.098612288668111",
     "--beta-max", "2", "--steps", "2"],
])
def test_threshold_ordering_violation_exits_1(tmp_path, capsys, argv):
    # just above beta_u(3) lambda_u is clamped at 1, so the solves at
    # lambda = 1 and at lambda_u give one largest root and 1 < R_c < R_u fails
    assert run([*argv, "--out", str(tmp_path)]) == 1
    _assert_one_line_error(capsys)
    assert not list(tmp_path.iterdir())


def test_landscape_three_critical_points(tmp_path):
    code = run(["landscape", "--delta", "4", "--beta", "0.7931",
                "--lam", "1.01", "--grid", "5e-3", "--out", str(tmp_path)])
    assert code == 0
    crit = json.loads((tmp_path / "landscape_critical.json").read_text())
    assert len(crit) == 3
    kinds = [c["classification"] for c in crit]
    assert kinds == ["local-max", "local-min", "local-max"]
    lines = (tmp_path / "landscape.csv").read_text().splitlines()
    assert lines[0] == "eta,f,classification"
    assert any("local-max" in ln for ln in lines[1:])


def test_phase_diagram_csv(tmp_path):
    code = run(["phase-diagram", "--delta", "4", "--beta-min", "0.8",
                "--beta-max", "1.0", "--steps", "3",
                "--out", str(tmp_path)])
    assert code == 0
    lines = (tmp_path / "phase_diagram.csv").read_text().splitlines()
    assert lines[0].startswith("beta,lambda_u,lambda_a_bar")
    assert len(lines) == 4


def test_graph_gen_and_simulate_roundtrip(tmp_path):
    code = run(["graph-gen", "--n", "10", "--delta", "3", "--seed", "3",
                "--simple", "--out", str(tmp_path),
                "--out-file", "g.edges"])
    assert code == 0
    code = run(["simulate", "--chain", "kawasaki",
                "--graph", str(tmp_path / "g.edges"), "--beta", "0.5",
                "--k", "5", "--steps", "200", "--thin", "10", "--seed", "1",
                "--out", str(tmp_path)])
    assert code == 0
    lines = (tmp_path / "trace.csv").read_text().splitlines()
    assert lines[0] == "t,plus_count,mono_edges,eta"
    assert len(lines) == 22  # t=0 row plus 200/10 thinned rows


def test_simulate_glauber_and_coupled(tmp_path):
    code = run(["simulate", "--chain", "glauber", "--n", "10", "--delta", "3",
                "--beta", "0.4", "--lam", "1.1", "--steps", "100",
                "--seed", "2", "--out", str(tmp_path)])
    assert code == 0
    code = run(["simulate", "--chain", "coupled-kawasaki", "--n", "12",
                "--delta", "3", "--beta", "0.3", "--k", "3",
                "--steps", "50", "--seed", "2", "--out", str(tmp_path)])
    assert code == 0
    lines = (tmp_path / "trace.csv").read_text().splitlines()
    assert lines[0] == "t,n_disagree,n_bad,rho"


def test_byte_identical_outputs(tmp_path):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    for d in (d1, d2):
        assert run(["simulate", "--chain", "glauber", "--n", "10",
                    "--delta", "3", "--beta", "0.4", "--lam", "1.1",
                    "--steps", "500", "--seed", "7", "--out", str(d)]) == 0
    assert (d1 / "trace.csv").read_bytes() == (d2 / "trace.csv").read_bytes()


# SHA-256 of the data files these runs wrote before the chains moved to
# incremental kernels; the kernels must reproduce them byte for byte.  The two
# metastability entries were re-recorded when its replicas moved to the
# make_rng(seed, stream) streams that --seed sets.  The spectra-edgeworth and
# exactcheck entries pin the size law, recorded before log_z and
# size_distribution came to read one per-k log-weight vector.  The three
# simulate entries were re-recorded when the trace moved from stream 0 of
# --seed, which the --n graph also draws from, to stream 1
# (test_simulate_trace_stream_apart_from_graph).  The landscape,
# phase-diagram and thresholds entries were recorded before f(eta) became one
# curve per (delta, beta, lambda) with its constants computed once.  The
# graph-gen entries were recorded while a graph still kept adjacency lists.
# The metastability-union entry was re-recorded when its traces gained the
# t = 0 row of the split start and a column t = i * record_every in place of
# the record index i (the earlier rows are unchanged, one record later).
LANDSCAPE_ARGV = ["landscape", "--delta", "3", "--beta", "1.2", "--lam", "1.01"]
GOLDEN_TRACES = [
    (["simulate", "--chain", "glauber", "--n", "60", "--delta", "3",
      "--beta", "0.8", "--lam", "1.05", "--steps", "3000", "--thin", "3",
      "--seed", "11"], "trace.csv",
     "9432aff17c203660b8bf9cc26341ffd81a044140013c064facea73a9645e386e"),
    (["simulate", "--chain", "kawasaki", "--n", "60", "--delta", "3",
      "--beta", "0.8", "--k", "25", "--steps", "3000", "--thin", "3",
      "--seed", "11"], "trace.csv",
     "80c3fc3d24b4d044d265fe434131b3fa7216b73bba275a9d8d58146048bd864c"),
    (["simulate", "--chain", "coupled-kawasaki", "--n", "60", "--delta", "3",
      "--beta", "0.8", "--k", "25", "--steps", "300", "--seed", "11"],
     "trace.csv",
     "5b17334adb6bb32efc12aa7b4b6e94a4368a15b97a2fbc5087a3bad4fd2444fb"),
    (["metastability", "--mode", "glauber", "--delta", "3", "--beta", "1.2",
      "--lam", "1.01", "--n", "60", "--T", "3000", "--seeds", "2"],
     "traces.csv",
     "89560a112a0dd353bbdd83698253a4052691f48b3995d20e1b305df2d988684c"),
    (["metastability", "--mode", "kawasaki-union", "--delta", "3",
      "--beta", "1.2", "--eta", "0.3", "--n", "40", "--T", "3000",
      "--seeds", "2"], "traces.csv",
     "58a870926d53161e37ed66fa545fbf35ed35b06bbecdb05ed20a7304e0444ab7"),
    (["spectra", "--n", "18", "--delta", "3", "--beta", "0.8", "--lam", "1.05",
      "--report", "edgeworth", "--seed", "1"], "spectra.json",
     "37e312ed5ee25db4ee170872e95c3f21c2cac3fed32780b1ea740c64b09fd7a7"),
    (["exactcheck", "--n", "9", "--delta", "4", "--k", "4", "--beta", "0.5",
      "--lam", "1.2", "--seed", "1"], "exactcheck.json",
     "a15458bd5e9853ef146e1dcf2c840f9e182adf21bc251b966aa0621b923be88c"),
    (LANDSCAPE_ARGV, "landscape.csv",
     "e10c84090bcb2bd844711086f965d9d79e7217b98b1993fc242aeec556ff83fb"),
    (LANDSCAPE_ARGV, "landscape_critical.json",
     "cb0f3e563b3ef12f11080a90324922d004c643cc83b83736ad0f5f9c64c02884"),
    (["phase-diagram", "--delta", "3", "--beta-min", "0.2", "--beta-max", "1.5",
      "--steps", "5"], "phase_diagram.csv",
     "73b3532b53283b98f4eb3d7f5c54fb3e1d573219c89fccefce0ac56f6c376537"),
    (["thresholds", "--delta", "3", "--beta", "1.2", "--lam", "1.01"],
     "thresholds.json",
     "e9f48b527ab6fbc53a2bdcd1edd00b28cee1350df38fc964b21fa3cf7f217811"),
    (["graph-gen", "--n", "60", "--delta", "3", "--seed", "11"], "graph.edges",
     "fb800ffad817e26a75745eeac98e19c6e8cf24ff8d2ccf5c04b39320f65d1a6b"),
    (["graph-gen", "--n", "60", "--delta", "3", "--seed", "11", "--simple"],
     "graph.edges",
     "ee260e4eb5decdd110dbd902462d63777fdc33cb1a736948ac9b1aedd58cf4ac"),
]


@pytest.mark.parametrize("argv,name,digest", GOLDEN_TRACES, ids=[
    "simulate-glauber", "simulate-kawasaki", "simulate-coupled",
    "metastability-glauber", "metastability-union", "spectra-edgeworth",
    "exactcheck", "landscape-csv", "landscape-critical", "phase-diagram",
    "thresholds", "graph-gen", "graph-gen-simple",
])
def test_golden_trace_hashes(tmp_path, argv, name, digest):
    assert run(argv + ["--out", str(tmp_path)]) == 0
    assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("chain,args", [
    ("glauber", ["--lam", "1.05"]),
    ("kawasaki", ["--k", "8"]),
    ("coupled-kawasaki", ["--k", "8"]),
])
def test_simulate_trace_stream_apart_from_graph(tmp_path, chain, args):
    """``simulate --n ... --seed S`` runs on random_regular(seed=S), stream 0
    of S, and draws its trace from stream 1 of S."""
    from isinglab.cli import fmt
    from isinglab.graphs import random_regular
    from isinglab.metastability import (trace_rows_coupled, trace_rows_glauber,
                                        trace_rows_kawasaki)
    from isinglab.rng import make_rng

    g, rng = random_regular(20, 3, seed=5), make_rng(5, 1)
    if chain == "glauber":
        rows = trace_rows_glauber(g, 0.8, 1.05, "all_minus", 300, rng, thin=3)
    elif chain == "kawasaki":
        rows = trace_rows_kawasaki(g, 0.8, 8, "band_sample", 300, rng, thin=3)
    else:
        rows = trace_rows_coupled(g, 0.8, 8, 0.5, 300, rng, thin=3)
    assert run(["simulate", "--chain", chain, "--n", "20", "--delta", "3",
                "--beta", "0.8", *args, "--steps", "300", "--thin", "3",
                "--seed", "5", "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "trace.csv").read_text().splitlines()[1:]
    assert lines == [",".join(fmt(x) for x in row) for row in rows]


@pytest.mark.parametrize("chain,args", [
    ("glauber", ["--lam", "1.05"]),
    ("kawasaki", ["--k", "25"]),
    ("coupled-kawasaki", ["--k", "25"]),
])
def test_graph_file_and_seeded_graph_give_one_chain(tmp_path, chain, args):
    """``simulate --graph F``, F written by ``graph-gen --seed S``, writes the
    trace of ``simulate --n --seed S``.  The file's graph lists each vertex's
    neighbours in another order, so no kernel may read that order."""
    common = ["simulate", "--chain", chain, "--beta", "0.8", *args,
              "--steps", "5000", "--thin", "7", "--seed", "11"]
    assert run(["graph-gen", "--n", "60", "--delta", "3", "--seed", "11",
                "--out", str(tmp_path / "g")]) == 0
    assert run(common + ["--graph", str(tmp_path / "g" / "graph.edges"),
                         "--out", str(tmp_path / "a")]) == 0
    assert run(common + ["--n", "60", "--delta", "3",
                         "--out", str(tmp_path / "b")]) == 0
    assert ((tmp_path / "a" / "trace.csv").read_bytes()
            == (tmp_path / "b" / "trace.csv").read_bytes())


def test_spectra_gap_report(tmp_path, k4_file=None):
    g = complete_graph(4)
    gfile = tmp_path / "k4.edges"
    write_edge_list(g, gfile)
    code = run(["spectra", "--chain", "kawasaki", "--graph", str(gfile),
                "--beta", "0.5", "--k", "2", "--report", "gap",
                "--out", str(tmp_path)])
    assert code == 0
    payload = json.loads((tmp_path / "spectra.json").read_text())
    assert payload["gap"] > 0


def test_spectra_factorization_report(tmp_path):
    g = complete_graph(4)
    gfile = tmp_path / "k4.edges"
    write_edge_list(g, gfile)
    code = run(["spectra", "--graph", str(gfile), "--beta", "0.5", "--k", "2",
                "--ell", "1", "--report", "factorization", "--out", str(tmp_path)])
    assert code == 0
    payload = json.loads((tmp_path / "spectra.json").read_text())
    assert payload["satisfied"] is True


def test_exactcheck_k4(tmp_path):
    g = complete_graph(4)
    gfile = tmp_path / "k4.edges"
    write_edge_list(g, gfile)
    code = run(["exactcheck", "--graph", str(gfile), "--k", "2",
                "--out", str(tmp_path)])
    assert code == 0
    payload = json.loads((tmp_path / "exactcheck.json").read_text())
    assert payload["all_passed"] is True
    assert payload["factorization_satisfied"] is True


@pytest.mark.parametrize("k,kinds", [
    (4, ["downup", "glauber", "kawasaki", "kl_downup"]),
    (1, ["downup", "glauber", "kawasaki"]),
])
def test_exactcheck_builds_each_kernel_once(tmp_path, monkeypatch, k, kinds):
    """The factorization check's unpinned down-up kernel also gives the
    stationarity error, and its pinned walks are not built one by one."""
    from isinglab import dynamics, spectral

    built = []
    real = dynamics.build_transition_matrix

    def counting(kernel, g):
        built.append(kernel.kind)
        return real(kernel, g)

    monkeypatch.setattr(dynamics, "build_transition_matrix", counting)
    monkeypatch.setattr(spectral, "build_transition_matrix", counting)
    assert run(["exactcheck", "--n", "9", "--delta", "4", "--k", str(k),
                "--out", str(tmp_path)]) == 0
    assert sorted(built) == kinds
    payload = json.loads((tmp_path / "exactcheck.json").read_text())
    assert payload["downup_stationary_ok"] is True


def test_validation_rejects_bad_params(tmp_path, capsys):
    # k > n
    assert run(["exactcheck", "--n", "4", "--delta", "3", "--k", "9",
                "--out", str(tmp_path)]) == 2
    # negative beta
    assert run(["simulate", "--chain", "glauber", "--n", "6", "--delta", "3",
                "--beta", "-0.5", "--lam", "1.0", "--steps", "10",
                "--out", str(tmp_path)]) == 2
    # ell >= k for kl_downup
    gfile = tmp_path / "k4.edges"
    write_edge_list(complete_graph(4), gfile)
    assert run(["spectra", "--chain", "kl_downup", "--graph", str(gfile),
                "--beta", "0.3", "--k", "2", "--ell", "2", "--report", "gap",
                "--out", str(tmp_path)]) == 2
    # negative seed
    assert run(["simulate", "--chain", "glauber", "--n", "6", "--delta", "3",
                "--beta", "0.5", "--lam", "1.0", "--steps", "10", "--seed", "-1",
                "--out", str(tmp_path)]) == 2
    # no seeds for metastability
    for seeds in ("0", "-1"):
        assert run(["metastability", "--mode", "glauber", "--delta", "3",
                    "--beta", "1.2", "--lam", "1.01", "--n", "60", "--T", "100",
                    "--seeds", seeds, "--out", str(tmp_path)]) == 2
    # a landscape grid too coarse to leave one scan step
    assert run(["landscape", "--delta", "4", "--beta", "0.7931", "--lam", "1.01",
                "--grid", "3", "--out", str(tmp_path)]) == 2
    # thin < 1
    assert run(["simulate", "--chain", "kawasaki", "--n", "6", "--delta", "3",
                "--beta", "0.5", "--k", "3", "--steps", "10", "--thin", "0",
                "--out", str(tmp_path)]) == 2
    # k outside [1, n - 1] for a swap chain, with n from the loaded graph
    g10 = tmp_path / "g10.edges"
    assert run(["graph-gen", "--n", "10", "--delta", "3", "--seed", "1",
                "--out", str(tmp_path), "--out-file", "g10.edges"]) == 0
    for chain, k, source in (
        ("kawasaki", "50", ["--graph", str(g10)]),
        ("coupled-kawasaki", "50", ["--graph", str(g10)]),
        ("kawasaki", "0", ["--n", "10", "--delta", "3"]),
        ("kawasaki", "10", ["--n", "10", "--delta", "3"]),
        ("coupled-kawasaki", "10", ["--n", "10", "--delta", "3"]),
        ("kawasaki", "10", ["--graph", str(g10)]),
    ):
        assert run(["simulate", "--chain", chain, *source, "--beta", "0.5",
                    "--k", k, "--steps", "10", "--out", str(tmp_path)]) == 2, (
            chain, k, source)
    # a non-finite float argument
    for argv in (["thresholds", "--delta", "3", "--beta", "nan"],
                 ["thresholds", "--delta", "3", "--beta", "inf"],
                 ["landscape", "--delta", "3", "--beta", "1.2", "--lam", "1.01",
                  "--grid", "nan"],
                 ["landscape", "--delta", "3", "--beta", "1.2", "--lam", "inf"],
                 ["phase-diagram", "--delta", "3", "--beta-min", "0.5",
                  "--beta-max", "nan"],
                 ["simulate", "--chain", "glauber", "--n", "6", "--delta", "3",
                  "--beta", "nan", "--lam", "1.0", "--steps", "10"],
                 ["spectra", "--chain", "downup", "--n", "6", "--delta", "3",
                  "--beta", "nan", "--k", "3", "--report", "gap"],
                 ["spectra", "--n", "6", "--delta", "3", "--beta", "0.5", "--lam", "1",
                  "--report", "edgeworth", "--zero-free-domain", "0", "inf"]):
        assert run([*argv, "--out", str(tmp_path)]) == 2, argv
    err = capsys.readouterr().err
    assert "Traceback" not in err and "1 <= k <= n - 1" in err
    assert "no scan step" in err
    assert "--beta-max must be finite" in err and "--grid must be finite" in err


def test_runtime_cap_exit(tmp_path):
    # 2^30 Glauber states exceed the matrix cap -> exit 3
    code = run(["spectra", "--chain", "glauber", "--n", "30",
                "--delta", "3", "--beta", "0.1", "--lam", "1.0",
                "--report", "gap", "--out", str(tmp_path)])
    assert code == 3


def test_influence_runtime_cap_exit(tmp_path, capsys):
    # a plus matrix of 2^30 grand-canonical states x 30 is over the entry cap
    code = run(["spectra", "--report", "influence", "--n", "30", "--delta", "3",
                "--beta", "0.5", "--lam", "1", "--out", str(tmp_path)])
    assert code == 3
    assert (f"a plus matrix of {2**30} x 30 entries is over the "
            f"{2**25}-entry cap") in capsys.readouterr().err


def test_edgeworth_table_past_24_vertices(tmp_path):
    # a 48-vertex table: no vertex count caps it, only its 2^w x 49 entries
    assert run(["spectra", "--report", "edgeworth", "--n", "48", "--delta", "3",
                "--simple", "--beta", "0.5", "--lam", "1.01",
                "--out", str(tmp_path)]) == 0
    assert json.loads((tmp_path / "spectra.json").read_text())["graph_n"] == 48


def _no_enumeration(*args, **kwargs):
    raise AssertionError("states listed before the size check")


@pytest.mark.parametrize("size", [("--lam", "1.1", "--n", "22"),
                                  ("--k", "12", "--n", "24")])
def test_influence_listing_cap_exit(tmp_path, capsys, monkeypatch, size):
    # the plus matrices of 2^22 grand-canonical and C(24, 12) fixed-k plus
    # sets are over the table-entry cap: refused before listing, and the
    # refused run leaves no manifest
    from isinglab import spectral

    monkeypatch.setattr(spectral, "fixed_k_states", _no_enumeration)
    code = run(["spectra", "--report", "influence", *size, "--delta", "3",
                "--beta", "0.5", "--out", str(tmp_path)])
    assert code == 3
    assert "entry cap" in capsys.readouterr().err
    assert not (tmp_path / "manifest.json").exists()


@pytest.mark.parametrize("report", ["influence", "localwalks"])
def test_fixed_mag_reports_k_above_graph_size_exit(tmp_path, capsys, report):
    # --k is checked against the vertex count of a --graph file too
    path = tmp_path / "k4.edges"
    write_edge_list(complete_graph(4), str(path))
    code = run(["spectra", "--report", report, "--graph", str(path),
                "--beta", "0.5", "--k", "50", "--out", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and "k=50 outside [0, 4]" in err


@pytest.mark.parametrize("field", [("--k", "4"), ("--lam", "1.2")])
def test_influence_report_equals_the_library(tmp_path, field):
    from isinglab.cli import _json_ready
    from isinglab.graphs import random_regular
    from isinglab.spectral import (
        fixed_mag_distribution,
        grand_canonical_distribution,
        influence_matrix,
    )

    assert run(["spectra", "--report", "influence", "--n", "8", "--delta", "3",
                "--beta", "0.6", *field, "--seed", "2", "--out", str(tmp_path)]) == 0
    g = random_regular(8, 3, seed=2)
    if field[0] == "--k":
        X, probs = fixed_mag_distribution(g, 0.6, 4)
    else:
        X, probs = grand_canonical_distribution(g, 0.6, 1.2)
    infl = influence_matrix(X, probs)
    assert json.loads((tmp_path / "spectra.json").read_text()) == _json_ready({
        "graph_n": 8, "beta": 0.6, "report": "influence",
        "linf_norm": infl.linf_norm, "top_eigenvalue": infl.top_eigenvalue,
        "has_complex_pair": infl.has_complex_pair,
    })


def test_localwalks_report_equals_the_library(tmp_path):
    from isinglab.cli import _json_ready
    from isinglab.graphs import random_regular
    from isinglab.spectral import local_expansion_zetas, local_to_global_gap_bound

    assert run(["spectra", "--report", "localwalks", "--n", "8", "--delta", "3",
                "--beta", "0.6", "--k", "4", "--seed", "2",
                "--out", str(tmp_path)]) == 0
    zetas = local_expansion_zetas(random_regular(8, 3, seed=2), 0.6, 4)
    bound = local_to_global_gap_bound(zetas, 3)
    assert json.loads((tmp_path / "spectra.json").read_text()) == _json_ready({
        "graph_n": 8, "beta": 0.6, "report": "localwalks",
        "zetas": list(zetas), "ell": 3, "gammas": list(bound.gammas),
        "gap_lower_bound": bound.bound, "collapsed": bound.collapsed,
    })


@pytest.mark.parametrize("lam", ["1e300", "1e-300"])
def test_edgeworth_at_extreme_lambda_exits_1(tmp_path, capsys, lam):
    # the variance is positive but so small that s**3 underflows to 0
    code = run(["spectra", "--report", "edgeworth", "--n", "18", "--delta", "3",
                "--beta", "0.5", "--lam", lam, "--out", str(tmp_path)])
    assert code == 1
    _assert_one_line_error(capsys)
    assert not (tmp_path / "manifest.json").exists()


def _assert_one_line_error(capsys):
    err = capsys.readouterr().err
    assert "Traceback" not in err and len(err.strip().splitlines()) == 1, err


@pytest.mark.parametrize("argv", [
    ["landscape", "--delta", "3", "--beta", "400", "--lam", "1.0", "--grid", "2e-2"],
    ["thresholds", "--delta", "3", "--beta", "240"],
    ["simulate", "--chain", "glauber", "--n", "10", "--delta", "3",
     "--beta", "1000", "--lam", "1", "--steps", "5"],
    ["spectra", "--report", "gap", "--chain", "glauber", "--n", "6",
     "--delta", "3", "--beta", "400", "--lam", "1"],
    ["metastability", "--mode", "glauber", "--delta", "3", "--beta", "300",
     "--lam", "1.01", "--n", "20", "--T", "10", "--seeds", "1"],
])
def test_float_overflow_at_extreme_beta_exits_2(tmp_path, capsys, argv):
    assert run([*argv, "--out", str(tmp_path)]) == 2
    _assert_one_line_error(capsys)
    assert not (tmp_path / "manifest.json").exists()


@pytest.mark.parametrize("argv", [
    ["--config", "{missing}", "thresholds", "--delta", "3", "--beta", "1"],
    ["simulate", "--chain", "kawasaki", "--graph", "{missing}", "--beta", "1",
     "--k", "2", "--steps", "3"],
])
def test_missing_input_file_exits_2(tmp_path, capsys, argv):
    missing = str(tmp_path / "no-such-file")
    argv = [a.replace("{missing}", missing) for a in argv]
    assert run([*argv, "--out", str(tmp_path)]) == 2
    _assert_one_line_error(capsys)


@pytest.mark.parametrize("argv", [
    ["phase-diagram", "--delta", "3", "--beta-min", "1", "--beta-max", "2",
     "--steps", "1"],
    ["metastability", "--mode", "kawasaki-union", "--delta", "3", "--beta", "1.2",
     "--eta", "0.0", "--n", "20", "--T", "10", "--seeds", "1", "--m", "0"],
    # a Philox key holds seeds below 2^112
    ["graph-gen", "--n", "10", "--delta", "3", "--seed", str(2**112)],
    # rho = phi |D| + |B| is a metric only for phi > 0
    ["simulate", "--chain", "coupled-kawasaki", "--n", "6", "--delta", "3",
     "--beta", "0.5", "--k", "3", "--steps", "5", "--phi", "0"],
    ["simulate", "--chain", "coupled-kawasaki", "--n", "6", "--delta", "3",
     "--beta", "0.5", "--k", "3", "--steps", "5", "--phi", "-1"],
])
def test_unchecked_counts_exit_2(tmp_path, capsys, argv):
    assert run([*argv, "--out", str(tmp_path)]) == 2
    _assert_one_line_error(capsys)


def test_cli_and_chains_import_no_scipy():
    """Importing the CLI and the chain runs loads no scipy."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import isinglab

    code = ("import sys, isinglab.cli, isinglab.metastability; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = {**os.environ, "PYTHONPATH": str(Path(isinglab.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env)
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize("argv", [
    ["spectra", "--report", "gap", "--chain", "kawasaki", "--n", "12", "--delta", "3",
     "--beta", "0.5", "--k", "6"],
    ["spectra", "--report", "gap", "--chain", "kl_downup", "--n", "11", "--delta", "4",
     "--beta", "0.5", "--k", "5", "--ell", "3"],
    ["spectra", "--report", "gap", "--chain", "downup", "--n", "12", "--delta", "3",
     "--beta", "0.5", "--k", "6"],
    ["spectra", "--report", "gap", "--chain", "glauber", "--n", "10", "--delta", "3",
     "--beta", "0.5", "--lam", "1.2"],
    ["spectra", "--report", "factorization", "--n", "9", "--delta", "4", "--beta", "0.5",
     "--k", "4", "--ell", "1"],
    ["spectra", "--report", "influence", "--n", "10", "--delta", "3", "--beta", "0.5",
     "--k", "5"],
    ["spectra", "--report", "localwalks", "--n", "8", "--delta", "3", "--beta", "0.5",
     "--k", "4"],
    ["spectra", "--report", "edgeworth", "--n", "12", "--delta", "3", "--beta", "0.5",
     "--lam", "1.01"],
    ["exactcheck", "--n", "12", "--delta", "3", "--k", "6"],
], ids=["gap-924", "kl-gap-462", "downup-gap-924", "glauber-gap-1024", "factorization-9",
        "influence-10", "localwalks-8", "edgeworth-12", "exactcheck-12"])
def test_exact_runs_load_no_scipy(tmp_path, argv):
    """Every exact command runs on numpy alone: kernels are fixed-width numpy
    rows and the eigensolves are numpy's, so no scipy module loads.  The
    gaps cover Lanczos solves on K (924 Kawasaki and 1 024 Glauber states)
    and on the links (792), and dense ones on the 165 links of the kl walk;
    the exact checks build full and pinned down-up walks of 792 and 330
    links."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import isinglab

    code = ("import sys; from isinglab.cli import main; "
            f"assert main({[*argv, '--out', str(tmp_path)]!r}) == 0; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = {**os.environ, "PYTHONPATH": str(Path(isinglab.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env)
    assert out.stdout.strip() == "[]"


def test_cli_import_loads_no_tree_modules_or_numpy():
    """Each command imports its own modules when it runs."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import isinglab

    code = ("import sys, isinglab.cli; print(sorted(m for m in sys.modules "
            "if m.split('.')[0] == 'numpy' or m in "
            "('isinglab.meanfield', 'isinglab.thresholds')))")
    env = {**os.environ, "PYTHONPATH": str(Path(isinglab.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env)
    assert out.stdout.strip() == "[]"


def test_help_lists_every_command(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for name in ("thresholds", "phase-diagram", "landscape", "graph-gen",
                 "simulate", "spectra", "exactcheck", "metastability"):
        assert f"    {name} " in out, name


def test_command_help_lists_its_arguments(capsys):
    """Every command takes --out and --seed, and none takes --enum-cap: a
    table, a listing or a kernel is bounded by its size alone."""
    from isinglab.cli import COMMANDS

    for name in COMMANDS:
        with pytest.raises(SystemExit) as exc:
            run([name, "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert "--out" in out and "--seed" in out
        assert "--enum-cap" not in out, name
        assert name != "landscape" or "--grid" in out


def test_readme_flags_are_parser_options():
    """Every --flag README.md names, its pip install line aside, is an
    option of the top-level parser or of a command's parser, so a removed
    flag does not stay documented."""
    import argparse
    import re
    from pathlib import Path

    from isinglab.cli import build_parser

    ap = build_parser()
    commands = next(a for a in ap._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    options = {s for p in (ap, *commands.values()) for s in p._option_string_actions}
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    named = {flag for line in readme.splitlines()
             if not line.startswith("pip install")
             for flag in re.findall(r"(?<![\w-])--[a-z][a-z-]*", line)}
    assert "--seed" in named and not named - options, sorted(named - options)


def test_unknown_command_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["bogus", "--delta", "3"])
    assert exc.value.code == 2
    assert "invalid choice: 'bogus'" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["landscape", "--help"],
    ["--help", "landscape"],
    ["bogus", "landscape"],
    ["--bogus", "landscape"],
    ["landscape", "--delta", "3"],
    ["landscape", "--delta", "3", "--beta", "1.2", "--lam", "1.01", "--bogus"],
])
def test_main_prints_what_the_parser_of_every_command_prints(capsys, argv):
    """main builds the parser of one command; help and errors read as if all
    eight were registered."""
    from isinglab.cli import build_parser

    outputs = []
    for parse in (run, build_parser().parse_args):
        with pytest.raises(SystemExit) as exc:
            parse(argv)
        outputs.append((exc.value.code, capsys.readouterr()))
    assert outputs[0] == outputs[1]


def test_tree_commands_rerun_in_one_process(tmp_path):
    """The tree cases of the benchmark, each run twice in one process, write
    the same bytes."""
    cases = [
        (["phase-diagram", "--delta", "3", "--beta-min", "0.2", "--beta-max",
          "1.5", "--steps", "3"], ["phase_diagram.csv"]),
        (["landscape", "--delta", "3", "--beta", "1.2", "--lambda", "1.01",
          "--grid", "5e-3"], ["landscape.csv", "landscape_critical.json"]),
        (["thresholds", "--delta", "3", "--beta", "1.2", "--lambda", "1.01"],
         ["thresholds.json"]),
    ]
    for rep in ("a", "b"):
        for i, (argv, _) in enumerate(cases):
            assert run(argv + ["--out", str(tmp_path / rep / str(i))]) == 0
    for i, (_, names) in enumerate(cases):
        for name in names:
            first = (tmp_path / "a" / str(i) / name).read_bytes()
            assert first == (tmp_path / "b" / str(i) / name).read_bytes()


def test_config_file_before_a_command_with_its_own_arguments(tmp_path):
    """Config flags land on the command's subparser, ahead of explicit ones."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text("delta = 3\nbeta = 0.5\nlam = 1.01\n")
    code = run(["--config", str(cfg), "landscape", "--grid", "2e-2",
                "--out", str(tmp_path)])
    assert code == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["command"] == "landscape"
    assert manifest["parameters"]["grid"] == 0.02
    assert manifest["parameters"]["lam"] == 1.01


def test_tree_commands_load_no_numpy(tmp_path):
    """thresholds, phase-diagram and landscape run on the standard library."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import isinglab

    code = (
        "import sys; from isinglab.cli import main; out = sys.argv[1]; "
        "main(['thresholds', '--delta', '4', '--beta', '0.7931', '--out', out]); "
        "main(['phase-diagram', '--delta', '3', '--beta-min', '0.2', "
        "'--beta-max', '1.5', '--steps', '3', '--out', out]); "
        "main(['landscape', '--delta', '3', '--beta', '1.2', '--lam', '1.01', "
        "'--grid', '2e-2', '--out', out]); "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(isinglab.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code, str(tmp_path)],
                         capture_output=True, text=True, check=True, env=env)
    assert out.stdout.strip() == "[]"
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["numpy_version"]


def test_numpy_version_without_numpy_imported(monkeypatch):
    """The manifest's numpy version, read off the dist-info directory when
    numpy is not imported, or from its metadata without such a directory,
    is the installed one."""
    import importlib.util
    import sys
    from importlib.metadata import version

    from isinglab.cli import _numpy_version

    monkeypatch.delitem(sys.modules, "numpy")
    assert _numpy_version.__wrapped__() == version("numpy")
    monkeypatch.setattr(importlib.util, "find_spec", lambda name: None)
    assert _numpy_version.__wrapped__() == version("numpy")


def test_write_csv_matches_fmt_per_cell(tmp_path):
    """Rows whose cell types differ from the first row's still print via fmt."""
    import numpy as np

    from isinglab.cli import RunContext, fmt

    rows = [[0, 0.1 + 0.2, "a", None], [1, 2, "b", True],
            [np.int64(2), np.float64(1 / 3), "c", None], [3, 1e-20, "d", None]]
    ctx = RunContext(tmp_path, "test", {})
    path = ctx.write_csv("t.csv", ["i", "x", "s", "z"], rows)
    want = "i,x,s,z\n" + "".join(",".join(fmt(x) for x in r) + "\n" for r in rows)
    assert path.read_text() == want


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("delta = 4\nbeta = 0.7931\nout = {}\n".format(tmp_path / "x"))
    code = run(["--config", str(cfg), "thresholds"])
    assert code == 0
    assert (tmp_path / "x" / "thresholds.json").exists()
    # flag overrides file
    code = run(["--config", str(cfg), "thresholds", "--out", str(tmp_path / "y")])
    assert code == 0
    assert (tmp_path / "y" / "thresholds.json").exists()


def test_config_file_as_one_token(tmp_path):
    """--config=PATH reads the file as --config PATH does."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text("delta = 4\nbeta = 0.7931\nout = {}\n".format(tmp_path / "x"))
    assert run([f"--config={cfg}", "thresholds"]) == 0
    assert (tmp_path / "x" / "thresholds.json").exists()


def test_metastability_glauber_smoke(tmp_path):
    code = run(["metastability", "--mode", "glauber", "--delta", "3",
                "--beta", "1.2", "--lam", "1.01", "--n", "100", "--T", "5000",
                "--seeds", "2", "--out", str(tmp_path)])
    assert code == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert len(summary["per_seed"]) == 2
    assert (tmp_path / "traces.csv").exists()


def test_metastability_union_smoke(tmp_path):
    code = run(["metastability", "--mode", "kawasaki-union", "--delta", "3",
                "--beta", "1.2", "--eta", "0.0", "--n", "60", "--T", "2000",
                "--seeds", "2", "--out", str(tmp_path)])
    assert code == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["m"] == 2 and summary["ell"] == 1
    assert summary["lam_plus"] == 1.0


METASTABILITY_RUNS = {
    "glauber": ["metastability", "--mode", "glauber", "--delta", "3",
                "--beta", "1.2", "--lam", "1.01", "--n", "30", "--T", "600",
                "--seeds", "2"],
    "kawasaki-union": ["metastability", "--mode", "kawasaki-union", "--delta", "3",
                       "--beta", "1.2", "--eta", "0.3", "--n", "30", "--T", "600",
                       "--seeds", "2"],
}


@pytest.mark.parametrize("mode", METASTABILITY_RUNS)
def test_metastability_seed_sets_every_stream(tmp_path, mode):
    """--seed moves the graphs, starts and traces; a rerun is byte-identical."""
    def data(seed, name):
        out = tmp_path / f"{seed}-{name}"
        assert run(METASTABILITY_RUNS[mode] + ["--seed", seed, "--out", str(out)]) == 0
        return [(out / f).read_bytes() for f in ("summary.json", "traces.csv")]

    assert data("0", "a") == data("0", "b")
    assert data("0", "a")[1] != data("5", "a")[1]


def test_metastability_glauber_replica_streams(tmp_path):
    """Replica r runs on the graph of stream 2r, which for r = 0 is the one
    ``graph-gen`` writes, and draws its trace from stream 2r + 1."""
    from isinglab.graphs import random_regular
    from isinglab.metastability import run_glauber_trace
    from isinglab.rng import make_rng

    assert run(METASTABILITY_RUNS["glauber"] + ["--seed", "3", "--out", str(tmp_path)]) == 0
    rows = [line.split(",") for line in
            (tmp_path / "traces.csv").read_text().splitlines()[1:]]
    for r in range(2):
        g = random_regular(30, 3, seed=3 if r == 0 else make_rng(3, 2 * r))
        tr = run_glauber_trace(g, 1.2, 1.01, "all_minus", 600,
                               seed=make_rng(3, 2 * r + 1))
        assert [eta for seed, _, eta in rows if seed == str(r)] == [
            f"{e:.12g}" for e in tr.etas]


def test_metastability_union_replica_streams(tmp_path):
    """The base graph is stream 0 of --seed; replica r draws its split start,
    l copies at k_plus and the rest at k_minus, and then its trace from
    stream r + 1."""
    from isinglab.graphs import disjoint_union, random_regular
    from isinglab.metastability import run_kawasaki_trace
    from isinglab.rng import make_rng

    assert run(METASTABILITY_RUNS["kawasaki-union"] + ["--seed", "3",
                                                       "--out", str(tmp_path)]) == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    m, ell, n = summary["m"], summary["ell"], 30
    rows = [[int(x) for x in line.split(",")] for line in
            (tmp_path / "traces.csv").read_text().splitlines()[1:]]
    union = disjoint_union(random_regular(n, 3, seed=make_rng(3, 0)), m)
    for r in range(2):
        rng = make_rng(3, r + 1)
        spins = [-1] * union.n
        for c in range(m):
            kc = summary["k_plus"] if c < ell else summary["k_minus"]
            for v in rng.choice(n, size=kc, replace=False):
                spins[int(v) + c * n] = 1
        counts = run_kawasaki_trace(union, 1.2, summary["k_total"], spins, 600,
                                    seed=rng, copies=m)
        assert [row[2:] for row in rows if row[0] == r] == [list(c) for c in counts]


def test_metastability_union_trace_has_a_time_axis(tmp_path):
    """Union rows are (seed, t, counts...): t steps by record_every = T // 1000
    from t = 0, the split start, where l copies hold k_plus pluses and the
    rest k_minus, to t = T, whose counts are the replica's final counts."""
    assert run(METASTABILITY_RUNS["kawasaki-union"] + [
        "--T", "3000", "--out", str(tmp_path)]) == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    m, ell = summary["m"], summary["ell"]
    lines = (tmp_path / "traces.csv").read_text().splitlines()
    assert lines[0] == ",".join(["seed", "t"] + [f"k_comp{j}" for j in range(m)])
    rows = [[int(x) for x in line.split(",")] for line in lines[1:]]
    for r, replica in enumerate(summary["per_seed"]):
        mine = [row[1:] for row in rows if row[0] == r]
        assert [row[0] for row in mine] == list(range(0, 3001, 3))
        assert mine[0][1:] == [summary["k_plus"]] * ell + [summary["k_minus"]] * (m - ell)
        assert mine[-1][1:] == replica["final_counts"]


def test_metastability_band_without_magnetization_exits_2(tmp_path, capsys):
    """At n = 12, beta = 1.5, lambda = 1.3 both bands lie in (0.95, 0.99), where
    no (2j - n)/n falls: the run is refused before any replica, with no output."""
    out = tmp_path / "out"
    assert run(["metastability", "--mode", "glauber", "--delta", "3",
                "--beta", "1.5", "--lam", "1.3", "--n", "12", "--T", "100",
                "--seeds", "1", "--out", str(out)]) == 2
    _assert_one_line_error(capsys)
    assert not out.exists()


def test_metastability_start_choices(tmp_path, capsys):
    """Glauber takes all_plus or all_minus; the union run always starts split."""
    with pytest.raises(SystemExit) as exc:
        run(METASTABILITY_RUNS["glauber"] + ["--start", "band_sample",
                                             "--out", str(tmp_path)])
    assert exc.value.code == 2
    capsys.readouterr()
    for start in ("all_plus", "all_minus"):
        assert run(METASTABILITY_RUNS["kawasaki-union"] + [
            "--start", start, "--out", str(tmp_path)]) == 2
        _assert_one_line_error(capsys)
    assert not (tmp_path / "manifest.json").exists()
    assert run(METASTABILITY_RUNS["glauber"] + ["--start", "all_plus",
                                                "--out", str(tmp_path)]) == 0


def test_config_roundtrip_lossless(tmp_path):
    """Manifest parameters re-fed as a config file reproduce the run."""
    d1 = tmp_path / "orig"
    assert run(["thresholds", "--delta", "4", "--beta", "0.7931",
                "--lam", "1.01", "--out", str(d1)]) == 0
    manifest = json.loads((d1 / "manifest.json").read_text())
    d2 = tmp_path / "replay"
    cfg = tmp_path / "replay.cfg"
    lines = []
    for key, val in manifest["parameters"].items():
        if key == "out" or val is None or val is False:
            continue
        lines.append(f"{key} = {val}")
    lines.append(f"out = {d2}")
    cfg.write_text("\n".join(lines) + "\n")
    assert run(["--config", str(cfg), "thresholds"]) == 0
    assert (d1 / "thresholds.json").read_bytes() == (
        d2 / "thresholds.json"
    ).read_bytes()


def test_spectra_records_zero_freeness_inputs(tmp_path):
    gfile = tmp_path / "c5.edges"
    write_edge_list(cycle_graph(5), gfile)
    code = run(["spectra", "--graph", str(gfile), "--beta", "0.4",
                "--lam", "1.1", "--report", "edgeworth",
                "--zero-free-domain", "0.5", "2.0", "--zero-free-delta", "0.1",
                "--out", str(tmp_path)])
    assert code == 0
    payload = json.loads((tmp_path / "spectra.json").read_text())
    assert payload["assumed_zero_free_domain"] == [0.5, 2.0]
    assert payload["assumed_zero_free_delta"] == 0.1


def test_landscape_grid_rows_labeled(tmp_path):
    code = run(["landscape", "--delta", "4", "--beta", "0.5", "--lam", "1.0",
                "--grid", "2e-2", "--out", str(tmp_path)])
    assert code == 0
    lines = (tmp_path / "landscape.csv").read_text().splitlines()
    assert any(ln.endswith("interior-critical-none") for ln in lines[1:])


def test_manifest_records_parameters(tmp_path):
    run(["thresholds", "--delta", "4", "--beta", "0.8", "--out", str(tmp_path)])
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["command"] == "thresholds"
    assert manifest["parameters"]["delta"] == 4
    assert manifest["parameters"]["beta"] == 0.8
    assert "isinglab_version" in manifest and "numpy_version" in manifest
    assert "thresholds.json" in manifest["outputs"]


def test_manifest_records_resolved_defaults(tmp_path):
    """T and start that a handler fills in reach the manifest; the data files
    do not change with it."""
    argv = ["metastability", "--mode", "glauber", "--delta", "3", "--beta", "1.2",
            "--lam", "1.01", "--n", "20", "--seeds", "1"]
    assert run(argv + ["--out", str(tmp_path / "a")]) == 0
    params = json.loads((tmp_path / "a" / "manifest.json").read_text())["parameters"]
    assert params["T"] == int(100 * 20 * math.log(20)) == 5991
    assert params["start"] == "all_minus"
    summary = json.loads((tmp_path / "a" / "summary.json").read_text())
    assert summary["T"] == 5991 and "start" not in summary
    assert run(argv + ["--T", "5991", "--start", "all_minus",
                       "--out", str(tmp_path / "b")]) == 0
    for name in ("summary.json", "traces.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    assert run(["simulate", "--chain", "kawasaki", "--n", "10", "--delta", "3",
                "--beta", "0.5", "--k", "4", "--steps", "20",
                "--out", str(tmp_path / "c")]) == 0
    params = json.loads((tmp_path / "c" / "manifest.json").read_text())["parameters"]
    assert params["start"] == "band_sample"
