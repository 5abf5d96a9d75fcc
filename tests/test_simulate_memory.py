"""``simulate`` holds memory independent of its step count: the kernels draw
their random numbers a chunk at a time and the rows go to ``trace.csv`` as
the chain makes them.  Its checks still run before ``trace.csv`` is opened."""

import tracemalloc

import pytest

from isinglab import cli

CHAINS = {
    "glauber": ["--lam", "1.05"],
    "kawasaki": ["--k", "40"],
}


def _simulate(tmp_path, chain, steps):
    return cli.main(["simulate", "--chain", chain, "--n", "100", "--delta", "3",
                     "--beta", "0.8", *CHAINS[chain], "--steps", str(steps),
                     "--thin", "1", "--seed", "3", "--out", str(tmp_path)])


def _peak_bytes(tmp_path, chain, steps):
    tracemalloc.start()
    try:
        assert _simulate(tmp_path, chain, steps) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("chain", sorted(CHAINS))
def test_simulate_peak_memory_does_not_grow_with_steps(tmp_path, chain):
    # a first run loads every module, so neither traced run counts imports
    assert _simulate(tmp_path, chain, 10) == 0
    short = _peak_bytes(tmp_path, chain, 20_000)
    long = _peak_bytes(tmp_path, chain, 200_000)
    assert (tmp_path / "trace.csv").read_text().count("\n") == 200_002
    # 180 000 more rows held as tuples would take about 60 MB
    assert long - short < 1 << 20, (short, long)


@pytest.mark.parametrize("argv", [
    ["--chain", "glauber", "--n", "10", "--delta", "3", "--beta", "1000",
     "--lam", "1"],
    ["--chain", "kawasaki", "--k", "50", "--beta", "0.5"],
])
def test_simulate_checks_run_before_trace_is_written(tmp_path, monkeypatch, argv):
    g10 = tmp_path / "g10.edges"
    assert cli.main(["graph-gen", "--n", "10", "--delta", "3", "--seed", "1",
                     "--out", str(tmp_path), "--out-file", g10.name]) == 0
    if "--n" not in argv:
        argv = [*argv, "--graph", str(g10)]
    opened = []
    monkeypatch.setattr(cli.RunContext, "write_csv",
                        lambda self, name, *rest: opened.append(name))
    out = tmp_path / "out"
    assert cli.main(["simulate", *argv, "--steps", "20000", "--seed", "1",
                     "--out", str(out)]) == 2
    assert opened == []
    assert not (out / "trace.csv").exists()
