"""The CLI run table: each row from a config file and from flags, in this
process and in fresh ones, and the checks each output must pass.

A row is a run name, a subcommand, ``one`` to repeat it single-threaded (else
``-``), and ``key=value`` items, written once as a config file and passed once
as flags.  Every row runs here through ``cli.main`` in table order, so later
rows reuse the parsers, torus grids and line-kernel buffers of earlier calls.
Every file must equal the one written from the row's config in this process.
"""

import json
import math

import pytest

import relu_jackson as rj
from conftest import run_python
from relu_jackson.cli import main
from relu_jackson.network import dumps_network
from relu_jackson.targets import dumps_target

#: file name -> make_decay_target(d, smoothness, k_max, seed)
TARGETS = {"target.txt": (1, 3.2, 16, 11), "decay2.txt": (2, 4.2, 8, 7), "decay3.txt": (3, 3.2, 6, 5)}

RUNS = """
identity verify-identity - samples=5 cmax=4 panels=64 seed=5
rate network-rate - target=target.txt r=2 sweep=64,128,256,512 seed=1,2,3 grid=513
paired paired-mc one target=target.txt r=2 m=256 seed=0,1,2,3 grid=513
net construct - target=decay2.txt r=2 m=256 seed=7
net3 construct - target=decay3.txt r=2 m=4096 seed=5
grid network-rate one target=decay2.txt r=2 sweep=64,128,256,512 seed=1,2 grid=65
grid129 network-rate one target=decay2.txt r=2 sweep=64,128,256,512,1024,2048,4096 seed=1,2 grid=129 N-exponent=0.5
grid3 network-rate one target=decay3.txt r=2 sweep=64,128,256,512 seed=1,2 grid=17
spectral-d1 spectral one target=target.txt r=2 L=4
spectral-d2 spectral one target=decay2.txt r=2 L=3
spectral-d2-odd spectral one target=decay2.txt r=2 L=3 grid=65
spectral-d3 spectral one target=decay3.txt r=2 L=2 grid=16
jackson-rate-d2 jackson-rate one target=decay2.txt r=2 sweep=2,4,8,16
jackson-rate-d3 jackson-rate one target=decay3.txt r=2 sweep=1,2,4,8 grid=16
"""
ROWS = [row.split(maxsplit=3) for row in RUNS.strip().splitlines()]
COMMAND = {run: command for run, command, _one, _items in ROWS}

#: Runs ``cli.main`` on each argv of the JSON list in ``sys.argv[1]``.
REPLAY = "import json, sys\nfrom relu_jackson.cli import main\nfor argv in json.loads(sys.argv[1]): main(argv)\n"


@pytest.fixture(scope="module")
def table(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("runs")
    for name, (d, s, k_max, seed) in TARGETS.items():
        rj.save_target(rj.make_decay_target(d, s, k_max, seed=seed), tmp / name)
    for run, command, _one, items in ROWS:
        pairs = [item.split("=", 1) for item in items.split()]
        pairs = [(key, str(tmp / value) if key == "target" else value) for key, value in pairs]
        (tmp / f"{run}.cfg").write_text("".join(f"{key} = {value}\n" for key, value in pairs))
        assert main([command, "--config", str(tmp / f"{run}.cfg"), "--out", str(tmp / f"{run}-config.csv")]) == 0
        flags = [part for key, value in pairs for part in (f"--{key}", value)]
        assert main([command, *flags, "--out", str(tmp / f"{run}-flags.csv")]) == 0
    return tmp


def _replay(table, runs, name, **env):
    """Run ``runs`` from their configs in one fresh process; return those whose file differs from this process's."""
    argvs = [[COMMAND[run], "--config", str(table / f"{run}.cfg"), "--out", str(table / f"{run}-{name}.csv")]
             for run in runs]
    run_python("-c", REPLAY, json.dumps(argvs), **env)
    return [run for run in runs
            if (table / f"{run}-{name}.csv").read_bytes() != (table / f"{run}-config.csv").read_bytes()]


@pytest.mark.parametrize("run", COMMAND)
def test_config_and_flags_write_the_same_bytes(table, run):
    assert (table / f"{run}-config.csv").read_bytes() == (table / f"{run}-flags.csv").read_bytes()


def test_fresh_process_writes_the_same_bytes(table):
    """Every row in reverse order, so no row follows the call it follows here."""
    assert _replay(table, list(COMMAND)[::-1], "fresh") == []


def test_single_thread_writes_the_same_bytes(table):
    """The BLAS and OpenMP pools of the new process have one thread."""
    runs = [run for run, _command, one, _items in ROWS if one == "one"]
    assert _replay(table, runs, "one-thread", OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1") == []


def _outputs(table, command):
    return {run: (table / f"{run}-config.csv").read_text() for run in COMMAND if COMMAND[run] == command}


def _rows(text):
    """The fields of each data row: no schema, column or ``#`` trailer line."""
    rows = [line.split(",") for line in text.splitlines()[2:] if not line.startswith("#")]
    assert rows
    return rows


def _finite_positive(values):
    return all(math.isfinite(x) and x > 0 for x in map(float, values))


def _slope(text):
    return float(next(line for line in text.splitlines() if line.startswith("# slope=")).removeprefix("# slope="))


def test_spectral_levels_keep_the_bound_and_parseval(table):
    for run, text in _outputs(table, "spectral").items():
        for _level, _sup, _shell, residual, lhs, rhs in _rows(text):
            assert float(lhs) <= float(rhs) and float(residual) < 1e-8, run


def test_jackson_rate_errors_and_slope(table):
    for run, text in _outputs(table, "jackson-rate").items():
        assert _finite_positive(row[1] for row in _rows(text)) and math.isfinite(_slope(text)), run


def test_network_rate_rows_and_slope(table):
    for run, text in _outputs(table, "network-rate").items():
        for _m, bandwidth, *values in _rows(text):
            assert int(bandwidth) >= 1 and _finite_positive(values), run
        assert math.isfinite(_slope(text)), run


def test_paired_mc_arms_and_medians(table):
    text = (table / "paired-config.csv").read_text()
    for _seed, *errors in _rows(text):
        assert len(errors) == 2 and _finite_positive(errors)
    trailer = next(line for line in text.splitlines() if line.startswith("# stratified_median="))
    medians = dict(item.split("=") for item in trailer.removeprefix("# ").split())
    assert medians.keys() == {"stratified_median", "plain_median"} and _finite_positive(medians.values())


@pytest.mark.parametrize("run, d, m", [("net", 2, 256), ("net3", 3, 4096)])
def test_constructed_network_reloads(table, run, d, m):
    path = table / f"{run}-config.csv"
    net = rj.load_network(path)
    assert net.d == d and net.unit_count <= m and rj.audit(net).passed
    assert dumps_network(net) == path.read_text()


def test_target_files_round_trip(table):
    for name in TARGETS:
        assert dumps_target(rj.load_target(table / name)) == (table / name).read_text(), name


def test_construct_refuses_a_width_that_cannot_fit(table):
    """decay2's plan at m=8 has 8 draws and 3 affine units."""
    out = table / "m8.csv"
    with pytest.raises(ValueError, match=r"m=8\b"):
        main(["construct", "--target", str(table / "decay2.txt"), "--r", "2", "--m", "8", "--seed", "1",
              "--out", str(out)])
    assert not out.exists()
