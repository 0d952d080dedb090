import hashlib

import numpy as np
import pytest

import relu_jackson as rj
from conftest import run_python
from relu_jackson import cli
from relu_jackson.cli import main
from relu_jackson.jackson import build_kernel, multiplier_from_kernel


@pytest.fixture()
def target_file(tmp_path):
    path = tmp_path / "cos.txt"
    rj.save_target(rj.make_trig_poly(1, {1: 0.5, -1: 0.5}), path)
    return str(path)


def test_kernel_stdout(capsys):
    assert main(["kernel", "--N", "1", "--r", "1"]) == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert lines[0] == "# schema=kernel@1"
    assert lines[1] == "k,a_tilde,a_multiplier"
    assert len(lines) == 2 + 3  # k in -1..1
    k0 = lines[3].split(",")
    assert k0[0] == "0"
    assert float(k0[1]) == pytest.approx(1 / (2 * np.pi), abs=1e-15)


def test_kernel_dump_matches_library(tmp_path):
    out = tmp_path / "kernel.csv"
    assert main(["kernel", "--N", "8", "--r", "2", "--dump", str(out)]) == 0
    kernel = build_kernel(8, 2)
    mult = multiplier_from_kernel(kernel)
    rows = out.read_text().splitlines()[2:]
    assert len(rows) == 17
    for row in rows:
        k, a_tilde, a_mult = row.split(",")
        assert float(a_tilde) == kernel.coefficient(int(k))
        assert float(a_mult) == mult.axis_coefficient(int(k))


def test_spectral_rows(target_file, capsys):
    assert main(["spectral", "--target", target_file, "--r", "2", "--L", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "# schema=spectral@1"
    assert lines[1] == "level,sup_norm,shell_sum,parseval_residual,sup_bound_lhs,sup_bound_rhs"
    assert len(lines) == 2 + 4
    level0 = lines[2].split(",")
    assert float(level0[1]) == pytest.approx(1.0, abs=1e-9)   # sup of the weighted series
    assert float(level0[2]) == pytest.approx(1.0, abs=1e-12)  # shell 0 mass
    assert float(level0[3]) < 1e-10


def test_spectral_reads_holder_norm_and_levels_once(target_file, monkeypatch, capsys):
    """The CLI prints what ``build_levels`` returns, bound sides included,
    from one Hoelder norm and one level build."""
    calls = []

    def counted(name):
        real = getattr(cli, name)

        def call(*args):
            calls.append(name)
            return real(*args)

        return call

    for name in ("holder_norm", "build_levels"):
        monkeypatch.setattr(cli, name, counted(name))
    assert main(["spectral", "--target", target_file, "--r", "2", "--L", "3"]) == 0
    assert calls == ["holder_norm", "build_levels"]
    rows = [row.split(",") for row in capsys.readouterr().out.splitlines()[2:]]
    target = rj.load_target(target_file)
    grid = rj.default_grid(1, rj.TORUS)
    decomp = rj.build_levels(target, 2, 3, grid, rj.holder_norm(target, 2, grid))
    assert [float(row[5]) for row in rows] == decomp.sup_bounds.tolist()


#: sha256 of the spectral and jackson-rate CSVs for decay2 (d=2, s=4.2,
#: k_max=8, seed 7) at r=2 on the default 512^2 grid, recorded with the torus
#: grid values taken by the half-spectrum irfft: a change to the torus
#: transform that moves a byte of these CSVs fails here.
SPECTRAL_DECAY2_SHA256 = "3b561ec0ba9281f9d746eeffacc12360407171656778cebd2c3315624b605b79"
JACKSON_RATE_DECAY2_SHA256 = "6f5810f1108673366f6b4662abf1c17b4335f0cc588eef61edd6095b0b34b709"

#: sha256 of the spectral CSVs at r=2, L=4 for decay1 (d=1, s=3.2, k_max=16,
#: seed 11) on the default grid and decay3 (d=3, s=3.2, k_max=6, seed 5) on a
#: 16^3 grid, recorded with the half-spectrum irfft.
SPECTRAL_SHA256 = {
    (1, 3.2, 16, 11, None): "b01ec5661934715ef8265ee3413d65fb118b26b9f888cf8e73df76355edd7265",
    (3, 3.2, 6, 5, 16): "f5cb3098e386f52d020c24c6af6d1539f452d62098dbaac530858f80045e8e0d",
}


def test_spectral_and_jackson_rate_bytes_pinned(tmp_path):
    target = tmp_path / "decay2.txt"
    rj.save_target(rj.make_decay_target(2, 4.2, 8, seed=7), target)
    common = ["--target", str(target), "--r", "2"]
    spectral, jackson = tmp_path / "spectral.csv", tmp_path / "jackson.csv"
    assert main(["spectral", *common, "--L", "3", "--out", str(spectral)]) == 0
    assert main(["jackson-rate", *common, "--sweep", "2,4,8,16", "--out", str(jackson)]) == 0
    assert hashlib.sha256(spectral.read_bytes()).hexdigest() == SPECTRAL_DECAY2_SHA256
    assert hashlib.sha256(jackson.read_bytes()).hexdigest() == JACKSON_RATE_DECAY2_SHA256


@pytest.mark.parametrize("key", SPECTRAL_SHA256, ids=["decay1", "decay3"])
def test_spectral_bytes_pinned(tmp_path, key):
    d, s, k_max, seed, grid = key
    target, out = tmp_path / "target.txt", tmp_path / "spectral.csv"
    rj.save_target(rj.make_decay_target(d, s, k_max, seed=seed), target)
    flags = ["--grid", str(grid)] if grid else []
    assert main(["spectral", "--target", str(target), "--r", "2", "--L", "4", *flags, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == SPECTRAL_SHA256[key]


def test_construct_roundtrip_and_determinism(target_file, tmp_path):
    out1 = tmp_path / "net1.csv"
    out2 = tmp_path / "net2.csv"
    args = ["construct", "--target", target_file, "--r", "2", "--m", "64", "--seed", "5"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    net = rj.load_network(out1)
    assert net.unit_count > 0
    grid = rj.default_grid(1, rj.CUBE)
    assert rj.sup_error(net, rj.load_target(target_file), grid) < 0.5


def test_construct_plain_flag(target_file, tmp_path):
    out_s = tmp_path / "s.csv"
    out_p = tmp_path / "p.csv"
    base = ["construct", "--target", target_file, "--r", "2", "--m", "64", "--seed", "5"]
    assert main(base + ["--out", str(out_s)]) == 0
    assert main(base + ["--plain", "--out", str(out_p)]) == 0
    assert out_s.read_bytes() != out_p.read_bytes()


@pytest.mark.parametrize("via", ["flag", "config"])
def test_construct_refuses_grid(target_file, tmp_path, capsys, via):
    """``construct`` never reads a grid; ``--grid 3`` or a ``grid = 65`` line used to be ignored."""
    cfg = tmp_path / "grid.cfg"
    cfg.write_text("grid = 65\n")
    extra = ["--grid", "3"] if via == "flag" else ["--config", str(cfg)]
    out = tmp_path / "net.csv"
    argv = ["construct", "--target", target_file, "--r", "2", "--m", "64", "--seed", "5", "--out", str(out)]
    with pytest.raises(SystemExit) as done:
        main([*argv, *extra])
    assert done.value.code == 2
    assert "unrecognized arguments: --grid" in capsys.readouterr().err
    assert not out.exists()


def test_jackson_rate_with_config(target_file, tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(f"target = {target_file}\nr = 2\nsweep = 8,16,32,64\n")
    assert main(["jackson-rate", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "# schema=jackson_rate@1"
    assert len(out.splitlines()) >= 6


def test_network_rate_cli(target_file, tmp_path):
    out = tmp_path / "rate.csv"
    assert (
        main(
            [
                "network-rate",
                "--target", target_file,
                "--r", "2",
                "--sweep", "16,32,64,128",
                "--seed", "1,2",
                "--grid", "129",
                "--out", str(out),
            ]
        )
        == 0
    )
    lines = out.read_text().splitlines()
    assert lines[0] == "# schema=network_rate@1"
    assert len([ln for ln in lines if not ln.startswith("#")]) == 5


def test_paired_mc_cli(target_file, capsys):
    assert (
        main(
            [
                "paired-mc",
                "--target", target_file,
                "--r", "2",
                "--m", "64",
                "--seed", "0,1",
                "--grid", "129",
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "# schema=paired_mc@1"


@pytest.mark.parametrize("command", [["network-rate", "--sweep", "16,32,64,128"], ["paired-mc", "--m", "16"]])
def test_repeated_seed_rejected(target_file, command):
    with pytest.raises(ValueError, match="seed 1 is given more than once"):
        main([*command, "--target", target_file, "--r", "2", "--seed", "1,1", "--grid", "33"])


def test_verify_identity(capsys):
    assert main(["verify-identity", "--samples", "20", "--cmax", "5"]) == 0
    out = capsys.readouterr().out
    trailer = [ln for ln in out.splitlines() if ln.startswith("# max_residual=")][0]
    assert float(trailer.split("=", 1)[1]) < 1e-8


def test_missing_required_flag_exits(target_file):
    with pytest.raises(SystemExit):
        main(["spectral", "--target", target_file, "--r", "2"])  # no --L


def test_unknown_config_key_rejected(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("bogus = 1\n")
    with pytest.raises(SystemExit):
        main(["kernel", "--config", str(cfg), "--N", "1", "--r", "1"])


def test_config_line_is_the_flag_it_names(tmp_path):
    """Config values for flags with an argparse default (verify-identity's
    panels and seed) used to be dropped in favour of the default."""
    cfg = tmp_path / "vi.cfg"
    cfg.write_text("samples = 5\ncmax = 4\npanels = 4\nseed = 5\n")
    by_config, by_flags = tmp_path / "config.csv", tmp_path / "flags.csv"
    assert main(["verify-identity", "--config", str(cfg), "--out", str(by_config)]) == 0
    flags = ["--samples", "5", "--cmax", "4", "--panels", "4", "--seed", "5"]
    assert main(["verify-identity", *flags, "--out", str(by_flags)]) == 0
    assert by_config.read_bytes() == by_flags.read_bytes()
    assert main(["verify-identity", "--samples", "5", "--cmax", "4", "--out", str(by_flags)]) == 0
    assert by_config.read_bytes() != by_flags.read_bytes()


def test_explicit_flag_beats_config(target_file, tmp_path):
    """Typed flags override config values, before and after ``--config``."""
    cfg = tmp_path / "net.cfg"
    cfg.write_text(f"target = {target_file}\nr = 2\nm = 64\nseed = 9\nout = {tmp_path / 'cfg.csv'}\n")
    flags = ["--target", target_file, "--r", "2", "--m", "64"]
    assert main(["construct", *flags, "--seed", "5", "--out", str(tmp_path / "flags.csv")]) == 0
    assert main(["construct", "--seed", "5", "--config", str(cfg), "--out", str(tmp_path / "mixed.csv")]) == 0
    assert (tmp_path / "mixed.csv").read_bytes() == (tmp_path / "flags.csv").read_bytes()
    assert not (tmp_path / "cfg.csv").exists()


def test_config_keys_accept_dash_or_underscore(target_file, tmp_path):
    """``N_exponent`` and ``N-exponent`` both name ``--N-exponent``."""
    base = f"target = {target_file}\nr = 2\nsweep = 16,32,64,128\nseed = 1\ngrid = 65\n"
    outputs = []
    for key in ("N_exponent", "N-exponent"):
        cfg = tmp_path / f"{key}.cfg"
        cfg.write_text(base + f"{key} = 0.5\nout = {tmp_path / key}.csv\n")
        assert main(["network-rate", "--config", str(cfg)]) == 0
        outputs.append((tmp_path / f"{key}.csv").read_bytes())
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("line", ["pan = 4", "sample = 5", "plain = true"])
def test_config_key_must_name_a_flag_exactly(tmp_path, line):
    """A prefix of a flag, or a value for a switch, is rejected as before."""
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(line + "\n")
    with pytest.raises(SystemExit):
        main(["verify-identity", "--samples", "2", "--cmax", "1", "--config", str(cfg)])


@pytest.mark.parametrize(
    "argv",
    [
        ["construct", "--r", "2", "--m", "64", "--seed", "5", "--out", "net.csv"],  # no --target
        ["construct", "--target", "t.txt", "--r", "2", "--m", "64", "--seed", "5"],  # no --out
        ["kernel", "--N", "4"],  # no --r
        ["verify-identity", "--samples", "2"],  # no --cmax
    ],
)
def test_required_flags_enforced_by_argparse(tmp_path, monkeypatch, argv):
    """Each required flag was checked before any file was read, and still is."""
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit):
        main(argv)
    assert not (tmp_path / "net.csv").exists()


def test_module_entry_point_reads_config(tmp_path):
    """``python -m relu_jackson.cli`` parses ``sys.argv`` (``argv=None``)."""
    cfg = tmp_path / "kernel.cfg"
    cfg.write_text("N = 8\nr = 2\n")
    lines = run_python("-m", "relu_jackson.cli", "kernel", "--config", str(cfg)).stdout.splitlines()
    assert lines[0] == "# schema=kernel@1"
    assert len(lines) == 2 + 17


#: Each subcommand that writes CSV, at a small size, and the flag that names its file.
WRITERS = {
    "kernel": (["kernel", "--N", "4", "--r", "2"], "--dump"),
    "spectral": (["spectral", "--r", "2", "--L", "2", "--grid", "16"], "--out"),
    "jackson-rate": (["jackson-rate", "--r", "2", "--sweep", "2,4,8,16", "--grid", "16"], "--out"),
    "network-rate": (["network-rate", "--r", "2", "--sweep", "16,32,64,128", "--seed", "1,2", "--grid", "33"], "--out"),
    "paired-mc": (["paired-mc", "--r", "2", "--m", "64", "--seed", "0,1", "--grid", "33"], "--out"),
    "verify-identity": (["verify-identity", "--samples", "3", "--cmax", "4", "--panels", "64"], "--out"),
}


@pytest.mark.parametrize("command", WRITERS)
def test_stdout_and_file_get_the_same_bytes(target_file, tmp_path, capsys, command):
    """``main`` writes each handler's text once: to stdout, or only to the named file."""
    argv, flag = WRITERS[command]
    if command not in ("kernel", "verify-identity"):
        argv = [*argv, "--target", target_file]
    assert main(argv) == 0
    stdout = capsys.readouterr().out
    assert stdout.startswith("# schema=")
    out = tmp_path / "out.csv"
    assert main([*argv, flag, str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert out.read_bytes() == stdout.encode()


def test_construct_writes_nothing_to_stdout(target_file, tmp_path, capsys):
    out = tmp_path / "net.csv"
    assert main(["construct", "--target", target_file, "--r", "2", "--m", "64", "--seed", "5", "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert out.read_text().startswith("# schema=network@2")


def test_kernel_help_names_dump(capsys):
    with pytest.raises(SystemExit) as done:
        main(["kernel", "--help"])
    assert done.value.code == 0
    text = capsys.readouterr().out
    assert "--dump DUMP" in text
    assert "--out" not in text


@pytest.mark.parametrize("command", ["jackson-rate", "network-rate", "paired-mc"])
def test_rate_runner_looked_up_on_the_module(target_file, monkeypatch, capsys, command):
    """A runner replaced on the CLI module, as a tracing wrapper does, is the one called."""
    argv = [*WRITERS[command][0], "--target", target_file]
    name = "run_" + command.replace("-", "_")
    monkeypatch.setattr(cli, name, lambda exp: f"# {name} {exp.mode}\n")
    assert main(argv) == 0
    assert capsys.readouterr().out == f"# {name} {command}\n"


@pytest.mark.parametrize("exponent", ["inf", "-inf", "nan", "1e308"])
def test_network_rate_rejects_bad_exponent(target_file, capsys, exponent):
    argv = [*WRITERS["network-rate"][0], "--target", target_file, f"--N-exponent={exponent}"]  # "-inf" reads as a flag
    with pytest.raises(ValueError, match="bandwidth_exponent"):
        main(argv)
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize(
    "flags, named",
    [
        (["--samples", "-3", "--cmax", "4"], "--samples must be >= 1, got -3"),
        (["--samples", "0", "--cmax", "4"], "--samples must be >= 1, got 0"),
        (["--samples", "3", "--cmax", "nan"], "--cmax must be finite and positive, got nan"),
        (["--samples", "3", "--cmax", "inf"], "--cmax must be finite and positive, got inf"),
        (["--samples", "3", "--cmax", "0"], "--cmax must be finite and positive, got 0.0"),
        (["--samples", "3", "--cmax", "-2"], "--cmax must be finite and positive, got -2.0"),
    ],
)
def test_verify_identity_rejects_bad_sweep(capsys, flags, named):
    """``--cmax nan`` and ``--samples -3`` used to end in ``# max_residual=0``."""
    with pytest.raises(ValueError, match=named):
        main(["verify-identity", *flags])
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("exponent", ["-1", "0", "-0.0"])
def test_network_rate_rejects_non_positive_exponent(target_file, capsys, exponent):
    """``--N-exponent=-1`` used to write N_selected 1 and one error in every row."""
    argv = [*WRITERS["network-rate"][0], "--target", target_file, f"--N-exponent={exponent}"]
    with pytest.raises(ValueError, match=f"bandwidth_exponent must be finite and positive, got {float(exponent)}"):
        main(argv)
    assert capsys.readouterr().out == ""


def test_network_rate_rejects_flat_schedule(target_file, capsys):
    """``--N-exponent=0.1`` on widths 64..512 used to write N_selected 1, v 0 and one error in every row."""
    argv = ["network-rate", "--r", "2", "--sweep", "64,128,256,512", "--seed", "1", "--grid", "33",
            "--target", target_file, "--N-exponent=0.1"]
    with pytest.raises(ValueError, match=r"^bandwidth_exponent=0\.1 .* largest width m=512: .*no rate"):
        main(argv)
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("exponent", ["0.5", "0.75"])
def test_network_rate_runs_the_benchmark_exponents(target_file, capsys, exponent):
    assert main([*WRITERS["network-rate"][0], "--target", target_file, f"--N-exponent={exponent}"]) == 0
    rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[2:] if not line.startswith("#")]
    assert [int(row[1]) for row in rows] == [int(m ** float(exponent)) for m in (16, 32, 64, 128)]


def test_parsers_built_once_and_handlers_read_the_module(target_file, monkeypatch, capsys):
    """The first call builds the parsers and later calls reuse them; a runner
    replaced on the module after that is still the one a handler calls."""
    assert main(["kernel", "--N", "1", "--r", "1"]) == 0
    built = cli._parsers()
    capsys.readouterr()
    monkeypatch.setattr(cli, "run_network_rate", lambda exp: f"# replaced {exp.mode}\n")
    assert main([*WRITERS["network-rate"][0], "--target", target_file]) == 0
    assert capsys.readouterr().out == "# replaced network-rate\n"
    assert cli._parsers() is built


def test_config_run_leaves_no_default_behind(target_file, tmp_path):
    """A run whose config sets ``N-exponent``, then the same run without the
    config in the same process: the second writes what it writes on its own."""
    base = ["network-rate", "--target", target_file, "--r", "2", "--sweep", "16,32,64,128", "--seed", "1", "--grid", "33"]
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("N-exponent = 0.75\n")
    assert main([*base, "--config", str(cfg), "--out", str(tmp_path / "config.csv")]) == 0
    assert main([*base, "--out", str(tmp_path / "after.csv")]) == 0
    run_python("-m", "relu_jackson.cli", *base, "--out", str(tmp_path / "alone.csv"))
    alone = (tmp_path / "alone.csv").read_bytes()
    assert (tmp_path / "after.csv").read_bytes() == alone
    assert (tmp_path / "config.csv").read_bytes() != alone  # the config did change its own run


@pytest.mark.parametrize("bad", [["--bogus", "1"], ["--N", "x"]], ids=["unknown_flag", "bad_value"])
def test_bad_flag_exits_2_and_the_next_call_runs(capsys, bad):
    argv = ["kernel", "--N", "2", "--r", "1"]
    assert main(argv) == 0
    want = capsys.readouterr().out
    with pytest.raises(SystemExit) as done:
        main([*argv, *bad])
    assert done.value.code == 2
    assert capsys.readouterr().out == ""
    assert main(argv) == 0
    assert capsys.readouterr().out == want
