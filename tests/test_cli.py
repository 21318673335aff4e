"""End-to-end tests of the command-line interface."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import plugplay_qkd
from plugplay_qkd import code_to_phase, uniformity_chisq
from plugplay_qkd.cli import main
from plugplay_qkd.protocol import pattern_stream

FAST_SESSION = ["session", "--bits", "3000", "--seed", "5"]


def test_session_happy_path(capsys):
    assert main(FAST_SESSION) == 0
    out = capsys.readouterr().out
    assert out.startswith("qber=")
    fields = dict(part.split("=") for part in out.split())
    assert set(fields) == {"qber", "std_error", "n_sifted", "n_errors"}
    assert 0.0 <= float(fields["qber"]) <= 1.0
    assert int(fields["n_sifted"]) > 0


def test_session_is_deterministic(capsys):
    assert main(FAST_SESSION) == 0
    first = capsys.readouterr().out
    assert main(FAST_SESSION) == 0
    assert capsys.readouterr().out == first


def test_session_writes_record_csv(tmp_path, capsys):
    target = tmp_path / "records.csv"
    code = main(["session", "--bits", "4000", "--seed", "3", "--output", str(target)])
    assert code == 0
    lines = target.read_text().strip().split("\n")
    assert lines[0] == "bit_index,alice_basis,alice_bit,bob_basis,click_d0,click_d1"
    assert len(lines) == 4001
    assert f"wrote 4000 records to {target}" in capsys.readouterr().out


def test_session_rejects_invalid_parameters(capsys):
    assert main(["session", "--bits", "0"]) == 1
    assert "error:" in capsys.readouterr().err
    assert main(["session", "--mean-photon", "-1"]) == 1
    assert main(["session", "--polarization", "bogus"]) == 1


def test_session_rejects_non_finite_parameters(capsys):
    for bad in (["--tau-mzi-ns", "nan"], ["--period-ns", "nan"], ["--mean-photon", "nan"],
                ["--fiber-km", "nan"], ["--insertion-loss-db", "inf"], ["--roundtrip-ns=-inf"]):
        assert main(["session", "--bits", "500", *bad]) == 1, bad
        captured = capsys.readouterr()
        assert "error:" in captured.err and "must be finite" in captured.err, bad
        assert captured.out == ""


def test_usage_errors(capsys):
    assert main([]) == 1
    assert main(["no-such-command"]) == 1
    assert main(["session", "--no-such-flag"]) == 1
    err = capsys.readouterr().err
    assert err  # something was said on stderr


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "session" in capsys.readouterr().out
    assert main(["scan", "--help"]) == 0
    assert "--scan-range-ns" in capsys.readouterr().out


def _scan_args(output, **extra):
    args = [
        "scan", "--bits", "2000", "--seed", "11",
        "--scan-range-ns", "30", "--scan-step-ns", "10",
        "--output", str(output),
    ]
    for key, value in extra.items():
        args += [f"--{key.replace('_', '-')}", str(value)]
    return args


def test_scan_writes_expected_grid(tmp_path, capsys):
    target = tmp_path / "scan.csv"
    assert main(_scan_args(target)) == 0
    lines = target.read_text().strip().split("\n")
    assert lines[0] == "delay_ns,qber,std_error,n_sifted,n_errors"
    delays = [float(line.split(",")[0]) for line in lines[1:]]
    assert delays == [-30.0, -20.0, -10.0, 0.0, 10.0, 20.0, 30.0]
    out = capsys.readouterr().out
    assert f"wrote 7 points to {target}" in out
    assert out.count("delay_ns=") == 7


def test_scan_reruns_identically(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(_scan_args(a)) == 0
    assert main(_scan_args(b)) == 0
    assert a.read_bytes() == b.read_bytes()


def test_scan_threads_do_not_change_results(tmp_path):
    serial, threaded = tmp_path / "serial.csv", tmp_path / "threaded.csv"
    assert main(_scan_args(serial)) == 0
    assert main(_scan_args(threaded, threads=3)) == 0
    assert serial.read_bytes() == threaded.read_bytes()


def test_scan_rejects_ragged_grid(tmp_path, capsys):
    target = tmp_path / "scan.csv"
    assert main(_scan_args(target) + ["--scan-step-ns", "7"]) == 1
    assert "whole number of steps" in capsys.readouterr().err
    # a non-finite range or step is refused before any session runs
    for flag, value in (("--scan-range-ns", "nan"), ("--scan-range-ns", "inf"),
                        ("--scan-step-ns", "nan"), ("--scan-step-ns", "inf")):
        assert main(_scan_args(target) + [flag, value]) == 1, (flag, value)
        assert "scan range and step must be finite and positive" in capsys.readouterr().err
    config = tmp_path / "scan.conf"
    config.write_text("scan_step_ns = nan\n")
    assert main(["scan", "--bits", "2000", "--config", str(config)]) == 1
    assert "scan range and step must be finite and positive" in capsys.readouterr().err
    assert not target.exists()


def test_config_file_equivalent_to_flags(tmp_path, capsys):
    config = tmp_path / "run.conf"
    config.write_text(
        "# demo run\n"
        "seed = 7\n"
        "bits = 3000\n"
        "mean_photon = 0.2\n"
        "polarization = d\n"
        "# keys only other subcommands take are skipped, so one file serves all\n"
        "codes = 30000\n"
        "threads = 2\n"
    )
    assert main(["session", "--config", str(config)]) == 0
    from_file = capsys.readouterr().out
    assert main(["session", "--seed", "7", "--bits", "3000",
                 "--mean-photon", "0.2", "--polarization", "d"]) == 0
    assert capsys.readouterr().out == from_file


def test_flags_override_config_file(tmp_path, capsys):
    config = tmp_path / "run.conf"
    config.write_text("seed = 7\nbits = 3000\n")
    assert main(["session", "--config", str(config), "--seed", "9"]) == 0
    overridden = capsys.readouterr().out
    assert main(["session", "--seed", "9", "--bits", "3000"]) == 0
    assert capsys.readouterr().out == overridden
    assert main(["session", "--config", str(config)]) == 0
    assert capsys.readouterr().out != overridden


def test_config_file_errors(tmp_path, capsys):
    bad_key = tmp_path / "bad_key.conf"
    bad_key.write_text("volume = 11\n")
    assert main(["session", "--config", str(bad_key)]) == 1
    assert "unknown option" in capsys.readouterr().err

    bad_line = tmp_path / "bad_line.conf"
    bad_line.write_text("seed\n")
    assert main(["session", "--config", str(bad_line)]) == 1
    assert "expected 'key = value'" in capsys.readouterr().err

    bad_value = tmp_path / "bad_value.conf"
    bad_value.write_text("bits = plenty\n")
    assert main(["session", "--config", str(bad_value)]) == 1
    assert "invalid" in capsys.readouterr().err

    assert main(["session", "--config", str(tmp_path / "missing.conf")]) == 2
    assert "i/o error" in capsys.readouterr().err

    not_utf8 = tmp_path / "not_utf8.conf"
    not_utf8.write_bytes(b"seed = 5\n\xff\xfe\n")
    assert main(["session", "--config", str(not_utf8)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(not_utf8) in err and "UTF-8" in err


# One cheap command line per subcommand, bright and misaligned enough that
# every value below shows in its output, and one other value per long flag
# it takes (--config and --help aside).
_BRIGHT = {"mean_photon": "1", "efficiency": "0.9"}
_CLI_BASE = {
    "session": {"bits": "3000", **_BRIGHT, "delay_ns": "70", "output": "records.csv"},
    "scan": {"bits": "3000", **_BRIGHT, "scan_range_ns": "100", "scan_step_ns": "25"},
    "verify-uniformity": {"codes": "20000"},
    "density": {"n_max": "4"},
}
_SESSION_VALUES = {
    "seed": "7", "bits": "1500", "mean_photon": "0.3", "mu_convention": "signal",
    "period_ns": "250", "roundtrip_ns": "0", "tau_mzi_ns": "10", "insertion_loss_db": "1",
    "fiber_km": "10", "fiber_loss_db_per_km": "0.3", "efficiency": "0.5", "dark_prob": "0.01",
    "randomizer": "off", "double_click_policy": "random", "polarization": "0.6, 0, 0, 0.8",
}
_CLI_VALUES = {
    "session": {**_SESSION_VALUES, "delay_ns": "100", "output": "other.csv"},
    "scan": {**_SESSION_VALUES, "scan_range_ns": "50", "scan_step_ns": "50", "threads": "2",
             "output": "scan.csv"},
    "verify-uniformity": {"seed": "3", "codes": "30000", "bins": "64", "constant_code": "7"},
    "density": {"mean_photon": "0.4", "n_max": "3", "phase_dist": "discrete:2",
                "output": "rho.csv"},
}


def _run_cli(directory, command, flags, monkeypatch, capsys, config=None):
    """Run ``command`` in ``directory``; return its exit code, stdout and files."""
    directory.mkdir()
    monkeypatch.chdir(directory)
    argv = [command]
    for key, value in flags.items():
        argv.append(f"--{key.replace('_', '-')}={value}")
    if config is not None:
        argv += ["--config", str(config)]
    code = main(argv)
    files = {path.name: path.read_bytes() for path in directory.iterdir()}
    return code, capsys.readouterr().out, files


@pytest.mark.parametrize(
    "command,key", [(command, key) for command, values in _CLI_VALUES.items() for key in values]
)
def test_config_key_acts_like_its_flag(tmp_path, monkeypatch, capsys, command, key):
    value = _CLI_VALUES[command][key]
    config = tmp_path / "run.conf"
    config.write_text(f"{key} = {value}\n")
    base = _CLI_BASE[command]
    by_flag = _run_cli(tmp_path / "flag", command, {**base, key: value}, monkeypatch, capsys)
    from_file = _run_cli(tmp_path / "file", command, {k: v for k, v in base.items() if k != key},
                         monkeypatch, capsys, config=config)
    assert by_flag[0] in (0, 3)
    assert from_file == by_flag
    if key != "threads":  # the worker count never changes a result
        assert _run_cli(tmp_path / "base", command, base, monkeypatch, capsys) != by_flag


def test_config_keys_cover_every_flag(tmp_path, capsys):
    for command, values in _CLI_VALUES.items():
        assert main([command, "--help"]) == 0
        flags = set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out))
        assert flags - {"--help", "--config"} == {f"--{k.replace('_', '-')}" for k in values}
    # a bad file value fails like the same bad flag, naming the file
    for line in ("bits = plenty", "randomizer = maybe"):
        config = tmp_path / "bad.conf"
        config.write_text(line + "\n")
        assert main(["session", "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {config}: ") and "invalid" in err
    # --config names the file; a file cannot name another
    config.write_text("config = other.conf\n")
    assert main(["session", "--config", str(config)]) == 1
    assert "unknown option 'config'" in capsys.readouterr().err


def test_verify_uniformity_accepts_default_stream(capsys):
    assert main(["verify-uniformity"]) == 0
    out = capsys.readouterr().out
    assert "consistent with uniform" in out
    assert "chi-square statistic" in out


def test_verify_uniformity_rejects_constant_stream(capsys):
    assert main(["verify-uniformity", "--codes", "100000", "--constant-code", "100"]) == 3
    out = capsys.readouterr().out
    assert "REJECTED" in out


def test_verify_uniformity_parameter_errors(capsys):
    assert main(["verify-uniformity", "--codes", "100"]) == 1  # undersampled
    assert main(["verify-uniformity", "--codes", "0"]) == 1
    assert main(["verify-uniformity", "--codes", "100000", "--constant-code", "5000"]) == 1
    assert capsys.readouterr().err


def test_verify_uniformity_audits_the_session_pattern_stream(capsys):
    n_codes = 30_000
    codes = pattern_stream(7, n_codes)
    statistic, threshold = uniformity_chisq(code_to_phase(codes), n_bins=256)
    base = ["verify-uniformity", "--codes", str(n_codes), "--seed", "7"]
    assert main(base) in (0, 3)
    first = capsys.readouterr().out
    assert first.startswith(
        f"chi-square statistic {statistic:.2f} vs 99th-percentile threshold {threshold:.2f} "
    )
    # the stream is one draw; no frame length option cuts it
    assert main(base + ["--frame-len", "7"]) == 1
    assert "unrecognized arguments: --frame-len" in capsys.readouterr().err


def test_verify_uniformity_rejects_bad_seed_and_frame_len(tmp_path, capsys):
    assert main(["verify-uniformity", "--codes", "10000", "--seed", "-1"]) == 1
    assert capsys.readouterr().err
    # the frame length is fixed: no flag and no config key sets it
    for command in ("session", "scan"):
        assert main([command, "--bits", "500", "--frame-len", "7"]) == 1
        assert "unrecognized arguments: --frame-len" in capsys.readouterr().err
    config = tmp_path / "frames.conf"
    config.write_text("frame_len = 504\n")
    assert main(["session", "--bits", "500", "--config", str(config)]) == 1
    assert "unknown option 'frame_len'" in capsys.readouterr().err


def test_cli_import_loads_no_scipy():
    # scipy is a test-only dependency; importing it would cost ~1 s per run
    package_root = str(Path(plugplay_qkd.__file__).resolve().parents[1])
    code = ("import sys, plugplay_qkd.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=package_root))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_density_writes_matrix(tmp_path, capsys):
    target = tmp_path / "rho.csv"
    code = main(["density", "--mean-photon", "0.1", "--n-max", "6",
                 "--phase-dist", "uniform", "--output", str(target)])
    assert code == 0
    lines = target.read_text().strip().split("\n")
    assert lines[0] == "n,m,real,imag"
    assert len(lines) == 1 + 49
    out = capsys.readouterr().out
    assert "trace=" in out and "max_offdiag=0.000000e+00" in out


def test_density_distribution_forms(tmp_path):
    for dist in ("discrete:4", "fixed:0.5", "fixed"):
        target = tmp_path / f"{dist.replace(':', '_')}.csv"
        assert main(["density", "--n-max", "4", "--phase-dist", dist,
                     "--output", str(target)]) == 0
        assert target.exists()


def test_density_rejects_bad_distribution(capsys):
    assert main(["density", "--phase-dist", "weird"]) == 1
    assert main(["density", "--phase-dist", "discrete:few"]) == 1
    assert main(["density", "--mean-photon", "-2"]) == 1
    assert capsys.readouterr().err


def test_unwritable_output_is_an_io_error(tmp_path, capsys):
    target = tmp_path / "no_such_dir" / "out.csv"
    assert main(["density", "--n-max", "3", "--output", str(target)]) == 2
    assert "i/o error" in capsys.readouterr().err


def test_module_entry_point(tmp_path, capsys):
    # The child runs outside the repo, where a relative PYTHONPATH entry such
    # as "src" names nothing; put the directory holding the package this test
    # imported first on its path, so both runs use the same package copy.
    package_root = str(Path(plugplay_qkd.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")])
    )
    args = ["session", "--bits", "500", "--seed", "1"]
    proc = subprocess.run(
        [sys.executable, "-m", "plugplay_qkd", *args],
        capture_output=True, text=True, cwd=tmp_path, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("qber=")
    assert main(args) == 0
    assert proc.stdout == capsys.readouterr().out
