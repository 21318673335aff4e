"""End-to-end tests of the command-line interface."""

import hashlib
import math
import re
import subprocess
import sys

import numpy as np
import pytest

from conftest import child_env, peak_bytes
from oracle import reference_chisq

import plugplay_qkd
from plugplay_qkd import code_to_phase, uniformity_chisq
from plugplay_qkd.cli import _scan_delays, main
from plugplay_qkd.protocol import pattern_stream

FAST_SESSION = ["session", "--bits", "3000", "--seed", "5"]

# SHA-256 of the stdout of `density --mean-photon 0.1 --n-max 20 --phase-dist
# DIST --output density.csv` followed by the CSV it writes, and of the stdout
# of `verify-uniformity --seed 9`. A refactor must keep these bytes.
DENSITY_DIGESTS = {
    "uniform": "42e4a8f8b3f42059a36b6aa06240089d977ae049246ff0f1a2efa0b3dfba9569",
    "discrete:4096": "0bc1f11cd35151da8ca57e5e5769ab87f726a251f36019999c13b096f5c5601f",
    "fixed:0.3": "4fda1dfa253261650ace1c71818de085b6716e5868be725badff3e2b6999a8cb",
}
AUDIT_DIGEST = "21813c195289ca8c584272f768bbaf670cb7abc915e7aad694bb514b57aa2d1b"
# SHA-256 of the stdout of `verify-uniformity --codes 100000 --seed 9 --bins N`
# at every bin count the audit takes
AUDIT_BIN_DIGESTS = {
    2: "ae82e50c3c32efcb41282f0e280a6b1ec0e3f4436473c3b5fee38b662b02a6b2",
    4: "4d2cc7be681c8af0d1751eb1194d7a6e9172e1529b1a6eef73619bb5238cbc94",
    8: "178cf108d4914948cf7361c4d072046e628b606aefaec01f4a8ebd3df93b993a",
    16: "08935be78ea07d941c6b1eb9e1ae0870eddabf3371d5f3c4474eb196a6d97595",
    32: "80775af2fcc957591d1786275c33278848a7fc492e09ac0c7f7f2ec5a298d237",
    64: "5fc89af8343ee1a1d95812358fae8550328e044ab4716c57db8a35d702ff7931",
    128: "30163d7f8d5b6898be893a348317bc03a1519e05102988e10b50f43730ac453c",
    256: "a2c0ef4f30e87d35f8848d77dbbd8f00c4624edbb325fa4289dae201c5082d75",
    512: "fc98247fd9e9baf552c8af95160131c91756b15fcd8cfbb6b3e41bee9ae82830",
    1024: "49c11c5469a0d98402905e559c9c55b095f00d67056be7eb346bc155ecc7e225",
    2048: "32a804f69579e5c3ef3af3394c646ed7a5c318c70962ecf2475592e79cebddc9",
    4096: "189cb0aab32f868162031428fe0fc37dd82f6ae8fec64807045a49e9089d35c7",
}


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


def test_session_with_no_sifted_bit_reports_it_and_writes_records(tmp_path, monkeypatch, capsys):
    # about a quarter of 500-bit sessions sift nothing; this one reports NaN
    # the way an empty scan point does, and still writes its records
    monkeypatch.chdir(tmp_path)
    assert main(["session", "--bits", "500", "--seed", "4", "--output", "r.csv"]) == 0
    out = capsys.readouterr().out
    assert out == "wrote 500 records to r.csv\nqber=nan std_error=nan n_sifted=0 n_errors=0\n"
    assert len((tmp_path / "r.csv").read_text().splitlines()) == 501


def test_paper_session_export_memory_is_bounded(tmp_path, capsys):
    # warm (the second run), so only per-run allocations count: the records,
    # about 0.136 B/bit, with one kernel block, about 0.37 B/bit, and then
    # with the export's one 170 KB row buffer and one run's choice bytes;
    # sift reads only the clicked bits' flags. About 0.57 B/bit in all
    n_bits = 843_000
    argv = ["session", "--bits", str(n_bits), "--output", str(tmp_path / "records.csv")]
    assert main(argv) == 0
    peak, code = peak_bytes(lambda: main(argv))
    assert code == 0
    assert f"wrote {n_bits} records" in capsys.readouterr().out
    assert peak / n_bits < 0.8


def test_session_output_over_a_longer_file_leaves_only_the_new_bytes(tmp_path, capsys):
    target, fresh = tmp_path / "records.csv", tmp_path / "fresh.csv"
    assert main(["session", "--bits", "20000", "--output", str(target)]) == 0
    longer = target.stat().st_size
    assert main(["session", "--bits", "1000", "--output", str(target)]) == 0
    assert main(["session", "--bits", "1000", "--output", str(fresh)]) == 0
    capsys.readouterr()
    assert target.stat().st_size < longer
    assert target.read_bytes() == fresh.read_bytes()


def test_session_rejects_invalid_parameters(capsys):
    assert main(["session", "--bits", "0"]) == 1
    assert "error:" in capsys.readouterr().err
    assert main(["session", "--mean-photon", "-1"]) == 1
    assert main(["session", "--polarization", "bogus"]) == 1
    capsys.readouterr()
    assert main(["session", "--polarization", "1,x,0,0"]) == 1
    assert capsys.readouterr() == ("", "error: polarization components must be numbers: '1,x,0,0'\n")


@pytest.mark.parametrize("flags", [["--fiber-km", "16000"], ["--fiber-km", "16200"]])
def test_loss_budget_beyond_float64_range_is_an_error(flags, tmp_path, capsys):
    # 16,000 km overflows the attenuation (inf times a zero gives NaN means);
    # 16,200 km underflows a pulse amplitude to zero and divides by it
    target = tmp_path / "records.csv"
    assert main(["session", "--bits", "1000", *flags, "--output", str(target)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: loss budget out of float64 range")
    assert captured.out == "" and not target.exists()


def test_session_rejects_non_finite_parameters(capsys):
    for bad in (["--tau-mzi-ns", "nan"], ["--period-ns", "nan"], ["--mean-photon", "nan"],
                ["--fiber-km", "nan"], ["--insertion-loss-db", "inf"], ["--roundtrip-ns=-inf"]):
        assert main(["session", "--bits", "500", *bad]) == 1, bad
        captured = capsys.readouterr()
        assert "error:" in captured.err and "must be finite" in captured.err, bad
        assert captured.out == ""


def test_polarizations_past_float_range_run(tmp_path, capsys):
    # their squared norms overflow or underflow to zero: the first two used to
    # end in an OverflowError traceback, the last was refused
    for form in ("0,0,1e200,0", "1.5e308,1.5e308,0,0", "1e-160,0,0,0", "1e-200,0,0,0"):
        assert main(FAST_SESSION + ["--polarization", form]) == 0, form
        assert capsys.readouterr().out.startswith("qber="), form
    runs = {}
    for form in ("v", "0,0,1e200,0"):
        target = tmp_path / "records.csv"
        assert main(FAST_SESSION + ["--polarization", form, "--output", str(target)]) == 0
        runs[form] = (capsys.readouterr(), target.read_bytes())
    assert runs["0,0,1e200,0"] == runs["v"]


def test_negative_values_after_a_flag(capsys):
    # argparse alone reads -1e2, -inf and -0.6,0,0.8,0 as flags, not values
    for flag, value in (("--delay-ns", "-1e2"), ("--polarization", "-0.6,0,0.8,0")):
        assert main(["session", "--bits", "2000", flag, value]) == 0
        spaced = capsys.readouterr().out
        assert main(["session", "--bits", "2000", f"{flag}={value}"]) == 0
        assert capsys.readouterr().out == spaced and spaced.startswith("qber="), flag
    assert main(["session", "--bits", "500", "--mean-photon", "-1e-3"]) == 1
    assert capsys.readouterr().err.endswith("mu_target must be >= 0, got -0.001\n")
    assert main(["session", "--bits", "500", "--delay-ns", "-inf"]) == 1
    assert capsys.readouterr().err == "error: delay_ns must be finite, got -inf\n"
    # a flag followed by another option still misses its value
    assert main(["session", "--output", "--bits", "500"]) == 1
    assert capsys.readouterr().err.endswith("argument --output: expected one argument\n")


def test_usage_errors(capsys):
    assert main([]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("usage: plugplay-qkd [-h] {session,scan,")
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


def test_scan_points_are_the_decimal_grid(tmp_path, capsys):
    # a float sum used to drift: the point printed as 65 ran at
    # 65.00000000000003 ns, past a step edge, and the last one past the range
    delays = _scan_delays(130.2, 0.2)
    assert len(delays) == 1303 and delays[0] == -130.2 and delays[-1] == 130.2
    assert delays[651] == 0.0 and delays[976] == 65.0
    assert delays == [-d for d in reversed(delays)]
    assert _scan_delays(0.3, 0.1)[3] == 0.0
    # an integer grid is unchanged
    assert _scan_delays(200, 10) == [-200.0 + k * 10.0 for k in range(41)]
    # and the centre of the 0.3/0.1 grid prints as 0, not -0
    target = tmp_path / "grid.csv"
    assert main(["scan", "--bits", "2000", "--scan-range-ns", "0.3", "--scan-step-ns", "0.1",
                 "--output", str(target)]) == 0
    printed = [line.split()[0] for line in capsys.readouterr().out.splitlines()[:-1]]
    assert printed == [f"delay_ns={d}" for d in ("-0.3", "-0.2", "-0.1", "0", "0.1", "0.2", "0.3")]


def test_scan_reruns_identically(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(_scan_args(a)) == 0
    assert main(_scan_args(b)) == 0
    assert a.read_bytes() == b.read_bytes()


def test_scan_reports_a_point_with_no_sifted_bit(tmp_path, monkeypatch, capsys):
    # about 4.5 sifted bits are expected per 2,000-bit point: the one at
    # -30 ns has none, and the other 40 points are still written
    monkeypatch.chdir(tmp_path)
    argv = ["scan", "--bits", "2000", "--seed", "9", "--scan-range-ns", "100", "--scan-step-ns", "5"]
    assert main(argv) == 0
    rows = (tmp_path / "qber_vs_delay.csv").read_text().splitlines()[1:]
    assert len(rows) == 41
    assert [row for row in rows if row.split(",")[3] == "0"] == ["-30,nan,nan,0,0"]
    out = capsys.readouterr().out
    assert "delay_ns=-30 qber=nan n_sifted=0\n" in out
    assert out.count("delay_ns=") == 41


def test_scan_threads_do_not_change_results(tmp_path):
    serial, threaded = tmp_path / "serial.csv", tmp_path / "threaded.csv"
    assert main(_scan_args(serial)) == 0
    assert main(_scan_args(threaded, threads=3)) == 0
    assert serial.read_bytes() == threaded.read_bytes()


def test_scan_rejects_ragged_grid(tmp_path, capsys):
    target = tmp_path / "scan.csv"
    assert main(_scan_args(target) + ["--scan-step-ns", "7"]) == 1
    assert "whole number of steps" in capsys.readouterr().err
    # the step count is exact in the decimals given, below 1 ns too: 1e-10
    # is 6 2/3 steps of 3e-11, and 2 * 0.30000000000000004 is not 6 * 0.1
    for range_ns, step_ns in (("1e-10", "3e-11"), ("0.30000000000000004", "0.1")):
        assert main(_scan_args(target) + ["--scan-range-ns", range_ns, "--scan-step-ns", step_ns]) == 1
        assert "whole number of steps" in capsys.readouterr().err
    # a non-finite range or step is refused before any session runs
    for flag, value in (("--scan-range-ns", "nan"), ("--scan-range-ns", "inf"),
                        ("--scan-step-ns", "nan"), ("--scan-step-ns", "inf")):
        assert main(_scan_args(target) + [flag, value]) == 1, (flag, value)
        name = flag[2:].replace("-", "_")
        assert f"error: {name} must be finite, got {value}" in capsys.readouterr().err
    # finite range and step whose step count overflows float64
    assert main(_scan_args(target) + ["--scan-range-ns", "1e300", "--scan-step-ns", "1e-300"]) == 1
    assert "has too many points" in capsys.readouterr().err
    config = tmp_path / "scan.conf"
    config.write_text("scan_step_ns = nan\n")
    assert main(["scan", "--bits", "2000", "--config", str(config)]) == 1
    assert "error: scan_step_ns must be finite, got nan" in capsys.readouterr().err
    assert not target.exists()


def test_scan_refuses_a_grid_past_the_point_limit(tmp_path, capsys):
    # 2e20 and 2,000,001 points: each grid is refused from its step count,
    # before anything of its size is allocated
    target = tmp_path / "scan.csv"
    for range_ns, step_ns, points in (("1e10", "1e-10", "200000000000000000001"),
                                      ("1000", "1e-3", "2000001")):
        peak, code = peak_bytes(
            lambda: main(_scan_args(target) + ["--scan-range-ns", range_ns, "--scan-step-ns", step_ns]))
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"too many points ({points}," in err
        assert peak < 2_000_000
    assert not target.exists()
    # the documented cap of 100,000 points is itself a valid grid, one step more is not
    assert len(_scan_delays(0.5 * 99_999, 1.0)) == 100_000
    with pytest.raises(plugplay_qkd.ValidationError, match=r"too many points \(100001, at most 100000\)"):
        _scan_delays(0.5 * 100_000, 1.0)


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
    # an error names its line, counting from 1 over comments and blank lines
    bad_key = tmp_path / "bad_key.conf"
    bad_key.write_text("# run\nvolume = 11\n")
    assert main(["session", "--config", str(bad_key)]) == 1
    assert capsys.readouterr().err == f"error: {bad_key}:2: unknown option 'volume'\n"

    bad_line = tmp_path / "bad_line.conf"
    bad_line.write_text("seed = 7\n\nseed\n")
    assert main(["session", "--config", str(bad_line)]) == 1
    assert capsys.readouterr().err == f"error: {bad_line}:3: expected 'key = value'\n"

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
    "seed": "7", "bits": "1500", "mean_photon": "0.3",
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


def test_session_seed_defaults_to_42(tmp_path, capsys):
    argv = ["session", "--bits", "3000", "--output", str(tmp_path / "r.csv")]
    outputs = []
    for seed in ([], ["--seed", "42"], ["--seed", "43"]):
        assert main([*argv, *seed]) == 0
        outputs.append((capsys.readouterr().out, (tmp_path / "r.csv").read_bytes()))
    assert outputs[0] == outputs[1] != outputs[2]


def test_scan_seed_defaults_to_42(tmp_path, capsys):
    argv = ["scan", "--bits", "2000", "--scan-range-ns", "100", "--scan-step-ns", "50",
            "--output", str(tmp_path / "g.csv")]
    outputs = []
    for seed in ([], ["--seed", "42"], ["--seed", "43"]):
        assert main([*argv, *seed]) == 0
        outputs.append((capsys.readouterr().out, (tmp_path / "g.csv").read_bytes()))
    assert outputs[0] == outputs[1] != outputs[2]


def test_verify_uniformity_accepts_default_stream(capsys):
    assert main(["verify-uniformity"]) == 0
    out = capsys.readouterr().out
    assert "consistent with uniform" in out
    assert "chi-square statistic" in out


# the second count ends the stream in a partial window
@pytest.mark.parametrize("n_codes", ["100000", "300001"])
def test_verify_uniformity_seed_defaults_to_42(n_codes, capsys):
    assert main(["verify-uniformity", "--codes", n_codes]) == 0
    default = capsys.readouterr().out
    assert main(["verify-uniformity", "--codes", n_codes, "--seed", "42"]) == 0
    assert capsys.readouterr().out == default


def test_verify_uniformity_rejects_constant_stream(capsys):
    assert main(["verify-uniformity", "--codes", "100000", "--constant-code", "100"]) == 3
    out = capsys.readouterr().out
    assert "REJECTED" in out


def test_verify_uniformity_parameter_errors(capsys):
    assert main(["verify-uniformity", "--codes", "100"]) == 1  # undersampled
    assert main(["verify-uniformity", "--codes", "0"]) == 1
    assert main(["verify-uniformity", "--codes", "100000", "--constant-code", "5000"]) == 1
    assert capsys.readouterr().err
    # codes that int32 cannot hold are off the grid too, not wrapped onto it
    for code in (-1, 2**32 + 5, 10**20, -(10**20)):
        assert main(["verify-uniformity", "--codes", "100000", "--constant-code", str(code)]) == 1
        assert capsys.readouterr().err == "error: phase codes must lie in [0, 4095]\n"


def _reference_audit(codes, n_bins):
    # the statistic by hand and the threshold from the package's table
    threshold = uniformity_chisq(np.bincount(codes, minlength=4096), n_bins=n_bins)[1]
    return reference_chisq(codes, n_bins), threshold


def test_verify_uniformity_audits_the_session_pattern_stream(capsys):
    n_codes = 30_000
    codes = pattern_stream(7, n_codes)
    statistic, threshold = _reference_audit(codes, 256)
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


def test_mu_convention_is_retired(tmp_path, capsys):
    # the mean photon target always counts the pulse pair: no flag and no
    # config key makes it count the signal pulse alone
    for command in ("session", "scan"):
        assert main([command, "--bits", "500", "--mu-convention", "signal"]) == 1
        assert "unrecognized arguments: --mu-convention" in capsys.readouterr().err
    config = tmp_path / "convention.conf"
    config.write_text("mu_convention = signal\n")
    assert main(["session", "--bits", "500", "--config", str(config)]) == 1
    assert "unknown option 'mu_convention'" in capsys.readouterr().err


def test_cli_import_loads_no_scipy():
    # scipy is a test-only dependency; importing it would cost ~1 s per run
    code = ("import sys, plugplay_qkd.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=child_env())
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


def test_density_n_max_defaults_to_20(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["density"]) == 0
    default = capsys.readouterr().out
    assert default.endswith("\nwrote (21)x(21) matrix to density.csv\n")
    assert main(["density", "--n-max", "20", "--output", "given.csv"]) == 0
    assert capsys.readouterr().out == default.replace("density.csv", "given.csv")
    assert (tmp_path / "density.csv").read_bytes() == (tmp_path / "given.csv").read_bytes()


def test_density_distribution_forms(tmp_path):
    for dist in ("discrete:4", "fixed:0.5", "fixed", " Discrete:4 "):
        target = tmp_path / f"{dist.strip().replace(':', '_')}.csv"
        assert main(["density", "--n-max", "4", "--phase-dist", dist,
                     "--output", str(target)]) == 0
        assert target.exists()
    # the name is read without case or surrounding space
    assert (tmp_path / "Discrete_4.csv").read_bytes() == (tmp_path / "discrete_4.csv").read_bytes()


@pytest.mark.parametrize("dist", sorted(DENSITY_DIGESTS))
def test_density_output_matches_golden_digest(dist, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["density", "--mean-photon", "0.1", "--n-max", "20", "--phase-dist", dist,
                 "--output", "density.csv"]) == 0
    output = capsys.readouterr().out.encode() + (tmp_path / "density.csv").read_bytes()
    assert hashlib.sha256(output).hexdigest() == DENSITY_DIGESTS[dist]


@pytest.mark.parametrize("extra", [[], ["--constant-code", "0"]])
def test_verify_uniformity_memory_is_bounded(extra, capsys):
    # one window of raw words, its codes and their bincount cast, beside a
    # 4096-entry histogram: nothing is as long as the stream
    n_codes = 4_000_000
    # warm: the first audit of a process imports the rest of numpy.random
    # and argparse's locale support, about 0.06 B/code more here
    main(["verify-uniformity", "--codes", "3000", *extra])
    capsys.readouterr()
    peak, status = peak_bytes(lambda: main(["verify-uniformity", "--codes", str(n_codes), *extra]))
    assert status == (3 if extra else 0)
    assert f"{n_codes} codes)" in capsys.readouterr().out
    assert peak / n_codes < 0.12


def test_audit_builds_one_generator(pcg64_builds, generator_builds, capsys):
    # the pattern substream's, which every window of the stream is read
    # through as raw words, with no Generator over them
    assert main(["verify-uniformity", "--codes", "4000000"]) == 0
    assert [seed.spawn_key for seed in pcg64_builds] == [(0,)]
    assert generator_builds == []


def test_constant_code_audit_allocates_no_stream(capsys):
    # one phase with one count, however many codes: no 800 MB of phases
    peak, status = peak_bytes(lambda: main(["verify-uniformity", "--codes", "99999999", "--constant-code", "0"]))
    assert status == 3
    assert "REJECTED" in capsys.readouterr().out
    assert peak < 1 << 20


# the counted audit prints the statistic of the whole sample of float phases
# at every accepted bin count: each code's phase falls in its run's bin
@pytest.mark.parametrize("n_bins", [2**k for k in range(1, 13)])
def test_verify_uniformity_prints_the_statistic_of_the_float_phases(n_bins, capsys):
    n_codes = 300_001
    codes = pattern_stream(11, n_codes)
    phase_bins = np.floor(code_to_phase(codes) * (n_bins / (2.0 * math.pi))).astype(np.int64)
    assert np.array_equal(phase_bins, codes // (4096 // n_bins))
    statistic, threshold = _reference_audit(codes, n_bins)
    status = main(["verify-uniformity", "--codes", str(n_codes), "--seed", "11", "--bins", str(n_bins)])
    assert status == (3 if statistic > threshold else 0)
    assert capsys.readouterr().out.startswith(
        f"chi-square statistic {statistic:.2f} vs 99th-percentile threshold {threshold:.2f} "
        f"({n_bins} bins, {n_codes} codes)\n"
    )


@pytest.mark.parametrize("extra", [[], ["--constant-code", "5"]])
def test_verify_uniformity_does_not_depend_on_the_window(extra, monkeypatch, capsys):
    # windows of 7 codes cut the stream off every raw PCG64 word
    argv = ["verify-uniformity", "--codes", "30001", "--bins", "32", *extra]
    status = main(argv)
    default = capsys.readouterr()
    monkeypatch.setattr(plugplay_qkd.cli, "_AUDIT_WINDOW", 7)
    assert main(argv) == status
    assert capsys.readouterr() == default


_UNEVEN_BINS = [3, 26, 96, 100, 1000, 3000, 4097, 6000, 8192]


@pytest.mark.parametrize(
    "extra, message",
    [(["--bins", "1"], "n_bins must be >= 2, got 1"),
     (["--bins", "10000000"], "need at least 100000000 samples for 10000000 bins, got 99999999"),
     # a bad bin count is named ahead of a bad seed or constant code
     (["--bins", "1", "--seed", "-1"], "n_bins must be >= 2, got 1"),
     (["--bins", "1", "--constant-code", "5000"], "n_bins must be >= 2, got 1")]
    # a count that does not divide the grid leaves its bins unequal shares of codes
    + [(["--bins", str(n)], f"n_bins must divide the 4096 DAC codes evenly (a power of two up to 4096), got {n}")
       for n in _UNEVEN_BINS],
    ids=["bins-low", "undersampled", "bins-before-seed", "bins-before-constant-code"]
    + [f"uneven-{n}" for n in _UNEVEN_BINS],
)
def test_verify_uniformity_checks_bins_before_the_draw(extra, message, monkeypatch, capsys):
    def no_draw(*args):
        raise AssertionError("the stream was drawn")

    # the audit draws every window through this name
    monkeypatch.setattr(plugplay_qkd.cli, "generate_pattern", no_draw)
    peak, status = peak_bytes(lambda: main(["verify-uniformity", "--codes", "99999999", *extra]))
    assert status == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")
    # the 800 MB of phases were never allocated
    assert peak < 1 << 20


def test_verify_uniformity_output_matches_golden_digest(capsys):
    assert main(["verify-uniformity", "--seed", "9"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == AUDIT_DIGEST


@pytest.mark.parametrize("n_bins", sorted(AUDIT_BIN_DIGESTS))
def test_verify_uniformity_matches_golden_digests_at_every_bin_count(n_bins, capsys):
    assert main(["verify-uniformity", "--codes", "100000", "--seed", "9", "--bins", str(n_bins)]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == AUDIT_BIN_DIGESTS[n_bins]


def test_density_rejects_bad_distribution(capsys):
    assert main(["density", "--phase-dist", "weird"]) == 1
    assert main(["density", "--phase-dist", "discrete:few"]) == 1
    assert main(["density", "--mean-photon", "-2"]) == 1
    assert capsys.readouterr().err


# a number that parses but is no valid distribution is named by the
# distribution's own rule, not as a failed parse
@pytest.mark.parametrize(
    "form, message",
    [("discrete:0", f"n_values must be in [1, {2**63 - 1}], got 0"),
     ("discrete:-3", f"n_values must be in [1, {2**63 - 1}], got -3"),
     # a count past int64 used to end in an OverflowError traceback
     ("discrete:99999999999999999999", f"n_values must be in [1, {2**63 - 1}], got 99999999999999999999"),
     ("fixed:nan", "phi must be finite, got nan"), ("fixed:inf", "phi must be finite, got inf"),
     ("discrete:few", "discrete needs an integer count, got 'few'"),
     ("fixed:abc", "fixed needs a phase in radians, got 'abc'"),
     ("uniform:3", "uniform takes no argument")],
)
def test_density_names_the_fault_of_a_distribution(form, message, tmp_path, capsys):
    target = tmp_path / "density.csv"
    assert main(["density", "--phase-dist", form, "--output", str(target)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not target.exists()


def test_density_of_a_huge_fixed_phase_is_finite(tmp_path, capsys):
    # it used to exit 0 with max_offdiag=nan and 380 NaN entries
    target = tmp_path / "density.csv"
    assert main(["density", "--phase-dist", "fixed:1e308", "--output", str(target)]) == 0
    assert "nan" not in capsys.readouterr().out + target.read_text()


def test_huge_sessions_are_errors(monkeypatch, capsys):
    assert main(["session", "--bits", str(10**20)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and "n_bits" in captured.err
    assert captured.out == ""

    # a size numpy can describe but the machine cannot hold
    def out_of_memory(config):
        raise MemoryError("Unable to allocate 931. GiB for an array")

    monkeypatch.setattr(plugplay_qkd.cli, "run_session", out_of_memory)
    assert main(["session", "--bits", str(10**12)]) == 1
    assert capsys.readouterr().err == "error: Unable to allocate 931. GiB for an array\n"


def test_huge_audits_and_matrices_are_errors(tmp_path, capsys):
    # refused before anything is allocated: each used to end in a numpy
    # "maximum allowed" ValueError traceback
    largest = np.iinfo(np.intp).max // 8  # the longest float64 array
    for codes in (10**20, largest + 1):
        for extra in ([], ["--constant-code", "5"]):
            assert main(["verify-uniformity", "--codes", str(codes), *extra]) == 1
            captured = capsys.readouterr()
            assert captured.err.startswith("error: codes must be in [1, ") and captured.out == ""
    target = tmp_path / "rho.csv"
    # the (n_max + 1)^2 complex128 entries pass numpy's limit
    for n_max in (10**20, math.isqrt(largest // 2)):
        assert main(["density", "--n-max", str(n_max), "--output", str(target)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: n_max must be in [1, ") and captured.out == ""
    assert not target.exists()


@pytest.mark.parametrize("codes", [0, -1])
def test_audits_below_one_code_are_errors(codes, capsys):
    assert main(["verify-uniformity", "--codes", str(codes)]) == 1
    largest = np.iinfo(np.intp).max // 8
    assert capsys.readouterr().err == f"error: codes must be in [1, {largest}], got {codes}\n"


def test_unwritable_output_is_an_io_error(tmp_path, capsys):
    target = tmp_path / "no_such_dir" / "out.csv"
    assert main(["density", "--n-max", "3", "--output", str(target)]) == 2
    assert "i/o error" in capsys.readouterr().err


def test_module_entry_point(tmp_path, capsys):
    # the child runs outside the repo, on the package this test imported
    args = ["session", "--bits", "500", "--seed", "1"]
    proc = subprocess.run(
        [sys.executable, "-m", "plugplay_qkd", *args],
        capture_output=True, text=True, cwd=tmp_path, env=child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("qber=")
    assert main(args) == 0
    assert proc.stdout == capsys.readouterr().out
