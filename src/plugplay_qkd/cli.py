"""Command-line front end.

Subcommands::

    session            run one key exchange and report the sifted error rate
    scan               sweep the generator trigger delay, write a CSV table
    verify-uniformity  chi-square audit of the emitted phase codes
    density            photon-number density matrix for a phase distribution

Exit codes: 0 success, 1 bad usage or invalid parameters, 2 I/O failure,
3 statistical rejection (uniformity audit failed).

Options may also come from a config file of ``key = value`` lines (``#``
starts a comment); explicit flags win over file values.
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import Optional, Sequence

import numpy as np

from .errors import ValidationError
from .experiments import (
    DiscreteUniformPhase,
    FixedPhase,
    UniformPhase,
    delay_scan,
    export_csv,
    export_density_csv,
    fock_density_matrix,
    offdiag_norm,
    uniformity_chisq,
)
from .protocol import (
    DetectorConfig,
    SessionConfig,
    estimate_qber,
    export_records_csv,
    pattern_stream,
    run_session,
    sift,
)
from .randomizer import RandomizerTiming, code_to_phase

__all__ = ["main"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_REJECTED = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse parser that reports errors via exception, not sys.exit."""

    def error(self, message: str):  # noqa: D102 - argparse hook
        raise _UsageError(f"{self.prog}: {message}")


_DEFAULTS = {
    "seed": 42,
    "bits": 843_000,
    "mean_photon": 0.1,
    "mu_convention": "pair",
    "delay_ns": 0.0,
    "period_ns": 200.0,
    "roundtrip_ns": 20.0,
    "tau_mzi_ns": 50.0,
    "insertion_loss_db": 3.0,
    "fiber_km": 5.0,
    "fiber_loss_db_per_km": 0.2,
    "efficiency": 0.10,
    "dark_prob": 1e-5,
    "randomizer": "on",
    "double_click_policy": "discard",
    "polarization": "random",
    "scan_range_ns": 200.0,
    "scan_step_ns": 10.0,
    "threads": 1,
    "codes": 1_000_000,
    "bins": 256,
    "n_max": 20,
    "phase_dist": "uniform",
}

_CONFIG_KEYS = frozenset(_DEFAULTS)


def _load_config_file(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, sep, val = line.partition("=")
            key = key.strip()
            val = val.strip()
            if not sep or not key or not val:
                raise ValidationError(f"{path}:{lineno}: expected 'key = value'")
            if key not in _CONFIG_KEYS:
                raise ValidationError(f"{path}:{lineno}: unknown option {key!r}")
            values[key] = val
    return values


def _parse_polarization(text: str) -> Optional[tuple[complex, complex]]:
    named = {
        "random": None,
        "h": (1.0 + 0.0j, 0.0j),
        "v": (0.0j, 1.0 + 0.0j),
        "d": (1.0 / math.sqrt(2.0) + 0.0j, 1.0 / math.sqrt(2.0) + 0.0j),
        "a": (1.0 / math.sqrt(2.0) + 0.0j, -1.0 / math.sqrt(2.0) + 0.0j),
    }
    key = text.strip().lower()
    if key in named:
        return named[key]
    parts = [p.strip() for p in text.split(",")]
    if len(parts) == 4:
        try:
            hr, hi, vr, vi = (float(p) for p in parts)
        except ValueError:
            raise ValidationError(f"polarization components must be numbers: {text!r}") from None
        return (complex(hr, hi), complex(vr, vi))
    raise ValidationError(
        f"polarization must be one of {sorted(named)} or 'h_re,h_im,v_re,v_im', got {text!r}"
    )


class _Options:
    """Merge of flags, config-file values and defaults, flags winning."""

    def __init__(self, args: argparse.Namespace):
        self.args = args
        self.file_values = _load_config_file(args.config) if getattr(args, "config", None) else {}

    def pick(self, key: str, conv):
        flag_value = getattr(self.args, key, None)
        if flag_value is not None:
            return flag_value
        if key in self.file_values:
            raw = self.file_values[key]
            try:
                return conv(raw)
            except ValidationError:
                raise
            except (ValueError, TypeError):
                raise ValidationError(f"config value for {key!r} is invalid: {raw!r}") from None
        return _DEFAULTS[key]


def _choice(options: Sequence[str]):
    def conv(raw: str) -> str:
        if raw not in options:
            raise ValidationError(f"expected one of {list(options)}, got {raw!r}")
        return raw

    return conv


def _session_config(opts: _Options, delay_ns: Optional[float] = None) -> SessionConfig:
    timing = RandomizerTiming(
        period_ns=opts.pick("period_ns", float),
        delay_ns=delay_ns if delay_ns is not None else opts.pick("delay_ns", float),
        roundtrip_ns=opts.pick("roundtrip_ns", float),
    )
    detector = DetectorConfig(
        efficiency=opts.pick("efficiency", float),
        dark_prob=opts.pick("dark_prob", float),
    )
    return SessionConfig(
        n_bits=opts.pick("bits", int),
        seed=opts.pick("seed", int),
        mu_target=opts.pick("mean_photon", float),
        mu_convention=opts.pick("mu_convention", _choice(("pair", "signal"))),
        timing=timing,
        tau_mzi_ns=opts.pick("tau_mzi_ns", float),
        insertion_loss_db=opts.pick("insertion_loss_db", float),
        fiber_km=opts.pick("fiber_km", float),
        fiber_loss_db_per_km=opts.pick("fiber_loss_db_per_km", float),
        detector=detector,
        randomizer_enabled=opts.pick("randomizer", _choice(("on", "off"))) == "on",
        double_click_policy=opts.pick("double_click_policy", _choice(("discard", "random"))),
        polarization=_parse_polarization(opts.pick("polarization", str)),
    )


def _add_session_flags(parser: argparse.ArgumentParser, with_delay: bool) -> None:
    add = parser.add_argument
    add("--config", metavar="PATH", help="read defaults from a key = value file")
    add("--seed", type=int, help="base RNG seed")
    add("--bits", type=int, help="number of signal bits per session")
    add("--mean-photon", type=float, dest="mean_photon", help="mean photon number target")
    add("--mu-convention", choices=("pair", "signal"), dest="mu_convention",
        help="whether the target counts both pulses or the signal alone")
    if with_delay:
        add("--delay-ns", type=float, dest="delay_ns", help="generator trigger delay")
    add("--period-ns", type=float, dest="period_ns", help="pulse period")
    add("--roundtrip-ns", type=float, dest="roundtrip_ns", help="modulator-mirror round trip")
    add("--tau-mzi-ns", type=float, dest="tau_mzi_ns", help="interferometer arm delay")
    add("--insertion-loss-db", type=float, dest="insertion_loss_db", help="long-arm loss")
    add("--fiber-km", type=float, dest="fiber_km", help="one-way fiber length")
    add("--fiber-loss-db-per-km", type=float, dest="fiber_loss_db_per_km", help="fiber loss")
    add("--efficiency", type=float, help="detector quantum efficiency")
    add("--dark-prob", type=float, dest="dark_prob", help="dark count probability per gate")
    add("--randomizer", choices=("on", "off"), help="toggle the global-phase randomizer")
    add("--double-click-policy", choices=("discard", "random"), dest="double_click_policy",
        help="how sifting treats both-detector events")
    add("--polarization", help="random, h, v, d, a, or 'h_re,h_im,v_re,v_im'")


def _cmd_session(args: argparse.Namespace) -> int:
    opts = _Options(args)
    config = _session_config(opts)
    records, _ = run_session(config)
    estimate = estimate_qber(sift(records))
    if args.output:
        export_records_csv(records, args.output)
        print(f"wrote {len(records)} records to {args.output}")
    print(
        f"qber={estimate.qber:.6f} std_error={estimate.std_error:.6f} "
        f"n_sifted={estimate.n_sifted} n_errors={estimate.n_errors}"
    )
    return EXIT_OK


def _scan_delays(range_ns: float, step_ns: float) -> list[float]:
    if range_ns <= 0 or step_ns <= 0:
        raise ValidationError("scan range and step must be positive")
    n_steps = int(round(2.0 * range_ns / step_ns))
    if abs(n_steps * step_ns - 2.0 * range_ns) > 1e-9 * max(1.0, range_ns):
        raise ValidationError("scan range must be a whole number of steps")
    return [-range_ns + k * step_ns for k in range(n_steps + 1)]


def _cmd_scan(args: argparse.Namespace) -> int:
    opts = _Options(args)
    config = _session_config(opts, delay_ns=0.0)
    delays = _scan_delays(opts.pick("scan_range_ns", float), opts.pick("scan_step_ns", float))
    threads = opts.pick("threads", int)
    result = delay_scan(config, delays, max_workers=threads)
    output = args.output or "qber_vs_delay.csv"
    export_csv(result, output)
    for delay, est in zip(result.delays_ns, result.estimates):
        print(f"delay_ns={delay:g} qber={est.qber:.6f} n_sifted={est.n_sifted}")
    print(f"wrote {len(result)} points to {output}")
    return EXIT_OK


def _cmd_verify_uniformity(args: argparse.Namespace) -> int:
    opts = _Options(args)
    n_codes = opts.pick("codes", int)
    n_bins = opts.pick("bins", int)
    if n_codes < 1:
        raise ValidationError(f"need at least one code, got {n_codes}")
    if args.constant_code is not None:
        codes = np.full(n_codes, args.constant_code, dtype=np.int64)
    else:
        # audit the same stream a session would feed to the modulator
        codes = pattern_stream(opts.pick("seed", int), n_codes)
    phases = code_to_phase(codes)
    statistic, threshold = uniformity_chisq(np.asarray(phases), n_bins=n_bins)
    print(
        f"chi-square statistic {statistic:.2f} vs 99th-percentile threshold {threshold:.2f} "
        f"({n_bins} bins, {n_codes} codes)"
    )
    if statistic > threshold:
        print("phase sample REJECTED as non-uniform")
        return EXIT_REJECTED
    print("phase sample consistent with uniform")
    return EXIT_OK


def _parse_phase_dist(form: str):
    name, _, arg = form.partition(":")
    name = name.strip().lower()
    if name == "uniform":
        if arg:
            raise ValidationError("uniform takes no argument")
        return UniformPhase()
    if name == "discrete":
        try:
            return DiscreteUniformPhase(int(arg))
        except ValueError:
            raise ValidationError(f"discrete needs an integer count, got {arg!r}") from None
    if name == "fixed":
        try:
            return FixedPhase(float(arg) if arg else 0.0)
        except ValueError:
            raise ValidationError(f"fixed needs a phase in radians, got {arg!r}") from None
    raise ValidationError(
        f"phase distribution must be uniform, discrete:N or fixed:PHI, got {form!r}"
    )


def _cmd_density(args: argparse.Namespace) -> int:
    opts = _Options(args)
    mu = opts.pick("mean_photon", float)
    n_max = opts.pick("n_max", int)
    dist = _parse_phase_dist(opts.pick("phase_dist", str))
    rho = fock_density_matrix(mu, dist, n_max=n_max)
    output = args.output or "density.csv"
    export_density_csv(rho, output)
    print(
        f"mu={mu:g} dist={opts.pick('phase_dist', str)} trace={rho.trace:.9f} "
        f"max_offdiag={offdiag_norm(rho):.6e}"
    )
    print(f"wrote ({rho.n_max + 1})x({rho.n_max + 1}) matrix to {output}")
    return EXIT_OK


def _build_parser() -> _Parser:
    parser = _Parser(prog="plugplay-qkd", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    p_session = sub.add_parser("session", help="run one key exchange session")
    _add_session_flags(p_session, with_delay=True)
    p_session.add_argument("--output", metavar="PATH", help="write per-bit records as CSV")
    p_session.set_defaults(handler=_cmd_session)

    p_scan = sub.add_parser("scan", help="error rate versus generator trigger delay")
    _add_session_flags(p_scan, with_delay=False)
    p_scan.add_argument("--scan-range-ns", type=float, dest="scan_range_ns",
                        help="sweep from -range to +range")
    p_scan.add_argument("--scan-step-ns", type=float, dest="scan_step_ns", help="sweep step")
    p_scan.add_argument("--threads", type=int, help="worker threads for scan points")
    p_scan.add_argument("--output", metavar="PATH", help="CSV destination (default qber_vs_delay.csv)")
    p_scan.set_defaults(handler=_cmd_scan)

    p_verify = sub.add_parser("verify-uniformity", help="chi-square audit of emitted phases")
    p_verify.add_argument("--config", metavar="PATH", help="read defaults from a key = value file")
    p_verify.add_argument("--seed", type=int, help="base RNG seed")
    p_verify.add_argument("--codes", type=int, help="number of codes to audit")
    p_verify.add_argument("--bins", type=int, help="histogram bins over [0, 2*pi)")
    p_verify.add_argument("--constant-code", type=int, dest="constant_code", metavar="CODE",
                          help="audit a degenerate constant-code stream instead")
    p_verify.set_defaults(handler=_cmd_verify_uniformity)

    p_density = sub.add_parser("density", help="photon-number density matrix")
    p_density.add_argument("--config", metavar="PATH", help="read defaults from a key = value file")
    p_density.add_argument("--mean-photon", type=float, dest="mean_photon", help="mean photon number")
    p_density.add_argument("--n-max", type=int, dest="n_max", help="truncation photon number")
    p_density.add_argument("--phase-dist", dest="phase_dist",
                           help="uniform, discrete:N or fixed:PHI")
    p_density.add_argument("--output", metavar="PATH", help="CSV destination (default density.csv)")
    p_density.set_defaults(handler=_cmd_density)

    parser.set_defaults(handler=None)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    if args.handler is None:
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    try:
        return args.handler(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
