"""Command-line front end.

Subcommands::

    session            run one key exchange and report the sifted error rate
    scan               sweep the generator trigger delay, write a CSV table
    verify-uniformity  chi-square audit of the emitted phase codes
    density            photon-number density matrix for a phase distribution

Exit codes: 0 success, 1 bad usage or invalid parameters, 2 I/O failure,
3 statistical rejection (uniformity audit failed).

Options may also come from a config file of ``key = value`` lines (``#``
starts a comment), keyed by long flag name with ``_`` for ``-``: each line is
read as that flag, ahead of the given flags, which win.
"""

from __future__ import annotations

import argparse
import math
import sys
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .errors import MAX_FLOAT64S, ValidationError, real, whole
from .experiments import (
    DiscreteUniformPhase,
    FixedPhase,
    UniformPhase,
    _audit_bins,
    delay_scan,
    export_csv,
    export_density_csv,
    fock_density_matrix,
    offdiag_norm,
    uniformity_chisq,
)
from .protocol import (
    SessionConfig,
    estimate_qber,
    export_records_csv,
    pattern_stream,
    run_session,
    sift,
)
from .randomizer import CODE_LEVELS, code_to_phase

__all__ = ["main"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_REJECTED = 3

# Most points a delay scan may have. Each point runs a whole session, and a
# grid this fine (about a 1 ns step across +-50 us) is far past any
# alignment scan. The grid is refused from its step count, before its list
# of delays is built.
_MAX_SCAN_POINTS = 100_000

# Codes per window of an audited pattern stream: the window's raw words, its
# int32 codes and their intp cast in bincount are the audit's only
# temporaries, so it holds O(window) memory for any --codes: about 0.9 MB
# here, 0.23 B/code at 4,000,000 codes. Twice the window doubles that and
# is no faster.
_AUDIT_WINDOW = 1 << 16


class _Parser(argparse.ArgumentParser):
    """argparse parser that reports errors via exception, not sys.exit."""

    def error(self, message: str):  # noqa: D102 - argparse hook
        raise ValidationError(f"{self.prog}: {message}")


def _config_flags(path: str, command: str, file_flags: dict[str, set[str]]) -> list[str]:
    """The ``key = value`` lines of ``path`` as ``--key=value`` tokens for ``command``.

    A key only another subcommand takes (see ``file_flags``) is skipped, so
    one file can serve every subcommand.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError:
        raise ValidationError(f"{path}: not UTF-8 text") from None
    tokens = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        if not sep or not key or not val:
            raise ValidationError(f"{path}:{lineno}: expected 'key = value'")
        flag = "--" + key.replace("_", "-")
        if "-" in key or not any(flag in flags for flags in file_flags.values()):
            raise ValidationError(f"{path}:{lineno}: unknown option {key!r}")
        if flag in file_flags[command]:
            # the '=' form keeps a value such as -inf from reading as a flag
            tokens.append(f"{flag}={val}")
    return tokens


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


def _given(args: argparse.Namespace, *names: str, **renamed: str) -> dict:
    """Keyword arguments for the options that were set, keyed by ``names`` or
    by the keys of ``renamed``; unset ones are left to the callee's defaults."""
    pairs = [(name, name) for name in names] + list(renamed.items())
    given = {key: getattr(args, dest, None) for key, dest in pairs}
    return {key: value for key, value in given.items() if value is not None}


def _session_config(args: argparse.Namespace) -> SessionConfig:
    fields = _given(
        args, "seed", "period_ns", "delay_ns", "roundtrip_ns", "tau_mzi_ns",
        "insertion_loss_db", "fiber_km", "fiber_loss_db_per_km", "efficiency", "dark_prob",
        "double_click_policy", n_bits="bits", mu_target="mean_photon",
    )
    if args.randomizer is not None:
        fields["randomizer_enabled"] = args.randomizer == "on"
    if args.polarization is not None:
        fields["polarization"] = _parse_polarization(args.polarization)
    return SessionConfig(**fields)


def _add_session_flags(parser: argparse.ArgumentParser, with_delay: bool) -> None:
    add = parser.add_argument
    add("--config", metavar="PATH", help="read defaults from a key = value file")
    add("--seed", type=int, default=42, help="base RNG seed")
    add("--bits", type=int, help="number of signal bits per session")
    add("--mean-photon", type=float, help="mean photon number of the pulse pair leaving Alice")
    if with_delay:
        add("--delay-ns", type=float, help="generator trigger delay")
    add("--period-ns", type=float, help="pulse period")
    add("--roundtrip-ns", type=float, help="modulator-mirror round trip")
    add("--tau-mzi-ns", type=float, help="interferometer arm delay")
    add("--insertion-loss-db", type=float, help="long-arm loss")
    add("--fiber-km", type=float, help="one-way fiber length")
    add("--fiber-loss-db-per-km", type=float, help="fiber loss")
    add("--efficiency", type=float, help="detector quantum efficiency")
    add("--dark-prob", type=float, help="dark count probability per gate")
    add("--randomizer", choices=("on", "off"), help="toggle the global-phase randomizer")
    add("--double-click-policy", choices=("discard", "random"),
        help="how sifting treats both-detector events")
    add("--polarization", help="random, h, v, d, a, or 'h_re,h_im,v_re,v_im'")


def _cmd_session(args: argparse.Namespace) -> int:
    records = run_session(_session_config(args))
    # a session with no sifted bit still reports, and writes its records
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
    range_ns = real("scan_range_ns", range_ns, 0, None, "()")
    step_ns = real("scan_step_ns", step_ns, 0, None, "()")
    # each point is the double nearest the exact decimal -range + k * step of
    # the values as given, as is the step count, so the ends are +-range, the
    # centre 0.0, and no float sum drifts a point off the delay it prints
    start, step = Fraction(repr(-range_ns)), Fraction(repr(step_ns))
    n_steps, rest = divmod(-2 * start, step)
    if n_steps + 1 > _MAX_SCAN_POINTS:
        raise ValidationError(
            f"scan grid of {range_ns} ns in {step_ns} ns steps has too many points "
            f"({n_steps + 1}, at most {_MAX_SCAN_POINTS})"
        )
    if rest:
        raise ValidationError("scan range must be a whole number of steps")
    return [float(start + k * step) for k in range(n_steps + 1)]


def _cmd_scan(args: argparse.Namespace) -> int:
    delays = _scan_delays(args.scan_range_ns, args.scan_step_ns)
    result = delay_scan(_session_config(args), delays, **_given(args, max_workers="threads"))
    export_csv(result, args.output)
    for delay, est in zip(result.delays_ns, result.estimates):
        print(f"delay_ns={delay:g} qber={est.qber:.6f} n_sifted={est.n_sifted}")
    print(f"wrote {len(result)} points to {args.output}")
    return EXIT_OK


def _cmd_verify_uniformity(args: argparse.Namespace) -> int:
    n_codes = whole("codes", args.codes, 1, MAX_FLOAT64S)
    # the bin count is checked before anything is drawn or allocated
    n_bins = _audit_bins(args.bins, n_codes)
    # the sample is how often each DAC code was drawn
    counts = np.zeros(CODE_LEVELS, dtype=np.int64)
    if args.constant_code is not None:
        # an int32 code like pattern_stream's; a code off the grid is clipped to
        # one just off it, so code_to_phase, the one rule for a valid code,
        # refuses it without an int32 overflow
        code = min(max(args.constant_code, -1), CODE_LEVELS)
        code_to_phase(np.int32(code))
        counts[code] = n_codes
    else:
        # audit the same stream a session would feed to the modulator, drawn a
        # window at a time so its codes never exist whole
        for start in range(0, n_codes, _AUDIT_WINDOW):
            stop = min(start + _AUDIT_WINDOW, n_codes)
            counts += np.bincount(pattern_stream(args.seed, stop - start, start), minlength=CODE_LEVELS)
    statistic, threshold = uniformity_chisq(counts, n_bins=n_bins)
    print(
        f"chi-square statistic {statistic:.2f} vs 99th-percentile threshold {threshold:.2f} "
        f"({args.bins} bins, {args.codes} codes)"
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
    # only the parse is caught: the distribution's own ValidationError names
    # its real fault, such as a count below 1 or a phase that is not finite
    if name == "discrete":
        try:
            n_values = int(arg)
        except ValueError:
            raise ValidationError(f"discrete needs an integer count, got {arg!r}") from None
        return DiscreteUniformPhase(n_values)
    if name == "fixed":
        try:
            phi = float(arg) if arg else 0.0
        except ValueError:
            raise ValidationError(f"fixed needs a phase in radians, got {arg!r}") from None
        return FixedPhase(phi)
    raise ValidationError(
        f"phase distribution must be uniform, discrete:N or fixed:PHI, got {form!r}"
    )


def _cmd_density(args: argparse.Namespace) -> int:
    dist = _parse_phase_dist(args.phase_dist)
    rho = fock_density_matrix(args.mean_photon, dist, **_given(args, "n_max"))
    export_density_csv(rho, args.output)
    print(
        f"mu={args.mean_photon:g} dist={args.phase_dist} trace={np.trace(rho).real:.9f} "
        f"max_offdiag={offdiag_norm(rho):.6e}"
    )
    print(f"wrote ({len(rho)})x({len(rho)}) matrix to {args.output}")
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
    p_scan.add_argument("--scan-range-ns", type=float, default=200.0,
                        help="sweep from -range to +range")
    p_scan.add_argument("--scan-step-ns", type=float, default=10.0, help="sweep step")
    p_scan.add_argument("--threads", type=int, help="worker threads for scan points")
    p_scan.add_argument("--output", metavar="PATH", default="qber_vs_delay.csv",
                        help="CSV destination (default qber_vs_delay.csv)")
    p_scan.set_defaults(handler=_cmd_scan)

    p_verify = sub.add_parser("verify-uniformity", help="chi-square audit of emitted phases")
    p_verify.add_argument("--config", metavar="PATH", help="read defaults from a key = value file")
    p_verify.add_argument("--seed", type=int, default=42, help="base RNG seed")
    p_verify.add_argument("--codes", type=int, default=1_000_000, help="number of codes to audit")
    p_verify.add_argument("--bins", type=int, default=256,
                          help="histogram bins over [0, 2*pi): a power of two from 2 to 4096")
    p_verify.add_argument("--constant-code", type=int, metavar="CODE",
                          help="audit a degenerate constant-code stream instead")
    p_verify.set_defaults(handler=_cmd_verify_uniformity)

    p_density = sub.add_parser("density", help="photon-number density matrix")
    p_density.add_argument("--config", metavar="PATH", help="read defaults from a key = value file")
    p_density.add_argument("--mean-photon", type=float, default=0.1, help="mean photon number")
    p_density.add_argument("--n-max", type=int, help="truncation photon number")
    p_density.add_argument("--phase-dist", default="uniform",
                           help="uniform, discrete:N or fixed:PHI")
    p_density.add_argument("--output", metavar="PATH", default="density.csv",
                           help="CSV destination (default density.csv)")
    p_density.set_defaults(handler=_cmd_density)

    parser.set_defaults(handler=None)
    # the long flags a config file may set, per subcommand
    parser.file_flags = {
        name: {flag for action in p._actions for flag in action.option_strings
               if flag.startswith("--")} - {"--help", "--config"}
        for name, p in sub.choices.items()
    }
    return parser


def _joined(argv: list[str], file_flags: dict[str, set[str]]) -> list[str]:
    """``argv`` with each long flag of its command that takes a value joined to
    that value as ``--flag=value``, so argparse does not read a value such as
    ``-1e2`` or ``-inf`` as a flag. A flag followed by an option keeps its
    missing-value error."""
    joined, flags = [], set()
    for token in argv:
        if joined and joined[-1] in flags and not token.startswith("--") and token != "-h":
            joined[-1] += "=" + token
            continue
        if not flags and not token.startswith("-"):
            # the top-level parser takes no value, so its first other token is the command
            flags = file_flags.get(token, set()) | {"--config"}
        joined.append(token)
    return joined


def _parse(parser: _Parser, argv: list[str]) -> argparse.Namespace:
    """Parse ``argv`` with its ``--config`` file's lines as flags placed right
    after the command name, so argparse checks them alike and given flags win."""
    argv = _joined(argv, parser.file_flags)
    args = parser.parse_args(argv)
    if getattr(args, "config", None) is None:
        return args
    tokens = _config_flags(args.config, args.command, parser.file_flags)
    at = argv.index(args.command) + 1
    try:
        return parser.parse_args(argv[:at] + tokens + argv[at:])
    except ValidationError as exc:
        # argv parsed on its own, so the file holds the fault
        raise ValidationError(f"{args.config}: {exc}") from None


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = _build_parser()
    try:
        args = _parse(parser, argv)
        if args.handler is None:
            parser.print_usage(sys.stderr)
            return EXIT_USAGE
        return args.handler(args)
    except SystemExit:
        # only --help exits: _Parser.error raises ValidationError instead
        return EXIT_OK
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except MemoryError as exc:
        print(f"error: {exc or 'out of memory'}", file=sys.stderr)
        return EXIT_USAGE
