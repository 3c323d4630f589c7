"""Command-line front end.

Subcommands mirror the library: ``generate`` (codebook file), ``attack``
(forge a pirate copy), ``trace`` (accusation CSV), ``search`` / ``table``
(randomized minimization of the length coefficient), ``predict`` (moment,
length, threshold, and normal-range report), and ``simulate`` (Monte Carlo
rate estimation).

Reproducibility: the master seed comes from --seed, the TARDOS_SEED
environment variable, or 0, in that order; a key=value config file can
provide defaults for any long option; the fully resolved configuration is
logged to stderr on every run (no timestamps, so reruns are byte-identical).
Exit codes: 0 success, 2 usage error (also a cutoff too small for the
quadrature), 3 infeasible constraints or empty window, 4 I/O or file-format
failure. A usage error names the flag that fed the value: the library names
the argument (``ParameterError.param``) and :func:`main` maps it to a flag.
"""

import argparse
import logging
import os
import sys
from contextlib import contextmanager

from . import bounds, codegen, gaussian, rng, simulate, tracer
from .attacks import Strategy, forge
from .errors import CapacityError, InfeasibleError, ParameterError, QuadratureError
from .model import SchemeParams, _check_tau, default_cutoff, parse_kv_text

log = logging.getLogger("tardos.cli")


def _positive_int(text):
    v = int(text)
    if v < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return v


def _seed(text):
    # check_seed takes no text; argparse names --seed when int() fails.
    try:
        return rng.check_seed(int(text))
    except ParameterError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _list_of(item, kind):
    """Parser of a comma-separated list, each entry parsed by ``item``."""
    def parse(text):
        try:
            return [item(part) for part in text.split(",") if part.strip() != ""]
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"bad {kind} list {text!r}") from exc
    return parse


@contextmanager
def _out_stream(path):
    """Writable text stream for ``path``; '-' means stdout."""
    if path == "-":
        yield sys.stdout
    else:
        with open(path, "w", encoding="utf-8") as fh:
            yield fh


def _cutoff(args):
    """--cutoff, or 1/(300 c0); with --c0 given, the library checks the pair."""
    if args.cutoff is None and args.c0 is None:
        raise ParameterError("--cutoff is required when --c0 is not given")
    t = default_cutoff(args.c0) if args.cutoff is None else args.cutoff
    if args.c0 is not None:
        _check_tau(args.c0, t)
    return t


def _plan(args, t):
    """The conservative plan of --c0/--eps1/--eps2 at cutoff ``t``; it must have a length."""
    plan = gaussian.conservative_plan(args.c0, args.c0 * t, args.eps1, args.eps2)
    if plan.m == 0:
        raise ParameterError(f"--eps1 {args.eps1!r} and --eps2 {args.eps2!r} are so loose "
                             "that the plan has no columns; lower either")
    return plan


def _log_resolved(args):
    skip = {"func", "config"}
    pairs = sorted((k, v) for k, v in vars(args).items()
                   if k not in skip and not k.startswith("_"))
    log.info("resolved config: %s", " ".join(f"{k}={v}" for k, v in pairs))


# ---------------------------------------------------------------------------
# Subcommands.


def cmd_generate(args):
    t = _cutoff(args)
    missing = [f"--{k}" for k in ("length", "c0", "eps1", "eps2") if getattr(args, k) is None]
    if args.threshold is not None and missing:
        raise ParameterError("--threshold is stored only with --length and a full plan; "
                             f"also give {'/'.join(missing)}")
    m, Z = args.length, args.threshold
    if m is None:
        if missing != ["--length"]:
            raise ParameterError("give --length, or --c0/--eps1/--eps2 to derive it from a plan")
        plan = _plan(args, t)
        m, Z = plan.m, plan.Z
        log.info("plan: m=%d Z in [%r, %r]", plan.m, plan.Z_low, plan.Z_high)
    # The params are stored only with a full plan.
    params = None if set(missing) - {"--length"} else SchemeParams(
        n=args.users, m=m, c0=args.c0, eps1=args.eps1, eps2=args.eps2, t=t, Z=Z)
    codegen._check_capacity(args.users, m)  # before the bias vector is drawn
    bias = codegen.sample_bias(m, t, args.seed)
    codegen.generate_codebook(args.out, args.users, bias, args.seed, params=params,
                              threads=args.threads)
    log.info("wrote codebook: n=%d m=%d -> %s", args.users, m, args.out)
    return 0


def _strategy(args):
    """--strategy, or the table in --psi-csv; the library checks it against c."""
    if args.psi_csv is None:
        return args.strategy
    with open(args.psi_csv, "r", encoding="utf-8") as fh:
        return Strategy.from_csv_text(fh.read())


def cmd_attack(args):
    # The codebook is read in chunks; a corrupt one fails before any output.
    with codegen.CodebookFile(args.codebook) as cb:
        users = args.users
        if len(set(users)) != len(users):
            raise ParameterError("--users lists a user twice")
        rows = cb.select_bits(users)
    y = forge(rows, _strategy(args), seed=args.seed)
    with _out_stream(args.out) as fh:
        fh.write(y.to_text() + "\n")
    log.info("forged %d-column copy from %d users -> %s", y.m, len(users), args.out)
    return 0


def cmd_trace(args):
    # The codebook is read and scored in chunks; a corrupt one fails before
    # any output.
    with codegen.CodebookFile(args.codebook) as cb:
        with open(args.pirate, "r", encoding="utf-8") as fh:
            y = tracer.PirateCopy.from_text(fh.read())
        Z = args.threshold if args.threshold is not None else getattr(cb.params, "Z", None)
        if Z is None:
            raise ParameterError("--threshold is required when the codebook carries none")
        report = tracer.trace(cb, y, Z)
    with _out_stream(args.out) as fh:
        report.to_csv(fh)
    log.info("traced %d users at Z=%r: %d accused", cb.n, Z,
             len(report.accused))
    return 0


def cmd_search(args):
    if args.eps2 is None and args.ratio is None:
        raise ParameterError("give --eps2 or --ratio")
    eps2 = args.eps2 if args.ratio is None else bounds.eps2_for_ratio(args.eps1, args.ratio)
    res = bounds.search_min_A(args.c0, args.eps1, eps2, args.iterations, args.seed)
    with _out_stream(args.out) as fh:
        for name in ("A", "B", "t", "L", "alpha1", "alpha2", "c0", "R",
                     "iterations_used"):
            fh.write(f"{name}={getattr(res, name)!r}\n")
    return 0


def cmd_table(args):
    table = bounds.emit_search_table(args.c0_list, args.ratio_list, args.iterations,
                                     args.seed, eps1=args.eps1)
    with _out_stream(args.out) as fh:
        table.to_csv(fh)
    return 0


def cmd_predict(args):
    c = args.coalition if args.coalition is not None else args.c0
    t = _cutoff(args)
    summary = gaussian.moments(_strategy(args), c, t, c0=args.c0)
    mmin = gaussian.m_min(summary, args.eps1, args.eps2, args.c0)
    plan = gaussian.conservative_plan(args.c0, args.c0 * t, args.eps1, args.eps2)
    m = args.length if args.length is not None else max(plan.m, 1)
    interval = gaussian.z_interval(summary, m, args.eps1, args.eps2, args.c0)
    clt = gaussian.clt_report(args.c0, t, args.eps1, m)
    sys.stdout.write(gaussian.format_report(summary, plan, interval, clt))
    sys.stdout.write(f"strategy-specific m_min = {mmin!r} (evaluated at m = {m})\n")
    if args.out is not None:
        with _out_stream(args.out) as fh:
            heads, rows = zip(summary.csv_row(), plan.csv_row(), clt.csv_row(),
                              ("m_min_strategy,m_eval,Z_eval_low,Z_eval_high",
                               f"{mmin!r},{m},{interval.low!r},{interval.high!r}"))
            fh.write(",".join(heads) + "\n" + ",".join(rows) + "\n")
    return 0


def cmd_simulate(args):
    t = _cutoff(args)
    if (args.length is None) != (args.threshold is None):
        raise ParameterError("--length and --threshold must be given together")
    m, Z = args.length, args.threshold
    if m is None:
        plan = _plan(args, t)
        m, Z = plan.m, plan.Z
        log.info("plan: m=%d Z=%r", m, Z)
    c = args.coalition if args.coalition is not None else args.c0
    params = SchemeParams(n=max(args.innocents, 1), m=m, c0=args.c0,
                          eps1=args.eps1, eps2=args.eps2, t=t, Z=Z)
    cfg = simulate.SimConfig(params=params, strategy=_strategy(args), c=c, trials=args.trials,
                             innocents_per_trial=args.innocents, seed=args.seed,
                             threads=args.threads, histogram_bins=args.bins)
    report = simulate.run(cfg)
    sys.stdout.write(
        f"fp_hat = {report.fp_hat!r} ci99 = "
        f"[{report.fp_ci[0]!r}, {report.fp_ci[1]!r}]\n"
        f"fn_hat = {report.fn_hat!r} ci99 = "
        f"[{report.fn_ci[0]!r}, {report.fn_ci[1]!r}]\n"
        f"innocent moments = {report.innocent_score_moments!r}\n"
        f"coalition moments = {report.coalition_score_moments!r}\n"
        f"ks innocent = {report.ks_innocent!r}\n")
    if args.out_jsonl is not None:
        with _out_stream(args.out_jsonl) as fh:
            report.to_jsonl(fh)
    if args.out_hist is not None:
        with _out_stream(args.out_hist) as fh:
            fh.write("# innocent\n")
            report.histograms.innocent.to_csv(fh)
            fh.write("# coalition\n")
            report.histograms.coalition.to_csv(fh)
    return 0


# ---------------------------------------------------------------------------
# Parser assembly.


def _add_common(sub, *flags):
    if "c0" in flags:
        sub.add_argument("--c0", type=_positive_int, default=None,
                         help="design coalition size")
    if "eps" in flags:
        sub.add_argument("--eps1", type=float, default=None,
                         help="innocent-accusation probability target")
        sub.add_argument("--eps2", type=float, default=None,
                         help="coalition-escape probability target")
    if "strategy" in flags:
        group = sub.add_mutually_exclusive_group()
        group.add_argument("--strategy", default="extremal",
                           help="built-in strategy name (default extremal)")
        group.add_argument("--psi-csv", default=None,
                           help="custom strategy table: a CSV file of rows 'x,psi(x)'")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="tardos",
        description="Collusion-resistant fingerprinting: codes, tracing, "
                    "attacks, provable bounds, and simulation.")
    # A string default goes through ``type`` too, so TARDOS_SEED is checked
    # like the flag.
    parser.add_argument("--seed", type=_seed,
                        default=os.environ.get("TARDOS_SEED", "0"),
                        help="master seed (default: TARDOS_SEED or 0)")
    parser.add_argument("--threads", type=_positive_int,
                        default=os.cpu_count() or 1,
                        help="worker threads for generate and simulate; "
                             "the other subcommands run serially "
                             "(default: machine parallelism)")
    parser.add_argument("--verbose", action="store_true",
                        help="debug-level logging")
    parser.add_argument("--config", default=None,
                        help="key=value file providing option defaults")
    subs = parser.add_subparsers(dest="command", required=True)

    g = subs.add_parser("generate", help="generate and save a codebook")
    g.add_argument("--users", "-n", type=_positive_int, required=True)
    g.add_argument("--length", "-m", type=_positive_int, default=None,
                   help="code length; omit to derive from the plan flags")
    g.add_argument("--cutoff", type=float, default=None,
                   help="bias cutoff t (default 1/(300 c0))")
    g.add_argument("--threshold", type=float, default=None,
                   help="accusation threshold to store with explicit --length")
    _add_common(g, "c0", "eps")
    g.add_argument("--out", required=True, help="output codebook path")
    g.set_defaults(func=cmd_generate)

    a = subs.add_parser("attack", help="forge a pirate copy from a coalition")
    a.add_argument("--codebook", required=True)
    a.add_argument("--users", type=_list_of(int, "integer"), required=True,
                   help="comma-separated coalition user ids")
    _add_common(a, "strategy")
    a.add_argument("--out", required=True, help="output pirate-copy path ('-' stdout)")
    a.set_defaults(func=cmd_attack)

    t = subs.add_parser("trace", help="score all users against a pirate copy")
    t.add_argument("--codebook", required=True)
    t.add_argument("--pirate", required=True, help="pirate-copy text file")
    t.add_argument("--threshold", "-Z", type=float, default=None,
                   help="accusation threshold (default: from codebook params)")
    t.add_argument("--out", default="-", help="accusation CSV path ('-' stdout)")
    t.set_defaults(func=cmd_trace)

    s = subs.add_parser("search", help="randomized search for the smallest "
                                       "length coefficient")
    s.add_argument("--c0", type=_positive_int, required=True)
    s.add_argument("--eps1", type=float, default=1e-10)
    target = s.add_mutually_exclusive_group()
    target.add_argument("--eps2", type=float, default=None)
    target.add_argument("--ratio", type=float, default=None,
                        help="ln(eps2)/ln(eps1), in place of --eps2")
    s.add_argument("--iterations", type=_positive_int, required=True)
    s.add_argument("--out", default="-")
    s.set_defaults(func=cmd_search)

    tb = subs.add_parser("table", help="search over a grid of (ratio, c0) cells")
    tb.add_argument("--c0-list", type=_list_of(_positive_int, "positive integer"), required=True)
    tb.add_argument("--ratio-list", type=_list_of(float, "number"), required=True)
    tb.add_argument("--iterations", type=_positive_int, required=True)
    tb.add_argument("--eps1", type=float, default=1e-10)
    tb.add_argument("--out", default="-")
    tb.set_defaults(func=cmd_table)

    p = subs.add_parser("predict", help="moment, length, threshold, and "
                                        "normal-range report")
    p.add_argument("--c0", type=_positive_int, required=True)
    p.add_argument("--coalition", "-c", type=_positive_int, default=None,
                   help="actual coalition size (default c0)")
    p.add_argument("--cutoff", type=float, default=None)
    p.add_argument("--eps1", type=float, required=True)
    p.add_argument("--eps2", type=float, required=True)
    p.add_argument("--length", "-m", type=_positive_int, default=None,
                   help="evaluate the threshold interval at this length")
    _add_common(p, "strategy")
    p.add_argument("--out", default=None, help="also write a one-row CSV here")
    p.set_defaults(func=cmd_predict)

    si = subs.add_parser("simulate", help="Monte Carlo false-positive/negative "
                                          "rate estimation")
    si.add_argument("--c0", type=_positive_int, required=True)
    si.add_argument("--coalition", "-c", type=_positive_int, default=None)
    si.add_argument("--cutoff", type=float, default=None)
    si.add_argument("--eps1", type=float, required=True)
    si.add_argument("--eps2", type=float, required=True)
    si.add_argument("--length", "-m", type=_positive_int, default=None)
    si.add_argument("--threshold", "-Z", type=float, default=None)
    si.add_argument("--trials", type=_positive_int, required=True)
    si.add_argument("--innocents", type=_positive_int, default=100,
                    help="innocent users sampled per trial")
    si.add_argument("--bins", type=_positive_int, default=80)
    _add_common(si, "strategy")
    si.add_argument("--out-jsonl", default=None)
    si.add_argument("--out-hist", default=None)
    si.set_defaults(func=cmd_simulate)

    return parser


# The option (by dest) that feeds a library argument (ParameterError.param) where
# the names differ; a subcommand's own entries come first.
_DESTS = {"cutoff t": "cutoff", "tau": "cutoff", "m": "length", "Z": "threshold",
          "ratio R": "ratio", "histogram_bins": "bins", "c": "coalition",
          "coalition size c": "coalition", "psi table": "psi_csv", "pirate copy": "pirate",
          "coalition rows": "users", "user indices": "users"}
_COMMAND_DESTS = {"table": {"c0": "c0_list", "ratio R": "ratio_list"},
                  "attack": {"coalition size c": "users"}}


def _flag(args, param):
    """The flag of the running subcommand that fed library argument ``param``, or None."""
    dest = _COMMAND_DESTS.get(args.command, {}).get(param, _DESTS.get(param, param))
    if dest == "coalition" and getattr(args, "coalition", None) is None:
        dest = "c0"  # the coalition size defaults to --c0
    return "--" + dest.replace("_", "-") if dest and hasattr(args, dest) else None


_BOOLEANS = {**dict.fromkeys(("1", "true", "yes", "on"), True),
             **dict.fromkeys(("0", "false", "no", "off"), False)}


def _apply_config_defaults(parser, path):
    """Read key=value defaults and install them on every subparser.

    A key must name an option of the global parser or of some subcommand, and
    a boolean takes 1/true/yes/on or 0/false/no/off.
    """
    with open(path, "r", encoding="utf-8") as fh:
        raw = parse_kv_text(fh.read())
    subparsers = [parser] + [
        sp for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
        for sp in action.choices.values()
    ]
    options = {action.dest for sp in subparsers for action in sp._actions
               if action.option_strings and action.dest != "help"}
    unknown = sorted(set(raw) - options)
    if unknown:
        raise ValueError(f"unknown key {unknown[0]!r} (no such option)")
    for sp in subparsers:
        for action in (a for a in sp._actions if a.dest in raw):
            key, value = action.dest, raw[action.dest]
            if isinstance(action.const, bool):
                if value.lower() not in _BOOLEANS:
                    raise ValueError(f"{key}={value!r} is not a boolean "
                                     "(1/true/yes/on or 0/false/no/off)")
                value = _BOOLEANS[value.lower()]
            elif action.type is not None:
                value = action.type(value)
            sp.set_defaults(**{key: value})
            action.required = False


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    pre = argparse.ArgumentParser(add_help=False)
    pre.add_argument("--config", default=None)
    known, _ = pre.parse_known_args(argv)

    parser = build_parser()
    if known.config is not None:
        try:
            _apply_config_defaults(parser, known.config)
        except OSError as exc:
            print(f"error: cannot read config: {exc}", file=sys.stderr)
            return 4
        except (ValueError, argparse.ArgumentTypeError) as exc:
            print(f"error: bad config: {exc}", file=sys.stderr)
            return 2
    args = parser.parse_args(argv)

    logging.basicConfig(stream=sys.stderr, level=logging.DEBUG if args.verbose
                        else logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    _log_resolved(args)
    try:
        return args.func(args)
    except InfeasibleError as exc:  # includes empty windows
        print(f"error: infeasible: {exc}", file=sys.stderr)
        return 3
    except (ParameterError, CapacityError) as exc:
        flag = _flag(args, getattr(exc, "param", None))
        print(f"error: usage: {flag + ': ' if flag else ''}{exc}", file=sys.stderr)
        return 2
    except QuadratureError as exc:  # the model's integrals miss at tiny cutoffs
        # tau = c0 * t must stay below 1/2, so a large c0 leaves no cutoff big enough.
        bound = f" = {0.5 / args.c0:.3g}" if getattr(args, "c0", None) else ""
        print(f"error: usage: {exc}; the bias cutoff is too small: raise --cutoff (it must "
              f"stay below 1/(2*c0){bound}) or, if no such cutoff works, lower --c0",
              file=sys.stderr)
        return 2
    except (OSError, UnicodeDecodeError) as exc:  # includes codebook format errors
        print(f"error: i/o: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
