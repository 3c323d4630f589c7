"""Command-line front end.

Subcommands mirror the library: ``generate`` (codebook file), ``attack``
(forge a pirate copy), ``trace`` (accusation CSV), ``search`` / ``table``
(randomized minimization of the length coefficient), ``predict`` (moment,
length, threshold, and normal-range report), and ``simulate`` (Monte Carlo
rate estimation).

Reproducibility: an option comes from its flag, else its --config key=value
line (parsed by the running subcommand's flag, and dropped if the flag of its
exclusive partner is given; config values for both partners are an error),
else TARDOS_SEED (--seed only), else its default. The resolved configuration is
logged to stderr on every run (no timestamps, so reruns are byte-identical).
Output files are replaced whole or not at all.
Exit codes: 0 success, 2 usage error (also a cutoff too small for the
quadrature), 3 infeasible constraints or empty window, 4 I/O or file-format
failure. A usage error names the flag that fed the value: the library names
the argument (``ParameterError.param``) and :func:`main` maps it to a flag.
"""

import argparse
import logging
import os
import sys
from collections import namedtuple
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
    """Writable text stream for ``path``, replaced whole or not at all; '-' means stdout."""
    if path == "-":
        yield sys.stdout
    else:
        with codegen._atomic_open(path, "w", encoding="utf-8") as fh:
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
    pairs = sorted((k, v) for k, v in vars(args).items() if k not in ("func", "config"))
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


# An option as build_parser records it: argparse gets no default and nothing
# required, so a parsed namespace holds exactly what argv gave.
_Option = namedtuple("_Option", "action default required group")


class _Parser(argparse.ArgumentParser):
    """ArgumentParser with an ``options`` table (dest: :data:`_Option`) that get_default reads."""

    def __init__(self, **kwargs):
        super().__init__(argument_default=argparse.SUPPRESS, **kwargs)
        self.options = {}

    def option(self, *flags, default=None, required=False, group=None, **kwargs):
        """``add_argument`` (on the exclusive ``group`` if given), recorded in ``options``."""
        if required:  # argparse is not told, so that a config file can give the value
            kwargs["help"] = " ".join(filter(None, (kwargs.get("help"), "(required)")))
        action = (self if group is None else group).add_argument(*flags, **kwargs)
        self.options[action.dest] = _Option(action, default, required, group)

    def get_default(self, dest):
        return self.options[dest].default if dest in self.options else super().get_default(dest)


def _add_common(sub, *flags):
    if "c0" in flags:
        sub.option("--c0", type=_positive_int, help="design coalition size")
    if "eps" in flags:
        sub.option("--eps1", type=float, help="innocent-accusation probability target")
        sub.option("--eps2", type=float, help="coalition-escape probability target")
    if "strategy" in flags:
        group = sub.add_mutually_exclusive_group()
        sub.option("--strategy", group=group, default="extremal",
                   help="built-in strategy name (default extremal)")
        sub.option("--psi-csv", group=group,
                   help="custom strategy table: a CSV file of rows 'x,psi(x)'")


def build_parser():
    """The parser of ``argv``; ``commands`` holds its subcommand parsers by name."""
    parser = _Parser(
        prog="tardos",
        description="Collusion-resistant fingerprinting: codes, tracing, "
                    "attacks, provable bounds, and simulation.")
    parser.option("--seed", type=_seed, default=0,
                  help="master seed (default: TARDOS_SEED or 0)")
    parser.option("--threads", type=_positive_int, default=os.cpu_count() or 1,
                  help="worker threads for generate and simulate; the other "
                       "subcommands run serially (default: machine parallelism)")
    parser.option("--verbose", action="store_true", default=False, help="debug-level logging")
    parser.option("--config", help="key=value file providing option defaults")
    subs = parser.add_subparsers(dest="command", required=True)
    parser.commands = subs.choices

    g = subs.add_parser("generate", help="generate and save a codebook")
    g.option("--users", "-n", type=_positive_int, required=True)
    g.option("--length", "-m", type=_positive_int,
             help="code length; omit to derive from the plan flags")
    g.option("--cutoff", type=float, help="bias cutoff t (default 1/(300 c0))")
    g.option("--threshold", type=float,
             help="accusation threshold to store with explicit --length")
    _add_common(g, "c0", "eps")
    g.option("--out", required=True, help="output codebook path")
    g.set_defaults(func=cmd_generate)

    a = subs.add_parser("attack", help="forge a pirate copy from a coalition")
    a.option("--codebook", required=True)
    a.option("--users", type=_list_of(int, "integer"), required=True,
             help="comma-separated coalition user ids")
    _add_common(a, "strategy")
    a.option("--out", required=True, help="output pirate-copy path ('-' stdout)")
    a.set_defaults(func=cmd_attack)

    t = subs.add_parser("trace", help="score all users against a pirate copy")
    t.option("--codebook", required=True)
    t.option("--pirate", required=True, help="pirate-copy text file")
    t.option("--threshold", "-Z", type=float,
             help="accusation threshold (default: from codebook params)")
    t.option("--out", default="-", help="accusation CSV path ('-' stdout)")
    t.set_defaults(func=cmd_trace)

    s = subs.add_parser("search", help="randomized search for the smallest length coefficient")
    s.option("--c0", type=_positive_int, required=True)
    s.option("--eps1", type=float, default=1e-10)
    target = s.add_mutually_exclusive_group()
    s.option("--eps2", type=float, group=target)
    s.option("--ratio", type=float, group=target, help="ln(eps2)/ln(eps1), in place of --eps2")
    s.option("--iterations", type=_positive_int, required=True)
    s.option("--out", default="-")
    s.set_defaults(func=cmd_search)

    tb = subs.add_parser("table", help="search over a grid of (ratio, c0) cells")
    tb.option("--c0-list", type=_list_of(_positive_int, "positive integer"), required=True)
    tb.option("--ratio-list", type=_list_of(float, "number"), required=True)
    tb.option("--iterations", type=_positive_int, required=True)
    tb.option("--eps1", type=float, default=1e-10)
    tb.option("--out", default="-")
    tb.set_defaults(func=cmd_table)

    p = subs.add_parser("predict", help="moment, length, threshold, and normal-range report")
    p.option("--c0", type=_positive_int, required=True)
    p.option("--coalition", "-c", type=_positive_int, help="actual coalition size (default c0)")
    p.option("--cutoff", type=float)
    p.option("--eps1", type=float, required=True)
    p.option("--eps2", type=float, required=True)
    p.option("--length", "-m", type=_positive_int,
             help="evaluate the threshold interval at this length")
    _add_common(p, "strategy")
    p.option("--out", help="also write a one-row CSV here")
    p.set_defaults(func=cmd_predict)

    si = subs.add_parser("simulate", help="Monte Carlo false-positive/negative rate estimation")
    si.option("--c0", type=_positive_int, required=True)
    si.option("--coalition", "-c", type=_positive_int)
    si.option("--cutoff", type=float)
    si.option("--eps1", type=float, required=True)
    si.option("--eps2", type=float, required=True)
    si.option("--length", "-m", type=_positive_int)
    si.option("--threshold", "-Z", type=float)
    si.option("--trials", type=_positive_int, required=True)
    si.option("--innocents", type=_positive_int, default=100,
              help="innocent users sampled per trial")
    si.option("--bins", type=_positive_int, default=80)
    _add_common(si, "strategy")
    si.option("--out-jsonl")
    si.option("--out-hist")
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


def _convert(sub, opt, where, text):
    """``text`` from the config file or TARDOS_SEED, parsed as ``opt``'s flag parses it."""
    action = opt.action
    try:
        if action.const is not True:
            return (action.type or str)(text)
        if text.lower() in _BOOLEANS:  # --verbose
            return _BOOLEANS[text.lower()]
        raise ValueError("not a boolean (1/true/yes/on or 0/false/no/off)")
    except (ValueError, argparse.ArgumentTypeError) as exc:
        sub.error(f"bad {where}{text!r} for {action.option_strings[0]}: {exc}")


def _resolve(parser, args):
    """Set each option of the running subcommand that argv left out, as the
    module docstring says; a value that fails or is missing exits 2."""
    sub, config = parser.commands[args.command], {}
    if "config" in args:
        with open(args.config, "r", encoding="utf-8") as fh:
            text = fh.read()
        try:
            config = parse_kv_text(text)
        except ParameterError as exc:
            sub.error(f"bad config: {exc}")
    unknown = set(config).difference(parser.options,
                                     *(p.options for p in parser.commands.values()))
    if unknown:
        sub.error(f"bad config: unknown key {min(unknown)!r} (no such option)")
    options, given = {**parser.options, **sub.options}, set(vars(args))
    rival = {d: e for d, o in options.items() for e, p in options.items()
             if d != e and o.group is p.group is not None}
    for dest, opt in options.items():
        if dest in given:
            continue
        other = rival.get(dest)
        if dest in config and other not in given:
            if other in config:
                flags = " and ".join(options[d].action.option_strings[0] for d in (dest, other))
                sub.error(f"bad config: {dest} and {other} exclude each other, as {flags} do")
            value = _convert(sub, opt, f"config: {dest}=", config[dest])
        elif dest == "seed" and "TARDOS_SEED" in os.environ:
            value = _convert(sub, opt, "TARDOS_SEED=", os.environ["TARDOS_SEED"])
        else:
            value = opt.default
        setattr(args, dest, value)
    missing = ["/".join(o.action.option_strings) for d, o in options.items()
               if o.required and getattr(args, d) is None]
    if missing:
        sub.error(f"the following arguments are required: {', '.join(missing)}")


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _resolve(parser, args)
        logging.basicConfig(stream=sys.stderr, level=logging.DEBUG if args.verbose
                            else logging.INFO, format="%(levelname)s %(name)s: %(message)s")
        _log_resolved(args)
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
