"""Shared test helpers: a CLI harness and small statistics utilities."""

import contextlib
import io
import logging
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import settings

from tardos import cli

# CI runs the suite with --hypothesis-profile=ci: the same examples on every
# run, so a newly drawn example cannot fail a build.
settings.register_profile("ci", derandomize=True, deadline=None)


class CliResult:
    def __init__(self, code, out, err):
        self.code = code
        self.out = out
        self.err = err


@pytest.fixture
def run_cli():
    """Invoke the command line entry point in-process and capture output.

    argparse errors raise SystemExit; those are folded into the return code so
    tests can assert on usage failures the same way as on mapped errors. The
    root logger is reset first so each run re-binds its handler to the
    redirected stderr.
    """

    def _run(argv):
        root = logging.getLogger()
        for handler in list(root.handlers):
            root.removeHandler(handler)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(list(argv))
            except SystemExit as exc:  # argparse usage errors
                code = int(exc.code) if exc.code is not None else 0
        return CliResult(code, out.getvalue(), err.getvalue())

    return _run


def _python_at_blas_threads(args, threads):
    """Run ``python *args`` in a child process with ``OPENBLAS_NUM_THREADS`` set.

    OpenBLAS reads its thread count once, when it loads, so only a new process
    can change it. The variable is set in the child's environment alone.
    Returns the child's stdout; a nonzero exit fails the test.
    """
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=str(threads))
    return subprocess.run([sys.executable, *args], env=env, check=True,
                          capture_output=True, text=True, timeout=300).stdout


@pytest.fixture
def cli_at_blas_threads():
    """Run ``python -m tardos argv`` at a BLAS thread count; see above."""
    return lambda argv, threads: _python_at_blas_threads(["-m", "tardos", *argv], threads)


@pytest.fixture
def python_at_blas_threads():
    """Run ``python -c code`` at a BLAS thread count; see above."""
    return lambda code, threads: _python_at_blas_threads(["-c", code], threads)


def binomial_se(p, n):
    """Standard error of a binomial rate estimate."""
    return float(np.sqrt(max(p * (1.0 - p), 1e-300) / n))


def chi_square_gof(counts, probs):
    """Chi-square goodness-of-fit statistic and dof after merging sparse bins.

    Bins with expected count below 5 are merged into their left neighbor, the
    usual validity rule for the asymptotic chi-square distribution.
    """
    counts = np.asarray(counts, dtype=np.float64)
    n = counts.sum()
    expected = n * np.asarray(probs, dtype=np.float64)
    merged_obs, merged_exp = [], []
    acc_o = acc_e = 0.0
    for o, e in zip(counts, expected):
        acc_o += o
        acc_e += e
        if acc_e >= 5.0:
            merged_obs.append(acc_o)
            merged_exp.append(acc_e)
            acc_o = acc_e = 0.0
    if acc_e > 0.0 and merged_exp:
        merged_obs[-1] += acc_o
        merged_exp[-1] += acc_e
    obs = np.asarray(merged_obs)
    exp = np.asarray(merged_exp)
    stat = float(np.sum((obs - exp) ** 2 / exp))
    return stat, len(obs) - 1
