"""Command line interface: pipelines, formats, determinism, exit codes."""

import functools
import json
import math
import os
import re
import stat
import struct
import subprocess
import sys
import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tardos import (
    InfeasibleError,
    PirateCopy,
    conservative_plan,
    load_codebook,
    m_min,
    moments,
    trace,
)
from tardos import cli as cli_module
from tardos.codegen import crc64


GEN_ARGS = ["--seed", "3", "generate", "--users", "30", "--c0", "6",
            "--eps1", "0.02", "--eps2", "0.3"]


@pytest.fixture
def codebook_path(tmp_path, run_cli):
    path = tmp_path / "cb.bin"
    res = run_cli(GEN_ARGS + ["--out", str(path)])
    assert res.code == 0, res.err
    return path


class TestGenerate:
    def test_plan_derived_length_matches_library(self, codebook_path):
        cb = load_codebook(codebook_path)
        t = 1.0 / (300.0 * 6.0)
        plan = conservative_plan(6, 6.0 * t, 0.02, 0.3)
        assert cb.m == plan.m
        assert cb.params.Z == pytest.approx(plan.Z, rel=1e-15)
        assert cb.params.t == pytest.approx(t, rel=1e-15)
        assert cb.n == 30

    def test_deterministic_bytes(self, tmp_path, run_cli):
        paths = [tmp_path / f"cb{i}.bin" for i in range(3)]
        run_cli(GEN_ARGS + ["--out", str(paths[0])])
        run_cli(GEN_ARGS + ["--out", str(paths[1])])
        res = run_cli(["--seed", "3", "--threads", "8"] + GEN_ARGS[2:] +
                      ["--out", str(paths[2])])
        assert res.code == 0
        blobs = [p.read_bytes() for p in paths]
        assert blobs[0] == blobs[1] == blobs[2]

    def test_explicit_length_without_design_size(self, tmp_path, run_cli):
        path = tmp_path / "plain.bin"
        res = run_cli(["generate", "--users", "5", "--length", "500",
                       "--cutoff", "0.001", "--out", str(path)])
        assert res.code == 0
        cb = load_codebook(path)
        assert cb.m == 500 and cb.params is None

    @pytest.mark.parametrize("plan_flags", [[], ["--c0", "6", "--eps1", "0.02"]])
    def test_threshold_without_plan_is_usage_error(self, tmp_path, run_cli,
                                                   plan_flags):
        # The threshold is stored only inside full plan params; dropping it
        # silently would make a later trace without -Z fail.
        path = tmp_path / "x.bin"
        res = run_cli(["generate", "--users", "5", "--length", "64",
                       "--threshold", "3", "--cutoff", "0.01", "--out", str(path)]
                      + plan_flags)
        assert res.code == 2
        assert "--eps2" in res.err
        assert not path.exists()

    def test_needs_length_or_plan_inputs(self, tmp_path, run_cli):
        res = run_cli(["generate", "--users", "5", "--cutoff", "0.001",
                       "--out", str(tmp_path / "x.bin")])
        assert res.code == 2
        assert "usage" in res.err


class TestAttack:
    def test_single_user_reproduces_row(self, codebook_path, tmp_path, run_cli):
        out = tmp_path / "copy.txt"
        res = run_cli(["attack", "--codebook", str(codebook_path),
                       "--users", "4", "--out", str(out)])
        assert res.code == 0
        cb = load_codebook(codebook_path)
        got = PirateCopy.from_text(out.read_text())
        assert np.array_equal(got.bits, cb.row(4))

    def test_extremal_is_or_of_rows(self, codebook_path, tmp_path, run_cli):
        out = tmp_path / "copy.txt"
        res = run_cli(["attack", "--codebook", str(codebook_path),
                       "--users", "0,2,5", "--strategy", "extremal",
                       "--out", str(out)])
        assert res.code == 0
        cb = load_codebook(codebook_path)
        want = (cb.select_bits([0, 2, 5]).sum(axis=0) > 0).astype(np.uint8)
        assert np.array_equal(PirateCopy.from_text(out.read_text()).bits, want)

    def test_duplicate_users_rejected(self, codebook_path, tmp_path, run_cli):
        res = run_cli(["attack", "--codebook", str(codebook_path),
                       "--users", "1,1", "--out", str(tmp_path / "y.txt")])
        assert res.code == 2

    def test_out_of_range_user_rejected(self, codebook_path, tmp_path, run_cli):
        res = run_cli(["attack", "--codebook", str(codebook_path),
                       "--users", "0,99", "--out", str(tmp_path / "y.txt")])
        assert res.code == 2

    @pytest.mark.parametrize("huge", [2 ** 63, 2 ** 64])
    def test_user_beyond_int64_is_out_of_range(self, codebook_path, tmp_path, run_cli, huge):
        res = run_cli(["attack", "--codebook", str(codebook_path),
                       "--users", f"0,{huge}", "--out", str(tmp_path / "y.txt")])
        assert res.code == 2
        assert f"--users: user {huge} outside 0..29" in res.err

    def test_unknown_strategy_rejected(self, codebook_path, tmp_path, run_cli):
        res = run_cli(["attack", "--codebook", str(codebook_path),
                       "--users", "0,1", "--strategy", "bogus",
                       "--out", str(tmp_path / "y.txt")])
        assert res.code == 2
        assert "usage" in res.err


class TestTrace:
    def _forge(self, codebook_path, tmp_path, run_cli):
        out = tmp_path / "copy.txt"
        run_cli(["--seed", "9", "attack", "--codebook", str(codebook_path),
                 "--users", "1,3,7", "--out", str(out)])
        return out

    def test_matches_library_trace(self, codebook_path, tmp_path, run_cli):
        copy_path = self._forge(codebook_path, tmp_path, run_cli)
        res = run_cli(["trace", "--codebook", str(codebook_path),
                       "--pirate", str(copy_path)])
        assert res.code == 0
        cb = load_codebook(codebook_path)
        y = PirateCopy.from_text(copy_path.read_text())
        rep = trace(cb, y.bits, cb.params.Z)
        import io

        buf = io.StringIO()
        rep.to_csv(buf)
        assert res.out == buf.getvalue()

    def test_infinite_threshold_accuses_nobody(self, codebook_path, tmp_path,
                                               run_cli):
        copy_path = self._forge(codebook_path, tmp_path, run_cli)
        res = run_cli(["trace", "--codebook", str(codebook_path),
                       "--pirate", str(copy_path), "--threshold", "inf"])
        assert res.code == 0
        rows = res.out.splitlines()[1:]
        assert all(line.rsplit(",", 1)[1] == "0" for line in rows)

    def test_threshold_required_without_stored_plan(self, tmp_path, run_cli):
        plain = tmp_path / "plain.bin"
        run_cli(["generate", "--users", "4", "--length", "64",
                 "--cutoff", "0.001", "--out", str(plain)])
        copy_path = tmp_path / "c.txt"
        run_cli(["attack", "--codebook", str(plain), "--users", "0",
                 "--out", str(copy_path)])
        res = run_cli(["trace", "--codebook", str(plain),
                       "--pirate", str(copy_path)])
        assert res.code == 2
        ok = run_cli(["trace", "--codebook", str(plain),
                      "--pirate", str(copy_path), "-Z", "5.0"])
        assert ok.code == 0


SEARCH_ARGS = ["search", "--c0", "10", "--ratio", "0.05",
               "--iterations", "4000"]


class TestSearch:
    def test_output_fields_and_determinism(self, run_cli):
        a = run_cli(["--seed", "12"] + SEARCH_ARGS)
        b = run_cli(["--seed", "12"] + SEARCH_ARGS)
        assert a.code == 0 and a.out == b.out
        kv = dict(line.split("=", 1) for line in a.out.splitlines())
        assert set(kv) == {"A", "B", "t", "L", "alpha1", "alpha2", "c0", "R",
                           "iterations_used"}
        assert float(kv["B"]) == pytest.approx(
            2.0 * math.sqrt(float(kv["A"])), rel=1e-12)
        assert int(kv["iterations_used"]) == 4000

    def test_zero_iterations_is_usage_error(self, run_cli):
        res = run_cli(["search", "--c0", "10", "--ratio", "0.05",
                       "--iterations", "0"])
        assert res.code == 2

    def test_env_seed_matches_flag(self, run_cli, monkeypatch):
        flag = run_cli(["--seed", "42"] + SEARCH_ARGS)
        monkeypatch.setenv("TARDOS_SEED", "42")
        env = run_cli(SEARCH_ARGS)
        assert env.out == flag.out

    def test_eps2_and_ratio_equivalent(self, run_cli):
        via_ratio = run_cli(["--seed", "1"] + SEARCH_ARGS)
        eps2 = math.exp(0.05 * math.log(1e-10))
        via_eps2 = run_cli(["--seed", "1", "search", "--c0", "10",
                            "--eps2", repr(eps2), "--iterations", "4000"])
        assert via_ratio.out == via_eps2.out

    @pytest.mark.parametrize("targets", [["--eps2", "0.01", "--ratio", "0.3"],
                                         ["--ratio", "0.3", "--eps2", "0.01"]])
    def test_eps2_with_ratio_is_usage_error(self, run_cli, targets):
        # Both set R; --ratio used to win and --eps2 was dropped without a word.
        res = run_cli(["search", "--c0", "4", *targets, "--iterations", "4096"])
        assert res.code == 2 and res.out == ""
        assert "--eps2" in res.err and "--ratio" in res.err


class TestStrategyFlags:
    """``--strategy`` and ``--psi-csv`` each name the strategy, so they exclude each other."""

    @staticmethod
    def _argv(command, codebook_path, tmp_path):
        return {"attack": ["attack", "--codebook", str(codebook_path), "--users", "0,1",
                           "--out", str(tmp_path / "y.txt")],
                "predict": ["predict", "--c0", "2", "--eps1", "0.1", "--eps2", "0.1"],
                "simulate": ["simulate", "--c0", "2", "--eps1", "0.1", "--eps2", "0.3",
                             "--trials", "1", "--innocents", "2"]}[command]

    @pytest.mark.parametrize("order", ["psi-csv first", "strategy first", "default name"])
    @pytest.mark.parametrize("command", ["attack", "predict", "simulate"])
    def test_strategy_with_psi_csv_is_usage_error(self, codebook_path, tmp_path, run_cli,
                                                  command, order):
        # The table used to win, and --strategy was ignored whatever its value.
        # In process, the literal "extremal" was the very object argparse held
        # as the default, and its identity test took the flag as not given.
        psi = tmp_path / "psi.csv"
        psi.write_text("0,0\n1,0.5\n2,1\n")
        both = {"psi-csv first": ["--psi-csv", str(psi), "--strategy", "nonsense"],
                "strategy first": ["--strategy", "majority", "--psi-csv", str(psi)],
                "default name": ["--strategy", "extremal", "--psi-csv", str(psi)]}[order]
        res = run_cli(self._argv(command, codebook_path, tmp_path) + both)
        assert res.code == 2 and res.out == ""
        assert "--strategy" in res.err and "--psi-csv" in res.err
        assert not (tmp_path / "y.txt").exists()

    @pytest.mark.parametrize("command", ["attack", "predict", "simulate"])
    def test_psi_csv_alone_logs_the_default_strategy(self, codebook_path, tmp_path, run_cli,
                                                     command):
        psi = tmp_path / "psi.csv"
        psi.write_text("0,0\n1,0.5\n2,1\n")
        res = run_cli(self._argv(command, codebook_path, tmp_path) + ["--psi-csv", str(psi)])
        assert res.code == 0, res.err
        assert f"psi_csv={psi} " in res.err and " strategy=extremal " in res.err


class TestTable:
    def test_csv_and_cell_agreement(self, run_cli):
        res = run_cli(["--seed", "5", "table", "--c0-list", "10,15",
                       "--ratio-list", "0.02", "--iterations", "3000"])
        assert res.code == 0
        lines = res.out.splitlines()
        assert lines[0] == "R,c0,A,B,t_ratio"
        assert len(lines) == 3
        # Second cell runs at seed 5 + 1.
        cell = run_cli(["--seed", "6", "search", "--c0", "15", "--ratio",
                        "0.02", "--iterations", "3000"])
        kv = dict(line.split("=", 1) for line in cell.out.splitlines())
        fields = lines[2].split(",")
        assert float(fields[2]) == pytest.approx(float(kv["A"]), rel=1e-15)


class TestPredict:
    def test_trivial_targets_need_no_length(self, run_cli):
        res = run_cli(["predict", "--c0", "10", "--eps1", "0.5",
                       "--eps2", "0.5"])
        assert res.code == 0
        assert "strategy-specific m_min = 0.0" in res.out

    def test_report_and_csv(self, tmp_path, run_cli):
        out = tmp_path / "pred.csv"
        res = run_cli(["predict", "--c0", "6", "--eps1", "0.01",
                       "--eps2", "0.25", "--out", str(out)])
        assert res.code == 0
        assert "conservative plan" in res.out
        header, row = out.read_text().splitlines()
        cols = dict(zip(header.split(","), row.split(",")))
        t = 1.0 / 1800.0
        plan = conservative_plan(6, 6.0 * t, 0.01, 0.25)
        assert float(cols["m_min"]) == pytest.approx(plan.m_min, rel=1e-12)
        assert int(cols["m_eval"]) == plan.m
        summary = moments("extremal", 6, t=t)
        assert float(cols["m_min_strategy"]) == pytest.approx(
            m_min(summary, 0.01, 0.25, 6), rel=1e-12)

    def test_classical_benchmark_bound(self, tmp_path, run_cli):
        out = tmp_path / "bench.csv"
        res = run_cli(["predict", "--c0", "100", "--eps1", "1e-10",
                       "--eps2", "0.5", "--out", str(out)])
        assert res.code == 0
        header, row = out.read_text().splitlines()
        cols = dict(zip(header.split(","), row.split(",")))
        coeff = 2.0 * math.pi ** 2 * math.log(1.0 / (1e-10 * math.sqrt(2 * math.pi)))
        assert float(cols["m"]) <= coeff * 100 ** 2

    def test_extremal_needs_longest_code(self, run_cli):
        def mmin_for(kind):
            res = run_cli(["predict", "--c0", "8", "--eps1", "1e-6",
                           "--eps2", "0.3", "--strategy", kind])
            line = [ln for ln in res.out.splitlines()
                    if ln.startswith("strategy-specific m_min")][0]
            return float(line.split("=")[1].split("(")[0])

        assert mmin_for("extremal") > mmin_for("interleave")
        assert mmin_for("extremal") > mmin_for("coin")

    def test_psi_csv_strategy(self, tmp_path, run_cli):
        psi = tmp_path / "psi.csv"
        psi.write_text("0,0\n1,0.25\n2,0.5\n3,0.75\n4,1\n")
        res = run_cli(["predict", "--c0", "4", "--eps1", "0.01",
                       "--eps2", "0.25", "--psi-csv", str(psi)])
        interleave = run_cli(["predict", "--c0", "4", "--eps1", "0.01",
                              "--eps2", "0.25", "--strategy", "interleave"])
        assert res.code == 0
        assert res.out == interleave.out

    def test_psi_csv_path_with_comma(self, tmp_path, run_cli):
        psi = tmp_path / "a,b.csv"
        psi.write_text("0,0\n1,0.25\n2,0.5\n3,0.75\n4,1\n")
        res = run_cli(["predict", "--c0", "4", "--eps1", "0.01",
                       "--eps2", "0.25", "--psi-csv", str(psi)])
        interleave = run_cli(["predict", "--c0", "4", "--eps1", "0.01",
                              "--eps2", "0.25", "--strategy", "interleave"])
        assert res.code == 0, res.err
        assert res.out == interleave.out

    @pytest.mark.parametrize("content", [None, b"\xff\xfe0,0\n1,1\n"])
    def test_unreadable_psi_csv_is_io_error(self, tmp_path, run_cli, content):
        psi = tmp_path / "no,such.csv"
        if content is not None:
            psi.write_bytes(content)
        res = run_cli(["predict", "--c0", "1", "--eps1", "0.01", "--eps2",
                       "0.25", "--psi-csv", str(psi)])
        assert res.code == 4
        assert "i/o" in res.err


class TestSimulateCommand:
    SIM = ["simulate", "--c0", "6", "--eps1", "0.01", "--eps2", "0.25",
           "--length", "400", "--threshold", "20", "--trials", "20",
           "--innocents", "10"]

    def test_output_and_thread_determinism(self, tmp_path, run_cli):
        out1, out2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        hist = tmp_path / "h.csv"
        res1 = run_cli(["--seed", "2"] + self.SIM +
                       ["--out-jsonl", str(out1), "--out-hist", str(hist)])
        res2 = run_cli(["--seed", "2", "--threads", "4"] + self.SIM +
                       ["--out-jsonl", str(out2)])
        assert res1.code == res2.code == 0
        assert out1.read_bytes() == out2.read_bytes()
        assert res1.out == res2.out
        for token in ("fp_hat", "fn_hat", "ci99", "ks innocent"):
            assert token in res1.out
        lines = out1.read_text().splitlines()
        assert len(lines) == 21
        assert "aggregate" in json.loads(lines[-1])
        hist_text = hist.read_text()
        assert "# innocent\n" in hist_text and "# coalition\n" in hist_text

    def test_plan_mode_without_explicit_length(self, run_cli):
        res = run_cli(["simulate", "--c0", "4", "--eps1", "0.05",
                       "--eps2", "0.3", "--trials", "5", "--innocents", "5"])
        assert res.code == 0, res.err

    def test_length_without_threshold_rejected(self, run_cli):
        res = run_cli(["simulate", "--c0", "6", "--eps1", "0.01",
                       "--eps2", "0.25", "--length", "400",
                       "--trials", "5", "--innocents", "5"])
        assert res.code == 2
        assert "together" in res.err


class TestConfigAndLogging:
    def test_config_file_defaults(self, tmp_path, run_cli):
        conf = tmp_path / "conf.txt"
        conf.write_text("c0=15\niterations=3000\nratio=0.04\n")
        via_conf = run_cli(["--config", str(conf), "search"])
        via_flags = run_cli(["search", "--c0", "15", "--ratio", "0.04",
                             "--iterations", "3000"])
        assert via_conf.code == 0
        assert via_conf.out == via_flags.out

    def test_flags_override_config(self, tmp_path, run_cli):
        conf = tmp_path / "conf.txt"
        conf.write_text("c0=15\niterations=3000\nratio=0.04\n")
        over = run_cli(["--config", str(conf), "search", "--c0", "10"])
        base = run_cli(["search", "--c0", "10", "--ratio", "0.04",
                        "--iterations", "3000"])
        assert over.out == base.out

    def test_missing_config_file(self, run_cli):
        res = run_cli(["--config", "/nonexistent/conf", "search", "--c0",
                       "10", "--ratio", "0.05", "--iterations", "100"])
        assert res.code == 4

    @pytest.mark.parametrize("line, key", [("epsl=0.1", "'epsl'"),
                                           ("verbose=maybe", "verbose"),
                                           ("threads=0", "threads='0' for --threads:"),
                                           ("eps1=x", "eps1='x' for --eps1:")])
    def test_config_typo_is_usage_error(self, tmp_path, run_cli, line, key):
        conf = tmp_path / "conf.txt"
        conf.write_text(line + "\n")
        res = run_cli(["--config", str(conf)] + SEARCH_ARGS)
        assert res.code == 2
        assert key in res.err and "Traceback" not in res.err
        assert res.out == ""

    def test_config_key_of_another_subcommand_is_allowed(self, tmp_path, run_cli):
        # A config file supplies defaults for any flag, so one file can serve
        # every subcommand; booleans take the usual spellings.
        conf = tmp_path / "conf.txt"
        conf.write_text("trials=5\nout_jsonl=unused.jsonl\nverbose=Off\n")
        res = run_cli(["--config", str(conf)] + SEARCH_ARGS)
        assert res.code == 0, res.err
        assert res.out == run_cli(SEARCH_ARGS).out
        assert "verbose=False" in res.err

    @staticmethod
    def _conf(tmp_path, text):
        conf = tmp_path / "conf.txt"
        conf.write_text(text)
        return ["--config", str(conf)]

    @pytest.mark.parametrize("argv", [["--eps2", "0.01"], ["--ratio", "0.2"]])
    def test_flag_drops_the_config_value_of_its_partner(self, tmp_path, run_cli, argv):
        # The config's ratio (or eps2) used to beat the explicit --eps2 (or --ratio).
        search = ["search", "--c0", "4", *argv, "--iterations", "4096"]
        conf = self._conf(tmp_path, "eps2=0.3\n" if "--ratio" in argv else "ratio=0.3\n")
        res = run_cli(conf + search)
        assert res.code == 0, res.err
        assert res.out == run_cli(search).out and "R=0.3\n" not in res.out
        assert " eps2=None " in res.err or " ratio=None " in res.err

    def test_strategy_flag_drops_the_config_psi_csv(self, tmp_path, run_cli):
        psi = tmp_path / "psi.csv"
        psi.write_text("0,0\n1,1\n2,1\n")
        predict = ["predict", "--c0", "2", "--eps1", "0.1", "--eps2", "0.3",
                   "--strategy", "majority"]
        res = run_cli(self._conf(tmp_path, f"psi_csv={psi}\n") + predict)
        assert res.code == 0, res.err
        assert res.out == run_cli(predict).out
        assert " psi_csv=None " in res.err and " strategy=majority " in res.err

    @pytest.mark.parametrize("command, text", [
        (["search", "--c0", "4", "--iterations", "100"], "eps2=0.01\nratio=0.3\n"),
        (["predict", "--c0", "2", "--eps1", "0.1", "--eps2", "0.3"],
         "strategy=majority\npsi_csv=psi.csv\n"),
    ])
    def test_config_values_for_both_partners_are_usage_error(self, tmp_path, run_cli, command,
                                                             text):
        res = run_cli(self._conf(tmp_path, text) + command)
        assert res.code == 2 and res.out == ""
        line = res.err.splitlines()[-1]
        keys = [kv.split("=")[0] for kv in text.split()]
        assert all(k in line and "--" + k.replace("_", "-") in line for k in keys), line

    def test_config_value_is_parsed_by_the_running_subcommand(self, codebook_path, tmp_path,
                                                              run_cli):
        # users is a list under attack and one integer under generate; the
        # value was parsed by both, and failed the second. A value for an
        # option of another subcommand is not parsed at all.
        attack = ["attack", "--codebook", str(codebook_path), "--out", str(tmp_path / "y.txt")]
        assert run_cli(attack + ["--users", "3,4"]).code == 0
        explicit = (tmp_path / "y.txt").read_text()
        res = run_cli(self._conf(tmp_path, "users=3,4\nc0_list=x\n") + attack)
        assert res.code == 0, res.err
        assert (tmp_path / "y.txt").read_text() == explicit

    def test_resolved_settings_logged(self, run_cli):
        res = run_cli(["--seed", "7"] + SEARCH_ARGS)
        assert "resolved config:" in res.err
        assert "seed=7" in res.err

    def test_help_exits_cleanly(self, run_cli):
        res = run_cli(["--help"])
        assert res.code == 0
        assert "generate" in res.out and "simulate" in res.out


class TestAtomicOutputs:
    """Every output file is written beside its target and renamed over it."""

    @staticmethod
    def _argv(command, out):
        return {"generate": ["--seed", "3", "generate", "--users", "30", "--length", "100",
                             "--cutoff", "0.01", "--out", str(out)],
                "search": SEARCH_ARGS + ["--out", str(out)]}[command]

    @pytest.mark.parametrize("command", ["generate", "search"])
    def test_symlink_out_keeps_the_link(self, tmp_path, run_cli, command):
        # The codebook writer used to replace the link with a regular file.
        assert run_cli(self._argv(command, tmp_path / "plain")).code == 0
        target, link = tmp_path / "target", tmp_path / "link"
        target.write_bytes(b"old")
        link.symlink_to(target)
        assert run_cli(self._argv(command, link)).code == 0
        assert link.is_symlink() and target.read_bytes() == (tmp_path / "plain").read_bytes()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["link", "plain", "target"]

    @pytest.mark.parametrize("command", ["generate", "search"])
    def test_replaced_out_keeps_its_permissions(self, tmp_path, run_cli, command):
        out = tmp_path / "out"
        out.write_bytes(b"old")
        out.chmod(0o640)
        assert run_cli(self._argv(command, out)).code == 0
        assert stat.S_IMODE(out.stat().st_mode) == 0o640 and out.read_bytes() != b"old"

    @pytest.mark.parametrize("command", ["generate", "search"])
    def test_fifo_out_is_written_in_place(self, tmp_path, run_cli, command):
        # A rename would put a regular file where the FIFO was, and its reader
        # would wait forever.
        assert run_cli(self._argv(command, tmp_path / "plain")).code == 0
        fifo, got = tmp_path / "fifo", []
        os.mkfifo(fifo)
        reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
        reader.start()
        res = run_cli(self._argv(command, fifo))
        reader.join(timeout=60)
        assert res.code == 0 and not reader.is_alive()
        assert got == [(tmp_path / "plain").read_bytes()]
        assert stat.S_ISFIFO(os.stat(fifo).st_mode)

    def test_failed_write_keeps_the_previous_file(self, tmp_path, run_cli, monkeypatch):
        class Result:
            A = B = t = L = alpha1 = alpha2 = c0 = 1.0

            @property
            def R(self):
                raise OSError("disk full")

        monkeypatch.setattr(cli_module.bounds, "search_min_A", lambda *a: Result())
        out = tmp_path / "out.txt"
        out.write_text("old\n")
        res = run_cli(SEARCH_ARGS + ["--out", str(out)])
        assert res.code == 4 and "disk full" in res.err
        assert out.read_text() == "old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


class TestColdStart:
    @staticmethod
    def fresh(code):
        """stdout of ``code`` run in a fresh interpreter that imports the package from src."""
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True, timeout=120)
        return out.stdout.strip()

    def test_cli_import_leaves_scipy_unloaded(self):
        # scipy is most of the start-up time and only quadrature needs it.
        code = ("import sys, tardos.cli, tardos.model as m; "
                "print('scipy' in sys.modules, m._qagse.cache_info().currsize)")
        assert self.fresh(code) == "False 0"

    def test_cli_import_loads_no_hashlib_and_builds_no_crc_table(self):
        # secrets would load hashlib and libcrypto, about 4 MB; only crc64's
        # no-liblzma fallback needs the slice-by-8 tables. numpy 1.x loads
        # hashlib itself, through numpy.random and secrets.
        code = ("import sys, numpy; numpy_loads = 'hashlib' in sys.modules; "
                "import tardos.cli, tardos.codegen as c; "
                "print('hashlib' in sys.modules and not numpy_loads, "
                "c._crc_tables.cache_info().currsize)")
        assert self.fresh(code) == "False 0"

    def test_quadrature_loads_quadpack_alone(self):
        # scipy.integrate would load scipy's ODE, BVP and cubature solvers
        # and through them the rest: about 45 MB and 0.4 s.
        code = ("import contextlib, io, sys, tardos.cli, tardos.model as m\n"
                "with contextlib.redirect_stdout(io.StringIO()):\n"
                "    assert tardos.cli.main(['predict', '--c0', '6', '--eps1', '0.01',"
                " '--eps2', '0.25']) == 0\n"
                "    assert tardos.cli.main(['simulate', '--c0', '4', '--eps1', '0.05',"
                " '--eps2', '0.3', '--trials', '3', '--innocents', '5']) == 0\n"
                "heavy = ('integrate', 'special', 'optimize', 'sparse', 'linalg')\n"
                "print([n for n in heavy if 'scipy.' + n in sys.modules], m._qagse() is not None)")
        assert self.fresh(code) == "[] True"

    def test_cli_import_leaves_the_liblzma_lookup_undone(self):
        # crc64 looks liblzma up on its first call. numpy itself loads ctypes,
        # and _lzma through shutil, so the import may load those only if numpy
        # does; ctypes.util is loaded by the lookup alone.
        code = ("import sys, numpy; names = ('ctypes', '_lzma', 'ctypes.util'); "
                "numpy_loads = {m for m in names if m in sys.modules}; "
                "import tardos.cli, tardos.codegen as c; "
                "print(sorted({m for m in names if m in sys.modules} - numpy_loads), "
                "c._lzma_crc64.cache_info().currsize)")
        assert self.fresh(code) == "[] 0"


class TestExitCodes:
    @pytest.mark.parametrize("seed", ["-1", "x", "1.5", str(2 ** 64), "18446744073709551621"])
    def test_bad_seed_is_usage_error(self, run_cli, monkeypatch, tmp_path, seed):
        gen = ["generate", "--users", "5", "--length", "64", "--threshold",
               "3", "--cutoff", "0.01", "--out", str(tmp_path / "cb.bin")]
        res = run_cli(["--seed", seed] + gen)
        assert res.code == 2
        assert "--seed" in res.err
        monkeypatch.setenv("TARDOS_SEED", seed)
        res = run_cli(gen)
        assert res.code == 2
        assert "--seed" in res.err and f"TARDOS_SEED={seed!r}" in res.err
        assert not (tmp_path / "cb.bin").exists()

    @pytest.mark.parametrize("seed", [str(2 ** 64), "18446744073709551621"])
    def test_search_seed_of_2_64_or_more_is_usage_error(self, run_cli, monkeypatch,
                                                        seed):
        # Masked to 64 bits, 2^64 + 5 would alias seed 5.
        assert run_cli(["--seed", seed] + SEARCH_ARGS).code == 2
        monkeypatch.setenv("TARDOS_SEED", seed)
        res = run_cli(SEARCH_ARGS)
        assert res.code == 2 and "--seed" in res.err

    @pytest.mark.parametrize("argv", [
        ["search", "--c0", "4", "--eps1", "0", "--ratio", "0.1", "--iterations", "10"],
        ["search", "--c0", "4", "--eps1", "-1", "--ratio", "0.1", "--iterations", "10"],
        ["table", "--c0-list", "4", "--ratio-list", "0.1", "--iterations", "10",
         "--eps1", "0"],
    ])
    def test_eps1_outside_unit_interval_is_usage_error(self, run_cli, argv):
        res = run_cli(argv)
        assert res.code == 2
        assert "eps1" in res.err and "Traceback" not in res.err

    @pytest.mark.parametrize("argv, flag", [
        (["predict", "--c0", "4", "--eps1", "0", "--eps2", "0.3"], "eps1"),
        (["predict", "--c0", "4", "--eps1", "0.1", "--eps2", "1.5"], "eps2"),
        (["simulate", "--c0", "4", "--eps1", "0", "--eps2", "0.3", "--trials", "1"], "eps1"),
        (["generate", "--users", "3", "--c0", "4", "--eps1", "0.1", "--eps2", "1.5",
          "--out", "unused.bin"], "eps2"),
        (["search", "--c0", "4", "--iterations", "10"], "--eps2 or --ratio"),
        (["predict", "--c0", "2", "--cutoff", "1e-300", "--eps1", "0.1",
          "--eps2", "0.3"], "--cutoff"),
        (["generate", "--users", "1", "--length", str(10 ** 30), "--cutoff", "0.01",
          "--out", "unused.bin"], "budget"),
        (["simulate", "--c0", "4", "--eps1", "0.1", "--eps2", "0.3", "--trials", "1",
          "--length", "100", "--threshold", "3", "--bins", str(10 ** 30)], "bins"),
        (["generate", "--users", "5", "--c0", "4", "--eps1", "0.01", "--eps2", "0.1",
          "--threshold", "99", "--out", "unused.bin"], "--length"),
        (["generate", "--users", "1", "--c0", "2000", "--eps1", "1e-10", "--eps2", "0.1",
          "--out", "unused.bin"], "64-bit biases"),
        (["predict", "--c0", "4", "--coalition", str(10 ** 12), "--eps1", "0.1",
          "--eps2", "0.3"], "coalition size"),
        (["predict", "--c0", str(10 ** 30), "--eps1", "0.1", "--eps2", "0.3"],
         "coalition size"),
        (["simulate", "--c0", str(10 ** 30), "--eps1", "0.1", "--eps2", "0.3",
          "--trials", "1"], "coalition size"),
        (["predict", "--c0", "100", "--cutoff", "0.01", "--eps1", ".1", "--eps2", ".3"],
         "--cutoff"),
        (["simulate", "--c0", "4", "--cutoff", "0.2", "--eps1", ".1", "--eps2", ".3",
          "--trials", "1"], "--cutoff"),
        (["generate", "--users", "3", "--c0", "4", "--cutoff", "0.2", "--eps1", ".1",
          "--eps2", ".3", "--out", "unused.bin"], "--cutoff"),
        (["predict", "--c0", str(2 ** 64), "--coalition", "40", "--eps1", ".1",
          "--eps2", ".3", "--cutoff", "0.01"], "--cutoff"),
        (["predict", "--c0", str(10 ** 400), "--eps1", ".1", "--eps2", ".3"], "--c0"),
        (["simulate", "--c0", str(10 ** 400), "--eps1", ".1", "--eps2", ".3",
          "--trials", "1"], "--c0"),
        (["generate", "--users", "3", "--length", "10", "--c0", str(10 ** 400),
          "--out", "unused.bin"], "--c0"),
        (["search", "--c0", str(10 ** 400), "--ratio", "0.1", "--iterations", "10"], "--c0"),
        (["predict", "--c0", str(10 ** 154), "--coalition", "5", "--eps1", ".1",
          "--eps2", ".3"], "c0 is too large"),
        (["simulate", "--c0", str(10 ** 153), "--coalition", "5", "--eps1", ".1",
          "--eps2", ".3", "--trials", "1"], "budget"),
        (["table", "--c0-list", f"3,{10 ** 400}", "--ratio-list", ".1", "--iterations", "10"],
         "--c0-list"),
        (["predict", "--c0", "4", "--eps1", ".1", "--eps2", ".3", "--length", str(10 ** 400)],
         "--length"),
        # eps1^R rounds to 1 or falls to 0: the message names the ratio, not eps2.
        (["search", "--c0", "4", "--iterations", "10", "--ratio", "inf"], "ratio R"),
        (["search", "--c0", "4", "--iterations", "10", "--ratio", "1e-320"], "ratio R"),
        (["table", "--c0-list", "4", "--ratio-list", "1e-300", "--iterations", "10"],
         "ratio R"),
        # Within the bit budget, but 10^9 scores would take 8 GB.
        (["simulate", "--c0", "2", "--eps1", ".1", "--eps2", ".3", "--length", "100",
          "--threshold", "5", "--trials", str(10 ** 6), "--innocents", "1000"],
         "score byte budget"),
    ])
    def test_bad_planner_input_names_the_flag(self, run_cli, tmp_path, argv, flag):
        out = tmp_path / "unused.bin"
        res = run_cli([str(out) if a == "unused.bin" else a for a in argv])
        assert res.code == 2
        assert flag in res.err
        assert "Traceback" not in res.err and "erfc_inv" not in res.err
        assert not out.exists()

    @pytest.mark.parametrize("cutoff", [[], ["--cutoff", "0.01"]])
    def test_cutoff_too_small_for_any_cutoff_is_usage_error(self, run_cli, cutoff):
        # tau = c0 * t must stay below 1/2, so at c0 = 2^64 every valid cutoff
        # is too small for the integrals: the hint must not stop at --cutoff.
        res = run_cli(["predict", "--c0", str(2 ** 64), "--coalition", "40",
                       "--eps1", ".1", "--eps2", ".3"] + cutoff)
        assert res.code == 2
        assert "Traceback" not in res.err
        if not cutoff:
            assert "1/(2*c0) = 2.71e-20" in res.err and "--c0" in res.err

    @pytest.mark.parametrize("argv, line", [
        (["search", "--c0", "4", "--eps1", "0", "--ratio", "0.1", "--iterations", "10"],
         "error: usage: --eps1: eps1 must lie in (0, 1)"),
        (["table", "--c0-list", f"3,{10 ** 400}", "--ratio-list", ".1", "--iterations", "10"],
         "error: usage: --c0-list: c0 must be an integer in [1, 1.34e+154]"),
        (["table", "--c0-list", "3", "--ratio-list", ".1,-1", "--iterations", "10"],
         "error: usage: --ratio-list: ratio R = ln(eps2)/ln(eps1) = -1.0 must be positive"),
        (["search", "--c0", "3", "--ratio", "-1", "--iterations", "10"],
         "error: usage: --ratio: ratio R"),
        (["predict", "--c0", "4", "--eps1", ".1", "--eps2", ".3", "--coalition", "5"],
         "error: usage: --coalition: coalition size 5 exceeds c0 = 4"),
        (["predict", "--c0", str(10 ** 30), "--eps1", ".1", "--eps2", ".3"],
         "error: usage: --c0: coalition size c must be an integer in [1, 1000000]"),
        (["simulate", "--c0", "4", "--eps1", ".1", "--eps2", ".3", "--trials", "1",
          "--cutoff", "0.2"], "error: usage: --cutoff: tau = c0 * t must stay below 1/2"),
        (["simulate", "--c0", "4", "--eps1", ".1", "--eps2", ".3", "--trials", "1",
          "--length", "10", "--threshold", "nan"], "error: usage: --threshold: Z must not be NaN"),
        (["predict", "--c0", "2", "--eps1", ".1", "--eps2", ".3", "--strategy", "bogus"],
         "error: usage: --strategy: unknown strategy kind 'bogus'"),
    ])
    def test_usage_error_names_the_flag_before_the_library_message(self, run_cli, argv, line):
        res = run_cli(argv)
        assert res.code == 2
        assert line in res.err

    @pytest.mark.parametrize("argv, flag", [
        (["--users", "0,99"], "--users"),
        (["--users", "0,1,1"], "--users"),
        (["--users", "0,1,2", "--psi-csv", "PSI"], "--users"),  # a table for c = 2
        (["--users", "0,1", "--strategy", "bogus"], "--strategy"),
    ])
    def test_attack_usage_error_names_the_flag(self, codebook_path, tmp_path, run_cli, argv,
                                               flag):
        psi = tmp_path / "psi.csv"
        psi.write_text("0,0\n1,0.5\n2,1\n")
        res = run_cli(["attack", "--codebook", str(codebook_path), "--out", str(tmp_path / "y")]
                      + [str(psi) if a == "PSI" else a for a in argv])
        assert res.code == 2
        assert f"error: usage: {flag}" in res.err

    @pytest.mark.parametrize("text", ["0,0\n1,x\n", "0,0\n1\n", "0,0\n0,1\n", "x,psi\n",
                                      "0,0\n2,1\n", "0,0\n1,2\n"])
    def test_bad_psi_csv_names_the_flag(self, tmp_path, run_cli, text):
        psi = tmp_path / "psi.csv"
        psi.write_text(text)
        res = run_cli(["predict", "--c0", "1", "--eps1", "0.01", "--eps2", "0.25",
                       "--psi-csv", str(psi)])
        assert res.code == 2, res.err
        assert "error: usage: --psi-csv: psi" in res.err

    @pytest.mark.parametrize("pirate, line", [("0101", "--pirate: pirate copy length"),
                                              ("01x", "--pirate: pirate copy text"),
                                              ("", "--pirate: pirate copy text")])
    def test_trace_usage_error_names_the_flag(self, codebook_path, tmp_path, run_cli, pirate,
                                              line):
        path = tmp_path / "y.txt"
        path.write_text(pirate)
        res = run_cli(["trace", "--codebook", str(codebook_path), "--pirate", str(path)])
        assert res.code == 2
        assert f"error: usage: {line}" in res.err

    @pytest.mark.parametrize("command", [
        ["generate", "--users", "3", "--out", "unused.bin"],
        ["simulate", "--trials", "1"],
    ])
    def test_plan_of_length_0_names_the_rate_flags(self, run_cli, tmp_path, command):
        # Both targets above 1/2 need no code at all; the plan must not go on
        # to a length check that would blame --length, which was not given.
        out = tmp_path / "unused.bin"
        res = run_cli([str(out) if a == "unused.bin" else a for a in command]
                      + ["--c0", "4", "--eps1", "0.6", "--eps2", "0.7"])
        assert res.code == 2
        assert "--eps1 0.6 and --eps2 0.7" in res.err and "--length" not in res.err
        assert not out.exists()

    @pytest.mark.parametrize("seed, c0, ratio", [(7, 1, 0.3), (42, 1, 1.0), (7, 80, 0.01)])
    def test_search_cap_winner_exits_0(self, run_cli, seed, c0, ratio):
        res = run_cli(["--seed", str(seed), "search", "--c0", str(c0), "--ratio", str(ratio),
                       "--iterations", "13000"])
        assert res.code == 0, res.err

    def test_missing_codebook_is_io_error(self, run_cli):
        res = run_cli(["trace", "--codebook", "/nonexistent/cb.bin",
                       "--pirate", "/nonexistent/y.txt"])
        assert res.code == 4
        assert "i/o" in res.err

    def test_corrupt_codebook_is_io_error(self, codebook_path, tmp_path,
                                          run_cli):
        blob = bytearray(codebook_path.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        bad = tmp_path / "bad.bin"
        bad.write_bytes(bytes(blob))
        copy = tmp_path / "y.txt"
        copy.write_text("0" * 16)
        res = run_cli(["trace", "--codebook", str(bad), "--pirate", str(copy)])
        assert res.code == 4
        assert "checksum" in res.err

    @pytest.mark.parametrize("command", ["attack", "trace"])
    @pytest.mark.parametrize("line", ["n=8.5", "n=abc", "t=x", "eps1=2"])
    def test_bad_params_block_is_format_error(self, codebook_path, tmp_path, run_cli,
                                              command, line):
        # The params block is rewritten and the file re-checksummed, so only
        # the params are bad: a format error (exit 4), not a usage error or a
        # traceback. With one row bit flipped too it is a checksum error.
        blob = codebook_path.read_bytes()
        (size,) = struct.unpack_from("<I", blob, 16)  # after magic, version and seed
        key = line.split("=")[0]
        text = re.sub(rf"^{key}=.*$", line, blob[20:20 + size].decode(), flags=re.M)
        body = (blob[:16] + struct.pack("<I", len(text)) + text.encode()
                + blob[20 + size:-8])
        codebook_path.write_bytes(body + struct.pack("<Q", crc64(body)))
        pirate = tmp_path / "y.txt"
        pirate.write_text("0" * 16)
        argv = {"attack": ["attack", "--users", "0,1", "--out", str(tmp_path / "out.txt")],
                "trace": ["trace", "--pirate", str(pirate)]}[command]
        argv += ["--codebook", str(codebook_path)]
        res = run_cli(argv)
        assert res.code == 4 and "bad header" in res.err and "Traceback" not in res.err
        blob = bytearray(codebook_path.read_bytes())
        blob[-9] ^= 1  # a bit of the last row
        codebook_path.write_bytes(bytes(blob))
        res = run_cli(argv)
        assert res.code == 4 and "checksum" in res.err

    def test_infeasible_search_maps_to_exit_3(self, run_cli, monkeypatch):
        # The bundled search practically cannot fail (the admissibility
        # condition always holds for small enough alpha2), so the mapping is
        # exercised by stubbing it out.
        def explode(*a, **kw):
            raise InfeasibleError("no admissible draw", counts={"drawn": 0})

        monkeypatch.setattr(cli_module.bounds, "search_min_A", explode)
        res = run_cli(SEARCH_ARGS)
        assert res.code == 3
        assert "infeasible" in res.err


# ---------------------------------------------------------------------------
# Fuzz: random argv over every subcommand may only end in a documented exit.

# Each flag takes a valid value five times in six and otherwise an edge
# value: 0, -1, nan, inf, 1, 1.5, 1e-300, a word, or a huge integer. Sizes are
# bounded so that each example stays fast and small: users <= 20,
# iterations <= 2000, at most 4 table cells, trials <= 3, innocents <= 10,
# c0 <= 8 for generate and simulate and <= 40 for predict, coalition <= 40,
# explicit lengths <= 2000. Huge integers (2^64, 10^30) still go to users,
# lengths, trials, innocents, bins, threads, every c0 and every coalition,
# which must be rejected (or cost nothing) before anything is allocated; never
# to iterations, whose cost grows with the value. User indices also take 2^63,
# the first int beyond int64.
HUGE = [str(2 ** 64), str(10 ** 30)]
EDGES = ["0", "-1", "nan", "inf", "1", "1.5", "1e-300", "x"]


def _mix(valid, huge=True):
    edge = st.sampled_from(EDGES + (HUGE if huge else []))
    return st.sampled_from(range(6)).flatmap(lambda k: edge if k == 0 else valid)


def _size(hi, huge=True):
    return _mix(st.integers(1, hi).map(str), huge)


def _pick(*values):
    return _mix(st.sampled_from(values))


EPS = _pick("1e-300", "1e-3", "0.05", "0.3", "0.5", "0.999")
CUTOFF = _pick("1e-300", "1e-3", "0.01", "0.1")
THRESHOLD = _pick("-1", "0", "5", "40", "inf", "-inf")
RATIO = _pick("0.01", "0.3", "1", "1.5")


def _opt(flag, values):
    return st.one_of(st.just([]), values.map(lambda v: [flag, v]))


def _list(values, most):
    return _mix(st.lists(values, min_size=1, max_size=most).map(",".join))


@st.composite
def _argv(draw, files):
    out = str(files["dir"] / "out")
    common = (draw(_opt("--seed", _pick("0", "1", str(2 ** 64 - 1))))
              + draw(_opt("--threads", _size(4))))
    strategy = (draw(_opt("--strategy", _pick("extremal", "interleave", "majority", "")))
                + draw(st.sampled_from([[]] * 3 + [
                    ["--psi-csv", files[k]] for k in ("psi", "bad_psi", "missing")])))
    book = ["--codebook", draw(st.sampled_from(
        [files["book"], files["book"], files["corrupt"], files["missing"]]))]
    cmd = draw(st.sampled_from(["generate", "attack", "trace", "search", "table",
                                "predict", "simulate"]))
    if cmd == "generate":
        rest = (["--users", draw(_size(20))]
                + draw(_opt("--length", _size(2000)))
                + draw(_opt("--cutoff", CUTOFF))
                + draw(_opt("--threshold", THRESHOLD))
                + draw(_opt("--c0", _size(8)))
                + draw(_opt("--eps1", EPS)) + draw(_opt("--eps2", EPS))
                + ["--out", out])
    elif cmd == "attack":
        user = st.sampled_from(range(8)).flatmap(
            lambda k: st.just(str(2 ** 63)) if k == 0 else _size(21))
        rest = (book + ["--users", draw(_list(user, 4))] + strategy
                + ["--out", out])
    elif cmd == "trace":
        pirate = draw(st.sampled_from(
            [files["pirate"], files["pirate"], files["short_pirate"],
             files["bad_pirate"], files["missing"]]))
        rest = book + ["--pirate", pirate] + draw(_opt("-Z", THRESHOLD)) + ["--out", out]
    elif cmd == "search":
        rest = (["--c0", draw(_size(80)), "--iterations", draw(_size(2000, huge=False))]
                + draw(_opt("--eps1", EPS)) + draw(_opt("--eps2", EPS))
                + draw(_opt("--ratio", RATIO)))
    elif cmd == "table":
        rest = (["--c0-list", draw(_list(_size(80), 2)),
                 "--ratio-list", draw(_list(RATIO, 2)),
                 "--iterations", draw(_size(2000, huge=False))]
                + draw(_opt("--eps1", EPS)))
    elif cmd == "predict":
        rest = (["--c0", draw(_size(40)),
                 "--eps1", draw(EPS), "--eps2", draw(EPS)]
                + draw(_opt("--coalition", _size(40)))
                + draw(_opt("--cutoff", CUTOFF))
                + draw(_opt("--length", _size(2000))) + strategy)
    else:
        length, z = draw(_size(2000)), draw(THRESHOLD)
        rest = (["--c0", draw(_size(8)), "--trials", draw(_size(3)),
                 "--eps1", draw(EPS), "--eps2", draw(EPS)]
                + draw(_opt("--innocents", _size(10)))
                + draw(_opt("--coalition", _size(8)))
                + draw(_opt("--cutoff", CUTOFF))
                + draw(st.sampled_from([[], [], ["--length", length], ["--threshold", z],
                                        ["--length", length, "--threshold", z]]))
                + draw(_opt("--bins", _size(100))) + strategy)
    return common + [cmd] + rest


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli_fuzz")
    book = d / "book.bin"
    assert cli_module.main(["--seed", "3", "generate", "--users", "20", "--length", "200",
                            "--cutoff", "0.01", "--threshold", "5", "--c0", "4",
                            "--eps1", "0.05", "--eps2", "0.3", "--out", str(book)]) == 0
    blob = bytearray(book.read_bytes())
    blob[len(blob) // 2] ^= 0xFF
    texts = {"corrupt": bytes(blob), "pirate": b"01" * 100, "short_pirate": b"0101",
             "bad_pirate": b"01x", "psi": b"0,0\n1,0.5\n2,1\n", "bad_psi": b"0,nan\n1,2\n"}
    for name, data in texts.items():
        (d / name).write_bytes(data)
    files = {name: str(d / name) for name in [*texts, "missing"]}
    return {**files, "dir": d, "book": str(book)}


@st.composite
def _config(draw, files):
    """``--config FILE`` with a few keys valued like their flags, or nothing.

    Keys may name options of other subcommands, and of both options of an
    exclusive pair. Sizes are bounded as in :func:`_argv`.
    """
    values = {"seed": _pick("0", "1", str(2 ** 64 - 1)), "threads": _size(4),
              "verbose": _pick("0", "yes", "Off"), "users": _size(20), "length": _size(2000),
              "cutoff": CUTOFF, "threshold": THRESHOLD, "c0": _size(8), "eps1": EPS,
              "eps2": EPS, "ratio": RATIO, "coalition": _size(8), "innocents": _size(10),
              "bins": _size(100), "strategy": _pick("extremal", "interleave", "majority"),
              "psi_csv": st.sampled_from([files[k] for k in ("psi", "bad_psi", "missing")])}
    keys = draw(st.lists(st.sampled_from(sorted(values)), unique=True, max_size=4))
    if not keys:
        return []
    path = files["dir"] / "config"
    path.write_text("".join(f"{k}={draw(values[k])}\n" for k in keys))
    return ["--config", draw(st.sampled_from([str(path)] * 7 + [files["missing"]]))]


@functools.lru_cache(maxsize=None)
def _parsers():
    """The global parser and its subcommand parsers by name."""
    parser = cli_module.build_parser()
    return parser, parser.commands


def _options_of(argv):
    """The options (dest: table entry) of the global parser and of the subcommand of ``argv``."""
    parser, subs = _parsers()
    return {**parser.options, **subs[next(a for a in argv if a in subs)].options}


def _flags_of(argv):
    """The flags of the global parser and of the subcommand ``argv`` runs."""
    return {s for opt in _options_of(argv).values() for s in opt.action.option_strings}


class TestCliFuzz:
    @settings(max_examples=400, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_every_argv_ends_in_a_documented_exit(self, run_cli, fuzz_files, data):
        argv = data.draw(_config(fuzz_files), label="config") + data.draw(_argv(fuzz_files),
                                                                           label="argv")
        res = run_cli(argv)
        assert res.code in (0, 2, 3, 4), res.err
        assert "Traceback" not in res.err
        if res.code == 2:  # a usage error names a flag of its subcommand, or a budget
            line = [ln for ln in res.err.splitlines() if "error:" in ln][-1]
            assert (set(re.findall(r"--[a-z0-9-]+", line)) & _flags_of(argv)
                    or "budget" in line), line

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_argv_options_resolve_to_their_argv_values(self, run_cli, fuzz_files, monkeypatch,
                                                       data):
        # Whatever the config file says, an option given in argv is logged with
        # its argv value. The subcommands are stubbed out: only resolution runs.
        for name in ("generate", "attack", "trace", "search", "table", "predict", "simulate"):
            monkeypatch.setattr(cli_module, f"cmd_{name}", lambda args: 0)
        argv = data.draw(_config(fuzz_files), label="config") + data.draw(_argv(fuzz_files),
                                                                           label="argv")
        res = run_cli(argv)
        assert res.code in (0, 2, 4), res.err
        if res.code != 0:
            return
        line = next(ln for ln in res.err.splitlines() if "resolved config:" in ln) + " "
        by_flag = {s: (dest, opt.action) for dest, opt in _options_of(argv).items()
                   for s in opt.action.option_strings}
        given = {}
        for flag, text in zip(argv, argv[1:] + [None]):
            if flag in by_flag and flag != "--config":  # the log leaves the path out
                dest, action = by_flag[flag]
                given[dest] = True if action.const is True else (action.type or str)(text)
        for dest, value in given.items():
            assert f" {dest}={value} " in line, (dest, value, line)
