import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from xml.etree import ElementTree

import numpy as np
import pytest

from ldfeedback import cli, infotheory, simengine, verify
from ldfeedback.dispersion import DispersionSet
from ldfeedback.errors import ConfigError
from ldfeedback.matkit import KEY_LIMIT

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
BENCH_DIR = Path(__file__).resolve().parent.parent / "bench"
DATA_DIR = Path(__file__).resolve().parent / "data"


def read_set(path):
    """The DispersionSet that construct wrote to path, its a+bi entries read back with complex()."""
    lines = Path(path).read_text().splitlines()
    nt, nc, k = (int(t) for t in lines[0].split())
    rows = [[complex(t[:-1] + "j") for t in line.split()] for line in lines[1:]]
    return DispersionSet(nt=nt, nc=nc, k=k, mats=np.reshape(rows, (k, nt, nc)))


SMALL_CFG = """
model = iid
nt = 2
nr = 2
nc = 2
k = 2
b = 2
n1 = 4
n2 = 1
snr_db = 0,10,20
trials = 20
seed = 5
constellation = gaussian
schemes = perfect,statistical,statistical-beamforming,quantized-rank1-best,quantized-rank2-best
rank_two_sets = 5
opt_samples = 500
"""
# the same five schemes on the 4x4 V4 channel, whose mask has zero entries
V4_CFG = SMALL_CFG.replace("model = iid\nnt = 2\nnr = 2\n", "model = v4\nnt = 4\nnr = 4\n")


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


class TestConfigParsing:
    def test_unknown_key_is_hard_error(self):
        with pytest.raises(ConfigError):
            cli.parse_config_text("trails = 100\n")

    def test_duplicate_key_is_hard_error(self):
        with pytest.raises(ConfigError):
            cli.parse_config_text("trials = 100\ntrials = 200\n")

    def test_comments_and_blanks_skipped(self):
        values = cli.parse_config_text("# a comment\n\ntrials = 9  # trailing\n")
        assert values == {"trials": "9"}

    def test_missing_required_key(self):
        with pytest.raises(ConfigError):
            cli.build_experiment({"nt": "2", "nr": "2", "nc": "2"})

    def test_empty_schemes_rejected(self):
        values = cli.parse_config_text(SMALL_CFG.replace(
            "schemes = perfect,statistical,statistical-beamforming,quantized-rank1-best,quantized-rank2-best",
            "schemes = ",
        ))
        with pytest.raises(ConfigError):
            cli.build_experiment(values)

    def test_unknown_scheme_rejected(self):
        values = cli.parse_config_text(SMALL_CFG.replace("perfect,", "perfct,"))
        with pytest.raises(ConfigError):
            cli.build_experiment(values)

    def test_vmask_literal(self):
        values = cli.parse_config_text(
            "nt = 2\nnr = 2\nnc = 2\nvmask = 0.5,0.5,1.5,1.5\nsnr_db = 0\ntrials = 1\n"
            "schemes = perfect\nseed = 1\n"
        )
        config = cli.build_experiment(values)
        assert np.array_equal(config.model.vmask, [[0.5, 0.5], [1.5, 1.5]])
        # the omitted optional keys take SimConfig's defaults
        assert (config.opt_samples, config.b, config.n1, config.n2, config.rank_two_sets) == (
            5000, 2, 4, 1, 50)


class TestSeedResolution:
    def test_flag_beats_config(self):
        assert cli.resolve_seed({"seed": "10"}, 99) == 99

    def test_config_beats_env(self, monkeypatch):
        monkeypatch.setenv(cli.SEED_ENV_VAR, "123")
        assert cli.resolve_seed({"seed": "10"}, None) == 10

    def test_env_default(self, monkeypatch):
        monkeypatch.setenv(cli.SEED_ENV_VAR, "123")
        assert cli.resolve_seed({}, None) == 123

    def test_builtin_default(self, monkeypatch):
        monkeypatch.delenv(cli.SEED_ENV_VAR, raising=False)
        assert cli.resolve_seed({}, None) == 1


# the smallest experiment that draws channels from its seed
TINY_CFG = "nt = 2\nnr = 2\nnc = 2\nsnr_db = 0\ntrials = 2\nschemes = perfect\n"
SEED_LABELS = {"flag": "--seed", "config": "key 'seed'", "env": cli.SEED_ENV_VAR}


@pytest.mark.parametrize("source", list(SEED_LABELS))
class TestSimulateSeedRange:
    """A seed outside [0, 2**64) would alias the seed it equals mod 2**64, so it exits 2."""

    def simulate(self, tmp_path, monkeypatch, source, seed):
        monkeypatch.delenv(cli.SEED_ENV_VAR, raising=False)
        text, args = TINY_CFG, []
        if source == "flag":
            args = ["--seed", str(seed)]
        elif source == "config":
            text += f"seed = {seed}\n"
        else:
            monkeypatch.setenv(cli.SEED_ENV_VAR, str(seed))
        out = tmp_path / "out.csv"
        return cli.main(["simulate", write(tmp_path, "exp.cfg", text), "-o", str(out), *args]), out

    @pytest.mark.parametrize("seed", [0, KEY_LIMIT - 1])
    def test_ends_of_range_run(self, tmp_path, monkeypatch, source, seed):
        code, out = self.simulate(tmp_path, monkeypatch, source, seed)
        assert code == 0 and out.exists()

    @pytest.mark.parametrize("seed", [-1, KEY_LIMIT, -KEY_LIMIT])
    def test_outside_range_exit_2(self, tmp_path, monkeypatch, capsys, source, seed):
        code, out = self.simulate(tmp_path, monkeypatch, source, seed)
        assert code == 2
        assert f"{SEED_LABELS[source]} must be in [0, 2**64), got {seed}" in capsys.readouterr().err
        assert not out.exists()


class TestSeedRangeOtherCommands:
    CONSTRUCT = ["construct", "--kind", "statistical", "--k", "2", "--nc", "8", "--nt", "4",
                 "--lambdas", "10,6,0,0"]

    @pytest.mark.parametrize("seed", [0, KEY_LIMIT - 1])
    def test_ends_of_range_run(self, tmp_path, capsys, seed):
        assert cli.main(["verify", "thm3", "--seed", str(seed)]) == 0
        assert cli.main([*self.CONSTRUCT, "--seed", str(seed), "-o", str(tmp_path / "set.txt")]) == 0

    @pytest.mark.parametrize("seed", [-1, KEY_LIMIT])
    def test_outside_range_exit_2(self, tmp_path, capsys, seed):
        out = tmp_path / "set.txt"
        assert cli.main(["verify", "thm3", "--seed", str(seed)]) == 2
        assert cli.main([*self.CONSTRUCT, "--seed", str(seed), "-o", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err.count(f"--seed must be in [0, 2**64), got {seed}") == 2
        assert captured.out == "" and not out.exists()


class TestSimulate:
    def test_csv_schema_and_content(self, tmp_path):
        cfg = write(tmp_path, "exp.cfg", SMALL_CFG)
        out = str(tmp_path / "out.csv")
        assert cli.main(["simulate", cfg, "-o", out]) == 0
        text = Path(out).read_text()
        lines = text.splitlines()
        assert lines[0] == "snr_db,scheme,mi_bits_per_use,stderr,trials"
        schemes = {ln.split(",")[1] for ln in lines[1:]}
        assert schemes == {
            "perfect", "statistical", "statistical-beamforming",
            "quantized-rank1-best", "quantized-rank2-best",
        }
        # rows sorted by scheme then snr
        keys = [(ln.split(",")[1], float(ln.split(",")[0])) for ln in lines[1:]]
        assert keys == sorted(keys)
        # every float parses and carries at most 12 significant digits
        for ln in lines[1:]:
            parts = ln.split(",")
            float(parts[0]); float(parts[2]); float(parts[3]); int(parts[4])
            assert len(parts[2].replace(".", "").replace("-", "").lstrip("0")) <= 13

    def test_single_trial_byte_identical(self, tmp_path):
        cfg = write(tmp_path, "exp.cfg", SMALL_CFG.replace("trials = 20", "trials = 1"))
        out1, out2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        assert cli.main(["simulate", cfg, "-o", out1]) == 0
        assert cli.main(["simulate", cfg, "-o", out2]) == 0
        assert Path(out1).read_bytes() == Path(out2).read_bytes()

    def test_invalid_config_exit_2(self, tmp_path, capsys):
        cfg = write(tmp_path, "exp.cfg", "bogus = 1\n")
        assert cli.main(["simulate", cfg, "-o", str(tmp_path / "x.csv")]) == 2
        assert "error" in capsys.readouterr().err

    def test_unwritable_output_exit_2(self, tmp_path):
        cfg = write(tmp_path, "exp.cfg", SMALL_CFG.replace("trials = 20", "trials = 1"))
        assert cli.main(["simulate", cfg, "-o", str(tmp_path / "no" / "dir.csv")]) == 2

    @pytest.mark.parametrize("samples", [0, 1])
    def test_too_few_optimizer_samples_exit_2(self, tmp_path, capsys, samples):
        text = SMALL_CFG.replace("schemes = perfect,statistical,statistical-beamforming,"
                                 "quantized-rank1-best,quantized-rank2-best", "schemes = statistical")
        cfg = write(tmp_path, "exp.cfg", text.replace("opt_samples = 500", f"opt_samples = {samples}"))
        out = tmp_path / "x.csv"
        assert cli.main(["simulate", cfg, "-o", str(out)]) == 2
        assert "opt_samples" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("line,bad,message", [
        ("k = 2", "k = 0", "K = 0"),
        ("nc = 2", "nc = 0", "Nc = 0"),
        ("snr_db = 0,10,20", "snr_db = 0,nan,20", "snr grid"),
        ("snr_db = 0,10,20", "snr_db = 0,10,inf", "snr grid"),
        ("snr_db = 0,10,20", "snr_db = -inf,0", "snr grid"),
        ("snr_db = 0,10,20", "snr_db = 0,4000", "snr_db = 4000.0 is outside"),
        ("snr_db = 0,10,20", "snr_db = 0,3080", "snr_db = 3080.0 is outside"),
        ("model = iid", "vmask = nan,1,1,1", "vmask"),
        ("model = iid", "vmask = inf,1,1,1", "vmask"),
        ("schemes = perfect,", "schemes = perfect,perfect,", "repeated scheme 'perfect'"),
        ("model = iid", "model = bogus\nvmask = 1,1,1,1", "not both"),
        ("model = iid\nnt = 2\nnr = 2", "vmask = 1,1,1,1\nnt = -2\nnr = -2", "antenna counts must be >= 1"),
        # 2^20000 has more digits than str() formats by default: the split check tests bits, never 2^B
        ("b = 2\n", "b = 20000\n", "n1 = 4, n2 = 1: n1*n2 must equal 2^B for B = 20000"),
    ], ids=["k-0", "nc-0", "snr-nan", "snr-inf", "snr-minus-inf", "snr-4000", "snr-3080", "vmask-nan",
            "vmask-inf", "repeated-scheme", "model-and-vmask", "vmask-negative-antennas", "b-20000"])
    def test_bad_value_exit_2(self, tmp_path, capsys, line, bad, message):
        text = SMALL_CFG.replace("trials = 20", "trials = 1")
        cfg = write(tmp_path, "exp.cfg", text.replace(line, bad))
        out = tmp_path / "x.csv"
        assert cli.main(["simulate", cfg, "-o", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("levels", [65, 100000])
    def test_pam_beyond_bound_exit_2(self, tmp_path, monkeypatch, capsys, levels):
        # the bound is checked before any table is built: building one would fail the test
        def no_quadrature(self, a):
            raise AssertionError("a table build started")

        monkeypatch.setattr(infotheory.MiEvaluator, "_quadrature", no_quadrature)
        text = SMALL_CFG.replace("trials = 20", "trials = 1")
        cfg = write(tmp_path, "exp.cfg", text.replace("constellation = gaussian", f"constellation = pam{levels}"))
        out = tmp_path / "x.csv"
        assert cli.main(["simulate", cfg, "-o", str(out)]) == 2
        assert f"PAM needs 2 to {infotheory.PAM_MAX_LEVELS} levels, got {levels}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("schemes", [
        "quantized-rank1-best", "quantized-rank2-best", "quantized-rank1-best,quantized-rank2-best",
    ])
    def test_quantized_only_schemes(self, tmp_path, schemes):
        text = SMALL_CFG.replace("schemes = perfect,statistical,statistical-beamforming,"
                                 "quantized-rank1-best,quantized-rank2-best", f"schemes = {schemes}")
        cfg = write(tmp_path, "exp.cfg", text)
        out = tmp_path / "x.csv"
        assert cli.main(["simulate", cfg, "-o", str(out)]) == 0
        rows = out.read_text().splitlines()[1:]
        assert {r.split(",")[1] for r in rows} == set(schemes.split(","))
        assert len(rows) == 3 * len(schemes.split(","))

    def test_demo_csv_pinned(self, tmp_path):
        # tests/data/demo.csv was written by an earlier revision: a Gaussian
        # simulate CSV depends only on the config and seed, byte for byte
        out = tmp_path / "demo.csv"
        assert cli.main(["simulate", str(CONFIG_DIR / "demo.cfg"), "-o", str(out)]) == 0
        assert out.read_bytes() == (DATA_DIR / "demo.csv").read_bytes()

    def test_v4_five_schemes_csv_pinned(self, tmp_path):
        # tests/data/v4_five_schemes.csv was written by an earlier revision;
        # it sends zero-variance mask entries through the optimizer sample
        cfg = write(tmp_path, "v4.cfg", V4_CFG)
        out = tmp_path / "v4.csv"
        assert cli.main(["simulate", cfg, "-o", str(out)]) == 0
        assert out.read_bytes() == (DATA_DIR / "v4_five_schemes.csv").read_bytes()

    @pytest.mark.parametrize("label", ["gauss_iid2x2", "gauss_iid4x4", "gauss_v4"])
    def test_bench_gaussian_golden(self, tmp_path, label):
        # the benchmark's 10 000-trial Gaussian goldens at each config's own
        # seed plus the offsets 0, 5 and 10: a reordered reduction in the
        # codebook scorer or the channel draw changes them where the small
        # pins above may not
        cfg = BENCH_DIR / "configs" / f"{label}.cfg"
        base = int(cli.parse_config_text(cfg.read_text())["seed"])
        out = tmp_path / f"{label}.csv"
        for seed in (base, base + 5, base + 10):
            assert cli.main(["simulate", str(cfg), "-o", str(out), "--seed", str(seed)]) == 0
            assert out.read_bytes() == (BENCH_DIR / "golden" / f"{label}.seed{seed}.csv").read_bytes()

    def test_seed_override_changes_output(self, tmp_path):
        cfg = write(tmp_path, "exp.cfg", SMALL_CFG.replace("trials = 20", "trials = 2"))
        out1, out2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        assert cli.main(["simulate", cfg, "-o", out1]) == 0
        assert cli.main(["simulate", cfg, "-o", out2, "--seed", "777"]) == 0
        assert Path(out1).read_bytes() != Path(out2).read_bytes()


class TestConstruct:
    def test_rank_one_writes_set_and_reports(self, tmp_path, capsys):
        out = str(tmp_path / "set.txt")
        code = cli.main(["construct", "--kind", "rank-one", "--k", "4", "--nc", "2",
                         "--nt", "2", "--mode", "0", "-o", out])
        assert code == 0
        captured = capsys.readouterr().out
        assert "goc_residual" in captured and "total_power" in captured
        dset = read_set(out)
        assert (dset.nt, dset.nc, dset.k) == (2, 2, 4)

    def test_infeasible_k_exit_3(self, tmp_path, capsys):
        code = cli.main(["construct", "--kind", "rank-one", "--k", "5", "--nc", "2",
                         "--nt", "2", "-o", str(tmp_path / "set.txt")])
        assert code == 3
        assert "2*Nc" in capsys.readouterr().err

    def test_statistical_infeasible_exit_3(self, tmp_path, capsys):
        # r = 2 modes, k = 3 -> r*k = 6 > nc = 4
        code = cli.main(["construct", "--kind", "statistical", "--k", "3", "--nc", "4",
                         "--nt", "4", "--lambdas", "2.6666666666666665,2.6666666666666665,0,0",
                         "-o", str(tmp_path / "set.txt")])
        assert code == 3
        assert "Nc" in capsys.readouterr().err

    def test_statistical_writes_set(self, tmp_path):
        out = str(tmp_path / "set.txt")
        code = cli.main(["construct", "--kind", "statistical", "--k", "2", "--nc", "8",
                         "--nt", "4", "--lambdas", "10,6,0,0", "-o", out, "--seed", "3"])
        assert code == 0
        dset = read_set(out)
        assert dset.k == 2

    @pytest.mark.parametrize("lambdas, message", [
        ("10,x,0,0", "--lambdas"),
        ("nan,16,0,0", "finite"),
    ], ids=["not-a-number", "nan"])
    def test_bad_lambdas_exit_2(self, tmp_path, capsys, lambdas, message):
        out = tmp_path / "set.txt"
        code = cli.main(["construct", "--kind", "statistical", "--k", "2", "--nc", "8",
                         "--nt", "4", "--lambdas", lambdas, "-o", str(out)])
        assert code == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("args, message", [
        (["--kind", "rank-one", "--k", "2", "--nt", "2", "--nc", "0"], "must both be >= 1"),
        (["--kind", "rank-one", "--k", "2", "--nt", "2", "--nc", "-1"], "must both be >= 1"),
        (["--kind", "statistical", "--k", "0", "--nc", "2", "--nt", "4", "--lambdas", "1,1,0,0"],
         "must both be >= 1"),
        (["--kind", "rank-one", "--k", "2", "--nc", "2", "--nt", "-1"], "out of range for nt = -1"),
    ], ids=["rank-one-nc-0", "rank-one-nc-minus-1", "statistical-k-0", "rank-one-nt-minus-1"])
    def test_bad_sizes_exit_2(self, tmp_path, capsys, args, message):
        out = tmp_path / "set.txt"
        assert cli.main(["construct", *args, "-o", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("name, args", [
        ("construct_rank_one", ["--kind", "rank-one", "--k", "4", "--nc", "2", "--nt", "2", "--mode", "0"]),
        ("construct_statistical", ["--kind", "statistical", "--k", "2", "--nc", "8", "--nt", "4",
                                   "--lambdas", "10,6,0,0"]),
    ])
    def test_readme_commands_pinned(self, tmp_path, capsys, name, args):
        # tests/data/<name>.txt and .stdout were written by an earlier revision
        out = tmp_path / "set.txt"
        assert cli.main(["construct", *args, "-o", str(out)]) == 0
        assert out.read_bytes() == (DATA_DIR / f"{name}.txt").read_bytes()
        assert capsys.readouterr().out == (DATA_DIR / f"{name}.stdout").read_text()

    def test_same_seed_same_artifact(self, tmp_path):
        args = ["construct", "--kind", "statistical", "--k", "2", "--nc", "8",
                "--nt", "4", "--lambdas", "10,6,0,0", "--seed", "11"]
        a, b = str(tmp_path / "a.txt"), str(tmp_path / "b.txt")
        assert cli.main(args + ["-o", a]) == 0
        assert cli.main(args + ["-o", b]) == 0
        assert Path(a).read_bytes() == Path(b).read_bytes()


class TestVerifyCommand:
    def test_single_suite_pass(self, capsys):
        assert cli.main(["verify", "prop3"]) == 0
        out = capsys.readouterr().out
        assert "PASS prop3/brute-force" in out

    def test_all_suites_pass(self, capsys):
        assert cli.main(["verify", "all"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        # one line per property, every registered suite represented
        from ldfeedback.verify import SUITES
        for name in SUITES:
            assert f" {name}/" in out

    @pytest.mark.parametrize("seed_args, pinned", [
        ([], "verify_all.txt"),
        (["--seed", "3"], "verify_all_seed3.txt"),
    ], ids=["default-seed", "seed-3"])
    def test_verify_all_pinned(self, capsys, seed_args, pinned):
        # both files were written by earlier revisions: the certificates'
        # metrics depend only on the seed, byte for byte
        assert cli.main(["verify", "all", *seed_args]) == 0
        assert capsys.readouterr().out == (DATA_DIR / pinned).read_text()

    @pytest.mark.parametrize("seed", [0, 1, 2, 4, 5])
    def test_metrics_pinned_at_full_precision(self, seed):
        # the text pins print 3 digits; these are each check's metric as repr
        pinned = json.loads((DATA_DIR / "verify_metrics.json").read_text())[str(seed)]
        results = verify.run_suites(list(verify.SUITES), seed=seed)
        assert {f"{r.suite}/{r.name}": repr(r.metric) for r in results} == pinned

    @pytest.mark.parametrize("window", [7, 10**6])
    def test_metrics_independent_of_window(self, monkeypatch, window):
        # the large suites draw and evaluate simengine.TRIAL_WINDOW channel
        # evaluations at a time; windows of 7 (a single channel for thm2, thm4
        # and goc's rank-one set) and one window for everything give the pins
        monkeypatch.setattr(simengine, "TRIAL_WINDOW", window)
        for seed in (0, 5):
            pinned = json.loads((DATA_DIR / "verify_metrics.json").read_text())[str(seed)]
            results = verify.run_suites(list(verify.SUITES), seed=seed)
            assert {f"{r.suite}/{r.name}": repr(r.metric) for r in results} == pinned

    def test_suites_draw_disjoint_streams(self, monkeypatch):
        # every channel window and one-off Rng of a suite lies in its own range of substreams,
        # apart from every other suite's and from simengine's STREAM_* ids; a suite may repeat
        # one of its own ranges, as goc draws its 100 channels once per dispersion set
        ranges = {name: set() for name in verify.SUITES}
        trial_windows, rng = verify.trial_windows, verify.Rng

        def windows(model, trials, seed, first_stream=0, evals_per_trial=1):
            ranges[suite].add((first_stream, first_stream + trials))
            return trial_windows(model, trials, seed, first_stream, evals_per_trial)

        def one_off(seed, stream=0):
            ranges[suite].add((stream, stream + 1))
            return rng(seed, stream)

        monkeypatch.setattr(verify, "trial_windows", windows)
        monkeypatch.setattr(verify, "Rng", one_off)
        for suite in verify.SUITES:
            verify.run_suites([suite])
        assert {name for name, found in ranges.items() if found} == set(verify.STREAM_SLOTS)
        ids = {(stream, stream + 1) for name, stream in vars(simengine).items() if name.startswith("STREAM_")}
        spans = sorted([(span, name) for name, found in ranges.items() for span in found]
                       + [(span, "simengine") for span in ids])
        assert [(a, b) for a, b in zip(spans, spans[1:]) if a[0][1] > b[0][0]] == []

    @pytest.mark.parametrize("seed", range(10))
    def test_every_suite_passes(self, seed):
        # the certificates hold at their tolerances away from the pinned seeds too
        assert [r.line() for r in verify.run_suites(list(verify.SUITES), seed=seed) if not r.passed] == []

    @pytest.mark.parametrize("name", list(verify.SUITES))
    def test_suite_memory_peak_bounded(self, name):
        # Bound set before measuring: each suite holds at most one window of its
        # realizations, so no suite's traced peak exceeds 2 MiB at the default
        # seed. The first call builds the process-wide kernel caches.
        verify.SUITES[name]()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            verify.SUITES[name]()
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 2 * 2**20

    def test_certify_keeps_nan(self):
        # a NaN margin in any window reaches the check's metric, which then fails its
        # `<= tolerance` test; a running max(worst, nan) would have kept the earlier value
        one = verify._certify("s", [(0, 1.0, None), (1, -2.0, None)], lambda h: h, ("c", 1.0, "d"))
        assert one == [verify.CheckResult("s", "c", True, 1.0, "d")]
        windows = [(0, (1.0, -3.0), None), (1, (np.nan, -2.0), None), (2, (0.5, -1.0), None)]
        nan, last = verify._certify("s", windows, lambda h: h, ("a", 0.0, ""), ("b", -1.0, "x"))
        assert np.isnan(nan.metric) and not nan.passed and nan.line() == "FAIL s/a metric=nan"
        assert last == verify.CheckResult("s", "b", True, -1.0, "x")

    def test_unknown_suite_exit_2(self, capsys):
        assert cli.main(["verify", "nonsense"]) == 2

    @pytest.mark.parametrize("suite", ["thm1", "eq10"])
    def test_mutate_rejected_outside_goc(self, capsys, suite):
        # a negative control the suite cannot run is a usage error, not a run of PASS lines
        assert cli.main(["verify", suite, "--mutate"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--mutate" in captured.err

    def test_mutated_goc_fails_with_residual(self, capsys):
        assert cli.main(["verify", "goc", "--mutate"]) == 1
        out = capsys.readouterr().out
        assert "FAIL goc/rank-one-constraint" in out
        assert "metric=" in out
        # tests/data/verify_goc_mutate.txt was written by an earlier revision
        assert out == (DATA_DIR / "verify_goc_mutate.txt").read_text()


class TestPlot:
    CSV = (
        "snr_db,scheme,mi_bits_per_use,stderr,trials\n"
        "0,alpha,1.0,0.01,10\n10,alpha,2.0,0.01,10\n20,alpha,3.0,0.01,10\n"
        "0,beta,0.5,0.01,10\n10,beta,1.5,0.01,10\n20,beta,2.5,0.01,10\n"
    )

    def test_two_schemes_two_polylines(self, tmp_path):
        csv = write(tmp_path, "c.csv", self.CSV)
        out = str(tmp_path / "c.svg")
        assert cli.main(["plot", csv, "-o", out]) == 0
        svg = Path(out).read_text()
        assert svg.count("<polyline") == 2
        assert "alpha" in svg and "beta" in svg

    def test_label_markup_escaped(self, tmp_path):
        # a label with markup characters is written as text, so the SVG parses
        csv = write(tmp_path, "c.csv", self.CSV.replace("beta", "a<b & c"))
        out = tmp_path / "m.svg"
        assert cli.main(["plot", csv, "-o", str(out)]) == 0
        texts = [el.text for el in ElementTree.parse(out).getroot().iter("{http://www.w3.org/2000/svg}text")]
        assert "a<b & c" in texts and "alpha" in texts

    def test_byte_identical(self, tmp_path):
        csv = write(tmp_path, "c.csv", self.CSV)
        a, b = str(tmp_path / "a.svg"), str(tmp_path / "b.svg")
        cli.main(["plot", csv, "-o", a])
        cli.main(["plot", csv, "-o", b])
        assert Path(a).read_bytes() == Path(b).read_bytes()

    def test_zoom_window_clips(self, tmp_path):
        csv = write(tmp_path, "c.csv", self.CSV)
        out = str(tmp_path / "z.svg")
        assert cli.main(["plot", csv, "-o", out, "--xmin", "5", "--xmax", "15"]) == 0
        svg = Path(out).read_text()
        # only the x = 10 points survive: one coordinate pair per polyline
        for line in svg.splitlines():
            if "<polyline" in line:
                coords = line.split('points="')[1].split('"')[0]
                assert len(coords.split()) == 1

    @pytest.mark.parametrize("flags", [["--ymin", "2.9"], ["--ymax", "0.6"], ["--ymin", "-1"], ["--ymax", "9"]],
                             ids=["ymin-inside", "ymax-inside", "ymin-below", "ymax-above"])
    def test_single_y_bound_that_keeps_data(self, tmp_path, flags):
        csv = write(tmp_path, "c.csv", self.CSV)
        assert cli.main(["plot", csv, "-o", str(tmp_path / "y.svg"), *flags]) == 0

    def test_malformed_csv_exit_2(self, tmp_path, capsys):
        csv = write(tmp_path, "bad.csv", "wrong,header\n1,2\n")
        assert cli.main(["plot", csv, "-o", str(tmp_path / "x.svg")]) == 2

    @pytest.mark.parametrize("csv_text, flags, message", [
        (CSV.replace("0,alpha,1.0", "0,alpha,nan"), [], "line 2: snr_db, mi_bits_per_use and stderr"),
        (CSV.replace("10,beta", "inf,beta"), [], "line 6: snr_db, mi_bits_per_use and stderr"),
        (CSV.replace("2.5,0.01", "2.5,-inf"), [], "line 7: snr_db, mi_bits_per_use and stderr"),
        (CSV, ["--ymin", "nan"], "--ymin must be finite"),
        (CSV, ["--xmax", "inf"], "--xmax must be finite"),
        (CSV, ["--xmin=-inf"], "--xmin must be finite"),
        (CSV, ["--ymax", "nan"], "--ymax must be finite"),
        (CSV, ["--ymin", "5", "--ymax", "1"], "--ymin 5 must be below --ymax 1"),
        (CSV, ["--ymin", "2", "--ymax", "2"], "--ymin 2 must be below --ymax 2"),
        (CSV, ["--xmin", "2", "--xmax", "0"], "--xmin 2 must be below --xmax 0"),
        (CSV, ["--ymin", "5"], "--ymin 5 must be below the largest y value 3"),
        (CSV, ["--ymin", "3"], "--ymin 3 must be below the largest y value 3"),
        (CSV, ["--ymax=-3"], "--ymax -3 must be above the smallest y value 0.5"),
        (CSV, ["--ymax", "0.5"], "--ymax 0.5 must be above the smallest y value 0.5"),
        (CSV, ["--xmax", "5", "--ymin", "1"], "--ymin 1 must be below the largest y value 1"),
    ], ids=["mi-nan", "snr-inf", "stderr-minus-inf", "ymin-nan", "xmax-inf", "xmin-minus-inf", "ymax-nan",
            "y-inverted", "y-empty", "x-inverted", "ymin-above-data", "ymin-at-data-max", "ymax-below-data",
            "ymax-at-data-min", "ymin-above-zoomed-data"])
    def test_non_finite_exit_2(self, tmp_path, capsys, csv_text, flags, message):
        csv = write(tmp_path, "c.csv", csv_text)
        out = tmp_path / "x.svg"
        assert cli.main(["plot", csv, "-o", str(out), *flags]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_empty_body_exit_2(self, tmp_path):
        csv = write(tmp_path, "empty.csv", "snr_db,scheme,mi_bits_per_use,stderr,trials\n")
        assert cli.main(["plot", csv, "-o", str(tmp_path / "x.svg")]) == 2


@pytest.mark.parametrize("command, text", [
    ("simulate", SMALL_CFG.replace("trials = 20", "trials = 1")),
    ("plot", TestPlot.CSV),
], ids=["simulate-config", "plot-csv"])
def test_non_utf8_input_exit_2_without_traceback(tmp_path, command, text):
    # byte 0xff never occurs in UTF-8; the command runs as a fresh process, so an
    # uncaught exception would show as a traceback on stderr and exit 1
    src = tmp_path / "input.txt"
    src.write_bytes(text.encode() + b"# \xff\n")
    out = tmp_path / "out"
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-m", "ldfeedback.cli", command, str(src), "-o", str(out)],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert f"error: cannot read {src}" in proc.stderr
    assert not out.exists()


def test_round_trip_demo_config(tmp_path):
    out_csv = str(tmp_path / "demo.csv")
    out_svg = str(tmp_path / "demo.svg")
    assert cli.main(["simulate", str(CONFIG_DIR / "demo.cfg"), "-o", out_csv]) == 0
    assert cli.main(["plot", out_csv, "-o", out_svg]) == 0
    assert Path(out_svg).read_text().startswith("<svg")


@pytest.mark.parametrize("name", ["iid4x4.cfg", "v4.cfg"])
def test_round_trip_full_size_configs(tmp_path, name):
    # the 2x2 full-size config is round-tripped by the acceptance suite
    out_csv = str(tmp_path / "run.csv")
    assert cli.main(["simulate", str(CONFIG_DIR / name), "-o", out_csv]) == 0
    assert cli.main(["plot", out_csv, "-o", str(tmp_path / "run.svg")]) == 0


def test_shipped_configs_parse():
    for name in ("iid2x2.cfg", "iid4x4.cfg", "v4.cfg", "demo.cfg"):
        values = cli.parse_config_text((CONFIG_DIR / name).read_text(), path=name)
        config = cli.build_experiment(values)
        config.validate()
        assert config.n1 * config.n2 == 2 ** config.b
