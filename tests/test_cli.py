import os
from pathlib import Path

import numpy as np
import pytest

from ldfeedback import cli
from ldfeedback.dispersion import from_text
from ldfeedback.errors import ConfigError

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
DATA_DIR = Path(__file__).resolve().parent / "data"

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
        config, _ = cli.build_experiment(values)
        assert np.array_equal(config.model.vmask, [[0.5, 0.5], [1.5, 1.5]])


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
        ("model = iid", "vmask = nan,1,1,1", "vmask"),
        ("model = iid", "vmask = inf,1,1,1", "vmask"),
    ], ids=["k-0", "nc-0", "snr-nan", "snr-inf", "snr-minus-inf", "vmask-nan", "vmask-inf"])
    def test_bad_value_exit_2(self, tmp_path, capsys, line, bad, message):
        text = SMALL_CFG.replace("trials = 20", "trials = 1")
        cfg = write(tmp_path, "exp.cfg", text.replace(line, bad))
        out = tmp_path / "x.csv"
        assert cli.main(["simulate", cfg, "-o", str(out)]) == 2
        assert message in capsys.readouterr().err
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
        dset = from_text(Path(out).read_text())
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
        dset = from_text(Path(out).read_text())
        assert dset.k == 2

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

    def test_unknown_suite_exit_2(self, capsys):
        assert cli.main(["verify", "nonsense"]) == 2

    def test_mutated_goc_fails_with_residual(self, capsys):
        assert cli.main(["verify", "goc", "--mutate"]) == 1
        out = capsys.readouterr().out
        assert "FAIL goc/rank-one-constraint" in out
        assert "metric=" in out


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

    def test_malformed_csv_exit_2(self, tmp_path, capsys):
        csv = write(tmp_path, "bad.csv", "wrong,header\n1,2\n")
        assert cli.main(["plot", csv, "-o", str(tmp_path / "x.svg")]) == 2

    def test_empty_body_exit_2(self, tmp_path):
        csv = write(tmp_path, "empty.csv", "snr_db,scheme,mi_bits_per_use,stderr,trials\n")
        assert cli.main(["plot", csv, "-o", str(tmp_path / "x.svg")]) == 2


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
        config, split = cli.build_experiment(values)
        config.validate()
        assert split["n1"] * split["n2"] == 2 ** split["b"]
