"""Tests of the benchmark itself: tracer wrappers, output checks, a smoke pass.

    python3 -m pytest bench/tests -q
"""

import json
import time
from pathlib import Path

import pytest

from ldfeedback import channel, cli, codebook, infotheory, matkit, simengine, verify
from ldfeedback.errors import PreconditionError

import outcheck
import run
import trace_pass
from spantrace import Tracer, layer_metric
from workloads import BENCH_DIR, ROOT, Command, workloads

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
DEMO = Command(label="demo", kind="simulate", check="exact", base_seed=7,
               config=ROOT / "configs" / "demo.cfg")


def _bindings():
    """Every module-level binding the tracer may patch, by identity."""
    found = {}
    for mod in (channel, cli, codebook, infotheory, matkit, simengine, verify):
        found.update({(mod.__name__, k): v for k, v in vars(mod).items()})
    found.update({("SUITES", k): v for k, v in verify.SUITES.items()})
    for cls, attr in ((infotheory.MiEvaluator, "mi"), (infotheory.MiEvaluator, "mmse"),
                      (codebook.QuantizedCodebook, "__init__")):
        found[(cls.__name__, attr)] = vars(cls)[attr]
    return found


class TestWrapper:
    def test_returns_the_wrapped_value(self):
        tracer = Tracer()
        assert tracer.wrap(lambda x, y=1: x * y, "t.mul")(6, y=7) == 42
        assert tracer.names == ["t.mul"] and len(tracer.start) == 1
        assert tracer.end[0] >= tracer.start[0]

    def test_reraises_the_same_exception(self):
        tracer = Tracer()
        err = PreconditionError("bad input")

        def fail():
            raise err

        with pytest.raises(PreconditionError) as info:
            tracer.wrap(fail, "t.fail")()
        assert info.value is err
        assert tracer._open == [-1] and tracer.end[0] >= tracer.start[0]

    def test_installed_class_method_reraises_precondition_error(self):
        tracer = Tracer()
        tracer.install()
        try:
            ev = infotheory.MiEvaluator(infotheory.Constellation.bpsk())
            assert ev.mi(0.0) == pytest.approx(0.0, abs=1e-12)
            with pytest.raises(PreconditionError):
                ev.mmse(-1.0)
        finally:
            tracer.uninstall()
        assert tracer.names == ["infotheory.mi.bpsk", "infotheory.mmse.bpsk"]

    def test_patches_call_sites_and_uninstall_restores(self):
        before = _bindings()
        tracer = Tracer()
        tracer.install()
        try:
            for user, owner, name in ((simengine, channel, "sample"),
                                      (simengine, matkit, "hermitian_eig"),
                                      (codebook, matkit, "hermitian_eig"),
                                      (codebook, infotheory, "perfect_csi_mi"),
                                      (verify, infotheory, "block_mi")):
                assert getattr(user, name) is getattr(owner, name)
                assert getattr(user, name) is not before[(owner.__name__, name)]
            assert verify.SUITES["lemma1"] is verify.suite_lemma1
            assert verify.suite_lemma1 is not before[(verify.__name__, "suite_lemma1")]
            assert cli.main is before[(cli.__name__, "main")]
        finally:
            tracer.uninstall()
        after = _bindings()
        assert after.keys() == before.keys()
        assert all(after[k] is v for k, v in before.items())


def _first_value_digit_flipped(text, exponent):
    """text with the digit of weight 10**exponent in the first row's MI changed."""
    lines = text.splitlines(keepends=True)
    fields = lines[1].split(",")
    mi = fields[2]
    point = mi.index(".")
    pos = point - 1 - exponent if exponent >= 0 else point - exponent
    digit = "1" if mi[pos] != "1" else "2"
    fields[2] = mi[:pos] + digit + mi[pos + 1:]
    lines[1] = ",".join(fields)
    return "".join(lines)


class TestOutputCheck:
    def _command(self, label):
        return next(c for cmds in workloads().values() for c in cmds if c.label == label)

    def test_golden_outputs_pass(self):
        for label in ("gauss_iid2x2", "iid4x4_bpsk"):
            cmd = self._command(label)
            text = outcheck.golden_csv(label, cmd.base_seed).read_text()
            assert outcheck.check_output(cmd, cmd.base_seed, 0, text) == []

    def test_rejects_one_perturbed_digit_in_a_gaussian_csv(self):
        cmd = self._command("gauss_v4")
        text = outcheck.golden_csv(cmd.label, cmd.base_seed).read_text()
        bad = _first_value_digit_flipped(text, -11)
        assert bad != text
        assert outcheck.check_output(cmd, cmd.base_seed, 0, bad)

    def test_discrete_csv_tolerance(self):
        cmd = self._command("iid2x2_pam4")
        text = outcheck.golden_csv(cmd.label, cmd.base_seed).read_text()
        assert outcheck.check_output(cmd, cmd.base_seed, 0, _first_value_digit_flipped(text, -7))
        # a change below DISCRETE_TOL is accepted: only Gaussian CSVs are byte-exact
        assert outcheck.check_output(cmd, cmd.base_seed, 0, _first_value_digit_flipped(text, -11)) == []

    def test_layout_and_exit_code(self):
        cmd = self._command("iid4x4_bpsk")
        text = outcheck.golden_csv(cmd.label, cmd.base_seed).read_text()
        assert outcheck.check_output(cmd, cmd.base_seed, 1, text) == ["exit code 1"]
        assert outcheck.check_output(cmd, cmd.base_seed, 0, text.replace(",100\n", ",99\n"))
        assert outcheck.check_output(cmd, cmd.base_seed, 0, "\n".join(text.splitlines()[:-1]))

    def test_verify_names(self):
        cmd = self._command("verify-all")
        names = (BENCH_DIR / "golden" / outcheck.VERIFY_NAMES).read_text().split()
        text = "".join(f"PASS {n} metric=0.000e+00\n" for n in names)
        assert outcheck.check_output(cmd, cmd.base_seed, 0, text) == []
        assert outcheck.check_output(cmd, cmd.base_seed, 0, text.replace("PASS", "FAIL", 1))
        assert outcheck.check_output(cmd, cmd.base_seed, 0, text.split("\n", 1)[1])


def test_every_per_layer_metric_is_computed_and_has_a_target():
    targets = json.loads((BENCH_DIR / "layer_targets.json").read_text())
    assert [t["name"] for t in targets] == [m["name"] for m in SPEC["per_layer"]]
    empty = Tracer().layers()
    for m in SPEC["per_layer"]:
        if not m["name"].startswith("trace."):
            assert layer_metric(empty, m["name"]) == 0


def test_smoke_pass_on_demo_config(tmp_path):
    untraced, traced, tracer, problems, attempted, failed = trace_pass.traced_pass(
        [DEMO], 0, tmp_path)
    assert (problems, attempted, failed) == ([], 3, 0)
    assert untraced > 0 and traced > 0
    layers = tracer.layers()
    assert layers["simengine.draw_trials"]["elems"] == 50
    assert layers["infotheory.mi.gaussian"]["calls"] > 0
    stat = layers["simengine.scheme_block_mi.statistical"]
    assert stat["mi_calls"] > 0 and stat["mmse_calls"] > 0
    for entry in layers.values():
        assert -1e-6 <= entry["self_s"] <= entry["s"] + 1e-6
    assert 0 < tracer.top_level_s() <= traced
    spans = tmp_path / "spans.csv.gz"
    tracer.write(spans)
    assert spans.stat().st_size > 0

    result = run.Measurement()
    walls, max_rss = run.measure_passes([DEMO], 0, 0.0, tmp_path, time.perf_counter() + 120, result)
    assert len(walls) == run.MIN_PASSES and max_rss > 0
    assert (result.attempted, result.failed, result.problems) == (run.MIN_PASSES, 0, [])
    probe = run.measure_setup([DEMO], tmp_path, time.perf_counter() + 60, count=1)[0]
    assert probe["setup_s"] > 0 and Path(probe["module"]).is_relative_to(run.SRC)
