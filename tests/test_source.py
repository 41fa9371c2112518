"""Static checks on the package source."""

import ast
from pathlib import Path

import pytest

from ldfeedback.simengine import SCHEMES

SRC = Path(__file__).resolve().parent.parent / "src" / "ldfeedback"
# bench/tests/test_bench.py asserts that the span tracer patches these
# call-site bindings, so they stay bound although their modules never call them
KEPT_UNUSED = {("simengine", "sample"), ("simengine", "hermitian_eig"), ("codebook", "hermitian_eig")}


def unused_imports(source):
    """Names an import statement binds in source that nothing in it reads, sorted."""
    tree = ast.parse(source)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(bound - read)


def test_unused_imports_are_found():
    source = "import os\nimport numpy as np\nfrom .a import b, c\nnp.zeros(c)\n"
    assert unused_imports(source) == ["b", "os"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.stem)
def test_no_unused_imports(path):
    unused = [name for name in unused_imports(path.read_text()) if (path.stem, name) not in KEPT_UNUSED]
    assert unused == []


def out_parameters(source):
    """Sorted names of the functions in source, methods and lambdas included, that declare a parameter named out."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = node.args
            params = args.posonlyargs + args.args + args.kwonlyargs + [p for p in (args.vararg, args.kwarg) if p]
            if any(p.arg == "out" for p in params):
                found.add(getattr(node, "name", "<lambda>"))
    return sorted(found)


def test_out_parameters_are_found():
    source = ("def f(a, out=None):\n    pass\n\nclass C:\n    def m(self, *, out):\n        pass\n\n"
              "g = lambda x, out: x\n\ndef h(a, **out):\n    pass\n\n"
              "def fresh(a):\n    out = np.add(a, a, out=a)\n    return out\n")
    assert out_parameters(source) == ["<lambda>", "f", "h", "m"]


def test_no_out_parameters():
    # every kernel takes its arguments and returns a fresh array: no function
    # of the package writes into a caller's buffer
    found = {path.stem: out_parameters(path.read_text()) for path in SRC.glob("*.py")}
    assert {module: names for module, names in found.items() if names} == {}


def read_names(node):
    """Names node reads: loaded Names, Attribute names and names imported from a module."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            names.update(alias.name for alias in sub.names)
    return names


def unread_definitions(sources):
    """Sorted (module, name) of the public top-level functions and classes in {module: source}
    that no top-level statement but their own definition reads."""
    statements = [(module, stmt) for module, source in sources.items() for stmt in ast.parse(source).body]
    reads = [(stmt, read_names(stmt)) for _, stmt in statements]
    return sorted(
        (module, stmt.name) for module, stmt in statements
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) and not stmt.name.startswith("_")
        and not any(stmt.name in names for other, names in reads if other is not stmt)
    )


def test_unread_definitions_are_found():
    sources = {
        "a": "def imported():\n    pass\n\nclass Alive:\n    pass\n\ndef recursive(n):\n    return recursive(n - 1)\n\n"
             "def _private():\n    pass\n\nclass Dead:\n    pass\n\ndef dead():\n    pass\n",
        "b": "from .a import imported\nimport a\n\ndef main():\n    return a.Alive()\n\nmain()\n",
    }
    assert unread_definitions(sources) == [("a", "Dead"), ("a", "dead"), ("a", "recursive")]


def test_no_unread_definitions():
    assert unread_definitions({path.stem: path.read_text() for path in SRC.glob("*.py")}) == []


def name_reads(sources, name):
    """Sorted (module, top-level definition) of every read of name in {module: source}.

    A read is a loaded Name or an Attribute of that name, so a call and a
    reference passed on (to functools.partial, say) both count; a read
    outside any top-level definition is attributed to "<module>".
    """
    found = set()
    for module, source in sources.items():
        for stmt in ast.parse(source).body:
            owner = stmt.name if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) else "<module>"
            for sub in ast.walk(stmt):
                if (isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load) and sub.id == name
                        or isinstance(sub, ast.Attribute) and sub.attr == name):
                    found.add((module, owner))
    return sorted(found)


def src_sources():
    return {path.stem: path.read_text() for path in SRC.glob("*.py")}


def test_window_reads_are_found():
    sources = {
        "a": "TRIAL_WINDOW = 4\n\ndef windows():\n    return TRIAL_WINDOW\n\nSTEP = TRIAL_WINDOW\n",
        "b": "from . import a\n\ndef other():\n    return a.TRIAL_WINDOW\n",
    }
    assert name_reads(sources, "TRIAL_WINDOW") == [("a", "<module>"), ("a", "windows"), ("b", "other")]


def test_one_window_loop():
    # the trial window is read by trial_windows, the one loop that draws channels window by
    # window, and by draw_ind_column_powers, which draws its normals at once and only maps
    # them window by window: a second loop drawing TRIAL_WINDOW windows would have to keep
    # its own copy of the per-trial substream contract
    assert name_reads(src_sources(), "TRIAL_WINDOW") == [
        ("simengine", "draw_ind_column_powers"), ("simengine", "trial_windows")]


def test_draw_reads_are_found():
    source = ("from .simengine import draw_trials\n\ndef windows(n):\n    yield draw_trials(n)\n\n"
              "def whole(n):\n    return simengine.draw_trials(n, first_stream=0)\n")
    assert name_reads({"a": source}, "draw_trials") == [("a", "whole"), ("a", "windows")]


def test_one_draw_path():
    # channels are drawn by trial_windows alone, so every draw is windowed and
    # keeps the window's substream contract
    assert name_reads(src_sources(), "draw_trials") == [("simengine", "trial_windows")]


def test_stream_reads_are_found():
    source = ("from functools import partial\n\ndef _streams(seed):\n"
              "    return Rng(seed, 11), partial(trial_windows, seed=seed, first_stream=100)\n\n"
              "def suite(seed):\n    rng = Rng(seed, 21)\n    return trial_windows(None, 10, seed, 200)\n")
    assert name_reads({"verify": source}, "Rng") == [("verify", "_streams"), ("verify", "suite")]
    assert name_reads({"verify": source}, "trial_windows") == [("verify", "_streams"), ("verify", "suite")]


def test_one_stream_table():
    # every certificate takes its one-off Rng and its channel windows from
    # verify._streams, so every stream number is in verify.STREAM_SLOTS
    sources = {"verify": (SRC / "verify.py").read_text()}
    assert name_reads(sources, "Rng") == name_reads(sources, "trial_windows") == [("verify", "_streams")]


def test_one_verdict_rule():
    # every check's CheckResult is built by verify._certify, which folds its
    # violations with one np.max and passes it at or below its tolerance
    assert name_reads(src_sources(), "CheckResult") == [("verify", "_certify")]


def test_state_reads_are_found():
    source = ("def reseed(gen, words):\n    gen.bit_generator.state = words\n\n"
              "def raw(bitgen):\n    return bitgen.random_raw(4)\n\ndef keyed():\n"
              "    return {\"bit_generator\": \"Philox\", \"state\": 0}\n")
    assert name_reads({"a": source}, "state") == name_reads({"a": source}, "bit_generator") == [("a", "reseed")]
    assert name_reads({"a": source}, "random_raw") == [("a", "raw")]


def test_numpy_draws_only():
    # the package draws through numpy's Generator calls, which own how the bit
    # generator's words are consumed; only substream_normals re-keys a Philox
    # state, the counter-based shortcut for one fresh stream per row
    sources = src_sources()
    assert name_reads(sources, "random_raw") == name_reads(sources, "bit_generator") == []
    assert name_reads(sources, "state") == [("matkit", "substream_normals")]


LOOPS = (ast.For, ast.AsyncFor, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def looped_draws(source):
    """Sorted top-level owners (as top_level_owners names them) of every loop or comprehension in
    source that reads an attribute named gen, in its body, test or iterable."""
    return sorted({
        owner for owner, node in top_level_owners(ast.parse(source)) for loop in ast.walk(node)
        if isinstance(loop, LOOPS) and any(isinstance(sub, ast.Attribute) and sub.attr == "gen" for sub in ast.walk(loop))
    })


def test_looped_draws_are_found():
    source = ("def listed(rng):\n    return [rng.gen.random() for _ in range(3)]\n\n"
              "def looped(rng):\n    for i in range(3):\n        rng.gen.random()\n\n"
              "def waited(rng):\n    while rng.gen.random() < 0.5:\n        pass\n\n"
              "def whole(rng):\n    x = rng.gen.random(3)\n    return [v for v in x]\n")
    assert looped_draws(source) == ["listed", "looped", "waited"]


def test_no_looped_draws_in_verify():
    # a certificate draws each set of instances in whole-array calls, a window's at a time,
    # each instance's values one contiguous block: a loop of draws would tie its metrics to
    # the order of a per-instance stream
    assert looped_draws((SRC / "verify.py").read_text()) == []


def top_level_owners(tree):
    """(owner, node) of each top-level statement of tree: a definition's name, a method's
    Class.method, or "<module>"."""
    for stmt in tree.body:
        if isinstance(stmt, ast.ClassDef):
            for sub in stmt.body:
                yield (f"{stmt.name}.{sub.name}" if isinstance(sub, ast.FunctionDef) else stmt.name), sub
        else:
            yield (stmt.name if isinstance(stmt, ast.FunctionDef) else "<module>"), stmt


def string_sites(sources, values):
    """Sorted (module, owner) of every string constant in {module: source} equal to one of values."""
    return sorted({
        (module, owner) for module, source in sources.items() for owner, node in top_level_owners(ast.parse(source))
        if any(isinstance(sub, ast.Constant) and isinstance(sub.value, str) and sub.value in values
               for sub in ast.walk(node))
    })


def test_string_sites_are_found():
    source = ('LABELS = ("a", "b")\n\nclass Config:\n    size = "a"\n\n    def validate(self):\n'
              '        return "b" in self.x\n\n    def other(self):\n        return "ab"\n\n'
              'def run(s):\n    return f"{s} a" if s == "b" else None\n\ndef free():\n    return "a b"\n')
    assert string_sites({"m": source}, ("a", "b")) == [
        ("m", "<module>"), ("m", "Config"), ("m", "Config.validate"), ("m", "run")]


def test_one_scheme_dispatch():
    # a scheme label is dispatched by simengine.scheme_table alone, and
    # SimConfig.validate checks what the configured schemes need; the
    # "statistical" of cli.build_parser (construct --kind) and of
    # verify.suite_goc names a dispersion set, not a scheme
    assert string_sites(src_sources(), SCHEMES) == [
        ("cli", "build_parser"), ("simengine", "SimConfig.validate"), ("simengine", "scheme_table"),
        ("verify", "suite_goc"),
    ]


def test_one_scoring_loop():
    # the fits that pick power diagonals (the rank-one search, the rank-two tournament and
    # statistical-beamforming) score their candidates through simengine._codebook_means alone,
    # and _score_codebooks scores a fitted policy; _sample_mean_mi is the statistical optimizer's
    # objective only, so both sides of the headline comparison are scored by one loop
    sources = {"simengine": (SRC / "simengine.py").read_text()}
    for name in ("codeword_max", "trace_mi"):
        assert name_reads(sources, name) == [("simengine", "_codebook_means"), ("simengine", "_score_codebooks")]
    assert name_reads(sources, "_sample_mean_mi") == [("simengine", "optimize_lambda")]
