"""Span tracing of ldfeedback from outside the package, for the traced pass.

`Tracer.install` wraps every public function of the package's modules, plus
MiEvaluator.mi/mmse and QuantizedCodebook construction, so that each call
records one span: name, start, end, parent and an element count. Modules
import each other's functions with `from ... import`, so a wrapper replaces
the function under every module-level name bound to it, including values of
module-level dicts such as verify.SUITES. `uninstall` restores everything.

Spans live in flat arrays in memory and are written out once, at the end.
"""

import functools
import gzip
import importlib
import inspect
import time
from array import array

import numpy as np

MODULES = ("matkit", "channel", "dispersion", "infotheory", "codebook", "simengine", "verify", "cli")
STATISTICAL = "simengine.scheme_block_mi.statistical"
NEVER_ENTERED = {"calls": 0, "s": 0.0, "self_s": 0.0, "elems": 0}


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _kernel_namer(op):
    def namer(args, kwargs):
        a = _arg(args, kwargs, 1, "a")
        return f"infotheory.{op}.{args[0].constellation.kind}", int(getattr(a, "size", 1))
    return namer


def _scheme_namer(args, kwargs):
    scheme = _arg(args, kwargs, 1, "scheme")
    kind = "quantized" if isinstance(scheme, tuple) else scheme
    return f"simengine.scheme_block_mi.{kind}", 0


def _trials_namer(args, kwargs):
    return "simengine.draw_trials", int(_arg(args, kwargs, 1, "trials"))


# span name -> namer(args, kwargs) giving (name, elems) when one fixed name is not enough
NAMERS = {
    "simengine.scheme_block_mi": _scheme_namer,
    "simengine.draw_trials": _trials_namer,
}


def _is_entry_point(module, attr):
    """The command itself: the traced pass calls these, so they carry no span."""
    return module == "cli" and (attr in ("main", "build_parser") or attr.startswith("cmd_"))


class Tracer:
    """In-memory span recorder plus the patches that feed it."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("q")
        self.parent = array("q")
        self.elems = array("q")
        self.start = array("d")
        self.end = array("d")
        self._open = [-1]
        self._undo = []

    def begin(self, name, elems=0):
        idx = len(self.start)
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        self.name.append(nid)
        self.parent.append(self._open[-1])
        self.elems.append(elems)
        self.end.append(0.0)
        self._open.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def finish(self, idx):
        self.end[idx] = time.perf_counter()
        self._open.pop()

    def wrap(self, fn, name, namer=None):
        """fn, recording one span per call; namer(args, kwargs) -> (name, elems) overrides name."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.begin(name) if namer is None else self.begin(*namer(args, kwargs))
            try:
                return fn(*args, **kwargs)
            finally:
                self.finish(idx)

        return traced

    def _replace(self, container, key, value):
        self._undo.append((container.__setitem__, key, container[key]))
        container[key] = value

    def _replace_attr(self, owner, attr, value):
        self._undo.append((functools.partial(setattr, owner), attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self):
        if self._undo:
            raise RuntimeError("tracer already installed")
        mods = {short: importlib.import_module(f"ldfeedback.{short}") for short in MODULES}
        wrappers = {}
        for short, mod in mods.items():
            for attr, fn in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__ or _is_entry_point(short, attr)):
                    continue
                if short == "verify" and attr.startswith("suite_"):
                    name = f"verify.{attr[len('suite_'):]}"
                else:
                    name = f"{short}.{attr}"
                wrappers[fn] = self.wrap(fn, name, NAMERS.get(name))
        for mod in mods.values():
            ns = vars(mod)
            for attr, value in list(ns.items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._replace(ns, attr, wrappers[value])
                elif isinstance(value, dict) and not attr.startswith("__"):
                    for key, item in list(value.items()):
                        if inspect.isfunction(item) and item in wrappers:
                            self._replace(value, key, wrappers[item])
        evaluator = mods["infotheory"].MiEvaluator
        for op in ("mi", "mmse"):
            fn = vars(evaluator)[op]
            self._replace_attr(evaluator, op, self.wrap(fn, None, _kernel_namer(op)))
        cb = mods["codebook"].QuantizedCodebook
        self._replace_attr(cb, "__init__", self.wrap(vars(cb)["__init__"], "codebook.QuantizedCodebook"))

    def uninstall(self):
        while self._undo:
            restore, key, original = self._undo.pop()
            restore(key, original)

    def write(self, path):
        """All spans as gzipped CSV rows: id,parent,name,start_s,end_s,elems."""
        with gzip.open(path, "wt") as f:
            f.write("id,parent,name,start_s,end_s,elems\n")
            for i in range(len(self.start)):
                f.write(f"{i},{self.parent[i]},{self.names[self.name[i]]},"
                        f"{self.start[i]!r},{self.end[i]!r},{self.elems[i]}\n")

    def top_level_s(self):
        """Total duration of the spans that have no parent."""
        parent = np.array(self.parent, dtype=np.int64)
        return float((np.array(self.end) - np.array(self.start))[parent < 0].sum())

    def layers(self):
        """Per span name: calls, inclusive s, self_s, elems; plus kernel calls under the optimizer."""
        name = np.array(self.name, dtype=np.int64)
        parent = np.array(self.parent, dtype=np.int64)
        start = np.array(self.start)
        end = np.array(self.end)
        dur = end - start
        k = len(self.names)
        nested = parent >= 0
        self_s = dur - np.bincount(parent[nested], weights=dur[nested], minlength=dur.size)
        # a direct recursive call is already inside its caller's inclusive time
        outer = ~nested | (name[np.where(nested, parent, 0)] != name)
        calls = np.bincount(name, minlength=k)
        incl = np.bincount(name[outer], weights=dur[outer], minlength=k)
        selft = np.bincount(name, weights=self_s, minlength=k)
        elems = np.bincount(name, weights=np.array(self.elems, dtype=float), minlength=k)
        out = {n: {"calls": int(calls[i]), "s": float(incl[i]), "self_s": float(selft[i]),
                   "elems": int(elems[i])} for i, n in enumerate(self.names)}
        stat = out.setdefault(STATISTICAL, dict(NEVER_ENTERED))
        stat["mi_calls"] = stat["mmse_calls"] = 0
        if STATISTICAL in self._ids:
            is_mi = np.array([n.startswith("infotheory.mi.") for n in self.names])
            is_mmse = np.array([n.startswith("infotheory.mmse.") for n in self.names])
            # spans are appended as they open, so a span's descendants are the
            # contiguous run of later indices that opened before it ended
            for idx in np.flatnonzero(name == self._ids[STATISTICAL]):
                inside = name[idx + 1 : np.searchsorted(start, end[idx])]
                stat["mi_calls"] += int(is_mi[inside].sum())
                stat["mmse_calls"] += int(is_mmse[inside].sum())
        return out


def layer_metric(layers, metric):
    """Value of a per-layer metric `<span>.<stat>` from Tracer.layers(); 0 for spans never entered."""
    span, _, stat = metric.rpartition(".")
    entry = layers.get(span, NEVER_ENTERED)
    if stat in entry:
        return entry[stat]
    if stat == "ns_per_elem":
        return entry["s"] * 1e9 / entry["elems"] if entry["elems"] else 0.0
    if stat == "us_per_call":
        return entry["s"] * 1e6 / entry["calls"] if entry["calls"] else 0.0
    if stat == "us_per_trial":
        return entry["s"] * 1e6 / entry["elems"] if entry["elems"] else 0.0
    raise KeyError(f"unknown per-layer statistic {stat!r} in {metric!r}")
