"""Outside-in tracer: spans around hermcalc's public functions.

Each traced name is a function object; install() swaps a wrapper in
wherever a loaded hermcalc module binds that object, so `from .x import f`
copies are traced too. functions.eval_derivative wraps the method on every
ScalarFunction subclass that defines it. A name that no longer exists is
reported as absent instead of failing the run.

Spans are kept in memory (name, start, end, parent, request id); self
time is a span's duration minus that of its children. Counts are taken
from the traced calls' results.
"""

import sys
from array import array
from functools import wraps
from math import comb
from time import perf_counter

import numpy as np

FUNCTIONS = (
    "linalg.eig",
    "linalg.op_norm",
    "divided.chain_tensor",
    "divided.function_dd",
    "functions.eval_derivative",
    "divided.contract_ordered",
    "divided.exp_dd_scaled",
    "spectral.function_derivative_fourier",
    "spectral.fourier_table",
    "expderiv.exp_derivative_mc",
    "spectral.function_derivative_dd",
    "spectral.apply_function",
    "bounds.probe_seminorm",
    "bounds.sobolev_bound",
    "cli.main",
)

CLI = FUNCTIONS.index("cli.main")

METHODS = {"functions.eval_derivative": ("ScalarFunction", "eval_derivative")}


def _chains(result):
    # result is the (d,)*(n+1) chain tensor; sorted chains are multisets
    d, k = result.shape[0], result.ndim
    return result.size, comb(d + k - 1, k)


# traced name -> (count names, function of the call's result giving them)
COUNTS = {
    "divided.chain_tensor": (("chains_total", "chains_unique"), _chains),
    "divided.exp_dd_scaled": (("z_evals",), lambda r: (np.size(r),)),
    "spectral.fourier_table": (("dft_macs",), lambda r: (len(r.s) * r.nt,)),
    "expderiv.exp_derivative_mc": (("samples",), lambda r: (r.samples,)),
    "bounds.probe_seminorm": (("evaluations",), lambda r: (r.samples_used,)),
}

COUNT_NAMES = [f"{label}.{key}" for label, (keys, _) in COUNTS.items() for key in keys]


class Tracer:
    def __init__(self, package="hermcalc"):
        self.package = package
        self.absent = []
        self.request = -1
        self._patches = []
        self._stack = []
        self.reset()

    def reset(self):
        self.name = array("i")
        self.parent = array("i")
        self.req = array("i")
        self.start = array("d")
        self.end = array("d")
        self.errors = [0] * len(FUNCTIONS)
        self.counts = {key: 0 for key in COUNT_NAMES}
        self.count_failures = set()

    def _wrap(self, fn, idx):
        label = FUNCTIONS[idx]
        keys, counter = COUNTS.get(label, ((), None))

        @wraps(fn)
        def traced(*args, **kwargs):
            i = len(self.start)
            self.name.append(idx)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.req.append(self.request)
            self.end.append(0.0)
            self._stack.append(i)
            self.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.errors[idx] += 1
                raise
            finally:
                self.end[i] = perf_counter()
                self._stack.pop()
            if counter is not None:
                try:
                    for key, value in zip(keys, counter(result)):
                        self.counts[f"{label}.{key}"] += int(value)
                except (AttributeError, IndexError, TypeError):
                    self.count_failures.add(label)
            return result

        return traced

    def _modules(self):
        return [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == self.package or name.startswith(self.package + "."))
        ]

    def install(self):
        modules = self._modules()
        self.absent = []
        for idx, label in enumerate(FUNCTIONS):
            modname, attr = label.split(".", 1)
            module = sys.modules.get(f"{self.package}.{modname}")
            if label in METHODS:
                base = getattr(module, METHODS[label][0], None)
                if not isinstance(base, type):
                    self.absent.append(label)
                    continue
                classes, todo = [], [base]
                while todo:
                    cls = todo.pop()
                    classes.append(cls)
                    todo.extend(cls.__subclasses__())
                for cls in classes:
                    if attr in cls.__dict__:
                        self._patch(cls, attr, cls.__dict__[attr], idx)
                continue
            fn = getattr(module, attr, None)
            if not callable(fn):
                self.absent.append(label)
                continue
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is fn:
                        self._patch(m, key, fn, idx)

    def _patch(self, owner, key, fn, idx):
        self._patches.append((owner, key, fn))
        setattr(owner, key, self._wrap(fn, idx))

    def uninstall(self):
        for owner, key, fn in reversed(self._patches):
            setattr(owner, key, fn)
        self._patches = []

    def summary(self, wall):
        """Per-function calls, self_s and errors, the counts, and the share
        of `wall` that layer spans cover: the outermost spans other than
        cli.main, so that argparse, file I/O and any layer the wrapping
        missed count as uncovered."""
        names = np.frombuffer(self.name, dtype=np.int32)
        parents = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        nested = parents >= 0
        parent_name = np.where(nested, names[parents], -1)
        layer = (names != CLI) & ((parent_name == -1) | (parent_name == CLI))
        child = np.bincount(parents[nested], weights=dur[nested], minlength=len(dur))
        self_time = dur - child[: len(dur)]
        calls = np.bincount(names, minlength=len(FUNCTIONS))
        self_s = np.bincount(names, weights=self_time, minlength=len(FUNCTIONS))
        out = {}
        for idx, label in enumerate(FUNCTIONS):
            out[f"{label}.calls"] = int(calls[idx])
            out[f"{label}.self_s"] = float(self_s[idx])
            out[f"{label}.errors"] = self.errors[idx]
        out.update(self.counts)
        out["trace.coverage"] = float(dur[layer].sum()) / wall
        return out
