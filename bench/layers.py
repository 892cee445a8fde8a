"""Per-layer spans and problem-size counters for efcert, recorded from the
benchmark's own files.

Each layer function is wrapped wherever a caller looks it up: in the module
that defines it and in every efcert module that imported it by name (for
example ``forms`` binds ``construct`` and ``logmeasure`` binds
``eval_component``), or on the class for a method.  The wrapper records a
span; a layer's self time is its span minus the spans of the layers it
called.  Span stacks are kept per thread, so rows that ``measure_scan`` runs
in a thread pool are charged to the thread that ran them.

Problem sizes are read from the arguments and return values of the wrapped
calls, so they repeat exactly for a given op.
"""

from __future__ import annotations

import cProfile
import importlib
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from fractions import Fraction


def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else args[pos]


def _kernel(rec, args, kwargs, result):
    matrix = _arg(args, kwargs, 0, "matrix")
    rec.size("auxiliary.kernel_rows", len(matrix))
    rec.size("auxiliary.kernel_cols", len(matrix[0]) if matrix else 0)


def _construct(rec, args, kwargs, basis):
    rec.size("auxiliary.tau", basis.tau)
    rec.size("auxiliary.height_digits", len(str(basis.height)))


def _ladder(rec, args, kwargs, result):
    rec.size("forms.ladder_rows", _arg(args, kwargs, 2, "K"))


def _remainder(rec, args, kwargs, result):
    rec.size("auxiliary.remainder_cutoff", _arg(args, kwargs, 2, "cutoff"))


def _coefficients(rec, args, kwargs, result):
    rec.size("efunction.coefficients.max_order",
             _arg(args, kwargs, 1, "order"))


def _eval_component(rec, args, kwargs, result):
    width = Fraction(_arg(args, kwargs, 3, "target_width"))
    bits = width.denominator.bit_length() - width.numerator.bit_length()
    rec.size("evalcert.eval_component.bits", bits)


def _certified(rec, args, kwargs, cert):
    rec.add("forms.certified", int(cert.certified))


def _adaptive(rec, args, kwargs, cert):
    rec.size("forms.n_reached", cert.n)


def _log_bound(rec, args, kwargs, res):
    rec.add("logmeasure.forms_route_wins", int(res.path == "forms"))


# (module, attribute or Class.method, size hook, work unit).  A work unit is
# the span whose busy time parallel_efficiency counts: one scan row, or the
# whole adaptive loop of a ``bound`` op.
LAYERS = (
    ("algebra", "kernel_basis", _kernel, False),
    ("algebra", "det_exact", None, False),
    ("algebra", "cofactor", None, False),
    ("algebra", "RowBasis.offer", None, False),
    ("auxiliary", "construct", _construct, False),
    ("auxiliary", "remainder", _remainder, False),
    ("efunction", "DiffSystem.coefficients", _coefficients, False),
    ("efunction", "extract_params", None, False),
    ("efunction", "rescale", None, False),
    ("efunction", "augment_exp", None, False),
    ("evalcert", "eval_component", _eval_component, False),
    ("evalcert", "eval_exp", None, False),
    ("forms", "build_ladder", _ladder, False),
    ("forms", "evaluate_forms", None, False),
    ("forms", "certified_lower_bound", _certified, False),
    ("forms", "adaptive_bound", _adaptive, True),
    ("logmeasure", "log_lower_bound", _log_bound, True),
    ("logmeasure", "measure_scan", None, False),
    ("sysdesc", "parse_system", None, False),
    ("zeroestimate", "n0_for_system", None, False),
    ("cli", "main", None, False),
)
ROOT = "cli.main"
# Problem sizes the hooks record, each the largest value seen in an op.
SIZES = ("auxiliary.tau", "auxiliary.kernel_rows", "auxiliary.kernel_cols",
         "auxiliary.height_digits", "auxiliary.remainder_cutoff",
         "forms.ladder_rows", "forms.n_reached",
         "efunction.coefficients.max_order", "evalcert.eval_component.bits")


def _name(module: str, attr: str) -> str:
    """``algebra.RowBasis.offer`` keeps its class; the DiffSystem method is
    reported as ``efunction.coefficients``."""
    if attr == "DiffSystem.coefficients":
        return "efunction.coefficients"
    return f"{module}.{attr}"


NAMES = tuple(_name(module, attr) for module, attr, _, _ in LAYERS)


def targets():
    """(name, owner, attribute, function, hook, unit) for every layer the
    package still has; a layer it no longer has is skipped and reads 0."""
    for module, attr, hook, unit in LAYERS:
        owner = importlib.import_module(f"efcert.{module}")
        parts = attr.split(".")
        for part in parts[:-1]:
            owner = getattr(owner, part, None)
        fn = getattr(owner, "__dict__", {}).get(parts[-1])
        if callable(fn):
            yield _name(module, attr), owner, parts[-1], fn, hook, unit


@dataclass
class OpTrace:
    """What one traced op left behind."""

    self_ns: dict = field(default_factory=lambda: defaultdict(int))
    calls: dict = field(default_factory=lambda: defaultdict(int))
    sizes: dict = field(default_factory=dict)
    sums: dict = field(default_factory=lambda: defaultdict(int))
    busy_cpu_ns: int = 0
    root_child_ns: int = 0
    root_ns: int = 0
    hook_errors: int = 0


class Tracer:
    """Install with ``with Tracer() as tr:``; every call into a layer made
    while installed is recorded into ``tr.op`` until ``tr.take()``."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches = []
        self.op = OpTrace()

    # -- recording -----------------------------------------------------------

    def size(self, name, value):
        with self._lock:
            if value > self.op.sizes.get(name, -1):
                self.op.sizes[name] = value

    def add(self, name, value):
        with self._lock:
            self.op.sums[name] += value

    def take(self) -> OpTrace:
        with self._lock:
            op, self.op = self.op, OpTrace()
        return op

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
            self._local.units = 0
        return stack

    def _wrap(self, name, fn, hook, unit):
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            frame = [0]
            stack.append(frame)
            local = tracer._local
            outer_unit = unit and local.units == 0
            if unit:
                local.units += 1
            cpu0 = time.thread_time_ns() if outer_unit else 0
            t0 = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter_ns() - t0
                cpu = time.thread_time_ns() - cpu0 if outer_unit else 0
                if unit:
                    local.units -= 1
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                with tracer._lock:
                    op = tracer.op
                    op.self_ns[name] += dt - frame[0]
                    op.calls[name] += 1
                    op.busy_cpu_ns += cpu
                    if name == ROOT:
                        op.root_ns += dt
                        op.root_child_ns += frame[0]
            if hook is not None:
                try:
                    hook(tracer, args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError):
                    with tracer._lock:
                        tracer.op.hook_errors += 1
            return result

        return wrapper

    # -- installation --------------------------------------------------------

    def __enter__(self):
        modules = [m for k, m in sorted(sys.modules.items())
                   if k == "efcert" or k.startswith("efcert.")]
        for name, owner, key, fn, hook, unit in targets():
            wrapper = self._wrap(name, fn, hook, unit)
            if isinstance(owner, type):
                self._patch(owner, key, wrapper)
                continue
            for mod in modules:
                for k, v in list(vars(mod).items()):
                    if v is fn:
                        self._patch(mod, k, wrapper)
        return self

    def _patch(self, owner, key, value):
        self._patches.append((owner, key, owner.__dict__[key]))
        setattr(owner, key, value)

    def __exit__(self, *exc):
        for owner, key, value in reversed(self._patches):
            setattr(owner, key, value)
        self._patches.clear()
        return False


def profile_calls(run) -> dict:
    """Call counts of the layer functions during ``run()`` as cProfile sees
    them.  cProfile follows only the calling thread."""
    prof = cProfile.Profile()
    prof.enable()
    try:
        run()
    finally:
        prof.disable()
    prof.create_stats()
    counts = {}
    for name, _, _, fn, _, _ in targets():
        code = fn.__code__
        stat = prof.stats.get(
            (code.co_filename, code.co_firstlineno, code.co_name))
        counts[name] = stat[1] if stat else 0
    return counts
