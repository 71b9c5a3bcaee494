"""Outside-in layer tracer for spinsym, used only by the benchmark.

The engine is not edited: after ``import spinsym.cli`` the tracer replaces
each traced function at every module binding that holds it (a name
imported with ``from .exact import rf_sum`` is a second binding of the
same function) and each traced method on its class.  Every call becomes a
span ``(name, start, end, parent)`` kept in memory; counts such as
``poly_mul`` term pairs are taken at the same boundary.  ``summary()``
reduces the spans to per-layer metrics, ``dump()`` writes them out, and
``unwrapped()`` proves that no binding still reaches an original.
"""

import functools
import sys
from array import array
from time import perf_counter

# (span name, defining module, attribute): functions, patched at every
# module binding that holds them.
FUNCTIONS = (
    ("exact.poly_mul", "spinsym.exact", "poly_mul"),
    ("exact.poly_divexact_diff", "spinsym.exact", "poly_divexact_diff"),
    ("exact.rf_sum", "spinsym.exact", "rf_sum"),
    ("operators.commutator", "spinsym.operators", "commutator"),
    ("operators.operator_sum", "spinsym.operators", "operator_sum"),
    ("operators.apply_operator", "spinsym.operators", "apply_operator"),
    ("models.hamiltonian", "spinsym.models", "hamiltonian"),
    ("models.generator_grid", "spinsym.models", "generator_grid"),
    ("checks.conservation", "spinsym.checks", "check_conservation"),
    ("checks.level_relations", "spinsym.checks", "check_level_relations"),
    ("checks.serre_halfloop", "spinsym.checks", "check_serre_halfloop"),
    ("checks.serre_yangian", "spinsym.checks", "check_serre_yangian"),
    ("checks.lambda_solver", "spinsym.checks", "check_lambda_solver"),
    ("checks.solve_lambda", "spinsym.checks", "solve_lambda"),
    ("checks.oracle", "spinsym.checks", "oracle_crosscheck"),
    ("cli.run", "spinsym.cli", "run"),
)

# (span name, defining module, class, method): patched on the class, so
# every instance and every dunder dispatch goes through the wrapper.
# ``RationalFunction.__rmul__`` calls ``self.__mul__`` and is counted there.
METHODS = (
    ("exact.rf_mul", "spinsym.exact", "RationalFunction", "__mul__"),
    ("exact.rf_derivative", "spinsym.exact", "RationalFunction", "derivative"),
    ("exact.rf_evaluate", "spinsym.exact", "RationalFunction", "evaluate"),
    ("operators.op_mul", "spinsym.operators", "Operator", "__mul__"),
    ("operators.substitute", "spinsym.operators", "Operator", "substitute"),
    ("operators.render", "spinsym.operators", "Operator", "render"),
)

SPAN_NAMES = tuple(t[0] for t in FUNCTIONS + METHODS)


def _poly_mul_pre(tracer, args):
    tracer.count("exact.poly_mul.term_pairs", len(args[0]) * len(args[1]))
    return args


def _rf_sum_pre(tracer, args):
    # rf_sum accepts any iterable; a list gives the item count and is
    # consumed the same way
    items = list(args[1])
    tracer.count("exact.rf_sum.items", len(items))
    return (args[0], items) + tuple(args[2:])


def _divexact_post(tracer, result):
    tracer.count("exact.poly_divexact_diff.hits", int(result is not None))


def _rf_sum_post(tracer, result):
    tracer.count("exact.rf_sum.zeros", int(result.is_zero))


def _commutator_post(tracer, result):
    tracer.count("operators.commutator.zeros", int(result.is_zero))
    peak = tracer.counters.get("operators.commutator.peak_terms", 0)
    if result.term_count > peak:
        tracer.counters["operators.commutator.peak_terms"] = result.term_count


HOOKS = {
    "exact.poly_mul": (_poly_mul_pre, None),
    "exact.rf_sum": (_rf_sum_pre, _rf_sum_post),
    "exact.poly_divexact_diff": (None, _divexact_post),
    "operators.commutator": (None, _commutator_post),
}


def _spinsym_modules():
    return [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "spinsym" or n.startswith("spinsym."))]


class Tracer:
    """Span recorder for one sample; install() once per process."""

    def __init__(self):
        # one entry per span, in call order; parent is a span position or -1
        self.names = array("b")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("i")
        self.counters = {}
        self.bindings = {}     # span name -> ["module.attr", ...] patched
        self._originals = {}   # id(original) -> span name
        self._stack = [-1]

    def count(self, key, amount):
        self.counters[key] = self.counters.get(key, 0) + amount

    def _wrap(self, name, fn):
        index = SPAN_NAMES.index(name)
        pre, post = HOOKS.get(name, (None, None))
        names_append, parents_append = self.names.append, self.parents.append
        starts_append, ends_append = self.starts.append, self.ends.append
        ends, stack = self.ends, self._stack
        stack_append, stack_pop = stack.append, stack.pop
        names = self.names
        clock = perf_counter

        def traced(*args, **kwargs):
            pos = len(names)
            names_append(index)
            parents_append(stack[-1])
            ends_append(0.0)
            stack_append(pos)
            starts_append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[pos] = clock()
                stack_pop()

        if pre is not None or post is not None:
            inner = traced
            tracer = self

            def traced(*args, **kwargs):
                if pre is not None:
                    args = pre(tracer, args)
                result = inner(*args, **kwargs)
                if post is not None:
                    post(tracer, result)
                return result

        return functools.update_wrapper(traced, fn)

    def install(self):
        modules = _spinsym_modules()
        for name, modname, attr in FUNCTIONS:
            original = getattr(sys.modules[modname], attr)
            wrapper = self._wrap(name, original)
            self._originals[id(original)] = name
            where = []
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        where.append(f"{module.__name__}.{key}")
            self.bindings[name] = where
        for name, modname, cls, attr in METHODS:
            klass = getattr(sys.modules[modname], cls)
            original = klass.__dict__[attr]
            setattr(klass, attr, self._wrap(name, original))
            self._originals[id(original)] = name
            self.bindings[name] = [f"{modname}.{cls}.{attr}"]

    def unwrapped(self):
        """Places in spinsym that still hold an original traced callable.

        Scans module globals, containers and classes defined at module
        level, and function defaults; an empty list means every call from
        the engine goes through a wrapper.
        """
        leaks = []

        def check(value, where):
            if id(value) in self._originals:
                leaks.append(where)

        for module in _spinsym_modules():
            for key, value in vars(module).items():
                where = f"{module.__name__}.{key}"
                check(value, where)
                if isinstance(value, dict):
                    for item in value.values():
                        check(item, where + "[...]")
                elif isinstance(value, (tuple, list, set, frozenset)):
                    for item in value:
                        check(item, where + "[...]")
                elif isinstance(value, type) and value.__module__ == module.__name__:
                    for attr, item in vars(value).items():
                        check(item, f"{where}.{attr}")
                if callable(value):
                    for item in (getattr(value, "__defaults__", None) or ()):
                        check(item, where + "(default)")
        return leaks

    def summary(self):
        """Per-layer metrics of this sample, keyed by metric name."""
        names, parents = self.names, self.parents
        durations = [e - s for s, e in zip(self.starts, self.ends)]
        children = [0.0] * len(durations)
        for parent, duration in zip(parents, durations):
            if parent >= 0:
                children[parent] += duration
        layers = [n.split(".", 1)[0] for n in SPAN_NAMES]
        calls = [0] * len(SPAN_NAMES)
        total = [0.0] * len(SPAN_NAMES)
        self_s = [0.0] * len(SPAN_NAMES)
        build_s = 0.0
        for pos, (index, duration) in enumerate(zip(names, durations)):
            calls[index] += 1
            self_s[index] += duration - children[pos]
            # total_s counts a span only when no caller has the same name,
            # build_s only when no caller is in the models layer
            same_name = same_layer = False
            up = parents[pos]
            while up >= 0:
                same_name = same_name or names[up] == index
                same_layer = same_layer or layers[names[up]] == layers[index]
                up = parents[up]
            if not same_name:
                total[index] += duration
            if layers[index] == "models" and not same_layer:
                build_s += duration
        out = {}
        for i, name in enumerate(SPAN_NAMES):
            out[f"{name}.calls"] = calls[i]
            out[f"{name}.total_s"] = total[i]
            out[f"{name}.self_s"] = self_s[i]
        for key in ("exact.poly_mul.term_pairs", "exact.rf_sum.items",
                    "exact.rf_sum.zeros", "exact.poly_divexact_diff.hits",
                    "operators.commutator.zeros",
                    "operators.commutator.peak_terms"):
            out[key] = self.counters.get(key, 0)
        out["models.build_s"] = build_s
        return out

    def dump(self, path, sample):
        """Write the spans as tab-separated lines, one span a line."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("sample\tspan\tname\tstart\tend\tparent\n")
            for pos, (index, start, end, parent) in enumerate(zip(
                    self.names, self.starts, self.ends, self.parents)):
                fh.write(f"{sample}\t{pos}\t{SPAN_NAMES[index]}\t{start!r}\t"
                         f"{end!r}\t{parent}\n")
