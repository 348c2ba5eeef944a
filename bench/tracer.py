"""Span tracer that times calls into the package's layers from outside.

`Tracer.install()` rebinds every public layer function (one defined in
algebra, complexes, exactla, cohomology or moduli) in each module
namespace that binds it (cli, cohomology, moduli, complexes, algebra), and
`exactla.Mat.mul` on the class.  Calls made through those names record a
span: name, parent span, start and end.  `uninstall()` restores the
originals, so untraced passes run the package exactly as shipped.  Nothing
under src/ is changed.

Work on a path that bypasses every wrapped name lands in the self time of
its nearest wrapped caller, and in `cli.self_s` at the top, so a growing
`cli.self_s` points at an unwrapped path.
"""

import functools
import importlib
import inspect
import time

LAYER_MODULES = ("algebra", "complexes", "exactla", "cohomology", "moduli")
NAMESPACES = ("cli", "cohomology", "moduli", "complexes", "algebra")
BUILDERS = frozenset("complexes." + f for f in (
    "bar_complex", "reduced_bar_complex", "cibils_complex",
    "jn_periodic_complex"))
CASE_SPAN = "case"


def _matrix_info(args, result):
    m = args[0]
    return {"nnz": m.nnz(), "cells": m.rows * m.cols,
            "char": m.domain.characteristic}


def _complex_info(args, result):
    return {"coords": sum(result.ranks),
            "nnz": sum(d.nnz() for d in result.diffs)}


_INFO = {
    "exactla.rank": _matrix_info,
    "exactla.smith_normal_form": _matrix_info,
    "exactla.kernel_basis": _matrix_info,
    "exactla.solve": _matrix_info,
}
_INFO.update((b, _complex_info) for b in BUILDERS)


class Span:
    __slots__ = ("name", "parent", "start", "end", "info")

    def __init__(self, name, parent, start):
        self.name = name
        self.parent = parent
        self.start = start
        self.end = start
        self.info = None

    @property
    def dur(self):
        return self.end - self.start


class Tracer:
    """Collects spans in memory; one instance per worker process."""

    def __init__(self, package):
        self.package = package
        self.spans = []
        self._stack = []
        self._saved = []

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, fn, name):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        info = _INFO.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, stack[-1] if stack else -1, clock())
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if info is not None:
                span.info = info(args, result)
            return result
        return traced

    def install(self):
        pkg = self.package
        for ns_name in NAMESPACES:
            ns = importlib.import_module(pkg + "." + ns_name)
            for attr, obj in list(vars(ns).items()):
                layer = getattr(obj, "__module__", "") or ""
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and layer.startswith(pkg + ".")
                        and layer[len(pkg) + 1:] in LAYER_MODULES):
                    name = layer[len(pkg) + 1:] + "." + obj.__name__
                    self._saved.append((ns, attr, obj))
                    setattr(ns, attr, self._wrap(obj, name))
        mat = importlib.import_module(pkg + ".exactla").Mat
        self._saved.append((mat, "mul", mat.mul))
        mat.mul = self._wrap(mat.mul, "exactla.Mat.mul")

    def uninstall(self):
        while self._saved:
            target, attr, obj = self._saved.pop()
            setattr(target, attr, obj)

    # -- spans --------------------------------------------------------------

    def root(self, call, *args):
        """Run call(*args) inside a root span named `case`."""
        return self._wrap(call, CASE_SPAN)(*args)

    def reset(self):
        self.spans.clear()


def _child_time(spans):
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.dur
    return child


def _outermost(spans, i, names):
    """True when no ancestor of span i has a name in names."""
    p = spans[i].parent
    while p >= 0:
        if spans[p].name in names:
            return False
        p = spans[p].parent
    return True


def function_summary(spans):
    """{name: [calls, inclusive s, self s]}.

    Inclusive time counts a call nested in a call of the same name once.
    """
    child = _child_time(spans)
    out = {}
    for i, s in enumerate(spans):
        row = out.setdefault(s.name, [0, 0.0, 0.0])
        row[0] += 1
        if _outermost(spans, i, (s.name,)):
            row[1] += s.dur
        row[2] += s.dur - child[i]
    return out


def layer_metrics(spans):
    """The per-layer metrics of one traced pass (see bench/README.md)."""
    child = _child_time(spans)

    def incl(names):
        return sum(s.dur for i, s in enumerate(spans)
                   if s.name in names and _outermost(spans, i, names))

    def calls(names):
        return sum(1 for s in spans if s.name in names)

    def selfs(pred):
        return sum(s.dur - child[i] for i, s in enumerate(spans)
                   if pred(s.name))

    def infos(names):
        return [s.info for s in spans if s.name in names and s.info]

    ranks = [s for s in spans if s.name == "exactla.rank" and s.info]
    rank_q = [s for s in ranks if s.info["char"] == 0]
    rank_p = [s for s in ranks if s.info["char"] != 0]
    smith = infos({"exactla.smith_normal_form"})
    built = infos(BUILDERS)
    la = infos({"exactla.rank", "exactla.smith_normal_form",
                "exactla.kernel_basis", "exactla.solve"})
    return {
        "algebra.catalog_s": incl({"algebra.catalog"}),
        "algebra.quotient_bimodule_s": incl({"algebra.quotient_bimodule"}),
        "algebra.quotient_bimodule_calls":
            calls({"algebra.quotient_bimodule"}),
        "algebra.detect_splitting_s": incl({"algebra.detect_splitting"}),
        "complexes.build_s": incl(BUILDERS),
        "complexes.build_calls": calls(BUILDERS),
        "complexes.dd_check_s": sum(
            s.dur for s in spans if s.name == "exactla.Mat.mul"
            and s.parent >= 0 and spans[s.parent].name in BUILDERS),
        "complexes.cochain_coords": sum(i["coords"] for i in built),
        "complexes.diff_nnz": sum(i["nnz"] for i in built),
        "exactla.smith_s": incl({"exactla.smith_normal_form"}),
        "exactla.smith_calls": len(smith),
        "exactla.smith_nnz_in": sum(i["nnz"] for i in smith),
        "exactla.rank_q_s": sum(s.dur for s in rank_q),
        "exactla.rank_modp_s": sum(s.dur for s in rank_p),
        "exactla.rank_q_calls": len(rank_q),
        "exactla.rank_modp_calls": len(rank_p),
        "exactla.rank_nnz_in": sum(s.info["nnz"] for s in ranks),
        "exactla.kernel_s": incl({"exactla.kernel_basis"}),
        "exactla.solve_s": incl({"exactla.solve"}),
        "exactla.max_cells": max((i["cells"] for i in la), default=0),
        "cohomology.calls": calls({"cohomology.cohomology_of"}),
        "cohomology.self_s": selfs(
            lambda n: n == "cohomology.compute_cohomology"),
        "moduli.normalizer_s": incl({"moduli.normalizer"}),
        "moduli.derivation_s": incl({"moduli.derivation_space"}),
        "moduli.self_s": selfs(lambda n: n.startswith("moduli.")),
        "cli.self_s": selfs(lambda n: n == CASE_SPAN),
    }
