"""Spans and counters around the library's public functions, from outside.

``Tracer.install()`` replaces each traced function or method with a
wrapper that records a span (calls and self time: span time minus the time
covered by child spans) and, for a few of them, exact counts and maxima.
Module-level functions are replaced in every ``equicurve`` module that
imported them, so calls through ``from .poly import compose_matrix_many``
are seen too.  ``uninstall()`` puts the originals back.  Nothing under
``src/`` is edited.
"""
from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict

# layer -> (class name, or "" for module functions; attribute names).  A span
# is named "layer.function" or "layer.Class.method".
SPANS = {
    "cyclotomic": [
        ("CycNum", ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__",
                    "__mul__", "__rmul__", "inverse", "__truediv__",
                    "__rtruediv__", "__pow__", "__eq__", "reduced",
                    "embedded", "key_under")),
        ("", ("try_sqrt",)),
    ],
    "poly": [
        ("HPoly2", ("__init__", "__mul__", "__add__", "__sub__", "__neg__",
                    "scale", "__pow__", "eval", "compose_matrix", "divexact",
                    "gcd", "squarefree_decomp", "normalized",
                    "proportional_to", "dehomogenize", "__eq__")),
        ("UPoly", ("__init__", "__mul__", "__add__", "__sub__", "__neg__",
                   "__pow__", "divmod", "gcd", "xgcd", "squarefree_part",
                   "compose", "eval", "monic", "divexact", "__eq__")),
        ("URatFun", ("__init__", "__add__", "__sub__", "__rsub__", "__mul__",
                     "__truediv__", "__rtruediv__", "__pow__", "compose",
                     "eval", "__eq__")),
        ("MPoly", ("__init__", "__mul__", "__add__", "__sub__", "__rsub__",
                   "__neg__", "__pow__", "substitute", "__eq__")),
        ("", ("compose_matrix_many",)),
    ],
    "projline": [("", ("aut_of_lambda", "group_closure", "sl2_pullback",
                       "orbit_decompose", "minimal_generators",
                       "classify_group", "fixed_points"))],
    "equivariant": [("", ("act_on_pair", "reynolds_average",
                          "invariant_power", "combine_orbits",
                          "verify_selfmap_equivariance", "verify_fixed_locus",
                          "verify_locus_invariance", "build_orbit_data"))],
    "embed3": [("", ("assemble_embedding", "verify_embedding",
                     "standard_group", "preset_family", "build_embedding"))],
    "planar": [("", ("subalgebra_witness", "verify_extension",
                     "normalize_planar", "connect_planar"))],
    "linalg": [("", ("solve_linear",))],
    "plane": [("CurveAut", ("__init__",)), ("", ("decide_extendability",))],
    "parsing": [("", ("parse_constant", "parse_ratfun", "parse_upoly",
                      "parse_poly3", "parse_hpoly", "parse_point",
                      "parse_points", "parse_matrix2", "parse_poly3_triple",
                      "parse_ratfun_triple"))],
    "cli": [("", ("_render_text",))],
}

# span names whose calls are reported as counts; several spans may share one
CALL_COUNTS = {
    "cyclotomic.mul_calls": ("cyclotomic.CycNum.__mul__",
                             "cyclotomic.CycNum.__rmul__"),
    "cyclotomic.inverse_calls": ("cyclotomic.CycNum.inverse",),
    "cyclotomic.reduced_calls": ("cyclotomic.CycNum.reduced",),
    "poly.compose_matrix_many_calls": ("poly.compose_matrix_many",),
    "poly.hpoly_mul_calls": ("poly.HPoly2.__mul__",),
    "poly.gcd_calls": ("poly.HPoly2.gcd", "poly.UPoly.gcd"),
    "equivariant.act_on_pair_calls": ("equivariant.act_on_pair",),
    "planar.subalgebra_witness_calls": ("planar.subalgebra_witness",),
    "linalg.solve_linear_calls": ("linalg.solve_linear",),
}

# self-time metrics: metric name -> span names whose self time it sums
SELF_TIMES = {
    "cyclotomic.self_s": "cyclotomic.",
    "poly.self_s": "poly.",
    "parsing.self_s": "parsing.",
    "cli.render_s": "cli.",
}
for _name in ("aut_of_lambda", "group_closure", "sl2_pullback",
              "orbit_decompose"):
    SELF_TIMES[f"projline.{_name}.self_s"] = f"projline.{_name}"
for _name in ("reynolds_average", "invariant_power", "combine_orbits",
              "verify_selfmap_equivariance", "verify_fixed_locus"):
    SELF_TIMES[f"equivariant.{_name}.self_s"] = f"equivariant.{_name}"
for _name in ("assemble_embedding", "verify_embedding", "standard_group"):
    SELF_TIMES[f"embed3.{_name}.self_s"] = f"embed3.{_name}"
SELF_TIMES["planar.subalgebra_witness.self_s"] = "planar.subalgebra_witness"
SELF_TIMES["planar.verify_extension.self_s"] = "planar.verify_extension"
SELF_TIMES["linalg.solve_linear.self_s"] = "linalg.solve_linear"
SELF_TIMES["plane.CurveAut.self_s"] = "plane.CurveAut.__init__"
SELF_TIMES["plane.decide_extendability.self_s"] = "plane.decide_extendability"

# exact counters kept by the tracer; the maxima merge by max, the rest by sum
MAXIMA = ("cyclotomic.max_conductor", "poly.max_degree",
          "planar.witness_max_degree")
COUNTERS = MAXIMA + ("certificates.clauses_checked", "projline.candidates")


class Tracer:
    """Span stack, per-span calls and self time, exact counters and maxima."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self._stack: list[list] = []   # [name, time covered by children]
        self._patches: list[tuple] = []

    # -- recording ------------------------------------------------------------

    def _wrap(self, name, fn, post=None):
        stack, clock = self._stack, time.perf_counter
        calls, self_s = self.calls, self.self_s

        def traced(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                self_s[name] += dt - frame[1]
                calls[name] += 1
                if stack:
                    stack[-1][1] += dt
            if post is not None:
                post(out)
            return out

        traced.__wrapped__ = fn
        return traced

    def _maximum(self, key, value):
        if value > self.counts[key]:
            self.counts[key] = value

    # -- patching -------------------------------------------------------------

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        import equicurve  # noqa: F401
        from equicurve import certificates, cli, poly, projline  # noqa: F401
        from equicurve.cyclotomic import CycNum
        modules = {n: m for n, m in sys.modules.items() if m is not None
                   and (n == "equicurve" or n.startswith("equicurve."))}
        posts = self._posts(CycNum)
        for layer, targets in SPANS.items():
            module = modules[f"equicurve.{layer}"]
            for owner_name, attrs in targets:
                for attr in attrs:
                    if owner_name:
                        owner = getattr(module, owner_name)
                        name = f"{layer}.{owner_name}.{attr}"
                        self._set(owner, attr, self._wrap(
                            name, owner.__dict__[attr], posts.get(name)))
                        continue
                    name = f"{layer}.{attr}"
                    fn = getattr(module, attr)
                    wrapped = self._wrap(name, fn, posts.get(name))
                    # every module that imported the function by name
                    for mod in modules.values():
                        for key, val in list(vars(mod).items()):
                            if val is fn:
                                self._set(mod, key, wrapped)
        self._count_candidates(modules["equicurve.projline"].Moebius)
        self._count_clauses(modules["equicurve.certificates"].Certificate)
        self._wrap_json_render(modules["equicurve.cli"])
        return self

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _posts(self, CycNum):
        def conductor(v):
            if isinstance(v, CycNum):
                self._maximum("cyclotomic.max_conductor", v.m)

        def degree(p):
            self._maximum("poly.max_degree", p.degree)

        def found(h):
            self.counts["projline.found"] += len(h.elements)

        def witness(w):
            if w is not None:
                self._maximum("planar.witness_max_degree", w.total_degree())

        posts = {f"cyclotomic.CycNum.{m}": conductor
                 for m in ("__add__", "__radd__", "__sub__", "__mul__",
                           "__rmul__", "inverse", "__truediv__")}
        posts["poly.HPoly2.__mul__"] = degree
        posts["poly.UPoly.__mul__"] = degree
        posts["projline.aut_of_lambda"] = found
        posts["planar.subalgebra_witness"] = witness
        return posts

    def _count_candidates(self, Moebius):
        # a candidate is a Moebius map built directly by the stabilizer
        # search, not by the closure or classification it calls
        init, stack, counts = Moebius.__init__, self._stack, self.counts

        def counted(obj, *args):
            if stack and stack[-1][0] == "projline.aut_of_lambda":
                counts["projline.candidates"] += 1
            init(obj, *args)

        self._set(Moebius, "__init__", counted)

    def _count_clauses(self, Certificate):
        check, counts = Certificate.check, self.counts

        def counted(cert, *args, **kwargs):
            counts["certificates.clauses_checked"] += 1
            return check(cert, *args, **kwargs)

        self._set(Certificate, "check", counted)

    def _wrap_json_render(self, cli):
        # the CLI renders --format json through the json module it imported
        import json
        import types
        shim = types.SimpleNamespace(
            **{k: getattr(json, k) for k in ("dumps", "loads", "dump", "load")})
        shim.dumps = self._wrap("cli.json_dumps", json.dumps)
        self._set(cli, "json", shim)

    # -- results ----------------------------------------------------------------

    def snapshot(self) -> dict:
        """Plain data: exact counts and self times per span (mergeable)."""
        return {"calls": dict(self.calls), "self_s": dict(self.self_s),
                "counts": dict(self.counts)}


def merge(snapshots) -> dict:
    out = {"calls": Counter(), "self_s": defaultdict(float), "counts": Counter()}
    for snap in snapshots:
        out["calls"].update(snap["calls"])
        for k, v in snap["self_s"].items():
            out["self_s"][k] += v
        for k, v in snap["counts"].items():
            if k in MAXIMA:
                out["counts"][k] = max(out["counts"][k], v)
            else:
                out["counts"][k] += v
    return out


def layer_metrics(snap) -> dict:
    """The per-layer trace metrics of BENCHMARK.json, by name."""
    out = {}
    for metric, spans in CALL_COUNTS.items():
        out[metric] = sum(snap["calls"].get(s, 0) for s in spans)
    for metric, prefix in SELF_TIMES.items():
        exact = not prefix.endswith(".")
        out[metric] = sum(v for k, v in snap["self_s"].items()
                          if (k == prefix if exact else k.startswith(prefix)))
    counts = snap["counts"]
    for key in COUNTERS:
        out[key] = counts.get(key, 0)
    cand = counts.get("projline.candidates", 0)
    out["projline.hit_ratio"] = counts.get("projline.found", 0) / cand if cand else 0.0
    return out
