"""Per-layer tracing of the complen modules, from outside the package.

Only traced runs import this module. ``Tracer.install`` replaces every public
function of each layer module with a wrapper that records a span (name,
start, end, parent) per call, under the module attribute and under every name
another loaded complen module imported it as (``constructors.check_composition``
is ``checkers.check_composition``). Scalar operations, echelon inserts and
table products run millions of times, so their wrappers only count calls and
keep every n-th argument tuple for the per-op probes; timing them would cost
more than the work. ``uninstall`` puts every original object back, and
``leftovers`` reports any name that does not hold its original afterwards.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import sys
import time
from collections import Counter, defaultdict

# bound before install() replaces them, so the hooks below call the originals
from complen.length import count_subspaces, has_descending_certificate

LAYERS = ("fields", "linalg", "algebra", "constructors", "checkers", "length", "iofmt")

# (module, class, method, sample stride); a stride of 0 keeps no samples
COUNTED = (
    ("fields", "RationalField", "mul", 256),
    ("fields", "PrimeField", "mul", 256),
    ("fields", "ExtensionField", "mul", 256),
    ("fields", "RationalField", "add", 0),
    ("fields", "PrimeField", "add", 0),
    ("fields", "ExtensionField", "add", 0),
    ("fields", "RationalField", "inv", 0),
    ("fields", "PrimeField", "inv", 0),
    ("fields", "ExtensionField", "inv", 0),
    ("linalg", "Subspace", "insert", 16),
    ("linalg", "Subspace", "span", 0),
    ("algebra", "AlgebraTable", "multiply", 16),
)

MARK = "__perfbench_wrapped__"


def _mode_label(name, args, kwargs, result):
    mode = kwargs.get("mode", args[2] if len(args) > 2 else "general")
    return f"{name}[{mode}]"


def _lane_label(name, args, kwargs, result):
    a = args[0] if args else kwargs["a"]
    f = a.field
    # the lane test of length_of_algebra
    if f.cardinality() == 2 and has_descending_certificate(a):
        kind = "unital" if a.unit is not None else "nonunital"
        return f"{name}[gf2-{kind}]"
    kind = "ext" if f.cardinality() != f.characteristic() else "prime"
    return f"{name}[generic-{kind}]"


def _chain_hook(tracer, key, args, kwargs, result):
    tracer.extra["length.chain_levels"] += len(result.d)


def _census_hook(tracer, key, args, kwargs, result):
    a = args[0] if args else kwargs["a"]
    tracer.extra[f"{key}.covered"] += count_subspaces(a.field, a.dim, range(1, a.dim + 1))
    tracer.extra["length.enumerated"] += result.enumerated
    tracer.extra["length.generating"] += result.stats.get("generating", 0)


LABELS = {"length.lin_spans": _mode_label, "length.length_of_algebra": _lane_label}
HOOKS = {"length.lin_spans": _chain_hook, "length.length_of_algebra": _census_hook}


class Tracer:
    def __init__(self):
        self.spans = []  # (id, name, start, end, parent id; 0 at top level)
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.calls = Counter()
        self.extra = Counter()
        self._stack = []
        self._ids = itertools.count(1)
        self._counters = defaultdict(list)  # name -> [(count cell, samples)]
        self._patched = []  # (owner, attribute, original object)
        self._before = {}

    # --- wrappers -------------------------------------------------------------

    def _span(self, name, fn):
        stack, spans = self._stack, self.spans
        self_s, total_s, calls = self.self_s, self.total_s, self.calls
        ids, clock = self._ids, time.perf_counter
        label, hook = LABELS.get(name), HOOKS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1][0] if stack else 0
            frame = [sid, 0.0]
            stack.append(frame)
            result = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][1] += dur
                key = label(name, args, kwargs, result) if label and result is not None else name
                self_s[key] += dur - frame[1]
                total_s[key] += dur
                calls[key] += 1
                spans.append((sid, key, t0, t1, parent))
                if hook and result is not None:
                    hook(self, key, args, kwargs, result)

        setattr(wrapper, MARK, True)
        return wrapper

    def _counter(self, name, fn, stride):
        cell = [0]
        samples = []

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            cell[0] += 1
            if stride and cell[0] % stride == 1:
                samples.append(args)
            return fn(*args, **kwargs)

        self._counters[name].append((cell, samples))
        setattr(wrapper, MARK, True)
        return wrapper

    # --- install and remove ---------------------------------------------------

    def _patch(self, owner, attr, new):
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self):
        mods = {n: m for n, m in sys.modules.items() if n == "complen" or n.startswith("complen.")}
        self._before = {(n, k): v for n, m in mods.items() for k, v in vars(m).items()}
        aliases = defaultdict(list)
        for m in mods.values():
            for attr, obj in vars(m).items():
                if inspect.isfunction(obj):
                    aliases[id(obj)].append((m, attr))
        for layer in LAYERS:
            mod = mods[f"complen.{layer}"]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != mod.__name__:
                    continue
                name = f"{layer}.{attr}"
                if inspect.isgeneratorfunction(obj):
                    new = self._counter(name, obj, 0)
                else:
                    new = self._span(name, obj)
                for owner, alias in aliases[id(obj)]:
                    self._patch(owner, alias, new)
        for layer, cls_name, meth, stride in COUNTED:
            cls = getattr(mods[f"complen.{layer}"], cls_name)
            self._before[(cls, meth)] = cls.__dict__[meth]
            orig = cls.__dict__[meth]
            name = f"{layer}.{meth}"
            if isinstance(orig, staticmethod):
                new = staticmethod(self._counter(name, orig.__func__, stride))
            else:
                new = self._counter(name, orig, stride)
            self._patch(cls, meth, new)

    def uninstall(self):
        while self._patched:
            owner, attr, orig = self._patched.pop()
            setattr(owner, attr, orig)

    def leftovers(self) -> list:
        """Names that do not hold their pre-install object, or hold a wrapper."""
        bad = []
        for key, obj in self._before.items():
            owner, attr = key
            if isinstance(owner, str):
                now = vars(sys.modules[owner]).get(attr)
                label = f"{owner}.{attr}"
            else:
                now = owner.__dict__.get(attr)
                label = f"{owner.__name__}.{attr}"
            if now is not obj:
                bad.append(label)
        bad.extend(find_wrappers())
        return sorted(set(bad))

    # --- reading --------------------------------------------------------------

    def snapshot(self) -> dict:
        counts = Counter(self.calls)
        lengths = {}
        for name, wrappers in self._counters.items():
            counts[name] = sum(cell[0] for cell, _ in wrappers)
            lengths[name] = [len(samples) for _, samples in wrappers]
        return {
            "self_s": dict(self.self_s),
            "total_s": dict(self.total_s),
            "calls": counts,
            "extra": Counter(self.extra),
            "spans": len(self.spans),
            "sample_lengths": lengths,
        }

    def samples(self, name: str, snap: dict) -> list:
        """Argument tuples kept for `name` up to the snapshot."""
        cut = snap["sample_lengths"].get(name, [])
        return [
            args
            for (_, samples), n in zip(self._counters.get(name, []), cut)
            for args in samples[:n]
        ]


def find_wrappers() -> list:
    """Every complen module attribute or class method that is a wrapper."""
    found = []
    for n, m in list(sys.modules.items()):
        if n != "complen" and not n.startswith("complen."):
            continue
        for attr, obj in vars(m).items():
            if getattr(obj, MARK, False):
                found.append(f"{n}.{attr}")
            if inspect.isclass(obj) and obj.__module__ == n:
                for meth, val in vars(obj).items():
                    fn = val.__func__ if isinstance(val, staticmethod) else val
                    if getattr(fn, MARK, False):
                        found.append(f"{n}.{attr}.{meth}")
    return found


def self_time(snap: dict, *names: str) -> float:
    return sum(snap["self_s"].get(n, 0.0) for n in names)


def layer_metrics(snap: dict) -> dict:
    """The per-layer metrics the trace itself gives (no probes)."""
    calls, extra, total = snap["calls"], snap["extra"], snap["total_s"]
    s = functools.partial(self_time, snap)

    def rate(lane):
        key = f"length.length_of_algebra[{lane}]"
        t = total.get(key, 0.0)
        return extra[f"{key}.covered"] / t if t else 0.0

    enumerated = extra["length.enumerated"]
    return {
        "fields.mul_calls": calls["fields.mul"],
        "fields.add_calls": calls["fields.add"],
        "fields.inv_calls": calls["fields.inv"],
        "linalg.insert_calls": calls["linalg.insert"],
        "linalg.span_calls": calls["linalg.span"],
        "algebra.multiply_calls": calls["algebra.multiply"],
        "algebra.product_span_s": s("algebra.product_span"),
        "constructors.hurwitz_s": s(
            "constructors.make_base_algebra", "constructors.make_quadratic_etale",
            "constructors.cayley_dickson_double", "constructors.make_hurwitz_tower",
            "constructors.make_hurwitz",
        ),
        "constructors.twist_s": s("constructors.standard_twist", "constructors.make_para_hurwitz"),
        "constructors.okubo_s": s(
            "constructors.make_okubo_isotropic", "constructors.make_okubo_idempotent",
            "constructors.make_okubo",
        ),
        "constructors.pseudo_octonion_s": s("constructors.make_pseudo_octonion"),
        "checkers.composition_s": s("checkers.check_composition"),
        "checkers.polarized_s": s("checkers.check_polarized_identity"),
        "checkers.polarized_calls": calls["checkers.check_polarized_identity"],
        "checkers.descending_s": s("checkers.check_descending"),
        "checkers.recover_norm_s": s("checkers.recover_norm"),
        "checkers.acquire_s": s("checkers.acquire_descending_certificates"),
        "length.gf2_unital_subspaces_per_s": rate("gf2-unital"),
        "length.gf2_nonunital_subspaces_per_s": rate("gf2-nonunital"),
        "length.generic_prime_subspaces_per_s": rate("generic-prime"),
        "length.generic_ext_subspaces_per_s": rate("generic-ext"),
        "length.enumerated": enumerated,
        "length.generating_ratio": extra["length.generating"] / enumerated if enumerated else 0.0,
        "length.spans_general_s": s("length.lin_spans[general]"),
        "length.spans_descending_s": s("length.lin_spans[descending]"),
        "length.chain_levels": extra["length.chain_levels"],
        "iofmt.dump_s": s("iofmt.dump_algebra", "iofmt.algebra_to_dict"),
        "iofmt.parse_s": s("iofmt.parse_algebra", "iofmt.algebra_from_dict"),
    }
