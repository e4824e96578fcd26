"""Span tracing of quatisom's public functions, installed from outside `src/`.

`Tracer.install()` replaces each listed function with a wrapper in every
`quatisom` module namespace that holds it (a module that did
`from .linalg import hnf` holds its own reference, which is replaced too),
and each listed method on its class.  Nothing under `src/` changes.

Each wrapped call is a span: name, start, end, parent span and operation
id.  Spans stay in memory (compact arrays) until `write_spans` at the end of
the run.  Aggregates are kept as the spans close:

- `calls`, `self` time (the span minus its direct child spans) and `incl`
  time (outermost call of the function only, so recursion is not counted
  twice);
- `fails`: calls that raised an `Exception`.  A call cut by the benchmark's
  deadline (a `BaseException`) is neither a success nor a failure;
- the largest input entry of `linalg.hnf`, in bits.

Time spent in unlisted functions counts as self time of the nearest listed
caller; time outside every listed call counts as the benchmark's own time.
"""

from __future__ import annotations

import contextlib
import functools
import sys
from array import array
from time import perf_counter_ns

# (module, qualified name) of every traced function, grouped by layer
TRACED = [
    ("quat", "Quaternion.__mul__"), ("quat", "Quaternion.reduced_norm"),
    ("linalg", "hnf"), ("linalg", "kernel_basis"), ("linalg", "solve_integer"),
    ("linalg", "lll_reduce"), ("linalg", "shortest_vector"), ("linalg", "enumerate_up_to"),
    ("linalg", "snf_prime_power"),
    ("orders", "Lattice4.__init__"), ("orders", "Lattice4.mul"), ("orders", "Lattice4.intersect"),
    ("orders", "Order.__init__"), ("orders", "Ideal.nrd"), ("orders", "left_order"),
    ("orders", "right_order"), ("orders", "connecting_ideal"), ("orders", "multiply_ideals"),
    ("orders", "standard_extremal_order"), ("orders", "random_left_ideal"),
    ("division", "integer_ideal_divide"), ("division", "principal_ideal_divide"),
    ("localization", "split_order"), ("localization", "local_generator"),
    ("normeq", "represent_integer"), ("normeq", "equivalent_power_norm_ideal"),
    ("normeq", "cornacchia"),
    ("homframe", "kani_degree"), ("homframe", "node_from_ideal"), ("homframe", "kernel_ideal"),
    ("homframe", "mat_compose"), ("homframe", "Certificate.verify"),
    ("isom", "isomorphism_completion"), ("isom", "low_discriminant_isomorphism"),
    ("isom", "isomorphism_E0"), ("isom", "isom_two_products"), ("isom", "isom_g_products"),
    ("isom", "verify_ideal_quadruple"),
    ("serialization", "ideal_from_json"), ("serialization", "certificate_to_json"),
    ("serialization", "dumps"),
    ("cli", "main"),
]
LAYERS = ["quat", "linalg", "orders", "division", "localization", "normeq",
          "homframe", "isom", "serialization", "cli"]
# entry points whose inclusive time is reported
INCL_LAYERS = {"division", "localization", "normeq", "isom", "cli"}
# searches whose wasted attempts are reported as fails and useful_ratio
FALLIBLE = {"normeq.represent_integer", "normeq.equivalent_power_norm_ideal",
            "isom.isomorphism_completion", "isom.low_discriminant_isomorphism",
            "division.integer_ideal_divide", "division.principal_ideal_divide"}
HNF = "linalg.hnf"


def _quatisom_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "quatisom" or name.startswith("quatisom."))]


def _resolve(module: str, qualname: str):
    """(owner, attribute, original) for a listed function."""
    owner = sys.modules[f"quatisom.{module}"]
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
    return owner, attr, original


def _max_entry_bits(mat) -> int:
    return max((abs(v).bit_length() for row in mat for v in row), default=0)


class Tracer:
    """Spans and per-function aggregates for one traced run."""

    def __init__(self):
        self.names = [f"{module}.{qualname}" for module, qualname in TRACED]
        n = len(self.names)
        self.calls = [0] * n
        self.fails = [0] * n
        self.self_ns = [0] * n
        self.incl_ns = [0] * n
        self.active = [0] * n        # recursion depth, for inclusive time
        self.hnf_max_bits = 0
        self.enabled = False
        self.op_id = -1
        # open spans: [span id, time covered by direct children]
        self._stack: list[list[int]] = []
        self._next_id = 0
        # closed spans, one entry per array
        self.span_id = array("q")
        self.span_name = array("i")
        self.span_parent = array("q")
        self.span_op = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        # benchmark-level spans (setup, operations): name, op id, start, end, child time
        self.roots: list[tuple[str, int, int, int, int]] = []
        self._installed: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def install(self):
        """Wrap every listed function wherever a quatisom namespace holds it."""
        modules = _quatisom_modules()
        for nid, (module, qualname) in enumerate(TRACED):
            owner, attr, original = _resolve(module, qualname)
            wrapper = self._wrap(original, nid)
            if isinstance(owner, type):
                setattr(owner, attr, wrapper)
                self._installed.append((owner, attr, original))
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._installed.append((mod, key, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    def _wrap(self, fn, nid: int):
        tracer = self
        stack = self._stack
        is_hnf = self.names[nid] == HNF

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            if is_hnf and args:
                bits = _max_entry_bits(args[0])
                if bits > tracer.hnf_max_bits:
                    tracer.hnf_max_bits = bits
            sid = tracer._next_id
            tracer._next_id = sid + 1
            parent = stack[-1][0]
            frame = [sid, 0]
            stack.append(frame)
            tracer.active[nid] += 1
            failed = False
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            except Exception:
                failed = True
                raise
            finally:
                end = perf_counter_ns()
                stack.pop()
                dur = end - start
                stack[-1][1] += dur
                tracer.calls[nid] += 1
                tracer.self_ns[nid] += dur - frame[1]
                tracer.active[nid] -= 1
                if tracer.active[nid] == 0:
                    tracer.incl_ns[nid] += dur
                if failed:
                    tracer.fails[nid] += 1
                tracer.span_id.append(sid)
                tracer.span_name.append(nid)
                tracer.span_parent.append(parent)
                tracer.span_op.append(tracer.op_id)
                tracer.span_start.append(start)
                tracer.span_end.append(end)

        return traced

    def unwrapped_references(self) -> list[str]:
        """Names under which a quatisom namespace still holds a listed original."""
        originals = {id(orig) for _, _, orig in self._installed}
        found = []
        for mod in _quatisom_modules():
            for key, value in vars(mod).items():
                if id(value) in originals:
                    found.append(f"{mod.__name__}.{key}")
                if isinstance(value, type) and value.__module__.startswith("quatisom"):
                    found.extend(f"{mod.__name__}.{key}.{attr}"
                                 for attr, member in vars(value).items()
                                 if id(member) in originals)
        return sorted(set(found))

    # -- benchmark-level spans ----------------------------------------------

    @contextlib.contextmanager
    def root(self, name: str, op_id: int = -1):
        """A benchmark-level span (set-up or one operation); traced calls
        inside it become its children."""
        assert not self._stack, "benchmark spans do not nest"
        self._stack.append([-len(self.roots) - 1, 0])
        self.op_id, self.enabled = op_id, True
        start = perf_counter_ns()
        try:
            yield
        finally:
            end = perf_counter_ns()
            self.enabled = False
            # clear rather than pop: a deadline can land inside a wrapper's
            # bookkeeping and leave its frame behind
            frame = self._stack[0]
            self._stack.clear()
            self.active = [0] * len(self.active)
            self.roots.append((name, op_id, start, end, frame[1]))
            self.op_id = -1

    def root_ns(self) -> int:
        return sum(end - start for _, _, start, end, _ in self.roots)

    def bench_self_ns(self) -> int:
        return sum(end - start - child for _, _, start, end, child in self.roots)

    # -- results -------------------------------------------------------------

    def metrics(self) -> dict[str, tuple[float, str]]:
        out: dict[str, tuple[float, str]] = {}
        layer_ns = dict.fromkeys(LAYERS, 0)
        for nid, name in enumerate(self.names):
            layer = name.split(".", 1)[0]
            layer_ns[layer] += self.self_ns[nid]
            calls = self.calls[nid]
            out[f"{name}.calls"] = (calls, "count")
            out[f"{name}.self_s"] = (self.self_ns[nid] / 1e9, "s")
            if layer in INCL_LAYERS:
                out[f"{name}.incl_s"] = (self.incl_ns[nid] / 1e9, "s")
            if name in FALLIBLE:
                fails = self.fails[nid]
                out[f"{name}.fails"] = (fails, "count")
                useful = (calls - fails) / calls if calls else 0.0
                out[f"{name}.useful_ratio"] = (useful, "ratio")
        out[f"{HNF}.max_entry_bits"] = (self.hnf_max_bits, "bits")
        for layer in LAYERS:
            out[f"{layer}.self_s"] = (layer_ns[layer] / 1e9, "s")
        out["bench.self_s"] = (self.bench_self_ns() / 1e9, "s")
        return out

    def layer_self_ns(self) -> int:
        return sum(self.self_ns)

    def write_spans(self, path):
        """One line per span: id, parent, op, name, start_ns, end_ns."""
        with open(path, "w") as fh:
            fh.write("id,parent,op,name,start_ns,end_ns\n")
            for rid, (name, op, start, end, _) in enumerate(self.roots):
                fh.write(f"r{rid},,{op},{name},{start},{end}\n")
            names = self.names
            for sid, parent, op, nid, start, end in zip(
                    self.span_id, self.span_parent, self.span_op, self.span_name,
                    self.span_start, self.span_end):
                par = f"r{-parent - 1}" if parent < 0 else parent
                fh.write(f"{sid},{par},{op},{names[nid]},{start},{end}\n")

