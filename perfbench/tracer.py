"""Per-layer tracing of sqpbands from outside the package.

Each traced function is replaced, at every module attribute that holds
it (found by object identity), by a wrapper that records one span:
(name, start, end, parent span, op id, raised, info). Methods are
replaced on their class. Aliases made by `from .x import f` are caught
this way, so `tie.alexander_of_word` and `cli.full_report` are traced
like the originals. `info` is a size or identity read from the call's
arguments or return value; the layer counters are sums over it.

Spans stay in memory and are aggregated (and written out) when the run
ends. A span's self time is its duration minus its direct children's.
A function that is no longer in the package is reported as absent and
its metrics read 0.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import Counter, defaultdict
from time import perf_counter


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _word_key(args, kwargs, ret):
    word = _arg(args, kwargs, 0, "word")
    return hash((word.strands, word.letters, _arg(args, kwargs, 1, "presimplify", True)))


def _jones_info(args, kwargs, ret):
    return (_arg(args, kwargs, 0, "word").strands, type(ret).__name__ == "BudgetExceeded")


# layer -> traced functions as (module, qualified name, info reader or None).
LAYERS = {
    "laurent.laurent_det": [
        ("sqpbands.laurent", "laurent_det", lambda a, k, r: len(_arg(a, k, 0, "matrix")))
    ],
    "laurent.int_det": [("sqpbands.laurent", "int_det", None)],
    "invariants.seifert_matrix": [
        ("sqpbands.invariants", "seifert_matrix", lambda a, k, r: r.size)
    ],
    "invariants.alexander": [("sqpbands.invariants", "alexander", None)],
    "invariants.signature": [
        ("sqpbands.invariants", "signature", lambda a, k, r: _arg(a, k, 0, "v").size)
    ],
    "invariants.alexander_of_word": [("sqpbands.invariants", "alexander_of_word", _word_key)],
    "invariants.signature_of_word": [("sqpbands.invariants", "signature_of_word", _word_key)],
    "invariants.jones_tl": [("sqpbands.invariants", "jones_tl", _jones_info)],
    "invariants.full_report": [("sqpbands.invariants", "full_report", None)],
    "invariants.simplify_closure_word": [("sqpbands.invariants", "simplify_closure_word", None)],
    "invariants.extract_component": [("sqpbands.invariants", "extract_component", None)],
    "invariants.linking_matrix": [("sqpbands.invariants", "linking_matrix", None)],
    "invariants.burau_alexander_oracle": [
        ("sqpbands.invariants", "burau_alexander_oracle", None)
    ],
    "tie.family": [("sqpbands.tie", "family", None)],
    "tie.tie": [("sqpbands.tie", "tie", None)],
    "selection": [
        ("sqpbands.selection", "classify_and_select", None),
        ("sqpbands.selection", "persistent_selection", None),
    ],
    "surface": [
        ("sqpbands.surface", "surface_graph", None),
        ("sqpbands.surface", "euler_characteristic", None),
        ("sqpbands.surface", "first_betti", lambda a, k, r: r),
        ("sqpbands.surface", "trace_boundary", None),
        ("sqpbands.surface", "genus_profile", None),
        ("sqpbands.surface", "is_unlink_surface", None),
    ],
    "words.expand_to_artin": [
        ("sqpbands.words", "BandWord.expand_to_artin", lambda a, k, r: len(r.letters))
    ],
    "cli.main": [("sqpbands.cli", "main", None)],
    "report": [("sqpbands.report", "ReportEnvelope.to_json", lambda a, k, r: len(r.encode()))],
}


class Tracer:
    """Installs the wrappers and collects spans while `active` is true."""

    def __init__(self) -> None:
        self.spans: list = []
        self.stack: list[int] = []
        self.op = -1
        self.active = False
        self.absent: list[str] = []
        self.layer_of: dict[str, str] = {}

    def install(self) -> None:
        packages = [m for n, m in sys.modules.items() if n == "sqpbands" or n.startswith("sqpbands.")]
        for layer, targets in LAYERS.items():
            for module_name, qualname, info in targets:
                name = f"{module_name.removeprefix('sqpbands.')}.{qualname}"
                try:
                    owner = importlib.import_module(module_name)
                    *path, attr = qualname.split(".")
                    for part in path:
                        owner = getattr(owner, part)
                    original = getattr(owner, attr)
                except (ImportError, AttributeError):
                    self.absent.append(name)
                    continue
                self.layer_of[name] = layer
                wrapper = self._wrap(name, original, info)
                if path:
                    setattr(owner, attr, wrapper)
                    continue
                for module in packages:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, key, wrapper)

    def _wrap(self, name, fn, info_fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            spans = tracer.spans
            index = len(spans)
            parent = tracer.stack[-1] if tracer.stack else -1
            spans.append(None)
            tracer.stack.append(index)
            ret = None
            raised = True
            start = perf_counter()
            try:
                ret = fn(*args, **kwargs)
                raised = False
                return ret
            finally:
                end = perf_counter()
                tracer.stack.pop()
                info = None
                if info_fn is not None and not raised:
                    try:
                        info = info_fn(args, kwargs, ret)
                    except Exception:  # a changed signature must not break the run
                        info = None
                spans[index] = (name, start, end, parent, tracer.op, raised, info)

        return traced

    def write(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("id\tname\tstart\tend\tparent\top\traised\tinfo\n")
            for i, (name, start, end, parent, op, raised, info) in enumerate(self.spans):
                fh.write(f"{i}\t{name}\t{start:.9f}\t{end:.9f}\t{parent}\t{op}\t{int(raised)}\t{info}\n")

    def self_times(self) -> list[float]:
        self_s = [end - start for _, start, end, *_ in self.spans]
        for name, start, end, parent, *_ in self.spans:
            if parent >= 0:
                self_s[parent] -= end - start
        return self_s

    def op_summary(self, op: int) -> str:
        """Redundancy and size counts of one op, for the acceptance note."""
        keys = [s[6] for s in self.spans if s[4] == op and s[0] == "invariants.alexander_of_word"]
        sizes = Counter(s[6] for s in self.spans if s[4] == op and s[0] == "laurent.laurent_det")
        return (
            f"invariants.alexander_of_word {len(keys)} calls on {len(set(keys))} distinct words; "
            f"laurent.laurent_det sizes {dict(sorted(sizes.items()))}"
        )

    def metrics(self) -> dict[str, float]:
        """Per-layer calls/self_s/errors plus the size and redundancy counters."""
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = 0
            out[f"{layer}.self_s"] = 0.0
            out[f"{layer}.errors"] = 0
        info = defaultdict(list)
        for span, self_s in zip(self.spans, self.self_times()):
            name, _, _, _, op, raised, value = span
            layer = self.layer_of[name]
            out[f"{layer}.calls"] += 1
            out[f"{layer}.self_s"] += self_s
            out[f"{layer}.errors"] += raised
            if value is not None:
                info[name].append((op, value))

        def values(name):
            return [v for _, v in info[name]]

        def unique_frac(name):
            # Distinct input words within each op, summed over ops, per call.
            calls = out[f"{name}.calls"]
            return len(set(info[name])) / calls if calls else 0.0

        dets = values("laurent.laurent_det")
        dims = values("invariants.seifert_matrix")
        jones = values("invariants.jones_tl")
        out["laurent.laurent_det.n_max"] = max(dets, default=0)
        out["laurent.laurent_det.n3_sum"] = sum(n**3 for n in dets)
        out["invariants.seifert_matrix.dim_max"] = max(dims, default=0)
        out["invariants.seifert_matrix.dim_sum"] = sum(dims)
        out["invariants.signature.dim_sum"] = sum(values("invariants.signature"))
        out["surface.b1_sum"] = sum(values("surface.first_betti"))
        out["invariants.alexander_of_word.unique_frac"] = unique_frac("invariants.alexander_of_word")
        out["invariants.signature_of_word.unique_frac"] = unique_frac("invariants.signature_of_word")
        out["invariants.jones_tl.refusals"] = sum(refused for _, refused in jones)
        out["invariants.jones_tl.strands_max"] = max((s for s, _ in jones), default=0)
        out["words.expand_to_artin.letters_sum"] = sum(values("words.BandWord.expand_to_artin"))
        out["report.envelope_bytes"] = sum(values("report.ReportEnvelope.to_json"))
        return out
