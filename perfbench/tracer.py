"""Tracing of fedfreq from outside: wrap its public functions, record spans.

The tracer never edits ``src/``.  It replaces each traced function with a
wrapper in *every* ``fedfreq.*`` namespace that holds a reference to it
(``forward`` is bound in ``model``, ``det`` and ``orchestrator``; ``dft2``
in ``freq_agg``), so calls made through a ``from ... import`` binding are
seen too.  Each call records a span ``(name, start, end, parent)``; spans
stay in memory and are reduced to per-name self times when an operation
ends.  A span's self time is its duration minus the durations of its direct
children; the benchmark runs fedfreq on one thread, so children never
overlap each other and always lie inside their parent.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from contextlib import contextmanager

# (module, function) pairs wrapped by the tracer; names are "module.function"
TRACED = (
    ("model", "forward"),
    ("model", "backward"),
    ("model", "ce_loss"),
    ("model", "kl_div"),
    ("model", "sgd_step"),
    ("model", "predict_probs"),
    ("model", "clone_params"),
    ("det", "local_epoch"),
    ("det", "receive_deputy"),
    ("det", "upload_model"),
    ("freq_agg", "pfa_aggregate"),
    ("freq_agg", "fedavg_aggregate"),
    ("freq_agg", "low_freq_mask"),
    ("numerics", "dft2"),
    ("numerics", "idft2"),
    ("numerics", "amp_phase"),
    ("numerics", "recompose"),
    ("checkpoint", "save_checkpoint"),
    ("checkpoint", "load_checkpoint_full"),
    ("metrics", "macro_f1"),
    ("metrics", "evaluate"),
    ("orchestrator", "run_experiment"),
    ("orchestrator", "emit_report"),
    ("orchestrator", "save_run_checkpoints"),
    ("cli", "main"),
    ("data", "synth"),
    ("data", "ood_client"),
)

ROOT = "bench.op"  # the benchmark's own span around one operation

# Stage of a span.  A span inside validate/aggregate/io keeps that stage (a
# forward pass under predict_probs is validation); elsewhere a span takes its
# own stage if listed here, else its parent's.
STAGES = ("train", "validate", "aggregate", "io", "other")
_STAGE_OF = {
    "model.forward": "train",
    "model.backward": "train",
    "model.ce_loss": "train",
    "model.kl_div": "train",
    "model.sgd_step": "train",
    "det.local_epoch": "train",
    "model.predict_probs": "validate",
    "metrics.macro_f1": "validate",
    "metrics.evaluate": "validate",
    "det.receive_deputy": "aggregate",
    "det.upload_model": "aggregate",
    "freq_agg.pfa_aggregate": "aggregate",
    "freq_agg.fedavg_aggregate": "aggregate",
    "freq_agg.low_freq_mask": "aggregate",
    "numerics.dft2": "aggregate",
    "numerics.idft2": "aggregate",
    "numerics.amp_phase": "aggregate",
    "numerics.recompose": "aggregate",
    "checkpoint.save_checkpoint": "io",
    "checkpoint.load_checkpoint_full": "io",
    "orchestrator.emit_report": "io",
    "orchestrator.save_run_checkpoints": "io",
}
_STICKY = ("validate", "aggregate", "io")


def _map_bytes(params) -> int:
    return sum(int(v.nbytes) for v in params.values())


def _hook_clone(counters, args, out):
    counters["model.clone_params.bytes"] += _map_bytes(args[0])


def _hook_local_epoch(counters, args, out):
    # args[0] is the ClientState; its phase on entry decides how the epoch trains
    counters[f"det.epochs.{args[0].phase.name.lower()}"] += 1


def _hook_aggregate(counters, args, out):
    counters["freq_agg.bytes_in"] += sum(_map_bytes(m) for m in args[0].client_params)


def _hook_save(counters, args, out):
    counters["checkpoint.save_checkpoint.bytes"] += _map_bytes(args[0])


def _hook_load(counters, args, out):
    counters["checkpoint.load_checkpoint_full.bytes"] += _map_bytes(out[2])


_ENTRY_HOOKS = {"det.local_epoch": _hook_local_epoch}
# every name the hooks count into, besides the per-span calls and self times
COUNTERS = (
    "model.clone_params.bytes",
    "det.epochs.recover",
    "det.epochs.exchange",
    "det.epochs.sublimate",
    "freq_agg.bytes_in",
    "checkpoint.save_checkpoint.bytes",
    "checkpoint.load_checkpoint_full.bytes",
)
_EXIT_HOOKS = {
    "model.clone_params": _hook_clone,
    "freq_agg.pfa_aggregate": _hook_aggregate,
    "freq_agg.fedavg_aggregate": _hook_aggregate,
    "checkpoint.save_checkpoint": _hook_save,
    "checkpoint.load_checkpoint_full": _hook_load,
}


class Tracer:
    """Installs wrappers on fedfreq and collects spans while ``active``.

    Use as a context manager: entering patches every namespace, leaving
    restores the original functions.  Spans are only recorded inside
    :meth:`op`, so checks the benchmark runs between operations stay out of
    the trace; :func:`summarize` reduces ``spans`` and ``counters`` after it.
    """

    def __init__(self) -> None:
        self.active = False
        self.spans: list = []
        self.counters: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        import fedfreq  # noqa: F401  (loads every submodule)

        modules = [m for n, m in sys.modules.items() if n == "fedfreq" or n.startswith("fedfreq.")]
        for mod_name, fn_name in TRACED:
            original = getattr(sys.modules[f"fedfreq.{mod_name}"], fn_name)
            wrapper = self._wrap(f"{mod_name}.{fn_name}", original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, original))
        return self

    def __exit__(self, *exc) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def _wrap(self, name: str, fn):
        spans, stack, counters = self.spans, self._stack, self.counters
        clock = time.perf_counter
        on_entry, on_exit = _ENTRY_HOOKS.get(name), _EXIT_HOOKS.get(name)

        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            if on_entry is not None:
                on_entry(counters, args, None)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent)
            if on_exit is not None:
                on_exit(counters, args, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    @contextmanager
    def op(self):
        """Trace one operation under a root span; yields nothing."""
        self.spans.clear()
        self.counters.clear()
        self._stack.clear()
        self.spans.append(None)
        self._stack.append(0)
        self.active = True
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self.active = False
            self._stack.clear()
            self.spans[0] = (ROOT, start, end, -1)


def summarize(spans: list, counters: dict) -> dict:
    """Reduce one operation's spans (root first) to calls, self times and stage times."""
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    stage_s = dict.fromkeys(STAGES, 0.0)
    child_s = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child_s[parent] += end - start
    stage = [""] * len(spans)
    for i, (name, start, end, parent) in enumerate(spans):
        inherited = stage[parent] if parent >= 0 else "other"
        stage[i] = inherited if inherited in _STICKY else _STAGE_OF.get(name, inherited)
        own = (end - start) - child_s[i]
        calls[name] += 1
        self_s[name] += own
        stage_s[stage[i]] += own
    _, start, end, _ = spans[0]
    return {
        "wall_s": end - start,
        "calls": dict(calls),
        "self_s": dict(self_s),
        "stage_s": stage_s,
        "counters": dict(counters),
    }
