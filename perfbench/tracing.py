"""Per-layer tracing for the shot-loop benchmark.

The program is not instrumented.  Instead, `Tracer.install` replaces the
public functions each cbdecode module exposes with timing wrappers, in every
loaded cbdecode module that holds a reference to them, and `uninstall` puts
the originals back.  A wrapped call is a span; a span's self time is its
duration minus the time of the spans it called.  Counters are taken at the
same boundaries.

A public name that no longer exists (a later refactor folds or renames it)
is recorded in `Tracer.missing`; the metrics that need it are dropped with a
note, and the run goes on.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import json
import multiprocessing.util
import os
import sys
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np

# (module, public name, span).  Spans of one layer share the prefix before
# the first dot; that prefix is the module the name belongs to.
HOOKS = [
    ("cbdecode.harness", "run_experiment", "harness.run"),
    ("cbdecode.harness", "logical_failure", "harness.score"),
    ("cbdecode.bbcodes", "build_bb_code", "bbcodes.build"),
    ("cbdecode.noise", "data_qubit_model", "noise.model"),
    ("cbdecode.noise", "phenomenological_model", "noise.model"),
    ("cbdecode.noise", "shot_rng", "noise.sample"),
    ("cbdecode.noise", "sample_depolarizing", "noise.sample"),
    ("cbdecode.noise", "sample_shot", "noise.sample"),
    ("cbdecode.gf2", "mat_vec_mod2", "gf2.mat_vec"),
    ("cbdecode.bp", "BPDecoder.__init__", "bp.init"),
    ("cbdecode.bp", "BPDecoder.decode", "bp.decode"),
    ("cbdecode.bp", "bp_cb_decode", "bp.entry"),
    ("cbdecode.cb", "cb_decode", "cb.entry"),
    ("cbdecode.cb", "run_schedule", "cb.schedule"),
    ("cbdecode.cb", "weight_1_errors", "cb.weight1"),
    ("cbdecode.cb", "non_dest_branch_growth", "cb.nondest"),
    ("cbdecode.cb", "dest_branch_growth", "cb.dest"),
]

# decoder entry points: their outputs are checked and hashed
_ENTRIES = {"bp.entry", "cb.entry"}
_DIGEST_MOD = 1 << 256


class Tracer:
    """Span self times and layer counters for one process."""

    def __init__(self):
        self.reset()
        self.missing: list[str] = []
        self._patched: list[tuple[object, str, object]] = []
        self._originals: dict[str, object] = {}

    def reset(self) -> None:
        self.self_s: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.counts: dict[str, float] = {}
        self.cb_call_s: list[float] = []
        # order-independent hash of (syndrome, output) over decoder calls:
        # the sum of per-call sha256 values modulo 2**256
        self.digest = 0
        self._open: list[float] = []  # child time of each open span

    # -- spans ---------------------------------------------------------------

    def _count(self, key: str, amount: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def _close(self, name: str, elapsed: float) -> None:
        child = self._open.pop()
        self.self_s[name] = self.self_s.get(name, 0.0) + elapsed - child
        self.calls[name] = self.calls.get(name, 0) + 1
        if self._open:
            self._open[-1] += elapsed

    def _untimed(self, fn, *args) -> None:
        """Run benchmark-side work so that no open span is charged for it."""
        t0 = perf_counter()
        fn(*args)
        if self._open:
            self._open[-1] += perf_counter() - t0

    def _wrap(self, name: str, fn):
        if name == "cb.schedule":
            return self._wrap_schedule(fn)
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._open.append(0.0)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            except Exception:
                self._close(name, perf_counter() - t0)
                if name not in _ENTRIES:
                    raise
                # a decoder that raises is a failed shot, not a failed run
                self._count("check.raised")
                if self.counts["check.raised"] == 1:
                    traceback.print_exc(file=sys.stderr)
                syndrome, m = _problem(sig, args, kwargs)
                out = np.zeros(m.cols, dtype=np.uint8)
                self._untimed(self._check_output, syndrome, m, out)
                return out
            self._close(name, perf_counter() - t0)
            if name == "bp.decode":
                self._count("bp.iters", getattr(out, "iterations", 0))
                self._count("bp.converged", bool(getattr(out, "converged", False)))
            elif name in _ENTRIES:
                self._untimed(self._check_output, *_problem(sig, args, kwargs), out)
            return out

        return wrapper

    def _wrap_schedule(self, fn):
        """Per-call schedule counters from a fresh DecodeStats per call.

        The fresh DecodeStats replaces the caller's `stats` argument, which
        the harness leaves at None.
        """
        from cbdecode.cb import DecodeStats

        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            params = bound.arguments.get("params")
            budget_for_step = bound.arguments.get("budget_for_step")
            steps: list = []
            if callable(budget_for_step):
                def counted(step):
                    steps.append(step)
                    return budget_for_step(step)

                bound.arguments["budget_for_step"] = counted
            stats = DecodeStats()
            if "stats" in sig.parameters:
                bound.arguments["stats"] = stats
            self._open.append(0.0)
            t0 = perf_counter()
            try:
                out = fn(*bound.args, **bound.kwargs)
            finally:
                elapsed = perf_counter() - t0
                self._close("cb.schedule", elapsed)
            self.cb_call_s.append(elapsed)
            self._count("cb.steps", len(steps))
            won = bool(out.any())
            self._count("cb.rescued", won)
            if steps:
                self._count(f"cb.win_step.{steps[-1] if won else 'none'}")
            self._count("cb.branches_closed", stats.branches_closed)
            self._count("cb.instances_rejected", stats.instances_rejected)
            self._count("cb.dismantled", stats.dismantled)
            if params is not None:
                self._count("cb.br_saturated", stats.max_spawned >= params.max_br)
                self._count("cb.gr_saturated", stats.max_growths >= params.max_gr)
            return out

        return wrapper

    def _check_output(self, syndrome: np.ndarray, m, out: np.ndarray) -> None:
        """Soundness: a nonzero output must reproduce its syndrome."""
        syndrome = np.asarray(syndrome, dtype=np.uint8)
        out = np.asarray(out, dtype=np.uint8)
        self._count("check.outputs")
        if out.any():
            if not np.array_equal(self._originals["gf2.mat_vec"](m, out), syndrome):
                self._count("check.unsound")
        h = hashlib.sha256(np.packbits(syndrome).tobytes() + b"|" + np.packbits(out).tobytes())
        self.digest = (self.digest + int.from_bytes(h.digest(), "big")) % _DIGEST_MOD

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        """Wrap every hook whose public name still exists."""
        from cbdecode import gf2

        self._originals["gf2.mat_vec"] = gf2.mat_vec_mod2
        loaded = [mod for key, mod in list(sys.modules.items()) if key.split(".")[0] == "cbdecode"]
        for module_name, attr, span in HOOKS:
            module = importlib.import_module(module_name)
            owner_name, _, member = attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = getattr(owner, member, None) if owner is not None else None
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            wrapper = self._wrap(span, original)
            if owner_name:
                self._patch(owner, member, wrapper)
                continue
            for mod in loaded:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)

    def _patch(self, owner, key: str, wrapper) -> None:
        self._patched.append((owner, key, getattr(owner, key)))
        setattr(owner, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patched):
            setattr(owner, key, original)
        self._patched.clear()

    # -- pooled workers ------------------------------------------------------

    def follow_forked_workers(self, out_dir: Path) -> None:
        """Have worker processes forked from here dump their trace on exit.

        Workers inherit the installed wrappers through fork.  Each one starts
        from an empty trace and writes it to out_dir when its process ends;
        `merge_dumps` adds them up.  Workers started any other way carry no
        wrappers, and their layers go unmeasured.
        """

        def started(tracer: Tracer) -> None:
            tracer.reset()
            path = out_dir / f"{os.getpid()}.json"
            multiprocessing.util.Finalize(tracer, tracer.dump, args=(path,), exitpriority=0)

        multiprocessing.util.register_after_fork(self, started)

    def dump(self, path: Path) -> None:
        state = {
            "self_s": self.self_s,
            "calls": self.calls,
            "counts": self.counts,
            "cb_call_s": self.cb_call_s,
            "digest": self.digest,
        }
        path.write_text(json.dumps(state))

    def merge_dumps(self, out_dir: Path) -> int:
        """Add worker traces written to out_dir; returns how many."""
        dumps = sorted(out_dir.glob("*.json"))
        for path in dumps:
            state = json.loads(path.read_text())
            path.unlink()
            for mine, theirs in (
                (self.self_s, state["self_s"]),
                (self.calls, state["calls"]),
                (self.counts, state["counts"]),
            ):
                for key, value in theirs.items():
                    mine[key] = mine.get(key, 0) + value
            self.cb_call_s.extend(state["cb_call_s"])
            self.digest = (self.digest + state["digest"]) % _DIGEST_MOD
        return len(dumps)

    # -- metrics -------------------------------------------------------------

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as name -> (value, unit).

        A ratio whose base is zero reads 0; its base is reported beside it.
        """
        s, n, c = self.self_s, self.calls, self.counts

        def ratio(a: float, b: float) -> float:
            return a / b if b else 0.0

        out: dict[str, tuple[float, str]] = {}
        have = {span for _, _, span in HOOKS} - {
            span for mod, attr, span in HOOKS if f"{mod}.{attr}" in self.missing
        }

        def put(needs: tuple[str, ...], name: str, value: float, unit: str) -> None:
            if all(span in have for span in needs):
                out[name] = (float(value), unit)

        sample, matvec = ("noise.sample",), ("gf2.mat_vec",)
        put(sample, "noise.sample_s", s.get("noise.sample", 0.0), "s")
        put(sample, "noise.sample_calls", n.get("noise.sample", 0), "count")
        put(("noise.model",), "noise.model_s", s.get("noise.model", 0.0), "s")
        put(matvec, "gf2.mat_vec_s", s.get("gf2.mat_vec", 0.0), "s")
        put(matvec, "gf2.mat_vec_calls", n.get("gf2.mat_vec", 0), "count")
        put(matvec, "gf2.mat_vec_us_mean",
            1e6 * ratio(s.get("gf2.mat_vec", 0.0), n.get("gf2.mat_vec", 0)), "us")

        bp = ("bp.decode",)
        bp_calls = n.get("bp.decode", 0)
        put(("bp.decode", "bp.entry"), "bp.decode_s",
            s.get("bp.decode", 0.0) + s.get("bp.entry", 0.0), "s")
        put(bp, "bp.calls", bp_calls, "count")
        put(bp, "bp.iters_mean", ratio(c.get("bp.iters", 0), bp_calls), "count")
        put(bp, "bp.us_per_iter",
            1e6 * ratio(s.get("bp.decode", 0.0), c.get("bp.iters", 0)), "us")
        put(bp, "bp.converged_share", ratio(c.get("bp.converged", 0), bp_calls), "share")
        put(("bp.init",), "bp.init_s", s.get("bp.init", 0.0), "s")

        sched = ("cb.schedule",)
        calls = n.get("cb.schedule", 0)
        cb_spans = ("cb.entry", "cb.schedule", "cb.weight1", "cb.nondest", "cb.dest")
        put(sched, "cb.decode_s", sum(s.get(k, 0.0) for k in cb_spans), "s")
        put(sched, "cb.calls", calls, "count")
        call_ms = np.array(self.cb_call_s) * 1e3
        put(sched, "cb.call_ms_p50", np.percentile(call_ms, 50) if calls else 0.0, "ms")
        put(sched, "cb.call_ms_p90", np.percentile(call_ms, 90) if calls else 0.0, "ms")
        put(sched, "cb.rescue_share", ratio(c.get("cb.rescued", 0), calls), "share")
        put(sched, "cb.steps_per_call", ratio(c.get("cb.steps", 0), calls), "count")
        put(sched, "cb.ms_per_step", ratio(float(call_ms.sum()), c.get("cb.steps", 0)), "ms")
        for step in ("1", "2", "3", "4", "5", "6", "none"):
            put(sched, f"cb.win_step.{step}", c.get(f"cb.win_step.{step}", 0), "count")
        put(("cb.weight1",), "cb.weight1_s", s.get("cb.weight1", 0.0), "s")
        put(("cb.nondest",), "cb.nondest_s", s.get("cb.nondest", 0.0), "s")
        put(("cb.dest",), "cb.dest_s", s.get("cb.dest", 0.0), "s")
        closed = c.get("cb.branches_closed", 0)
        rejected = c.get("cb.instances_rejected", 0)
        put(sched, "cb.branches_closed", closed, "count")
        put(sched, "cb.instances_rejected", rejected, "count")
        put(sched, "cb.dismantled", c.get("cb.dismantled", 0), "count")
        put(sched, "cb.reject_ratio", ratio(rejected, rejected + closed), "share")
        put(sched, "cb.br_saturated_share", ratio(c.get("cb.br_saturated", 0), calls), "share")
        put(sched, "cb.gr_saturated_share", ratio(c.get("cb.gr_saturated", 0), calls), "share")

        put(("harness.score",), "harness.score_s", s.get("harness.score", 0.0), "s")
        put(("harness.run",), "harness.self_s", s.get("harness.run", 0.0), "s")
        put(("bbcodes.build",), "bbcodes.build_s", s.get("bbcodes.build", 0.0), "s")
        return out


def _problem(sig: inspect.Signature, args: tuple, kwargs: dict):
    """(syndrome, noise matrix) of a decoder entry call."""
    arguments = sig.bind(*args, **kwargs).arguments
    if "model" in arguments:
        return arguments["syndrome"], arguments["model"].noise_matrix
    return arguments["syndrome"], arguments["m"]
