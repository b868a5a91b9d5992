"""Shot-loop benchmark for cbdecode.

Runs one fixed decoding regime (a workload) through the public
`cbdecode.harness.run_experiment`, with a fixed shot count and no failure
stop, and prints its metrics.  The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.

    python3 perfbench/run.py --workload data-bb72-bpcb --seed 1 --seconds 55 --trace 0
    python3 perfbench/run.py --workload all        # every workload, untraced and traced

--trace 0 reports the end-to-end metrics: shots per CPU second, decode
p50/p99 and set-up time, all scaled to a reference machine speed (see
measure), peak memory and the logical error rate.  --trace 1 runs the same shots
once untraced and once with every layer's public functions wrapped (see
tracing.py) and reports the per-layer split.  Both check the outputs: the
failure count must repeat, and for the default seed it and (traced) the
digest of every decoder output must match digests.json.  The traced run also
checks that every nonzero decoder output reproduces its syndrome.  A failed
check exits with code 1.  After a declared change of decoder behaviour,
regenerate the digests with --trace 1 --update-digests, one workload at a
time, at the default seed.

The package is imported from the checkout's src/ directory, never from an
installed copy; without it the benchmark exits nonzero before measuring.
"""

from __future__ import annotations

import os

# one BLAS/OpenMP thread in this process and in the pool workers it forks;
# set before numpy is imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter, process_time

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
DIGESTS = HERE / "digests.json"
DEFAULT_SEED = 1
SETUP_SAMPLES = 24  # at least, per untraced run
# the reference loop's length, and the CPU seconds it is scaled to
REFERENCE_ITERS = 1200
REFERENCE_S = 0.1


@dataclass(frozen=True)
class Workload:
    code: str
    noise: str
    p: float
    decoder: str
    max_br: int
    chunks: int
    chunk_shots: int
    q: float | None = None
    rounds: int = 1
    threads: int = 1

    @property
    def shots(self) -> int:
        return self.chunks * self.chunk_shots


# A workload's shots are split into chunks, each one run_experiment call with
# its own seed.  Chunks hold at least 1000 shots, so that each chunk's p99 has
# ten samples beyond it, and short enough that the machine's speed rarely
# changes within one.  On a 2-core machine, 55 s fit four to seven rounds of
# the BP-bound regime and two to four of the CB-only one.
WORKLOADS = {
    # the sweep regime next to the 0.051 crossing: BP is the main cost and
    # CB runs on ~3% of shots, so CB gains show only in the tail
    "data-bb72-bpcb": Workload("bb72", "data-qubit", 0.05, "bp+cb", 10, 14, 1000),
    # weighted destructive CB on ~12% of shots dominates time and the p99
    # tail.  Shot costs vary so much (coefficient of variation ~3.5 at ~50
    # shots/s) that the shots one run allows give run-to-run spreads above
    # the bounds (p99: 0.32 over five seeds), so BENCHMARK.json leaves it out
    "phenom-bb72-bpcb": Workload(
        "bb72", "phenomenological", 0.04, "bp+cb", 36, 1, 1000, q=0.04, rounds=6),
    # plain CB with integer budgets and no BP: a BP change must read no
    # change here
    "data-bb72-cb": Workload("bb72", "data-qubit", 0.05, "cb", 10, 10, 1000),
    # the same on n=144.  A 1000-shot chunk takes 12 to 20 s, too long for
    # the reference loop between chunks to follow the machine's speed, and
    # a run needs 40 to 70 s, so BENCHMARK.json leaves it out
    "data-bb144-cb": Workload("bb144", "data-qubit", 0.06, "cb", 10, 3, 1000),
    # data-bb72-bpcb through the harness process pool: wave barrier,
    # pickling and a runner rebuilt for every job.  Its wall-clock latencies
    # depend on both CPUs of a shared machine staying free (p99: 0.23 spread
    # over ten seeds), so BENCHMARK.json leaves it out
    "data-bb72-bpcb-x2": Workload("bb72", "data-qubit", 0.05, "bp+cb", 10, 4, 4000, threads=2),
}


def import_package() -> None:
    """Import cbdecode from SRC; exit nonzero when the checkout has none."""
    if not (SRC / "cbdecode" / "__init__.py").is_file():
        sys.exit(f"perfbench: no cbdecode package under {SRC}")
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])
    import cbdecode

    if SRC not in Path(cbdecode.__file__).resolve().parents:
        sys.exit(f"perfbench: imported cbdecode from {cbdecode.__file__}, not {SRC}")


def make_config(w: Workload, seed: int, shots: int):
    from cbdecode.bbcodes import STANDARD_CODES
    from cbdecode.cb import CBParams
    from cbdecode.harness import ExperimentConfig

    return ExperimentConfig(
        noise=w.noise, p=w.p, q=w.q, rounds=w.rounds,
        code_spec=STANDARD_CODES[w.code], params=CBParams(6, w.max_br, 3),
        decoder=w.decoder, sector="x", max_shots=shots, max_failures=None,
        seed=seed % 2**63, bp_iters=30)


def set_up(w: Workload) -> float:
    """CPU seconds to build the code, the detector model and the BP decoder."""
    import numpy as np
    from cbdecode.bbcodes import STANDARD_CODES, build_bb_code
    from cbdecode.bp import BPDecoder
    from cbdecode.noise import data_qubit_model, phenomenological_model

    t0 = process_time()
    code = build_bb_code(STANDARD_CODES[w.code])
    if w.noise == "data-qubit":
        model = data_qubit_model(code, w.p)[0]
    else:
        model = phenomenological_model(code, w.p, w.q, w.rounds)
    if w.decoder == "bp+cb":
        BPDecoder(model.noise_matrix, np.clip(model.priors, 1e-12, 0.5))
    return process_time() - t0


def cpu_seconds() -> float:
    """CPU time of this process and of its finished children (pool workers).

    Unlike wall time, CPU time leaves out the spells in which the host of a
    shared virtual machine runs other guests instead of this one.
    """
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return process_time() + children.ru_utime + children.ru_stime


def one_pass(w: Workload, config):
    """One run_experiment call: (CPU seconds it took, its ExperimentResult)."""
    from cbdecode import harness

    t0 = cpu_seconds()
    result = harness.run_experiment(config, threads=w.threads)
    return cpu_seconds() - t0, result


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest child (pool worker)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def git_revision() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "none (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def environment(w: Workload, name: str, usable_cpus: int) -> dict:
    import numpy as np

    source = hashlib.sha256()
    for path in sorted((SRC / "cbdecode").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": name,
        "shots": w.shots,
        "chunks": w.chunks,
        "threads": w.threads,
        "nproc": os.cpu_count(),
        "usable_cpus": usable_cpus,
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
        "git_revision": git_revision(),
        "source_sha256": source.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def expected_digest(name: str, w: Workload, seed: int) -> dict | None:
    """The committed digest entry when it applies to this run, else None."""
    if seed != DEFAULT_SEED:
        return None
    entries = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
    return entries.get(name, {"shots": None})


def chunk_configs(w: Workload, seed: int) -> list:
    """The workload's shots: `chunks` experiments with seeds drawn from --seed."""
    base = (seed % 2**32) << 16
    return [make_config(w, base + k, w.chunk_shots) for k in range(w.chunks)]


def check_failures(name: str, w: Workload, seed: int, failures: int, notes: list[str]) -> bool:
    expected = expected_digest(name, w, seed)
    if expected is None or (expected["shots"] == w.shots and expected["failures"] == failures):
        return True
    notes.append(f"failure count {failures} does not match {DIGESTS.name} entry {expected}")
    return False


def reference() -> tuple[float, float]:
    """(CPU, wall) seconds of a fixed loop that uses no cbdecode code.

    Each pass does what a shot does, on arrays of a bb72 code's size: one
    sum-product message pass in small numpy calls, a mod-2 mat-vec, and a
    set-based growth in the interpreter.  Its working set, like the shot
    loop's, fits in the core's own caches, so the machine speeds it up and
    slows it down as it does the program.
    """
    import numpy as np

    rng = np.random.default_rng(20240201)
    check_edges = rng.permutation(432).reshape(72, 6)
    var_edges = rng.permutation(432).reshape(144, 3)
    h = (rng.random((72, 144)) < 0.05).astype(np.uint8)
    prior = rng.normal(3.0, 1.0, size=144)
    cols = [[(r * 7 + k * 13) % 144 for k in range(6)] for r in range(72)]
    c0, w0 = process_time(), perf_counter()
    v2c = prior[np.arange(432) % 144]
    acc = 0
    for it in range(REFERENCE_ITERS):
        t = np.tanh(np.clip(v2c, -20.0, 20.0) / 2.0)
        prefix = np.cumprod(np.append(t, 1.0)[check_edges], axis=1)
        c2v = np.zeros(433)
        c2v[check_edges] = 2.0 * np.arctanh(np.clip(prefix, -1.0 + 1e-12, 1.0 - 1e-12))
        incoming = c2v[var_edges]
        posterior = prior + incoming.sum(axis=1)
        v2c = ((posterior[:, None] - incoming) * 0.5).ravel()
        syndrome = (h @ (posterior < 3.0).astype(np.uint8)) & 1
        seen: set[int] = set()
        frontier = [(it * 5 + j * 11) % 72 for j in range(4)]
        while frontier:
            for c in cols[frontier.pop()]:
                if c not in seen:
                    seen.add(c)
                    if len(seen) < 24:
                        frontier.append(c % 72)
        acc += len(seen) + int(syndrome.sum())
    return process_time() - c0, perf_counter() - w0


def measure(name: str, w: Workload, seed: int, seconds: float, notes: list[str]):
    """Untraced run: end-to-end metrics.

    Every chunk runs once per round, and rounds repeat while the next one
    fits in `seconds`.  A shared machine runs every process up to 1.8x
    faster or slower for spells from a second to minutes long, so the
    reference loop runs between chunks and each chunk's times are scaled by
    REFERENCE_S over the mean of the loop's times just before and after it
    (set-up samples, taken just after the loop, by its time alone): they
    read as on a machine on which the loop takes REFERENCE_S.  A chunk
    is credited with the median of its scaled times over rounds.
    """
    configs = chunk_configs(w, seed)
    setups_per_chunk = -(-SETUP_SAMPLES // w.chunks)
    seen: list[list[tuple[float, float, float]]] = [[] for _ in configs]  # cpu, p50, p99
    raw_cpu: list[float] = []
    setups: list[float] = []
    refs: list[float] = []
    failures: list[set[int]] = [set() for _ in configs]
    # warm-up: imports, caches and lazy set-up of the run_experiment path
    one_pass(w, make_config(w, seed ^ 0x5EED, 20))
    before = reference()
    rounds = 0
    start = perf_counter()
    while True:
        round_start = perf_counter()
        for k, config in enumerate(configs):
            raw_setups = [set_up(w) for _ in range(setups_per_chunk)]
            cpu, r = one_pass(w, config)
            after = reference()
            cpu_scale = REFERENCE_S / ((before[0] + after[0]) / 2)
            wall_scale = REFERENCE_S / ((before[1] + after[1]) / 2)
            setups.extend(s * REFERENCE_S / before[0] for s in raw_setups)
            refs.append(after[0])
            before = after
            failures[k].add(r.logical_failures)
            raw_cpu.append(cpu)
            seen[k].append((cpu * cpu_scale, r.decode_p50_us * wall_scale,
                            r.decode_p99_us * wall_scale))
        rounds += 1
        now = perf_counter()
        if now - start + (now - round_start) > seconds:
            break
    correct = all(len(f) == 1 for f in failures)
    if not correct:
        notes.append("the failure count of a chunk differs between rounds of the same shots")
    total_failures = sum(min(f) for f in failures)
    correct &= check_failures(name, w, seed, total_failures, notes)
    per_chunk = [tuple(statistics.median(col) for col in zip(*chunk)) for chunk in seen]
    notes.append(f"{rounds} rounds of {w.chunks} chunks x {w.chunk_shots} shots; "
                 f"decode latency samples per chunk: {w.chunk_shots}; "
                 f"set-up samples: {len(setups)}")
    notes.append(f"reference loop CPU s: median {statistics.median(refs):.4f}, "
                 f"min {min(refs):.4f}, max {max(refs):.4f} (scaled to {REFERENCE_S}); "
                 f"unscaled shots per CPU s: {rounds * w.shots / sum(raw_cpu):.6g}")
    metrics = {
        "shots_per_cpu_s": (w.shots / sum(c[0] for c in per_chunk), "1/s"),
        "decode_p50_us": (statistics.median(c[1] for c in per_chunk), "us"),
        "decode_p99_us": (statistics.median(c[2] for c in per_chunk), "us"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "logical_error_rate": (total_failures / w.shots, "share"),
    }
    return correct, rounds * w.shots, 0, metrics


def measure_traced(name: str, w: Workload, seed: int, notes: list[str], update: bool):
    """Traced run: per-layer metrics, soundness and the output digest."""
    from tracing import Tracer

    configs = chunk_configs(w, seed)
    plain = [one_pass(w, config) for config in configs]
    tracer = Tracer()
    tracer.install()
    work = ROOT / f".perfbench_work-{os.getpid()}"
    if w.threads > 1:
        work.mkdir()
        tracer.follow_forked_workers(work)
    traced = []
    workers = 0
    try:
        for config in configs:
            traced.append(one_pass(w, config))
            if w.threads > 1:
                workers += tracer.merge_dumps(work)
    finally:
        tracer.uninstall()
        if w.threads > 1:
            shutil.rmtree(work)
    if w.threads > 1:
        notes.append(f"merged the traces of {workers} pool worker processes")
        if not workers:
            notes.append("pool workers were not forked from this process, so their "
                         "layers are unmeasured and their outputs unchecked")
    for missing in tracer.missing:
        notes.append(f"public name {missing} is gone; its per-layer metrics are dropped")

    metrics = tracer.layer_metrics()
    metrics["trace.overhead_share"] = (
        sum(cpu for cpu, _ in traced) / sum(cpu for cpu, _ in plain) - 1.0, "share")
    counts = tracer.counts
    outputs = int(counts.get("check.outputs", 0))
    failed = int(counts.get("check.raised", 0) + counts.get("check.unsound", 0))
    failures = sum(r.logical_failures for _, r in traced)
    correct = failed == 0
    if failures != sum(r.logical_failures for _, r in plain):
        correct = False
        notes.append("the traced round changed the failure count")
    if failed:
        notes.append(f"{int(counts.get('check.raised', 0))} decoder calls raised, "
                     f"{int(counts.get('check.unsound', 0))} returned outputs that do not "
                     "reproduce their syndrome")
    entry = {"shots": w.shots, "failures": failures,
             "decoder_calls": outputs, "outputs_sha256": f"{tracer.digest:064x}"}
    notes.append(f"digest {entry}")
    if update:
        digests = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
        digests[name] = entry
        DIGESTS.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
        notes.append(f"wrote the {name} entry of {DIGESTS.name}")
    else:
        expected = expected_digest(name, w, seed)
        if expected is not None:
            # without decoder hooks or traced workers there are no outputs
            # to hash; the failure count is still compared
            keys = ("shots", "failures", "decoder_calls", "outputs_sha256") if outputs else (
                "shots", "failures")
            if any(expected.get(k) != entry[k] for k in keys):
                correct = False
                notes.append(f"digest mismatch: expected {expected}")
    return correct, w.shots, failed, metrics


def run_one(args) -> int:
    import_package()
    w = WORKLOADS[args.workload]
    usable = len(os.sched_getaffinity(0))
    if w.threads == 1:
        # one CPU for the shot loop and the reference loop alike: a move to
        # the other CPU changes the speed between the two and cools caches
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    print("# env " + json.dumps(environment(w, args.workload, usable)), flush=True)
    notes: list[str] = []
    if args.trace:
        correct, attempted, failed, metrics = measure_traced(
            args.workload, w, args.seed, notes, args.update_digests)
    else:
        correct, attempted, failed, metrics = measure(
            args.workload, w, args.seed, args.seconds, notes)
    for note in notes:
        print("# " + note)
    for key, (value, unit) in metrics.items():
        print(f"{key:24s} {value:16.6g} {unit}")
    print(f"{'failed_shot_share':24s} {failed / attempted:16.6g} share")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }), flush=True)
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload in a fresh process, untraced then traced; one table."""
    columns: dict[str, dict] = {}
    status = 0
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            for line in lines[:-1]:
                if line.startswith("#"):
                    print(f"[{name} trace={trace}] {line[2:]}")
            try:
                result = json.loads(lines[-1])
            except (IndexError, json.JSONDecodeError):
                print(f"[{name} trace={trace}] no result (exit {proc.returncode})")
                status = 1
                continue
            if proc.returncode or not result["correct"]:
                status = 1
            col = columns.setdefault(name, {})
            for key, m in result["metrics"].items():
                col[key] = (m["value"], m["unit"])
            col[f"failed_shot_share(trace={trace})"] = (
                result["failed"] / result["attempted"], "share")
            col[f"correct(trace={trace})"] = (float(result["correct"]), "bool")
    names = list(columns)
    keys = list(dict.fromkeys(k for col in columns.values() for k in col))
    print(f"{'metric':32s} {'unit':7s} " + " ".join(f"{n:>20s}" for n in names))
    for key in keys:
        unit = next(col[key][1] for col in columns.values() if key in col)
        cells = [f"{columns[n][key][0]:20.6g}" if key in columns[n] else f"{'-':>20s}"
                 for n in names]
        print(f"{key:32s} {unit:7s} " + " ".join(cells))
    print(json.dumps({"correct": status == 0, "workloads": names}))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--update-digests", action="store_true",
                        help="with --trace 1 at the default seed: rewrite this "
                        "workload's entry of digests.json instead of checking it")
    args = parser.parse_args(argv)
    if args.update_digests and (args.workload == "all" or not args.trace
                                or args.seed != DEFAULT_SEED):
        parser.error("--update-digests needs one workload, --trace 1 and the default seed")
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
