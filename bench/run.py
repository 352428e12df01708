#!/usr/bin/env python3
"""Benchmark of the walkdelta command-line tool on fixed instance ladders.

    python3 bench/run.py --workload verify --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout that holds ``src/walkdelta`` and
``BENCHMARK.json``. Every operation is a fresh ``python3 -m walkdelta.cli``
process, as a user starts it, so interpreter start, the numpy import and the
clock module's image caches are paid each time. Each output is checked
against the independent references in ``reference.py``.

The benchmark and its children run on one core, whose speed a
``SpeedProbe`` samples while they run; the end-to-end times are scaled to a
fixed reference speed.

With ``--trace 0`` the run reports the end-to-end metrics; with ``--trace 1``
it runs the same operations in-process under ``tracing.LayerTrace`` and
reports the per-layer metrics. ``--workload all`` runs every workload in
turn. The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the details of a run go to
``bench/results/``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

# One BLAS thread, here and in every child, set before numpy loads: on two
# cores shared with other load, a second thread makes eigh times wander.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

import reference  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SCHEMA = "walkdelta-result-1"

# set-up compiles every circuit at least SETUP_REPS times, and again while
# the compiles took less than SETUP_SECONDS in all
SETUP_REPS, SETUP_SECONDS = 3, 2.0
# the seconds ``speed_work`` takes at the reference speed that end-to-end
# times are scaled to, and how often a SpeedProbe samples
SPEED_REF_S, SPEED_EVERY = 0.005, 0.1
TIME_LIMIT = 150.0  # no round starts later than this after the run began
ETA, THETA, SAMPLES = 1e-9, 1e-3, 40_000  # estimate's noise model and samples
STARTUP_ARGV = ("spectral", "--ell", "2", "--m", "1")


@dataclass(frozen=True)
class Instance:
    name: str
    qubits: int
    layers: tuple  # per layer, the gates as (kind, qubit)
    bits: str  # the input x; bits[q] is qubit q
    ell: int
    vertices: int  # size of the component of s, t and t'

    def circuit_text(self) -> str:
        layers = ("\n".join(f"{k} {q}" for k, q in layer) for layer in self.layers)
        return f"qubits {self.qubits}\n" + "\n---\n".join(layers) + "\n"


H0, H1, SWAP0, TOFFOLI0 = ("h", 0), ("h", 1), ("swap", 0), ("toffoli", 0)
INSTANCES = {
    i.name: i
    for i in (
        Instance("h", 1, ((H0,),), "0", 64, 512),
        Instance("toffoli", 3, ((TOFFOLI0,),), "110", 80, 640),
        Instance("h-swap", 2, ((H0,), (SWAP0,)), "00", 252, 2016),
        Instance("h-swap-h", 2, ((H0,), (SWAP0,), (H1,)), "00", 408, 3264),
        Instance("hh-toffoli", 3, ((H0,), (H1,), (TOFFOLI0,)), "000", 704, 11264),
    )
}

# workload -> (command, ((instance, walk length N or None), ...))
WORKLOADS = {
    "verify": ("verify", (("h", None), ("toffoli", None), ("h-swap", None))),
    "walk-long": ("delta", (("h", 2001), ("h-swap", 1501))),
    "walk-wide": ("delta", (("h-swap-h", 409), ("hh-toffoli", 705))),
    "estimate": ("estimate", (("h", None), ("toffoli", None), ("h-swap", None))),
}

# A traced round also runs, once on PROBE_INSTANCE, each of these commands
# that the workload itself does not run, so that every per-layer metric has
# a measured value on every workload.
PROBE_COMMANDS = ("verify", "estimate")
PROBE_INSTANCE = "h"


@dataclass
class Case:
    """One operation of a round and the reference its output must match."""

    command: str
    inst: Instance
    argv: list
    steps: int | None
    amplitude: reference.QSqrt2
    expected: int | float | None  # Delta(N) for delta, Delta(m)/c^m for estimate

    def label(self) -> str:
        return f"{self.command}:{self.inst.name}" + (f":{self.steps}" if self.steps else "")


# -- checks ----------------------------------------------------------------


def _check_verify(case: Case, doc: dict, out: dict) -> tuple[int, bool]:
    ell = case.inst.ell
    checks = {c["name"]: c for c in out["checks"]}
    comparisons = sum(1 for n in range(ell + 6) if n % 2 != ell % 2)
    right = (
        out["all_passed"] is True
        and doc["passed"] is True
        and checks["master_identity"]["details"]["comparisons"] == comparisons
        and (case.amplitude.is_zero() or out["sigma"] == -1)
    )
    return (0 if out["all_passed"] else 1), right


def _check_delta(case: Case, doc: dict, out: dict) -> tuple[int, bool]:
    value, sign = int(out["delta"]), out["sign"]
    right = (
        out["n"] == case.steps
        and sign == (value > 0) - (value < 0)
        and value == case.expected
    )
    return (0 if sign > 0 else 1 if sign < 0 else 4), right


def _check_estimate(case: Case, doc: dict, out: dict) -> tuple[int, bool]:
    exact, est, bound = out["exact_clipped"], out["estimate"], out["error_bound"]
    if case.amplitude.is_zero():
        exact_ok = abs(exact) <= 1e-12
    else:
        exact_ok = abs(exact - case.expected) <= 1e-6 * abs(case.expected)
    right = (
        exact_ok
        and doc["inputs"]["m"] == (case.inst.ell + 1) ** 3
        and out["vertices"] == case.inst.vertices
        and abs(est - exact) <= bound
        and out["decided"] == (abs(est) > bound)
    )
    code = (0 if out["sign"] > 0 else 1) if out["decided"] else 4
    return code, right


CHECKS = {"verify": _check_verify, "delta": _check_delta, "estimate": _check_estimate}


def judge(case: Case, code: int | None, stdout: str) -> str:
    """'ok'; 'failed' when there is no result or the exit code contradicts
    it; 'wrong' when the result disagrees with the reference."""
    try:
        doc = json.loads(stdout.strip().splitlines()[-1])
        if doc["schema"] != SCHEMA or doc["command"] != case.command:
            return "failed"
        want_code, right = CHECKS[case.command](case, doc, doc["outputs"])
    except (ValueError, KeyError, IndexError, TypeError):
        return "failed"
    if code != want_code:
        return "failed"
    return "ok" if right else "wrong"


def compile_ok(inst: Instance, code: int | None, stdout: str) -> bool:
    try:
        out = json.loads(stdout.strip().splitlines()[-1])["outputs"]
    except (ValueError, KeyError, IndexError):
        return False
    return (
        code == 0
        and out["ell"] == inst.ell
        and out["reachable_vertices"] == inst.vertices
        and out["m"] == (inst.ell + 1) ** 3
    )


# -- machine speed ---------------------------------------------------------

_SPEED_MATRIX = np.random.default_rng(0).standard_normal((96, 96))
_SPEED_MATRIX = _SPEED_MATRIX + _SPEED_MATRIX.T


def speed_work() -> float:
    """Seconds that a fixed few milliseconds of work take now.

    The work mixes what the walkdelta commands do: pure-Python int and dict
    traffic, big-int multiplication and a dense ``eigh``.
    """
    t0 = time.perf_counter()
    table, x = {}, 1
    for i in range(4_000):
        x = (x * 1103515245 + 12345) & 0xFFFFFFFFFFFF
        table[x & 1023] = table.get(x & 1023, 0) + i
    a, b, acc = 3**3000, 7**2500, 0
    for i in range(40):
        acc = (acc + a * b + i) >> 10
    np.linalg.eigh(_SPEED_MATRIX)
    return time.perf_counter() - t0


@dataclass
class Watch:
    """What a SpeedProbe saw while one child ran."""

    samples: list = field(default_factory=list)  # ``speed_work`` seconds
    paused: float = 0.0  # seconds the child was stopped for them

    def scale(self) -> float:
        """The factor that turns the child's wall time into reference
        seconds: the mean speed of the samples over the reference speed, at
        which ``speed_work`` takes SPEED_REF_S."""
        return SPEED_REF_S * statistics.fmean(1 / t for t in self.samples)


class SpeedProbe:
    """Samples the speed of the core while a child process runs on it.

    A core of the shared host changes speed by up to 2x, in spells of
    seconds to minutes, and the two cores do so independently. So the run
    and its children share one core, and every SPEED_EVERY seconds a thread
    stops the watched child (SIGSTOP), times ``speed_work`` on the core it
    then has to itself, and lets the child go on (SIGCONT).
    """

    def __init__(self):
        self._watched = None  # (pid, Watch) of the child being watched
        self._lock = threading.Lock()
        self._done = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()

    def _loop(self) -> None:
        while not self._done.wait(SPEED_EVERY):
            with self._lock:
                if self._watched is None:
                    continue
                pid, watch = self._watched
                t0 = time.perf_counter()
                os.kill(pid, signal.SIGSTOP)
                try:
                    watch.samples.append(speed_work())
                finally:
                    os.kill(pid, signal.SIGCONT)
                    watch.paused += time.perf_counter() - t0

    @contextlib.contextmanager
    def watching(self, pid: int):
        """Sample while the block runs. The child must stay unreaped in it,
        so that its pid cannot be another process's."""
        watch = Watch()
        with self._lock:
            self._watched = (pid, watch)
        try:
            yield watch
        finally:
            with self._lock:
                self._watched = None
            if not watch.samples:  # a child shorter than SPEED_EVERY
                t0 = time.perf_counter()
                watch.samples.append(speed_work())
                watch.paused += time.perf_counter() - t0

    def close(self) -> None:
        self._done.set()
        self._thread.join()


# -- processes -------------------------------------------------------------


class Runner:
    """Starts walkdelta processes on the checkout's sources and times them."""

    def __init__(self, work: Path, deadline: float, probe: bool):
        self.work = work
        self.deadline = deadline
        self.probe = SpeedProbe() if probe else None
        # children keep bytecode caches, as an installed package has them
        self.env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        self.peak_rss_mb = 0.0

    def run(self, argv) -> tuple[float, float, int | None, str]:
        """Wall seconds without the probe's pauses, the same at reference
        speed (the wall seconds again when the runner has no probe), exit
        code (None if killed at the deadline), stdout."""
        timeout = max(1.0, self.deadline + 25.0 - time.perf_counter())
        with open(self.work / "stderr.txt", "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, "-m", "walkdelta.cli", *argv],
                cwd=self.work,
                env=self.env,
                stdout=subprocess.PIPE,
                stderr=err,
            )
            killer = threading.Timer(timeout, proc.kill)
            killer.start()
            try:
                probing = self.probe.watching(proc.pid) if self.probe else contextlib.nullcontext()
                with probing as watch:
                    stdout = proc.stdout.read()  # to the end, when it exits
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                killer.cancel()
                proc.stdout.close()
            seconds = time.perf_counter() - t0
        reference_seconds = seconds
        if watch is not None:
            seconds -= watch.paused
            reference_seconds = seconds * watch.scale()
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_mb = max(self.peak_rss_mb, usage.ru_maxrss * 1024 / 1e6)
        code = None if proc.returncode < 0 else proc.returncode
        return seconds, reference_seconds, code, stdout.decode()

    def startup(self) -> float:
        seconds, _, code, stdout = self.run(STARTUP_ARGV)
        try:
            ok = code == 0 and json.loads(stdout)["outputs"]["corner"] == "1"
        except (ValueError, KeyError):
            ok = False
        if not ok:
            raise SetupError(f"walkdelta {' '.join(STARTUP_ARGV)} failed: {stdout[-300:]!r}")
        return seconds

    def compile(self, inst: Instance) -> tuple[float, float]:
        """Wall seconds and reference seconds of ``walkdelta compile``."""
        circuit = self.work / f"{inst.name}.txt"
        circuit.write_text(inst.circuit_text())
        seconds, reference_seconds, code, stdout = self.run(
            ["compile", "--circuit", str(circuit), "--input", inst.bits, "-o", str(self.instance_file(inst))]
        )
        if not compile_ok(inst, code, stdout):
            raise SetupError(f"walkdelta compile of {inst.name} failed (exit {code})")
        return seconds, reference_seconds

    def instance_file(self, inst: Instance) -> Path:
        return self.work / f"{inst.name}.json"


class SetupError(Exception):
    pass


def make_case(runner: Runner, command: str, inst: Instance, steps, seed: int) -> Case:
    path = str(runner.instance_file(inst))
    if command == "verify":
        argv = ["verify", "--instance", path, "--circuit", str(runner.work / f"{inst.name}.txt"), "--input", inst.bits]
    elif command == "delta":
        argv = ["delta", "--instance", path, "--steps", str(steps)]
    else:
        argv = ["estimate", "--instance", path, "--eta", str(ETA), "--theta", str(THETA),
                "--samples", str(SAMPLES), "--seed", str(seed)]
    d = json.loads(Path(path).read_text())["d_parity"]
    amplitude = reference.return_amplitude(inst.qubits, inst.layers, inst.bits)
    expected = None
    if command == "delta":
        expected = reference.exact_delta(inst.ell, steps, amplitude, d)
    elif command == "estimate":
        m = (inst.ell + 1) ** 3
        expected = reference.scaled_delta(inst.ell, m, float(amplitude), d)
    return Case(command, inst, argv, steps, amplitude, expected)


# -- runs ------------------------------------------------------------------


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    command, members = WORKLOADS[name]
    rng = random.Random(seed)
    work = BENCH / "work" / f"{name}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    runner = Runner(work, time.perf_counter() + TIME_LIMIT, probe=not trace)
    try:
        runner.startup()  # untimed: fills the bytecode cache of a fresh checkout
        insts = [INSTANCES[i] for i, _ in members]
        if trace:
            return traced(name, command, members, insts, runner, rng, seed, seconds)
        setup = {inst.name: [] for inst in insts}
        setup_wall = {inst.name: [] for inst in insts}
        while len(setup[insts[0].name]) < SETUP_REPS or sum(map(sum, setup_wall.values())) < SETUP_SECONDS:
            for inst in insts:
                wall, ref = runner.compile(inst)
                setup_wall[inst.name].append(wall)
                setup[inst.name].append(ref)
        cases = [make_case(runner, command, INSTANCES[i], n, seed) for i, n in members]
        rng.shuffle(cases)
        times = {c.label(): [] for c in cases}
        op_wall = {c.label(): [] for c in cases}
        tally = {"ok": 0, "failed": 0, "wrong": 0}
        start = time.perf_counter()
        while True:
            for case in cases:
                wall, ref, code, stdout = runner.run(case.argv)
                op_wall[case.label()].append(wall)
                times[case.label()].append(ref)
                tally[judge(case, code, stdout)] += 1
            now = time.perf_counter()
            if now - start >= seconds or now >= runner.deadline:
                break
        medians = {k: statistics.median(v) for k, v in times.items()}
        metrics = {
            "setup_s": sum(statistics.median(v) for v in setup.values()),
            "op_s": sum(medians.values()),
            "peak_rss_mb": runner.peak_rss_mb,
        }
        details = {
            "setup_times_s": setup,
            "setup_wall_s": setup_wall,
            "op_medians_s": medians,
            "op_times_s": times,
            "op_wall_s": op_wall,
        }
        return result(name, seed, False, tally, metrics, details)
    finally:
        if runner.probe:
            runner.probe.close()
        shutil.rmtree(work, ignore_errors=True)


def traced(name, command, members, insts, runner, rng, seed, seconds) -> dict:
    sys.path.insert(0, str(SRC))
    from walkdelta import circuits, cli, clock

    import tracing

    probe_inst = INSTANCES[PROBE_INSTANCE]
    for inst in {*insts, probe_inst}:
        runner.compile(inst)
    cases = [make_case(runner, command, INSTANCES[i], n, seed) for i, n in members]
    rng.shuffle(cases)
    cases += [
        make_case(runner, cmd, probe_inst, None, seed)
        for cmd in PROBE_COMMANDS
        if cmd != command
    ]
    parsed = {inst.name: circuits.parse_circuit(inst.circuit_text()) for inst in insts}
    layer = tracing.LayerTrace()
    tally = {"ok": 0, "failed": 0, "wrong": 0}
    errors, rounds, op_times = [], [], {c.label(): [] for c in cases}
    layer.install()
    try:
        start = time.perf_counter()
        while True:
            with layer.span("cli.startup"):
                runner.startup()
            for inst in insts:
                with layer.span("cli.compile"):
                    runner.compile(inst)
            for inst in insts:
                bits = [int(b) for b in inst.bits]
                with layer.operation("compile"), layer.span("clock.compile_circuit"):
                    clock.compile_circuit(parsed[inst.name], bits)
            for case in cases:
                stdout, stderr = io.StringIO(), io.StringIO()
                t0 = time.perf_counter()
                with layer.operation(case.label()):
                    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                        try:
                            code = cli.main(case.argv)
                        except Exception:
                            code = None
                            errors.append(traceback.format_exc())
                op_times[case.label()].append(time.perf_counter() - t0)
                tally[judge(case, code, stdout.getvalue())] += 1
            rounds.append(layer.take())
            now = time.perf_counter()
            if now - start >= seconds or now >= runner.deadline:
                break
    finally:
        layer.uninstall()
    metrics = layer_metrics(rounds, len(insts))
    details = {"rounds": rounds, "op_times_s": op_times, "errors": errors[:3]}
    out = BENCH / "results" / f"{name}-seed{seed}.trace.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(layer.spans))
    return result(name, seed, True, tally, metrics, details)


def layer_metrics(rounds: list[dict], n_instances: int) -> dict:
    """Per-layer metrics: the median over rounds of each round's totals."""
    for r in rounds:
        r["cli.compile_report_s"] = (
            r["cli.compile_s"] - r["clock.compile_circuit_s"] - n_instances * r["cli.startup_s"]
        )
        r["rewriting.steps_per_s"] = r["rewriting.steps"] / r["rewriting.step_s"]
    metrics = {}
    for spec in benchmark_spec()["per_layer"]:
        values = [r.get(spec["name"], 0) for r in rounds]
        if spec["unit"] in ("s", "1/s"):
            metrics[spec["name"]] = statistics.median(values)
        else:
            metrics[spec["name"]] = statistics.median_low(values)
    return metrics


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def result(name, seed, trace, tally, metrics, details) -> dict:
    spec = benchmark_spec()["per_layer" if trace else "end_to_end"]
    doc = {
        "correct": tally["wrong"] == 0,
        "attempted": sum(tally.values()),
        "failed": tally["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in spec},
    }
    out = BENCH / "results" / f"{name}-seed{seed}-trace{int(trace)}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps({"workload": name, "seed": seed, **doc, **details}, indent=1))
    return doc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM, unwind: the running child is killed and waited for, and
    # the work directory removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    # one core for the run and, by inheritance, its children: see SpeedProbe
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if not (SRC / "walkdelta" / "cli.py").is_file():
        print(f"no walkdelta sources under {SRC}", file=sys.stderr)
        return 2
    sys.set_int_max_str_digits(0)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        docs = {n: run_workload(n, args.seed, args.seconds, bool(args.trace)) for n in names}
    except SetupError as exc:
        print(f"set-up failed: {exc}", file=sys.stderr)
        return 1
    if len(docs) == 1:
        print(json.dumps(docs[names[0]]))
        return 0
    for n, doc in docs.items():
        print(json.dumps({"workload": n, **doc}))
    print(
        json.dumps(
            {
                "correct": all(d["correct"] for d in docs.values()),
                "attempted": sum(d["attempted"] for d in docs.values()),
                "failed": sum(d["failed"] for d in docs.values()),
                "metrics": {f"{n}/{k}": v for n, d in docs.items() for k, v in d["metrics"].items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
