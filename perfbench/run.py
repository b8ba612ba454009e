"""Benchmark for quasimm: one workload, one seed, one run.

    python3 perfbench/run.py --workload dense-cli|expand-cli|sparse-lib \
        --seed N --seconds S --trace 0|1

Run it from the root of a quasimm checkout; the package is used from
./src as it stands, with nothing installed.  The run generates its inputs
from the seed, measures whole rounds of the workload's operations for S
seconds (another round starts only while it should end in time, and there
is always one), checks every output against references computed
without quasimm, writes a results file under .perfbench/results/ and prints
as its last line

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones, measured with nothing
traced; with --trace 1 the same operations are replayed with spans around
quasimm's public functions and the metrics are per layer.  All load comes
from this one process; at most one quasimm process works at a time, and
each result is awaited before the next request is sent (closed loop).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
from spans import COUNTS, TIMED_LAYERS, self_times  # noqa: E402
from inputs import SPARSE_MATRICES  # noqa: E402
from workloads import (  # noqa: E402
    CLI_OPS,
    STARTUP_ARGV,
    STARTUP_OUTPUT,
    References,
    check_sparse_sum_rule,
    sparse_kind,
    sparse_references,
)

WORKLOADS = ("dense-cli", "expand-cli", "sparse-lib")
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {f"{layer}_s": "s" for layer in TIMED_LAYERS}
PER_LAYER.update({"cli.startup_s": "s"})
PER_LAYER.update({name: "count" for name in COUNTS})

CLI_STARTUP_REPS = 9  # fresh processes timed for the CLI workloads' setup_s
SPARSE_SETUP_REPS = 3  # cold library set-ups timed for sparse-lib's setup_s
OP_LIMIT_S = 60  # one CLI command
RUN_LIMIT_S = 170  # the whole run, set-up included


def cpus() -> list[int]:
    """The CPUs this process may run on, or [] where affinity cannot be set."""
    return sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_setaffinity") else []


def pin(cpu_list: list[int], turn: int) -> None:
    """Bind this process, and so the next child it starts, to one CPU in turn.

    On a shared host one virtual CPU can be slowed by other tenants for tens
    of seconds while another runs at full speed.  Taking turns spreads each
    operation's repetitions over every CPU, so its fastest repetition does
    not depend on where the scheduler happened to keep the run.
    """
    if cpu_list:
        try:
            os.sched_setaffinity(0, {cpu_list[turn % len(cpu_list)]})
        except OSError:  # a sandbox may refuse; the run is then only less steady
            pass


class BenchError(Exception):
    """The run cannot produce a result (no checkout, set-up failed, worker died)."""


class Run:
    def __init__(self, workload: str, seed: int, seconds: float, trace: bool):
        self.root = Path.cwd()
        self.src = self.root / "src"
        if not (self.src / "quasimm" / "__init__.py").is_file():
            raise BenchError(f"no quasimm package under {self.src}; run from a checkout's root")
        self.workload, self.seed, self.seconds, self.trace = workload, seed, seconds, trace
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.dir = self.root / ".perfbench" / f"{workload}-seed{seed}-trace{int(trace)}"
        self.matrices = inputs.write(workload, seed, self.dir / "inputs")
        self.ref = References(self.matrices)
        self.env = dict(os.environ, PYTHONPATH=str(self.src))
        self.env.pop("PYTHONSTARTUP", None)
        self.cpus = cpus()

    def remaining(self) -> float:
        return self.deadline - time.monotonic()

    # ------------------------------------------------------------ CLI workloads

    def cli(self, argv: list[str]) -> dict:
        """Run one quasimm command in a fresh process, traced or not; never raises on its failure."""
        limit = min(OP_LIMIT_S, self.remaining())
        if limit <= 0:
            return {"seconds": 0.0, "rc": None, "stdout": "", "error": "run time limit reached"}
        if self.trace:
            cmd = [sys.executable, str(HERE / "spans.py"), "--spawned-at", repr(time.monotonic()), "--"]
        else:
            cmd = [sys.executable, "-m", "quasimm"]
        start = time.perf_counter()
        try:
            proc = subprocess.run(
                cmd + argv, cwd=self.dir / "inputs", env=self.env,
                capture_output=True, text=True, timeout=limit,
            )
        except subprocess.TimeoutExpired:
            return {"seconds": time.perf_counter() - start, "rc": None, "stdout": "",
                    "error": f"over the {limit:.0f} s limit"}
        record = {"seconds": time.perf_counter() - start, "rc": proc.returncode,
                  "stdout": proc.stdout, "error": None}
        stderr = proc.stderr
        if self.trace and proc.returncode == 0:
            traced = json.loads(proc.stdout.splitlines()[-1])
            self._same_package(traced["quasimm"])
            stderr = traced["stderr"]
            record.update(rc=traced["rc"], stdout=traced["stdout"], spans=traced["spans"],
                          counts=traced["counts"], startup_s=traced["startup_s"])
        if record["rc"] != 0:
            record["error"] = f"exit {record['rc']}: {stderr.strip()[-300:]}"
        return record

    def _same_package(self, path: str) -> None:
        if not Path(path).resolve().is_relative_to(self.src.resolve()):
            raise BenchError(f"quasimm was imported from {path}, not from {self.src}")

    def run_cli(self) -> dict:
        setup = []
        if not self.trace:
            for rep in range(CLI_STARTUP_REPS):
                pin(self.cpus, rep)
                probe = self.cli(STARTUP_ARGV)
                if probe["rc"] != 0 or probe["stdout"].strip() != STARTUP_OUTPUT:
                    raise BenchError(f"start-up command failed: {probe}")
                setup.append(probe["seconds"])
        ops = CLI_OPS[self.workload]()
        rounds, records = [], []
        loop_start = time.perf_counter()
        while not rounds or time.perf_counter() - loop_start + rounds[-1] <= self.seconds:
            round_start = time.perf_counter()
            for index, op in enumerate(ops):
                pin(self.cpus, index + len(rounds))
                records.append({"round": len(rounds), "op": op.name, "kind": op.kind, **self.cli(op.argv)})
            rounds.append(time.perf_counter() - round_start)
        self.check_cli(ops, records)
        return {"setup": setup, "rounds": rounds, "records": records}

    def check_cli(self, ops, records) -> None:
        by_name = {op.name: op for op in ops}
        outputs: dict[int, dict[str, str]] = {}
        for rec in records:
            if rec["error"] is None:
                outputs.setdefault(rec["round"], {})[rec["op"]] = rec["stdout"]
        verdicts: dict = {}
        for rec in records:
            if rec["error"] is not None:
                continue
            op = by_name[rec["op"]]
            seen = outputs[rec["round"]]
            if any(name not in seen for name in op.needs):
                rec["error"] = "an operation this check reads failed"
                continue
            key = (op.name, rec["stdout"]) + tuple(seen[name] for name in op.needs)
            if key not in verdicts:
                try:
                    verdicts[key] = op.check(rec["stdout"], seen, self.ref)
                except (ValueError, KeyError, IndexError, ZeroDivisionError) as exc:
                    verdicts[key] = f"unreadable output: {type(exc).__name__}: {exc}"
            rec["mismatch"] = verdicts[key]

    # ------------------------------------------------------------ sparse-lib

    def worker_cmd(self, out: Path, setup_only: bool, pauses: int = 0) -> list[str]:
        return [
            sys.executable, str(HERE / "sparse_worker.py"), "--inputs", str(self.dir / "inputs"),
            "--seconds", str(self.seconds), "--setup-only", str(int(setup_only)), "--pauses", str(pauses),
            "--trace", str(int(self.trace)), "--spawned-at", repr(time.monotonic()), "--out", str(out),
        ]

    def payload(self, out: Path) -> dict:
        payload = json.loads(out.read_text())
        self._same_package(payload["quasimm"])
        return payload

    def worker(self, setup_only: bool) -> dict:
        out = self.dir / ("setup.json" if setup_only else "worker.json")
        try:
            proc = subprocess.run(self.worker_cmd(out, setup_only), cwd=self.root, env=self.env,
                                  capture_output=True, text=True, timeout=max(1.0, self.remaining()))
        except subprocess.TimeoutExpired:
            raise BenchError("library worker passed the run time limit") from None
        if proc.returncode:
            raise BenchError(f"library worker exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
        return self.payload(out)

    def paused_worker(self, cold_setups: int) -> tuple[dict, list[float]]:
        """The measuring worker, with cold set-ups run in the pauses it makes in its loop.

        Its rounds then span the whole run, set-ups included, rather than
        one stretch of --seconds: a machine that is slow for that stretch
        is less likely to be slow for all of it.  Returns the worker's
        results and the cold set-up times.
        """
        out, err = self.dir / "worker.json", self.dir / "worker.err"
        setups: list[float] = []
        with open(err, "w") as err_file:
            proc = subprocess.Popen(self.worker_cmd(out, False, cold_setups), cwd=self.root, env=self.env,
                                    stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=err_file, text=True)
            watchdog = threading.Timer(max(1.0, self.remaining()), proc.kill)
            watchdog.start()
            try:
                for line in proc.stdout:
                    if line.strip() == "pause":
                        setups.append(self.worker(setup_only=True)["setup_s"])
                        try:
                            proc.stdin.write("go\n")
                            proc.stdin.flush()
                        except BrokenPipeError:  # the worker died; its exit code says why
                            break
                proc.wait()
            finally:
                watchdog.cancel()
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        if proc.returncode:
            raise BenchError(f"library worker exited {proc.returncode}: {err.read_text().strip()[-500:]}")
        while len(setups) < cold_setups:  # a loop too short for every pause
            setups.append(self.worker(setup_only=True)["setup_s"])
        return self.payload(out), setups

    def run_sparse(self) -> dict:
        main, cold = self.paused_worker(0 if self.trace else SPARSE_SETUP_REPS - 1)
        setups = [main["setup_s"]] + cold
        qs424 = {tuple(map(int, b.split(","))): Fraction(c) for b, c in main["expansions"]["4,2,4"].items()}
        expected = {name: sparse_references(self.ref, name, qs424) for name in SPARSE_MATRICES}
        # Wrong set-up results make the run incorrect without counting as operations.
        wrong = [check_sparse_sum_rule(main["expansions"])]
        for name, value in main["setup_evals"].items():
            want = expected[SPARSE_MATRICES[0]][name]
            wrong.append(None if value == str(want) else f"cold {name}: expected {want}, got {value}")
        records = []
        for rnd, index, name, value, seconds, error in main["evals"]:
            want = expected[SPARSE_MATRICES[index]][name]
            records.append({
                "round": rnd, "op": f"{SPARSE_MATRICES[index]}:{name}", "kind": sparse_kind(name),
                "seconds": seconds, "error": error,
                "mismatch": None if error or value == str(want) else f"expected {want}, got {value}",
            })
        return {"setup": setups, "rounds": main["rounds"], "records": records, "worker": main,
                "setup_mismatches": [w for w in wrong if w]}

    # ------------------------------------------------------------ metrics

    def end_to_end(self, result) -> dict:
        """Timings from each operation's fastest repetition in the run.

        Other tenants of a shared machine only ever add time, in bursts that
        come and go within seconds, so the fastest of an operation's
        repetitions, spread over the run's rounds, is the estimate least
        disturbed by them.  wall_s sums them over the operation list.
        """
        records, rounds = result["records"], result["rounds"]
        best: dict[str, float] = {}
        kind: dict[str, str] = {}
        for rec in records:
            best[rec["op"]] = min(best.get(rec["op"], rec["seconds"]), rec["seconds"])
            kind[rec["op"]] = rec["kind"]

        def total(wanted):
            return sum(t for op, t in best.items() if kind[op] == wanted)

        latencies = sorted(rec["seconds"] for rec in records)
        return {
            "wall_s": sum(best.values()),
            "setup_s": statistics.median(result["setup"]) if result["setup"] else None,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
            # Written to the results file only (README: End-to-end metrics).
            "qimm_s": total("qimm"),
            "op_p50_ms": 1000 * statistics.median(best.values()),
            "classic_s": total("classic"),
            "verify_s": total("verify"),
            "expand_s": total("expand"),
            "ops_per_s": len(records) / sum(rounds),
            "op_tail_ms": 1000 * latencies[-11] if len(latencies) >= 40 else None,
        }

    def per_layer(self, result) -> dict:
        """Per-layer self times and counts: set-up phase plus the median round."""
        per_op: dict[str, dict[str, float]] = {}
        startups = []
        if self.workload == "sparse-lib":
            worker = result["worker"]
            for op, layers in self_times(worker["spans"]).items():
                per_op[op] = {f"{k}_s": v for k, v in layers.items()}
            for op, counts in worker["counts"].items():
                per_op.setdefault(op, {}).update(counts)
            startups.append(worker["startup_s"])
        else:
            for rec in result["records"]:
                if "spans" not in rec:
                    continue
                bucket = per_op.setdefault(str(rec["round"]), {})
                for layer, value in self_times(rec["spans"]).get("cli", {}).items():
                    bucket[f"{layer}_s"] = bucket.get(f"{layer}_s", 0.0) + value
                for name, value in rec["counts"].items():
                    bucket[name] = bucket.get(name, 0) + value
                startups.append(rec["startup_s"])
        metrics = {}
        for name in PER_LAYER:
            if name == "cli.startup_s":
                metrics[name] = statistics.median(startups) if startups else 0.0
                continue
            setup = per_op.get("setup", {}).get(name, 0)
            by_round = [per_op.get(str(r), {}).get(name, 0) for r in range(len(result["rounds"]))]
            metrics[name] = setup + statistics.median(by_round)
        return metrics


def revision(root: Path) -> dict:
    """Git revision when the checkout is a repository, and a hash of src/ always."""
    git = None
    if (root / ".git").exists():
        try:
            git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                 text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            git = None
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return {"git": git, "src_sha256": digest.hexdigest()}


def main() -> int:
    parser = argparse.ArgumentParser(description="quasimm benchmark, one workload and seed")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        run = Run(args.workload, args.seed, args.seconds, bool(args.trace))
        result = run.run_sparse() if args.workload == "sparse-lib" else run.run_cli()
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    records = result["records"]
    failed = sum(1 for rec in records if rec["error"] or rec.get("mismatch"))
    setup_mismatches = result.get("setup_mismatches", [])
    correct = not setup_mismatches and not any(rec.get("mismatch") for rec in records)
    measured = run.end_to_end(result)
    if args.trace:
        values, units = run.per_layer(result), PER_LAYER
    else:
        values, units = measured, END_TO_END
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}

    results_dir = run.root / ".perfbench" / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "machine": {"nproc": os.cpu_count(), "python": sys.version, "platform": platform.platform()},
        "revision": revision(run.root),
        "inputs": inputs.describe(run.matrices),
        "attempted": len(records), "failed": failed, "correct": correct,
        "setup_mismatches": setup_mismatches,
        "metrics": metrics, "timings": measured, "rounds": result["rounds"],
        "setup": result["setup"],
        "operations": [{k: v for k, v in rec.items() if k not in ("spans", "stdout")} for rec in records],
    }
    out = results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(detail, indent=1, default=str) + "\n")

    print(f"{args.workload} seed {args.seed}: {len(records)} operations in {len(result['rounds'])} "
          f"round(s), {failed} failed, outputs {'correct' if correct else 'WRONG'}; details in {out}")
    for mismatch in setup_mismatches:
        print(f"  wrong in set-up: {mismatch}")
    for rec in records:
        if rec["error"] or rec.get("mismatch"):
            print(f"  failed {rec['op']} (round {rec['round']}): {rec['error'] or rec['mismatch']}")
    for name, metric in metrics.items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"correct": correct, "attempted": len(records), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
