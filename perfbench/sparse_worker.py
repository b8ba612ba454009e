"""The long-lived library process of the sparse-lib workload.

    python3 perfbench/sparse_worker.py --inputs DIR --seconds S --setup-only 0|1 --pauses P
        --trace 0|1 --spawned-at T --out FILE

Set-up is `import quasimm`, building the pool's elements and one cold
evaluation of every pool entry on the first matrix; it is timed as a whole.
Unless --setup-only is 1, the worker then streams the matrix files, each
read with quasimm.load_matrix and evaluated against the whole pool, in whole
rounds, starting another round only while it should end within S seconds.
With P > 0 it pauses P times between rounds, after each (P+1)-th share of
S: it prints "pause" and waits for "go" on standard input, so that the
parent can time cold set-ups in fresh processes in between.
Every evaluation is timed on its own and
bounded by a time limit.  Results go to FILE as JSON: values as exact
strings, so the parent can check them against its own references.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import sys
import time
from fractions import Fraction
from pathlib import Path

from inputs import SPARSE_MATRICES
from workloads import SPARSE_POOL, SPARSE_SUM_RULE

EVAL_LIMIT_S = 30


class EvalTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise EvalTimeout


def build_pool(qm) -> dict:
    """Pool entry name -> one-argument matrix function."""
    pool = {}
    for name, (call, arg) in SPARSE_POOL.items():
        if call == "qimm":
            basis, index = arg
            if basis == "Psi":
                element = qm.QSym("Psi", {alpha: Fraction(c) for alpha, c in index})
            else:
                builder = {
                    "qs": qm.quasischur,
                    "s": qm.schur_sym,
                    "h": qm.homogeneous_sym,
                    "e": qm.elementary_sym,
                }[basis]
                element = builder(index)
            pool[name] = lambda a, q=element: qm.qimm(a, q)
        elif arg is None:
            pool[name] = lambda a, f=call: getattr(qm, f)(a)
        else:
            pool[name] = lambda a, f=call, lam=arg: getattr(qm, f)(a, lam)
    return pool


def timed_eval(fn, matrix):
    """(value as text or None, seconds, error text or None), bounded by EVAL_LIMIT_S."""
    signal.setitimer(signal.ITIMER_REAL, EVAL_LIMIT_S)
    start = time.perf_counter()
    try:
        value = fn(matrix)
    except EvalTimeout:
        return None, time.perf_counter() - start, f"over the {EVAL_LIMIT_S} s limit"
    except Exception as exc:  # a failed evaluation is counted, not fatal
        return None, time.perf_counter() - start, f"{type(exc).__name__}: {exc}"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    return str(value), time.perf_counter() - start, None


def pause() -> None:
    """Tell the parent the loop is between rounds and wait until it says go on."""
    print("pause", flush=True)
    if sys.stdin.readline().strip() != "go":
        sys.exit("the parent did not resume the loop")


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--inputs", type=Path, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--setup-only", type=int, default=0)
    parser.add_argument("--pauses", type=int, default=0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    signal.signal(signal.SIGALRM, _alarm)

    setup_start = time.perf_counter()
    import quasimm as qm

    startup_s = time.monotonic() - args.spawned_at
    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install(qm)
        tracer.op = "setup"
    paths = [args.inputs / name for name in SPARSE_MATRICES]
    first = qm.load_matrix(paths[0])
    pool = build_pool(qm)
    setup_evals = {}
    for name, fn in pool.items():
        value, _, error = timed_eval(fn, first)
        if error:
            sys.exit(f"set-up evaluation {name} failed: {error}")
        setup_evals[name] = value
    setup_s = time.perf_counter() - setup_start

    evals, rounds = [], []
    if not args.setup_only:
        cpu_list = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_setaffinity") else []
        measured, pauses = 0.0, 0
        while not rounds or measured + rounds[-1] <= args.seconds:
            if pauses < args.pauses and measured >= (pauses + 1) * args.seconds / (args.pauses + 1):
                pause()
                pauses += 1
            if cpu_list:  # one CPU per round, in turn: see run.pin
                try:
                    os.sched_setaffinity(0, {cpu_list[len(rounds) % len(cpu_list)]})
                except OSError:
                    cpu_list = []
            round_start = time.perf_counter()
            if tracer:
                tracer.op = str(len(rounds))
            for index, path in enumerate(paths):
                matrix = qm.load_matrix(path)
                for name, fn in pool.items():
                    value, seconds, error = timed_eval(fn, matrix)
                    evals.append([len(rounds), index, name, value, seconds, error])
            rounds.append(time.perf_counter() - round_start)
            measured += rounds[-1]

    if tracer:
        tracer.op = "after"
    # The sum-rule partners of the pool's quasi-Schur element, built after all
    # timing so they cost nothing that is measured.
    expansions = {
        ",".join(map(str, alpha)): {
            ",".join(map(str, beta)): str(c) for beta, c in qm.quasischur(alpha).coeffs.items()
        }
        for alpha in SPARSE_SUM_RULE
    }
    payload = {
        "quasimm": qm.__file__,
        "startup_s": startup_s,
        "setup_s": setup_s,
        "setup_evals": setup_evals,
        "rounds": rounds,
        "evals": evals,
        "expansions": expansions,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer:
        payload["spans"] = tracer.spans
        payload["counts"] = tracer.counts
    args.out.write_text(json.dumps(payload))


if __name__ == "__main__":
    main()
