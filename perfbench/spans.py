"""Span recording around quasimm's public functions, installed from outside the package.

The tracer replaces selected public functions, wherever a quasimm module
holds a reference to them, with wrappers that record a span (layer, start,
end, parent span, operation id) and a few counts.  Spans stay in memory and
are handed out once the run ends.  A layer's self time is the duration of
its spans minus the part covered by their child spans.

Run as a script, it replays one CLI command in a fresh, traced process:

    python3 perfbench/spans.py --spawned-at T -- qimm m.csv qs 2,1^6

and prints one JSON line with the command's output, exit code, spans and
counts.  T is the parent's time.monotonic() when it started this process,
so interpreter start-up plus `import quasimm` can be timed across the two
processes (both read the same system-wide monotonic clock).
"""

from __future__ import annotations

import functools
import importlib
import math
import pkgutil
import time

# Layer of each traced public function.  Names missing from the package are
# skipped, so the benchmark keeps running when a later version drops one.
LAYERS = {
    "qsym": {
        "quasischur": "qsym.build",
        "schur_sym": "qsym.build",
        "elementary_sym": "qsym.build",
        "homogeneous_sym": "qsym.build",
        "monomial_sym": "qsym.build",
        "power_sym": "qsym.build",
        "to_coords": None,  # qsym.coords or qsym.inverse, decided per call
        "format_element": "qsym.format",
        "to_json_dict": "qsym.format",
    },
    "characters": {
        "irreducible_character": "characters.weights",
        "epsilon_coeff": "characters.weights",
        "phi_coeff": "characters.weights",
    },
    "engine": {
        "qimm_coefficient_table": "engine.table",
        "weighted_perm_sum": "engine.pass",
        "permanent": "engine.pass",
        "determinant": "engine.pass",
        "immanant": "engine.pass",
        "second_immanant": "engine.pass",
        "elementary_immanant": "engine.pass",
        "monomial_immanant": "engine.pass",
        "qimm": "engine.pass",
        "qimm_hook_fast": "engine.pass",
        "load_matrix": "cli.load",
    },
    "verification": {
        "verify_hook_rule": "verification.hook_rule",
        "verify_worked_examples": "verification.toeplitz",
        "verify_toeplitz": "verification.toeplitz",
    },
}

TIMED_LAYERS = (
    "qsym.build",
    "qsym.coords",
    "qsym.inverse",
    "qsym.format",
    "characters.weights",
    "engine.table",
    "engine.pass",
    "verification.hook_rule",
    "verification.toeplitz",
    "cli.load",
)
COUNTS = ("qsym.terms", "engine.evals", "verification.checks", "verification.perms")


class Tracer:
    """In-memory span recorder; one per process."""

    def __init__(self):
        self.spans: list = []  # [layer, start, end, parent index, operation id]
        self.counts: dict[str, dict[str, int]] = {}  # operation id -> count name -> value
        self.op = ""
        self._stack: list[int] = []

    def install(self, package) -> None:
        """Wrap every function named in LAYERS in every module of the package."""
        modules = [package] + [
            importlib.import_module(f"{package.__name__}.{info.name}")
            for info in pkgutil.iter_modules(package.__path__)
            if info.name != "__main__"
        ]
        replacements = {}
        for module_name, names in LAYERS.items():
            home = getattr(package, module_name, None)
            for name, layer in names.items():
                original = getattr(home, name, None)
                if callable(original):
                    replacements[id(original)] = self._wrap(original, layer)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if id(value) in replacements:
                    setattr(module, attr, replacements[id(value)])
                elif isinstance(value, dict):
                    # Dispatch tables such as the CLI's basis builders.
                    for key, entry in list(value.items()):
                        if id(entry) in replacements:
                            value[key] = replacements[id(entry)]

    def _wrap(self, fn, layer):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name = layer or _coords_layer(args, kwargs)
            index = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else None
            record = [name, 0.0, 0.0, parent, tracer.op]
            tracer.spans.append(record)
            tracer._stack.append(index)
            record[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                tracer._stack.pop()
            tracer._count(name, parent, args, result)
            return result

        return traced

    def _outermost(self, parent, prefix: str) -> bool:
        while parent is not None:
            if self.spans[parent][0].startswith(prefix):
                return False
            parent = self.spans[parent][3]
        return True

    def _count(self, name, parent, args, result) -> None:
        counts = self.counts.setdefault(self.op, dict.fromkeys(COUNTS, 0))
        if name.startswith("qsym.") and name != "qsym.format":
            counts["qsym.terms"] += len(getattr(result, "coeffs", ()))
        elif name == "engine.pass" and self._outermost(parent, "engine.pass"):
            counts["engine.evals"] += 1
        elif name.startswith("verification.") and self._outermost(parent, "verification."):
            counts["verification.checks"] += len(getattr(result, "items", ()))
        if name == "verification.hook_rule" and args:
            counts["verification.perms"] += math.factorial(args[0])


def _coords_layer(args, kwargs) -> str:
    q = args[0] if args else kwargs.get("q")
    return "qsym.inverse" if getattr(q, "basis", "M") != "M" else "qsym.coords"


def self_times(spans) -> dict[str, dict[str, float]]:
    """Operation id -> layer -> self time (span duration minus child span durations)."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, op in spans:
        if parent is not None:
            child_time[parent] += end - start
    out: dict[str, dict[str, float]] = {}
    for (name, start, end, parent, op), inner in zip(spans, child_time):
        layers = out.setdefault(op, {})
        layers[name] = layers.get(name, 0.0) + (end - start - inner)
    return out


def _replay(argv: list[str], spawned_at: float) -> dict:
    import contextlib
    import io

    import quasimm
    import quasimm.cli

    startup = time.monotonic() - spawned_at
    tracer = Tracer()
    tracer.install(quasimm)
    tracer.op = "cli"
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = quasimm.cli.main(argv)
        except SystemExit as exc:  # argparse rejects the command line
            rc = exc.code if isinstance(exc.code, int) else 2
    return {
        "rc": rc,
        "stdout": out.getvalue(),
        "stderr": err.getvalue(),
        "startup_s": startup,
        "quasimm": quasimm.__file__,
        "spans": tracer.spans,
        "counts": tracer.counts.get("cli", dict.fromkeys(COUNTS, 0)),
    }


def main() -> None:
    import argparse
    import json

    parser = argparse.ArgumentParser(description="Replay one quasimm command with tracing.")
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv
    print(json.dumps(_replay(argv, args.spawned_at)))


if __name__ == "__main__":
    main()
