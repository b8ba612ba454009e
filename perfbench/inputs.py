"""Fixed-seed matrix inputs for the benchmark workloads.

The same (workload, seed) always writes the same files.  The program under
test only ever sees these files; the benchmark keeps the exact rows in
memory for its reference computations.

    python3 perfbench/inputs.py --workload dense-cli --seed 1 --out DIR

writes the files and prints a JSON summary of what was made.
"""

from __future__ import annotations

import argparse
import json
import math
import random
from fractions import Fraction
from pathlib import Path

from refs import ryser_permanent

SPARSE_MATRICES = (
    "b10w2a.json", "b10w1a.csv", "b10w2b.csv", "b10w2c.json",
    "b10w2d.csv", "b10w1b.json", "b10w2e.json", "b10w2f.csv",
)

# Share of entries that are proper fractions.  Their count is exact and their
# denominators cycle through 2..7, with numerators coprime to them, so every
# matrix of a shape carries the same denominators: seeds then differ in values
# and positions, not in how much rational arithmetic they cost.
RATIONAL_SHARE = 0.3
NUMERATORS = [v for v in range(-9, 10) if v]
DENOMINATORS = range(2, 8)


def banded(n: int, bandwidth: int, rational: bool, rng: random.Random):
    """n x n matrix, nonzero exactly where |i-j| <= bandwidth.

    Every entry inside the band is nonzero, so the set of permutations with a
    nonzero product depends only on (n, bandwidth).
    """
    cells = [(i, j) for i in range(n) for j in range(n) if abs(i - j) <= bandwidth]
    denominators = {}
    if rational:
        picked = rng.sample(cells, round(RATIONAL_SHARE * len(cells)))
        denominators = {cell: DENOMINATORS[k % len(DENOMINATORS)] for k, cell in enumerate(picked)}
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i, j in cells:
        den = denominators.get((i, j), 1)
        num = rng.choice([a for a in NUMERATORS if math.gcd(a, den) == 1])
        rows[i][j] = Fraction(num, den)
    return rows


def dense(n: int, rational: bool, rng: random.Random):
    return banded(n, n, rational, rng)


def toeplitz01(n: int):
    """The 0/1 tridiagonal Toeplitz matrix: 1 exactly where |i-j| = 1."""
    return [[Fraction(int(abs(i - j) == 1)) for j in range(n)] for i in range(n)]


def write_matrix(path: Path, rows) -> None:
    """CSV for .csv paths, the {"n", "entries"} JSON form otherwise."""
    if path.suffix == ".csv":
        path.write_text("".join(",".join(str(e) for e in row) + "\n" for row in rows))
    else:
        payload = {"n": len(rows), "entries": [[str(e) for e in row] for row in rows]}
        path.write_text(json.dumps(payload) + "\n")


def make(workload: str, seed: int) -> dict[str, list[list[Fraction]]]:
    """File name -> rows for one workload and seed."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "dense-cli":
        return {
            "d8i.csv": dense(8, False, rng),
            "d8r.json": dense(8, True, rng),
        }
    if workload == "expand-cli":
        return {
            "t10.json": toeplitz01(10),
            "tri9.csv": banded(9, 1, True, rng),
        }
    if workload == "sparse-lib":
        # Three bandwidth-2 matrices to each bandwidth-1 one, so the median
        # evaluation falls among the bandwidth-2 ones; eight matrices average
        # out how costly one seed's entries happen to be.
        return {name: banded(10, int(name[4]), True, rng) for name in SPARSE_MATRICES}
    raise ValueError(f"unknown workload {workload!r}")


def write(workload: str, seed: int, out: Path) -> dict[str, list[list[Fraction]]]:
    out.mkdir(parents=True, exist_ok=True)
    matrices = make(workload, seed)
    for name, rows in matrices.items():
        write_matrix(out / name, rows)
    return matrices


def describe(matrices) -> dict:
    """n, nonzero count, rational count and nonzero-permutation count of each matrix."""
    out = {}
    for name, rows in matrices.items():
        pattern = [[Fraction(int(bool(e))) for e in row] for row in rows]
        out[name] = {
            "n": len(rows),
            "nonzero": sum(1 for row in rows for e in row if e),
            "rational": sum(1 for row in rows for e in row if e.denominator != 1),
            "nonzero_permutations": int(ryser_permanent(pattern)),
        }
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    print(json.dumps(describe(write(args.workload, args.seed, args.out)), indent=1))


if __name__ == "__main__":
    main()
