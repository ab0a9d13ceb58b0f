"""The draws of every lemma suite, pinned in a committed file.

For each suite, at small sizes and one seed, the file holds a CRC32 of
what the suite hands to its checks (pivot families, q-set matrices, graph
edge texts, alpha-rho inputs, the biorthogonality matrices and their
Gauss-Jordan inverses) and the suite's ``SuiteResult``.  Every entry is
read at a seam the suite calls through a module attribute, and holds no
float that a BLAS kernel computed, except the q-set thresholds, which are
kept to ten significant digits.  So "the same draws" stays checkable when
the way a suite opens its streams or runs its kernels changes.

Write the file from the current commit with::

    PYTHONPATH=src python tests/test_suite_draws.py --write
"""

import json
import os
import sys
import zlib
from contextlib import contextmanager
from dataclasses import asdict

import numpy as np

from sminlab import alphaeta, combinatorics, linalg, suites

SEED = 26
GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", f"suite_draws_seed{SEED}.json")


class Digest:
    """A running CRC32 of arrays (with their dtype and shape) and texts,
    and the number of items taken in."""

    def __init__(self):
        self.crc = 0
        self.items = 0

    def add(self, *values) -> None:
        for value in values:
            if isinstance(value, np.ndarray):
                head = f"{value.dtype.str}{value.shape}".encode()
                self.crc = zlib.crc32(head + np.ascontiguousarray(value).tobytes(), self.crc)
            else:
                self.crc = zlib.crc32(str(value).encode(), self.crc)
            self.items += 1


@contextmanager
def spied(seams, digest: Digest):
    """Every ``(module, name, record)`` of ``seams`` wrapped so that a call
    hands its arguments and result to ``record(digest, result, *args)``."""
    saved = [(module, name, getattr(module, name)) for module, name, _ in seams]

    def wrap(function, record):
        def spy(*args):
            result = function(*args)
            record(digest, result, *args)
            return result

        return spy

    try:
        for (module, name, record), (_, _, function) in zip(seams, saved):
            setattr(module, name, wrap(function, record))
        yield
    finally:
        for module, name, function in saved:
            setattr(module, name, function)


def _family(digest, result, X, d, a, b):
    digest.add(X)


def _matrices(digest, result, X, *rest):
    digest.add(X)


def _thresholds(digest, result, A, sets, inside, tau, high):
    digest.add(inside, *(f"{v:.9e}" for v in np.concatenate([tau, high]).tolist()))


def _decomposition(digest, result, G, i, depth, *mode):
    digest.add(G.to_edge_text(), i, depth, [sorted(s) for s in result.s_seq])


def _dichotomy(digest, result, G, G_tilde, i, L):
    digest.add(G.to_edge_text(), G_tilde.to_edge_text(), i, L, result.min_half_cover, result.vl.hex())


def _structures(digest, result, structures):
    for inputs, report in zip(structures, result):
        digest.add(inputs.psi, inputs.lam, *inputs.factors, *inputs.classes, inputs.event, *inputs.cells)
        digest.add(report.lhs.hex(), report.min_ratio_sum.hex(), report.event_probability.hex())


def _inverses(digest, result, stacks):
    for A, inverses in zip(stacks, result):
        digest.add(A, inverses)


# suite -> (keyword arguments, seams)
PLAN = {
    "pivot": ({"instances": 300}, [(combinatorics, "_pivot_indices", _family)]),
    "q-sets": (
        {"instances": 60},
        [(linalg, "_row_profile", _matrices), (combinatorics, "_q_masks", _thresholds)],
    ),
    "edge-interval": ({"instances": 20}, [(combinatorics, "greedy_decomposition", _decomposition)]),
    "low-value": (
        {"matrices": 4, "triple_matrices": 3},
        [(combinatorics, "_comparison_graphs", _matrices)],
    ),
    "dichotomy": ({"instances": 30}, [(combinatorics, "two_graphs_dichotomy", _dichotomy)]),
    "alpharho": ({"instances": 40}, [(alphaeta, "_verify_batch", _structures)]),
    "biorthogonality": (
        {"instances": 60},
        [
            (linalg, "_stack_extremes", _matrices),
            (linalg, "_extremes", _matrices),
            (suites, "_inverses", _inverses),
        ],
    ),
}


def suite_draws(name: str) -> dict:
    """The entry of suite ``name``: the CRC32 of what it handed to its
    seams, how many items that was, and its result."""
    kwargs, seams = PLAN[name]
    digest = Digest()
    runner = suites.SUITES[name]
    with spied(seams, digest):
        result = runner(seed=SEED, **kwargs)
    return {"crc32": digest.crc, "items": digest.items, "result": asdict(result)}


def all_draws() -> dict:
    return {"seed": SEED, "suites": {name: suite_draws(name) for name in PLAN}}


def test_every_suite_draws_what_the_golden_file_holds():
    with open(GOLDEN, encoding="utf-8") as fh:
        want = json.load(fh)
    got = all_draws()
    assert got["seed"] == want["seed"]
    moved = [
        f"{name}.{key}: {got['suites'][name][key]!r} != {want['suites'][name][key]!r}"
        for name in PLAN
        for key in ("crc32", "items", "result")
        if got["suites"][name][key] != want["suites"][name][key]
    ]
    assert not moved, "\n".join(moved)
    assert sorted(want["suites"]) == sorted(PLAN)
    # a seam the suite no longer calls would pin nothing
    assert all(entry["items"] > 0 for entry in got["suites"].values())


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_suite_draws.py --write")
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(all_draws(), fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {GOLDEN}")
