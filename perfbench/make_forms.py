"""Write the benchmark's form files into perfbench/forms/.

The forms are fixed inputs: the files are checked in and this script only
documents how they were made.  Re-running it rewrites identical files.

    python3 perfbench/make_forms.py
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

FORMS_DIR = Path(__file__).resolve().parent / "forms"


def _diagonal(cells: list[str]) -> list[str]:
    d = len(cells)
    return [cells[i] if i == j else "0" for i in range(d) for j in range(d)]


def _random_positive(d: int, shift: float, rng: np.random.Generator) -> list[str]:
    """A dense positive definite float form with entries on a 1/64 grid, so
    the decimal text is exact."""
    A = rng.normal(size=(d, d))
    M = np.round((A @ A.T + shift * np.eye(d)) * 64) / 64
    return [repr(float(v)) for v in M.ravel()]


def forms() -> dict[str, tuple[str, list[str]]]:
    rng = np.random.default_rng(20260)
    nd6 = _random_positive(6, 3.0, rng)
    nd3 = _random_positive(3, 1.0, rng)
    return {
        # diag(1 + sqrt(2) k / 4), k = 0..8: the irrational d = 9 test form
        "surd9": ("exact", _diagonal(["1"] + [f"1+{k}/4*sqrt(2)" for k in range(1, 9)])),
        # criterion 05's "2-4-6-mix" form
        "mix9": ("exact", _diagonal(["2", "6", "2", "4", "6", "2", "4", "2", "6"])),
        "i9": ("exact", _diagonal(["1"] * 9)),
        "q3": ("exact", _diagonal(["1", "-1", "-1"])),
        "ind3": ("float", _diagonal(["1", repr(-math.sqrt(2)), repr(-math.sqrt(3))])),
        "nd6": ("float", nd6),
        "nd3": ("float", nd3),
    }


def main() -> None:
    FORMS_DIR.mkdir(exist_ok=True)
    for name, (kind, cells) in forms().items():
        (FORMS_DIR / f"{name}.form").write_text(
            f"kind: {kind}\n" + "\n".join(cells) + "\n")


if __name__ == "__main__":
    main()
