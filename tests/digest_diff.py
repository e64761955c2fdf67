"""How far the values behind moved digests moved.

The digest scripts (``tests/test_exponent.py``, ``test_factor.py``,
``test_lawio.py`` and ``test_map_triplet.py``) write the arrays behind
their digests to the ``.npz`` file named on their command line. Run one at
two commits, then compare:

    PYTHONPATH=src python tests/test_exponent.py old.npz   # at the old commit
    PYTHONPATH=src python tests/test_exponent.py new.npz   # at the new one
    python tests/digest_diff.py old.npz new.npz

Per key whose bytes differ it prints the largest absolute difference and
the largest difference relative to the old value's magnitude, the figure
to record before a golden is regenerated.
"""

import sys

import numpy as np


def save_arrays(arrays: dict[str, np.ndarray], argv: list[str]) -> None:
    """Write ``arrays`` to each argument of ``argv`` that names an .npz file."""
    for path in argv:
        if path.endswith(".npz"):
            np.savez(path, **arrays)


def moved(old: dict, new: dict) -> list[str]:
    """One line per key whose array differs: its largest absolute and relative change."""
    lines = []
    for key in sorted(set(old) | set(new)):
        if key not in old or key not in new:
            lines.append(f"{key}: only in {'new' if key in new else 'old'}")
            continue
        a, b = np.asarray(old[key]), np.asarray(new[key])
        if a.shape != b.shape:
            lines.append(f"{key}: shape {a.shape} -> {b.shape}")
        elif a.tobytes() != b.tobytes():
            diff = np.abs(b - a)
            scale = np.abs(a)
            with np.errstate(divide="ignore", invalid="ignore"):
                rel = np.where(diff == 0.0, 0.0, diff / scale)
            lines.append(f"{key}: abs {np.max(diff):.3e} rel {np.max(rel):.3e}")
    return lines


if __name__ == "__main__":
    old_path, new_path = sys.argv[1:3]
    with np.load(old_path) as old, np.load(new_path) as new:
        for line in moved(dict(old), dict(new)):
            print(line)
