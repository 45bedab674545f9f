"""The CLI's deterministic outputs match the committed golden snapshot."""

from itertools import zip_longest

import numpy as np

from golden.make_golden import GOLDEN_DIR, NUMPY_VERSION, write_golden


def test_outputs_match_golden_snapshot(tmp_path):
    written = write_golden(tmp_path)
    stored = sorted(
        p.relative_to(GOLDEN_DIR) for p in GOLDEN_DIR.rglob("*.csv")
    )
    assert sorted(written) == stored
    differing = [
        str(rel) for rel in written
        if (tmp_path / rel).read_bytes() != (GOLDEN_DIR / rel).read_bytes()
    ]
    made_with = NUMPY_VERSION.read_text().strip()
    assert not differing, (
        f"outputs differ from the golden snapshot: {differing}; "
        f"{_first_moved_rows(tmp_path, differing)} (snapshot made with numpy {made_with}, "
        f"running {np.__version__})"
    )


def _first_moved_rows(out_dir, differing) -> str:
    """The first differing row of each differing file, as ``file: expected -> got``."""
    moved = []
    for rel in differing:
        expected = (GOLDEN_DIR / rel).read_text().splitlines()
        got = (out_dir / rel).read_text().splitlines()
        for want, have in zip_longest(expected, got, fillvalue=""):
            if want != have:
                moved.append(f"{rel}: {want!r} -> {have!r}")
                break
    return "; ".join(moved)
