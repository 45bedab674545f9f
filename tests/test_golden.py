"""The CLI's deterministic outputs match the committed golden snapshot."""

from golden.make_golden import GOLDEN_DIR, write_golden


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
    assert not differing, f"outputs differ from the golden snapshot: {differing}"
