"""`tools/ab_pairs.py` summarizes paired runs without running anything."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

from ab_pairs import summary  # noqa: E402


def runs(walls, setups=None, rss=None):
    n = len(walls)
    return [
        {"wall_s": w, "setup_s": s, "peak_rss_mb": r}
        for w, s, r in zip(walls, setups or [0.5] * n, rss or [80.0] * n)
    ]


def test_medians_quartiles_and_wins():
    parent = runs([0.05, 0.06, 0.07, 0.08, 0.09])
    change = runs([0.03, 0.07, 0.02, 0.04, 0.09])
    got = summary(parent, change)
    median_a, median_b, (q1, q3), won = got["wall_s"]
    assert (median_a, median_b) == (0.07, 0.04)
    assert (q1, q3) == (0.06, 0.08)
    # The tie (0.09, 0.09) counts for neither side.
    assert won == 3


def test_ties_and_losses_win_nothing():
    parent = runs([0.05, 0.05], setups=[0.4, 0.4], rss=[80.0, 81.0])
    change = runs([0.06, 0.05], setups=[0.4, 0.4], rss=[80.5, 80.9])
    got = summary(parent, change)
    assert got["wall_s"][3] == 0
    assert got["setup_s"][3] == 0
    assert got["peak_rss_mb"][3] == 1
    assert got["peak_rss_mb"][:3] == (80.5, 80.7, (80.25, 80.75))
