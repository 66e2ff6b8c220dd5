"""`tools/bench_digests.py` compares run records without running anything."""

import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

from bench_digests import differences  # noqa: E402


def runs(changes=None):
    """Two workloads' run dicts, {(workload, seed): (failed share,
    {operation: (digest, ok)})}, with `changes` replacing whole runs (None
    drops one)."""
    base = {
        ("ruled-euclid", 1): (Fraction(1, 3), {"fold": ("aa", False), "certify": ("bb", True)}),
        ("cat-model", 1): (Fraction(0), {"self": ("cc", True)}),
    }
    base.update(changes or {})
    return {key: run for key, run in base.items() if run is not None}


def test_equal_runs_differ_nowhere():
    assert differences(runs(), runs()) == []


def test_a_changed_digest_is_one_line():
    other = runs({("ruled-euclid", 1): (
        Fraction(1, 3), {"fold": ("aa", False), "certify": ("b2", True)}
    )})
    assert differences(runs(), other) == ["ruled-euclid seed 1 certify: digest bb vs b2"]


def test_a_changed_failed_share_is_one_line():
    other = runs({("cat-model", 1): (Fraction(1, 7), {"self": ("cc", True)})})
    assert differences(runs(), other) == ["cat-model seed 1: failed share 0 vs 1/7"]


def test_a_run_on_one_side_only_is_one_line():
    one_sided = ["cat-model seed 1: run in one checkout only"]
    dropped = runs({("cat-model", 1): None})
    assert differences(runs(), dropped) == one_sided
    assert differences(dropped, runs()) == one_sided
