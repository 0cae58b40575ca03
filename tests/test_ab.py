"""``bench/ab.py``'s one gain rule, its pair order, and its check of the base commit."""

import importlib.util
import shutil
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent


def _load(path: Path, name: str = "ab"):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


ab = _load(REPO / "bench" / "ab.py")

BASE = [10.0 + 0.1 * i for i in range(10)]  # median 10.45, IQR 0.45


def test_nine_wins_of_ten_with_medians_apart_show_a_gain():
    change = [b - 1.0 for b in BASE]
    change[0] = BASE[0] + 0.5
    row = ab.compare(BASE, change)
    assert row["change_wins"] == 9
    assert row["gain_shown"]


def test_eight_wins_of_ten_show_no_gain():
    change = [b - 1.0 for b in BASE]
    change[0], change[1] = BASE[0] + 0.5, BASE[1] + 0.5
    row = ab.compare(BASE, change)
    assert row["change_wins"] == 8
    assert not row["gain_shown"]


@pytest.mark.parametrize("better", ["lower", "higher"])
def test_a_tie_counts_for_neither_side(better):
    change = [b - 1.0 for b in BASE]
    change[0], change[1] = BASE[0], BASE[1]
    row = ab.compare(BASE, change, better)
    assert row["change_wins"] == (8 if better == "lower" else 0)
    assert not row["gain_shown"]


def test_a_higher_metric_flips_the_direction():
    lower = [b - 1.0 for b in BASE]
    assert ab.compare(BASE, lower, "lower")["gain_shown"]
    row = ab.compare(BASE, lower, "higher")
    assert row["change_wins"] == 0 and not row["gain_shown"]
    higher = [b + 1.0 for b in BASE]
    row = ab.compare(BASE, higher, "higher")
    assert row["change_wins"] == 10 and row["gain_shown"]


def test_ten_wins_with_medians_inside_the_base_iqr_show_no_gain():
    base = [10.0 + i for i in range(10)]  # IQR 4.5
    row = ab.compare(base, [b - 0.5 for b in base])
    assert row["change_wins"] == 10
    assert not row["gain_shown"]


def test_alternate_runs_the_base_first_on_even_pairs():
    calls = []
    first, results = ab.alternate(lambda side, i: calls.append((side, i)) or f"{side}{i}", 3)
    assert calls == [("base", 0), ("change", 0), ("change", 1), ("base", 1), ("base", 2), ("change", 2)]
    assert first == ["base", "change", "base"]
    assert results == {"base": ["base0", "base1", "base2"], "change": ["change0", "change1", "change2"]}


def test_a_base_outside_git_without_base_commit_exits_before_any_run(tmp_path, monkeypatch):
    def no_run(*args, **kwargs):
        raise AssertionError("a run started")

    for name in ("alternate", "perfbench", "fresh_blas_threads", "load_tree"):
        monkeypatch.setattr(ab, name, no_run)
    out = tmp_path / "ab.json"
    argv = ["--base", str(tmp_path), "--change", str(REPO), "--workload", "server_round", "--out", str(out)]
    with pytest.raises(SystemExit, match="--base-commit"):
        ab.main(argv)
    assert not out.exists()


def test_the_module_imports_in_a_tree_without_benchmark_json(tmp_path):
    copy = tmp_path / "bench" / "ab.py"
    copy.parent.mkdir()
    shutil.copy(REPO / "bench" / "ab.py", copy)
    module = _load(copy, "ab_without_benchmark")
    assert module.ROOT == tmp_path
    assert module.compare(BASE, BASE)["change_wins"] == 0
