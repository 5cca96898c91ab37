"""The A/B runner's pure parts and its verdict, on a trivial job (tools/ab.py)."""

import json
import re
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
import ab  # noqa: E402

# prints the text of the file `tag` in its checkout as the digest
_TAG_CHILD = 'import json; print(json.dumps({"seconds": 1.0, "cpu_seconds": 0.5, "digest": open("tag").read()}))'


@pytest.mark.parametrize("wins, losses, p", [(10, 0, 0.001953125), (0, 10, 0.001953125), (5, 5, 1.0), (0, 0, 1.0), (9, 1, 0.021484375)])
def test_sign_test_p_matches_hand_values(wins, losses, p):
    assert ab.sign_test_p(wins, losses) == p


def test_ties_drop_out_of_the_sign_test():
    """Two wins and two ties: n is 2, so p is 2 * (1/2)^2."""
    runs = {"base": [{"seconds": s, "digest": ""} for s in (2.0, 2.0, 1.0, 1.0)]}
    runs["change"] = [{"seconds": s, "digest": ""} for s in (1.0, 1.0, 1.0, 1.0)]
    seconds = ab.summarize(runs)["seconds"]
    assert (seconds["change_wins"], seconds["ties"], seconds["sign_p"]) == (2, 2, 0.5)
    assert seconds["change_over_base"]["median"] == 0.75


def test_higher_is_better_for_pick_relevance():
    runs = {"base": [{"pick_relevance_mean": 0.5, "digest": ""}], "change": [{"pick_relevance_mean": 0.6, "digest": ""}]}
    assert ab.summarize(runs)["pick_relevance_mean"]["change_wins"] == 1


def checkouts(tmp_path, base_tag, change_tag):
    sides = {"base": tmp_path / "base", "change": tmp_path / "change"}
    for side, tag in (("base", base_tag), ("change", change_tag)):
        sides[side].mkdir()
        (sides[side] / "tag").write_text(tag)
    return sides


def test_pairs_alternate_which_side_goes_first(tmp_path):
    sides = checkouts(tmp_path, "x", "x")
    started = []

    def argv(checkout, work, pair):
        started.append(checkout.name)
        return ["-c", _TAG_CHILD]

    entry = ab.compare(ab.Job("tag", argv), sides, 3, tmp_path)
    assert started == ["base", "change", "change", "base", "base", "change"]
    assert [ab.pair_order(i)[0] for i in range(4)] == ["base", "change", "base", "change"]
    assert entry["same_digests"] and entry["metrics"]["seconds"]["ties"] == 3
    assert all(r["peak_mb"] > 0 for r in entry["runs"]["base"])  # from the launcher's wait4


@pytest.mark.parametrize("change_tag, code", [("x", 0), ("y", 1)])
def test_runner_exits_1_when_digests_differ(tmp_path, change_tag, code):
    sides = checkouts(tmp_path, "x", change_tag)
    out = tmp_path / "bench.json"
    job = ab.Job("tag", lambda checkout, work, pair: ["-c", _TAG_CHILD])
    assert ab.run([job], sides, 2, out, {"environment": {}}) == code
    bench = json.loads(out.read_text())
    assert bench["jobs"]["tag"]["same_digests"] is (code == 0)
    assert bench["jobs"]["tag"]["metrics"]["seconds"]["sign_p"] == 1.0


def test_a_failing_child_names_its_checkout(tmp_path):
    sides = checkouts(tmp_path, "x", "x")
    with pytest.raises(RuntimeError, match=re.escape(f"{sides['base']}: -c raise SystemExit(3) exited with 3")):
        ab.launch(sides["base"], ["-c", "raise SystemExit(3)"])
