"""The workload checks report wrong outputs and skip failed ops."""

from harness import OpResult
from loopkit import hierarchy_report
from loopkit.tables import cyclic
from workloads import AbelianRoutes, Analyze, Hunt, digest


def test_hunt_check_compares_verdicts_and_skips_failed_ops():
    results = [OpResult("hunt#0", True, 0.1, False), OpResult("hunt#1", False, 0.1, None, "deadline"),
               OpResult("hunt#2", True, 0.1, True)]
    assert Hunt.record(results) == "0-1"
    assert Hunt(0, None, 1).check(results, "001") == []
    assert Hunt(0, None, 1).check(results, "000") == ["hunt#2: verdict 1 differs from the recorded 0"]


def test_analyze_check_catches_bad_reports():
    text = hierarchy_report(cyclic(4)).to_lines()
    good = [OpResult("analyze#0:pool3", True, 0.1, text)]
    assert Analyze.record(good) == {"pool3": digest(text)}
    assert Analyze.check(None, good, {"pool3": digest(text)}) == []
    assert Analyze.check(None, good, {"pool3": "0" * 16}) == [
        "analyze#0:pool3: report differs from the recorded one"]
    bad = text.replace("mlt_order: 4", "mlt_order: 8")
    assert Analyze.check(None, [OpResult("analyze#0:pool3", True, 0.1, bad)], None) == [
        "analyze#0:pool3: |Mlt| != n * |Inn|"]


def test_abelian_check_catches_disagreeing_routes():
    agree = ((True, True, True, False, False, False, False), False)
    split = ((True, False, True, False, False, False, False), False)
    results = [OpResult("abelian-routes#0.0:pool4", True, 0.1, agree),
               OpResult("abelian-routes#0.1:pool4", True, 0.1, split),
               OpResult("abelian-routes#1.0:pool9", True, 0.1, agree)]
    assert AbelianRoutes.record(results) == {"pool4": "ax"}
    problems = AbelianRoutes(0, None, 1).check(results, {"pool4": "ax"})
    assert len(problems) == 1 and problems[0].startswith("abelian-routes#0.1:pool4: routes disagree")
    assert AbelianRoutes(0, None, 1).check(results[:1] + results[2:], {"pool4": "n"}) == [
        "pool4: verdicts a differ from the recorded n"]
