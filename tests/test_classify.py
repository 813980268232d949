import random
from itertools import product

import pytest

from conftest import relabel
from coverpack import classify, duality
from coverpack.classify import (
    Classification,
    _antichain_width,
    check_instance,
    connected_graphs,
    theorem_classification,
    verify_theorem,
)
from coverpack.graphs import Graph, complete, cycle, path, star
from coverpack.ideals import DEFAULT_GEN_CAP


def test_classification_n_equals_t():
    for g in [path(4), cycle(5), star(4), complete(6)]:
        c = theorem_classification(g, g.n)
        assert c.verdict and c.case == "n_equals_t"


def test_classification_paths():
    for n in range(4, 10):
        for t in range(3, n):
            c = theorem_classification(path(n), t)
            assert c.verdict and c.case == "path"


def test_classification_cycles():
    special = {(3, 6), (3, 9), (4, 8)}
    for n in range(4, 13):
        for t in range(3, n):
            c = theorem_classification(cycle(n), t)
            if (t, n) in special:
                assert c.verdict and c.case == "cycle_special", (t, n)
            else:
                assert not c.verdict and c.case == "no", (t, n)


def test_classification_other_graphs():
    assert not theorem_classification(star(4), 3).verdict
    assert not theorem_classification(complete(4), 3).verdict


def test_classification_bipartite_rule():
    assert theorem_classification(cycle(6), 2).verdict
    assert theorem_classification(path(5), 2).verdict
    assert not theorem_classification(cycle(7), 2).verdict
    assert not theorem_classification(complete(4), 2).verdict
    assert theorem_classification(cycle(6), 2).case == "bipartite"


def test_classification_guards():
    with pytest.raises(ValueError):
        theorem_classification(path(4), 1)
    with pytest.raises(ValueError):
        theorem_classification(path(4), 5)
    with pytest.raises(ValueError):
        theorem_classification(Graph(4, [(1, 2), (3, 4)]), 2)


def test_classification_json():
    c = Classification(True, "path", "why")
    assert c.to_json() == {"verdict": True, "case": "path", "reason": "why"}


def test_connected_graph_counts():
    # labelled connected graph counts: 1, 1, 4, 38, 728
    for n, expect in [(1, 1), (2, 1), (3, 4), (4, 38), (5, 728)]:
        assert sum(1 for _ in connected_graphs(n)) == expect


def test_connected_graphs_order_and_labels():
    got = list(connected_graphs(3))
    # ascending edge-subset code; first connected graph is the path 1-2-3
    codes = [c for c, _ in got]
    assert codes == sorted(codes)
    assert all(g.n == 3 for _, g in got)


def test_check_instance_rows():
    row = check_instance(cycle(6), 3)
    assert row.predicted and row.packed
    assert row.simis_verdict == "equal_up_to"
    assert row.graph6 == "EhEG"

    row = check_instance(star(4), 3)
    assert not row.predicted and not row.packed
    assert row.simis_verdict == "witness_at" and row.simis_s == 2
    assert row.simis_witness == "x2*x3*x4"


def test_check_instance_row_json():
    j = check_instance(cycle(6), 3).to_json()
    assert j["n"] == 6 and j["t"] == 3 and j["predicted"] is True


def test_verify_theorem_small():
    rep = verify_theorem(4)
    assert not rep.disagreements
    s = rep.summary()
    # 4 + 38*2 = 80 instances for t in 3..n over n <= 4
    assert s["instances"] == 80
    assert s["aborted"] == 0
    # every predicted-false row carries a concrete witness
    for row in rep.rows:
        if not row.predicted:
            assert row.simis_verdict == "witness_at"


def test_verify_theorem_family_override():
    fams = [path(7), cycle(7)]
    rep = verify_theorem(0, t_min=3, t_max=4, graphs=fams)
    assert not rep.disagreements
    assert rep.summary()["instances"] == 4
    assert {r.t for r in rep.rows} == {3, 4}


@pytest.mark.parametrize("t_min", [2, 0, -1])
def test_verify_theorem_rejects_t_min_below_three(t_min):
    # the classification starts at t = 3; a lower t_min is an error, not
    # silently raised to 3
    with pytest.raises(ValueError, match=f"t_min must be at least 3, got {t_min}"):
        verify_theorem(0, t_min=t_min, graphs=[path(4)])


def test_verify_theorem_report_json():
    rep = verify_theorem(3)
    j = rep.to_json()
    assert j["disagreements"] == 0
    assert len(j["rows"]) == j["summary"]["instances"]


def direct_rows(graphs, t_max=None, cap=DEFAULT_GEN_CAP):
    """verify_theorem's rows computed one check_instance call per row, as
    (report row, least-degree failures) pairs."""
    return [_with_failures(check_instance(g, t, cap=cap))
            for g in graphs
            for t in range(3, (g.n if t_max is None else min(g.n, t_max)) + 1)]


def _with_failures(row):
    return row.to_json(), row.failures


def cached_rows(rep):
    return [_with_failures(r) for r in rep.rows]


def test_class_cache_matches_direct_rows_n_le_5():
    graphs = [g for n in range(3, 6) for _code, g in connected_graphs(n)]
    rep = verify_theorem(5)
    assert cached_rows(rep) == direct_rows(graphs)
    # 77 (class, t) pairs; every other row comes from the cache
    assert rep.computed == 77 and len(rep.rows) == 2264


def test_class_cache_matches_direct_rows_six_vertex_sample():
    rng = random.Random(20261018)
    sample = rng.sample([g for _code, g in connected_graphs(6)], 300)
    rep = verify_theorem(0, graphs=sample)
    assert cached_rows(rep) == direct_rows(sample)
    assert rep.computed < len(rep.rows) // 2
    assert sum(r.simis_verdict == "witness_at" for r in rep.rows) > 500


def test_class_cache_matches_direct_rows_paths_cycles():
    # every path and cycle with n <= 10 and a seeded relabelling of each,
    # so the cache serves the relabelled copies
    rng = random.Random(7)
    graphs = []
    for n in range(3, 11):
        for g in (path(n), cycle(n)):
            perm = list(range(1, n + 1))
            rng.shuffle(perm)
            graphs += [g, relabel(g, perm)]
    rep = verify_theorem(0, t_max=4, graphs=graphs)
    assert cached_rows(rep) == direct_rows(graphs, t_max=4)
    assert not rep.disagreements
    assert rep.computed < len(rep.rows)


def test_class_cache_runs_no_dualization_or_fold(monkeypatch):
    # a cached row relabels the failures its class's first row carries, so
    # J_t(G) is built and folded only inside check_instance
    calls = {"cover": 0, "fold": 0, "fold_outside": 0, "inside": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            if name == "fold" and not calls["inside"]:
                calls["fold_outside"] += 1
            return fn(*args, **kwargs)
        return wrapper

    def inside(*args, **kwargs):
        calls["inside"] += 1
        try:
            return check_instance(*args, **kwargs)
        finally:
            calls["inside"] -= 1

    monkeypatch.setattr(classify, "cover_ideal", counted("cover", classify.cover_ideal))
    monkeypatch.setattr(duality, "symbolic_power", counted("fold", duality.symbolic_power))
    monkeypatch.setattr(classify, "check_instance", inside)
    rep = verify_theorem(5)
    assert rep.computed == 77 and len(rep.rows) == 2264
    assert calls["cover"] == rep.computed
    assert calls["fold"] > 0 and calls["fold_outside"] == 0
    # the counts above cover cached rows that carry a witness
    assert sum(r.simis_verdict == "witness_at" for r in rep.rows) > rep.computed


def test_labellings_of_a_path_are_served_from_the_cache():
    # J_t(P_6) has two primes at t = 5 and three at t = 4; the fold bounds
    # for s = t stay under the default cap, so only the first copy is computed
    rng = random.Random(3)
    graphs = [path(6)]
    for _ in range(5):
        perm = list(range(1, 7))
        rng.shuffle(perm)
        graphs.append(relabel(path(6), perm))
    rep = verify_theorem(0, graphs=graphs)
    assert cached_rows(rep) == direct_rows(graphs)
    assert rep.computed == 4 and len(rep.rows) == 24


def test_antichain_width_is_the_largest_level():
    for n in range(1, 5):
        for s in range(4):
            levels = [0] * (n * s + 1)
            for v in product(range(s + 1), repeat=n):
                levels[sum(v)] += 1
            assert _antichain_width(n, s) == max(levels), (n, s)


@pytest.mark.parametrize("cap", [5, 8])
def test_class_cache_matches_direct_rows_under_small_caps(cap):
    graphs = [g for n in range(3, 6) for _code, g in connected_graphs(n)]
    rep = verify_theorem(5, cap=cap)
    assert cached_rows(rep) == direct_rows(graphs, cap=cap)
    rows = [r.to_json() for r in rep.rows]
    # both fallbacks occur: dualization aborts (packed unknown) and fold
    # aborts (packed known)
    assert any(r["packed"] is None for r in rows)
    assert any(r["packed"] is not None and r["simis_verdict"] == "aborted" for r in rows)
    assert all(r["simis_verdict"] == "aborted" for r in rows if r["packed"] is None)
    assert not rep.disagreements
    assert rep.summary()["aborted"] == sum(r["simis_verdict"] == "aborted" for r in rows)


def test_dualization_abort_row():
    # J_3(C_7) has 14 generators
    row = check_instance(cycle(7), 3, cap=5)
    assert row.packed is None and row.simis_verdict == "aborted"
    assert row.simis_s is None and row.simis_witness is None
    rep = verify_theorem(0, t_max=3, graphs=[cycle(7)], cap=5)
    assert rep.summary()["aborted"] == 1 and not rep.disagreements


def test_computed_count_stays_out_of_the_report():
    rep = verify_theorem(4)
    assert rep.computed == 14 and len(rep.rows) == 80
    assert "computed" not in rep.to_json() and "computed" not in rep.summary()
