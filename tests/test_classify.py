import json
import random

import pytest

from conftest import relabel
from coverpack import classify, cli, duality, ideals, packing
from coverpack.canon import canonical_form
from coverpack.classify import (
    Classification,
    _renumbered,
    check_instance,
    connected_graphs,
    theorem_classification,
    verify_theorem,
)
from coverpack.graphs import Graph, complete, cycle, encode_graph6, path, star
from coverpack.tconn import cover_ideal


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


def test_verify_theorem_empty_t_range():
    # no t in [t_min, n]: the graph adds no row and nothing is computed
    rep = verify_theorem(0, graphs=[path(3)], t_min=4)
    assert rep.rows == [] and rep.computed == 0


def _flip_prediction(monkeypatch):
    real = classify.theorem_classification

    def flipped(g, t):
        c = real(g, t)
        return Classification(not c.verdict, c.case)

    monkeypatch.setattr(classify, "theorem_classification", flipped)


def _witness_on_every_row(monkeypatch):
    def witness(a, s_max):
        w = (2,) + (0,) * (a.n - 1)
        return duality.SimisReport(s_max, "witness_at", 2, w, (w,))

    monkeypatch.setattr(classify, "simis_check", witness)


@pytest.mark.parametrize("force", [_flip_prediction, _witness_on_every_row],
                         ids=["flipped-prediction", "witness-on-packed-row"])
def test_forced_disagreement_is_reported(force, monkeypatch, capsys):
    # P_3 and C_3 at t = 3 are packed and predicted so; a flipped prediction
    # or a Simis witness on a packed row makes each row a disagreement
    force(monkeypatch)
    rep = verify_theorem(0, graphs=[path(3), cycle(3)])
    assert len(rep.rows) == 2 and all(r.packed for r in rep.rows)
    assert rep.disagreements == rep.rows
    assert rep.to_json()["disagreements"] == 2
    code = cli.main(["verify-theorem", "--paths-cycles", "3"])
    assert code == 1
    assert json.loads(capsys.readouterr().out)["result"]["disagreements"] == 2


def test_verify_theorem_report_json():
    rep = verify_theorem(3)
    j = rep.to_json()
    assert j["disagreements"] == 0
    assert len(j["rows"]) == j["summary"]["instances"]


def direct_rows(graphs, t_max=None):
    """verify_theorem's rows computed one check_instance call per row, each
    with a packing-scan memo of its own, as (report row, least-degree
    failures) pairs."""
    return [_with_failures(check_instance(g, t))
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
    # every row relabels the failures its class's computed row carries, so
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
    monkeypatch.setattr(duality, "_fold", counted("fold", duality._fold))
    monkeypatch.setattr(classify, "check_instance", inside)
    rep = verify_theorem(5)
    assert rep.computed == 77 and len(rep.rows) == 2264
    assert calls["cover"] == rep.computed
    assert calls["fold"] > 0 and calls["fold_outside"] == 0
    # the counts above cover cached rows that carry a witness
    assert sum(r.simis_verdict == "witness_at" for r in rep.rows) > rep.computed


def test_labellings_of_a_path_are_served_from_the_cache():
    # one computation per t serves every copy
    rng = random.Random(3)
    graphs = [path(6)]
    for _ in range(5):
        perm = list(range(1, 7))
        rng.shuffle(perm)
        graphs.append(relabel(path(6), perm))
    rep = verify_theorem(0, graphs=graphs)
    assert cached_rows(rep) == direct_rows(graphs)
    assert rep.computed == 4 and len(rep.rows) == 24


@pytest.mark.parametrize("cap", [5, 8])
def test_class_cache_matches_direct_rows_under_small_caps(cap, monkeypatch):
    graphs = [g for n in range(3, 6) for _code, g in connected_graphs(n)]
    monkeypatch.setattr(ideals, "DEFAULT_GEN_CAP", cap)
    rep = verify_theorem(5)
    assert cached_rows(rep) == direct_rows(graphs)
    rows = [r.to_json() for r in rep.rows]
    # both kinds of abort occur: in the dualization (packed unknown) and in
    # the fold (packed known)
    assert any(r["packed"] is None for r in rows)
    assert any(r["packed"] is not None and r["simis_verdict"] == "aborted" for r in rows)
    assert all(r["simis_verdict"] == "aborted" for r in rows if r["packed"] is None)
    assert not rep.disagreements
    assert rep.summary()["aborted"] == sum(r["simis_verdict"] == "aborted" for r in rows)


def test_dualization_abort_row(monkeypatch):
    # J_3(C_7) has 14 generators
    monkeypatch.setattr(ideals, "DEFAULT_GEN_CAP", 5)
    row = check_instance(cycle(7), 3)
    assert row.packed is None and row.simis_verdict == "aborted"
    assert row.simis_s is None and row.simis_witness is None
    rep = verify_theorem(0, t_max=3, graphs=[cycle(7)])
    assert rep.summary()["aborted"] == 1 and not rep.disagreements


def test_computed_count_stays_out_of_the_report():
    rep = verify_theorem(4)
    assert rep.computed == 14 and len(rep.rows) == 80
    assert "computed" not in rep.to_json() and "computed" not in rep.summary()


def test_renumbering_keeps_the_standard_paths_and_cycles():
    # the class computation of a path or cycle runs on path(n) or cycle(n)
    for n in range(3, 16):
        for g in (path(n), cycle(n)):
            h, label = _renumbered(n, canonical_form(g)[0])
            assert h == g, (n, h)
            assert sorted(label) == list(range(n))


def row_graphs(n_max):
    """The graph of each row of verify_theorem(n_max), in row order."""
    for n in range(3, n_max + 1):
        for _code, g in connected_graphs(n):
            yield from [g] * (n - 2)


def renumbered_row(g, t, computed):
    """check_instance on the renumbered canonical graph of g's class,
    relabelled onto g, as a (report row, failures) pair; `computed` caches
    the class rows by (renumbered graph, t)."""
    edges, perm = canonical_form(g)
    h, label = _renumbered(g.n, edges)
    # vertex v of g is vertex to_h[v - 1] of h
    to_h = [label[c - 1] + 1 for c in perm]
    assert relabel(g, to_h) == h
    if (h, t) not in computed:
        computed[h, t] = check_instance(h, t)
    row = computed[h, t]
    failures = tuple(sorted(tuple(m[u - 1] for u in to_h) for m in row.failures))
    want = row.to_json() | {
        "graph6": encode_graph6(g),
        "simis_witness": ideals.monomial_str(failures[0]) if failures else None}
    return want, failures


@pytest.mark.parametrize("cap", [16, 20, 24])
def test_every_labelling_of_a_class_shares_its_outcome_under_a_cap(cap, monkeypatch):
    # the fold's intermediate size follows the order of the primes, so
    # check_instance on one labelling can abort where it does not on another;
    # verify_theorem's rows are their class's outcome
    monkeypatch.setattr(ideals, "DEFAULT_GEN_CAP", cap)
    rep = verify_theorem(5)
    outcomes = {}
    for row, g in zip(rep.rows, row_graphs(5)):
        key = (g.n, canonical_form(g)[0], row.t)
        outcomes.setdefault(key, set()).add((row.packed, row.simis_verdict, row.simis_s))
    assert all(len(seen) == 1 for seen in outcomes.values())
    assert any(row.simis_verdict == "aborted" for row in rep.rows)
    assert rep.computed == 77 and len(rep.rows) == 2264


@pytest.mark.parametrize("cap", [16, 20, 24])
def test_rows_are_the_renumbered_class_row_under_a_cap(cap, monkeypatch):
    monkeypatch.setattr(ideals, "DEFAULT_GEN_CAP", cap)
    rep = verify_theorem(5)
    computed = {}
    want = [renumbered_row(g, row.t, computed) for row, g in zip(rep.rows, row_graphs(5))]
    assert cached_rows(rep) == want


def test_relabelled_copies_of_p9_are_computed_once():
    rng = random.Random(9)
    graphs = [path(9)]
    for _ in range(3):
        perm = list(range(1, 10))
        rng.shuffle(perm)
        graphs.append(relabel(path(9), perm))
    rep = verify_theorem(0, t_max=3, graphs=graphs)
    assert rep.computed == 1 and len(rep.rows) == 4
    assert cached_rows(rep) == direct_rows(graphs, t_max=3)


def test_verify_theorem_rejects_a_disconnected_graph():
    # the renumbering walks every component, so the classification's own
    # error is the one raised
    with pytest.raises(ValueError, match="classification needs a connected graph"):
        verify_theorem(0, graphs=[Graph(4, [(1, 2), (3, 4)])])


def konig_searches(monkeypatch):
    calls = []
    real = packing._konig_masks
    monkeypatch.setattr(packing, "_konig_masks", lambda *args: calls.append(1) or real(*args))
    return calls


def test_one_scan_memo_per_call(monkeypatch):
    # J_3(P_9)'s scan meets J_3(P_8) at x9 = 1 and reads the first row's
    # entries instead of searching again
    calls = konig_searches(monkeypatch)
    rep = verify_theorem(0, t_min=3, t_max=3, graphs=[path(8), path(9)])
    assert all(r.packed for r in rep.rows)
    shared = len(calls)
    for g in (path(8), path(9)):
        assert packing.is_packed(cover_ideal(g, 3)).packed
    assert (shared, len(calls) - shared) == (189, 284)


def test_shared_memo_rows_do_not_depend_on_graph_order():
    # the rows of one call equal separate scans whatever comes before them
    graphs = [g for n in range(3, 11) for g in (path(n), cycle(n))]
    random.Random(24).shuffle(graphs)
    graphs.reverse()
    rep = verify_theorem(0, t_max=4, graphs=graphs)
    assert cached_rows(rep) == direct_rows(graphs, t_max=4)


def test_scan_cap_bounds_each_rows_own_entries(monkeypatch):
    # under a cap one above the most entries either row adds to the call's
    # memo (a memo at the cap would be emptied before J_3(P_10)), below what
    # J_3(P_10) needs without J_3(P_9)'s entries, the call passes while the
    # scan on its own trips
    memo = {}
    added = []
    for n in (9, 10):
        before = len(memo)
        packing.is_packed(cover_ideal(path(n), 3), memo)
        added.append(len(memo) - before)
    cap = max(added) + 1
    monkeypatch.setattr(ideals, "DEFAULT_SCAN_CAP", cap)
    rep = verify_theorem(0, t_min=3, t_max=3, graphs=[path(9), path(10)])
    assert [r.packed for r in rep.rows] == [True, True]
    with pytest.raises(ideals.SizeLimitError):
        packing.is_packed(cover_ideal(path(10), 3))


def test_shared_memo_never_holds_twice_the_cap(monkeypatch):
    # a cap no single row's scan reaches on its own, which the call's memo
    # outgrows: it is emptied, and stays below twice the cap
    graphs = [g for n in range(3, 10) for g in (path(n), cycle(n))]
    cap = 0
    for g in graphs:
        for t in range(3, min(g.n, 4) + 1):
            memo = {}
            packing.is_packed(cover_ideal(g, t), memo)
            cap = max(cap, len(memo))
    monkeypatch.setattr(ideals, "DEFAULT_SCAN_CAP", cap)
    sizes = []
    real = packing.is_packed

    def watched(a, memo=None):
        sizes.append(len(memo))
        try:
            return real(a, memo)
        finally:
            sizes.append(len(memo))

    monkeypatch.setattr(classify, "is_packed", watched)
    rep = verify_theorem(0, t_max=4, graphs=graphs)
    assert not rep.disagreements
    assert max(sizes) < 2 * cap
    # emptied at least once: a call ended below where it started
    assert any(end < start for start, end in zip(sizes[::2], sizes[1::2]))
