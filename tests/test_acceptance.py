"""Acceptance suite: the eleven primary checks, one test each, printing a
single pass/fail line per criterion (run with -s to see them).  Budgets
are wall-clock upper bounds; the measured times are far below them on
ordinary hardware."""

import random
import time

from birkhoffsym.birkhoff import (verify_intersection_table,
                                  verify_symmetry_group)
from birkhoffsym.cd import cd_lattice, verify_centralizer_estimate
from birkhoffsym.gamma import (commuting_regular_pairs, gamma_fibers,
                               normalizer_in_full_symmetric,
                               verify_wreath_quotient)
from birkhoffsym.perm import _order, named_group
from birkhoffsym.reppoly import (load_exceptional_c6,
                                 matrix_group_from_perm_group,
                                 uniqueness_check, verify_gamma_acts)

from group_oracle import regular_action
from hull_oracle import hull_of, oracle_facets, random_point_set


def _line(num, ok, secs, detail):
    print(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} "
          f"({secs:6.2f}s)  {detail}")


def test_criterion_01_symmetry_group_b3():
    t0 = time.perf_counter()
    r = verify_symmetry_group(3)
    secs = time.perf_counter() - t0
    ok = (r["passed"] and r["aut_order"] == 72 and r["expected_order"] == 72
          and r["roundtrip_failures"] == 0)
    _line(1, ok, secs, f"aut order {r['aut_order']}, "
                       f"round-trip failures {r['roundtrip_failures']}")
    assert ok
    assert secs < 1.0


def test_criterion_02_symmetry_group_b4():
    t0 = time.perf_counter()
    r = verify_symmetry_group(4)
    secs = time.perf_counter() - t0
    ok = (r["passed"] and r["n_vertices"] == 24 and r["dim"] == 9
          and r["n_facets"] == 16 and r["facets_match_analytic"]
          and r["aut_order"] == 1152 and r["roundtrip_failures"] == 0)
    _line(2, ok, secs, f"24 vertices, dim {r['dim']}, {r['n_facets']} facets, "
                       f"aut order {r['aut_order']}")
    assert ok
    assert secs < 60.0


def test_criterion_03_intersection_table():
    t0 = time.perf_counter()
    reports = [verify_intersection_table(n) for n in (3, 4, 5)]
    secs = time.perf_counter() - t0
    ok = all(r["passed"] for r in reports) and [r["cases_checked"] for r in
                                             reports] == [81, 256, 625]
    _line(3, ok, secs, "n = 3, 4, 5: all n^4 cases match the formula")
    assert ok
    assert secs < 10.0


def test_criterion_04_centralizer_estimate():
    t0 = time.perf_counter()
    r4 = verify_centralizer_estimate(4)
    secs4 = time.perf_counter() - t0
    r5 = verify_centralizer_estimate(5)
    ok = (r4["passed"] and r4["equality_orders"] == [1, 24]
          and not r4["violations"] and r5["passed"] and r5["equality_orders"] == [1, 120]
          and not r5["violations"])
    _line(4, ok, secs4, f"S_4 ({r4['subgroup_count']} subgroups) and "
                        f"S_5 ({r5['subgroup_count']} subgroups): "
                        "|U||C(U)| <= |G|, equality at 1 and G only")
    assert ok
    assert secs4 < 5.0


def test_criterion_05_cd_lattices():
    t0 = time.perf_counter()
    rs3 = cd_lattice(named_group("s3"))
    rs4 = cd_lattice(named_group("s4"))
    rc6 = cd_lattice(named_group("c6"))
    rd4 = cd_lattice(named_group("d4"))
    secs = time.perf_counter() - t0
    all_reports = [rs3, rs4, rc6, rd4]
    ok = (all(r["closure_pass"] and r["subnormal_pass"] for r in all_reports)
          and sorted(len(hs) for hs, _ in rs4["lattice"]) == [1, 24]
          and [len(hs) for hs, _ in rs3["lattice"]] == [3])
    _line(5, ok, secs, "S_3, S_4, C_6, D_4 lattices closed and subnormal; "
                       "S_4 -> {1, S_4}, S_3 -> {A_3}")
    assert ok


def test_criterion_06_gamma_order_formula():
    t0 = time.perf_counter()
    expected = {"s3": 72, "s4": 1152, "c3": 6, "c6": 12, "q8": 64}
    reports = {name: verify_wreath_quotient(named_group(name))
               for name in expected}
    rv4 = verify_wreath_quotient(named_group("v4"))
    secs = time.perf_counter() - t0
    ok = (all(reports[name]["passed"]
              and reports[name]["actual_order"] == order
              for name, order in expected.items())
          and rv4["elementary_abelian_2"]
          and rv4["actual_order"] == 4 and rv4["formula_order"] == 8)
    _line(6, ok, secs, "2|G|^2/|Z| holds for S_3, S_4, C_3, C_6, Q_8; "
                       "C_2 x C_2 gives 4 != 8")
    assert ok


def lambda_and_rho(group):
    """lambda(G) and rho(G), each as the sorted tuple of its members'
    image tuples, as `commuting_regular_pairs` lists a group."""
    lams, rhos, _ = regular_action(group)
    return tuple(sorted(lams)), tuple(sorted(rhos))


def test_criterion_07_commuting_regular_pairs():
    t0 = time.perf_counter()
    g4 = named_group("s4")
    pairs4 = commuting_regular_pairs(gamma_fibers(g4))
    secs = time.perf_counter() - t0
    only_lambda_rho = (len(pairs4) == 1 and
                       {pairs4[0][0], pairs4[0][1]} == set(lambda_and_rho(g4)))

    lambda3, rho3 = lambda_and_rho(named_group("s3"))
    pairs3 = commuting_regular_pairs(gamma_fibers(named_group("s3")))
    self_paired = [u for u, v in pairs3 if u == v]
    shapes = {(sum(1 for p in u if p in lambda3),
               sum(1 for p in u if p in rho3))
              for u in self_paired}
    extra_ok = (len(pairs3) == 7
                and all(len(u) == 6 and max(map(_order, u)) == 6
                        for u in self_paired)
                and shapes == {(2, 3), (3, 2)})
    ok = only_lambda_rho and extra_ok
    _line(7, ok, secs, f"Gamma(S_4): only {{lambda, rho}}; Gamma(S_3): "
                       f"{len(pairs3)} pairs, self-paired C_6 shapes "
                       f"{sorted(shapes)}")
    assert ok
    assert secs < 600.0


def test_criterion_08_normalizer():
    t0 = time.perf_counter()
    r = normalizer_in_full_symmetric(named_group("s3"))
    secs = time.perf_counter() - t0
    ok = (r["passed"] and r["normalizer_order"] == 72
          and r["aut_gamma_order"] == 72 and r["gamma_order"] == 72)
    _line(8, ok, secs, f"N(Gamma(S_3)) in Sym(6) has order "
                       f"{r['normalizer_order']} = |Aut(S_3) Gamma|")
    assert ok
    assert secs < 5.0


def test_criterion_09_uniqueness_catalog():
    t0 = time.perf_counter()
    r = uniqueness_check(3)
    secs = time.perf_counter() - t0
    verdicts = {e["name"]: e["equivalent"] for e in r["entries"]}
    witness_ok = all(e["witness"] is not None
                     for e in r["entries"] if e["equivalent"])
    ok = (r["passed"] and witness_ok
          and verdicts["c6_exceptional"] is True
          and verdicts["c6_regular"] is False
          and verdicts["s3_regular"] is False
          and verdicts["c4_regular"] is False
          and verdicts["v4_regular"] is False)
    _line(9, ok, secs, "order-6 fixture equivalent to B_3 with witness; "
                       "regular C_6 / regular S_3 / C_4 / V_4 all not")
    assert ok
    assert secs < 5.0


def test_criterion_10_translations_are_symmetries():
    t0 = time.perf_counter()
    rs3 = verify_gamma_acts(matrix_group_from_perm_group(named_group("s3")))
    rc6 = verify_gamma_acts(load_exceptional_c6())
    secs = time.perf_counter() - t0
    ok = (rs3["lambda_pass"] and rs3["rho_pass"] and rs3["iota_in_group"]
          and rc6["lambda_pass"] and rc6["rho_pass"])
    _line(10, ok, secs, "every lambda_g, rho_g a symmetry for standard S_3 "
                        "(iota too) and for the order-6 fixture")
    assert ok


def test_criterion_11_hull_oracle_equivalence():
    t0 = time.perf_counter()
    rng = random.Random(1234)
    checked = 0
    ok = True
    for _ in range(50):
        pts = random_point_set(rng)
        got = frozenset(hull_of(pts).incidence.tight_sets)
        want = oracle_facets(pts)
        if got != want:
            ok = False
            break
        checked += 1
    secs = time.perf_counter() - t0
    _line(11, ok, secs, f"{checked}/50 random polytopes match the "
                        "hyperplane-spanning oracle exactly")
    assert ok
