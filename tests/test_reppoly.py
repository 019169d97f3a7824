"""Tests for matrix group closure, representation polytopes, the
translation action on their vertices, and the B_n equivalence catalog."""

import json
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from birkhoffsym import cli, reppoly
from birkhoffsym.errors import PreconditionError
from birkhoffsym.exact import _common_form, _product
from birkhoffsym.combiso import comb_equivalent
from birkhoffsym.birkhoff import (MAX_N, permutation_matrix,
                                  verify_symmetry_group)
from birkhoffsym.hull import (IncidenceStructure, facet_enumeration,
                              polytope_to_document)
from birkhoffsym.gamma import verify_wreath_quotient
from birkhoffsym.perm import (PermutationGroup, _order, _right_mul,
                              named_group)
from birkhoffsym.reppoly import (CatalogEntry, MatrixGroup, default_catalog,
                                 load_exceptional_c6,
                                 matrix_closure,
                                 matrix_from_rows,
                                 matrix_group_from_document,
                                 matrix_group_from_perm_group,
                                 regular_matrix_group,
                                 representation_polytope,
                                 uniqueness_check,
                                 verify_gamma_acts)

from group_oracle import regular_action
from hull_oracle import (birkhoff_rows, entries, hull_of,
                         maps_rows_onto_rows, rational_matrix, same_polytope)
from masks import mask, members


def test_closure_identity_only():
    g = matrix_closure([permutation_matrix(range(3))])
    assert g.order == 1
    assert g.dim == 3


def test_closure_rotation_of_order_6():
    rot = matrix_from_rows([["0", "-1"], ["1", "1"]])  # char poly x^2-x+1
    g = matrix_closure([rot])
    assert g.order == 6
    assert g.elements[0] == ((1, 0, 0, 1), 1)


def test_closure_s3_permutation_matrices():
    g = matrix_group_from_perm_group(named_group("s3"))
    assert g.order == 6
    assert g.dim == 3
    eg = g.element_group()
    assert eg.order == 6
    # element_group positions agree with matrix positions
    for i, p in enumerate(eg.elements):
        assert p[0] == i


def test_closure_rejects_singular_generator():
    # the second has rank 2: third row = first + second, p/q entries
    for rows in ([["1", "1"], ["1", "1"]],
                 [["0", "1", "1/2"], ["3/2", "1/2", "0"], ["3/2", "3/2", "1/2"]]):
        with pytest.raises(PreconditionError, match="not invertible"):
            matrix_closure([matrix_from_rows(rows)])


def test_closure_rejects_infinite_group():
    shear = matrix_from_rows([["1", "1"], ["0", "1"]])
    with pytest.raises(PreconditionError, match="closure exceeds bound 30"):
        matrix_closure([shear])


def test_closure_rejects_mixed_sizes():
    # the size is read off the first generator's d^2 numerators
    for gens in ([permutation_matrix(range(2)), permutation_matrix(range(3))],
                 [permutation_matrix(range(3)), permutation_matrix(range(2))],
                 [((1, 0, 0), 1)]):
        with pytest.raises(PreconditionError,
                           match="generators must be square of equal size"):
            matrix_closure(gens)


def test_regular_representation_shape():
    g = regular_matrix_group(named_group("c6"))
    assert g.dim == 6
    assert g.order == 6


def test_regular_matrix_group_translates_only_the_generators():
    # the generators' left translations alone, with G's table unbuilt,
    # give the matrix group the table's rows give
    for name in ("s4", "c6", "q8"):
        group = named_group(name)
        got = regular_matrix_group(group)
        assert group._table is None
        lams, _, _ = regular_action(group)
        want = matrix_closure(
            [permutation_matrix(lams[group.index[g]])
             for g in group.generators])
        assert (got.dim, got.elements, got.generators) == \
            (want.dim, want.elements, want.generators)


def test_representation_polytope_dims():
    # frozen: standard S_3 gives the 4-dimensional B_3 shape with 9 facets
    p = representation_polytope(matrix_group_from_perm_group(named_group("s3")))
    assert (p.dim, p.n_vertices, p.n_facets) == (4, 6, 9)
    # regular C_6 and regular S_3 are 5-simplices
    for grp in (matrix_group_from_perm_group(named_group("c6")),
                regular_matrix_group(named_group("s3"))):
        q = representation_polytope(grp)
        assert (q.dim, q.n_vertices, q.n_facets) == (5, 6, 6)
    # order-4 abelian groups give 3-simplices
    for name in ("c4", "v4"):
        q = representation_polytope(matrix_group_from_perm_group(named_group(name)))
        assert (q.dim, q.n_vertices, q.n_facets) == (3, 4, 4)
    # standard D_4 on 4 points
    q = representation_polytope(matrix_group_from_perm_group(named_group("d4")))
    assert (q.dim, q.n_vertices, q.n_facets) == (5, 8, 8)


def test_representation_polytope_size_cap():
    with pytest.raises(PreconditionError):
        representation_polytope(matrix_group_from_perm_group(named_group("s5")))


def test_simplex_property_of_regular_c6():
    # every 5-subset of the 6 vertices spans a facet
    p = representation_polytope(matrix_group_from_perm_group(named_group("c6")))
    assert sorted(s.bit_count() for s in p.incidence.tight_sets) == [5] * 6
    assert frozenset(p.incidence.tight_sets) == frozenset(
        mask(set(range(6)) - {v}) for v in range(6))


def test_translation_maps_are_group_actions():
    g = matrix_group_from_perm_group(named_group("s3"))
    lams, rhos, iota = regular_action(g.element_group())
    assert len(lams) == len(rhos) == 6
    identity = tuple(range(6))
    assert _right_mul(iota)(iota) == identity
    assert lams[0] == identity and rhos[0] == identity
    # lambda and rho commute elementwise
    for a in lams:
        for b in rhos:
            assert _right_mul(b)(a) == _right_mul(a)(b)


@pytest.mark.parametrize("n", [3, 4])
def test_translation_maps_match_matrix_products(n):
    # every catalog group, the C_6 fixture included, against products of
    # the matrices themselves
    for entry in default_catalog(n):
        elems = entry.matrix_group.elements
        index = {m: i for i, m in enumerate(elems)}
        # the inverse of x in the group is the element y with x y = 1
        one = permutation_matrix(range(entry.matrix_group.dim))
        inverse = {x: next(y for y in elems if _product(x, y) == one)
                   for x in elems}
        lams, rhos, iota = regular_action(
            entry.matrix_group.element_group())
        assert lams == [
            tuple(index[_product(g, x)] for x in elems) for g in elems], \
            entry.name
        assert rhos == [
            tuple(index[_product(x, inverse[g])] for x in elems)
            for g in elems], entry.name
        assert iota == tuple(index[inverse[x]] for x in elems), entry.name


def test_gamma_acts_standard_s3():
    r = verify_gamma_acts(matrix_group_from_perm_group(named_group("s3")))
    assert r["passed"] and r["lambda_pass"] and r["rho_pass"]
    assert r["group_order"] == 6
    assert r["aut_order"] == 72
    assert r["iota_in_group"]


def test_gamma_acts_exceptional_c6():
    r = verify_gamma_acts(load_exceptional_c6())
    assert r["passed"]
    assert r["group_order"] == 6
    assert r["aut_order"] == 72
    assert r["iota_in_group"]


def test_gamma_acts_regular_c6():
    r = verify_gamma_acts(matrix_group_from_perm_group(named_group("c6")))
    assert r["passed"]
    assert r["aut_order"] == 720  # simplex: all of Sym(6)
    assert r["iota_in_group"]


def test_gamma_acts_standard_d4():
    r = verify_gamma_acts(matrix_group_from_perm_group(named_group("d4")))
    assert r["passed"] and r["lambda_pass"] and r["rho_pass"]


def test_load_exceptional_c6():
    g = load_exceptional_c6()
    assert g.dim == 4
    assert g.order == 6
    # not a 0/1 matrix group: some entry is negative
    assert any(e < 0 for nums, _ in g.elements for e in nums)
    eg = g.element_group()
    # cyclic of order 6
    assert max(map(_order, eg.elements)) == 6


def test_element_group_feeds_gamma():
    # one generator per matrix generator, its left translation, which
    # sends the identity at index 0 to that matrix's index
    mgroup = load_exceptional_c6()
    eg = mgroup.element_group()
    assert [p[0] for p in eg.generators] == [
        mgroup.elements.index(g) for g in mgroup.generators]
    r = verify_wreath_quotient(eg)
    assert r["passed"]
    assert r["actual_order"] == 12  # abelian of order 6: 2 * 36 / 6


def every_translation(mgroup):
    """The element group built the direct way: the left translation by
    every element, |G|^2 matrix products."""
    index = {m: i for i, m in enumerate(mgroup.elements)}

    def translation(a):
        return tuple(index[_product(a, x)] for x in mgroup.elements)

    return PermutationGroup(map(translation, mgroup.elements),
                            tuple(map(translation, mgroup.generators)))


def test_element_group_is_the_group_of_all_translations():
    groups = [entry.matrix_group for n in (3, 4) for entry in default_catalog(n)]
    groups.append(matrix_closure([permutation_matrix(range(2))]))
    for mgroup in groups:
        eg, want = mgroup.element_group(), every_translation(mgroup)
        assert eg.elements == want.elements
        assert eg.generators == want.generators


def test_element_group_translates_only_the_generators(monkeypatch):
    mgroup = matrix_group_from_perm_group(named_group("s4"))
    products = []
    product = reppoly._product

    def counting(a, b):
        products.append(1)
        return product(a, b)

    monkeypatch.setattr(reppoly, "_product", counting)
    mgroup.element_group()
    # |generators| * |G|, where translating every element took |G|^2 = 576
    assert len(products) == len(mgroup.generators) * mgroup.order == 48


def test_element_group_refuses_a_translation_that_is_no_bijection():
    # {1, 0} is closed under products but no group: the translation by 0
    # sends both elements to 0
    one, zero = ((1,), 1), ((0,), 1)
    mgroup = MatrixGroup(1, [one, zero], [zero])
    with pytest.raises(ValueError, match="image '1' at position 1 repeats, "
                                         "point 0 is missing"):
        mgroup.element_group()


def conjugated_document(entry, rng):
    """The catalog entry as a matrix-group document of P^-1 g P for each
    generator g, P seeded with p/q entries.  Each cell is written as k p /
    k q for a seeded k of either sign, so the texts are not reduced."""
    mgroup = entry.matrix_group
    dim = mgroup.dim
    while True:
        p = sympy.Matrix(dim, dim, [
            sympy.Rational(rng.randint(-3, 3), rng.randint(1, 4))
            for _ in range(dim * dim)])
        if p.rank() == dim:
            break
    p_inv = p.inv()

    def text(x):
        k = rng.choice((1, 2, 3, -1, -2))
        return f"{k * x.p}/{k * x.q}"

    gens = [p_inv * sympy.Matrix(dim, dim, [sympy.Rational(x, den)
                                            for x in nums]) * p
            for nums, den in mgroup.generators]
    return {"name": entry.name, "dim": dim, "order": mgroup.order,
            "expect_equivalent": entry.expect_equivalent,
            "generators": [[[text(g[i, j]) for j in range(dim)]
                            for i in range(dim)] for g in gens]}


def conjugated_catalog(n, seed):
    rng = random.Random(seed)
    return [conjugated_document(entry, rng) for entry in default_catalog(n)]


def gamma_acts_oracle(mgroup, inc):
    """(lambda_pass, rho_pass, iota_in_group) with every translation of
    the regular action tested on the tight sets one by one."""
    rows = set(inc.tight_sets)
    lams, rhos, iota = regular_action(mgroup.element_group())
    return (all(maps_rows_onto_rows(p, rows) for p in lams),
            all(maps_rows_onto_rows(p, rows) for p in rhos),
            maps_rows_onto_rows(iota, rows))


def gamma_acts_cases():
    cases = {f"{n}-{entry.name}": entry.matrix_group
             for n in (3, 4) for entry in default_catalog(n)}
    cases["c6-fixture"] = load_exceptional_c6()
    cases.update((f"{n}-{doc['name']}-conjugated",
                  matrix_group_from_document(doc).matrix_group)
                 for n, seed in ((3, 21), (4, 22))
                 for doc in conjugated_catalog(n, seed))
    return cases


def test_gamma_acts_on_generators_matches_every_element():
    # lambda and rho are homomorphisms into a group, so their generators
    # decide what testing all 2 |G| + 1 maps decides
    for name, mgroup in gamma_acts_cases().items():
        r = verify_gamma_acts(mgroup)
        inc = representation_polytope(mgroup).incidence
        assert (r["lambda_pass"], r["rho_pass"], r["iota_in_group"]) == (
            gamma_acts_oracle(mgroup, inc)) == (True, True, True), name
        assert r["passed"] and r["group_order"] == mgroup.order, name


def swap_first_two_vertices(polytope):
    """The polytope with vertices 0 and 1 relabelled in its incidence."""
    swap = {0: 1, 1: 0}
    inc = IncidenceStructure(polytope.n_vertices, (
        mask(swap.get(v, v) for v in members(row))
        for row in polytope.incidence.tight_sets))
    return polytope._replace(incidence=inc)


def test_gamma_acts_fails_on_a_relabelled_incidence(monkeypatch):
    # where the swap (0 1) is no symmetry of the hull, as on B_3 and B_4,
    # some translation breaks the relabelled incidence, for both checks
    # alike; where it is one, relabelling changes nothing
    hulls = {}

    def relabelled_polytope(mgroup):
        polytope = representation_polytope(mgroup)
        hulls[mgroup] = polytope.incidence, swap_first_two_vertices(polytope)
        return hulls[mgroup][1]

    monkeypatch.setattr(reppoly, "representation_polytope",
                        relabelled_polytope)
    broken = set()
    for name, mgroup in gamma_acts_cases().items():
        r = verify_gamma_acts(mgroup)
        inc, polytope = hulls[mgroup]
        assert (r["lambda_pass"], r["rho_pass"], r["iota_in_group"]) == (
            gamma_acts_oracle(mgroup, polytope.incidence)), name
        swap = (1, 0, *range(2, inc.n_vertices))
        assert r["passed"] == (r["lambda_pass"] and r["rho_pass"]), name
        assert r["passed"] == inc.preserved_by(swap), name
        if not r["passed"]:
            broken.add(name)
    assert {"3-s3_standard", "4-s4_standard", "4-d4_standard",
            "3-c6_exceptional-conjugated"} <= broken


def test_gamma_acts_builds_no_table(monkeypatch):
    # the check tests generators only: no multiplication table, so no
    # regular action of the whole group either (it reads the table)
    groups = [load_exceptional_c6(),
              matrix_group_from_perm_group(named_group("s4"))]

    def refuse(*_):
        raise AssertionError("verify_gamma_acts read a table")

    monkeypatch.setattr(PermutationGroup, "table", property(refuse))
    assert [verify_gamma_acts(g)["passed"] for g in groups] == [True, True]


def test_the_matrix_group_path_builds_no_fraction(tmp_path, capsys,
                                                  monkeypatch):
    # machine-independent gate: from the parsed "p/q" text to the report,
    # a matrix group's rationals, and a vertex document's, stay integers
    # over one denominator, so no Fraction is built: not in parsing,
    # closure, sorting, the hull, the vertex certificates or the document
    path = tmp_path / "s4.json"
    path.write_text(json.dumps(conjugated_catalog(4, 1)[0]))
    vertices = tmp_path / "vertices.json"
    vertices.write_text(json.dumps({"vertices": [
        ["0", "0", "1/3"], ["2/4", "0", "0"], ["0", "-3/-6", "0"],
        ["1/5", "1/7", "6/-9"], [1, 1, 1]]}))
    docs = conjugated_catalog(4, 2)
    c6 = conjugated_catalog(3, 3)[1]
    assert c6["name"] == "c6_exceptional"
    made = []
    new = Fraction.__new__

    def counting(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting)
    code = cli.main(["rep-polytope", "--group", str(path)])
    out = capsys.readouterr().out
    hull_code = cli.main(["hull", str(vertices)])
    report = uniqueness_check(4, [matrix_group_from_document(doc)
                                  for doc in docs])
    acts = verify_gamma_acts(matrix_group_from_document(c6).matrix_group)
    symmetry = verify_symmetry_group(4)
    monkeypatch.undo()
    assert made == []
    assert code == 0 and json.loads(out)["pass"]
    assert hull_code == 0
    assert json.loads(capsys.readouterr().out)["details"]["n_facets"] == 6
    assert report["passed"] and acts["passed"] and symmetry["passed"]


@pytest.mark.parametrize("n, seed", [(3, 11), (4, 12)])
def test_the_integer_path_matches_the_fraction_path(n, seed):
    # each catalog group conjugated by a p/q matrix: the integer sort key
    # gives the order of the Fraction entries, and the hull of the
    # integer rows over their denominator is the hull of the entries
    for doc in conjugated_catalog(n, seed):
        mgroup = matrix_group_from_document(doc).matrix_group
        others = mgroup.elements[1:]
        assert others == sorted(others, key=entries)
        rows, scale = _common_form(mgroup.elements)
        assert scale > 1, doc["name"]  # p/q entries, not integers
        got = facet_enumeration(rows, scale)
        want = hull_of([entries(m) for m in mgroup.elements])
        assert same_polytope(got, want), doc["name"]
        assert (polytope_to_document(got) == polytope_to_document(want)
                == polytope_to_document(representation_polytope(mgroup)))


@given(st.integers(1, 4).flatmap(lambda n: st.lists(
    st.lists(st.fractions(max_denominator=10 ** 6), min_size=n, max_size=n),
    min_size=n, max_size=n)), st.integers(1, 5))
@settings(max_examples=60)
def test_matrix_from_rows_matches_the_fraction_entries(rows, k):
    # cells written as k p / k q, reduced or not, make the matrix the
    # Fraction entries make
    cells = [[f"{k * x.numerator}/{k * x.denominator}" for x in row]
             for row in rows]
    got = matrix_from_rows(cells)
    want = rational_matrix([x for row in rows for x in row])
    assert got == want
    assert entries(got) == tuple(x for row in rows for x in row)


def test_matrix_group_refuses_a_list_not_led_by_the_identity():
    # an explicit check, not an assert that python -O drops
    g = matrix_closure([matrix_from_rows([["0", "-1"], ["1", "1"]])])
    with pytest.raises(ValueError, match="identity"):
        MatrixGroup(g.dim, g.elements[1:], g.generators)
    with pytest.raises(ValueError, match="identity"):
        MatrixGroup(g.dim, [], g.generators)


def test_matrix_group_refuses_an_identity_of_another_size():
    # the identity is the one of the group's own size: the 2 x 2 identity
    # does not lead a group of 3 x 3 matrices
    ident = permutation_matrix(range(2))
    with pytest.raises(ValueError,
                       match="element list must start with the identity"):
        MatrixGroup(3, [ident], [ident])
    assert MatrixGroup(2, [ident], [ident]).order == 1


def test_uniqueness_n3():
    r = uniqueness_check(3)
    assert r["passed"]
    verdicts = {e["name"]: e["equivalent"] for e in r["entries"]}
    assert verdicts == {
        "s3_standard": True,
        "c6_exceptional": True,
        "c6_regular": False,
        "s3_regular": False,
        "c4_regular": False,
        "v4_regular": False,
    }
    for e in r["entries"]:
        assert e["expected"] == e["equivalent"]
        assert (e["witness"] is not None) == e["equivalent"]


def test_uniqueness_witnesses_verify_independently():
    # re-check each equivalence witness against the incidences directly
    r = uniqueness_check(3)
    reference = facet_enumeration(birkhoff_rows(3)).incidence
    ref_rows = set(reference.tight_sets)
    equivalent = [e for e in r["entries"] if e["equivalent"]]
    assert len(equivalent) == 2
    by_name = {
        "s3_standard": matrix_group_from_perm_group(named_group("s3")),
        "c6_exceptional": load_exceptional_c6(),
    }
    for e in equivalent:
        inc = representation_polytope(by_name[e["name"]]).incidence
        assert inc.n_facets == reference.n_facets
        for row in inc.tight_sets:
            assert mask(e["witness"][v] for v in members(row)) in ref_rows


def test_uniqueness_n4():
    r = uniqueness_check(4)
    assert r["passed"]
    verdicts = {e["name"]: e["equivalent"] for e in r["entries"]}
    assert verdicts == {"s4_standard": True, "d4_standard": False,
                        "c4_regular": False}


def test_library_reports_round_trip_json_with_their_field_names():
    # bench/worker.py writes these results with `json.dump` and
    # bench/checks.py reads them back by these keys
    entry_keys = ["name", "order", "dim", "n_vertices", "n_facets",
                  "equivalent", "expected", "witness", "passed"]
    r = json.loads(json.dumps(uniqueness_check(3)))
    assert list(r) == ["n", "entries", "passed"]
    assert len(r["entries"]) == 6
    assert all(list(e) == entry_keys for e in r["entries"])
    acts = json.loads(json.dumps(verify_gamma_acts(load_exceptional_c6())))
    assert list(acts) == ["group_order", "aut_order", "lambda_pass",
                          "rho_pass", "iota_in_group", "passed"]


def test_uniqueness_bad_n():
    # with no catalog, default_catalog is the one owner of n in {3, 4}
    with pytest.raises(PreconditionError,
                       match=r"^uniqueness check supports n in \{3, 4\}$"):
        uniqueness_check(5)


def _small_catalog():
    return [CatalogEntry("s3_standard",
                         matrix_group_from_perm_group(named_group("s3")),
                         expect_equivalent=False, declared_order=6),
            CatalogEntry("c4_regular",
                         matrix_group_from_perm_group(named_group("c4")),
                         declared_order=4)]


@pytest.mark.parametrize("n", [5, 6])
def test_uniqueness_compares_a_given_catalog_past_the_default_range(n):
    # a given catalog is compared with the certified B_5 or B_6, as the
    # benchmark's library tasks do with theirs; these small polytopes
    # match neither
    r = uniqueness_check(n, _small_catalog())
    assert r["n"] == n and r["passed"]
    assert [(e["name"], e["equivalent"], e["dim"], e["n_vertices"],
             e["n_facets"], e["witness"], e["passed"])
            for e in r["entries"]] == [
        ("s3_standard", False, 4, 6, 9, None, True),
        ("c4_regular", False, 3, 4, 4, None, True)]


@pytest.mark.parametrize("n", [2, MAX_N + 1])
def test_uniqueness_refuses_a_catalog_outside_the_reference_range(
        monkeypatch, n):
    # B_n's certified reference owns 3 <= n <= MAX_N, and refuses before
    # any entry's polytope is hulled
    hulled = []
    monkeypatch.setattr(reppoly, "representation_polytope", hulled.append)
    with pytest.raises(PreconditionError,
                       match=rf"^facet certificate supports 3 <= n <= {MAX_N}$"):
        uniqueness_check(n, _small_catalog())
    assert hulled == []


def test_document_parsing_errors():
    with pytest.raises(ValueError, match="needs 'dim' and 'generators'"):
        matrix_group_from_document({"dim": 2})
    with pytest.raises(ValueError, match="declared dim"):
        matrix_group_from_document(
            {"dim": 3, "generators": [[["1", "0"], ["0", "1"]]]})
    with pytest.raises(ValueError, match="declares"):
        matrix_group_from_document(
            {"dim": 2, "order": 5,
             "generators": [[["0", "-1"], ["1", "0"]]]})
    # the cells, as integer pairs: square rows, no zero denominator, no
    # float written as a decimal
    for rows, message in (([["1", "0"], ["0"]], "square"),
                          ([["1", "0", "0"], ["0", "1", "0"]], "square"),
                          ([["1", "1/0"], ["0", "1"]], "zero denominator"),
                          ([["1", 0.5], ["0", "1"]], "not a rational")):
        with pytest.raises(ValueError, match=message):
            matrix_group_from_document({"dim": 2, "generators": [rows]})


def test_document_fields_read_back_typed_or_by_default():
    gens = [[["-1"]]]
    entry = matrix_group_from_document(
        {"dim": 1, "generators": gens, "name": "c2", "order": 2,
         "expect_equivalent": True})
    assert (entry.name, entry.declared_order, entry.expect_equivalent) == (
        "c2", 2, True)
    # a null field is a field left out
    for extra in ({}, {"name": None, "order": None,
                       "expect_equivalent": None}):
        entry = matrix_group_from_document(
            {"dim": 1, "generators": gens, **extra})
        assert (entry.name, entry.declared_order,
                entry.expect_equivalent) == ("unnamed", None, None)


def test_document_roundtrip_c6_fixture():
    import importlib.resources as resources
    text = resources.files("birkhoffsym").joinpath(
        "data/c6_exceptional.json").read_text()
    doc = json.loads(text)
    entry = matrix_group_from_document(doc)
    assert entry.name == "c6_exceptional"
    assert entry.declared_order == 6
    assert entry.matrix_group.order == 6


def test_catalog_declared_order_mismatch_raises():
    from birkhoffsym.reppoly import CatalogEntry
    bad = CatalogEntry("bad", matrix_group_from_perm_group(named_group("c4")),
                       expect_equivalent=False, declared_order=7)
    with pytest.raises(ValueError, match="declared"):
        uniqueness_check(3, [bad])


def test_exceptional_c6_equivalence_witness_direct():
    # the pair that makes uniqueness fail at n = 3: an order-6 group in
    # dimension 4 whose polytope has the B_3 incidence
    reference = facet_enumeration(birkhoff_rows(3)).incidence
    inc = representation_polytope(load_exceptional_c6()).incidence
    assert comb_equivalent(inc, reference) is not None
