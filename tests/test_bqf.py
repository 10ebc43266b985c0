"""Tests for quadratic form reduction, composition, and the census."""

import pytest

from orbitforge.arith import rng_for
from orbitforge.bqf import (BQForm, ClassGroup, FormCensus, bqf_class_group,
                            bqf_orbit_census, bqf_reduce, compose_forms,
                            is_reduced, reduced_forms)
from orbitforge import bqf
from orbitforge.errors import (BudgetExceeded, InvalidDiscriminant,
                               NotNegativeDiscriminant, NotPositiveDefinite,
                               NotPrimitive)


def test_form_basics():
    F = BQForm(2, 4, 6)
    assert F.disc == 16 - 48 == -32
    assert F.content == 2
    assert not F.is_primitive()
    assert BQForm(1, 1, 6).is_primitive()
    assert F.value(1, 0) == 2
    assert F.value(1, -1) == 4
    assert BQForm(1, 1, 6) == BQForm(1, 1, 6)
    assert len({BQForm(1, 1, 6), BQForm(1, 1, 6)}) == 1


def test_reduce_examples():
    assert bqf_reduce(BQForm(1, 1, 6)) == BQForm(1, 1, 6)
    assert bqf_reduce(BQForm(3, 1, 2)) == BQForm(2, -1, 3)
    assert bqf_reduce(BQForm(2, 2, 3)) == BQForm(2, 2, 3)
    # content 2 rides along untouched
    assert bqf_reduce(BQForm(2, 4, 6)) == BQForm(2, 0, 4)


def test_reduce_errors():
    with pytest.raises(NotNegativeDiscriminant):
        bqf_reduce(BQForm(1, 3, 1))
    with pytest.raises(NotNegativeDiscriminant):
        bqf_reduce(BQForm(1, 2, 1))
    with pytest.raises(NotPositiveDefinite):
        bqf_reduce(BQForm(-1, 0, -1))


def test_reduce_is_equivalence_invariant():
    rng = rng_for("bqf-reduce")
    done = 0
    while done < 40:
        a = rng.randrange(1, 30)
        b = rng.randrange(-40, 41)
        c = rng.randrange(1, 30)
        F = BQForm(a, b, c)
        if F.disc >= 0:
            continue
        R = bqf_reduce(F)
        assert is_reduced(R)
        assert bqf_reduce(R) == R
        assert R.disc == F.disc and R.content == F.content
        # both generators land in the same class
        assert bqf_reduce(BQForm(c, -b, a)) == R
        assert bqf_reduce(BQForm(a, b + 2 * a, a + b + c)) == R
        assert bqf_reduce(BQForm(a, b - 2 * a, a - b + c)) == R
        done += 1


def test_reduced_forms_enumeration():
    forms = reduced_forms(-23)
    assert [F.as_tuple() for F in forms] == [(1, 1, 6), (2, 1, 3), (2, -1, 3)]
    # the imprimitive (2, 0, 2) is left out
    assert [F.as_tuple() for F in reduced_forms(-16)] == [(1, 0, 4)]


def test_class_group_minus_23():
    g = bqf_class_group(-23)
    assert g.h == 3
    assert [F.as_tuple() for F in g.forms] == [(1, 1, 6), (2, 1, 3),
                                               (2, -1, 3)]
    # cyclic of order three: each non-identity squares to the other
    assert g.table == ((0, 1, 2), (1, 2, 0), (2, 0, 1))
    assert g.identity == BQForm(1, 1, 6)
    assert g.class_index(BQForm(3, 1, 2)) == 2


def test_class_group_small_oracles():
    g4 = bqf_class_group(-4)
    assert g4.h == 1 and g4.forms == (BQForm(1, 0, 1),)
    g20 = bqf_class_group(-20)
    assert g20.h == 2
    assert [F.as_tuple() for F in g20.forms] == [(1, 0, 5), (2, 2, 3)]
    assert g20.table == ((0, 1), (1, 0))
    g3 = bqf_class_group(-3)
    assert g3.h == 1 and g3.forms == (BQForm(1, 1, 1),)


def test_class_group_known_values():
    known = {-163: 1, -67: 1, -43: 1, -11: 1, -15: 2, -31: 3, -39: 4,
             -47: 5, -71: 7, -95: 8}
    for d, h in known.items():
        assert bqf_class_group(d).h == h, d


def test_invalid_discriminants():
    for d in (-6, -1, -2, 0, 4, 5):
        with pytest.raises(InvalidDiscriminant):
            bqf_class_group(d)
        with pytest.raises(InvalidDiscriminant):
            bqf_orbit_census(d, 20)
    with pytest.raises(InvalidDiscriminant):
        bqf_orbit_census(-23, 0)


def test_composition_needs_matching_primitive_forms():
    with pytest.raises(NotPrimitive):
        compose_forms(BQForm(2, 0, 4), BQForm(2, 0, 4))
    with pytest.raises(InvalidDiscriminant):
        compose_forms(BQForm(1, 1, 6), BQForm(1, 0, 1))


def test_class_group_axioms_exhaustive():
    # internal asserts cover identity, closure, inverses, commutativity,
    # and associativity; this sweep runs them for every discriminant
    count = 0
    for d in range(-3, -401, -1):
        if d % 4 not in (0, 1):
            continue
        g = bqf_class_group(d)
        assert g.h >= 1
        assert g.forms[0].a == 1
        count += 1
    assert count == 200


def test_census_examples():
    rep = bqf_orbit_census(-23, 50)
    assert isinstance(rep, FormCensus)
    assert rep.orbit_count == 3
    assert rep.class_number == 3
    assert rep.agreement is True
    assert rep.witnesses == ()
    assert bqf_orbit_census(-4, 20).orbit_count == 1
    assert bqf_orbit_census(-3, 20).orbit_count == 1


def test_census_agreement_sweep():
    for d in range(-3, -201, -1):
        if d % 4 not in (0, 1):
            continue
        rep = bqf_orbit_census(d, 60)
        assert rep.agreement, (d, rep.orbit_count, rep.class_number,
                               rep.witnesses)
        assert rep.orbit_count == rep.class_number


def test_census_composes_no_forms(monkeypatch):
    # the census reads the reduced forms; it needs no composition table
    from orbitforge import bqf

    def report(d, bound):
        rep = bqf_orbit_census(d, bound)
        return (rep.d, rep.bound, rep.orbit_count, rep.class_number,
                rep.agreement, rep.witnesses)

    boxes = [(-3, 20), (-23, 2), (-23, 50), (-47, 3), (-71, 8), (-84, 30)]
    want = [report(d, bound) for d, bound in boxes]

    def refuse(F, G):
        raise AssertionError("the census composed two forms")

    monkeypatch.setattr(bqf, "compose_forms", refuse)
    assert [report(d, bound) for d, bound in boxes] == want
    # both outcomes: boxes that agree and boxes that report witnesses
    assert any(r[4] for r in want) and any(r[5] for r in want)


def test_pair_budget_refuses_before_any_work(monkeypatch):
    # reduced_forms scans a^2 + 2a pairs for a = isqrt(-d // 3), a census
    # box of bound B another B (2B + 1); past FORM_PAIR_BUDGET = 50,000
    # either command refuses before it enumerates a single form
    class Enumerated(Exception):
        pass

    def refuse(*args):
        raise Enumerated

    monkeypatch.setattr(bqf, "reduced_forms", refuse)
    monkeypatch.setattr(bqf, "_census_nodes", refuse)
    with pytest.raises(BudgetExceeded, match="50175 .* FORM_PAIR_BUDGET"):
        bqf_class_group(-149187)  # a = 223
    with pytest.raises(BudgetExceeded, match="50089 .* FORM_PAIR_BUDGET"):
        bqf_orbit_census(-3, 158)
    # one step inside the budget the enumeration starts
    with pytest.raises(Enumerated):
        bqf_class_group(-149183)  # a = 222: 49,728 pairs
    with pytest.raises(Enumerated):
        bqf_orbit_census(-3, 157)  # 49,455 + 3 pairs


def test_census_small_box_reports_honestly():
    rep = bqf_orbit_census(-23, 2)
    assert rep.orbit_count == 0
    assert rep.class_number == 3
    assert rep.agreement is False
    assert len(rep.witnesses) == 3
    assert all(kind == "outside-box" for kind, _, _ in rep.witnesses)
