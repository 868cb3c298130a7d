import itertools
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from msss.accessstruct import check_id, is_authorized, matching_set_index, validate_minimal
from msss.errors import BadParameter, EmptySet, EmptyStructure, NotAntichain

from oracles import is_antichain_bruteforce

PIDS = ["A", "B", "C", "D", "E"]

subset_strategy = st.frozensets(st.sampled_from(PIDS), min_size=0, max_size=5)
structure_strategy = st.lists(subset_strategy, min_size=0, max_size=6)


def _distinct_minimal(sets):
    """The distinct minimal sets among ``sets``, in first-seen order: an antichain."""
    distinct = list(dict.fromkeys(sets))
    return [s for s in distinct if not any(t < s for t in distinct)]


# every antichain of 1 to 6 non-empty sets, drawn directly instead of filtered
antichain_strategy = st.lists(
    st.frozensets(st.sampled_from(PIDS), min_size=1, max_size=5), min_size=1, max_size=6
).map(_distinct_minimal)


def test_accepts_simple_antichain():
    s = validate_minimal([{"A", "B"}, {"B", "C"}])
    assert s == (frozenset("AB"), frozenset("BC"))


def test_rejects_nested_sets():
    with pytest.raises(NotAntichain):
        validate_minimal([{"A"}, {"A", "B"}])


def test_rejects_duplicates():
    with pytest.raises(NotAntichain):
        validate_minimal([{"A", "B"}, {"B", "A"}])


def test_rejects_empty_structure():
    with pytest.raises(EmptyStructure):
        validate_minimal([])


def test_rejects_empty_member_set():
    with pytest.raises(EmptySet):
        validate_minimal([{"A"}, set()])


def test_preserves_input_order():
    s = validate_minimal([["C"], ["A", "B"]])
    assert s == (frozenset("C"), frozenset("AB"))


def test_member_lists_are_deduplicated():
    s = validate_minimal([["A", "A", "B"], ["C"]])
    assert s[0] == frozenset("AB")
    with pytest.raises(NotAntichain):
        validate_minimal([["A", "A"], ["A"]])  # same set twice once normalized


@pytest.mark.parametrize(
    "pid", ["", " ", " C", "C,D", "C|D", 7], ids=["empty", "blank", "padded", "comma", "bar", "int"]
)
def test_refuses_an_id_no_set_list_can_name(pid):
    message = f"^participant id {re.escape(repr(pid))} cannot be named in a set list$"
    with pytest.raises(BadParameter, match=message):
        check_id(pid)
    with pytest.raises(BadParameter, match=message):
        validate_minimal([["A", pid]])


def test_is_authorized_superset():
    s = validate_minimal([{"A", "B"}, {"B", "C"}])
    assert is_authorized(s, {"A", "B", "C"})
    assert is_authorized(s, {"A", "B"})
    assert not is_authorized(s, {"A", "C"})
    assert not is_authorized(s, set())


def test_matching_set_index_is_exact_and_one_based():
    s = validate_minimal([{"A", "B"}, {"B", "C"}])
    assert matching_set_index(s, {"B", "C"}) == 2
    assert matching_set_index(s, {"A", "B"}) == 1
    assert matching_set_index(s, {"A", "B", "C"}) is None
    assert matching_set_index(validate_minimal([{"A", "B"}]), {"A"}) is None


@given(structure_strategy)
@settings(max_examples=200, deadline=None)
def test_validation_matches_bruteforce_oracle(sets):
    well_formed = bool(sets) and all(sets) and is_antichain_bruteforce(sets)
    if well_formed:
        assert len(validate_minimal(sets)) == len(sets)
    else:
        with pytest.raises((EmptyStructure, EmptySet, NotAntichain)):
            validate_minimal(sets)


@given(antichain_strategy)
@settings(max_examples=100, deadline=None)
def test_monotone_closure_over_the_roster(sets):
    structure = validate_minimal(sets)
    others = [p for p in PIDS if p not in frozenset().union(*structure)]
    for minimal in structure:
        for extra in range(len(others) + 1):
            for added in itertools.combinations(others, extra):
                assert is_authorized(structure, minimal | frozenset(added))


@given(antichain_strategy)
@settings(max_examples=100, deadline=None)
def test_strict_subsets_not_authorized(sets):
    structure = validate_minimal(sets)
    for minimal in structure:
        for size in range(len(minimal)):
            for sub in itertools.combinations(sorted(minimal), size):
                contains_other = any(g <= frozenset(sub) for g in structure)
                if not contains_other:
                    assert not is_authorized(structure, sub)
