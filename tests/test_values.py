"""Value semantics of the msss types: the public records are immutable
values compared and hashed by their fields, and the two mutable records,
``Board`` and ``DealerState``, compare by their fields and never share a
dict between instances."""

import pytest

from msss.bulletin import (
    Board,
    Contribution,
    DealerState,
    PackageEntry,
    ParticipantKey,
    PublicParams,
    SecretPackage,
)
from msss.simulate import SimulationConfig

PARAMS_FIELDS = dict(g=15, n=143, m=149, width=1, m_chain=())
ENTRY_FIELDS = dict(members=frozenset({"A", "B"}), d=7, masked=184, tag=bytes(32))
PARAMS = PublicParams(**PARAMS_FIELDS)
ENTRY = PackageEntry(**ENTRY_FIELDS)
PACKAGE_FIELDS = dict(secret_id="s1", ps0=115, h0=103, f1=105, entries=(ENTRY,))
PACKAGE = SecretPackage(**PACKAGE_FIELDS)

# (type, the fields of one value, one field and another value for it)
VALUES = [
    (PublicParams, PARAMS_FIELDS, "g", 16),
    (PackageEntry, ENTRY_FIELDS, "d", 8),
    (SecretPackage, PACKAGE_FIELDS, "entries", (ENTRY, PackageEntry(**{**ENTRY_FIELDS, "d": 9}))),
    (ParticipantKey, dict(pid="A", s=5, ps=45), "s", 6),
    (Contribution, dict(pid="A", secret_id="s1", set_index=1, x=112), "x", 113),
    (SimulationConfig, dict(participants=3, secrets=2, seed=1), "seed", 2),
]


@pytest.mark.parametrize("cls, fields, name, other", VALUES, ids=[v[0].__name__ for v in VALUES])
class TestValueTypes:
    def test_equal_fields_give_equal_values_and_hashes(self, cls, fields, name, other):
        a, b = cls(**fields), cls(**fields)
        assert a is not b
        assert a == b
        assert hash(a) == hash(b)

    def test_one_differing_field_gives_unequal_values(self, cls, fields, name, other):
        assert cls(**fields) != cls(**{**fields, name: other})

    def test_fields_cannot_be_assigned(self, cls, fields, name, other):
        value = cls(**fields)
        with pytest.raises(AttributeError):
            setattr(value, name, other)
        assert getattr(value, name) == fields[name]


class TestMutableRecords:
    def test_boards_compare_by_fields(self):
        assert Board(PARAMS) == Board(PARAMS)
        assert Board(PARAMS, {"A": 45}, {"s1": PACKAGE}, 3) == Board(
            params=PARAMS, roster={"A": 45}, packages={"s1": PACKAGE}, revision=3
        )
        assert Board(PARAMS) != Board(PARAMS, revision=1)
        assert Board(PARAMS) != Board(PARAMS, roster={"A": 45})
        assert Board(PARAMS) != Board(PARAMS, packages={"s1": PACKAGE})
        assert Board(PARAMS) != Board(PublicParams(**{**PARAMS_FIELDS, "g": 16}))

    def test_dealer_states_compare_by_fields(self):
        assert DealerState(11, 13) == DealerState(p=11, q=13, secrets={})
        assert DealerState(11, 13) != DealerState(13, 11)
        assert DealerState(11, 13) != DealerState(11, 13, secrets={"s1": 100})
        assert DealerState(11, 13).phi == 120
        # each package lives on the board alone
        assert vars(DealerState(11, 13)).keys() == {"p", "q", "q_inv", "secrets"}

    def test_boards_share_no_dict(self):
        a, b = Board(PARAMS), Board(PARAMS)
        assert a.roster is not b.roster
        assert a.packages is not b.packages
        a.roster["A"] = 45
        a.packages["s1"] = PACKAGE
        assert (b.roster, b.packages) == ({}, {})

    def test_dealer_states_share_no_dict(self):
        a, b = DealerState(11, 13), DealerState(11, 13)
        assert a.secrets is not b.secrets
        a.secrets["s1"] = 100
        assert b.secrets == {}
