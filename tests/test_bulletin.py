import json
import math
import random
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from msss import bulletin, codec, combiner, dealer, numtheory, participant
from msss.accessstruct import validate_minimal
from msss.bulletin import Board, from_document, hex_to_int, load, save, to_document
from msss.errors import (
    BoardIOError,
    InvariantViolation,
    MalformedDocument,
    MsssError,
)
from msss.linepoly import interpolate_line

from conftest import TOY_WIDE_H0, make_toy_world
from oracles import miller_rabin, trial_division_factor


def _no_pow(*args):
    raise AssertionError("pow called")


def _toy_board(toy) -> Board:
    return Board(
        params=toy.params,
        roster=dict(toy.roster),
        packages={toy.package.secret_id: toy.package},
        revision=3,
    )


class TestCanonicalForm:
    def test_round_trip_identity(self, toy):
        board = _toy_board(toy)
        doc = to_document(board)
        again = from_document(doc)
        assert again == board
        assert to_document(again) == doc

    def test_save_load_save_is_stable(self, toy, tmp_path):
        board = _toy_board(toy)
        path = tmp_path / "board.json"
        first = save(board, path)
        second = save(load(path), path)
        assert first == second

    def test_two_saves_are_identical(self, toy, tmp_path):
        board = _toy_board(toy)
        a = save(board, tmp_path / "a.json")
        b = save(board, tmp_path / "b.json")
        assert a == b

    def test_board_without_packages(self, toy):
        board = Board(params=toy.params, roster=dict(toy.roster))
        doc = to_document(board)
        assert from_document(doc) == board
        assert json.loads(doc)["packages"] == {}

    def test_hex_is_lowercase_without_leading_zeros(self, toy):
        doc = to_document(_toy_board(toy))
        obj = json.loads(doc)
        assert obj["params"]["n"] == "8f"
        assert obj["roster"]["A"] == "2d"
        assert obj["packages"]["s1"]["entries"][0]["d"] == "7"

    def test_missing_file(self, tmp_path):
        with pytest.raises(BoardIOError):
            load(tmp_path / "nope.json")

    def test_multiple_packages_keep_insertion_order(self, toy):
        # two packages may not share h0, so the second one is a real share
        dealer.share_secret(toy.state, toy.board, 17, validate_minimal([["A"]]), random.Random(2))
        doc = to_document(toy.board)
        assert doc.index('"s1"') < doc.index('"s2"')
        assert list(from_document(doc).packages) == ["s1", "s2"]


class TestValidation:
    def test_duplicate_d_rejected(self, toy):
        entry = toy.package.entry(1)
        twin = entry._replace(members=frozenset(["A"]))
        pkg = toy.package._replace(entries=(entry, twin))
        board = Board(params=toy.params, roster=dict(toy.roster), packages={"s1": pkg})
        with pytest.raises(InvariantViolation, match="duplicate d"):
            from_document(to_document(board))

    def test_composite_m_rejected(self, toy):
        doc = to_document(_toy_board(toy))
        bad = doc.replace('"m": "95"', '"m": "99"')  # 0x99 = 153 = 9 * 17
        with pytest.raises(InvariantViolation, match="m not proved prime by its chain"):
            from_document(bad)

    def test_load_proves_m_without_a_random_draw(self, tmp_path, monkeypatch):
        class NoDraws:
            def __getattr__(self, name):
                raise AssertionError(f"board load drew from the random source ({name})")

        params, _ = dealer.setup(64, random.Random(2))
        assert params.m_chain  # m is past trial division, so the chain does the proving
        save(Board(params), tmp_path / "board.json")
        monkeypatch.setattr(numtheory, "random", NoDraws())
        assert load(tmp_path / "board.json").params == params

    def test_board_whose_m_was_searched_above_n_still_loads(self, tmp_path):
        # before m was one constant per width, setup searched up from n for
        # the smallest 2*k*N1 + 1 that the step proves, over an N1 of
        # n.bit_length() // 2 + 2 bits; the reader takes any proved m > n
        params, state = dealer.setup(64, random.Random(2))
        n = params.n
        chain = numtheory._proved_prime(n.bit_length() // 2 + 2, random.Random(5))
        step = 2 * chain[0]
        m = n + step - (n - 1) % step
        while not numtheory.pocklington_step(m, chain[0]):
            m += step
        assert n < m < params.m
        board = Board(params._replace(m=m, width=codec.mask_width(m), m_chain=chain))
        for pid, seed in (("A", 1), ("B", 2)):
            dealer.enroll(board, pid, participant.keygen(board.params, pid, random.Random(seed)).ps)
        dealer.share_secret(state, board, 12345, [["A", "B"]], random.Random(3))
        save(board, tmp_path / "board.json")
        assert load(tmp_path / "board.json") == board

    def test_repeated_pseudo_share_rejected(self):
        # B enrolls a copy of A's pseudo-share: their masks cancel, so the
        # board alone opens a set that holds both
        params, state = dealer.setup(64, random.Random(5))
        ps = participant.keygen(params, "A", random.Random(6)).ps
        roster = {"A": ps, "B": ps}
        board = Board(params, roster)
        structure = validate_minimal([frozenset("AB")])
        pkg = dealer.share_secret(state, board, 12345, structure, random.Random(7))
        entry = pkg.entry(1)
        assert interpolate_line(pkg.f1, entry.d, entry.masked, params.m) == 12345
        with pytest.raises(InvariantViolation, match="B holds the pseudo-share of A"):
            from_document(to_document(board))

    def test_not_json(self):
        with pytest.raises(MalformedDocument):
            from_document("{ nope")

    def test_unexpected_keys(self, toy):
        obj = json.loads(to_document(_toy_board(toy)))
        obj["extra"] = 1
        with pytest.raises(MalformedDocument):
            from_document(json.dumps(obj))

    def test_uppercase_hex_rejected(self, toy):
        doc = to_document(_toy_board(toy))
        bad = doc.replace('"n": "8f"', '"n": "8F"')
        with pytest.raises(MalformedDocument):
            from_document(bad)

    @pytest.mark.parametrize("field, value", [("n", "008f"), ("d", "07")])
    def test_leading_zeros_rejected(self, toy, field, value):
        # "008f" once loaded as n = 0x8f, and saving the board dropped the zeros
        obj = json.loads(to_document(_toy_board(toy)))
        if field == "n":
            obj["params"]["n"] = value
        else:
            obj["packages"]["s1"]["entries"][0]["d"] = value
        with pytest.raises(MalformedDocument, match="leading zeros") as raised:
            from_document(json.dumps(obj, indent=2) + "\n")
        assert raised.value.exit_code == 18

    def test_zero_is_hex_0(self):
        assert hex_to_int("0", "x") == 0
        with pytest.raises(MalformedDocument):
            hex_to_int("00", "x")

    def test_member_not_on_roster(self, toy):
        obj = json.loads(to_document(_toy_board(toy)))
        del obj["roster"]["B"]
        with pytest.raises(InvariantViolation, match="not on the roster"):
            from_document(json.dumps(obj))

    def test_non_antichain_package(self, toy):
        entry = toy.package.entry(1)
        smaller = entry._replace(members=frozenset(["A"]), d=9)
        pkg = toy.package._replace(entries=(entry, smaller))
        board = Board(params=toy.params, roster=dict(toy.roster), packages={"s1": pkg})
        with pytest.raises(InvariantViolation, match="contained in"):
            from_document(to_document(board))

    @pytest.mark.parametrize(
        "where, value",
        [
            ("roster", 0),  # x = 0 once verified as A's honest contribution
            ("roster", 11),  # a factor of n = 143
            ("ps0", 13),  # the other factor
        ],
    )
    def test_non_units_rejected(self, toy, where, value):
        obj = json.loads(to_document(_toy_board(toy)))
        if where == "roster":
            obj["roster"]["A"] = format(value, "x")
        else:
            obj["packages"]["s1"]["ps0"] = format(value, "x")
        with pytest.raises(InvariantViolation, match="not a reduced unit mod n") as raised:
            from_document(json.dumps(obj))
        assert raised.value.exit_code == 19

    @pytest.mark.parametrize("h0", [101, 105, 107])  # the toy package's h0 is 103
    def test_h0_must_open_ps0_to_g(self, toy, h0):
        obj = json.loads(to_document(_toy_board(toy)))
        obj["packages"]["s1"]["h0"] = format(h0, "x")
        with pytest.raises(InvariantViolation, match=r"s1: ps0\^h0 is not g mod n") as raised:
            from_document(json.dumps(obj))
        assert raised.value.exit_code == 19

    @pytest.mark.parametrize(
        "h0, rule",
        [
            pytest.param(TOY_WIDE_H0, "h0 has 129 bits, over 128", id="129-bit"),
            pytest.param(0, "h0 is not odd and at least 3", id="0"),
            pytest.param(1, "h0 is not odd and at least 3", id="1"),
            pytest.param(102, "h0 is not odd and at least 3", id="102"),
            pytest.param(104, "h0 is not odd and at least 3", id="104"),
        ],
    )
    def test_h0_must_be_short_odd_and_at_least_3(self, toy, h0, rule, monkeypatch):
        obj = json.loads(to_document(_toy_board(toy)))
        obj["packages"]["s1"]["h0"] = format(h0, "x")
        # refused before any pow
        monkeypatch.setattr(bulletin, "powmod", _no_pow)
        monkeypatch.setattr(bulletin, "proves_prime", _no_pow)
        with pytest.raises(InvariantViolation, match=f"s1: {rule}") as raised:
            from_document(json.dumps(obj))
        assert raised.value.exit_code == 19

    def test_two_packages_with_one_h0_rejected(self, toy):
        # s2 copies s1's ps0 and h0, so ps0^h0 = g holds for both: the two
        # would share s0, and only the uniqueness rule breaks
        second = dealer.share_secret(
            toy.state, toy.board, 17, validate_minimal([["A"]]), random.Random(2)
        )._replace(ps0=toy.package.ps0, h0=toy.package.h0)
        board = Board(toy.params, dict(toy.roster), {"s1": toy.package, "s2": second})
        with pytest.raises(InvariantViolation, match="s2: h0 is also the h0 of s1") as raised:
            from_document(to_document(board))
        assert raised.value.exit_code == 19

    def test_ps0_equal_to_g_rejected(self, toy):
        # h0 = 61 is its own inverse mod 120 and 15^61 = 15 mod 143, as g has
        # order 60: ps0 = g opens to g, and every mask ps^61 is ps itself
        pkg = toy.package._replace(ps0=toy.params.g, h0=61)
        assert pow(pkg.ps0, pkg.h0, toy.params.n) == toy.params.g
        board = Board(toy.params, dict(toy.roster), {"s1": pkg})
        with pytest.raises(InvariantViolation, match="s1: ps0 is g") as raised:
            from_document(to_document(board))
        assert raised.value.exit_code == 19

    def test_d_of_one_rejected(self, toy):
        entry = toy.package.entry(1)._replace(d=1)
        pkg = toy.package._replace(entries=(entry,))
        board = Board(params=toy.params, roster=dict(toy.roster), packages={"s1": pkg})
        with pytest.raises(InvariantViolation, match="outside"):
            from_document(to_document(board))


# One JSON edit of the toy board each: the keys that lead to a value, its
# new value, and the exit code and message of the refusal
@pytest.mark.parametrize("keys, value, code, message", [
    pytest.param(["params", "n"], "3", 19, "n too small to be a product of two primes", id="n"),
    pytest.param(["params", "width"], 2, 19, "width does not match m", id="width"),
    pytest.param(["params", "g"], "5", 19, "g outside [sqrt(n), n]", id="g-below-sqrt-n"),
    pytest.param(["params", "g"], "84", 19, "g shares a factor with n", id="g-shares-11"),
    pytest.param(["revision"], -1, 19, "negative revision", id="revision"),
    pytest.param(["roster", ""], "2", 19, "participant id '' cannot be named in a set list",
                 id="empty-id"),
    pytest.param(["roster", "C,D"], "2", 19, "participant id 'C,D' cannot be named in a set list",
                 id="comma-id"),
    pytest.param(["roster", " C"], "2", 19, "participant id ' C' cannot be named in a set list",
                 id="padded-id"),
    pytest.param(["packages", "s1", "entries"], [], 19, "s1: no qualified sets", id="no-entries"),
    pytest.param(["packages", "s1", "entries", 0, "masked"], "100", 19,
                 "s1: masked value wider than 1 bytes", id="wide-masked"),
    pytest.param(["packages", "s1", "entries", 0, "members"], ["A", "A"], 18,
                 "document packages s1 entries 1 members: duplicate member ids", id="members"),
    pytest.param(["params"], [], 18, "document params: expected an object", id="params"),
])
def test_each_board_refusal_names_its_rule(toy, keys, value, code, message):
    obj = json.loads(to_document(_toy_board(toy)))
    target = obj
    for key in keys[:-1]:
        target = target[key]
    target[keys[-1]] = value
    with pytest.raises(MsssError) as raised:
        from_document(json.dumps(obj))
    assert (raised.value.exit_code, str(raised.value)) == (code, message)


# Each record of the four files: the file, the keys that lead to it, how its
# errors name it ("{path}" is the file's own path), and a value of the wrong
# JSON type for each of its fields.
RECORDS = {
    "document": ("board", [], "{path}",
                 {"revision": "3", "params": [], "roster": [], "packages": []}),
    "params": ("board", ["params"], "{path} params",
               {"g": 15, "n": 143, "m": None, "width": "1", "m_chain": {}}),
    "package": ("board", ["packages", "s1"], "{path} packages s1",
                {"ps0": 115, "h0": [], "f1": ["69"], "entries": {}}),
    "entry": ("board", ["packages", "s1", "entries", 0], "{path} packages s1 entries 1",
              {"members": "A", "d": 7, "masked": True, "tag": 64}),
    "dealer file": ("dealer", [], "{path}", {"p": 11, "q": 13.0, "secrets": [], "digests": []}),
    "key": ("key", [], "{path}", {"id": ["A"], "s": 5, "ps": {"hex": "2d"}}),
    "contribution": ("contribution", [], "{path}",
                     {"pid": 1, "secret_id": None, "set_index": "1", "x": 1.5}),
}
# the faults of every field, then those of the hex and the integer fields
FIELD_FAULTS = ("missing", "wrong type", "repeated key")
HEX_FIELDS = ("g", "n", "m", "ps0", "h0", "f1", "d", "masked", "p", "q", "s", "ps", "x")
READER_FAULTS = {**dict.fromkeys(HEX_FIELDS, ("leading zero",)),
                 **dict.fromkeys(("revision", "width", "set_index"), ("true", "1.9"))}
FAULTS = [
    (record, fault, field)
    for record, (*_, wrong) in RECORDS.items()
    for field in wrong
    for fault in FIELD_FAULTS + READER_FAULTS.get(field, ())
] + [(record, "extra", "note") for record in RECORDS]


@pytest.fixture(scope="module")
def toy_file_texts(tmp_path_factory):
    """The toy board, and the text of each of the four files it goes with."""
    toy = make_toy_world()
    board = _toy_board(toy)
    tmp = tmp_path_factory.mktemp("files")
    save(board, tmp / "board")
    bulletin.save_dealer(toy.state, board, tmp / "dealer")
    bulletin.save_key(toy.key_a, tmp / "key")
    c = participant.contribute(toy.params, toy.key_a, toy.package, 1)
    bulletin.save_contribution(c, tmp / "contribution")
    files = ("board", "dealer", "key", "contribution")
    return board, {file: (tmp / file).read_text() for file in files}


def _read(board, file, path):
    """``path`` read by the one reader of ``file``."""
    return {
        "board": load,
        "dealer": lambda path: bulletin.load_dealer(path, board),
        "key": bulletin.load_key,
        "contribution": bulletin.load_contribution,
    }[file](path)


@pytest.mark.parametrize("record, fault, field", FAULTS)
def test_every_record_field_is_read_strictly(toy_file_texts, tmp_path, record, fault, field):
    board, texts = toy_file_texts
    file, keys, where, wrong = RECORDS[record]
    path = tmp_path / f"{file}.json"
    where = where.format(path=path)
    obj = json.loads(texts[file])
    target = obj
    for key in keys:
        target = target[key]
    if fault == "missing":
        del target[field]
    elif fault == "repeated key":
        # the same value under a second key, made the field's own once written:
        # a reader that keeps the last of two equal keys reads the file as valid
        target["\0"] = target[field]
    else:
        target[field] = {"wrong type": wrong.get(field), "extra": None, "true": True, "1.9": 1.9,
                         "leading zero": f"0{target.get(field)}"}[fault]
    path.write_text(json.dumps(obj).replace(r'"\u0000"', json.dumps(field)))
    with pytest.raises(MalformedDocument) as raised:
        _read(board, file, path)
    assert raised.value.exit_code == 18
    message = str(raised.value)
    if fault == "missing":
        assert message.startswith(f"{where}: ") and field in message
    elif fault == "extra":
        assert message == f"{where}: missing keys [], unexpected keys ['note']"
    elif fault == "repeated key":
        assert message == f"{path}: not valid JSON: duplicate key {field!r}"
    else:
        assert message.startswith((f"{where} {field} ", f"{where} {field}:"))


@pytest.mark.parametrize("secrets, digests", [
    # share names the next secret s<k+1>, which would be s2 again
    pytest.param(["s2"], ["s2"], id="only-record-s2"),
    pytest.param(["s1"], ["s2"], id="digest-of-s2"),
])
def test_dealer_file_ids_run_s1_to_sk(toy_file_texts, tmp_path, secrets, digests):
    board, texts = toy_file_texts
    obj = json.loads(texts["dealer"])
    obj.update(secrets={sid: obj["secrets"]["s1"] for sid in secrets},
               digests={sid: obj["digests"]["s1"] for sid in digests})
    path = tmp_path / "dealer.json"
    path.write_text(json.dumps(obj))
    with pytest.raises(MalformedDocument) as raised:
        bulletin.load_dealer(path, board)
    ids = f"secrets [{', '.join(secrets)}] and digests [{', '.join(digests)}]"
    assert (raised.value.exit_code, str(raised.value)) == (
        18, f"{path} {ids} are not both s1 ... s<k>")


@pytest.mark.parametrize("file", ["board", "dealer", "key", "contribution"])
@pytest.mark.parametrize("fault, message", [
    ("not UTF-8", "not UTF-8: 'utf-8' codec can't decode byte 0xff"),
    # past int's 4300-digit limit json.loads raises a plain ValueError
    ("5000 digits", "not valid JSON: Exceeds the limit"),
    ("cut short", "not valid JSON: Expecting"),
])
def test_every_file_is_json_text(toy_file_texts, tmp_path, file, fault, message):
    board, texts = toy_file_texts
    raw = texts[file].encode()
    path = tmp_path / f"{file}.json"
    path.write_bytes({"not UTF-8": b"\xff" + raw[1:], "cut short": raw[:-3],
                      "5000 digits": raw.replace(b"{", b'{"x": ' + b"1" * 5000 + b", ", 1)}[fault])
    with pytest.raises(MalformedDocument) as raised:
        _read(board, file, path)
    assert raised.value.exit_code == 18
    assert str(raised.value).startswith(f"{path}: {message}")


def _secret_m_with_its_tags(board, obj):
    # the tags accept m = 149, which is no field element
    entry = board.packages["s1"].entry(1)._replace(tag=codec.tag(149, 7, 1))
    pkg = board.packages["s1"] = board.packages["s1"]._replace(entries=(entry,))
    obj["secrets"]["s1"], obj["digests"]["s1"] = "95", bulletin._digest(pkg).hex()


# One edit each of the toy board and its dealer file that load_dealer
# refuses (exit 19), and the end of the refusal's message
@pytest.mark.parametrize("edit, rule", [
    pytest.param(lambda board, obj: obj.update(p="1", q="8f"),
                 "is not the dealer file of this board: p*q is not n", id="1-and-n"),
    pytest.param(lambda board, obj: obj.update(p="11", q="13"),
                 "is not the dealer file of this board: p*q is not n", id="other-board"),
    # n = 11 * 11: phi(n) is 110, not 100, and there is no CRT split
    pytest.param(lambda board, obj: (obj.update(q="b"), setattr(
        board, "params", board.params._replace(n=121))),
                 "has p = q or a factor common to p and q: n must have two distinct prime factors",
                 id="p-equal-to-q"),
    # n = 45 = 3 * 15: 15**-1 mod 3 does not exist
    pytest.param(lambda board, obj: (obj.update(p="3", q="f"), setattr(
        board, "params", board.params._replace(n=45))),
                 "has p = q or a factor common to p and q: n must have two distinct prime factors",
                 id="p-and-q-sharing-a-factor"),
    # ps0^h0 = g on a board does not make h0 a unit mod phi(n) = 120
    pytest.param(lambda board, obj: board.packages.update(s1=board.packages["s1"]._replace(h0=3)),
                 "s1: h0 is not a unit mod phi(n)", id="h0-not-a-unit"),
    pytest.param(lambda board, obj: obj["secrets"].update(s1="65"),
                 "dealer state and board disagree on s1", id="secret-plus-one"),
    pytest.param(_secret_m_with_its_tags, "dealer state and board disagree on s1",
                 id="secret-m-with-its-tags"),
    # the dealer file lost the write that published s1
    pytest.param(lambda board, obj: obj.update(secrets={}, digests={}),
                 "dealer state and board disagree on s1", id="lost-write"),
    # the board was put back to an earlier s1
    pytest.param(lambda board, obj: obj["digests"].update(s1="0" * 64),
                 "dealer state and board disagree on s1", id="board-rolled-back"),
])
def test_dealer_file_serves_its_board_alone(toy_file_texts, tmp_path, edit, rule):
    served, texts = toy_file_texts
    board = Board(served.params, dict(served.roster), dict(served.packages), served.revision)
    obj = json.loads(texts["dealer"])
    edit(board, obj)
    path = tmp_path / "dealer.json"
    path.write_text(json.dumps(obj))
    with pytest.raises(InvariantViolation) as raised:
        bulletin.load_dealer(path, board)
    assert raised.value.exit_code == 19
    assert str(raised.value).endswith(rule)


def _next_link(r, low):
    """The smallest N = 2*k*r + 1 >= low that the 40-round oracle calls prime
    and for which 2**((N-1)/r) is not 1 mod N."""
    rng = random.Random(0)
    link = low + (1 - low) % (2 * r)
    while not (miller_rabin(link, rng) and pow(2, (link - 1) // r, link) != 1):
        link += 2 * r
    return link


def _forged_chain(n, top_shift=0, composite_tail=False):
    """A prime m > n and a chain built like the dealer's, but with the top
    link ``top_shift`` bits wider than the rule allows for m, or with a
    composite tail."""
    bits = [n.bit_length() // 2 + 2 + top_shift]
    while bits[-1] > 19:
        bits.append(bits[-1] // 2 + 2)
    tail = (1 << (bits[-1] - 1)) + 1
    while (trial_division_factor(tail, math.isqrt(tail) + 1) is None) == composite_tail:
        tail += 2
    chain = [tail]
    for b in reversed(bits[:-1]):
        chain.insert(0, _next_link(chain[0], 1 << (b - 1)))
    return _next_link(chain[0], n + 1), chain


def _chain_tampers():
    """(id, edit of (m, chain, n) -> (m, chain)); each breaks one rule of the chain."""

    def too_wide(m, chain, n):
        m, chain = _forged_chain(n, top_shift=1)
        assert chain[0].bit_length() > m.bit_length() // 2 + 2
        return m, chain

    def too_small(m, chain, n):
        m, chain = _forged_chain(n, top_shift=-3)
        assert chain[0] ** 2 < m
        return m, chain

    def composite_tail(m, chain, n):
        m, chain = _forged_chain(n, composite_tail=True)
        # every step holds; only the tail is not prime
        links = [m, *chain]
        assert all(numtheory.pocklington_step(a, b) for a, b in zip(links, links[1:]))
        return m, chain

    def not_a_divisor(m, chain, n):
        other = chain[0] + 2
        while not miller_rabin(other, random.Random(0)):
            other += 2
        assert (m - 1) % other
        return m, [other, *chain[1:]]

    return [
        ("m-plus-2", lambda m, chain, n: (m + 2, chain)),
        ("link-plus-2", lambda m, chain, n: (m, [chain[0] + 2, *chain[1:]])),
        ("dropped-link", lambda m, chain, n: (m, chain[:-1])),
        ("r-squared-below-n", too_small),
        ("link-not-dividing", not_a_divisor),
        ("link-over-bit-bound", too_wide),
        ("composite-tail", composite_tail),
    ]


@pytest.fixture(scope="module", params=[16, 64])
def chain_params(request):
    """The params of a board whose m is past trial division, so that its
    chain does the proving."""
    return dealer.setup(request.param, random.Random(4))[0]


@pytest.mark.parametrize("tamper", [pytest.param(t, id=name) for name, t in _chain_tampers()])
def test_chain_that_proves_nothing_is_refused(chain_params, tamper):
    p = chain_params
    m, chain = tamper(p.m, list(p.m_chain), p.n)
    board = Board(p._replace(m=m, width=codec.mask_width(m), m_chain=tuple(chain)))
    with pytest.raises(InvariantViolation) as raised:
        from_document(to_document(board))
    assert (raised.value.exit_code, str(raised.value)) == (19, "m not proved prime by its chain")


def test_chain_link_that_is_not_hex_is_refused(chain_params):
    obj = json.loads(to_document(Board(chain_params)))
    link = obj["params"]["m_chain"][0]
    obj["params"]["m_chain"][0] = f"x{link}"
    with pytest.raises(MalformedDocument) as raised:
        from_document(json.dumps(obj))
    assert (raised.value.exit_code, str(raised.value)) == (18, (
        f"document params m_chain link 1: expected lowercase hex with no leading zeros,"
        f" got 'x{link}'"))


# Every record as written and read through its one table: the table, how its
# value is built from the attributes read, and a strategy for its values.
_BIG = st.integers(0, 2**200)
_IDS = st.text(min_size=1, max_size=3)
_ENTRIES = st.builds(
    bulletin.PackageEntry,
    members=st.frozensets(_IDS, min_size=1, max_size=4),
    d=_BIG,
    masked=_BIG,
    tag=st.binary(min_size=32, max_size=32),
)
_PACKAGES = st.builds(
    bulletin.SecretPackage,
    secret_id=st.just("s1"),
    ps0=_BIG,
    h0=_BIG,
    f1=_BIG,
    entries=st.lists(_ENTRIES, max_size=3).map(tuple),
)
_PACKAGE_MAPS = st.lists(_PACKAGES, max_size=3).map(
    lambda pkgs: {f"s{i}": pkg._replace(secret_id=f"s{i}") for i, pkg in enumerate(pkgs, 1)}
)
_PARAMS_VALUES = st.builds(
    bulletin.PublicParams,
    g=_BIG,
    n=_BIG,
    m=_BIG,
    width=st.integers(),
    m_chain=st.lists(_BIG, max_size=3).map(tuple),
)
_BOARDS = st.builds(
    Board,
    params=_PARAMS_VALUES,
    roster=st.dictionaries(_IDS, _BIG, max_size=3),
    packages=_PACKAGE_MAPS,
    revision=st.integers(),
)
_DEALERS = st.builds(
    SimpleNamespace,
    p=_BIG,
    q=_BIG,
    secrets=st.dictionaries(_IDS, _BIG, max_size=3),
    digests=st.dictionaries(_IDS, st.binary(min_size=32, max_size=32), max_size=3),
)
_KEYS = st.builds(bulletin.ParticipantKey, pid=_IDS, s=_BIG, ps=_BIG)
_CONTRIBUTIONS = st.builds(
    bulletin.Contribution, pid=_IDS, secret_id=_IDS, set_index=st.integers(), x=_BIG
)
ROUND_TRIPS = {
    "document": (bulletin._DOCUMENT, Board, _BOARDS),
    "params": (bulletin._PARAMS, bulletin.PublicParams, _PARAMS_VALUES),
    "package": (bulletin._PACKAGE, lambda **f: bulletin.SecretPackage("s1", **f), _PACKAGES),
    "entry": (bulletin._ENTRY, bulletin.PackageEntry, _ENTRIES),
    "dealer": (bulletin._DEALER, SimpleNamespace, _DEALERS),
    "key": (bulletin._KEY, bulletin.ParticipantKey, _KEYS),
    "contribution": (bulletin._CONTRIBUTION, bulletin.Contribution, _CONTRIBUTIONS),
}
# edge values: "0", an empty and a non-empty m_chain, three members
_ZERO_PARAMS = bulletin.PublicParams(0, 0, 0, 0, ())
_ZERO_ENTRY = bulletin.PackageEntry(frozenset("ACB"), 0, 0, bytes(32))
_ZERO_PACKAGE = bulletin.SecretPackage("s1", 0, 0, 0, (_ZERO_ENTRY,))


def _members_reversed(obj):
    """``obj`` with every list of members in reverse order: out of order, as
    the writer sorts them."""
    if isinstance(obj, list):
        return [_members_reversed(item) for item in obj]
    if isinstance(obj, dict):
        return {
            k: v[::-1] if k == "members" else _members_reversed(v) for k, v in obj.items()
        }
    return obj


@given(case=st.one_of(
    [st.tuples(st.just(record), values) for record, (*_, values) in ROUND_TRIPS.items()]
))
@example(case=("document", Board(_ZERO_PARAMS, {"A": 0}, {"s1": _ZERO_PACKAGE}, 0)))
@example(case=("params", _ZERO_PARAMS))
@example(case=("params", bulletin.PublicParams(15, 143, 149, 1, (1009, 7))))
@example(case=("package", _ZERO_PACKAGE))
@example(case=("entry", _ZERO_ENTRY))
@example(case=("dealer", SimpleNamespace(p=11, q=13, secrets={"s1": 0}, digests={"s1": bytes(32)})))
@example(case=("key", bulletin.ParticipantKey("A", 0, 0)))
@example(case=("contribution", bulletin.Contribution("A", "s1", 0, 0)))
@settings(max_examples=100, deadline=None)
def test_every_record_round_trips(case):
    """Reading what the writer wrote gives an equal value, and writing what
    the reader read gives the same bytes; members out of order on input
    read as the same set."""
    record, value = case
    table, build, _ = ROUND_TRIPS[record]
    text = bulletin._dump(bulletin._obj(table, value))
    read = build(**bulletin._fields(json.loads(text), record, table))
    assert read == value
    assert bulletin._dump(bulletin._obj(table, read)) == text
    shuffled = _members_reversed(json.loads(text))
    assert build(**bulletin._fields(shuffled, record, table)) == value


HANDWRITTEN_TOY_DOC = """\
{
  "revision": 1,
  "params": {"g": "f", "n": "8f", "m": "95", "width": 1, "m_chain": []},
  "roster": {"A": "2d", "B": "73"},
  "packages": {
    "s1": {
      "ps0": "73",
      "h0": "67",
      "f1": "69",
      "entries": [
        {
          "members": ["A", "B"],
          "d": "7",
          "masked": "b8",
          "tag": "926615efb9514c8aefd6ded9d2423df2c10928a17c695cef2e37c8bb499be00d"
        }
      ]
    }
  }
}
"""


def test_handwritten_document_reconstructs_end_to_end(toy):
    board = from_document(HANDWRITTEN_TOY_DOC)
    pkg = board.packages["s1"]
    contribs = [
        participant.contribute(board.params, toy.key_a, pkg, 1),
        participant.contribute(board.params, toy.key_b, pkg, 1),
    ]
    got = combiner.reconstruct(board.params, pkg, 1, contribs, board.roster)
    assert got == 100
    assert combiner.verify_secret(pkg, 1, got, board.params.width)


def _full_session(doc_text, keys):
    """Honest protocol run against whatever board the document describes."""
    board = from_document(doc_text)
    pkg = board.packages["s1"]
    contribs = [
        participant.contribute(board.params, keys[pid], pkg, 1)
        for pid in sorted(pkg.entry(1).members)
    ]
    got = combiner.reconstruct(board.params, pkg, 1, contribs, board.roster)
    tag_ok = combiner.verify_secret(pkg, 1, got, board.params.width)
    return got, tag_ok


def test_single_character_corruptions_never_yield_a_wrong_accepted_secret(toy):
    """Corrupting any protocol value either fails parsing, fails an
    invariant, breaks the session, or fails the tag check. A corruption
    that is semantically equivalent (say, m replaced by a bigger prime)
    may still recover the true secret; what must never happen is a
    tag-accepted wrong value."""
    doc = to_document(_toy_board(toy))
    keys = {"A": toy.key_a, "B": toy.key_b}
    fields = ['"m": "', '"ps0": "', '"h0": "', '"f1": "', '"d": "', '"masked": "', '"tag": "', '"A": "', '"B": "']
    outcomes = {"error": 0, "tag-rejected": 0, "true-secret": 0}
    for marker in fields:
        start = doc.index(marker) + len(marker)
        end = doc.index('"', start)
        for pos in range(start, end):
            for sub in "0123456789abcdef":
                if doc[pos] == sub:
                    continue
                corrupted = doc[:pos] + sub + doc[pos + 1 :]
                try:
                    got, tag_ok = _full_session(corrupted, keys)
                except (MsssError, OverflowError):
                    outcomes["error"] += 1
                    continue
                if not tag_ok:
                    outcomes["tag-rejected"] += 1
                    continue
                assert got == toy.secret, f"corruption at {pos} accepted {got}"
                outcomes["true-secret"] += 1
    assert outcomes["error"] > 0
    assert outcomes["tag-rejected"] > 0
