import json

import pytest

from msss import dealer, linepoly, participant, simulate
from msss.errors import BadParameter
from msss.simulate import SimulationConfig, run_simulation


def test_honest_deployment_recovers_everything():
    report = run_simulation(SimulationConfig(participants=5, secrets=3, seed=42))
    summary = report["summary"]
    assert summary["sessions"] > 0
    assert summary["recovered"] == summary["sessions"]
    assert summary["tag_ok"] == summary["sessions"]
    assert summary["cheater_sessions"] == 0
    assert summary["unauthorized_accepted"] == 0


def test_cheaters_are_always_named():
    report = run_simulation(
        SimulationConfig(participants=5, secrets=3, cheaters_per_session=1, seed=42)
    )
    summary = report["summary"]
    assert summary["cheater_sessions"] == summary["sessions"]
    assert summary["cheaters_missed"] == 0
    for session in report["sessions"]:
        assert session["cheaters_detected"] == session["cheaters_injected"]
        assert session["outcome"] == "cheater-detected"


def test_same_seed_gives_identical_reports():
    config = SimulationConfig(participants=4, secrets=2, cheaters_per_session=1, seed=7)
    a = json.dumps(run_simulation(config), sort_keys=True)
    b = json.dumps(run_simulation(config), sort_keys=True)
    assert a == b


def test_probes_raise_each_x_at_most_once_per_secret(monkeypatch):
    # outside participant.contribute, x = ps0**s is raised only for a
    # (secret, participant) pair that no session of that secret released,
    # and only once however many probes hold the participant
    contributed, raised = set(), []
    contribute = participant.contribute

    def recording_contribute(params, key, package, set_index):
        contributed.add((package.ps0, key.s))
        return contribute(params, key, package, set_index)

    def recording_powmod(base, exp, mod, public=False):
        raised.append((base, exp))
        return pow(base, exp, mod)

    monkeypatch.setattr(participant, "contribute", recording_contribute)
    monkeypatch.setattr(simulate, "powmod", recording_powmod)
    config = SimulationConfig(participants=8, secrets=4, unauthorized_probes=4, seed=7)
    report = run_simulation(config)
    assert report["summary"]["unauthorized_accepted"] == 0
    assert raised
    assert len(raised) == len(set(raised))
    assert contributed.isdisjoint(raised)


def test_each_line_inverse_is_taken_once(monkeypatch):
    # every probe of an entry reads the secret off the same line, so the
    # inverse of its public d - 1 mod m is taken once, not once per probe
    inverted = []

    def recording_pow(base, exp, mod):
        if exp == -1:
            inverted.append((base, mod))
        return pow(base, exp, mod)

    linepoly._inverse.cache_clear()
    monkeypatch.setattr(linepoly, "pow", recording_pow, raising=False)
    config = SimulationConfig(participants=8, secrets=4, unauthorized_probes=4, seed=7)
    summary = run_simulation(config)["summary"]
    assert summary["recovered"] == summary["sessions"] > 0
    assert inverted
    assert len(inverted) == len(set(inverted))


def test_every_roster_holds_distinct_pseudo_shares(monkeypatch):
    # at 4-bit primes, 12 members drew a repeated pseudo-share in 25 of 30
    # seeds, a roster that `msss enroll` and Board.validate refuse, as the
    # equal masks cancel; 8 of those runs reported accepted unauthorized probes
    rosters = []
    share_secret = dealer.share_secret

    def recording_share_secret(state, params, roster, *args):
        rosters.append(dict(roster))
        return share_secret(state, params, roster, *args)

    monkeypatch.setattr(dealer, "share_secret", recording_share_secret)
    seeds = (0, 1, 4, 7, 9, 10, 12, 13)
    for seed in seeds:
        run_simulation(SimulationConfig(participants=12, secrets=1, bits_per_prime=4, seed=seed))
    assert len(rosters) == len(seeds)
    assert all(len(set(roster.values())) == len(roster) == 12 for roster in rosters)


def test_report_is_json_serializable_and_shaped():
    report = run_simulation(SimulationConfig(participants=3, secrets=1, seed=1))
    text = json.dumps(report)
    parsed = json.loads(text)
    assert set(parsed) == {"config", "params", "sessions", "unauthorized", "summary"}
    for probe in parsed["unauthorized"]:
        assert probe["kind"] in ("strict-subset", "non-covering")
        assert probe["accepted"] is False


def test_config_validation():
    with pytest.raises(BadParameter):
        run_simulation(SimulationConfig(participants=0, secrets=1))
    with pytest.raises(BadParameter):
        run_simulation(SimulationConfig(participants=3, secrets=0))
    with pytest.raises(BadParameter):
        run_simulation(SimulationConfig(participants=3, secrets=1, bits_per_prime=2))
