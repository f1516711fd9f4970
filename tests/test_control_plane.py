"""The control plane's per-beacon memos change no answer.

A HELLO's signed bytes and its piggybacked overlay state are computed once
per beacon and shared by all of its receivers, and the trust filters
gather the few flagged ids once per query.  These tests pin what must not
change: every receiver still verifies every HELLO (bytes are memoized,
never a verdict), the shared parse answers exactly what a per-receiver
parse answers (malformed states included), the bulk trust filter equals
the per-node rule, and whole experiments keep their records against
:func:`tests.helpers.reference_control_plane`.
"""

import json
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.chaos import OracleConfig
from repro.crypto.digest import encode_fields, signed_bytes, signed_copy
from repro.crypto.keystore import HmacScheme, KeyDirectory
from repro.des.kernel import Simulator
from repro.des.random import StreamFactory
from repro.fd.events import ExpectMode, HeaderPattern, SuspicionReason
from repro.fd.mute import MuteConfig, MuteFailureDetector
from repro.fd.trust import TrustConfig, TrustFailureDetector, TrustLevel
from repro.fd.verbose import VerboseConfig, VerboseFailureDetector
from repro.obs import ObsConfig
from repro.overlay import manager as overlay_manager
from repro.overlay.cds import CdsRule
from repro.overlay.manager import OverlayManager
from repro.radio.geometry import Position
from repro.radio.medium import Medium
from repro.radio.neighbors import HelloMessage, NeighborService
from repro.radio.packet import Packet
from repro.radio.propagation import UnitDisk
from repro.radio.radio import Radio
from repro.sim import CheckpointConfig, ExperimentConfig, run_experiment
from repro.sim.checkpoint import config_key, write_checkpoint
from repro.sim.experiment import build_world
from repro.sim.campaign import result_to_record
from repro.telemetry.runtime import strip_runtime
from repro.workloads.scenarios import (
    AdversaryMix,
    ScenarioConfig,
    area_side_for_degree,
)
from tests.helpers import reference_control_plane


def _stack(k, seed=5):
    """A sender (node 0), ``k`` receivers, and a manager on each node;
    nothing is started, so only the packets a test hands in arrive."""
    sim = Simulator()
    streams = StreamFactory(seed)
    medium = Medium(sim, streams.stream("medium"), UnitDisk())
    directory = KeyDirectory(HmacScheme(seed=b"control-plane"))
    signers, services, managers, trusts = {}, {}, {}, {}
    for node_id in range(k + 1):
        radio = Radio(sim, medium, node_id, Position(10.0 * node_id, 0.0),
                      100.0, streams.stream(f"mac{node_id}"))
        signers[node_id] = directory.issue(node_id)
        services[node_id] = NeighborService(
            sim, radio, streams.stream(f"hello{node_id}"),
            signer=signers[node_id], directory=directory)
        trusts[node_id] = TrustFailureDetector(sim)
        managers[node_id] = OverlayManager(
            sim, node_id, services[node_id], trusts[node_id], CdsRule(),
            streams.stream(f"ov{node_id}"))
    return sim, signers, services, managers, trusts


def _deliver(services, hello, receivers):
    packet = Packet(sender=hello.sender, payload=hello, size_bytes=48,
                    kind="hello")
    for node_id in receivers:
        assert services[node_id].handle_packet(packet)


# ----------------------------------------------------------------------
# Signed bytes: shared per beacon, verified by every receiver
# ----------------------------------------------------------------------
def test_signed_bytes_memo_matches_the_encoding():
    hello = HelloMessage(sender=3, seq=7, extras={})
    assert signed_bytes(hello) == encode_fields((3, 7))
    assert signed_bytes(hello) is signed_bytes(hello)
    scheme_dir = KeyDirectory(HmacScheme(seed=b"memo"))
    signer = scheme_dir.issue(3)
    signed = signed_copy(hello, signer.sign)
    assert signed.signature == signer.sign(encode_fields((3, 7)))
    # The copy carries the memo: its signature is not a signed field.
    assert signed_bytes(signed) is signed_bytes(hello)
    assert scheme_dir.verify(3, signed_bytes(signed), signed.signature)


@pytest.mark.parametrize("k", [1, 5, 20])
def test_forged_hello_object_fails_at_every_receiver(k):
    _, signers, services, managers, _ = _stack(k)
    heard = []
    for node_id in range(1, k + 1):
        services[node_id].add_listener(
            lambda sender, extras, me=node_id: heard.append((me, sender)))
    genuine = signed_copy(HelloMessage(sender=0, seq=1, extras={}),
                          signers[0].sign)
    forgeries = [
        HelloMessage(sender=0, seq=1, extras={"ov": {"status": "active"}},
                     signature=b"\x00" * 20),
        # A genuine signature replayed under another sequence number.
        HelloMessage(sender=0, seq=2, extras={},
                     signature=genuine.signature),
    ]
    for round_no, forged in enumerate(forgeries, start=1):
        _deliver(services, forged, range(1, k + 1))
        for node_id in range(1, k + 1):
            assert services[node_id].bad_signature_count == round_no
            assert services[node_id].last_seen(0) is None
            assert managers[node_id].neighbor_report(0) is None
    assert heard == []


def test_valid_hello_is_verified_on_every_delivery(monkeypatch):
    _, signers, services, managers, _ = _stack(3)
    calls = []
    verify = KeyDirectory.verify

    def counting(self, node_id, message, signature, **kwargs):
        calls.append((node_id, message, signature))
        return verify(self, node_id, message, signature, **kwargs)

    monkeypatch.setattr(KeyDirectory, "verify", counting)
    hello = signed_copy(
        HelloMessage(sender=0, seq=1,
                     extras={"ov": {"status": "active", "nbrs": (1, 2)}}),
        signers[0].sign)
    heard = []
    services[1].add_listener(lambda sender, extras: heard.append(sender))
    _deliver(services, hello, [1, 1])
    assert len(calls) == 2 and heard == [0, 0]
    _deliver(services, hello, [1, 2, 3])
    assert len(calls) == 5
    assert {call[1] for call in calls} == {encode_fields((0, 1))}
    for node_id in (1, 2, 3):
        assert services[node_id].bad_signature_count == 0
        assert managers[node_id].neighbor_report(0).neighbors == {1, 2}


# ----------------------------------------------------------------------
# Overlay state: parsed once per beacon, same answers as per receiver
# ----------------------------------------------------------------------
#: (name, piggybacked "ov" value); the first three are the malformed
#: states of test_overlay_manager.test_malformed_neighbor_state_ignored.
STATES = [
    ("bogus-status", {"status": "bogus"}),
    ("not-a-dict", "not a dict"),
    ("non-numeric-ids", {"status": "active", "nbrs": ["x", None]}),
    ("unhashable-id", {"nbrs": [[1]]}),
    ("dict-id", {"nbrs": ({},)}),
    ("numeric-string-ids", {"status": "active", "nbrs": ("1", "2"),
                            "suspects": ("3",)}),
    ("bool-ids", {"nbrs": (True, 2), "misnbrs": (True,),
                  "suspects": (True,)}),
    ("int-ids", {"status": "active", "mis": 1, "nbrs": (1, 2),
                 "suspects": (3,)}),
    ("float-ids", {"status": "active", "mis": True, "nbrs": (1.0, 2.0),
                   "suspects": (3.0,)}),
    ("complex-ids", {"status": "active", "mis": 1.0, "nbrs": (1 + 0j, 2),
                     "suspects": (3,)}),
    ("list-ids", {"status": "active", "mis": [1], "nbrs": [1, 2],
                  "suspects": [3]}),
    ("empty", {}),
    ("suspects-receiver", {"suspects": (1, 2, 3, 4)}),
]


def _outcome(managers, trusts, receivers):
    return [(managers[r].neighbor_report(0),
             [trusts[r].level(n) for n in range(6)]) for r in receivers]


def _feed(state, reference):
    """Deliver one beacon carrying ``state`` to receivers 1..3, twice to
    receiver 1, and return what each receiver made of it."""
    _, signers, services, managers, trusts = _stack(4)
    hello = signed_copy(HelloMessage(sender=0, seq=1, extras={"ov": state}),
                        signers[0].sign)
    if reference:
        with reference_control_plane():
            _deliver(services, hello, [1, 1, 2, 3])
    else:
        _deliver(services, hello, [1, 1, 2, 3])
    return _outcome(managers, trusts, [1, 2, 3, 4])


@pytest.mark.parametrize("state", [s for _, s in STATES],
                         ids=[name for name, _ in STATES])
def test_shared_parse_matches_per_receiver_parse(state):
    fast = _feed(state, reference=False)
    assert fast == _feed(state, reference=True)
    assert fast[-1] == (None, [TrustLevel.TRUSTED] * 6)  # not a receiver


def test_every_receiver_acts_on_shared_suspects():
    _, signers, services, managers, trusts = _stack(3)
    trusts[3].suspect(0, SuspicionReason.BAD_SIGNATURE)  # ignores 0's word
    hello = signed_copy(
        HelloMessage(sender=0, seq=1, extras={"ov": {"suspects": (2, 5)}}),
        signers[0].sign)
    _deliver(services, hello, [1, 2, 3])
    assert [trusts[1].level(n) for n in (2, 5)] == [TrustLevel.UNKNOWN] * 2
    assert trusts[2].level(2) is TrustLevel.TRUSTED  # a report on itself
    assert trusts[2].level(5) is TrustLevel.UNKNOWN
    assert trusts[3].level(5) is TrustLevel.TRUSTED
    # Each receiver keeps its own report (and ``updated_at``).
    assert managers[1].neighbor_report(0) is not \
        managers[2].neighbor_report(0)


def test_equal_states_of_different_types_parse_independently():
    # (1, 2) == (1+0j, 2), yet only one of them is well formed.
    good = {"status": "active", "nbrs": (1, 2)}
    bad = {"status": "active", "nbrs": (1 + 0j, 2)}
    assert good == bad
    assert overlay_manager._parsed_state(good)[2] == {1, 2}
    assert overlay_manager._parsed_state(bad) is None
    assert overlay_manager._parsed_state(good)[2] == {1, 2}


def test_uncaught_parse_errors_still_propagate():
    # int(inf) raises OverflowError, which the parse has never caught.
    state = {"nbrs": (float("inf"),)}
    for _ in range(2):
        with pytest.raises(OverflowError):
            overlay_manager._parsed_state(state)


def test_parse_memo_stays_bounded():
    for i in range(10_000):
        parsed = overlay_manager._parsed_state({"nbrs": (i, i + 1)})
        assert parsed[2] == {i, i + 1}
    assert len(overlay_manager._PARSED) <= overlay_manager._PARSED_BOUND


# ----------------------------------------------------------------------
# One-pass trust filter == the per-node rule
# ----------------------------------------------------------------------
NODES = tuple(range(6))
IDS = list(NODES) + [3, 99]
OPS = st.lists(st.one_of(
    st.tuples(st.just("strike"), st.sampled_from(NODES)),
    st.tuples(st.just("indict"), st.sampled_from(NODES)),
    st.tuples(st.just("suspect"), st.sampled_from(NODES)),
    st.tuples(st.just("peer"), st.sampled_from(NODES),
              st.sampled_from(NODES)),
    # Whole and half seconds keep the clock exact, so "exactly at
    # peer_report_ttl" (60 s after a report) is hit, not approximated.
    st.tuples(st.just("advance"),
              st.sampled_from([0.5, 1.0, 2.0, 10.0, 20.0, 59.0, 60.0])),
    st.tuples(st.just("age")),
    st.tuples(st.just("reset")),
), max_size=40)


def _check_filter(trust):
    for minimum in TrustLevel:
        expected = [n for n in IDS if trust.level(n) >= minimum]
        got = trust.trusted_subset(IDS, minimum)
        assert got == expected, (minimum, got, expected)
        if expected == IDS:
            assert got is IDS
    assert trust.trusted_subset(IDS) == [
        n for n in IDS if trust.level(n) is TrustLevel.TRUSTED]
    assert trust.untrusted_nodes() == [
        n for n in NODES if trust.level(n) is TrustLevel.UNTRUSTED]


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(ops=OPS, threshold=st.integers(min_value=1, max_value=3))
def test_bulk_trust_filter_equals_per_node_rule(ops, threshold):
    sim = Simulator()
    mute = MuteFailureDetector(sim, MuteConfig(expect_timeout=1.0,
                                               suspicion_threshold=2))
    verbose = VerboseFailureDetector(sim,
                                     VerboseConfig(suspicion_threshold=2))
    trust = TrustFailureDetector(sim, mute, verbose,
                                 TrustConfig(direct_threshold=threshold))
    pattern = HeaderPattern(type="never-sent")
    _check_filter(trust)
    for op in ops:
        if op[0] == "strike":
            mute.expect(pattern, [op[1]], mode=ExpectMode.ALL)
        elif op[0] == "indict":
            verbose.indict(op[1])
        elif op[0] == "suspect":
            trust.suspect(op[1], SuspicionReason.BAD_SIGNATURE)
        elif op[0] == "peer":
            trust.report_from_peer(op[1], op[2])
        elif op[0] == "advance":
            sim.run(until=sim.now + op[1])
        elif op[0] == "age":
            trust._age()
        else:
            trust.reset()
        _check_filter(trust)


# ----------------------------------------------------------------------
# Whole experiments: records equal with and without the memos
# ----------------------------------------------------------------------
def dense_mobile_config(seed=11):
    """The dense-mobile workload's shape at smoke size."""
    return ExperimentConfig(
        scenario=ScenarioConfig(
            n=40, area_side=area_side_for_degree(16, 100.0, 9.0),
            mobility="waypoint", speed_max=5.0, seed=seed),
        protocol="byzcast", message_count=3, message_interval=1.5,
        warmup=4.0, drain=4.0)


def sparse_mute_config(seed=12):
    """The sparse-mute workload's shape at smoke size."""
    return ExperimentConfig(
        scenario=ScenarioConfig(
            n=40, target_degree=8.0,
            adversaries=AdversaryMix.mute(4, placement="high_id"),
            seed=seed),
        protocol="byzcast", message_count=5, message_interval=1.5,
        oracle=OracleConfig(), warmup=4.0, drain=4.0)


def _record(config, result):
    record = strip_runtime(result_to_record(config, result))
    record.pop("config")
    return json.dumps(record, sort_keys=True)


def _reference_record(config):
    with reference_control_plane():
        return _record(config, run_experiment(config))


@pytest.mark.parametrize("make", [dense_mobile_config, sparse_mute_config],
                         ids=["dense-mobile", "sparse-mute"])
def test_records_match_reference_control_plane(make):
    config = make()
    assert _record(config, run_experiment(config)) == \
        _reference_record(config)


def test_observed_records_match_reference_control_plane():
    config = replace(sparse_mute_config(seed=21), observe=ObsConfig())
    fast = run_experiment(config)
    assert fast.trace is not None
    assert _record(config, fast) == _reference_record(config)


def _memo_hello_in_flight(world):
    return any(isinstance(tx.packet.payload, HelloMessage)
               and not tx.completed and tx.end > world.sim.now
               and "_signed_cache" in vars(tx.packet.payload)
               for tx in world.medium._transmissions)


def test_resume_with_memoized_hellos_in_flight(tmp_path):
    config = dense_mobile_config(seed=13)
    ck = replace(config, checkpoint=CheckpointConfig(
        every=100.0, directory=str(tmp_path)))
    world = build_world(ck)
    at = 5.0
    world.sim.run(until=at)
    while not _memo_hello_in_flight(world):
        at += 0.0005
        world.sim.run(until=at)
    write_checkpoint(world, config_key(ck), str(tmp_path))
    resumed = run_experiment(ck)  # resumes from the snapshot
    assert _record(ck, resumed) == _reference_record(config)
