"""Definition 1, rule 3, on both media, read off the reference
:func:`repro.sim.spec.resolve_slot`; plus the media flags and the
observation sentinels."""

import pickle

from repro.graphs import star
from repro.sim import COLLISION, SILENCE, CollisionDetectingMedium, RadioMedium, spec
from repro.sim.node import Receive, Transmit


def _hears(medium, messages):
    """What the hub of a star hears when the leaves in ``messages``
    send those messages and the other leaves stay idle."""
    graph = star(2)  # hub 0, leaves 1 and 2
    intents = {0: Receive(), **{leaf: Transmit(m) for leaf, m in messages.items()}}
    outcome = spec.resolve_slot(graph, intents, informed={1, 2},
                                detects_collisions=medium.detects_collisions)
    return outcome[0][0]


class TestRadioMedium:
    def setup_method(self):
        self.medium = RadioMedium()

    def test_single_transmitter_delivers(self):
        assert _hears(self.medium, {1: "hello"}) == "hello"

    def test_no_transmitter_is_silence(self):
        assert _hears(self.medium, {}) is SILENCE

    def test_collision_is_silence_indistinguishable(self):
        # The paper's core assumption: conflicts are NOT detectable.
        two = _hears(self.medium, {1: "a", 2: "b"})
        zero = _hears(self.medium, {})
        assert two is SILENCE and zero is SILENCE
        assert two is zero

    def test_flag(self):
        assert RadioMedium.detects_collisions is False

    def test_none_payload_distinguishable_from_silence(self):
        # Protocols may legally send None as a message.
        assert _hears(self.medium, {1: None}) is None
        assert _hears(self.medium, {1: None}) is not SILENCE


class TestCollisionDetectingMedium:
    def setup_method(self):
        self.medium = CollisionDetectingMedium()

    def test_single_transmitter_delivers(self):
        assert _hears(self.medium, {1: "x"}) == "x"

    def test_silence(self):
        assert _hears(self.medium, {}) is SILENCE

    def test_collision_detected(self):
        assert _hears(self.medium, {1: "a", 2: "b"}) is COLLISION

    def test_collision_vs_silence_distinguishable(self):
        assert _hears(self.medium, {1: "a", 2: "b"}) is not SILENCE

    def test_flag(self):
        assert CollisionDetectingMedium.detects_collisions is True


class TestSentinels:
    def test_repr(self):
        assert repr(SILENCE) == "<SILENCE>"
        assert repr(COLLISION) == "<COLLISION>"

    def test_pickle_preserves_identity(self):
        assert pickle.loads(pickle.dumps(SILENCE)) is SILENCE
        assert pickle.loads(pickle.dumps(COLLISION)) is COLLISION

    def test_distinct(self):
        assert SILENCE is not COLLISION
