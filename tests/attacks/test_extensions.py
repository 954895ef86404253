"""Tests for the one-bit SSBP covert channel, in-place baseline, and VA->PA leak."""

import pytest

from repro.attacks.address_leak import AddressMappingLeak
from repro.attacks.channels import ChannelReport, StlPredictorChannel
from repro.attacks.spectre_stl_inplace import SpectreSTLInPlace


@pytest.fixture(scope="module")
def channel():
    chan = StlPredictorChannel(width=1)
    chan.handshake()
    return chan


class TestCovertChannel:
    def test_handshake_within_vulnerability_2_bound(self, channel):
        (attempts,) = channel.handshake_attempts
        assert 1 <= attempts <= 4096

    def test_no_shared_mappings(self, channel):
        sender_frames = {
            m.frame for m in channel.sender_process.address_space.pages().values()
        }
        receiver_frames = {
            m.frame for m in channel.receiver_process.address_space.pages().values()
        }
        assert not sender_frames & receiver_frames

    def test_transmits_bits_exactly(self, channel):
        bits = [1, 0, 1, 1, 0, 0, 1, 0, 0, 1, 1, 1, 0, 1, 0, 0]
        report = channel.transmit(bits)
        assert report.received == bits
        assert report.error_rate == 0.0

    def test_all_zeros_and_all_ones(self, channel):
        assert channel.transmit([0] * 8).received == [0] * 8
        assert channel.transmit([1] * 8).received == [1] * 8

    def test_bandwidth_positive(self, channel):
        report = channel.transmit([1, 0, 1])
        assert report.bits_per_second > 0

    def test_report_math(self):
        report = ChannelReport(
            sent=[1, 0, 1], received=[1, 1, 1], cycles=3_700_000_000, clock_ghz=3.7
        )
        assert report.errors == 1
        assert report.error_rate == pytest.approx(1 / 3)
        assert report.bits_per_second == pytest.approx(3.0)


class TestInPlaceBaseline:
    @pytest.fixture(scope="class")
    def report(self):
        attack = SpectreSTLInPlace()
        return attack.leak(b"\x11\x22\x33")

    def test_leaks_correctly(self, report):
        assert report.recovered == b"\x11\x22\x33"
        assert report.accuracy == 1.0

    def test_needs_many_victim_invocations(self, report):
        """The limitation the paper's out-of-place attack removes: the
        victim's own pair must be executed repeatedly per byte."""
        assert report.invocations_per_byte >= 5


class TestAddressLeak:
    @pytest.fixture(scope="class")
    def leak(self):
        return AddressMappingLeak(pages=4)

    def test_recovers_relative_frame_hashes(self, leak):
        for item in leak.recover_all():
            truth = leak.true_relative_hash(item.page_i, item.page_j)
            assert item.recovered == truth

    def test_attempts_bounded_by_one_page(self, leak):
        item = leak.recover_pair(0, 2)
        assert 1 <= item.attempts <= 4096

    def test_leak_is_nontrivial(self, leak):
        """The recovered values actually carry frame information (they
        are not all zero for distinct random frames)."""
        values = {item.recovered for item in leak.recover_all()}
        assert values != {0}
