"""Physical memory and bus tests."""

import os

import pytest

from repro.errors import BusError, MachineError
from repro.machine import Board
from repro.machine.devices import SafeDevice
from repro.machine.memory import PhysicalMemory
from repro.platform import VEXPRESS


@pytest.fixture
def memory():
    mem = PhysicalMemory()
    mem.add_ram(0x0, 0x4000)
    mem.add_ram(0x1_0000, 0x1000)
    mem.add_device(0xF000_0000, 0x1000, SafeDevice())
    return mem


class TestRam:
    def test_read_write_roundtrip(self, memory):
        memory.write32(0x100, 0xDEADBEEF)
        assert memory.read32(0x100) == 0xDEADBEEF

    def test_little_endian(self, memory):
        memory.write32(0x0, 0x04030201)
        assert memory.read8(0x0) == 0x01
        assert memory.read8(0x3) == 0x04

    def test_byte_write_masks(self, memory):
        memory.write8(0x10, 0x1FF)
        assert memory.read8(0x10) == 0xFF

    def test_second_region(self, memory):
        memory.write32(0x1_0000, 7)
        assert memory.read32(0x1_0000) == 7

    def test_unaligned_region_rejected(self):
        mem = PhysicalMemory()
        with pytest.raises(MachineError):
            mem.add_ram(0x10, 0x1000)

    def test_overlapping_ram_rejected(self, memory):
        with pytest.raises(MachineError):
            memory.add_ram(0x1000, 0x1000)

    def test_overlapping_device_rejected(self, memory):
        with pytest.raises(MachineError):
            memory.add_device(0xF000_0000, 0x1000, SafeDevice())

    def test_bus_error_on_hole(self, memory):
        with pytest.raises(BusError):
            memory.read32(0x5000_0000)
        with pytest.raises(BusError):
            memory.write32(0x5000_0000, 1)

    def test_find_ram_boundary(self, memory):
        assert memory.find_ram(0x3FFC, 4) is not None
        assert memory.find_ram(0x3FFE, 4) is None

    def test_bulk_roundtrip(self, memory):
        memory.write_bytes(0x200, b"hello world!")
        assert memory.read_bytes(0x200, 12) == b"hello world!"

    def test_bulk_outside_ram(self, memory):
        with pytest.raises(BusError):
            memory.write_bytes(0xF000_0000, b"xx")


def _vm_rss_kib():
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmRSS:"):
                return int(line.split()[1])
    raise AssertionError("no VmRSS line in /proc/self/status")


class TestLazyRam:
    """Guest RAM is a private anonymous mapping: zero until touched,
    fixed in size, private across ``fork``, and committed per page."""

    def test_fresh_region_reads_zero_at_both_ends(self, memory):
        assert memory.read32(0x0) == 0
        assert memory.read32(0x3FFC) == 0
        assert memory.read32(0x1_0FFC) == 0

    def test_roundtrip_at_last_word(self, memory):
        memory.write32(0x3FFC, 0xCAFEF00D)
        assert memory.read32(0x3FFC) == 0xCAFEF00D
        assert memory.read_bytes(0x3FFC, 4) == (0xCAFEF00D).to_bytes(4, "little")

    def test_bulk_write_past_end_never_resizes(self, memory):
        region = memory.find_ram(0x0)
        with pytest.raises(BusError):
            memory.write_bytes(0x3FFE, b"abcd")
        assert len(region.data) == 0x4000
        assert memory.read_bytes(0x3FFC, 4) == bytes(4)

    def test_forked_child_writes_are_private(self, memory):
        memory.write32(0x100, 0x11111111)
        pid = os.fork()
        if pid == 0:  # pragma: no cover - child
            memory.write32(0x100, 0x22222222)
            memory.write32(0x200, 0x33333333)
            os._exit(0 if memory.read32(0x100) == 0x22222222 else 1)
        _pid, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0
        assert memory.read32(0x100) == 0x11111111
        assert memory.read32(0x200) == 0

    @pytest.mark.skipif(
        not os.path.exists("/proc/self/status"), reason="needs /proc/self/status"
    )
    def test_boards_commit_only_touched_pages(self):
        before = _vm_rss_kib()
        boards = [Board(VEXPRESS) for _ in range(32)]
        grown_mib = (_vm_rss_kib() - before) / 1024
        assert len(boards) == 32
        assert boards[0].memory.ram_regions[0].size == VEXPRESS.ram_size
        assert grown_mib < 32, grown_mib


class TestDeviceRouting:
    def test_device_read(self, memory):
        assert memory.read32(0xF000_0000) == SafeDevice.ID_VALUE

    def test_device_write(self, memory):
        memory.write32(0xF000_0004, 0x55)
        _base, _size, device = memory.find_device(0xF000_0004)
        assert device.led == 0x55

    def test_find_device_miss(self, memory):
        assert memory.find_device(0xF000_1000) is None

    def test_is_device(self, memory):
        assert memory.is_device(0xF000_0000)
        assert not memory.is_device(0x0)

    def test_ram_write_hook(self, memory):
        pages = []
        memory.on_ram_write = pages.append
        memory.write32(0x2010, 1)
        assert pages == [0x2]
