"""Decode-cache behaviour of :meth:`repro.cpu.isa.Program.decoded`.

The pipeline interprets the decoded dense form, so a stale cache would
silently execute the *old* program after an in-place edit or a base
rebind.  These tests pin the invalidation rules: content compare on the
instruction tuple plus the base IVA.  They also pin the single layout: a
relocated copy (shifted IVAs, copied labels) must equal a fresh layout,
and ``encode()`` must equal the per-instruction ``crc32`` bytes.  And
they pin the shared body: relocated copies reuse their source's decoded
lists, and an in-place edit of one copy never reaches the others.
"""

import random
import zlib

import pytest

from repro.cpu.isa import (
    OP_ALUIMM,
    OP_HALT,
    OP_JZ,
    OP_LOAD,
    OP_MOVIMM,
    AluImm,
    Halt,
    Jz,
    Label,
    Load,
    MovImm,
    Pad,
    Program,
    clear_decode_cache,
    decode_cache_info,
)
from repro.cpu.machine import Machine
from repro.errors import ConfigError
from repro.fuzz.gen import GENERATORS
from repro.mem.physical import PAGE_SIZE


def sample_program(base=0):
    return Program(
        [
            MovImm("a", 7),
            AluImm("b", "a", 1, "add"),
            Jz("b", "done"),
            Load("c", base="a", width=8),
            Label("done"),
            Halt(),
        ],
        base_iva=base,
        name="decode-test",
    )


class TestDecodedForm:
    def test_dense_form_matches_instructions(self):
        program = sample_program()
        dec = program.decoded()
        assert dec.n == len(program)
        assert dec.ops[0] == OP_MOVIMM
        assert dec.ops[1] == OP_ALUIMM
        assert dec.ops[2] == OP_JZ
        assert dec.ops[3] == OP_LOAD
        assert dec.ops[5] == OP_HALT
        # Jz operands resolve the label to its instruction index.
        cond, target, label = dec.args[2]
        assert (cond, label) == ("b", "done")
        assert target == 4
        # IVAs come from the layout.
        assert dec.ivas == [program.iva(i) for i in range(len(program))]

    def test_repeat_calls_reuse_cache(self):
        program = sample_program()
        assert program.decoded() is program.decoded()

    def test_inplace_edit_invalidates(self):
        program = sample_program()
        first = program.decoded()
        program.instructions[0] = MovImm("a", 99)
        second = program.decoded()
        assert second is not first
        assert second.args[0] == ("a", 99)
        # The rebuilt form is cached again.
        assert program.decoded() is second

    def test_length_change_invalidates(self):
        program = sample_program()
        first = program.decoded()
        program.instructions.insert(1, MovImm("z", 1))
        second = program.decoded()
        assert second is not first
        assert second.n == first.n + 1
        # Label target shifted by the insertion.
        assert second.args[3][1] == 5

    def test_base_rebind_invalidates_ivas(self):
        program = sample_program(base=0)
        first = program.decoded()
        program.base_iva = 0x4000
        program._layout()
        second = program.decoded()
        assert second is not first
        assert second.ivas[0] == 0x4000

    def test_relocated_program_decodes_at_new_base(self):
        program = sample_program(base=0)
        program.decoded()
        moved = program.relocate(0x2000)
        assert moved.decoded().ivas[0] == 0x2000

    def test_machine_run_sees_inplace_edit(self):
        """End to end: the interpreter must not execute a stale decode."""
        machine = Machine(seed=1)
        process = machine.kernel.create_process("p")
        program = machine.load_program(
            process, Program([MovImm("a", 1), Halt()], name="edit")
        )
        assert machine.run(process, program).regs["a"] == 1
        program.instructions[0] = MovImm("a", 2)
        assert machine.run(process, program).regs["a"] == 2


def _layout_programs():
    """Programs from every fuzz generator, plus code-slid Pad/Label ones."""
    programs = [
        Program(factory(random.Random(seed), 12), 0x1000, f"{name}-{seed}")
        for name, factory in sorted(GENERATORS.items())
        for seed in range(3)
    ]
    slid = [Pad()] * 5 + sample_program().instructions + [Pad(), Label("tail"), Halt()]
    programs.append(Program(slid, 0x2003, "slid"))
    programs.append(Program([Label("only")], 7, "label-only"))
    programs.append(Program([], 0, "empty"))
    return programs


def _crc32_encode(program):
    """The per-instruction ``crc32`` encoding ``encode()`` must reproduce."""
    blob = bytearray()
    for instruction in program.instructions:
        digest = zlib.crc32(type(instruction).__name__.encode())
        blob += bytes([(digest & 0xFF) or 0x90] * instruction.size)
    return bytes(blob)


def _decoded_fields(program):
    dec = program.decoded()
    return (dec.ops, dec.args, dec.names, dec.insts, dec.ivas, dec.n)


@pytest.fixture
def cold_decode_cache():
    """Each decode below builds its own form instead of sharing one."""
    clear_decode_cache()
    yield
    clear_decode_cache()


class TestSingleLayout:
    """``relocate`` shifts a layout; ``decoded`` lays out only after a change."""

    @pytest.mark.parametrize("program", _layout_programs(), ids=lambda p: p.name)
    @pytest.mark.parametrize("base", [0, 0x1000, 0x7FFF_F001])
    def test_relocate_matches_a_fresh_layout(self, program, base, cold_decode_cache):
        moved = program.relocate(base)
        fresh = Program(list(program.instructions), base, program.name)
        assert moved == fresh
        assert moved._ivas == fresh._ivas
        assert moved._labels == fresh._labels
        assert moved.byte_size == fresh.byte_size
        assert moved.encode() == fresh.encode()
        moved_fields = _decoded_fields(moved)
        clear_decode_cache()
        assert moved_fields == _decoded_fields(fresh)

    @pytest.mark.parametrize("program", _layout_programs(), ids=lambda p: p.name)
    def test_encode_matches_per_instruction_crc32(self, program):
        assert program.encode() == _crc32_encode(program)
        assert len(program.encode()) == program.byte_size

    def test_relocated_copy_is_independent_of_its_source(self):
        program = sample_program(base=0)
        moved = program.relocate(0x2000)
        moved.instructions.append(Halt())
        moved._labels["extra"] = 0
        assert len(program) == 6
        assert "extra" not in program._labels

    def test_inplace_edit_after_relocate_relayouts(self, cold_decode_cache):
        moved = sample_program(base=0).relocate(0x2000)
        first = moved.decoded()
        moved.instructions.insert(0, Pad())
        second = moved.decoded()
        assert second is not first
        expected = Program(list(moved.instructions), 0x2000)
        assert second.ivas == expected._ivas
        assert moved._labels == expected._labels == {"done": 5}
        assert second.args[3][1] == 5  # Jz target follows the label

    def test_inplace_edit_before_first_decode_relayouts(self, cold_decode_cache):
        moved = sample_program(base=0).relocate(0x2000)
        moved.instructions[:0] = [Pad(), Pad()]
        assert moved.decoded().ivas[:3] == [0x2000, 0x2001, 0x2002]
        assert moved.iva(2) == 0x2002

    def test_relocate_of_an_edited_source_uses_its_current_content(self):
        program = sample_program(base=0)
        program.instructions.insert(0, Pad())
        program.base_iva = 0x100  # rebound without a re-layout
        moved = program.relocate(0x3000)
        assert moved == Program(list(program.instructions), 0x3000, program.name)

    def test_unchanged_program_is_laid_out_once(self, monkeypatch, cold_decode_cache):
        program = sample_program(base=0)
        calls = []
        original = Program._layout
        monkeypatch.setattr(
            Program, "_layout", lambda self: calls.append(1) or original(self)
        )
        moved = program.relocate(0x4000)
        moved.decoded()
        moved.decoded()
        assert calls == []

    def test_duplicate_label_raises(self):
        with pytest.raises(ConfigError, match="duplicate label"):
            Program([Label("x"), Halt(), Label("x")])

    def test_duplicate_label_added_after_relocate_raises(self):
        moved = sample_program(base=0).relocate(0x2000)
        moved.instructions.append(Label("done"))
        with pytest.raises(ConfigError, match="duplicate label"):
            moved.decoded()
        with pytest.raises(ConfigError, match="duplicate label"):
            moved.relocate(0x3000)


    @pytest.mark.parametrize("program", _layout_programs(), ids=lambda p: p.name)
    def test_byte_size_follows_edits(self, program):
        fresh = Program(list(program.instructions), program.base_iva, program.name)
        moved = program.relocate(0x5000)
        for edited in (fresh, moved):
            assert edited.byte_size == program.byte_size
            for extra in (Pad(), MovImm("z", 1)):  # sizes 1 and 4
                edited.instructions.append(extra)
                expected = sum(i.size for i in edited.instructions)
                assert edited.byte_size == expected == len(edited.encode())
        assert program.byte_size == sum(i.size for i in program.instructions)


_BODY = ("ops", "args", "names", "insts")


def _snapshot(dec):
    return tuple(list(getattr(dec, name)) for name in _BODY + ("ivas",))


class TestSharedBody:
    """Relocated copies share one decoded body; edits stay private."""

    @pytest.mark.parametrize("program", _layout_programs(), ids=lambda p: p.name)
    def test_copies_share_the_source_body(self, program, cold_decode_cache):
        copies = [program.relocate(base) for base in (0, 0x2000, 0x7FFF_F001)]
        body = program.decoded()
        for copy in copies:
            dec = copy.decoded()
            for name in _BODY:
                assert getattr(dec, name) is getattr(body, name)
            assert dec.n == body.n
            assert dec.ivas == Program(list(program.instructions), copy.base_iva)._ivas
            assert dec.ivas == copy._ivas
        assert copies[1].decoded().ivas is not copies[2].decoded().ivas

    def test_copies_skip_the_shared_lru(self, cold_decode_cache):
        program = sample_program(base=0)
        program.decoded()
        before = decode_cache_info()
        for base in range(0x1000, 0x1040):
            program.relocate(base).decoded()
        after = decode_cache_info()
        assert (after["hits"], after["misses"]) == (before["hits"], before["misses"])

    def test_edit_of_one_copy_redecodes_that_copy_only(self, cold_decode_cache):
        machine = Machine(seed=1)
        process = machine.kernel.create_process("p")
        source = machine.load_program(
            process,
            Program(
                [
                    MovImm("a", 7),
                    AluImm("b", "a", 1, "add"),
                    Jz("b", "done"),
                    MovImm("c", 5),
                    Label("done"),
                    Halt(),
                ],
                name="shared",
            ),
            extra_pages=2,
        )
        sibling = machine.place_program(process, source, source.base_iva + PAGE_SIZE)
        edited = machine.place_program(process, source, source.base_iva + 2 * PAGE_SIZE)
        body = source.decoded()
        snapshots = {
            program.base_iva: _snapshot(program.decoded()) for program in (source, sibling)
        }
        regs = {
            program.base_iva: machine.run(process, program).regs
            for program in (source, sibling)
        }
        before = edited.decoded()

        edited.instructions[0] = MovImm("a", 99)
        after = edited.decoded()
        assert after is not before
        for name in _BODY:
            assert getattr(after, name) is not getattr(body, name)
        assert after.args[0] == ("a", 99)
        assert machine.run(process, edited).regs["a"] == 99

        for program in (source, sibling):
            dec = program.decoded()
            for name in _BODY:
                assert getattr(dec, name) is getattr(body, name)
            assert _snapshot(dec) == snapshots[program.base_iva]
            assert machine.run(process, program).regs == regs[program.base_iva]
        assert regs[source.base_iva]["a"] == 7
