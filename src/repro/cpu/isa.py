"""The micro-ISA interpreted by the simulated pipeline.

A :class:`Program` is a list of instruction objects assembled at a base
instruction *virtual* address; each instruction occupies a fixed number of
bytes, so code sliding (placing the same code at byte-granular offsets,
Section III-C.2) is just a prefix of 1-byte ``Pad`` instructions.

The ISA is deliberately tiny — the paper's microbenchmarks and gadgets
need loads, stores, multiply/ALU chains (for address-generation delay),
``clflush``/``mfence``, ``rdpru`` and a conditional branch.  Registers
are named strings holding unsigned integers.
"""

from __future__ import annotations

import zlib
from collections import OrderedDict
from dataclasses import dataclass, field

from repro.errors import ConfigError, InvalidInstruction

__all__ = [
    "Instruction",
    "MovImm",
    "Mov",
    "Alu",
    "AluImm",
    "Imul",
    "ImulImm",
    "Load",
    "Store",
    "Clflush",
    "Mfence",
    "Rdpru",
    "Jz",
    "Label",
    "Pad",
    "Halt",
    "Program",
    "DecodedProgram",
    "OP_LABEL",
    "OP_PAD",
    "OP_MOVIMM",
    "OP_MOV",
    "OP_ALU",
    "OP_ALUIMM",
    "OP_IMUL",
    "OP_IMULIMM",
    "OP_LOAD",
    "OP_STORE",
    "OP_CLFLUSH",
    "OP_MFENCE",
    "OP_RDPRU",
    "OP_JZ",
    "OP_HALT",
    "OP_UNKNOWN",
    "ALU_ADD",
    "ALU_SUB",
    "ALU_XOR",
    "ALU_AND",
    "ALU_OR",
    "ALU_BAD",
    "instruction_from_repr",
    "instructions_from_reprs",
    "DECODE_CACHE_SIZE",
    "decode_cache_info",
    "clear_decode_cache",
    "set_decode_cache_size",
]


@dataclass(frozen=True)
class Instruction:
    """Base class: every instruction has an encoded size in bytes."""

    @property
    def size(self) -> int:
        return 4


@dataclass(frozen=True)
class Pad(Instruction):
    """A 1-byte filler (nop) used for byte-granular code sliding."""

    @property
    def size(self) -> int:
        return 1


@dataclass(frozen=True)
class MovImm(Instruction):
    dst: str
    value: int


@dataclass(frozen=True)
class Mov(Instruction):
    dst: str
    src: str


@dataclass(frozen=True)
class Alu(Instruction):
    """1-cycle ALU op on two registers."""

    dst: str
    a: str
    b: str
    op: str = "add"  # add | sub | xor | and | or


@dataclass(frozen=True)
class AluImm(Instruction):
    dst: str
    src: str
    imm: int
    op: str = "add"


@dataclass(frozen=True)
class Imul(Instruction):
    """3-cycle multiply; chains of these delay address generation."""

    dst: str
    a: str
    b: str


@dataclass(frozen=True)
class ImulImm(Instruction):
    dst: str
    src: str
    imm: int


@dataclass(frozen=True)
class Load(Instruction):
    """``dst = mem[reg[base] + offset]`` (little-endian, ``size`` bytes)."""

    dst: str
    base: str
    offset: int = 0
    width: int = 8


@dataclass(frozen=True)
class Store(Instruction):
    """``mem[reg[base] + offset] = reg[src]`` (``width`` bytes)."""

    base: str
    src: str
    offset: int = 0
    width: int = 8


@dataclass(frozen=True)
class Clflush(Instruction):
    base: str
    offset: int = 0


@dataclass(frozen=True)
class Mfence(Instruction):
    """Serialize: resolve and commit every pending store."""


@dataclass(frozen=True)
class Rdpru(Instruction):
    """Read the cycle counter into ``dst`` (the paper's timing primitive)."""

    dst: str


@dataclass(frozen=True)
class Jz(Instruction):
    """Branch to ``label`` when ``reg[cond] == 0`` (predicted, trainable)."""

    cond: str
    label: str


@dataclass(frozen=True)
class Label(Instruction):
    """A named position; occupies no bytes."""

    name: str

    @property
    def size(self) -> int:
        return 0


@dataclass(frozen=True)
class Halt(Instruction):
    """Stop execution (end of the measured routine)."""


def _instruction_namespace() -> dict[str, type]:
    return {
        cls.__name__: cls
        for cls in (
            Instruction, Pad, MovImm, Mov, Alu, AluImm, Imul, ImulImm,
            Load, Store, Clflush, Mfence, Rdpru, Jz, Label, Halt,
        )
    }


def instruction_from_repr(text: str) -> Instruction:
    """Rebuild one instruction from its dataclass ``repr``.

    Findings artifacts store minimized reproducers as instruction reprs
    (:func:`repro.fuzz.shrink.shrink_report`); this is the inverse, used
    to replay a shrunk program — e.g. ``repro-fuzz --trace-findings``.
    Evaluation is restricted to the instruction classes themselves (no
    builtins), so only literal dataclass constructions parse.  Raises
    :class:`repro.errors.InvalidInstruction` on anything else.
    """
    try:
        value = eval(text, {"__builtins__": {}}, _instruction_namespace())
    except Exception as exc:
        raise InvalidInstruction(f"unparseable instruction repr {text!r}: {exc}") from exc
    if not isinstance(value, Instruction):
        raise InvalidInstruction(
            f"repr {text!r} is not an instruction (got {type(value).__name__})"
        )
    return value


def instructions_from_reprs(reprs: list[str]) -> list[Instruction]:
    """Rebuild a whole program from a list of instruction reprs."""
    return [instruction_from_repr(text) for text in reprs]


# ----------------------------------------------------------------------
# Dense decoded form
# ----------------------------------------------------------------------
# Integer opcodes for the interpreter's dispatch (one per instruction
# class).  The pipeline compares these instead of running an isinstance
# chain — the single hottest comparison in the simulator.
(
    OP_LABEL,
    OP_PAD,
    OP_MOVIMM,
    OP_MOV,
    OP_ALU,
    OP_ALUIMM,
    OP_IMUL,
    OP_IMULIMM,
    OP_LOAD,
    OP_STORE,
    OP_CLFLUSH,
    OP_MFENCE,
    OP_RDPRU,
    OP_JZ,
    OP_HALT,
    OP_UNKNOWN,
) = range(16)

#: ALU sub-opcodes; ``ALU_BAD`` marks an op string the decoder does not
#: know.  The error is deliberately deferred to *execution* of that
#: instruction (matching the un-decoded interpreter), so decoding never
#: rejects a program whose bad instruction is unreachable.
ALU_ADD, ALU_SUB, ALU_XOR, ALU_AND, ALU_OR, ALU_BAD = range(6)

_ALU_CODES = {
    "add": ALU_ADD,
    "sub": ALU_SUB,
    "xor": ALU_XOR,
    "and": ALU_AND,
    "or": ALU_OR,
}

_OPCODES: dict[type, int] = {
    Label: OP_LABEL,
    Pad: OP_PAD,
    MovImm: OP_MOVIMM,
    Mov: OP_MOV,
    Alu: OP_ALU,
    AluImm: OP_ALUIMM,
    Imul: OP_IMUL,
    ImulImm: OP_IMULIMM,
    Load: OP_LOAD,
    Store: OP_STORE,
    Clflush: OP_CLFLUSH,
    Mfence: OP_MFENCE,
    Rdpru: OP_RDPRU,
    Jz: OP_JZ,
    Halt: OP_HALT,
}


@dataclass(slots=True)
class DecodedProgram:
    """A :class:`Program` pre-decoded into parallel dense arrays.

    Built once per program (see :meth:`Program.decoded`) and then reused
    across the thousands of repeated runs an experiment performs.  Layout
    (all lists are indexed by instruction position):

    * ``ops[i]`` — the ``OP_*`` integer opcode;
    * ``args[i]`` — a per-opcode operand tuple (see :func:`_decode_args`);
    * ``names[i]`` — the instruction class name (trace events);
    * ``insts[i]`` — the original instruction object (error messages);
    * ``ivas[i]`` — the instruction virtual address.

    The decoded form carries no execution state; it is immutable in
    practice and safely shared by concurrent interpreter states (SMT).
    Only ``ivas`` depends on the base address, so a relocated copy
    (:meth:`Program.relocate`) shares its source's ``ops``, ``args``,
    ``names`` and ``insts`` lists and brings its own ``ivas``.
    """

    ops: list[int]
    args: list[tuple]
    names: list[str]
    insts: list[Instruction]
    ivas: list[int]
    n: int


# ----------------------------------------------------------------------
# Global content-keyed decode cache
# ----------------------------------------------------------------------
# Campaign workloads rebuild Program *objects* constantly — every fuzz
# task, every corpus replay, every oracle fill constructs a fresh
# Program around content the process has decoded before.  The instance
# cache on Program (see :meth:`Program.decoded`) cannot help there, so
# this bounded LRU shares decoded forms across instances by content
# (instruction tuple + base IVA; frozen instruction dataclasses hash by
# value).  The bound matters: a long campaign cycles thousands of
# distinct generated programs through one warm worker, and an unbounded
# map would pin every one of them forever.

#: Default bound on the shared decode LRU (distinct program contents).
DECODE_CACHE_SIZE = 512

_decode_cache: "OrderedDict[tuple, DecodedProgram]" = OrderedDict()
_decode_cache_size = DECODE_CACHE_SIZE
_decode_stats = {"hits": 0, "misses": 0, "evictions": 0}


def decode_cache_info() -> dict[str, int]:
    """Current decode-cache occupancy and hit/miss/eviction counters."""
    return {
        "size": len(_decode_cache),
        "max_size": _decode_cache_size,
        **_decode_stats,
    }


def clear_decode_cache() -> None:
    """Drop every shared decoded form and reset the counters.

    Program instances keep their own references, so anything a live
    Program already decoded stays valid — only cross-instance sharing
    restarts cold.
    """
    _decode_cache.clear()
    for name in _decode_stats:
        _decode_stats[name] = 0


def set_decode_cache_size(size: int) -> int:
    """Rebound the LRU (evicting down if needed); returns the old size."""
    global _decode_cache_size
    previous = _decode_cache_size
    _decode_cache_size = max(1, int(size))
    while len(_decode_cache) > _decode_cache_size:
        _decode_cache.popitem(last=False)
        _decode_stats["evictions"] += 1
    return previous


def _decode_args(instruction: Instruction, labels: dict[str, int]) -> tuple:
    """Operand tuple for one instruction (layouts per opcode).

    ``Jz`` targets resolve to an instruction index here; an unknown label
    decodes to ``None`` and raises only if the branch actually executes —
    identical to the lazy lookup the un-decoded interpreter performed.
    Unknown ALU op strings decode to ``ALU_BAD`` the same way.
    """
    cls = type(instruction)
    if cls is MovImm:
        return (instruction.dst, instruction.value)
    if cls is Mov:
        return (instruction.dst, instruction.src)
    if cls is Alu:
        return (
            instruction.dst,
            instruction.a,
            instruction.b,
            _ALU_CODES.get(instruction.op, ALU_BAD),
            instruction.op,
        )
    if cls is AluImm:
        return (
            instruction.dst,
            instruction.src,
            instruction.imm,
            _ALU_CODES.get(instruction.op, ALU_BAD),
            instruction.op,
        )
    if cls is Imul:
        return (instruction.dst, instruction.a, instruction.b)
    if cls is ImulImm:
        return (instruction.dst, instruction.src, instruction.imm)
    if cls is Load:
        return (instruction.dst, instruction.base, instruction.offset, instruction.width)
    if cls is Store:
        return (instruction.base, instruction.src, instruction.offset, instruction.width)
    if cls is Clflush:
        return (instruction.base, instruction.offset)
    if cls is Rdpru:
        return (instruction.dst,)
    if cls is Jz:
        return (instruction.cond, labels.get(instruction.label), instruction.label)
    return ()


class _CodeBytes(dict):
    """Instruction class -> its one-byte synthetic encoding (computed once)."""

    __slots__ = ()

    def __missing__(self, cls: type) -> bytes:
        digest = zlib.crc32(cls.__name__.encode())
        code = self[cls] = bytes([(digest & 0xFF) or 0x90])
        return code


_CODE_BYTES = _CodeBytes()


@dataclass
class Program:
    """An assembled instruction sequence with label resolution.

    ``base_iva`` is where the first instruction lives in the owning
    process's address space; each instruction's IVA follows from the
    encoded sizes.  The pipeline translates IVAs to IPAs through the page
    tables, so physical placement — what the predictors actually hash —
    is controlled by the kernel's frame allocator.
    """

    instructions: list[Instruction]
    base_iva: int = 0
    name: str = "program"
    _ivas: list[int] = field(default_factory=list, repr=False)
    _labels: dict[str, int] = field(default_factory=dict, repr=False)
    #: The instruction tuple and base IVA ``_ivas``/``_labels`` were laid
    #: out for; ``None`` makes ``__post_init__`` lay the program out.
    _layout_src: "tuple | None" = field(default=None, repr=False, compare=False)
    _layout_base: "int | None" = field(default=None, repr=False, compare=False)
    #: Encoded byte size of ``_layout_src``.
    _layout_size: int = field(default=0, repr=False, compare=False)
    _decoded: "DecodedProgram | None" = field(
        default=None, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self._layout_src is None:
            self._layout()

    def _layout(self) -> None:
        """Derive IVAs and labels from the current content; drops ``_decoded``."""
        src = tuple(self.instructions)
        self._ivas = []
        self._labels = {}
        cursor = self.base_iva
        for index, instruction in enumerate(src):
            self._ivas.append(cursor)
            if isinstance(instruction, Label):
                if instruction.name in self._labels:
                    raise ConfigError(f"duplicate label {instruction.name!r}")
                self._labels[instruction.name] = index
            cursor += instruction.size
        self._layout_src = src
        self._layout_base = self.base_iva
        self._layout_size = cursor - self.base_iva
        self._decoded = None

    def relocate(self, base_iva: int) -> "Program":
        """A copy of this program laid out at a different base address.

        Sizes, labels and opcodes do not depend on the address, so the
        copy's IVAs are this layout's shifted by the base delta and it
        shares this program's decoded body (everything but ``ivas``):
        relocating decodes the source once, never the copy.
        """
        body = self.decoded()
        ivas = [iva + base_iva - self._layout_base for iva in self._ivas]
        return Program(
            list(self._layout_src),
            base_iva,
            self.name,
            _ivas=ivas,
            _labels=dict(self._labels),
            _layout_src=self._layout_src,
            _layout_base=base_iva,
            _layout_size=self._layout_size,
            _decoded=DecodedProgram(
                body.ops, body.args, body.names, body.insts, ivas, body.n
            ),
        )

    def decoded(self) -> DecodedProgram:
        """The dense decoded form, cached on the instance.

        The cache key is the program *content* — the instruction sequence
        and base address (the same inputs :func:`repro.experiments.cache.
        content_key` would hash) — so mutating ``instructions`` in place
        or rebinding ``base_iva`` invalidates the cache and triggers a
        re-layout + re-decode; returning the same objects hits.  The
        content check is an element-wise tuple comparison, which
        short-circuits on object identity, so a cache hit costs one
        O(n) pointer sweep rather than a full re-decode.  A program whose
        content is unchanged since its last layout (a fresh or relocated
        one) is not laid out again.

        A relocated copy starts out with its decoded form already set
        (the source's body plus its own IVAs), so it never reaches the
        LRU below; an in-place edit takes the copy through the re-layout
        path like any other program, which never writes the shared
        body.  Every other decode goes through the
        process-wide content-keyed LRU, so a *fresh* Program built around
        already-seen content (the campaign pattern: every fuzz task
        rebuilds its program) shares the existing decoded form instead
        of paying decode again.  The LRU is bounded
        (:data:`DECODE_CACHE_SIZE`); see :func:`decode_cache_info`.
        """
        src = tuple(self.instructions)
        if self._layout_base != self.base_iva or self._layout_src != src:
            self._layout()
        elif self._decoded is not None:
            return self._decoded
        key = (src, self.base_iva)
        try:
            shared = _decode_cache.get(key)
        except TypeError:
            shared = None  # unhashable instruction subclass: skip sharing
        else:
            if shared is not None:
                _decode_cache.move_to_end(key)
                _decode_stats["hits"] += 1
                self._decoded = shared
                return shared
            _decode_stats["misses"] += 1
        labels = self._labels
        ops = []
        args = []
        names = []
        for instruction in src:
            ops.append(_OPCODES.get(type(instruction), OP_UNKNOWN))
            args.append(_decode_args(instruction, labels))
            names.append(type(instruction).__name__)
        self._decoded = DecodedProgram(
            ops=ops,
            args=args,
            names=names,
            insts=list(src),
            ivas=list(self._ivas),
            n=len(src),
        )
        try:
            _decode_cache[key] = self._decoded
        except TypeError:
            pass  # unhashable content stays instance-cached only
        else:
            while len(_decode_cache) > _decode_cache_size:
                _decode_cache.popitem(last=False)
                _decode_stats["evictions"] += 1
        return self._decoded

    def iva(self, index: int) -> int:
        """Instruction virtual address of the instruction at ``index``."""
        return self._ivas[index]

    def label_index(self, name: str) -> int:
        try:
            return self._labels[name]
        except KeyError:
            raise InvalidInstruction(f"unknown label {name!r}") from None

    @property
    def byte_size(self) -> int:
        if self._layout_src != tuple(self.instructions):
            self._layout()
        return self._layout_size

    def encode(self) -> bytes:
        """Synthetic machine code: a stable byte pattern per instruction.

        The bytes have no semantics (the pipeline interprets the objects),
        but they make code pages real: fork/COW copies them, and the code
        sliding experiments can fill pages with them the way the paper
        fills pages with stld machine code.
        """
        return b"".join(
            _CODE_BYTES[type(instruction)] * instruction.size
            for instruction in self.instructions
        )

    def __len__(self) -> int:
        return len(self.instructions)
