"""Lifting the micro-ISA into a small dataflow IR.

The scanner does not interpret :class:`~repro.cpu.isa.Instruction`
objects directly; it lifts a program once into a list of
:class:`IRNode` facts — what each instruction *defines*, *uses* and
*touches* — and every later pass (window enumeration, taint
propagation, gadget classification) works over those nodes by index.
The lift accepts the same inputs the rest of the repo passes around: a
plain instruction list, a :class:`~repro.cpu.isa.Program`, or a
:class:`~repro.cpu.isa.DecodedProgram` via its ``insts``.

The IR is purely syntactic — no execution, no machine — which is what
makes a scan thousands of times cheaper than a pipeline run.  Branch
targets are resolved through the program's labels; a ``Jz`` naming an
unknown label keeps ``target=None`` and the window pass treats its
transient span as reaching the end of the program (the conservative
choice, mirroring the interpreter's lazy label lookup).
"""

from __future__ import annotations

from typing import NamedTuple

from repro.cpu.isa import (
    Alu,
    AluImm,
    Clflush,
    DecodedProgram,
    Imul,
    ImulImm,
    Instruction,
    Jz,
    Label,
    Load,
    Mfence,
    Mov,
    MovImm,
    Program,
    Rdpru,
    Store,
)

__all__ = ["KINDS", "IRNode", "IRProgram", "lift"]

#: Node kinds, in no particular order.  ``alu`` covers every pure
#: register computation (Mov/MovImm/Alu/AluImm/Imul/ImulImm); ``timer``
#: is ``Rdpru`` (reads the clock, never the secret); ``nop`` covers
#: ``Label``/``Pad``/unknown instructions.
KINDS = ("alu", "load", "store", "flush", "fence", "branch", "timer", "halt", "nop")


class IRNode(NamedTuple):
    """Dataflow facts for one instruction (a named tuple: cheap to build)."""

    index: int
    op: str                       # instruction class name
    kind: str                     # one of KINDS
    defs: tuple[str, ...]         # registers written
    uses: tuple[str, ...]         # registers read
    base: str | None = None      # address base register (load/store/flush)
    offset: int = 0              # constant address offset
    width: int = 0               # access width in bytes
    target: int | None = None    # branch target node index (Jz, resolved)
    instruction: Instruction | None = None  # the lifted instruction
    alu_op: str = ""             # ALU operator string (Alu/AluImm)
    imm: int | None = None       # immediate operand (MovImm/AluImm/ImulImm)

    @property
    def source(self) -> str:
        """The instruction's dataclass repr, made only when a span needs it."""
        return repr(self.instruction)

    def __str__(self) -> str:
        return f"[{self.index:3d}] {self.source}"


class IRProgram:
    """A lifted program: the node list plus derived lookup tables."""

    def __init__(self, nodes: list[IRNode]) -> None:
        self.nodes = nodes
        by_kind: dict[str, list[int]] = {"load": [], "store": [], "branch": [], "fence": []}
        #: Label name -> node index (the last one, for a duplicated name).
        self.labels: dict[str, int] = {}
        # Few nodes are not ALU ops: only those can be memory ops,
        # branches, fences or labels.
        for node in [node for node in nodes if node.kind != "alu"]:
            indices = by_kind.get(node.kind)
            if indices is not None:
                indices.append(node.index)
            elif isinstance(node.instruction, Label):
                self.labels[node.instruction.name] = node.index
        self.loads = tuple(by_kind["load"])
        self.stores = tuple(by_kind["store"])
        self.branches = tuple(by_kind["branch"])
        self.fences = tuple(by_kind["fence"])
        self._reprs: dict[int, str] = {}

    def __len__(self) -> int:
        return len(self.nodes)

    def __iter__(self):
        return iter(self.nodes)

    def __getitem__(self, index: int) -> IRNode:
        return self.nodes[index]

    def reprs(self, indices: tuple[int, ...] | list[int]) -> tuple[str, ...]:
        """Instruction reprs for a set of node indices (finding spans)."""
        reprs = self._reprs
        out = []
        for index in sorted(indices):
            text = reprs.get(index)
            if text is None:
                text = reprs[index] = self.nodes[index].source
            out.append(text)
        return tuple(out)


#: Builds an ``IRNode`` from a full field tuple without the keyword
#: handling of its constructor (one node per lifted instruction).
_new = tuple.__new__


def _lift_one(index: int, instruction: Instruction) -> IRNode:
    # Fields: index, op, kind, defs, uses, base, offset, width, target,
    # instruction, alu_op, imm.
    cls = type(instruction)
    if cls is ImulImm:  # first: the address-delay chains of fuzz programs
        return _new(IRNode, (index, "ImulImm", "alu", (instruction.dst,),
                             (instruction.src,), None, 0, 0, None, instruction,
                             "", instruction.imm))
    if cls is MovImm:
        return _new(IRNode, (index, "MovImm", "alu", (instruction.dst,), (),
                             None, 0, 0, None, instruction, "", instruction.value))
    if cls is Mov:
        return _new(IRNode, (index, "Mov", "alu", (instruction.dst,),
                             (instruction.src,), None, 0, 0, None, instruction,
                             "", None))
    if cls is Alu:
        return _new(IRNode, (index, "Alu", "alu", (instruction.dst,),
                             (instruction.a, instruction.b), None, 0, 0, None,
                             instruction, instruction.op, None))
    if cls is AluImm:
        return _new(IRNode, (index, "AluImm", "alu", (instruction.dst,),
                             (instruction.src,), None, 0, 0, None, instruction,
                             instruction.op, instruction.imm))
    if cls is Imul:
        return _new(IRNode, (index, "Imul", "alu", (instruction.dst,),
                             (instruction.a, instruction.b), None, 0, 0, None,
                             instruction, "", None))
    if cls is Load:
        return _new(IRNode, (index, "Load", "load", (instruction.dst,),
                             (instruction.base,), instruction.base,
                             instruction.offset, instruction.width, None,
                             instruction, "", None))
    if cls is Store:
        return _new(IRNode, (index, "Store", "store", (),
                             (instruction.base, instruction.src), instruction.base,
                             instruction.offset, instruction.width, None,
                             instruction, "", None))
    if cls is Clflush:
        return IRNode(index, "Clflush", "flush", (), (instruction.base,),
                      base=instruction.base, offset=instruction.offset,
                      instruction=instruction)
    if cls is Mfence:
        return IRNode(index, "Mfence", "fence", (), (), instruction=instruction)
    if cls is Rdpru:
        return IRNode(index, "Rdpru", "timer", (instruction.dst,), (), instruction=instruction)
    if cls is Jz:  # ``lift`` resolves the target once every label is known
        return IRNode(index, "Jz", "branch", (), (instruction.cond,),
                      instruction=instruction)
    if cls.__name__ == "Halt":
        return IRNode(index, "Halt", "halt", (), (), instruction=instruction)
    # Label, Pad, bare Instruction, anything unknown: no dataflow.
    return IRNode(index, cls.__name__, "nop", (), (), instruction=instruction)


def lift(program: Program | DecodedProgram | list[Instruction]) -> IRProgram:
    """Lift a program (in any of its repo-wide forms) into an IR."""
    if isinstance(program, Program):
        instructions = list(program.instructions)
    elif isinstance(program, DecodedProgram):
        instructions = list(program.insts)
    else:
        instructions = list(program)
    ir = IRProgram(list(map(_lift_one, range(len(instructions)), instructions)))
    for index in ir.branches:
        node = ir.nodes[index]
        ir.nodes[index] = node._replace(target=ir.labels.get(node.instruction.label))
    return ir
