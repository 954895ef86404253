"""Secret-taint propagation over the lifted IR.

The threat model is the two-fill oracle's (:mod:`repro.fuzz.oracle`):
the program operates on one anonymous data buffer whose *initial*
contents are the secret.  A register becomes tainted when its value may
derive from those initial bytes, either

* **architecturally** — a load reads buffer bytes the program has not
  definitely overwritten (an *uncovered* load), or reads through a
  pointer the analysis cannot place inside the buffer at all (a
  *foreign* load — e.g. the victim-gadget ``array1``/``array2``
  pointers, whose memory the attacker treats as secret); or
* **speculatively** — a load that an older unresolved store should have
  fed is bypassed (SSBP predicts non-aliasing) or predictively forwarded
  (PSFP), so the load transiently observes *stale* memory: the initial
  fill.  These edges come from :func:`repro.static.windows.bypass_edges`
  and vanish under the ``ssbd``/``fence`` mitigations.

Taint is a pair of source sets per value — ``arch`` (architecturally
reachable secret) and ``spec`` (reachable on some transient path;
always a superset) — so the gadget layer can distinguish a hard
architectural dependence from a Spectre-style transient one.  Sources
are IR node indices, which is what lets findings carry exact
instruction spans.

Soundness over precision, throughout:

* every instruction is walked in program order, branch bodies included
  (transient execution runs wrong paths, so their taint must flow);
* a register defined inside a branch window *merges* with its prior
  value instead of replacing it (architecturally the def may be
  skipped);
* only definitely-executed stores at analyzable ``buf+const`` addresses
  add coverage; stores the analysis cannot place keep their data's
  taint by merging it into every covered byte they might hit;
* unknown values never launder taint (``and``/``xor`` of a tainted
  pointer stays tainted).

The known imprecision sources are catalogued in
``docs/static-analysis.md``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

from repro.fuzz.gen import BUF_BYTES
from repro.static.ir import IRProgram
from repro.static.windows import BranchWindow, BypassEdge

__all__ = ["EMPTY", "RegVal", "TaintResult", "analyze_taint"]

#: The empty source set (untainted).
EMPTY: frozenset[int] = frozenset()

#: Abstract value regions.
_CONST, _BUF, _UNKNOWN = "const", "buf", "unknown"


class RegVal(NamedTuple):
    """Abstract register value: a region/offset plus taint source sets."""

    region: str = _UNKNOWN          # "const" | "buf" | "unknown"
    offset: int = 0                  # meaningful for const/buf
    arch: frozenset[int] = EMPTY     # architectural secret sources
    spec: frozenset[int] = EMPTY     # transient-path secret sources (⊇ arch)

    @property
    def tainted(self) -> bool:
        return bool(self.spec)

    def merged(self, other: "RegVal") -> "RegVal":
        """Join with another possible value (branch-window def merge)."""
        same = self.region == other.region and self.offset == other.offset
        return RegVal(
            region=self.region if same else _UNKNOWN,
            offset=self.offset if same else 0,
            arch=self.arch | other.arch,
            spec=self.spec | other.spec,
        )


_UNKNOWN_VAL = RegVal()

#: Builds a ``RegVal`` from a full field tuple without the keyword
#: handling of its constructor (the alu path builds one per node).
_new = tuple.__new__


@dataclass
class TaintResult:
    """Per-node taint facts the gadget layer consumes."""

    #: memory-op node index -> (arch, spec) source sets of its *address*.
    address: dict[int, tuple[frozenset[int], frozenset[int]]] = field(
        default_factory=dict
    )
    #: memory-op node index -> abstract base-register value
    #: ("const"|"buf"|"unknown", offset) — alias reasoning and the advisor.
    values: dict[int, tuple[str, int]] = field(default_factory=dict)
    #: branch node index -> (arch, spec) source sets of its condition.
    condition: dict[int, tuple[frozenset[int], frozenset[int]]] = field(
        default_factory=dict
    )
    #: final register environment (taint of architectural results).
    regs: dict[str, RegVal] = field(default_factory=dict)
    #: secret-source node index -> kind
    #: ("uncovered-load" | "foreign-load" | "stale-bypass").
    sources: dict[int, str] = field(default_factory=dict)


def _alu_value(op_name: str, node_op: str, a: RegVal, b: RegVal | None,
               imm: int | None) -> tuple[str, int]:
    """Constant/offset folding for the ALU family (value part only)."""
    if node_op in ("Mov",):
        return a.region, a.offset
    if node_op == "AluImm":
        if op_name == "add" and a.region in (_CONST, _BUF):
            return a.region, a.offset + imm
        if op_name == "sub" and a.region in (_CONST, _BUF):
            return a.region, a.offset - imm
        if a.region == _CONST and op_name in ("xor", "and", "or"):
            fn = {"xor": int.__xor__, "and": int.__and__, "or": int.__or__}[op_name]
            return _CONST, fn(a.offset, imm)
        return _UNKNOWN, 0
    if node_op == "Alu":
        if op_name == "add":
            if a.region == _CONST and b.region in (_CONST, _BUF):
                return b.region, a.offset + b.offset
            if b.region == _CONST and a.region in (_CONST, _BUF):
                return a.region, a.offset + b.offset
        if op_name == "sub":
            if a.region in (_CONST, _BUF) and b.region == _CONST:
                return a.region, a.offset - b.offset
            if a.region == _CONST and b.region == _CONST:
                return _CONST, a.offset - b.offset
        if a.region == _CONST and b.region == _CONST and op_name in (
            "xor", "and", "or"
        ):
            fn = {"xor": int.__xor__, "and": int.__and__, "or": int.__or__}[op_name]
            return _CONST, fn(a.offset, b.offset)
        return _UNKNOWN, 0
    if node_op == "ImulImm":
        if imm == 1:
            return a.region, a.offset
        if a.region == _CONST:
            return _CONST, a.offset * imm
        return _UNKNOWN, 0
    if node_op == "Imul":
        if a.region == _CONST and b.region == _CONST:
            return _CONST, a.offset * b.offset
        if a.region == _CONST and a.offset == 1:
            return b.region, b.offset
        if b.region == _CONST and b.offset == 1:
            return a.region, a.offset
        return _UNKNOWN, 0
    return _UNKNOWN, 0


def analyze_taint(
    ir: IRProgram,
    edges: list[BypassEdge],
    windows: list[BranchWindow],
    *,
    buffer_reg: str = "buf",
    buffer_bytes: int = BUF_BYTES,
) -> TaintResult:
    """One forward pass: abstract values, coverage and taint sources."""
    result = TaintResult()
    regs: dict[str, RegVal] = {buffer_reg: RegVal(region=_BUF, offset=0)}
    #: definitely-overwritten buffer byte -> (arch, spec) taint of its data.
    coverage: dict[int, tuple[frozenset[int], frozenset[int]]] = {}
    bypassed = {edge.load for edge in edges}
    maybe = [False] * len(ir)
    for window in windows:
        for index in range(window.start, min(window.end, len(ir))):
            maybe[index] = True

    read = regs.get
    address, values, sources = result.address, result.values, result.sources

    def write(index: int, name: str, value: RegVal) -> None:
        if maybe[index] and name in regs:
            regs[name] = regs[name].merged(value)
        else:
            regs[name] = value

    for (index, op, kind, defs, uses, base_reg, node_offset, width, _target,
         _instruction, alu_op, imm) in ir.nodes:
        if kind == "alu":
            # Alu/Imul read two registers, Mov/AluImm/ImulImm one, MovImm none.
            if op == "ImulImm" and imm == 1:
                # ``x * 1``: the address-delay chains that make up most
                # fuzz programs copy their input's value unchanged.
                value = read(uses[0], _UNKNOWN_VAL)
            elif op == "MovImm":
                value = _new(RegVal, (_CONST, imm or 0, EMPTY, EMPTY))
            else:
                a = read(uses[0], _UNKNOWN_VAL)
                if len(uses) > 1:
                    b = read(uses[1], _UNKNOWN_VAL)
                    arch = a.arch | b.arch if b.arch else a.arch
                    spec = a.spec | b.spec if b.spec else a.spec
                    region, offset = _alu_value(alu_op or "add", op, a, b, imm)
                    value = _new(RegVal, (region, offset, arch, spec))
                elif op == "Mov":
                    value = a
                else:
                    region, offset = _alu_value(alu_op or "add", op, a, None, imm)
                    value = _new(RegVal, (region, offset, a.arch, a.spec))
            name = defs[0]
            if maybe[index] and name in regs:
                value = regs[name].merged(value)
            regs[name] = value
        elif kind == "timer":
            for name in defs:
                write(index, name, RegVal())
        elif kind == "load":
            base = read(base_reg, _UNKNOWN_VAL)
            address[index] = (base.arch, base.spec)
            values[index] = (base.region, base.offset)
            lo = base.offset + node_offset
            hi = lo + max(1, width)
            cells = (
                list(map(coverage.get, range(lo, hi)))
                if base.region == _BUF and 0 <= lo and hi <= buffer_bytes
                else [None]
            )
            if None not in cells:
                first = cells[0]
                if cells.count(first) == len(cells):  # all written by one store
                    arch, spec = first
                else:
                    arch = frozenset().union(*[cell[0] for cell in cells])
                    spec = frozenset().union(*[cell[1] for cell in cells])
            elif base.region == _BUF:
                sources[index] = "uncovered-load"
                arch = spec = frozenset((index,))
            else:
                sources[index] = "foreign-load"
                arch = spec = frozenset((index,))
            if index in bypassed:
                # A bypass/PSF edge lets this load transiently observe
                # stale memory — the initial (secret) fill — even when
                # it is architecturally covered.
                sources.setdefault(index, "stale-bypass")
                spec = spec | frozenset((index,))
            # The address itself being tainted also taints the value
            # (the load reads an attacker-unintended, secret-named slot).
            if base.arch:
                arch = arch | base.arch
            if base.spec:
                spec = spec | base.spec
            write(index, defs[0], _new(RegVal, (_UNKNOWN, 0, arch, spec)))
        elif kind == "store":
            base = read(base_reg, _UNKNOWN_VAL)
            data = read(uses[1], _UNKNOWN_VAL)
            address[index] = (base.arch, base.spec)
            values[index] = (base.region, base.offset)
            lo = base.offset + node_offset
            hi = lo + max(1, width)
            placeable = (
                base.region == _BUF and not base.spec  # untainted address
                and 0 <= lo and hi <= buffer_bytes
            )
            if placeable and not maybe[index]:
                cell = (data.arch, data.spec)
                for off in range(lo, hi):
                    coverage[off] = cell
            elif placeable:
                # Maybe-executed store at a known offset: it cannot add
                # coverage, but tainted data may land on covered bytes.
                for off in range(lo, hi):
                    if off in coverage:
                        coverage[off] = (
                            coverage[off][0] | data.arch,
                            coverage[off][1] | data.spec,
                        )
            elif data.arch or data.spec:
                # Unplaceable store with tainted data: it may overwrite
                # any covered byte, so every entry inherits the taint.
                for off, (arch_d, spec_d) in coverage.items():
                    coverage[off] = (arch_d | data.arch, spec_d | data.spec)
        elif kind == "flush":
            base = read(base_reg, _UNKNOWN_VAL)
            address[index] = (base.arch, base.spec)
            values[index] = (base.region, base.offset)
        elif kind == "branch":
            cond = read(uses[0], _UNKNOWN_VAL)
            result.condition[index] = (cond.arch, cond.spec)
        # fence / halt / nop: no dataflow.

    result.regs = dict(regs)
    return result
