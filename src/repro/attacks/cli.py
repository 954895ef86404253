"""``repro-attack``: the end-to-end exploitation front end.

Four subcommands cover the exploitation chapter (docs/attacks.md):

* ``channel`` — measure one covert-channel configuration (transport,
  symbol width, repetition, injected noise): raw symbol error rate,
  corrected byte error rate, gross/goodput bits per second at the
  modeled clock;
* ``leak`` — run the Spectre-STL secret-extraction campaign under one
  mitigation or all of them, reporting per-mitigation byte accuracy and
  cycles per byte;
* ``aslr`` — run the SPOILER-style derandomizer: exact sub-page
  placement recovery plus partial physical-base bits from predictor
  collisions;
* ``verify`` — assert the exploitation contract over a ``leak --out``
  JSON: the unmitigated run recovers every byte, and every mitigated
  run is measurably degraded (exit 1 otherwise — the shell-gate form
  ``make attack-smoke`` relies on).

All runs are deterministic functions of ``--seed``; two invocations
with the same arguments write byte-identical ``--out`` files.  Exit
codes follow the shared contract (see ``--help``): a campaign that
*completes* but misses its recovery target exits 1, usage errors exit
2, Ctrl-C exits 3.
"""

from __future__ import annotations

import json
import sys

from repro.attacks.aslr import AslrDerandomizer
from repro.attacks.capacity import CHANNEL_KINDS, CapacityConfig, measure_capacity
from repro.attacks.extraction import (
    DEFAULT_COLLISION_BUDGET,
    ExtractionReport,
    run_suite,
)
from repro.cpu.machine import Machine
from repro.errors import ConfigError, ReproError
from repro.fuzz.harness import MITIGATIONS
from repro.interference import PRESET_ORDER
from repro.runtime import exitcodes
from repro.runtime.atomic import atomic_write_json
from repro.runtime.cliutil import build_parser, require_range

__all__ = ["DEFAULT_SECRET", "main"]

#: Default extraction target: 16 bytes, all distinct.
DEFAULT_SECRET = b"repro-secret-16B"

_EPILOG = """\
examples:
  repro-attack channel --channel cache --width 4 --payload-bytes 16
  repro-attack channel --channel stl --noise 0.05 --repeat 3
  repro-attack leak --mitigation all --out leak.json
  repro-attack verify leak.json
  repro-attack aslr --seed 4242"""


def main(argv: list[str] | None = None) -> int:
    parser = build_parser(
        "repro-attack",
        "End-to-end exploitation of the AMD speculative memory access "
        "predictors: covert channels, Spectre-STL secret extraction, "
        "and ASLR derandomization.",
        epilog=_EPILOG,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    chan = sub.add_parser("channel", help="measure a covert-channel configuration")
    chan.add_argument("--channel", default="stl", choices=CHANNEL_KINDS,
                      help="transport: stl = predictor-state lanes, "
                           "cache = Flush+Reload lines (default stl)")
    chan.add_argument("--width", type=int, default=2, metavar="BITS",
                      help="symbol width in bits (default 2)")
    chan.add_argument("--repeat", type=int, default=1, metavar="N",
                      help="repetition-code factor (default 1 = uncoded)")
    chan.add_argument("--payload-bytes", type=int, default=8, metavar="N",
                      help="seeded payload length (default 8)")
    chan.add_argument("--noise", type=float, default=0.0, metavar="P",
                      help="per-symbol corruption probability (default 0)")
    chan.add_argument("--interference", default=None, choices=PRESET_ORDER,
                      metavar="PRESET",
                      help="attach a system-interference preset to the "
                           f"transport's machine ({', '.join(PRESET_ORDER)}; "
                           "default: no model attached)")
    chan.add_argument("--resync", action="store_true",
                      help="hardened receiver: resynchronize after a failed "
                           "frame-sync point instead of abandoning the stream")
    chan.add_argument("--seed", type=int, default=7, help="machine + payload seed")
    chan.add_argument("--json", action="store_true", help="machine-readable output")
    chan.add_argument("--out", default=None, metavar="FILE",
                      help="also write the report as JSON")

    leak = sub.add_parser("leak", help="Spectre-STL secret extraction campaign")
    leak.add_argument("--mitigation", default="none",
                      choices=(*MITIGATIONS, "all"),
                      help="victim hardening to attack through (default none); "
                           "'all' runs every mitigation on fresh machines")
    leak.add_argument("--secret", default=None, metavar="TEXT",
                      help=f"secret to plant (default {DEFAULT_SECRET.decode()!r})")
    leak.add_argument("--seed", type=int, default=2024, help="machine seed")
    leak.add_argument("--redundancy", type=int, default=1, metavar="N",
                      help="channel reads per byte, plurality-voted (default 1)")
    leak.add_argument("--slide-pages", type=int, default=16, metavar="N",
                      help="attacker code-sliding region size (default 16)")
    leak.add_argument("--collision-budget", type=int,
                      default=DEFAULT_COLLISION_BUDGET, metavar="N",
                      help="probe attempts per sliding scan before giving up "
                           f"(default {DEFAULT_COLLISION_BUDGET})")
    leak.add_argument("--interference", default=None, choices=PRESET_ORDER,
                      metavar="PRESET",
                      help="attach a system-interference preset to every "
                           f"campaign machine ({', '.join(PRESET_ORDER)})")
    leak.add_argument("--no-hardening", action="store_true",
                      help="pin the pre-hardening protocols (single-sample "
                           "calibration, exact votes, no retries) — the "
                           "robustness curve's comparison arm")
    leak.add_argument("--json", action="store_true", help="machine-readable output")
    leak.add_argument("--out", default=None, metavar="FILE",
                      help="also write the report as JSON (feeds 'verify')")

    aslr = sub.add_parser("aslr", help="derandomize a victim allocation")
    aslr.add_argument("--seed", type=int, default=4242, help="machine seed")
    aslr.add_argument("--window-bits", type=int, default=12, metavar="N",
                      help="entropy of the randomized frame window (default 12)")
    aslr.add_argument("--region-pages", type=int, default=40, metavar="N",
                      help="victim region size in pages (default 40)")
    aslr.add_argument("--json", action="store_true", help="machine-readable output")
    aslr.add_argument("--out", default=None, metavar="FILE",
                      help="also write the report as JSON")

    ver = sub.add_parser(
        "verify", help="assert the exploitation contract over a leak JSON"
    )
    ver.add_argument("report", help="a 'leak --mitigation all --out' JSON file")

    args = parser.parse_args(argv)
    try:
        if args.command == "channel":
            return _channel(args)
        if args.command == "leak":
            return _leak(args)
        if args.command == "aslr":
            return _aslr(args)
        return _verify(args)
    except (ConfigError, ValueError, OSError) as exc:
        print(f"repro-attack: {exc}", file=sys.stderr)
        return exitcodes.EXIT_USAGE
    except ReproError as exc:
        print(f"repro-attack: {exc}", file=sys.stderr)
        return exitcodes.EXIT_FAILURES
    except KeyboardInterrupt:
        print("repro-attack: interrupted", file=sys.stderr)
        return exitcodes.EXIT_INTERRUPTED


def _channel(args) -> int:
    # Up-front range validation: a bad value exits 2 (usage) before any
    # machine is built, instead of clamping silently or tracing deep.
    require_range("--width", args.width, 1, 16)
    require_range("--repeat", args.repeat, 1)
    require_range("--payload-bytes", args.payload_bytes, 1)
    require_range("--noise", args.noise, 0.0, 1.0)
    config = CapacityConfig(
        channel=args.channel,
        width=args.width,
        repeat=args.repeat,
        payload_bytes=args.payload_bytes,
        noise=args.noise,
        seed=args.seed,
        interference=args.interference,
        resync=args.resync,
    )
    report = measure_capacity(config)
    data = report.to_dict()
    if args.out:
        atomic_write_json(args.out, data)
    if args.json:
        print(json.dumps(data, indent=2, sort_keys=True))
        return exitcodes.EXIT_OK
    print(
        f"channel {config.channel}: width {config.width}b x{config.repeat}, "
        f"{config.payload_bytes} payload bytes, noise {config.noise:g}"
    )
    print(
        f"  wire: {report.symbols_on_wire} symbols, "
        f"raw symbol error rate {report.raw_symbol_error_rate:.4f}"
    )
    print(
        f"  decoded: byte error rate {report.corrected_byte_error_rate:.4f}"
        + (" (framing failed)" if report.framing_failed else "")
    )
    print(
        f"  throughput: {report.gross_bits_per_second:,.0f} b/s gross, "
        f"{report.goodput_bits_per_second:,.0f} b/s goodput "
        f"({report.cycles:,} cycles @ {report.clock_ghz:g} GHz)"
    )
    if args.out:
        print(f"  report written to {args.out}")
    return exitcodes.EXIT_OK


def _leak(args) -> int:
    require_range("--redundancy", args.redundancy, 1)
    require_range("--slide-pages", args.slide_pages, 1, 512)
    if args.collision_budget is not None:
        require_range("--collision-budget", args.collision_budget, 1)
    secret = args.secret.encode() if args.secret is not None else DEFAULT_SECRET
    mitigations = MITIGATIONS if args.mitigation == "all" else (args.mitigation,)
    reports = run_suite(
        secret,
        seed=args.seed,
        mitigations=mitigations,
        slide_pages=args.slide_pages,
        redundancy=args.redundancy,
        collision_budget=args.collision_budget,
        interference=args.interference,
        hardened=not args.no_hardening,
    )
    data = {
        "seed": args.seed,
        "secret_bytes": len(secret),
        "redundancy": args.redundancy,
        "interference": args.interference,
        "hardened": not args.no_hardening,
        "reports": [report.to_dict() for report in reports],
    }
    if args.out:
        atomic_write_json(args.out, data)
    if args.json:
        print(json.dumps(data, indent=2, sort_keys=True))
    else:
        for report in reports:
            _print_leak_report(report)
        if args.out:
            print(f"report written to {args.out}")
    # The contract: an unmitigated campaign that was requested must
    # recover the full secret.
    failed = [
        report for report in reports
        if report.mitigation == "none" and report.accuracy < 1.0
    ]
    return exitcodes.EXIT_FAILURES if failed else exitcodes.EXIT_OK


def _print_leak_report(report: ExtractionReport) -> None:
    print(
        f"mitigation {report.mitigation:<5s}: "
        f"{round(report.accuracy * len(report.expected))}/{len(report.expected)} "
        f"bytes ({report.accuracy:.0%}), "
        f"{report.cycles_per_byte:,.0f} cycles/byte, "
        f"{report.bytes_per_second:,.1f} B/s"
    )
    if report.failure:
        print(f"  attack failed: {report.failure}")
    else:
        print(f"  recovered: {report.recovered.hex()}")


def _aslr(args) -> int:
    require_range("--window-bits", args.window_bits, 1, 24)
    require_range("--region-pages", args.region_pages, 2, 4096)
    derandomizer = AslrDerandomizer(
        machine=Machine(seed=args.seed),
        window_bits=args.window_bits,
        region_pages=args.region_pages,
    )
    report = derandomizer.recover()
    data = report.to_dict()
    if args.out:
        atomic_write_json(args.out, data)
    if args.json:
        print(json.dumps(data, indent=2, sort_keys=True))
    else:
        sub_note = (
            "exact" if report.sub_page_recovered
            else f"WRONG (true {report.true_sub_offset:#x})"
        )
        print(
            f"sub-page placement: {report.recovered_sub_offset:#x} ({sub_note})"
            if report.recovered_sub_offset is not None
            else "sub-page placement: not recovered"
        )
        print(
            f"physical window: {report.candidates_remaining} of "
            f"{1 << report.window_bits} candidates remain "
            f"({report.physical_bits_recovered:.1f} bits recovered, "
            f"truth {'kept' if report.true_base_in_candidates else 'LOST'})"
        )
        print(
            f"cost: {report.probes} probes, {report.victim_invocations} victim "
            f"invocations, {report.cycles:,} cycles"
        )
        if args.out:
            print(f"report written to {args.out}")
    return exitcodes.EXIT_OK if report.success else exitcodes.EXIT_FAILURES


def _verify(args) -> int:
    with open(args.report, "rb") as handle:
        data = json.loads(handle.read().decode("utf-8"))
    reports = {entry["mitigation"]: entry for entry in data["reports"]}
    if "none" not in reports:
        raise ValueError(f"{args.report} has no unmitigated run to compare against")
    baseline = reports["none"]
    problems = []
    if baseline["accuracy"] < 1.0:
        problems.append(
            f"unmitigated accuracy {baseline['accuracy']:.2f} "
            f"(must recover every byte)"
        )
    mitigated = [name for name in reports if name != "none"]
    if not mitigated:
        problems.append("no mitigated runs to compare (run leak --mitigation all)")
    for name in mitigated:
        entry = reports[name]
        degraded = (
            entry["accuracy"] < baseline["accuracy"]
            or entry["cycles_per_byte"] > baseline["cycles_per_byte"]
        )
        verdict = "degraded" if degraded else "NOT DEGRADED"
        print(
            f"{name:<5s} vs none: accuracy {entry['accuracy']:.2f} "
            f"vs {baseline['accuracy']:.2f}, cycles/byte "
            f"{entry['cycles_per_byte']:,.0f} vs "
            f"{baseline['cycles_per_byte']:,.0f} -> {verdict}"
        )
        if not degraded:
            problems.append(f"mitigation {name} did not degrade the attack")
    if problems:
        for problem in problems:
            print(f"repro-attack: verify: {problem}", file=sys.stderr)
        return exitcodes.EXIT_FAILURES
    print(f"verify ok: full unmitigated recovery, "
          f"{len(mitigated)} mitigated run(s) degraded")
    return exitcodes.EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
