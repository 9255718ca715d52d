"""Command-line interface: ``python -m repro <command>`` or ``repro-pf``.

Commands
--------
``figure N``
    Print the regenerated paper figure (N in 2..6).
``table NAME ROWS COLS``
    Print any registered mapping's sample table (Figure 1 template).
``pair NAME X Y`` / ``unpair NAME Z``
    One-shot evaluation of a mapping or its inverse.
``spread NAME N [N ...]``
    Spread values S(N) with the Theta(n log n) lower bound alongside.
``strides NAME X_MAX``
    Base/stride table for an additive PF.
``crossover BIG SMALL LIMIT``
    Stride-dominance crossover between two APFs.
``wbc [--apf NAME] [--ticks T] [--seed S]``
    Run the accountable web-computing simulation and print its report.
``encode X [X ...]`` / ``decode Z``
    Godel tuple codec: any finite tuple of positive ints <-> one int.
``locality NAME``
    Row/column jump profiles and corner-block density of a mapping.
``report``
    One-command reproduction report: the key measured tables of
    EXPERIMENTS.md (figure checks, spread table, crossovers, WBC footprint).
``list``
    Registered mapping names.
"""

from __future__ import annotations

import argparse
import sys

from repro.core.registry import available_names, get_pairing
from repro.render.tables import render_pf_table, render_rows_table

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-pf",
        description="Pairing functions for extendible arrays and accountable web computing",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fig = sub.add_parser("figure", help="print a regenerated paper figure")
    fig.add_argument("number", type=int, choices=[2, 3, 4, 5, 6])

    table = sub.add_parser("table", help="print a mapping's sample table")
    table.add_argument("name")
    table.add_argument("rows", type=int)
    table.add_argument("cols", type=int)

    pair = sub.add_parser("pair", help="evaluate mapping(x, y)")
    pair.add_argument("name")
    pair.add_argument("x", type=int)
    pair.add_argument("y", type=int)

    unpair = sub.add_parser("unpair", help="invert a mapping at z")
    unpair.add_argument("name")
    unpair.add_argument("z", type=int)

    spread = sub.add_parser("spread", help="spread S(n) with the lower bound")
    spread.add_argument("name")
    spread.add_argument("ns", type=int, nargs="+")

    strides = sub.add_parser("strides", help="APF base/stride table")
    strides.add_argument("name")
    strides.add_argument("x_max", type=int)

    crossover = sub.add_parser("crossover", help="APF stride-dominance crossover")
    crossover.add_argument("big")
    crossover.add_argument("small")
    crossover.add_argument("limit", type=int)

    wbc = sub.add_parser("wbc", help="run the web-computing simulation")
    wbc.add_argument("--apf", default="apf-sharp")
    wbc.add_argument("--ticks", type=int, default=200)
    wbc.add_argument("--volunteers", type=int, default=20)
    wbc.add_argument("--seed", type=int, default=2002)
    wbc.add_argument("--shards", type=int, default=1,
                     help="engine shards (>1 runs the sharded server)")
    wbc.add_argument("--faults", default="",
                     help="fault spec, e.g. 'crash@40:1,restore@55:1,"
                          "corrupt@20:2,drop=0.05,delay=0.1:3'")
    wbc.add_argument("--lease-ticks", type=int, default=None,
                     help="task-lease length in ticks (expired tasks are "
                          "reissued; default: no leases)")
    wbc.add_argument("--checkpoint-every", type=int, default=None,
                     help="checkpoint shards every N ticks (sharded only)")
    wbc.add_argument("--compact-every", type=int, default=8,
                     help="rewrite a full checkpoint base after N "
                          "incremental delta segments (sharded only; "
                          "0 = never compact)")
    wbc.add_argument("--codec", default=None,
                     help="index codec composing (shard, local) into the "
                          "global task index (default: congruence; or "
                          "square-shell, szudzik, rosenberg-strong, "
                          "binprop-B, ...); implies the sharded server")
    wbc.add_argument("--workers", type=int, default=None,
                     help="run shards in N worker processes "
                          "(default: in-process, serial)")

    encode = sub.add_parser("encode", help="encode a tuple of positive ints")
    encode.add_argument("values", type=int, nargs="*")

    decode = sub.add_parser("decode", help="decode an integer to its tuple")
    decode.add_argument("z", type=int)

    locality = sub.add_parser("locality", help="jump profiles and block density")
    locality.add_argument("name")
    locality.add_argument("--window", type=int, default=16)

    sub.add_parser("report", help="print the paper-reproduction report")

    sub.add_parser("list", help="list registered mapping names")

    lint = sub.add_parser(
        "lint", help="run reprolint, the project's AST invariant analyzer"
    )
    lint.add_argument(
        "paths", nargs="*", default=["src"], help="files or directories (default: src)"
    )
    lint.add_argument("--json", action="store_true", help="machine-readable report")
    lint.add_argument("--rules", help="comma-separated rule codes to run")
    lint.add_argument(
        "--list-rules", action="store_true", help="print the rules table and exit"
    )
    lint.add_argument(
        "--cache",
        dest="cache",
        action="store_true",
        default=True,
        help="reuse cached per-file results (default)",
    )
    lint.add_argument(
        "--no-cache",
        dest="cache",
        action="store_false",
        help="ignore and do not write the incremental cache",
    )
    lint.add_argument(
        "--jobs",
        type=int,
        default=0,
        metavar="N",
        help="worker processes for files needing analysis (0 = one per CPU)",
    )
    lint.add_argument(
        "--changed",
        action="store_true",
        help="report findings only for files changed per git (analysis "
        "stays project-wide so cross-module rules see every summary)",
    )
    return parser


def _cmd_figure(number: int) -> str:
    from repro.render import figure2, figure3, figure4, figure5, figure6

    return {2: figure2, 3: figure3, 4: figure4, 5: figure5, 6: figure6}[number]()


def _cmd_spread(name: str, ns: list[int]) -> str:
    from repro.core.spread import spread_curve

    curve = spread_curve(get_pairing(name), ns)
    rows = [
        (p.n, p.spread, p.lower_bound, f"{p.utilization:.4f}", f"{p.overhead_vs_bound:.3f}")
        for p in curve.points
    ]
    return render_rows_table(
        ["n", "S(n)", "lower bound D(n)", "utilization", "S(n)/D(n)"],
        rows,
        title=f"spread of {name}",
    )


def _cmd_strides(name: str, x_max: int) -> str:
    from repro.apf.base import AdditivePairingFunction

    apf = get_pairing(name)
    if not isinstance(apf, AdditivePairingFunction):
        raise SystemExit(f"{name} is not an additive PF")
    rows = [(x, apf.group_of(x) if hasattr(apf, "group_of") else "-", apf.base(x), apf.stride(x)) for x in range(1, x_max + 1)]
    return render_rows_table(["x", "g", "B_x", "S_x"], rows, title=f"strides of {name}")


def _cmd_crossover(big_name: str, small_name: str, limit: int) -> str:
    from repro.apf.analysis import dominance_crossover
    from repro.apf.base import AdditivePairingFunction

    big, small = get_pairing(big_name), get_pairing(small_name)
    if not isinstance(big, AdditivePairingFunction) or not isinstance(
        small, AdditivePairingFunction
    ):
        raise SystemExit("crossover requires two additive PFs")
    x0 = dominance_crossover(big, small, limit)
    if x0 is None:
        return f"{big_name} does not dominate {small_name} at x = {limit}"
    return (
        f"{big_name}.stride(x) >= {small_name}.stride(x) for all x in "
        f"[{x0}, {limit}] (first such x0 = {x0})"
    )


def _cmd_wbc(
    apf_name: str,
    ticks: int,
    volunteers: int,
    seed: int,
    shards: int = 1,
    faults: str = "",
    lease_ticks: int | None = None,
    checkpoint_every: int | None = None,
    workers: int | None = None,
    compact_every: int | None = 8,
    codec: str | None = None,
) -> str:
    from repro.apf.base import AdditivePairingFunction
    from repro.webcompute.simulation import SimulationConfig, WBCSimulation

    apf = get_pairing(apf_name)
    if not isinstance(apf, AdditivePairingFunction):
        raise SystemExit(f"{apf_name} is not an additive PF")
    config = SimulationConfig(
        ticks=ticks,
        initial_volunteers=volunteers,
        seed=seed,
        shards=shards,
        faults=faults,
        lease_ticks=lease_ticks,
        checkpoint_every=checkpoint_every,
        compact_every=compact_every,
        workers=workers,
        codec=codec,
    )
    sim = WBCSimulation(apf, config)
    try:
        outcome = sim.run()
    finally:
        sim.close()
    rows = [
        ("tasks completed", outcome.tasks_completed),
        ("bad results returned", outcome.bad_results_returned),
        ("bad results caught", outcome.bad_results_caught),
        ("faulty volunteers banned", outcome.faulty_banned),
        ("honest volunteers banned", outcome.honest_banned),
        ("departures", outcome.departures),
        ("max task index", outcome.max_task_index),
        ("task-space density", f"{outcome.density:.3e}"),
        ("attribution failures", outcome.attribution_failures),
    ]
    if outcome.shards > 1:
        rows.insert(0, ("engine shards", outcome.shards))
    if codec is not None:
        rows.insert(0, ("index codec", codec))
    if workers is not None:
        rows.insert(1, ("worker processes", workers))
    if lease_ticks is not None:
        rows.append(("tasks reissued", outcome.tasks_reissued))
        rows.append(("late returns", outcome.late_returns))
    if faults or checkpoint_every is not None:
        rows.append(("shard crashes", outcome.shard_crashes))
        rows.append(("shard restores", outcome.shard_restores))
        rows.append(("checkpoints taken", outcome.checkpoints_taken))
        rows.append(("returns dropped", outcome.returns_dropped))
        rows.append(("returns delayed", outcome.returns_delayed))
        rows.append(("returns retried", outcome.returns_retried))
        rows.append(("returns abandoned", outcome.returns_abandoned))
    return render_rows_table(
        ["metric", "value"], rows, title=f"WBC simulation over {apf_name} ({ticks} ticks)"
    )


def _cmd_locality(name: str, window: int) -> str:
    from repro.core.locality import block_span, col_jump_profile, row_jump_profile

    mapping = get_pairing(name)
    rows = []
    for r in (1, 2, window // 2):
        p = row_jump_profile(mapping, r, window)
        rows.append(("row", r, f"{p.mean:.1f}", p.maximum, p.constant))
    for c in (1, 2, window // 2):
        p = col_jump_profile(mapping, c, window)
        rows.append(("col", c, f"{p.mean:.1f}", p.maximum, p.constant))
    low, high, density = block_span(mapping, 1, 1, max(2, window // 4))
    table = render_rows_table(
        ["walk", "index", "mean |jump|", "max", "constant"],
        rows,
        title=f"locality of {name} (window {window})",
    )
    return table + f"\ncorner block: addresses {low}..{high}, density {density:.3f}"


def _cmd_report() -> str:
    """The one-command reproduction summary (the EXPERIMENTS.md core)."""
    from repro.apf.analysis import dominance_crossover
    from repro.apf.families import TBracket, TSharp, TStar
    from repro.core.diagonal import DiagonalPairing
    from repro.core.hyperbolic import HyperbolicPairing
    from repro.core.squareshell import SquareShellPairing
    from repro.numbertheory.lattice import spread_lower_bound
    from repro.render.figures import (
        figure2_data,
        figure3_data,
        figure4_data,
        figure5_data,
        figure6_data,
    )

    sections: list[str] = []

    # Figures: regenerate and self-check sizes.
    checks = [
        ("Figure 2 (diagonal 8x8)", figure2_data(), 8 * 8),
        ("Figure 3 (square-shell 8x8)", figure3_data(), 8 * 8),
        ("Figure 4 (hyperbolic 8x7)", figure4_data(), 8 * 7),
    ]
    fig_rows = []
    for label, data, cells in checks:
        flat = [v for row in data for v in row]
        fig_rows.append((label, f"{len(flat)}/{cells} values", "regenerated"))
    fig_rows.append(
        ("Figure 5 (lattice xy<=16)", f"{sum(figure5_data())} points", "regenerated")
    )
    fig6 = figure6_data()
    count6 = sum(len(values) for rows in fig6.values() for _x, _g, values in rows)
    fig_rows.append(("Figure 6 (APF samples)", f"{count6} values", "regenerated"))
    sections.append(
        render_rows_table(["figure", "content", "status"], fig_rows, title="Figures")
    )

    # Spread table.
    mappings = [DiagonalPairing(), SquareShellPairing(), HyperbolicPairing()]
    ns = [16, 64, 256, 1024]
    spread_rows = []
    for n in ns:
        row = [n] + [m.spread(n) for m in mappings] + [spread_lower_bound(n)]
        spread_rows.append(row)
    sections.append(
        render_rows_table(
            ["n", "D", "A_1,1", "H", "bound D(n)"],
            spread_rows,
            title="Spread S(n) vs the Theta(n log n) lower bound (H meets it exactly)",
        )
    )

    # Crossovers.
    sharp = TSharp()
    cross_rows = []
    for c, paper in ((1, 5), (2, 11), (3, 25)):
        measured = dominance_crossover(TBracket(c), sharp, 500)
        cross_rows.append((f"T^<{c}> vs T#", paper, measured))
    sections.append(
        render_rows_table(
            ["comparison", "paper x0", "measured x0"],
            cross_rows,
            title="Stride-dominance crossovers (T^<3>: single violation at x=32)",
        )
    )

    # WBC footprint.
    from repro.webcompute.simulation import SimulationConfig, run_family_comparison

    config = SimulationConfig(ticks=150, initial_volunteers=20, seed=2002)
    outcomes = run_family_comparison([TBracket(1), TBracket(3), sharp, TStar()], config)
    wbc_rows = [
        (o.apf_name, o.tasks_completed, o.max_task_index, f"{o.density:.2e}")
        for o in outcomes
    ]
    sections.append(
        render_rows_table(
            ["APF", "tasks", "max task index", "density"],
            wbc_rows,
            title="WBC footprint (same seeded workload)",
        )
    )
    return "\n\n".join(sections)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "figure":
        print(_cmd_figure(args.number))
    elif args.command == "table":
        print(render_pf_table(get_pairing(args.name), args.rows, args.cols))
    elif args.command == "pair":
        print(get_pairing(args.name).pair(args.x, args.y))
    elif args.command == "unpair":
        x, y = get_pairing(args.name).unpair(args.z)
        print(f"{x} {y}")
    elif args.command == "spread":
        print(_cmd_spread(args.name, args.ns))
    elif args.command == "strides":
        print(_cmd_strides(args.name, args.x_max))
    elif args.command == "crossover":
        print(_cmd_crossover(args.big, args.small, args.limit))
    elif args.command == "wbc":
        print(
            _cmd_wbc(
                args.apf,
                args.ticks,
                args.volunteers,
                args.seed,
                args.shards,
                args.faults,
                args.lease_ticks,
                args.checkpoint_every,
                args.workers,
                args.compact_every if args.compact_every != 0 else None,
                args.codec,
            )
        )
    elif args.command == "encode":
        from repro.encoding import TupleCodec

        print(TupleCodec().encode(args.values))
    elif args.command == "decode":
        from repro.encoding import TupleCodec

        values = TupleCodec().decode(args.z)
        print(" ".join(map(str, values)) if values else "()")
    elif args.command == "locality":
        print(_cmd_locality(args.name, args.window))
    elif args.command == "report":
        print(_cmd_report())
    elif args.command == "list":
        for name in available_names():
            print(name)
        print("(plus parameterized: aspect-AxB, binprop-B, apf-bracket-C, apf-power-K)")
    elif args.command == "lint":
        from repro.staticcheck.runner import run_cli as lint_cli

        lint_argv = list(args.paths)
        if args.json:
            lint_argv.append("--json")
        if args.rules:
            lint_argv.extend(["--rules", args.rules])
        if args.list_rules:
            lint_argv.append("--list-rules")
        if not args.cache:
            lint_argv.append("--no-cache")
        if args.jobs:
            lint_argv.extend(["--jobs", str(args.jobs)])
        if args.changed:
            lint_argv.append("--changed")
        return lint_cli(lint_argv)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
