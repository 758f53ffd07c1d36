"""Textual reports: regenerate the paper's tables/figures as ASCII.

Every figure runner has a ``format_*`` companion that renders measured
values next to the paper's anchors, so `python -m repro figure2` output can
be pasted straight into EXPERIMENTS.md.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from .ablation import AblationPoint
from .figure2 import Figure2Result, paper_reference
from .figure3 import Figure3Result, paper_max_threads
from .figure4 import Figure4Result, paper_advantage
from .plot import cdf_staircase, grouped_bar_chart


def _table(headers: Sequence[str], rows: List[Sequence[str]]) -> str:
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    fmt = "  ".join(f"{{:<{w}}}" for w in widths)
    lines = [fmt.format(*headers), fmt.format(*["-" * w for w in widths])]
    lines.extend(fmt.format(*row) for row in rows)
    return "\n".join(lines)


def format_figure2(result: Figure2Result) -> str:
    rows: List[Sequence[str]] = []
    for model in result.models():
        for batch in result.batch_sizes():
            for setup in ("tf-baseline", "tf-optimized", "tf-prisma"):
                cell = result.cell(model, batch, setup)
                ref = paper_reference(model, batch, setup)
                red = (
                    f"{result.reduction(model, batch, setup):5.1f}%"
                    if setup != "tf-baseline"
                    else "  —"
                )
                rows.append(
                    (
                        model,
                        str(batch),
                        setup,
                        f"{cell.seconds:8.0f}",
                        f"{cell.stats.std:6.0f}",
                        f"{ref:.0f}" if ref is not None else "—",
                        red,
                    )
                )
    return "Figure 2 — TensorFlow training time (paper-equivalent seconds)\n" + _table(
        ("model", "batch", "setup", "measured", "std", "paper", "vs-baseline"),
        rows,
    )


def format_figure3(result: Figure3Result) -> str:
    rows: List[Sequence[str]] = []
    for curve in result.curves:
        points = "  ".join(f"{int(v)}:{c:.2f}" for v, c in curve.cdf.points())
        ref = (
            str(paper_max_threads(curve.model)) if curve.setup == "tf-prisma" else "30"
        )
        rows.append(
            (
                curve.model,
                curve.setup,
                str(curve.max_threads),
                ref,
                f"{curve.median_threads():.0f}",
                points[:72],
            )
        )
    ratio_rows = []
    for model in dict.fromkeys(c.model for c in result.curves):
        ratios = result.thread_ratio(model)
        ratio_rows.append(
            (model, "  ".join(f"p{int(q*100)}={r:.1f}x" for q, r in sorted(ratios.items())))
        )
    return (
        "Figure 3 — concurrent-reader-thread CDFs\n"
        + _table(
            ("model", "setup", "max", "paper-max", "median", "CDF value:cum"),
            rows,
        )
        + "\n\nTF-optimized : PRISMA thread ratio (paper: 2-7x)\n"
        + _table(("model", "ratio"), ratio_rows)
    )


def format_figure4(result: Figure4Result) -> str:
    rows: List[Sequence[str]] = []
    models = sorted({c.model for c in result.cells})
    for model in models:
        for workers in result.worker_counts():
            native = result.cell(model, "torch-native", workers)
            prisma = result.cell(model, "torch-prisma", workers)
            adv = result.advantage(model, workers)
            ref = paper_advantage(model, workers)
            rows.append(
                (
                    model,
                    str(workers),
                    f"{native.seconds:8.0f}",
                    f"{prisma.seconds:8.0f}",
                    f"{adv:+8.0f}",
                    f"{ref:+.0f}" if ref is not None else "—",
                )
            )
    spread_rows = [
        (m, f"{result.prisma_spread(m):.2f}x (paper: ~constant)") for m in models
    ]
    return (
        "Figure 4 — PyTorch workers vs PRISMA (paper-equivalent seconds)\n"
        + _table(
            ("model", "workers", "native", "prisma", "advantage", "paper-adv"),
            rows,
        )
        + "\n\nPRISMA time spread across worker counts\n"
        + _table(("model", "max/min"), spread_rows)
    )


def figure2_chart(result: Figure2Result, batch_size: int = 256) -> str:
    """Figure 2 as an ASCII bar chart (one cluster per model)."""
    groups = {}
    for model in result.models():
        groups[f"{model} (bs {batch_size})"] = {
            setup.replace("tf-", ""): result.cell(model, batch_size, setup).seconds
            for setup in ("tf-baseline", "tf-optimized", "tf-prisma")
        }
    return grouped_bar_chart("Training time (paper-equivalent seconds)", groups)


def figure3_chart(result: Figure3Result, model: str = "lenet") -> str:
    """Figure 3 as a character-grid CDF staircase."""
    curves = {
        "optimized(TF)": result.curve(model, "tf-optimized").cdf.points(),
        "prisma": result.curve(model, "tf-prisma").cdf.points(),
    }
    return cdf_staircase(
        f"Time fraction at <= N active reader threads ({model})", curves
    )


def figure4_chart(result: Figure4Result, model: str = "lenet") -> str:
    """Figure 4 as grouped bars per worker count."""
    groups = {}
    for workers in result.worker_counts():
        groups[f"{workers} workers"] = {
            "pytorch": result.cell(model, "torch-native", workers).seconds,
            "prisma": result.cell(model, "torch-prisma", workers).seconds,
        }
    return grouped_bar_chart(f"Training time — {model} (paper-equivalent seconds)", groups)


def format_ablation(title: str, points: List[AblationPoint], baseline: Optional[AblationPoint] = None) -> str:
    rows: List[Sequence[str]] = []
    for p in points:
        rel = ""
        if baseline is not None:
            rel = f"{p.paper_equivalent_seconds / baseline.paper_equivalent_seconds:6.2f}x"
        detail = ", ".join(f"{k}={v}" for k, v in p.detail.items())
        rows.append((p.label, f"{p.paper_equivalent_seconds:8.0f}", rel, detail))
    return f"{title}\n" + _table(("config", "seconds", "vs-ref", "detail"), rows)
