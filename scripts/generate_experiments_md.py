#!/usr/bin/env python3
"""Generate EXPERIMENTS.md from the JSON reports in ``results/``.

Usage::

    python scripts/generate_experiments_md.py [--results-dir results] [--output EXPERIMENTS.md]

The script combines, for every experiment, the measured rows (produced by
``python -m repro.experiments all --profile default --output-dir results``),
the paper-reported reference values embedded in each report, and a short
hand-written commentary on whether the paper's qualitative shape is preserved.
Experiments whose JSON report is missing are listed as "not yet run".
The generated file is not committed.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

from repro.experiments.reporting import format_table
from repro.experiments.shape import ordering_report

HEADER = """\
# EXPERIMENTS — paper vs. measured

Every table and figure of the paper's evaluation section is regenerated by a
runner in `repro.experiments` (`python -m repro.experiments --help` lists them).
The numbers below were produced with the **default** profile
(`python -m repro.experiments all --profile default --output-dir results`):
a synthetic knowledge graph (~2.5k entities), a 200-table SemTab-style corpus,
a 400-table VizNet-style corpus, and a 2-layer / 64-dim MiniBERT encoder
trained for 12 epochs (24 for the multi-column methods, which take one
optimisation step per table instead of one per column).  The paper's own
setting — BERT-base on a V100, the real SemTab-2019 and VizNet corpora — is
documented as the `paper` profile in `repro.experiments.config` and is not
runnable offline.

**How to read the numbers.**  Absolute values are not comparable to the paper
(different corpora, different encoder capacity, ~100x less data); what the
reproduction aims to preserve is the *shape* of each result: which method wins
on which corpus, the sign of each ablation delta, where curves peak.  Each
section below states explicitly which parts of the shape are preserved and
which are not.
"""

# Commentary per experiment name (hand-written, updated after inspecting runs).
COMMENTARY: dict[str, str] = {
    "table1_main_results": """\
**Shape preserved:** MTab is strong on the KG-derived SemTab-style corpus but is
the weakest learned-or-not method on the noisy VizNet-style corpus (the paper's
central observation about purely KG-based methods); HNN is far behind every
PLM-based method on both corpora; KGLink is near the top on the SemTab-style
corpus and beats Doduo — its direct comparator, which uses the same
serialisation without KG information — by a wide margin on both corpora, which
is the paper's headline comparison.
**Shape not fully preserved:** the tiny from-scratch encoder struggles to
localise columns inside a multi-column sequence, so the single-column baselines
(Sudowoodo, RECA) converge faster than in the paper and Sudowoodo lands above
KGLink; in the paper, where BERT-base provides strong pre-trained positional
attention, the multi-column methods dominate on VizNet.""",
    "table2_ablation": """\
**Shape preserved:** every ablation lands on the same side as in the paper —
the full model beats `w/o msk` on both corpora (the representation-generation
sub-task helps), removing all KG information (`w/o ct`) causes by far the
largest drop, removing only the feature vector (`w/o fv`) hurts less than
removing the candidate types (the paper's conclusion that "carefully selected
candidate types are more important than KG information in a feature vector"),
and the DeBERTa-style encoder is on par with or better than the BERT-style
one.  **Shape not fully preserved:** the magnitudes of the `w/o ct` / `w/o fv`
drops are much larger than the paper's ~1 point because the synthetic corpora
are far smaller — with little training data, the KG-provided candidate types
carry a larger share of the signal than they do on the full corpora.""",
    "table3_link_statistics": """\
**Shape preserved:** the SemTab-style corpus has no numeric columns and
near-total KG coverage, the VizNet-style corpus has a substantial numeric
fraction (~13-16% vs the paper's 12.8%) and a much larger share of columns
without candidate types, and the feature vector recovers KG signal for columns
the candidate-type filter leaves empty (without-fv share < without-ct share).
**Shape not fully preserved:** the magnitude of the VizNet coverage gap is much
smaller than the paper's 74.7% because the synthetic web tables draw their
cells from the same synthetic KG; the real VizNet crawl is far more
heterogeneous.""",
    "table4_no_kg_information": """\
**Shape preserved:** HNN collapses on the columns with no KG information (its
only real signal is the KG type attribute of the first cell), while every
PLM-based method keeps annotating them — prior knowledge from the encoder and
the surrounding context carry the prediction, which is the point the paper
makes with this table.  KGLink stays at the top of the non-numeric no-KG
columns, showing that losing the KG channel does not break it.
**Shape not fully preserved:** on *numeric* columns the single-column models
(Sudowoodo, RECA) are more accurate here than the multi-column models, the
opposite of the paper's Table IV — the tiny from-scratch encoder has trouble
attributing number tokens to the right column inside a long multi-column
sequence, a capacity effect rather than a property of the method.  The
selection is also done at column granularity because whole tables with zero KG
linkage are rare in the synthetic corpus (see the note inside the runner).""",
    "table5_row_filter": """\
**Shape not preserved at this scale:** the paper reports a ~1.2-point gain of
the linking-score row filter on SemTab and ~0.1 on VizNet.  In the synthetic
corpora rows are statistically homogeneous (every row is generated from the
same entity-sampling process), so ranking rows by linking quality removes
little noise and the two mechanisms land within noise of each other, with the
original-order filter sometimes slightly ahead.  The mechanism itself is
exercised and tested (`Part1Config.row_filter`), and the k-sweep of Figure 10
still shows that feeding *fewer, better* rows beats feeding everything.""",
    "figure7_runtime": """\
**Shape preserved:** the purely statistical MTab and the feature-based HNN are
orders of magnitude cheaper to "train" than the PLM-based methods, KGLink and
TaBERT are the most expensive learned methods (KGLink pays for the KG
processing and the second encoder pass of the multi-task objective), and
KGLink's inference is the slowest of the PLM group, as in the paper.
**Shape not fully preserved:** RECA is not the slowest method here — its
exhaustive related-column search is quadratic in the corpus size and the
synthetic corpus is ~100x smaller than VizNet, so the search cost that
dominates in the paper has not kicked in yet; HNN is also much cheaper than the
paper's HNN, which trains one classifier per candidate class.""",
    "figure8_sigma_analysis": """\
**Shape preserved:** accuracy varies within a band of a few points as the fixed
loss weights are swept (panel a), the model is more sensitive to the
representation-generation weight (sigma_0) than to the classification weight
(sigma_1), and during adaptive training both log sigma^2 values move away from
their initialisation, with the two corpora converging to different relative
weightings (panel b).""",
    "figure9_data_efficiency": """\
**Shape preserved:** both variants improve steeply as the training proportion p
grows, and KGLink with the representation-generation sub-task is at or above
the `w/o msk` variant at every p.  **Shape not fully preserved:** the paper
reports the gap *widening* as p grows (the multi-task head needs data), whereas
here the gap is largest at small p and closes near p=1 — on the scaled-down
corpus the full-data regime is still small enough that both variants converge
to the same plateau.""",
    "figure10_topk_rows": """\
**Shape preserved:** on the KG-rich SemTab-style corpus an intermediate k is
best and feeding *all* rows is clearly worse (extra rows add noise), and the
training-time cost grows with k, which is the trade-off the paper uses to pick
k=25.  **Shape not fully preserved:** on the VizNet-style corpus the best k is
the smallest one tested rather than an intermediate value — the synthetic web
tables are short, so the row filter saturates earlier than in the paper.""",
    "qualitative_per_class_gains": """\
**Shape preserved:** the classes that benefit most from the
representation-generation sub-task are athlete-like / artist-like classes
(which suffer from the type-granularity gap) and numeric classes, mirroring
the paper's Athlete / Protein / Film (SemTab) and Artist / Year / Rank
(VizNet) findings.""",
}

ORDER = [
    ("table1_main_results", "Table I — main results"),
    ("table2_ablation", "Table II — ablation study"),
    ("table3_link_statistics", "Table III — dataset / KG link statistics"),
    ("table4_no_kg_information", "Table IV — columns with no extracted KG information"),
    ("table5_row_filter", "Table V — row-filter mechanisms"),
    ("figure7_runtime", "Figure 7 — training / inference time"),
    ("figure8_sigma_analysis", "Figure 8 — loss-uncertainty analysis"),
    ("figure9_data_efficiency", "Figure 9 — data efficiency"),
    ("figure10_topk_rows", "Figure 10 — row-filter size k"),
    ("qualitative_per_class_gains", "Qualitative evaluation (Section V-D)"),
]


def render_experiment(name: str, title: str, results_dir: Path) -> str:
    path = results_dir / f"{name}.json"
    lines = [f"## {title}", ""]
    if not path.exists():
        lines.append("*Not yet run in this checkout.  Regenerate with* "
                     f"`python -m repro.experiments {name.split('_')[0]} --profile default "
                     "--output-dir results` *and re-run* "
                     "`python scripts/generate_experiments_md.py`.")
        lines.append("")
        return "\n".join(lines)
    payload = json.loads(path.read_text())
    lines.append("Measured (default profile):")
    lines.append("")
    lines.append("```")
    lines.append(format_table(payload["rows"]))
    lines.append("```")
    if payload.get("paper_reference"):
        lines.append("")
        lines.append("Paper-reported:")
        lines.append("")
        lines.append("```")
        lines.append(format_table(payload["paper_reference"]))
        lines.append("```")
        if name == "table1_main_results":
            report = ordering_report(payload["rows"], payload["paper_reference"])
            for group, agreement in report.items():
                disagreeing = ", ".join(f"{a} vs {b}" for a, b in agreement.disagreeing_pairs)
                lines.append("")
                lines.append(
                    f"*Pairwise method-ordering agreement with the paper on {group}:* "
                    f"{agreement.agreements}/{agreement.comparisons} pairs"
                    + (f" (disagreeing: {disagreeing})" if disagreeing else "")
                )
    if payload.get("notes"):
        lines.append("")
        lines.append(f"*Runner notes:* {payload['notes']}")
    commentary = COMMENTARY.get(name)
    if commentary:
        lines.append("")
        lines.append(commentary)
    lines.append("")
    return "\n".join(lines)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--results-dir", default="results")
    parser.add_argument("--output", default="EXPERIMENTS.md")
    args = parser.parse_args()

    results_dir = Path(args.results_dir)
    sections = [HEADER]
    for name, title in ORDER:
        sections.append(render_experiment(name, title, results_dir))
    Path(args.output).write_text("\n".join(sections))
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
