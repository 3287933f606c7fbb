"""Table IV — accuracy on test columns with no extracted KG information.

The paper selects, from the VizNet test set, the tables none of whose columns
link to the KG and reports numeric and non-numeric accuracy separately for
each method.  The scaled-down synthetic corpus has much better KG coverage
than the real VizNet crawl, so whole tables with zero linkage are rare; the
selection is therefore done at column granularity with the same intent:

* **numeric columns** — never linked to the KG (the paper's definition);
* **non-numeric columns without KG information** — columns for which Part 1
  produced neither candidate types nor a feature sequence.

Each fitted model predicts the full test corpus once and the metrics are
computed on the selected columns only.
"""

from __future__ import annotations

from repro.core.pipeline import KGCandidateExtractor
from repro.data.metrics import accuracy_score
from repro.experiments.config import ExperimentProfile, SharedResources, load_resources
from repro.experiments.references import TABLE4_REFERENCE
from repro.experiments.reporting import ExperimentResult
from repro.experiments.runners import get_fitted_annotator

__all__ = ["run", "column_kinds"]

MODELS = ("KGLink", "HNN", "TaBERT", "Doduo", "RECA", "Sudowoodo")


def column_kinds(resources: SharedResources, dataset: str = "viznet") -> list[str]:
    """Classify every labelled test column of ``dataset``.

    Returns one entry per labelled column, in the order ``predict_corpus``
    visits them: ``"numeric"``, ``"no_kg_non_numeric"`` (no candidate types and
    no feature sequence) or ``"has_kg"``.
    """
    key = ("table4_kinds", dataset)
    if key in resources.cache:
        return resources.cache[key]
    profile = resources.profile
    extractor = KGCandidateExtractor(
        resources.world.graph, profile.part1_config(), linker=resources.linker
    )
    kinds: list[str] = []
    for table in resources.splits(dataset).test.tables:
        processed = extractor.process_table(table)
        for column, info in zip(table.columns, processed.columns, strict=True):
            if column.label is None:
                continue
            if info.is_numeric:
                kinds.append("numeric")
            elif not info.has_candidate_types and not info.has_feature_sequence:
                kinds.append("no_kg_non_numeric")
            else:
                kinds.append("has_kg")
    resources.cache[key] = kinds
    return kinds


def run(resources: SharedResources | None = None,
        profile: ExperimentProfile | str = "default",
        dataset: str = "viznet",
        models: tuple[str, ...] = MODELS) -> ExperimentResult:
    """Evaluate every model on the columns with no extracted KG information."""
    if resources is None:
        resources = load_resources(profile)
    profile = resources.profile
    kinds = column_kinds(resources, dataset)
    test = resources.splits(dataset).test

    rows = []
    for model in models:
        annotator, _ = get_fitted_annotator(resources, profile, model, dataset)
        y_true, y_pred = annotator.predict_corpus(test)
        if len(y_true) != len(kinds):
            raise RuntimeError(
                f"prediction/column-kind misalignment for {model}: "
                f"{len(y_true)} predictions vs {len(kinds)} columns"
            )
        numeric = [(t, p) for kind, t, p in zip(kinds, y_true, y_pred, strict=True) if kind == "numeric"]
        no_kg = [(t, p) for kind, t, p in zip(kinds, y_true, y_pred, strict=True)
                 if kind == "no_kg_non_numeric"]
        rows.append({
            "model": model,
            "numeric_accuracy": (
                100.0 * accuracy_score([t for t, _ in numeric], [p for _, p in numeric])
                if numeric else float("nan")
            ),
            "non_numeric_accuracy": (
                100.0 * accuracy_score([t for t, _ in no_kg], [p for _, p in no_kg])
                if no_kg else float("nan")
            ),
            "numeric_columns": len(numeric),
            "non_numeric_columns": len(no_kg),
        })

    return ExperimentResult(
        name="table4_no_kg_information",
        description="Accuracy on test columns with no extracted KG information (paper Table IV)",
        rows=rows,
        paper_reference=TABLE4_REFERENCE,
        notes=(
            "Shape to preserve: the PLM-based methods stay strong on numeric columns even "
            "without KG signal (prior knowledge of the encoder), HNN collapses, and the "
            "intra-table models (KGLink, Doduo, TaBERT) hold up better than the "
            "single-column models (RECA, Sudowoodo) on the non-numeric columns.  Column "
            "granularity is used instead of whole-table granularity because the synthetic "
            "corpus has denser KG coverage than the real VizNet crawl."
        ),
    )
