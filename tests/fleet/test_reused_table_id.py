"""A table id reused for different content never returns another table's answer.

Clients choose ``table_id`` freely, so every Part-1 cache is keyed by table
content.  Each entry point is primed with one table under the id ``"t1"``,
then asked about other tables under the same id: every answer must equal the
one a fresh service gives for that table's content.
"""

from __future__ import annotations

import asyncio
import dataclasses

import pytest

from repro.data.table import Table
from repro.serve import AnnotationService

from tests.fleet.util import start_fleet
from tests.gateway.util import post_annotate, running_gateway, table_payload

REUSED_ID = "t1"


def renamed(tables: list[Table]) -> list[Table]:
    return [Table(table_id=REUSED_ID, columns=table.columns, source=table.source)
            for table in tables]


@pytest.fixture(scope="module")
def reused(serve_tables, expected):
    # The check is only meaningful if the tables' answers differ.
    assert len({tuple(answer) for answer in expected}) > 1
    return renamed(serve_tables)


def test_annotator(fleet_annotator, reused, expected):
    assert [fleet_annotator.annotate(table) for table in reused] == expected


def test_annotator_key_covers_labels(fleet_annotator, serve_tables):
    table = renamed(serve_tables[:1])[0]
    relabelled = Table(table_id=REUSED_ID, source=table.source, columns=[
        dataclasses.replace(column, label=f"{column.label}-other") for column in table.columns
    ])
    # The annotator's inference service keys prepared examples by content.
    first, second = fleet_annotator._inference_service()._prepare([table, relabelled])
    width = fleet_annotator.config.max_columns
    assert first.true_labels == table.labels()[:width]
    assert second.true_labels == relabelled.labels()[:width]


def test_service(fleet_bundle, reused, expected):
    with AnnotationService.load(fleet_bundle) as service:
        assert [service.annotate(table) for table in reused] == expected
        # Within one request too: the same id is not deduplicated away.
        assert service.annotate_batch(reused) == expected


def test_gateway(fleet_bundle, reused, expected):
    async def main(service):
        async with running_gateway(service, max_wait_ms=1.0) as gateway:
            answers = []
            for table in reused:
                response = await post_annotate(gateway, table_payload(table))
                assert response.status == 200
                answers.append(response.json()["predictions"])
            return answers

    with AnnotationService.load(fleet_bundle) as service:
        assert asyncio.run(main(service)) == expected


def test_fleet(fleet_bundle, reused, expected):
    _, _, router = start_fleet(
        1, service_factory=lambda name: AnnotationService.load(fleet_bundle))
    try:
        async def main():
            async with running_gateway(router, max_wait_ms=1.0) as gateway:
                answers = []
                for table in reused:
                    response = await post_annotate(gateway, table_payload(table))
                    assert response.status == 200
                    answers.append(response.json()["predictions"])
                return answers

        assert asyncio.run(main()) == expected
    finally:
        router.close()
