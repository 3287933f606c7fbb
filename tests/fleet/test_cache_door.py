"""All-hit requests are answered at the gateway's door from the seat's cache.

The gateway reads its seat's answer ``cache`` (the fleet router's shared
results cache, or a single service's own) on its event loop and answers a
request there when every table is stored.  Those answers must match the
in-process service bitwise, leave the seat's request counters alone, and
keep coming while every replica is down; anything not cached still needs
the seat.
"""

from __future__ import annotations

import asyncio

from repro.serve import AnnotationService

from tests.fleet.util import make_tables, start_fleet
from tests.gateway.util import post_annotate, running_gateway, table_payload


def test_door_answers_match_the_in_process_service(fleet_bundle, serve_tables,
                                                   expected):
    _, _, router = start_fleet(
        2, service_factory=lambda name: AnnotationService.load(fleet_bundle))
    try:
        async def main():
            async with running_gateway(router) as gateway:
                laps = []
                for _ in range(2):  # the second lap is all hits
                    answers = []
                    for table in serve_tables:
                        response = await post_annotate(gateway, table_payload(table))
                        assert response.status == 200
                        answers.append(response.json()["predictions"])
                    laps.append(answers)
                listed = await post_annotate(
                    gateway, [table_payload(table) for table in serve_tables])
                return laps, listed.json()["results"], gateway.stats()

        (first, second), listed, stats = asyncio.run(main())
        assert first == second == expected
        assert [entry["predictions"] for entry in listed] == expected
        assert stats["answered_from_cache"] == len(serve_tables) + 1
        assert stats["completed"] == 2 * len(serve_tables) + 1
        assert stats["batches"] == len(serve_tables)
        fleet = router.stats()
        # Door answers never reach the router: it counts the first lap only,
        # and the cache counts the second lap and the listed request as hits.
        assert fleet.requests == fleet.tables == len(serve_tables)
        assert fleet.results_cache["misses"] == len(serve_tables)
        assert fleet.results_cache["hits"] == 2 * len(serve_tables)
        assert stats["completed"] == fleet.requests + stats["answered_from_cache"]
    finally:
        router.close()


def test_cached_tables_are_answered_with_every_replica_down():
    launcher, _supervisor, router = start_fleet(2)
    warm, cold = make_tables(2, prefix="warm-"), make_tables(1, prefix="cold-")
    try:
        async def main():
            async with running_gateway(router) as gateway:
                warm_json = [table_payload(table) for table in warm]
                cold_json = table_payload(cold[0])
                assert (await post_annotate(gateway, warm_json)).status == 200
                for handle in launcher.launched:
                    handle.crash()
                cached = await post_annotate(gateway, warm_json)
                single = await post_annotate(gateway, warm_json[1])
                uncached = await post_annotate(gateway, cold_json)
                partial = await post_annotate(gateway, [warm_json[0], cold_json])
                return cached, single, uncached, partial, gateway.stats()

        cached, single, uncached, partial, stats = asyncio.run(main())
        assert cached.status == single.status == 200
        assert [entry["predictions"] for entry in cached.json()["results"]] \
            == [["label:warm-0"], ["label:warm-1"]]
        assert single.json()["predictions"] == ["label:warm-1"]
        for response in (uncached, partial):
            assert response.status == 503
            assert response.json()["error"] == "ReplicaUnavailable"
            assert "retry-after" in response.headers
        assert stats["answered_from_cache"] == 2
        assert stats["errors"] == 2
        assert router.stats().rejected == 2
    finally:
        router.close()


def test_service_seat_answers_a_repeat_at_the_door(fleet_bundle, serve_tables):
    with AnnotationService.load(fleet_bundle, cache_size=0) as uncached:
        want = uncached.annotate_batch(serve_tables)
    payload = [table_payload(table) for table in serve_tables]
    with AnnotationService.load(fleet_bundle) as service:
        async def main():
            async with running_gateway(service) as gateway:
                first = await post_annotate(gateway, payload)
                before = (gateway.stats()["answered_from_cache"], service.stats())
                repeat = await post_annotate(gateway, payload)
                return first, repeat, before, gateway.stats()["answered_from_cache"]

        first, repeat, (door_before, served_before), door_after = asyncio.run(main())
        served_after = service.stats()
    assert first.status == repeat.status == 200
    assert [entry["predictions"] for entry in first.json()["results"]] == want
    assert repeat.json() == first.json()
    assert door_after == door_before + 1
    assert served_after.requests == served_before.requests == 1
    assert served_after.encode_seconds == served_before.encode_seconds
    assert served_after.cache_hits == served_before.cache_hits + len(serve_tables)
