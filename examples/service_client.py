"""Sweep-as-a-service walk-through: submit jobs over HTTP, share the cache.

Everything runs in this one process — a real stdlib HTTP server
(:class:`~repro.service.ServiceApp`) with worker threads serves a canned
emulated serving trace, and :class:`~repro.service.ServiceClient` talks
to it over the loopback exactly as a remote client would.  The walk
shows the three properties the service layer adds on top of the sweep
engine:

1. jobs are content-addressed, so identical concurrent submissions
   dedupe to a single evaluation;
2. completion is event-driven — ``GET /v1/jobs/{id}?wait=`` parks one
   request on the server until the job reaches a terminal state, so no
   client-side polling loop is needed;
3. a resubmission after completion is answered entirely from the shared
   on-disk sweep cache (``cache_hit_rate == 1.0``); and
4. refusals are typed — a bad spec or target is rejected at admission
   with a stable machine-readable code, not minutes later in a worker.

Run with ``python examples/service_client.py``.
"""

import tempfile
import threading
from pathlib import Path

from repro import InferenceConfig
from repro.emulator.api import emulate
from repro.service import ServiceApp, ServiceClient, ServiceError
from repro.workload.model_config import gpt3_model
from repro.workload.parallelism import ParallelismConfig


def main() -> None:
    workdir = Path(tempfile.mkdtemp(prefix="repro-service-"))

    # 0. Profile once: a small emulated serving episode is the trace
    #    bundle the server will register under the name "canned".
    inference = InferenceConfig(batch_size=2, prompt_length=128,
                                decode_length=4)
    bundle = emulate(gpt3_model("gpt3-15b"), ParallelismConfig.parse("2x1x1"),
                     inference=inference, iterations=1, seed=11).profiled
    trace_dir = workdir / "serving-trace"
    bundle.save(trace_dir)

    with ServiceApp(workdir / "service", workers=2,
                    traces={"canned": trace_dir}) as app:
        client = ServiceClient(app.url)
        print(f"service up at {app.url} "
              f"(traces: {', '.join(client.health()['traces'])})")

        # 1. Two clients race to submit the *same* sweep.  The job id
        #    hashes the bundle content plus the canonical payload, so the
        #    second submission attaches to the first job instead of
        #    evaluating anything twice.
        body = {"kind": "sweep", "trace": "canned",
                "targets": ["batch=4", "batch=8"], "whatif": ["gemm:2"]}
        submissions: list[dict] = []
        lock = threading.Lock()

        def submit() -> None:
            response = client.submit(body)
            with lock:
                submissions.append(response)

        threads = [threading.Thread(target=submit) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        job_ids = {response["job"]["job_id"] for response in submissions}
        assert len(job_ids) == 1, job_ids
        job_id = job_ids.pop()
        deduped = sorted(response["deduped"] for response in submissions)
        print(f"\ntwo concurrent submissions -> one job {job_id[:12]}... "
              f"(deduped flags: {deduped})")

        # 2. Long-poll to completion and fetch the ranked result.  One
        #    request parks server-side on the job's condition variable
        #    and returns the moment the worker finishes — no polling
        #    loop, no fixed sleep interval.  (client.wait() chains these
        #    long-poll legs for arbitrarily long timeouts.)
        done = client.job(job_id, wait=60.0)
        assert done["state"] == "done", done.get("error")
        cold = client.result(job_id)["result"]
        print(f"cold run: {len(cold['scenarios'])} scenarios, "
              f"cache hit rate {cold['cache']['hit_rate']:.0%}")
        for row in cold["ranked"][:3]:
            print(f"  {row['label']:28s} "
                  f"{row['iteration_time_us'] / 1000:8.1f} ms")

        # 3. Resubmit the identical body.  The rerun re-enqueues (fresh
        #    job id semantics are content-addressed, so it is the same
        #    id) and every scenario comes back from the shared cache.
        rerun = client.submit(body)["job"]
        assert client.wait(rerun["job_id"], timeout=300.0)["state"] == "done"
        warm = client.result(rerun["job_id"])["result"]
        assert warm["cache"]["hit_rate"] == 1.0
        assert all(row["from_cache"] for row in warm["scenarios"])
        print(f"warm resubmission: cache hit rate "
              f"{warm['cache']['hit_rate']:.0%}, ranking unchanged: "
              f"{[r['label'] for r in warm['ranked']] == [r['label'] for r in cold['ranked']]}")

        # 4. Refusals are typed and happen at admission, by the rules a
        #    study applies: a training-parallelism target on this serving
        #    trace, or a TP degree that does not divide the model's heads,
        #    never reaches a worker.
        for refused in ({"kind": "sweep", "trace": "canned", "targets": ["4x1x1"]},
                        {"kind": "predict", "trace": "canned", "target": "tp=5"}):
            try:
                client.submit(refused)
            except ServiceError as error:
                print(f"refused as expected [{error.code}]: {error}")
            else:
                raise SystemExit(f"expected a refusal at admission: {refused}")

        counters = client.metrics()["counters"]
        print(f"\nserver counters: "
              f"{counters.get('service.jobs.submitted', 0)} submitted, "
              f"{counters.get('service.jobs.deduped', 0)} deduped, "
              f"{counters.get('service.jobs.completed', 0)} completed")


if __name__ == "__main__":
    main()
