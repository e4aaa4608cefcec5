"""Serving-scenario exploration: the paper's loop applied to LLM inference.

One emulated serving episode — a prefill over the prompt batch plus
autoregressive decode steps under tensor parallelism — is profiled,
replayed and calibrated once, and then the deployment space is explored
without running anything: a larger fixed batch (``batch=``),
longer prompts (``prompt=``), TP resharding (``tp=``), and decode-kernel
what-ifs.

Run with ``python examples/serving_exploration.py``.
"""

from repro import InferenceConfig, PredictError, Study


def main() -> None:
    # 1. Profile: emulate one serving episode (8 concurrent requests,
    #    512-token prompts, 64 generated tokens each) on a TP=4 deployment.
    inference = InferenceConfig(batch_size=8, prompt_length=512,
                                decode_length=64)
    study = Study.from_emulation("gpt3-15b", "4x1x1", inference=inference,
                                 iterations=2, seed=3)
    print(f"opened {study} over a {study.workload} episode")

    # 2. Replay + accounting: episode latency and the KV-cache footprint
    #    the deployment must hold in HBM.
    per_token_ms = study.base_time_ms / inference.decode_length
    print(f"\nepisode: {study.base_time_ms:.1f} ms "
          f"(~{per_token_ms:.2f} ms/token once prefill is amortised)")
    print(f"KV cache at full context: "
          f"{inference.kv_cache_gb(study.base_model, study.base_parallel):.2f} GiB "
          f"per GPU (bf16)")
    quantised = InferenceConfig(**{**inference.to_json(), "kv_dtype": "fp8"})
    print(f"  ... with an fp8 cache: "
          f"{quantised.kv_cache_gb(study.base_model, study.base_parallel):.2f} GiB")
    for key, value in study.breakdown().as_milliseconds().items():
        print(f"  {key:22s} {value:8.1f} ms")

    # 3. Predict serving targets: the graph is topology-invariant under
    #    batch/prompt/TP changes, so each target is a calibrated re-timing
    #    of the observed kernels — including TP resharding, which training
    #    manipulation cannot do.
    print("\npredictions from the one profiled episode:")
    for target in ("batch=16", "batch=32", "prompt=1024", "tp=2", "tp=8"):
        prediction = study.predict(target)
        print(f"  {prediction.label:12s} ({prediction.world_size:2d} GPUs) "
              f"{prediction.iteration_time_ms:8.1f} ms "
              f"({prediction.speedup_vs_base:.2f}x vs base)")

    # Changing the decode length changes the task-graph topology; that is
    # a typed refusal, not a wrong answer.
    try:
        study.predict("decode=128")
    except PredictError as error:
        print(f"  rejected decode=128: {error}")

    # 4. What-if: which kernel actually bounds decode?  The scenarios
    #    share one compiled session and one batched simulation.
    print("\nwhat-if scenarios against the base episode:")
    results = (study.whatif()
               .kernel_class("decode_attention", 2.0)
               .kernel_class("gemm", 2.0)
               .communication(2.0, group="tp")
               .launch_overhead()
               .run())
    for result in results:
        print(f"  {result.name:26s} {result.scenario_time_us / 1000:8.1f} ms "
              f"(saves {result.improvement_percent:4.1f}%)")

    # 5. Sweep: the full grid — serving targets x what-ifs — reusing the
    #    study's calibrated state; groups evaluate on the batched fast path.
    print("\nsweeping the deployment grid:")
    result = study.sweep(serving=["batch=16", "batch=32", "tp=2,batch=16"],
                         whatif=["decode_attention:2", "launch"])
    for row in result.ranked():
        print(f"  {row.label:36s} {row.iteration_time_ms:8.1f} ms "
              f"on {row.world_size} GPUs")


if __name__ == "__main__":
    main()
