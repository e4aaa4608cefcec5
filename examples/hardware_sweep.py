"""Hardware what-ifs: shop for a GPU without renting a single one.

One emulated serving episode is profiled on H100s, replayed and
calibrated once, and then a **hardware x TP grid** is swept: every
tensor-parallel resharding of the deployment crossed with every
candidate part (H200, B200, and the A100 the cluster is migrating off).
Each hardware scenario is the paper's ratio trick pointed at a
different ``GPUSpec`` — observed duration x analytical(new part) /
analytical(old part), per kernel class — so calibration error cancels
and no candidate hardware is ever touched.

The grid is then folded into a Pareto frontier over a *cost proxy*
(GPU count x per-part price weight): the deployments worth considering
are exactly the ones no other deployment beats on both cost and
latency.

Run with ``python examples/hardware_sweep.py``.
"""

from repro import InferenceConfig, Study, Target

#: Relative per-part cost weights (H100 = 1.0) — a stand-in for cloud
#: $/hr or procurement price; swap in real numbers to make the frontier
#: actionable.
COST_WEIGHT = {"H100-SXM": 1.0, "A100-SXM": 0.45, "H200-SXM": 1.25,
               "B200": 2.1}


def cost_proxy(world_size: int, gpu: str) -> float:
    return world_size * COST_WEIGHT[gpu]


def scenario_gpu(row) -> str:
    """The part a sweep row ran on: its ``gpu=<name>`` step or the profiled part."""
    for kind, label in Target(row.kind, row.target).manipulations:
        if kind == "hardware":
            return label.removeprefix("gpu=")
    return "H100-SXM"


def pareto(rows: list[tuple[str, float, float]]) -> list[tuple[str, float, float]]:
    """The (label, cost, ms) rows not dominated on both axes."""
    frontier = []
    for row in sorted(rows, key=lambda r: (r[1], r[2])):
        if not frontier or row[2] < frontier[-1][2]:
            frontier.append(row)
    return frontier


def main() -> None:
    # 1. Profile once, on the hardware we actually have.
    inference = InferenceConfig(batch_size=8, prompt_length=512,
                                decode_length=32)
    study = Study.from_emulation("gpt3-15b", "4x1x1", inference=inference,
                                 iterations=1, seed=3)
    print(f"opened {study} (profiled on H100-SXM)")
    print(f"base episode: {study.base_time_ms:.1f} ms on "
          f"{study.base_parallel.world_size} GPUs")

    # 2. Sweep the hardware x TP grid.  The hardware axis crosses the
    #    configurations: every TP target is evaluated on the profiled
    #    part *and* retargeted to each candidate, and each retarget rides
    #    its sibling's cached derivation (a cheap roofline rescale).
    result = study.sweep(serving=["tp=2", "tp=8"],
                         hardware=["A100-SXM", "H200-SXM", "B200"])
    print(f"\nswept {len(result)} scenarios "
          f"(3 TP degrees x 4 parts, one profiled episode):")
    rows = []
    for row in result.ranked():
        gpu = scenario_gpu(row)
        cost = cost_proxy(row.world_size, gpu)
        rows.append((row.label, cost, row.iteration_time_ms))
        print(f"  {row.label:24s} {row.iteration_time_ms:8.1f} ms "
              f"on {row.world_size} x {gpu:8s} (cost proxy {cost:5.1f})")

    # 3. Pareto frontier over (cost proxy, latency): the short list to
    #    price out for real.
    print("\npareto frontier (no cheaper-and-faster alternative exists):")
    for label, cost, ms in pareto(rows):
        print(f"  {label:24s} {ms:8.1f} ms at cost {cost:5.1f}")


if __name__ == "__main__":
    main()
