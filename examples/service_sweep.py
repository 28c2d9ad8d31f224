#!/usr/bin/env python
"""The multi-job engine end-to-end: sweep, stream, cancel, preempt.

Submits a small Landau + two-stream + E×B-drift sweep to a two-worker
:class:`~repro.service.JobEngine` (``submit`` returns a job id; every
other call takes one), then demonstrates the operator surface
documented in docs/service.md:

* per-step diagnostics streamed off a running job,
* cancelling a queued job (it never runs) and two running ones (they
  stop at a step boundary; partial history is retained),
* preempting a running job and letting the scheduler resume it from
  its parked checkpoint — and checking the resumed history is
  *bitwise identical* to an uninterrupted reference run.

Run:  python examples/service_sweep.py
"""

import numpy as np

from repro.service import JobEngine, JobState, PICJob


def base_job(**overrides):
    kw = dict(grid=(16, 16), n_particles=2_000, steps=40, dt=0.05,
              checkpoint_every=10)
    kw.update(overrides)
    return PICJob(**kw)


def main():
    print("--- sweep: Landau + two-stream + ExB drift on a 2-worker engine ---")
    sweep = [base_job(case="landau", alpha=a) for a in (0.01, 0.05)]
    sweep += [base_job(case="two-stream", n_particles=4_000),
              base_job(case="exb-drift")]

    with JobEngine(max_workers=2) as engine:
        ids = [engine.submit(job) for job in sweep]

        # stream the first job's diagnostics while the pool works
        print("streaming", ids[0], f"({sweep[0].describe()})")
        for event in engine.stream(ids[0]):
            if event["step"] % 10 == 0:
                print(f"  step {event['step']:3d}  t={event['t']:5.2f}  "
                      f"FE={event['field_energy']:.4e}")

        for job_id, job in zip(ids, sweep):
            r = engine.result(job_id)
            print(f"{job_id}: {r.state.value}  {r.steps_done}/"
                  f"{r.steps_total} steps  drift={r.energy_drift():.2e}  "
                  f"({job.case})")

        print("\n--- cancel: a queued job never reaches the pool, "
              "a running one stops mid-flight ---")
        # occupy both workers first, so the victim really waits in the
        # queue (a job's first event means a worker is running it)
        busy = [engine.submit(base_job(steps=4_000)) for _ in range(2)]
        for job_id in busy:
            next(engine.stream(job_id))
        victim = engine.submit(base_job(steps=4_000, priority=-1))
        engine.cancel(victim)
        info = engine.status(victim)
        print(f"{victim}: {info.state.value} after "
              f"{info.steps_done} steps, {info.segments} segment(s)")
        assert info.state is JobState.CANCELLED and info.steps_done == 0
        for job_id in busy:  # cooperative: settles at a step boundary
            engine.cancel(job_id)
        for job_id in busy:
            r = engine.result(job_id)
            print(f"{job_id}: {r.state.value} after {r.steps_done}/"
                  f"{r.steps_total} steps (history kept: "
                  f"{len(r.history.field_energy)} samples)")
            assert r.state is JobState.CANCELLED and r.steps_done < r.steps_total

        print("\n--- preempt + resume: bitwise vs uninterrupted ---")
        # a walled plasma: the boundary rides the parked checkpoint
        runner = engine.submit(base_job(case="bounded-wall"))
        # wait until it is demonstrably running, then park it
        for event in engine.stream(runner):
            if event["step"] >= 8:
                break
        preempted = engine.preempt(runner)
        r = engine.result(runner)    # scheduler resumes it automatically
        ref = engine.result(engine.submit(base_job(case="bounded-wall")))
        fe = np.asarray(r.history.field_energy)
        fe_ref = np.asarray(ref.history.field_energy)
        match = fe.shape == fe_ref.shape and bool(np.all(fe == fe_ref))
        print(f"{runner}: {r.state.value} in {r.segments} segment(s), "
              f"{r.preemptions} preemption(s) (requested={preempted})")
        print(f"field-energy history bitwise equal to uninterrupted run: "
              f"{match}")
        assert r.state is JobState.SUCCEEDED and match

        stats = engine.stats
        print(f"\nengine totals: {stats.submitted} submitted, "
              f"{stats.succeeded} succeeded, {stats.cancelled} cancelled, "
              f"{stats.preemptions} preemption(s), {stats.resumes} resume(s)")


if __name__ == "__main__":
    main()
