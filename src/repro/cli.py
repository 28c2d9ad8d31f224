"""Command-line interface: ``python -m repro <command> ...``.

Commands:

* ``run`` — run a simulation case and print its diagnostics series;
* ``orderings`` — print an ordering's index map for a small grid;
* ``locality`` — compare unit-move locality of all orderings;
* ``tune-sort`` — run the sort-period autotuner on the cost model;
* ``calibrate`` — fit the loop cost model's stall parameters to a
  measured ``--timings-json`` record and write the calibration JSON;
* ``misses`` — run a scaled cache-miss experiment (Table II style);
* ``verify`` — differential cross-backend equivalence matrix, physics
  acceptance oracles, and the golden-run regression check;
* ``serve`` — run the multi-job engine against a spool directory
  (:mod:`repro.service`), multiplexing submitted jobs over a bounded
  worker pool with priority scheduling and preemption;
* ``submit`` — queue a job document into a spool directory for a
  running (or later) ``serve``, optionally waiting for its result;
* ``spool`` — spool maintenance (``spool gc`` removes settled results
  and quarantined documents older than a retention age);
* ``info`` — library, machine-preset and configuration summary.

Exit codes: 0 success; 1 failed check/job; 2 bad arguments or
unavailable backend; 3 permanent supervised-run failure; 4 ``submit
--wait`` timeout; 5 ``serve`` drained by SIGTERM/SIGINT (running jobs
parked, journal flushed — restart with ``--recover`` to resume them).

Everything the CLI prints is computed through the same public API the
examples use; the CLI adds no behaviour of its own.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

__all__ = ["main", "build_parser"]

def _run_description(**defaults) -> argparse.ArgumentParser:
    """The argparse parent of ``run`` and ``submit``: the ten flags
    that describe a run (a :class:`~repro.service.job.PICJob`'s physics
    half), declared once; the verbs differ only in ``defaults``.  (A
    fresh parser per verb: argparse parents share their actions, so one
    instance would carry the last verb's defaults into both.)"""
    from repro.core.backends import AUTO, known_backend_names
    from repro.curves import available_orderings
    from repro.particles import CASE_NAMES

    job = argparse.ArgumentParser(add_help=False)
    job.add_argument("--case", choices=CASE_NAMES, default="landau")
    job.add_argument("--particles", type=int)
    job.add_argument("--steps", type=int, default=100)
    job.add_argument("--dt", type=float)
    job.add_argument("--alpha", type=float, default=None,
                     help="perturbation amplitude (case default if omitted)")
    job.add_argument("--grid", type=int, nargs=2, metavar=("NCX", "NCY"))
    job.add_argument("--ordering", choices=available_orderings(),
                     default="morton")
    job.add_argument("--backend", choices=(AUTO, *known_backend_names()),
                     help="kernel execution backend (default: %(default)s; "
                     "numpy-mp fans the particle loops out over worker "
                     "processes)")
    job.add_argument("--workers", type=int, default=None, metavar="N",
                     help="worker-process count for --backend numpy-mp "
                     "(default: cpu count)")
    job.add_argument("--seed", type=int, default=None,
                     help="random start seed (default: quiet start)")
    job.set_defaults(**defaults)
    return job


def build_parser() -> argparse.ArgumentParser:
    from repro.curves import available_orderings

    orderings = available_orderings()
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of Barsamian/Hirstoaga/Violard IPDPSW 2017 "
        "(vectorized PIC data structures)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser(
        "run", help="run a simulation case",
        parents=[_run_description(particles=100_000, dt=0.1, grid=(64, 16),
                                  backend="auto")],
    )
    run.add_argument("--every", type=int, default=10,
                     help="print diagnostics every N steps")
    run.add_argument("--checkpoint", type=str, default=None,
                     help="write a checkpoint here after the run")
    run.add_argument("--mp-timeout", type=float, default=None, metavar="SECS",
                     help="numpy-mp per-task timeout before a worker is "
                     "restarted and its shard retried serially")
    run.add_argument("--timings-json", type=str, default=None, metavar="PATH",
                     help="write per-phase wall-clock timings (cumulative "
                     "and per-step) to this JSON file")
    run.add_argument("--supervise", action="store_true",
                     help="run under the resilience supervisor: invariant "
                     "guards, rotating checkpoints, rollback-and-retry with "
                     "backend degradation on repeated failure")
    run.add_argument("--checkpoint-every", type=int, default=50, metavar="N",
                     help="supervised mode: steps between rotation "
                     "checkpoints (default: 50)")
    run.add_argument("--keep-checkpoints", type=int, default=3, metavar="K",
                     help="supervised mode: rotation depth (default: 3)")
    run.add_argument("--max-retries", type=int, default=3, metavar="R",
                     help="supervised mode: consecutive failures before the "
                     "backend is degraded (default: 3)")
    run.add_argument("--guards", type=str, default="default", metavar="SPEC",
                     help="supervised mode: guard spec, e.g. 'default', "
                     "'none', 'all', or 'finite,cells,charge:1e-6,energy:0.2'")
    run.add_argument("--checkpoint-dir", type=str, default=None, metavar="DIR",
                     help="supervised mode: keep the checkpoint rotation in "
                     "this directory (default: private temp dir, removed "
                     "after the run)")

    om = sub.add_parser("orderings", help="print an ordering's index map")
    om.add_argument("--ordering", choices=orderings, default="morton")
    om.add_argument("--size", type=int, default=8, help="grid side (pow2)")
    om.add_argument("--l4d-size", type=int, default=4, help="L4D tile height")

    loc = sub.add_parser("locality", help="compare ordering locality")
    loc.add_argument("--size", type=int, default=64, help="grid side (pow2)")

    tune = sub.add_parser("tune-sort", help="autotune the sort period")
    tune.add_argument("--machine", choices=("haswell", "sandybridge"),
                      default="haswell")
    tune.add_argument("--particles", type=int, default=50_000_000)
    tune.add_argument("--growth", type=float, default=0.08,
                      help="miss growth per unsorted iteration")

    cal = sub.add_parser(
        "calibrate",
        help="fit cost-model stall parameters to a measured timings record",
    )
    cal.add_argument("--timings", required=True, metavar="PATH",
                     help="a --timings-json file from 'repro run' (or any "
                     "StepTimings record) to calibrate against")
    cal.add_argument("--machine", choices=("haswell", "sandybridge"),
                     default="haswell",
                     help="machine preset whose cost model is calibrated")
    cal.add_argument("--output", type=str, default=None, metavar="PATH",
                     help="write the calibration document here "
                     "(default: print to stdout)")
    cal.add_argument("--grid-points", type=int, default=101, metavar="N",
                     help="stall_overlap grid resolution over [0, 1] "
                     "(default: 101)")

    mi = sub.add_parser("misses", help="scaled cache-miss experiment (Table II)")
    mi.add_argument("--orderings", nargs="+", choices=orderings,
                    default=["row-major", "morton"])
    mi.add_argument("--particles", type=int, default=20_000)
    mi.add_argument("--iterations", type=int, default=10)
    mi.add_argument("--grid-side", type=int, default=64)
    mi.add_argument("--sort-period", type=int, default=5)

    ver = sub.add_parser(
        "verify",
        help="differential equivalence matrix, physics oracles, golden gate",
    )
    ver.add_argument("--seed", type=int, default=0,
                     help="config-space sampler seed (default: 0)")
    ver.add_argument("--samples", type=int, default=8,
                     help="number of sampled scenarios (default: 8)")
    ver.add_argument("--no-mp", action="store_true",
                     help="exclude the numpy-mp combos (skips worker-pool "
                     "startup on tiny runs)")
    ver.add_argument("--mp-workers", type=int, default=2, metavar="N",
                     help="worker count for the first 2D numpy-mp combo; a "
                     "second runs at 4 (2 when N is 4) (default: 2)")
    ver.add_argument("--oracles", action="store_true",
                     help="also run the physics acceptance oracles "
                     "(Landau/two-stream rates, energy, momentum, 3D)")
    ver.add_argument("--oracle-backend", default="numpy",
                     help="backend the oracles run on (default: numpy)")
    ver.add_argument("--golden", action="store_true",
                     help="also check every importable backend against the "
                     "committed golden-run documents")
    ver.add_argument("--golden-dir", type=str, default=None, metavar="DIR",
                     help="directory of GOLDEN_*.json documents "
                     "(default: <repo>/golden)")

    srv = sub.add_parser(
        "serve",
        help="run the multi-job engine against a spool directory",
    )
    srv.add_argument("--spool", required=True, metavar="DIR",
                     help="spool directory (queue/, claimed/, results/ "
                     "created as needed); submit jobs into it with "
                     "'repro submit --spool DIR ...'")
    srv.add_argument("--max-workers", type=int, default=2, metavar="N",
                     help="concurrent jobs the engine runs (default: 2)")
    srv.add_argument("--poll", type=float, default=0.2, metavar="SECS",
                     help="longest wait before the server looks at the "
                     "spool without having been woken by a submit or a "
                     "finished job — the cost of a lost wake-up — and the "
                     "period of lease heartbeats and the stale-claim sweep "
                     "(default: 0.2)")
    srv.add_argument("--drain", action="store_true",
                     help="exit once the queue is empty and every claimed "
                     "job settled (batch-campaign mode); default is to "
                     "serve until interrupted")
    srv.add_argument("--max-jobs", type=int, default=None, metavar="N",
                     help="claim at most N jobs, then exit once they settle")
    srv.add_argument("--data-dir", type=str, default=None, metavar="DIR",
                     help="keep the engine's durable state here: per-job "
                     "checkpoint directories and the lifecycle journal "
                     "(default: private temp dir, removed on exit; required "
                     "for --recover)")
    srv.add_argument("--recover", action="store_true",
                     help="rebuild the engine from --data-dir's journal "
                     "before serving: jobs interrupted by a previous "
                     "server's death resume from their checkpoints and "
                     "their claims are re-adopted")
    srv.add_argument("--lease-ttl", type=float, default=30.0, metavar="SECS",
                     help="seconds without a claim-lease heartbeat before "
                     "another server may reclaim the claim back into the "
                     "queue (default: 30)")
    srv.add_argument("--owner", type=str, default=None, metavar="ID",
                     help="lease owner identity (default: a unique "
                     "host-pid-nonce string)")
    srv.add_argument("--gc-older-than", type=str, default=None, metavar="AGE",
                     help="periodically remove settled results and "
                     "quarantined documents older than AGE (e.g. 90, 30s, "
                     "5m, 2h, 1d; default: keep forever)")
    srv.add_argument("--gc-every", type=int, default=50, metavar="N",
                     help="--poll periods between gc sweeps when "
                     "--gc-older-than is set (default: 50, i.e. every 10 s "
                     "at the default --poll)")

    smt = sub.add_parser(
        "submit", help="queue a job document into a spool directory",
        parents=[_run_description(particles=10_000, dt=0.05, grid=(32, 16),
                                  backend="numpy")],
    )
    smt.add_argument("--spool", required=True, metavar="DIR",
                     help="spool directory a 'repro serve' watches")
    smt.add_argument("--priority", type=int, default=0,
                     help="scheduling priority: higher runs first and may "
                     "preempt running lower-priority jobs (default: 0)")
    smt.add_argument("--checkpoint-every", type=int, default=25, metavar="N",
                     help="steps between the job's rotation checkpoints — "
                     "the rollback and preemption-loss granularity "
                     "(default: 25)")
    smt.add_argument("--guards", type=str, default="default", metavar="SPEC",
                     help="guard spec for the job's supervised run "
                     "(default: 'default')")
    smt.add_argument("--max-retries", type=int, default=3, metavar="R",
                     help="consecutive in-job failures before backend "
                     "degradation (default: 3)")
    smt.add_argument("--deadline", type=float, default=None, metavar="SECS",
                     help="wall-clock budget across all of the job's "
                     "scheduling segments; exceeded -> FAILED with a "
                     "'deadline' reason (default: none)")
    smt.add_argument("--retry-backoff", type=float, default=0.0,
                     metavar="SECS",
                     help="base seconds of exponential backoff between the "
                     "job's rollback-retries (default: 0, retry at once)")
    smt.add_argument("--job-id", type=str, default=None, metavar="ID",
                     help="explicit job id (default: generated)")
    smt.add_argument("--wait", action="store_true",
                     help="block until the job's result document appears "
                     "and print its summary")
    smt.add_argument("--timeout", type=float, default=None, metavar="SECS",
                     help="with --wait: give up after this many seconds")

    spl = sub.add_parser("spool", help="spool maintenance")
    spl_sub = spl.add_subparsers(dest="spool_command", required=True)
    spl_gc = spl_sub.add_parser(
        "gc",
        help="remove settled results and quarantined documents older "
        "than a retention age (in-flight jobs are never touched)",
    )
    spl_gc.add_argument("--spool", required=True, metavar="DIR",
                        help="spool directory to collect")
    spl_gc.add_argument("--older-than", required=True, metavar="AGE",
                        help="retention age, e.g. 90, 30s, 5m, 2h, 1d")

    sub.add_parser("info", help="library and machine-preset summary")
    return parser


def _job_from_args(args, **fields):
    """The :class:`~repro.service.job.PICJob` a ``run`` / ``submit``
    command line describes (``fields``: what only one verb has)."""
    from repro.service.job import PICJob

    return PICJob(
        case=args.case,
        grid=tuple(args.grid),
        n_particles=args.particles,
        steps=args.steps,
        dt=args.dt,
        alpha=args.alpha,
        ordering=args.ordering,
        backend=args.backend,
        workers=args.workers,
        seed=args.seed,
        checkpoint_every=args.checkpoint_every,
        guards=args.guards,
        max_retries=args.max_retries,
        **fields,
    )


def _cmd_run(args) -> int:
    job = _job_from_args(args)
    cfg = job.make_config()
    if args.mp_timeout is not None:
        cfg = cfg.with_(mp_task_timeout=args.mp_timeout)
    sim = job.build_simulation(cfg)
    ncx, ncy = args.grid
    quiet = args.seed is None
    supervisor = None
    try:
        if args.supervise:
            from repro.resilience import SupervisedRun

            supervisor = SupervisedRun(
                sim,
                checkpoint_dir=args.checkpoint_dir,
                checkpoint_every=args.checkpoint_every,
                keep_checkpoints=args.keep_checkpoints,
                guards=args.guards,
                max_retries=args.max_retries,
            )
        print(f"case={args.case} grid={ncx}x{ncy} particles={args.particles} "
              f"ordering={args.ordering} dt={args.dt} "
              f"backend={sim.stepper.backend.name} "
              f"start={'quiet' if quiet else f'seed {args.seed}'}"
              + (f" supervised=[{args.guards}]" if supervisor else ""))
        if supervisor is not None:
            supervisor.run(args.steps)
        else:
            sim.run(args.steps)
        h = sim.history.as_arrays()
        print(f"{'t':>7s} {'field E':>13s} {'kinetic E':>13s} {'total E':>13s}")
        for i in range(0, args.steps + 1, max(args.every, 1)):
            print(f"{h['times'][i]:7.2f} {h['field_energy'][i]:13.6e} "
                  f"{h['kinetic_energy'][i]:13.6e} {h['total_energy'][i]:13.6e}")
        print(f"energy drift: {sim.history.energy_drift():.3e}")
        t = sim.timings
        print(f"throughput  : {t.particles_per_second() / 1e6:.2f} "
              "M particle-steps/s")
        print("phase breakdown (wall-clock):")
        for phase, secs in t.as_dict().items():
            pct = 100.0 * secs / t.total if t.total else 0.0
            print(f"  {phase:11s} {secs:9.4f} s  ({pct:5.1f}%)")
        if t.fallbacks:
            print(f"fallbacks   : {t.fallbacks} worker shard(s) retried serially")
        if supervisor is not None:
            rep = supervisor.report
            print(f"supervisor  : {rep.checkpoints_written} checkpoint(s), "
                  f"{len(rep.failures)} failure(s), {rep.rollbacks} "
                  f"rollback(s), {len(rep.degradations)} degradation(s); "
                  f"backend chain {' -> '.join(rep.backend_history)}")
        if args.timings_json:
            import pathlib

            path = pathlib.Path(args.timings_json)
            source = supervisor if supervisor is not None else sim
            path.write_text(source.timings_json(indent=2))
            print(f"timings     : {path}")
        if args.checkpoint:
            from repro.core.checkpoint import save_checkpoint

            # end-of-run archival checkpoint: size over write latency
            path = save_checkpoint(sim.stepper, args.checkpoint, compress=True)
            print(f"checkpoint  : {path}")
    finally:
        if supervisor is not None:
            supervisor.close()  # also closes sim, and keeps --checkpoint-dir
        sim.close()
    return 0


def _cmd_orderings(args) -> int:
    from repro.curves import get_ordering

    kwargs = {"size": args.l4d_size} if args.ordering == "l4d" else {}
    o = get_ordering(args.ordering, args.size, args.size, **kwargs)
    m = o.index_map()
    width = len(str(int(m.max())))
    print(f"{args.ordering} layout of a {args.size} x {args.size} grid "
          f"(icell at (ix, iy); allocated {o.ncells_allocated}):")
    for ix in range(args.size):
        print("  " + " ".join(f"{m[ix, iy]:{width}d}" for iy in range(args.size)))
    return 0


def _cmd_locality(args) -> int:
    from repro.curves import (
        available_orderings,
        get_ordering,
        neighbor_locality_report,
    )

    print(f"unit-move locality on a {args.size} x {args.size} grid "
          "(fraction of neighbor moves with |d icell| <= 8):")
    for name in available_orderings():
        r = neighbor_locality_report(get_ordering(name, args.size, args.size))
        print(f"  {name:13s} {100 * r.frac_close_isotropic:5.1f}%  "
              f"(x {100 * r.frac_close_dx:5.1f}%, y {100 * r.frac_close_dy:5.1f}%)")
    return 0


def _cmd_tune_sort(args) -> int:
    from repro.model.config import ModelConfig
    from repro.model.costmodel import (
        FRESH_SORT_MISSES,
        LoopCostModel,
        tune_sort_period_model,
    )
    from repro.model.machine import MachineSpec

    machine = getattr(MachineSpec, args.machine)()
    model = LoopCostModel(machine)
    res = tune_sort_period_model(
        model, ModelConfig.fully_optimized(), args.particles,
        FRESH_SORT_MISSES, miss_growth_per_iter=args.growth,
    )
    print(f"machine={args.machine}, miss growth {args.growth}/iter:")
    for period in sorted(res.costs):
        ns = res.costs[period] / args.particles * 1e9
        marker = "  <- best" if period == res.best_period else ""
        print(f"  sort every {period:4d}: {ns:7.2f} ns/particle/iter{marker}")
    return 0


def _cmd_calibrate(args) -> int:
    import json
    import pathlib

    from repro.model.costmodel import fit_stall_overlap
    from repro.model.machine import MachineSpec

    record = json.loads(pathlib.Path(args.timings).read_text())
    machine = getattr(MachineSpec, args.machine)()
    cal = fit_stall_overlap(record, machine, grid_points=args.grid_points)
    text = json.dumps(cal, indent=2, sort_keys=True)
    if args.output:
        pathlib.Path(args.output).write_text(text + "\n")
        print(f"calibration : {args.output}")
    else:
        print(text)
    print(f"stall_overlap={cal['stall_overlap']:.3f} "
          f"freq_scale={cal['freq_scale']:.4f} "
          f"residual_rms={cal['residual_rms_s']:.3e}s "
          f"over {cal['particle_steps']} particle-steps on {cal['machine']}")
    return 0


def _cmd_misses(args) -> int:
    from repro.grid import GridSpec
    from repro.model.config import ModelConfig
    from repro.model.experiments import MissExperiment, default_scaled_machine

    grid = GridSpec(args.grid_side, args.grid_side, 0.0, 4 * np.pi, 0.0, 4 * np.pi)
    machine = default_scaled_machine()
    caches = ", ".join(
        f"{lv.name} {lv.capacity_bytes // 1024}K" for lv in machine.levels
    )
    print(f"scaled machine: {machine.name} ({caches}); "
          f"{args.particles} particles on {args.grid_side}x{args.grid_side}, "
          f"{args.iterations} iterations, sort every {args.sort_period}")
    print(f"{'ordering':12s} {'L1/iter':>10s} {'L2/iter':>10s} {'L3/iter':>10s}")
    for name in args.orderings:
        cfg = ModelConfig.fully_optimized(name)
        if name == "hilbert":
            cfg = cfg.with_(position_update="modulo")
        cfg = cfg.with_(sort_period=args.sort_period)
        series = MissExperiment(
            cfg, grid, args.particles, args.iterations, machine=machine
        ).run()
        print(f"{name:12s} "
              + " ".join(f"{series.average_misses(lv):10.0f}"
                         for lv in ("L1", "L2", "L3")))
    return 0


def _cmd_verify(args) -> int:
    from repro.verify import (
        DifferentialRunner,
        ScenarioSampler,
        check_golden,
        golden_cases,
        load_golden,
        run_all_oracles,
    )

    failures = 0

    print(f"differential matrix: seed={args.seed} samples={args.samples}")
    sampler = ScenarioSampler(seed=args.seed)
    runner = DifferentialRunner(
        include_mp=not args.no_mp,
        mp_workers=args.mp_workers,
    )
    for scenario in sampler.sample(args.samples):
        report = runner.run_scenario(scenario)
        print(report.describe())
        if not report.ok:
            failures += 1

    if args.oracles:
        print(f"physics oracles on {args.oracle_backend!r}:")
        for result in run_all_oracles(args.oracle_backend):
            print("  " + result.describe())
            if not result.passed:
                failures += 1

    if args.golden:
        from pathlib import Path

        from repro.core.backends import available_backends
        from repro.verify.golden import default_golden_dir

        golden_dir = (
            Path(args.golden_dir) if args.golden_dir else default_golden_dir()
        )
        print(f"golden checks against {golden_dir}:")
        for name in golden_cases():
            path = golden_dir / f"GOLDEN_{name}.json"
            if not path.exists():
                print(f"  {name}: MISSING {path} (regenerate with "
                      "python tools/verify_gate.py --regenerate)")
                failures += 1
                continue
            doc = load_golden(path)
            for backend in available_backends():
                result = check_golden(doc, backend)
                print("  " + result.describe())
                if not result.ok:
                    failures += 1

    if failures:
        print(f"verify: FAIL ({failures} check(s) diverged)")
        return 1
    print("verify: PASS")
    return 0


def _cmd_serve(args) -> int:
    import signal
    import threading

    from repro.service import serve_spool
    from repro.service.spool import parse_age, wake_server

    if args.recover and not args.data_dir:
        raise ValueError("--recover requires --data-dir (the journal and "
                         "checkpoints live there)")
    gc_older_than = (parse_age(args.gc_older_than)
                     if args.gc_older_than is not None else None)

    def on_settle(job_id, doc):
        drift = doc.get("energy_drift")
        extra = f" drift={drift:.3e}" if drift is not None else ""
        if doc.get("error"):
            extra += f" [{doc['error']}]"
        state = doc["state"]
        if state == "duplicate":
            print(f"settled {job_id}: duplicate submission{extra}")
            return
        print(f"settled {job_id}: {state} "
              f"{doc['steps_done']}/{doc['steps_total']} steps, "
              f"{doc['preemptions']} preemption(s){extra}")

    # graceful drain: SIGTERM/SIGINT stop the claim loop; the engine
    # shutdown parks running jobs and flushes the journal, so a
    # restart with --recover picks up exactly where this server left
    stop = threading.Event()

    def _on_signal(signum, _frame):
        print(f"received {signal.Signals(signum).name}; draining "
              "(running jobs will be parked)", file=sys.stderr)
        stop.set()
        wake_server(args.spool)  # end the serve loop's wait now

    previous = {sig: signal.signal(sig, _on_signal)
                for sig in (signal.SIGTERM, signal.SIGINT)}
    print(f"serving spool {args.spool} with {args.max_workers} worker(s)"
          + (" (drain mode)" if args.drain else " (SIGTERM/Ctrl-C to stop)"))
    stats = {}
    try:
        settled = serve_spool(
            args.spool,
            max_workers=args.max_workers,
            poll=args.poll,
            drain=args.drain,
            max_jobs=args.max_jobs,
            data_dir=args.data_dir,
            on_settle=on_settle,
            lease_ttl=args.lease_ttl,
            owner=args.owner,
            recover=args.recover,
            gc_older_than=gc_older_than,
            gc_every=args.gc_every,
            stop=stop.is_set,
            stats=stats,
        )
    finally:
        for sig, handler in previous.items():
            signal.signal(sig, handler)
    wakes = stats["wakes"]
    print(f"served {settled} job(s) (wakes: nudge {wakes['nudge']} / engine "
          f"{wakes['engine']} / poll {wakes['poll']}; lease writes "
          f"{stats['lease_writes']})")
    return 5 if stop.is_set() else 0


def _cmd_submit(args) -> int:
    from repro.service import submit_to_spool, wait_for_result

    job = _job_from_args(args, priority=args.priority,
                         deadline_s=args.deadline,
                         retry_backoff=args.retry_backoff)
    job_id = submit_to_spool(args.spool, job, job_id=args.job_id)
    print(f"submitted {job_id}: {job.describe()}")
    if not args.wait:
        return 0
    try:
        doc = wait_for_result(args.spool, job_id, timeout=args.timeout)
    except TimeoutError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    drift = doc.get("energy_drift")
    print(f"result   : {doc['state']} "
          f"({doc['steps_done']}/{doc['steps_total']} steps, "
          f"{doc['preemptions']} preemption(s), "
          f"{doc['segments']} segment(s))")
    if drift is not None:
        print(f"drift    : {drift:.3e}")
    latency = _latency_line(doc)
    if latency:
        print(latency)
    if doc.get("error"):
        print(f"error    : {doc['error']}", file=sys.stderr)
    return 0 if doc["state"] == "succeeded" else 1


def _latency_line(doc: dict) -> str | None:
    """Submit→result latency of a settled job and its four parts, from
    the result document's ``spool`` and ``engine`` blocks; ``None``
    when a stamp is missing (a result written by an older server)."""
    stamps, engine = doc.get("spool", {}), doc.get("engine", {})
    try:
        total = stamps["settled_at"] - stamps["submitted_at"]
        claim = stamps["claimed_at"] - stamps["submitted_at"]
        queue, run = engine["queue_wait_seconds"], engine["run_seconds"]
    except (KeyError, TypeError):
        return None
    return (f"latency  : {total:.3f} s (claim {claim:.3f} / queue {queue:.3f} "
            f"/ run {run:.3f} / settle {total - claim - queue - run:.3f})")


def _cmd_spool(args) -> int:
    from repro.service.spool import gc_spool, parse_age

    if args.spool_command == "gc":
        removed = gc_spool(args.spool, parse_age(args.older_than))
        print(f"removed {removed} document(s)")
        return 0
    raise ValueError(f"unknown spool command {args.spool_command!r}")


def _cmd_info(_args) -> int:
    import os

    from repro.core import cbuild
    from repro.core.backends import (
        BackendUnavailableError,
        available_backends,
        get_backend,
        known_backend_names,
        resolve_backend_name,
    )
    from repro.curves import available_orderings
    from repro.model.machine import MachineSpec

    print("repro — PIC data-structures reproduction (IPDPSW 2017)")
    print("orderings:", ", ".join(available_orderings()))
    avail = set(available_backends())
    print("backends :", ", ".join(
        f"{n}{'' if n in avail else ' (unavailable)'}"
        for n in known_backend_names()
    ), f"(auto -> {resolve_backend_name()})")
    if "c" in avail:
        try:
            info = get_backend("c").build_info
        except BackendUnavailableError as exc:
            print(f"c kernels: failed to build ({exc})")
        else:
            version = cbuild.compiler_version(info.cc) if info.cc else "-"
            how = "compiled by this process" if info.compiled else "cache hit"
            print(f"c kernels: {info.cc or 'no compiler on PATH'}"
                  f" [{version}] {' '.join(info.flags)}\n"
                  f"           {info.path} ({how}, {1e3 * info.seconds:.0f} ms)\n"
                  f"           clone: {info.isa}")
    ncpu = os.cpu_count() or 1
    # the engine gives its workers the kernels "auto" resolves to
    mp = (f"available, workers run {get_backend().name}"
          if "numpy-mp" in avail else "unavailable")
    print(f"cpus     : {ncpu} (numpy-mp {mp}; default --workers {ncpu})")
    for name in ("haswell", "sandybridge"):
        m = getattr(MachineSpec, name)()
        caches = ", ".join(
            f"{lv.name} {lv.capacity_bytes // 1024}K/{lv.associativity}w"
            for lv in m.levels
        )
        print(f"{m.name}: {m.freq_ghz} GHz, {m.cores_per_socket} cores, "
              f"{m.mem_channels} channels, {caches}")
    return 0


def main(argv=None) -> int:
    import logging

    from repro.core.backends import BackendUnavailableError
    from repro.resilience import SupervisionError

    # surface the backend-resolution and numpy-mp engine log lines
    # (stderr, so stdout stays machine-readable)
    logging.basicConfig(level=logging.INFO, format="%(name)s: %(message)s")
    args = build_parser().parse_args(argv)
    handlers = {
        "run": _cmd_run,
        "orderings": _cmd_orderings,
        "locality": _cmd_locality,
        "tune-sort": _cmd_tune_sort,
        "calibrate": _cmd_calibrate,
        "misses": _cmd_misses,
        "verify": _cmd_verify,
        "serve": _cmd_serve,
        "submit": _cmd_submit,
        "spool": _cmd_spool,
        "info": _cmd_info,
    }
    try:
        return handlers[args.command](args)
    except SupervisionError as exc:
        print(f"error: supervised run failed permanently: {exc}",
              file=sys.stderr)
        return 3
    except (BackendUnavailableError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
