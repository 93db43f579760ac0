#!/usr/bin/env python3
"""Scenario-request benchmark for lazyckpt: build, run, report.

Run from the root of a source checkout:

  python3 perfbench/run.py --workload paper-flat --seed 1 --seconds 10 --trace 0
  python3 perfbench/run.py --workload all            # every workload, one table
  python3 perfbench/run.py --workload sweep-replay --trace 1 --trace-out t.json
  python3 perfbench/run.py --selftest                # the benchmark's own test
  python3 perfbench/run.py --make-reference          # rewrite reference/*.tsv

Each run builds perfbench_client (CMake, Release) into .bench_build/, then
starts it several times: set-up only, to time process start to the first
timed request (setup_s is the median), and once more to measure.  All
timed runs use LAZYCKPT_THREADS=1.  Every end-to-end timing is scaled to
the reference host's speed by a probe the client times alongside it.  The
last line of standard output is one JSON object: {"correct", "attempted",
"failed", "metrics"}; with --trace 0 the metrics are BENCHMARK.json's
end_to_end list, with --trace 1 its per_layer list.  See
perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORK_ROOT = os.path.join(ROOT, ".bench_work")
CLIENT = os.path.join(BUILD_DIR, "perfbench_client")
WORKLOADS = ["paper-flat", "bounded-lazy", "tiered-campaign", "sweep-replay"]

# Processes started per run to time set-up (setup_s is their median): at
# least SETUP_MIN_STARTS, and more, up to SETUP_MAX_STARTS, until they have
# taken SETUP_MIN_SECONDS.  A start that takes milliseconds varies by 2x
# from start to start, so cheap set-ups get more samples.
SETUP_MIN_STARTS = 15
SETUP_MAX_STARTS = 101
SETUP_MIN_SECONDS = 1.5
SELFTEST_REPEATS = 5   # pairs of runs in the selftest's LAZYCKPT_BATCH=0 check
RUN_BUDGET_S = 170.0   # everything after the build must end within this
BUILD_BUDGET_S = 850.0
# Environment the program reads; timed runs start from its defaults.
PROGRAM_ENV = ("LAZYCKPT_THREADS", "LAZYCKPT_BATCH", "LAZYCKPT_TRACE",
               "LAZYCKPT_CACHE", "LAZYCKPT_PROGRESS", "LAZYCKPT_FAKE_CLOCK")


class BenchError(Exception):
    """A failure that must end the run without a result line."""


def log(message):
    print(message, file=sys.stderr, flush=True)


def client_env(threads="1", batch=None):
    env = {k: v for k, v in os.environ.items() if k not in PROGRAM_ENV}
    env["LAZYCKPT_THREADS"] = str(threads)
    if batch is not None:
        env["LAZYCKPT_BATCH"] = str(batch)
    return env


def build():
    runner = os.path.join(ROOT, "src", "spec", "runner.hpp")
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isfile(runner)):
        raise BenchError("no lazyckpt source tree next to perfbench/ "
                         "(expected CMakeLists.txt and src/)")
    deadline = time.monotonic() + BUILD_BUDGET_S
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    # Configuring again is cheap and picks up changed build files.
    steps = [["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", BUILD_DIR, "--target", "perfbench_client",
              "-j", jobs]]
    for step in steps:
        try:
            done = subprocess.run(step, cwd=ROOT, stdout=sys.stderr,
                                  stderr=sys.stderr,
                                  timeout=max(1.0, deadline - time.monotonic()))
        except (OSError, subprocess.TimeoutExpired) as error:
            raise BenchError(f"build step {step[:2]} failed: {error}")
        if done.returncode != 0:
            raise BenchError(f"build step {' '.join(step[:2])} exited "
                             f"{done.returncode}")


def launch(args, env, deadline):
    """Start the client; return (seconds from start to READY, later stdout)."""
    started = time.perf_counter()
    try:
        proc = subprocess.Popen([CLIENT] + args, cwd=ROOT, env=env,
                                stdout=subprocess.PIPE, stderr=sys.stderr,
                                text=True)
    except OSError as error:
        raise BenchError(f"cannot start the client: {error}")
    watchdog = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
    watchdog.start()
    try:
        first = proc.stdout.readline()
        ready = time.perf_counter() - started
        rest = proc.stdout.read()
        proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"client {' '.join(args[:2])} exited "
                         f"{proc.returncode}")
    return ready, first + rest


def client_output(args, env, deadline):
    return launch(args, env, deadline)[1]


def find_line(stdout, tag):
    for line in stdout.splitlines():
        if line.startswith(tag + " "):
            return line[len(tag) + 1:]
    raise BenchError(f"client printed no {tag} line")


def parse_result(stdout):
    return json.loads(find_line(stdout, "RESULT"))


def host_scale(stdout):
    return float(find_line(stdout, "HOST_SCALE"))


def load_contract():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def timing_bound(contract):
    return next(m["bound"] for m in contract["end_to_end"]
                if m["name"] == "trials_per_s")


def work_dir(workload, seed):
    return os.path.join(WORK_ROOT, f"{workload}-{seed}-{os.getpid()}")


def run_workload(workload, seed, seconds, trace, deadline, env=None,
                 trace_out=None, time_setup=True):
    """One benchmark run; returns (client result, set-up times as
    (measured, scaled to the reference host's speed))."""
    env = env or client_env()
    work = work_dir(workload, seed)
    common = ["--workload", workload, "--seed", str(seed), "--work-dir", work,
              "--reference", os.path.join(BENCH_DIR, "reference",
                                          workload + ".tsv")]
    setup_times = []
    try:
        started = time.monotonic()
        while time_setup and len(setup_times) < SETUP_MAX_STARTS - 1 and (
                len(setup_times) < SETUP_MIN_STARTS - 1
                or time.monotonic() - started < SETUP_MIN_SECONDS):
            ready, stdout = launch(common + ["--phase", "setup"], env,
                                   deadline)
            setup_times.append((ready, ready * host_scale(stdout)))
        args = common + ["--phase", "run", "--seconds", str(seconds),
                         "--trace", "1" if trace else "0"]
        if trace_out:
            args += ["--trace-out", trace_out]
        ready, stdout = launch(args, env, deadline)
        setup_times.append((ready, ready * host_scale(stdout)))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return parse_result(stdout), setup_times


def report(result, setup_times, trace, contract):
    """Human summary on stdout; returns the contract's result object."""
    wanted = contract["per_layer" if trace else "end_to_end"]
    metrics = dict(result["metrics"])
    metrics["setup_s"] = {"value": statistics.median(s for _, s in setup_times),
                          "unit": "s"}
    metrics["setup_s.raw"] = {"value": statistics.median(r for r, _ in
                                                         setup_times),
                              "unit": "s"}
    out = {}
    for spec in wanted:
        if spec["name"] not in metrics:
            raise BenchError(f"client did not measure {spec['name']}")
        out[spec["name"]] = {"value": metrics[spec["name"]]["value"],
                             "unit": spec["unit"]}
    print(f"perfbench: workload={result['workload']} seed={result['seed']} "
          f"input_digest={result['input_digest']} "
          f"requests={result['requests']} cycles={result['cycles']}"
          + (f" beyond_p90={result['beyond_p90']}" if not trace else
             f" top_layer={result['top_layer']}"))
    for name, metric in out.items():
        raw = metrics.get(name + ".raw")
        print(f"  {name:32s} {metric['value']:>14.6g} {metric['unit']}"
              + (f"  (measured {raw['value']:.6g})" if raw else ""))
    if not trace:
        print(f"  {'error_rate':32s} {metrics['error_rate']['value']:>14.6g} "
              f"fraction  ({result['failed']} failed of {result['attempted']})")
        quartiles = statistics.quantiles([s for _, s in setup_times], n=4)
        print(f"  setup_s: {len(setup_times)} starts, scaled quartiles "
              + " ".join(f"{q:.5f}" for q in quartiles) + " s")
    calibration = result["calibration"]
    print("calibration: " + json.dumps(dict(calibration,
                                            workload=result["workload"],
                                            seed=result["seed"])))
    correct = result["failed"] == 0 and result["inputs_deterministic"]
    return {"correct": correct, "attempted": result["attempted"],
            "failed": result["failed"], "metrics": out}


def main_run(args):
    contract = load_contract()
    build()
    deadline = time.monotonic() + RUN_BUDGET_S
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    if args.workload == "all":
        deadline = time.monotonic() + len(WORKLOADS) * RUN_BUDGET_S
    final = {}
    for workload in workloads:
        result, setups = run_workload(workload, args.seed, args.seconds,
                                      args.trace == 1, deadline,
                                      trace_out=args.trace_out,
                                      time_setup=not args.trace)
        final[workload] = report(result, setups, args.trace == 1, contract)
    if args.workload == "all":
        print(json.dumps(final))
    else:
        print(json.dumps(final[args.workload]))


# --- the benchmark's own test ---------------------------------------------


def selftest(args):
    contract = load_contract()
    build()
    deadline = time.monotonic() + 1800.0
    failures = []

    def expect(ok, what):
        print(("PASS " if ok else "FAIL ") + what, flush=True)
        if not ok:
            failures.append(what)

    # 1. The same seed yields byte-identical scenario text.
    for workload in WORKLOADS:
        emit = ["--workload", workload, "--emit", "--seed"]
        a = client_output(emit + ["7"], client_env(), deadline)
        b = client_output(emit + ["7"], client_env(), deadline)
        c = client_output(emit + ["8"], client_env(), deadline)
        expect(a == b and a != c,
               f"{workload}: seed 7 text is byte-identical across runs "
               f"({a.splitlines()[0]}) and differs from seed 8")

    # 2. Results digest identically across threads and batch sizes.
    nproc = os.cpu_count() or 1
    settings = [("threads=1", client_env(1)),
                (f"threads={nproc}", client_env(nproc)),
                ("batch=0", client_env(1, 0)), ("batch=64", client_env(1, 64))]
    for workload in WORKLOADS:
        count = "120" if workload == "sweep-replay" else "24"
        digests = {}
        for label, env in settings:
            work = work_dir(workload, "digest")
            try:
                out = client_output(["--workload", workload, "--seed", "3",
                                     "--digest", count, "--work-dir", work],
                                    env, deadline)
            finally:
                shutil.rmtree(work, ignore_errors=True)
            digests[label] = out.split()[-1]
        expect(len(set(digests.values())) == 1,
               f"{workload}: first {count} results digest identically "
               f"across {', '.join(digests)} ({next(iter(digests.values()))})")

    # 3. Layer separation: LAZYCKPT_BATCH=0 moves paper-flat only.  The two
    # sides of a pair run back to back, alternating which goes first, and
    # the change is the median of the pairs' ratios: a host that changes
    # speed between pairs then moves both sides of a pair alike.
    bound = timing_bound(contract)
    for workload in ["paper-flat", "bounded-lazy", "tiered-campaign"]:
        ratios = []
        for i in range(SELFTEST_REPEATS):
            rate = {}
            sides = [("default", client_env()), ("batch=0", client_env(1, 0))]
            for side, env in (sides if i % 2 == 0 else sides[::-1]):
                result, _ = run_workload(workload, 100 + i, args.seconds, False,
                                         deadline, env=env,
                                         time_setup=False)
                rate[side] = result["metrics"]["trials_per_s"]["value"]
            ratios.append(rate["batch=0"] / rate["default"])
            print(f"     {workload} pair {i}: trials_per_s default "
                  f"{rate['default']:.6g}, batch=0 {rate['batch=0']:.6g}",
                  flush=True)
        change = statistics.median(ratios) - 1.0
        if workload == "paper-flat":
            expect(change < -bound,
                   f"{workload}: LAZYCKPT_BATCH=0 moves trials_per_s by "
                   f"{change:+.1%}, beyond the {bound:.0%} bound")
        else:
            expect(abs(change) <= bound,
                   f"{workload}: LAZYCKPT_BATCH=0 moves trials_per_s by "
                   f"{change:+.1%}, within the {bound:.0%} bound")
    print("selftest: " + ("ok" if not failures else f"{len(failures)} failed"))
    return 1 if failures else 0


def make_reference():
    build()
    deadline = time.monotonic() + 600.0
    for workload in WORKLOADS:
        out = client_output(["--workload", workload, "--make-reference"],
                            client_env(os.cpu_count() or 1), deadline)
        path = os.path.join(BENCH_DIR, "reference", workload + ".tsv")
        with open(path, "w") as f:
            f.write(out)
        print(f"wrote {path} ({len(out.splitlines()) - 1} rows)")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--trace-out", default=None,
                        help="write the traced run's Chrome trace here")
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--make-reference", action="store_true")
    args = parser.parse_args()
    try:
        if args.selftest:
            args.seconds = args.seconds or 10.0
            return selftest(args)
        if args.make_reference:
            return make_reference()
        if args.workload is None:
            parser.error("--workload is required")
        if args.seconds is None:
            args.seconds = float(load_contract()["run_seconds"])
        if args.trace_out:
            args.trace_out = os.path.abspath(args.trace_out)
            os.makedirs(os.path.dirname(args.trace_out), exist_ok=True)
        main_run(args)
        return 0
    except BenchError as error:
        log(f"perfbench: {error}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
