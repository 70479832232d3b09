"""One workload pass in a fresh process; run.py starts it and reads the
JSON object it prints as its last stdout line.

Modes:
  setup  import substoe, make round 0's inputs, finish the warm-up, stop;
  run    set up, then run rounds_for(--seconds) whole rounds;
  trace  the same with spans, then the layer probe; the spans are saved
         as .bench_out/spans-<workload>-seed<seed>.{json,bin}.

Each operation runs closed-loop after a gc.collect(), under a per-call
budget enforced by a main-thread interval timer.  A failure (a
SubstoeError, any other exception, or the budget) is counted by kind; a
wrong answer stops the pass with exit code 3.

Times are also reported at a reference speed.  On a shared machine every
operation runs at one of two speeds about 1.65x apart, switching within
milliseconds, and the share of slow time changes from run to run.  So
Sampler times a small fixed kernel (pure Python, no substoe code) every
millisecond from inside the measuring thread, and each raw time is
scaled by REF_S over the mean kernel time sampled while it ran.
"""

import argparse
import bisect
import gc
import json
import resource
import signal
import statistics
import sys
import time
from array import array
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
import workloads  # noqa: E402

ROUND_S = 10.0
OP_BUDGET_S = 20.0
MEMORY_LIMIT = 3 << 30
WRONG_ANSWER = 3
REF_S = 0.00002
SAMPLE_EVERY_S = 0.001
MIN_SAMPLES = 48
SAMPLED_S = 180


_TABLE = tuple(range(64))


def reference_kernel():
    """Fixed interpreter work that allocates nothing (small ints are
    cached), so it never sets off the garbage collector.  The machine runs
    everything at one of two speeds about 1.65x apart, switching within
    milliseconds; a dict loop, a big-int and a sorting kernel all slowed
    by the same factor, so this stands for the library's code too."""
    acc = 0
    for i in range(400):
        acc ^= _TABLE[i & 63]
    return acc


def time_reference():
    """Start and cost of one reference_kernel run.  It runs cold, as the
    interrupted code left the caches: the kernel's cost then also follows
    the memory contention that other tenants put on the machine, which
    slows the library too.  A warm kernel (an untimed run first) does not,
    and scaled times of the same runs spread several times more with it.
    The price is that the kernel also sees the measured code's own cache
    use; check_scaling.py measures how much."""
    start = time.perf_counter()
    reference_kernel()
    return start, time.perf_counter() - start


class BudgetExceeded(BaseException):
    """Raised from the timer signal; not an Exception, so library code
    cannot swallow it."""


class Sampler:
    """A main-thread interval timer that samples the machine's speed and
    enforces the per-operation budget.

    Every SAMPLE_EVERY_S the SIGALRM handler times the reference kernel
    (time_reference), then raises BudgetExceeded if `deadline` has
    passed.  A timed span is scaled by REF_S over the mean kernel time
    sampled within it (at least the MIN_SAMPLES nearest samples), which
    gives its time on a machine where the kernel always takes REF_S.
    The handler's own time is summed in `spent`, so that callers can
    take it out of what they time.  The sample arrays are allocated up
    front for SAMPLED_S of sampling, longer than any pass: growing them
    from the handler moved the measured peak memory by up to 8 MB from
    run to run.
    """

    def __init__(self):
        size = int(SAMPLED_S / SAMPLE_EVERY_S)
        self.stamps = array("d", bytes(8 * size))
        self.costs = array("d", bytes(8 * size))
        self.count = 0
        self.spent = 0.0
        self.deadline = None

    def _on_alarm(self, signum, frame):
        entered = time.perf_counter()
        start, cost = time_reference()
        if self.count < len(self.stamps):
            self.stamps[self.count] = start
            self.costs[self.count] = cost
            self.count += 1
        if self.deadline is not None and start + cost > self.deadline:
            self.deadline = None
            self.spent += time.perf_counter() - entered
            raise BudgetExceeded()
        self.spent += time.perf_counter() - entered

    def start(self):
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)

    def scale(self, raw, t0, t1):
        """raw seconds measured between t0 and t1, at reference speed."""
        n = self.count
        lo = bisect.bisect_left(self.stamps, t0, 0, n)
        hi = bisect.bisect_right(self.stamps, t1, 0, n)
        if hi - lo < MIN_SAMPLES:
            hi = min(n, (lo + hi + MIN_SAMPLES) // 2)
            lo = max(0, hi - MIN_SAMPLES)
            hi = min(n, lo + MIN_SAMPLES)
        return raw * REF_S / statistics.fmean(self.costs[lo:hi])


def rounds_for(seconds):
    """A round takes about ROUND_S on a 2-core shared Intel Xeon VM.  The
    count depends on --seconds only, never on measured speed, so every run
    of a workload has the same make-up of operations."""
    return max(1, min(workloads.MAX_ROUNDS, round(seconds / ROUND_S)))


def load_substoe():
    """Import substoe from src/ of this checkout and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import substoe
    import substoe.cli
    if Path(substoe.__file__).resolve().parent != src / "substoe":
        raise ImportError("substoe imported from %s, not %s"
                          % (substoe.__file__, src))
    return substoe


class Runner:
    def __init__(self, lib, deadline, sampler, tracer=None):
        self.lib = lib
        self.deadline = deadline
        self.sampler = sampler
        self.tracer = tracer
        self.latencies = []  # (kind, raw seconds, start, end)
        self.failures = {"capability": 0, "domain": 0, "internal": 0, "budget": 0}
        self.skipped = 0
        self.bytes_out = 0
        self.op_id = 0

    def classify(self, exc):
        errors = self.lib.errors
        if isinstance(exc, BudgetExceeded):
            return "budget"
        if isinstance(exc, workloads.CliError):
            return exc.kind
        if isinstance(exc, errors.CapabilityError):
            return "capability"
        if isinstance(exc, errors.SubstoeError) and not isinstance(
                exc, errors.InternalError):
            return "domain"
        return "internal"

    def run_op(self, op, keep):
        """Time one op; returns False once the deadline has passed.  The
        result is checked, and stored on op only when keep is set."""
        if any(dep.result is None for dep in op.after):
            self.skipped += 1
            return True
        budget = min(OP_BUDGET_S, self.deadline - time.perf_counter())
        if budget <= 0:
            return False
        gc.collect()
        if self.tracer:
            self.tracer.begin(self.op_id)
        self.op_id += 1
        sampler = self.sampler
        sampled = sampler.spent
        end = None
        start = time.perf_counter()
        sampler.deadline = start + budget
        try:
            try:
                result = op.run()
            finally:
                sampler.deadline = None
                end = time.perf_counter()
                if self.tracer:
                    self.tracer.end()
        except (BudgetExceeded, Exception) as exc:  # counted, not raised
            self.failures[self.classify(exc)] += 1
            result = None
        if end is None:  # the budget ran out as the call returned
            end = time.perf_counter()
        elapsed = end - start - (self.sampler.spent - sampled)
        self.latencies.append((op.kind, elapsed, start, end))
        if result is not None:
            if keep:
                op.result = result
            if isinstance(result, workloads.CliResult):
                self.bytes_out += result.nbytes
            op.check(result)
        return True

    def run_round(self, ops):
        """Run every op; returns the range of its latencies, or None if
        the deadline cut the round.  Only results that a later op reads
        are kept, and only until the round ends, so that the measured
        peak memory is the library's and not the harness's."""
        read = {id(dep) for op in ops for dep in op.after}
        first = len(self.latencies)
        try:
            for op in ops:
                if not self.run_op(op, id(op) in read):
                    return None
        finally:
            for op in ops:
                op.result = None
        return first, len(self.latencies)

    def scaled(self):
        return [self.sampler.scale(raw, start, end)
                for _, raw, start, end in self.latencies]


def layer_probe(lib):
    """Each traced layer once on a tiny input, so every layer reports a
    measured time on every workload."""
    from workloads import call_cli
    sub = lib.subst.Substitution({"a": "ab", "b": "a"})
    sub.complexity_profile(20)
    sub.factor_language(4)
    a0 = lib.matrix.ExactMatrix.from_rows([[1, 1], [1, 2]])
    a1 = lib.matrix.ExactMatrix.from_rows(workloads.GOLDEN_CHAIN[1])
    pd = lib.perron.perron_data(a0)
    group = lib.clopen.lattice_of(pd)
    lib.clopen.s_membership(group, pd.eigvec[0])
    lib.clopen.groups_equal(group, lib.clopen.lattice_of(lib.perron.perron_data(a1)), 2)
    lib.construct.enlarge_matrix(a0)
    lib.construct.minimize_vertices(a1)
    lib.construct.build_soe_substitution(sub, 1)
    lib.construct.build_oe_alphabet_family(sub, steps=1)
    lib.construct.enumerate_rational_y(4)
    diagram = lib.bratteli.diagram_from_substitution(sub)
    sum(1 for _ in diagram.chain_paths(5))
    call_cli(lib, ["perron", "-"], {"matrix": [[1, 1], [1, 2]]})


def layer_metrics(tracer, runner):
    totals = tracer.layer_totals()
    out = {}
    for name, (calls, self_s, _) in totals.items():
        out[name + ".calls"] = calls
        out[name + ".self_s"] = self_s
    out["construct.minimize_vertices.failed"] = totals["construct.minimize_vertices"][2]
    profiles = totals["subst.complexity_profile"][0]
    out["subst.complexity.calls_per_profile"] = (
        totals["subst.complexity"][0] / profiles if profiles else 0.0)
    calls = totals["perron.perron_data"][0]
    out["perron.perron_data.distinct_ratio"] = (
        len(tracer.keys["perron.perron_data"]) / calls if calls else 0.0)
    out["cli.bytes_out"] = runner.bytes_out
    for kind, count in runner.failures.items():
        out["ops.failed." + kind] = count
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--deadline", type=float, default=150.0,
                        help="hard stop, in seconds from process start")
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    args = parser.parse_args(argv)
    born = time.perf_counter()
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT, MEMORY_LIMIT))
    result = {}
    sampler = Sampler()
    sampler.start()
    try:
        start = time.perf_counter()
        lib = load_substoe()
        workload = workloads.WORKLOADS[args.workload](lib, args.seed)
        ops = workload.make_round(0)
        workload.warm_up()
        end = time.perf_counter()
        setup = end - start - sampler.spent
        result["setup_raw_s"] = setup
        result["setup_s"] = sampler.scale(setup, start, end)
        if args.mode == "setup":
            return emit(result)

        tracer = None
        if args.mode == "trace":
            import tracing
            tracer = tracing.Tracer()
            tracer.install()
        runner = Runner(lib, born + args.deadline, sampler, tracer)
        walls = []
        rounds = rounds_for(args.seconds)
        while True:
            wall = runner.run_round(ops)
            if wall is None:
                break
            walls.append(wall)
            if len(walls) == rounds:
                break
            ops = workload.make_round(len(walls))

        sampler.stop()  # before the probe and span writing below
        raw = [t for _, t, _, _ in runner.latencies]
        scaled = runner.scaled()
        result.update(
            round_walls_raw=[sum(raw[a:b]) for a, b in walls],
            round_walls=[sum(scaled[a:b]) for a, b in walls],
            latencies_raw=raw,
            latencies=scaled,
            kinds=[k for k, _, _, _ in runner.latencies],
            failures=runner.failures,
            skipped=runner.skipped,
            bytes_out=runner.bytes_out,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        )
        if tracer:
            tracer.begin(runner.op_id)
            layer_probe(lib)
            tracer.end()
            tracer.uninstall()
            result["layers"] = layer_metrics(tracer, runner)
            stem = ROOT / ".bench_out" / ("spans-%s-seed%d" % (args.workload, args.seed))
            stem.parent.mkdir(exist_ok=True)
            tracer.write(str(stem))
            result["spans"] = len(tracer.cols["name"])
            result["spans_stem"] = str(stem)
    except oracle.CheckFailed as exc:
        result["check_failed"] = str(exc)
        emit(result)
        return WRONG_ANSWER
    finally:
        sampler.stop()
    return emit(result)


def emit(result):
    sys.stdout.write(json.dumps(result) + "\n")
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
