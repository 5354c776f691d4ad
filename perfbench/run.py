#!/usr/bin/env python3
"""Re-encode benchmark: plan+encode, full scans and selective reads of a
container through the engine's public entry points, from one process.

    python3 perfbench/run.py --workload webpages --seed 1 --seconds 15 --trace 0

Run from the root of the repository. One run:

1. set-up: starts Ray sized to this host's CPUs and warms its workers
   (``util.warm_cluster``), timed from the start of the process;
2. makes (or reuses) the seeded inputs and their expected answers in a
   child process (``workloads.prepare``);
3. one untimed warm-up round;
4. measured rounds of plan+encode, full scans, lookups of keys that
   exist, lookups of keys no part holds, and selective filters, until at
   least ``--seconds`` have passed and at least three rounds are done;
   every operation's row count is checked;
5. after the peak memory is read, one more full scan checked part by part
   against the source shards, every probe once more with its rows checked
   against the source, and the pruning check, so that no copy the checks
   make counts toward ``driver_peak_rss_mb``;
6. with ``--trace 1``, the per-layer pass of ``layers.py``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer ones with ``--trace 1``. A
traced run also writes its spans to ``perfbench/.out/``.
"""

import argparse
import glob
import json
import logging
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import warnings
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CACHE = os.path.join(HERE, ".cache")
OUT = os.path.join(HERE, ".out")
sys.path.insert(0, ROOT)
# set before any import that reads them: Ray's usage reporting stays off
# (no network), and the engine's temporary files (its compiled FSST
# kernel) stay inside the checkout
os.environ["RAY_USAGE_STATS_ENABLED"] = "0"
os.environ["TMPDIR"] = os.path.join(CACHE, "tmp")

import pyarrow as pa  # noqa: E402

from checks import OpLog, check_parts, check_result, check_rows  # noqa: E402
from tracing import NoTracer, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: every run measures at least this many rounds, so that each run has at
#: least three encodes and at least 100 lookups, three of each key (so a
#: key's median latency is not one sample)
MIN_ROUNDS = 3
#: the blocks in flight are a few MB; a small store leaves memory to others
OBJECT_STORE_BYTES = 768 << 20
#: Ray binds a Unix socket at <temp>/session_<date>_<pid>/sockets/
#: plasma_store, and a socket path holds at most 107 bytes, so <temp> may
#: hold about 43; ray.init fails with "AF_UNIX path length cannot exceed
#: 107 bytes" for a checkout path of more than about 20 characters
MAX_RAY_TEMP_LEN = 40


def percentile(values: list, q: float) -> float:
    """Nearest-rank percentile."""
    xs = sorted(values)
    return xs[max(int(-(-q * len(xs) // 100)) - 1, 0)]


class Bench:
    def __init__(self, workload: str, seed: int, seconds: float,
                 trace: bool) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.tr = Tracer() if trace else NoTracer()
        self.ops = OpLog()
        self.errors: list[str] = []
        # Ray is sized to what `nproc` prints for this process
        self.ncpu = int(subprocess.run(["nproc"], capture_output=True,
                                       check=True, text=True).stdout)
        self.work = os.path.join(CACHE, "work", str(os.getpid()))
        self.enc_dir = os.path.join(self.work, "container")
        self.walls: dict[str, list] = defaultdict(list)
        self.hit_walls: dict[int, list] = defaultdict(list)
        self.encoded: list[int] = []
        self.session_dir = None
        self.plan = None

    # -- set-up ----------------------------------------------------------
    def setup(self) -> None:
        t0 = time.perf_counter()
        import ray
        import psutil  # vendored by Ray

        ray_tmp = os.path.join(CACHE, "ray")
        if len(ray_tmp) > MAX_RAY_TEMP_LEN:
            # checkout path too long for the socket: Ray's usual root; the
            # session directory is removed again when the run ends
            ray_tmp = "/tmp/ray"
        ray.init(address="local", num_cpus=self.ncpu,
                 object_store_memory=OBJECT_STORE_BYTES,
                 include_dashboard=False, log_to_driver=False,
                 logging_level=logging.ERROR, _temp_dir=ray_tmp)
        node = ray._private.worker._global_node
        self.session_dir = node.get_session_dir_path()
        # Ray's own SIGTERM handler aborts the process; this one exits
        # normally, so close() still stops Ray and removes the run's files
        signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
        t1 = time.perf_counter()
        import ray.data

        ctx = ray.data.DataContext.get_current()
        ctx.enable_progress_bars = False
        logging.getLogger("ray.data").setLevel(logging.WARNING)
        from plugin_serdes_ray.util import warm_cluster

        warm_cluster(self.ncpu)
        t2 = time.perf_counter()
        me = psutil.Process()
        self.setup_s = time.time() - me.create_time()
        self.ray_init_s = t1 - t0
        self.warm_s = t2 - t1

    def prepare_inputs(self) -> None:
        """Inputs and expected answers come from a child process, so that
        the reference computations never count toward this process's
        peak memory."""
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "workloads.py"),
             self.workload, str(self.seed), os.path.join(CACHE, "inputs")],
            stdout=subprocess.PIPE, check=True, text=True).stdout
        path = out.strip().splitlines()[-1]
        with open(path) as f:
            self.info = json.load(f)
        self.files = [os.path.join(os.path.dirname(path), f)
                      for f in self.info["files"]]
        self.schema = pa.ipc.read_schema(
            pa.py_buffer(bytes.fromhex(self.info["schema"])))
        self.raw_mb = self.info["raw_bytes"] / 1e6

    # -- operations ------------------------------------------------------
    def encode(self) -> tuple:
        from plugin_serdes_ray.encode import (
            encode_files, sample_plan_from_files)

        shutil.rmtree(self.enc_dir, ignore_errors=True)
        with self.tr.span("op.encode"):
            t0 = time.perf_counter()
            with self.tr.span("plan.sample_plan_from_files"):
                plan = sample_plan_from_files(self.files)
            t1 = time.perf_counter()
            with self.tr.span("encode.encode_files"):
                summary = encode_files(self.files, self.enc_dir, plan=plan,
                                       resume=False, concurrency=self.ncpu)
            t2 = time.perf_counter()
        self.plan = plan
        on_disk = sum(os.path.getsize(p) for p in
                      glob.glob(os.path.join(self.enc_dir, "*.grck")))
        if summary["enc_bytes"] != on_disk:
            self.errors.append(f"encode reports {summary['enc_bytes']} "
                               f"bytes, parts hold {on_disk} on disk")
        if summary["rows"] != self.info["rows"]:
            self.errors.append(f"encode wrote {summary['rows']} rows of "
                               f"{self.info['rows']}")
        if on_disk > self.info["gzip_bytes"]:
            self.errors.append(f"container {on_disk} B exceeds parquet-gzip "
                               f"{self.info['gzip_bytes']} B")
        return t1 - t0, t2 - t1, on_disk

    def _decode(self, **kw):
        from plugin_serdes_ray.encode import decode_dataset

        return decode_dataset(self.enc_dir, concurrency=self.ncpu,
                              **kw).iter_batches(batch_size=None,
                                                 batch_format="pyarrow")

    def scan(self, check: bool) -> float:
        rows = 0
        with self.tr.span("op.scan"):
            t0 = time.perf_counter()
            if check:
                def blocks():
                    nonlocal rows
                    for b in self._decode():
                        rows += b.num_rows
                        yield b

                err = check_parts(blocks(), self.info["part_digests"],
                                  self.schema)
                if err:
                    self.errors.append(f"round trip: {err}")
            else:
                for b in self._decode():
                    rows += b.num_rows
            wall = time.perf_counter() - t0
        if rows != self.info["rows"]:
            self.errors.append(f"scan returned {rows} rows of "
                               f"{self.info['rows']}")
        return wall

    def probe(self, kind: str, exp: dict, full: bool = False) -> float:
        """One selective read. ``full`` checks its rows against the
        source; otherwise only their count and schema are checked."""
        pred = (exp["column"], "==", exp["value"])
        with self.tr.span("op." + kind, value=str(exp["value"])):
            t0 = time.perf_counter()
            tables = list(self._decode(columns=exp["columns"],
                                       predicate=pred))
            wall = time.perf_counter() - t0
        schema = self.schema if exp["columns"] is None else pa.schema(
            [self.schema.field(c) for c in exp["columns"]])
        err = (check_result if full else check_rows)(tables, exp, schema)
        if err:
            self.errors.append(f"{kind} {exp['value']!r}: {err}")
        return wall

    # -- rounds ----------------------------------------------------------
    def warm_round(self) -> None:
        """First encode and scan of a process run slower than later ones;
        this round is not timed."""
        probes = self.info["probes"]
        if self.ops.run(self.encode) is None:
            raise RuntimeError("warm-up encode failed: "
                               + "; ".join(self.ops.errors))
        self.ops.run(self.scan, False)
        for kind in ("hits", "misses", "filters"):
            self.ops.run(self.probe, kind, probes[kind][0])

    def round(self) -> None:
        probes = self.info["probes"]
        enc = self.ops.run(self.encode)
        if enc is not None:
            self.walls["plan"].append(enc[0])
            self.walls["encode"].append(enc[1])
            self.encoded.append(enc[2])
        for _ in range(WORKLOADS[self.workload]["scans"]):
            w = self.ops.run(self.scan, False)
            if w is not None:
                self.walls["scan"].append(w)
        for i, exp in enumerate(probes["hits"]):
            w = self.ops.run(self.probe, "hits", exp)
            if w is not None:
                self.walls["hits"].append(w)
                self.hit_walls[i].append(w)
        for kind in ("misses", "filters"):
            for exp in probes[kind]:
                w = self.ops.run(self.probe, kind, exp)
                if w is not None:
                    self.walls[kind].append(w)

    def verify(self) -> None:
        """The checks that copy rows, made after the measured rounds: one
        full scan compared part by part with the source shards, and every
        probe's rows compared with the rows pyarrow found."""
        probes = self.info["probes"]
        self.ops.run(self.scan, True)
        for kind in ("hits", "misses", "filters"):
            for exp in probes[kind]:
                self.ops.run(self.probe, kind, exp, True)
        self.check_pruning()

    def check_pruning(self) -> None:
        """explain_pruning must keep every part whose source shard holds a
        match."""
        from plugin_serdes_ray.encode import explain_pruning
        from plugin_serdes_ray.state.checkpoint import read_manifest_entries

        shard_of = {e["file"]: self.files.index(e["input"]) for e in
                    read_manifest_entries(self.enc_dir).values()}
        probes = self.info["probes"]
        for exp in probes["hits"] + probes["filters"]:
            t = explain_pruning(self.enc_dir,
                                (exp["column"], "==", exp["value"]))
            kept = {shard_of[os.path.basename(f)] for f, k in
                    zip(t["file"].to_pylist(), t["kept"].to_pylist()) if k}
            dropped = sorted(set(exp["shards"]) - kept)
            if dropped:
                self.errors.append(f"pruning drops shard(s) {dropped} that "
                                   f"hold {exp['column']} == {exp['value']!r}")

    def run(self) -> dict:
        self.setup()
        t_prep = time.perf_counter()
        self.prepare_inputs()
        if self.trace:
            from layers import install_plan_span

            install_plan_span(self)
        t_warm = time.perf_counter()
        self.warm_round()
        t0 = time.perf_counter()
        rounds = 0
        while rounds < MIN_ROUNDS or time.perf_counter() - t0 < self.seconds:
            self.round()
            rounds += 1
        window_s = time.perf_counter() - t0
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        self.verify()
        if len(set(self.encoded)) > 1:
            print(f"note: encoded bytes differ between encodes: "
                  f"{sorted(set(self.encoded))}", file=sys.stderr)
        w = self.walls
        e2e = {
            "setup_s": (self.setup_s, "s"),
            "encode_mb_s": (statistics.median(
                self.raw_mb / (p + e) for p, e in zip(w["plan"], w["encode"])),
                "MB/s"),
            "encoded_bytes": (statistics.median(self.encoded), "bytes"),
            "scan_mb_s": (statistics.median(self.raw_mb / s
                                            for s in w["scan"]), "MB/s"),
            "lookup_p50_ms": (1e3 * statistics.median(w["hits"]), "ms"),
            # the slowest tenth of the keys, each at its median over the
            # rounds: a key's own work (the parts it keeps and decodes)
            # stays in, a burst of host load that slows one lookup drops out
            "lookup_p90_ms": (1e3 * percentile(
                [statistics.median(v) for v in self.hit_walls.values()], 90),
                "ms"),
            "miss_p50_ms": (1e3 * statistics.median(w["misses"]), "ms"),
            "filter_p50_ms": (1e3 * statistics.median(w["filters"]), "ms"),
            "driver_peak_rss_mb": (rss_mb, "MB"),
        }
        if self.trace:
            from layers import CODECS, measure_layers

            metrics = measure_layers(self)
        else:
            metrics = e2e
        for err in self.ops.errors + self.errors:
            print(f"check: {err}", file=sys.stderr)
        after_s = time.perf_counter() - t0 - window_s
        print(f"setup_s={self.setup_s:.2f} ray_init_s={self.ray_init_s:.2f} "
              f"warm_s={self.warm_s:.2f} prepare_s={t_warm - t_prep:.2f} "
              f"warmup_s={t0 - t_warm:.2f} rounds={rounds} "
              f"window_s={window_s:.2f} after_s={after_s:.2f} "
              f"lookups={len(w['hits'])}", file=sys.stderr)
        if self.trace:
            os.makedirs(OUT, exist_ok=True)
            self.tr.dump(
                os.path.join(OUT, f"trace-{self.workload}-{self.seed}.json"),
                {"workload": self.workload, "seed": self.seed,
                 "rounds": rounds, "window_s": window_s,
                 "plan": dict(self.plan.codecs),
                 "off_plan_codecs": [c for c in CODECS if c not in
                                     self.plan.codecs.values()],
                 "end_to_end": {k: v for k, (v, _) in e2e.items()},
                 "per_layer": {k: v for k, (v, _) in metrics.items()},
                 "errors": self.ops.errors + self.errors})
        return {"correct": not self.errors,
                "attempted": self.ops.attempted, "failed": self.ops.failed,
                "metrics": {k: {"value": v, "unit": u}
                            for k, (v, u) in metrics.items()}}

    def close(self) -> None:
        """Stop Ray and every process it started, wait until they have
        ended, and remove this run's container and Ray session files."""
        import ray

        if ray.is_initialized():
            import psutil

            procs = psutil.Process().children(recursive=True)
            ray.shutdown()
            _, alive = psutil.wait_procs(procs, timeout=20)
            for p in alive:
                p.kill()
            psutil.wait_procs(alive, timeout=10)
        if self.session_dir:
            shutil.rmtree(self.session_dir, ignore_errors=True)
        shutil.rmtree(self.work, ignore_errors=True)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    try:
        import plugin_serdes_ray  # noqa: F401
    except ImportError as e:
        print(f"perfbench: cannot import the engine from {ROOT}: {e}",
              file=sys.stderr)
        return 2
    os.makedirs(os.environ["TMPDIR"], exist_ok=True)
    warnings.filterwarnings("ignore", category=UserWarning, module="ray")
    bench = Bench(args.workload, args.seed, args.seconds, bool(args.trace))
    try:
        result = bench.run()
    finally:
        bench.close()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
