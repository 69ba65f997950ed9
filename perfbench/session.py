"""One benchmark run: set up, measure, check every output, report.

A run is a sequence of cycles, each of which sets up once and then
measures in rounds: a warm batch call, a share of the open loop and a
share of the closed loop. Spreading the samples of every metric in many
short stretches across the whole run, instead of one long stretch, keeps
the machine's speed drifting from landing on a single metric.
"""

from __future__ import annotations

import contextlib
import gc
import http.client
import itertools
import json
import os
import platform
import shutil
import statistics
import time
from pathlib import Path

import numpy as np

from perfbench import data as inputs
from perfbench.daemon import Daemon, connect, request
from perfbench.loadgen import (
    Outcome,
    Record,
    accounting,
    closed_loop,
    latency_summary,
    open_loop,
    percentile,
)
from perfbench.oracle import DenseKDE, label_ok
from perfbench.tracing import Tracer, instrument, nearest_ancestor, self_times
from perfbench.workloads import (
    CHECK_QUERIES,
    CLASSIFY_ROWS,
    END_TO_END_UNITS,
    INGEST_ROWS,
    PER_LAYER,
    ROUNDS,
    SETUPS,
    WORKLOADS,
    Workload,
)

from repro import TKDCClassifier, TKDCConfig
from repro.io.models import load_model, save_model
from repro.obs.buildinfo import build_info

#: Share of ``--seconds`` the open loop lasts at the workload's rate.
OPEN_SHARE = 0.75
#: Each round's closed loop repeats its open-loop operations this many times.
CLOSED_PASSES = 2
WARMUP_OPS = 16
TRAINING_SEED = 0
STAT_FIELDS = ("threshold_prunes_high", "threshold_prunes_low",
                "tolerance_prunes", "exhausted", "kernel_evaluations",
                "node_expansions", "grid_hits")
PHASES = ("warmup", "open", "closed")


def _stat_counts(clf) -> dict[str, int]:
    return {name: int(getattr(clf.stats, name)) for name in STAT_FIELDS}


class Session:
    """Runs one workload with one seed; :meth:`run` returns the report."""

    def __init__(self, workload: Workload, seed: int, seconds: float,
                 trace: bool, root: Path) -> None:
        self.w = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.root = root
        self.tracer = Tracer()
        self.work = root / ".perfbench" / f"work-{os.getpid()}"
        self.daemons: list[Daemon] = []
        self.daemon: Daemon | None = None
        #: The load generator's keep-alive connection to ``self.daemon``.
        self.conn = None
        self.phases: dict[str, dict] = {}
        self.setups: list[tuple[bool, float]] = []
        self.ready_s: list[float] = []
        self.batch_times: list[tuple[bool, float]] = []
        self.batch_labels: list[np.ndarray] = []
        self.batch_counts = None
        self.cycles: list[dict] = []
        self.peak_rss = 0.0

    # -- inputs ---------------------------------------------------------

    def make_inputs(self) -> None:
        w = self.w
        # One training set per workload, the same for every seed, so that
        # runs differ only in the queries and ingests the seed draws.
        train_rng = np.random.default_rng([TRAINING_SEED, w.stream])
        rng = np.random.default_rng([self.seed, w.stream])
        def sample(r: np.random.Generator, n: int) -> np.ndarray:
            return inputs.two_cluster(r, n, w.d)

        self.train = sample(train_rng, w.n_train)
        # At least one operation in every round's share of the loops.
        n_open = max(int(round(w.rate * self.seconds * OPEN_SHARE)), 4 * ROUNDS)
        self.kinds = [
            "ingest" if w.ingest_every and i % w.ingest_every == w.ingest_every - 1
            else "classify"
            for i in range(n_open)
        ]
        # The open loop uses every pool row once and the closed loop repeats
        # the same operations, so both see the same mix of cheap and costly rows.
        pool_rows = CLASSIFY_ROWS * n_open
        n_spread = int(round(w.spread_share * pool_rows))
        self.pool = inputs.query_pool(rng, sample(rng, pool_rows - n_spread), self.train, n_spread)
        batch_spread = int(round(w.spread_share * w.batch))
        self.batch = inputs.query_pool(
            rng, sample(rng, w.batch - batch_spread), self.train, batch_spread)
        self.check_rows = np.sort(rng.choice(
            self.batch.shape[0], min(CHECK_QUERIES, self.batch.shape[0]), replace=False))
        self.ingest_batches: list[np.ndarray] = []
        self.ingest_of: dict[int, int] = {}
        for i, kind in enumerate(self.kinds):
            if kind == "ingest":
                self.ingest_of[i] = len(self.ingest_batches)
                self.ingest_batches.append(sample(rng, INGEST_ROWS))
        self.config = TKDCConfig(p=w.p)

    def rows_for(self, op_index: int) -> np.ndarray:
        start = CLASSIFY_ROWS * (op_index % (self.pool.shape[0] // CLASSIFY_ROWS))
        return self.pool[start:start + CLASSIFY_ROWS]

    # -- tracing helpers ------------------------------------------------

    def span(self, traced: bool, name: str, **attrs):
        return self.tracer.span(name, **attrs) if traced else contextlib.nullcontext()

    def layers(self, traced: bool):
        return instrument(self.tracer) if traced else contextlib.nullcontext()

    # -- set-up ---------------------------------------------------------

    def warm_up(self) -> None:
        """Import and first-call costs, paid before anything is timed."""
        small = TKDCClassifier(self.config).fit(self.train[:1000])
        small.classify(self.pool[:64])

    def setup_once(self, k: int, traced: bool) -> None:
        gc.collect()
        t0 = time.perf_counter()
        with self.span(traced, "setup", index=k):
            with self.layers(traced), self.span(traced, "api.fit"):
                clf = TKDCClassifier(self.config).fit(self.train)
            model = self.work / f"model-{k}.tkdc"
            with self.span(traced, "io.save"):
                save_model(model, clf)
            spawned = time.perf_counter()
            with self.span(traced, "serve.ready"):
                self.spawn(model, k)
            self.ready_s.append(time.perf_counter() - spawned)
        self.setups.append((traced, time.perf_counter() - t0))
        self.clf = clf

    def spawn(self, model: Path, k: int) -> None:
        args = []
        if self.w.streaming:
            wal = self.work / f"wal-{k}"
            args = ["--streaming", "--wal-dir", str(wal), "--fsync-policy", "always"]
        daemon = Daemon(model, self.root / "src", self.work / f"daemon-{k}.log", args)
        self.daemons.append(daemon)
        daemon.wait_ready()
        self.daemon = daemon

    def close_conn(self) -> None:
        if self.conn is not None:
            self.conn.close()
            self.conn = None

    def stop_daemons(self) -> None:
        self.close_conn()
        for daemon in self.daemons:
            daemon.stop()
        self.daemons = []

    def io_roundtrip(self) -> None:
        model = self.work / "roundtrip.tkdc"
        with self.span(self.trace, "io.save"):
            t0 = time.perf_counter()
            save_model(model, self.clf)
            self.save_s = time.perf_counter() - t0
        with self.span(self.trace, "io.load"):
            t0 = time.perf_counter()
            loaded = load_model(model)
            self.load_s = time.perf_counter() - t0
        ok = loaded.threshold.value == self.clf.threshold.value
        self.phases["io"] = {"attempted": 1, "failed": 0 if ok else 1}

    # -- measurement ----------------------------------------------------

    def batch_call(self, traced: bool) -> None:
        """One warm ``classify()`` over the held-out batch; the first call's
        counter deltas are kept."""
        counts = _stat_counts(self.clf)
        with self.layers(traced), self.span(traced, "api.classify", kind="batch"):
            t0 = time.perf_counter()
            labels = self.clf.classify(self.batch)
            elapsed = time.perf_counter() - t0
        if self.batch_counts is None:
            self.batch_counts = (counts, _stat_counts(self.clf))
        self.batch_times.append((traced, elapsed))
        self.batch_labels.append(np.asarray([int(x) for x in labels]))

    def http_op(self, i: int, kind: str) -> Outcome:
        if kind == "ingest":
            body = {"points": self.ingest_batches[self.ingest_of[i]].tolist()}
            path = "/ingest"
        else:
            body = {"points": self.rows_for(i).tolist()}
            path = "/classify"
        try:
            if self.conn is None:
                self.conn = connect(self.daemon.host, self.daemon.port)
            status, raw = request(self.conn, "POST", path, json.dumps(body).encode())
        except (OSError, http.client.HTTPException) as exc:  # timeout or reset
            self.close_conn()
            return Outcome(False, detail={"error": repr(exc)})
        if status != 200:
            return Outcome(False, refused=status in (429, 503), detail={"status": status})
        reply = json.loads(raw)
        if kind == "ingest":
            return Outcome(reply.get("ingested") == INGEST_ROWS, detail={"j": self.ingest_of[i]})
        return Outcome(True, detail={
            "i": i, "labels": reply["labels"], "threshold": reply["threshold"],
            "elapsed_ms": reply["elapsed_ms"],
        })

    def run_cycle(self, k: int, n_cycles: int) -> None:
        """Warm-up ops, then ``ROUNDS`` rounds of a batch call (an untraced
        and a traced one in a traced run), a share of the open loop and the
        same operations again in a closed loop."""
        n_open, n_shares = len(self.kinds), n_cycles * ROUNDS
        gc.collect()
        self.clf.classify(self.batch[:256])
        cycle = {"open": [], "closed": [], "closed_s": [], "open_snaps": []}
        start = k * ROUNDS * n_open // n_shares
        cycle["warmup"], _ = closed_loop(
            WARMUP_OPS, lambda j, kind: self.http_op(start + j, kind))
        cycle["first"] = self.snap()
        for share in range(k * ROUNDS, (k + 1) * ROUNDS):
            for traced in ((False, True) if self.trace else (False,)):
                self.batch_call(traced)
            first, last = share * n_open // n_shares, (share + 1) * n_open // n_shares
            before = self.snap()
            cycle["open"] += open_loop(
                self.kinds[first:last], self.w.rate,
                lambda j, kind: self.http_op(first + j, kind))
            cycle["open_snaps"].append((before, self.snap()))
            records, elapsed = closed_loop(
                CLOSED_PASSES * (last - first),
                lambda j, kind: self.http_op(first + j % (last - first), kind))
            cycle["closed"] += records
            cycle["closed_s"].append(elapsed)
        cycle["last"] = self.snap()
        self.close_conn()
        self.peak_rss = max(self.peak_rss, self.daemon.peak_rss_mb())
        self.cycles.append(cycle)

    def snap(self) -> dict:
        return {"metrics": self.daemon.metrics(), "statz": self.daemon.get_json("/statz")}

    # -- checks ---------------------------------------------------------

    def check_batch(self) -> None:
        kde = DenseKDE(self.train, self.clf.kernel.bandwidth)
        queries = self.batch[self.check_rows]
        t0 = time.perf_counter()
        dens = kde.density(queries)
        self.floor_s = time.perf_counter() - t0
        t = self.clf.threshold.value
        eps = self.config.epsilon
        first = self.batch_labels[0][self.check_rows]
        wrong = sum(0 if label_ok(lab, f, t, eps) else 1 for lab, f in zip(first, dens))
        unstable = sum(int(np.any(labels != self.batch_labels[0]))
                       for labels in self.batch_labels[1:])
        self.phases["batch"] = {
            "attempted": len(self.batch_labels), "checked_queries": len(self.check_rows),
            "wrong_labels": wrong, "calls_disagreeing": unstable,
            "failed": (1 if wrong else 0) + unstable,
        }

    def check_ops(self) -> None:
        """Check every classify reply; a wrong label fails its operation.

        On a streaming daemon the exact density includes every ingest of
        the same cycle acknowledged before the request was sent, and some
        subset of those in flight while it ran.
        """
        kde = DenseKDE(self.train, self.clf.kernel.bandwidth)
        ingest_kde = None
        if self.ingest_batches:
            ingest_kde = DenseKDE(np.concatenate(self.ingest_batches), self.clf.kernel.bandwidth)
        t = self.clf.threshold.value
        eps = self.config.epsilon
        n = self.train.shape[0]
        wrong = dict.fromkeys(PHASES, 0)
        for cycle in self.cycles:
            ingest_done, ingest_sent = {}, {}
            for r in cycle["open"]:
                if r.kind == "ingest" and r.outcome.ok:
                    ingest_done[r.outcome.detail["j"]] = r.done
                    ingest_sent[r.outcome.detail["j"]] = r.sent
            for phase in PHASES:
                for r in cycle[phase]:
                    if r.kind != "classify" or not r.outcome.ok:
                        continue
                    detail = r.outcome.detail
                    rows = self.rows_for(detail["i"])
                    base = kde.sums(rows)
                    states = [(base, n)]
                    if ingest_done:
                        per_batch = ingest_kde.kernel_matrix(rows).reshape(
                            rows.shape[0], len(self.ingest_batches), INGEST_ROWS).sum(axis=2)
                        applied = [j for j, done in ingest_done.items() if done <= r.sent]
                        maybe = [j for j, sent in ingest_sent.items()
                                 if sent < r.done and j not in applied]
                        subsets = (itertools.chain.from_iterable(
                            itertools.combinations(maybe, c) for c in range(len(maybe) + 1))
                            if len(maybe) <= 4 else [(), tuple(maybe)])
                        states = [
                            (base + per_batch[:, applied + list(more)].sum(axis=1),
                             n + INGEST_ROWS * (len(applied) + len(more)))
                            for more in subsets
                        ]
                    threshold = detail.get("threshold", t)
                    if not all(
                        any(label_ok(label, sums[q] / count, threshold, eps)
                            for sums, count in states)
                        for q, label in enumerate(detail["labels"])
                    ):
                        wrong[phase] += 1
                        r.outcome.ok = False
                        detail["wrong_label"] = True
        for phase in PHASES:
            records = self.records(phase)
            self.phases[phase] = {**accounting(records), "wrong_label_ops": wrong[phase]}
        self.phases["open"]["late_p90_ms"] = 1e3 * percentile(
            [r.late for r in self.records("open")], 90.0)

    def records(self, phase: str) -> list[Record]:
        return [r for cycle in self.cycles for r in cycle[phase]]

    # -- the run --------------------------------------------------------

    def run(self) -> tuple[dict, dict]:
        self.work.mkdir(parents=True, exist_ok=True)
        try:
            self.make_inputs()
            self.warm_up()
            order = [False, True, False, True] if self.trace else [False] * SETUPS
            for k, traced in enumerate(order):
                self.stop_daemons()
                self.setup_once(k, traced)
                if k == 0:
                    self.io_roundtrip()
                self.run_cycle(k, len(order))
            self.stop_daemons()
            self.check_batch()
            self.check_ops()
            self.phases["setup"] = {"attempted": len(self.setups), "failed": 0}
            return self.report()
        finally:
            self.stop_daemons()
            shutil.rmtree(self.work, ignore_errors=True)

    # -- report ---------------------------------------------------------

    def report(self) -> tuple[dict, dict]:
        w = self.w
        ops = latency_summary(self.records("open"))
        untraced_setup = [s for traced, s in self.setups if not traced]
        untraced_batch = [b for traced, b in self.batch_times if not traced]
        end_to_end = {
            "setup_s": statistics.median(untraced_setup),
            "batch_qps": self.batch.shape[0] / min(untraced_batch),
            "op_p50_ms": ops["p50_ms"],
            "op_p90_ms": ops["p90_ms"],
            # Completions over closed-loop time: on ingest_mix the rounds run at
            # two speeds (before and after the daemon folds buffered ingests
            # into its sketch), and a median of rounds would jump between them.
            "classify_rps": sum(1 for r in self.records("closed") if r.outcome.ok)
            / sum(s for cycle in self.cycles for s in cycle["closed_s"]),
            "peak_rss_mb": self.peak_rss,
        }
        attempted = sum(p.get("attempted", 0) for p in self.phases.values())
        failed = sum(p.get("failed", 0) for p in self.phases.values())
        invariants = self.daemon_invariants()
        per_layer = self.per_layer(ops, attempted, failed)
        chosen = per_layer if self.trace else end_to_end
        units = {name: spec[0] for name, spec in PER_LAYER.items()} | END_TO_END_UNITS
        detail = {
            "workload": w.name, "seed": self.seed, "seconds": self.seconds,
            "trace": int(self.trace), "rate": w.rate, "connections": 1,
            "cycles": len(self.cycles), "rounds": ROUNDS,
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "build_info": build_info(),
            "phases": self.phases, "daemon_invariants": invariants,
            "op_latency": ops, "setup_s_each": [s for _, s in self.setups],
            "batch_s_each": [b for _, b in self.batch_times],
            "closed_s_each": [s for cycle in self.cycles for s in cycle["closed_s"]],
            "end_to_end": end_to_end, "per_layer": per_layer,
        }
        result = {
            "correct": failed == 0 and all(invariants.values()),
            "attempted": int(attempted), "failed": int(failed),
            "metrics": {name: {"value": float(v), "unit": units[name]}
                        for name, v in chosen.items()},
        }
        return result, detail

    def daemon_invariants(self) -> dict[str, bool]:
        """Each cycle's daemon accounted for every request it was sent."""
        out = {}
        for k, cycle in enumerate(self.cycles):
            statz = cycle["last"]["statz"]
            terminal = sum(statz[key] for key in (
                "completed", "shed", "rejected", "timed_out", "errors", "drained"))
            out[f"classify_accounted_{k}"] = statz["submitted"] == terminal
            out[f"ingest_accounted_{k}"] = (
                statz["ingest_submitted"] == statz["ingest_completed"] + statz["ingest_rejected"])
            if self.w.streaming:
                out[f"stream_accounting_ok_{k}"] = bool(statz["streaming"]["accounting"]["ok"])
        return out

    def per_layer(self, ops, attempted, failed) -> dict:
        n_batch = self.batch.shape[0]
        before, after = self.batch_counts
        delta = {k: after[k] - before[k] for k in before}
        by_kind = {kind: [r for r in self.records("open") if r.kind == kind]
                   for kind in ("classify", "ingest")}
        classify_lat = latency_summary(by_kind["classify"])
        ingest_lat = latency_summary(by_kind["ingest"])
        out = {
            "traverse.kernels_per_query": delta["kernel_evaluations"] / n_batch,
            "traverse.expansions_per_query": delta["node_expansions"] / n_batch,
            "grid.hit_frac": delta["grid_hits"] / n_batch,
            "prune.threshold_frac":
                (delta["threshold_prunes_high"] + delta["threshold_prunes_low"]) / n_batch,
            "prune.tolerance_frac": delta["tolerance_prunes"] / n_batch,
            "prune.exhausted_frac": delta["exhausted"] / n_batch,
            "io.save_s": self.save_s,
            "io.load_s": self.load_s,
            "serve.ready_s": statistics.median(self.ready_s) if self.ready_s else 0.0,
            "gen.late_p90_ms": self.phases["open"]["late_p90_ms"],
            "open.classify_p50_ms": classify_lat["p50_ms"],
            "open.ingest_p50_ms": ingest_lat["p50_ms"] or 0.0,
            "open.ingest_p90_ms": ingest_lat["p90_ms"] or 0.0,
            "op.samples": ops["samples"],
            "error_rate": failed / attempted,
            "floor.dense_exact_s": self.floor_s,
        }
        out.update(self.span_layers())
        out.update(self.daemon_layers())
        return {name: out[name] for name in PER_LAYER}

    def span_layers(self) -> dict:
        spans = self.tracer.spans
        selfs = self_times(spans)
        owners = {"threshold.bootstrap", "api.fit", "api.classify"}
        per_root: dict[int, dict[str, float]] = {}
        for i, span in enumerate(spans):
            acc = per_root.setdefault(span.root, {})
            key = span.name
            if span.name == "traverse":
                owner = nearest_ancestor(spans, i, owners)
                key = {"threshold.bootstrap": "traverse.bootstrap",
                       "api.fit": "traverse.score"}.get(owner, "traverse.classify")
            value = selfs[i] if span.name == "threshold.bootstrap" else span.duration
            acc[key] = acc.get(key, 0.0) + value
            if "rounds" in span.attrs:
                acc["rounds"] = acc.get("rounds", 0) + span.attrs["rounds"]
        setup_roots = [per_root[i] for i, s in enumerate(spans) if s.name == "setup"]
        batch_roots = [per_root[i] for i, s in enumerate(spans)
                       if s.name == "api.classify" and s.attrs.get("kind") == "batch"]

        def mean(rows, key):
            return statistics.fmean(r.get(key, 0.0) for r in rows) if rows else 0.0

        def median(xs):
            return statistics.median(xs) if xs else 0.0

        api = [i for i, s in enumerate(spans) if s.name in ("api.fit", "api.classify")]
        total = sum(spans[i].duration for i in api)
        covered = sum(spans[i].duration - selfs[i] for i in api)
        n_batch = self.batch.shape[0]

        def best_qps(traced: bool) -> float:
            times = [b for t, b in self.batch_times if t == traced]
            return n_batch / min(times) if times else 0.0

        return {
            "index.build_s": mean(setup_roots, "index.build"),
            "index.flatten_s": mean(setup_roots, "index.flatten"),
            "threshold.bootstrap_self_s": mean(setup_roots, "threshold.bootstrap"),
            "threshold.rounds": mean(setup_roots, "rounds"),
            "grid.build_s": mean(setup_roots, "grid.build"),
            "traverse.bootstrap_s": mean(setup_roots, "traverse.bootstrap"),
            "traverse.score_s": mean(setup_roots, "traverse.score"),
            "traverse.classify_s": mean(batch_roots, "traverse.classify"),
            "trace.setup_s": median([s for traced, s in self.setups if traced]),
            "trace.setup_untraced_s": median([s for traced, s in self.setups if not traced]),
            "trace.batch_qps": best_qps(True),
            "trace.batch_qps_untraced": best_qps(False),
            "trace.coverage": covered / total if total else 0.0,
        }

    def daemon_layers(self) -> dict:
        """Deltas of ``/metrics`` and ``/statz``, summed over every share of
        the open loop (``open``) or over whole cycles (``cycle``)."""
        out = {name: 0.0 for name in PER_LAYER
               if name.split(".")[0] in ("serve", "wal", "stream") and name != "serve.ready_s"}

        def delta(source: str, over: str, *path) -> float:
            total = 0.0
            for cycle in self.cycles:
                pairs = cycle["open_snaps"] if over == "open" else [(cycle["first"], cycle["last"])]
                for before, after in pairs:
                    x, y = before[source], after[source]
                    for key in path[:-1]:
                        x, y = x[key], y[key]
                    total += y.get(path[-1], 0.0) - x.get(path[-1], 0.0)
            return total

        ok = [r for r in self.records("open") if r.kind == "classify" and r.outcome.ok]
        classify_ms = statistics.fmean(r.outcome.detail["elapsed_ms"] for r in ok)
        client_ms = statistics.fmean(1e3 * (r.done - r.sent) for r in ok)
        req = "tkdc_serve_request_latency_seconds"
        daemon_ms = (1e3 * delta("metrics", "open", req + "_sum")
                     / delta("metrics", "open", req + "_count"))
        out.update({
            "serve.classify_mean_ms": classify_ms,
            "serve.overhead_mean_ms": daemon_ms - classify_ms,
            "serve.transport_mean_ms": client_ms - daemon_ms,
            "serve.kernels_per_request":
                delta("statz", "open", "traversal", "kernel_evaluations")
                / delta("statz", "open", "completed"),
            "serve.shed": delta("statz", "cycle", "shed"),
            "serve.timed_out": delta("statz", "cycle", "timed_out"),
            "serve.degraded": delta("statz", "cycle", "degraded"),
            "serve.errors": delta("statz", "cycle", "errors"),
        })
        if self.w.streaming:
            wal = 'tkdc_wal_append_seconds_{}{{type="ingest"}}'
            refits = sum(
                v - cycle["first"]["metrics"].get(k, 0.0)
                for cycle in self.cycles
                for k, v in cycle["last"]["metrics"].items()
                if k.startswith("tkdc_refit_total"))
            out.update({
                "wal.append_mean_ms": 1e3 * delta("metrics", "open", wal.format("sum"))
                / delta("metrics", "open", wal.format("count")),
                "wal.fsyncs_per_ingest": delta("statz", "open", "streaming", "wal", "fsyncs")
                / delta("statz", "open", "ingest_completed"),
                "stream.n_buffered_end":
                    self.cycles[-1]["last"]["statz"]["streaming"]["n_buffered"],
                "stream.refits": refits,
            })
        return out


def run(workload: str, seed: int, seconds: float, trace: bool,
        root: Path) -> tuple[dict, dict, Tracer]:
    session = Session(WORKLOADS[workload], seed, seconds, trace, root)
    result, detail = session.run()
    return result, detail, session.tracer
