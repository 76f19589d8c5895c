//! `probe-poll`: lock-free reads beside writes.
//!
//! The unexpected queue starts with a backlog of 2048 messages, eight from
//! each of 256 sources. A reader thread polls `iprobe` on concrete sources
//! (any tag), as an `MPI_Iprobe` progress loop does; every probe walks the
//! published seqlock rows of all shards. A writer thread delivers one new
//! message and consumes its source's oldest one at a fixed rate
//! ([`WRITER_FLOWS_PER_S`]) through the same batched write path
//! `ingest-shallow` drives, so the backlog holds at 2048 and every probe
//! must hit. The read path does the work here; `ingest-shallow` runs the
//! same write path without readers, so a read-path change that moves cost
//! onto writers shows there.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use spc_core::{Envelope, RecvSpec, ANY_TAG};
use spc_workload::{Popularity, RequestGen, TrafficCfg};

use crate::ingest::{engine, Batched, BATCH, SHARDS};
use crate::measure::{
    median, ns, pct, quantile, ratio, run_pair, thread_cpu_ns, time_setups, traced, Grid, Series,
    INTERVALS,
};
use crate::report::{host, provenance, Report};

const SOURCES: usize = 256;
/// Queued messages per source; the backlog is `SOURCES * PER_SOURCE`.
const PER_SOURCE: usize = 8;
/// The writer's fixed rate, flows (one delivery plus one consumption) per
/// second.
pub const WRITER_FLOWS_PER_S: f64 = 2_000.0;

/// A message payload: its arrival serial and its source, so a probe answer
/// can be checked against the source it asked for.
fn payload(serial: u64, src: usize) -> u64 {
    (serial << 8) | src as u64
}

fn uniform(seed: u64) -> RequestGen {
    RequestGen::new(TrafficCfg {
        sources: SOURCES as u32,
        tags: 1,
        popularity: Popularity::Uniform,
        unexpected_frac: 0.0,
        churn: None,
        seed,
    })
}

/// The writer's model of the queue: per source, the `(tag, payload)` of
/// each queued message, oldest first.
struct Model {
    queued: Vec<VecDeque<(i32, u64)>>,
    next_tag: Vec<i32>,
    serial: u64,
}

impl Model {
    fn deliver(&mut self, src: usize) -> (Envelope, u64) {
        let tag = self.next_tag[src];
        self.next_tag[src] += 1;
        let p = payload(self.serial, src);
        self.serial += 1;
        self.queued[src].push_back((tag, p));
        (Envelope::new(src as i32, tag, 0), p)
    }

    fn consume(&mut self, src: usize) -> RecvSpec {
        let (tag, _) = self.queued[src]
            .pop_front()
            .expect("every source keeps a backlog");
        RecvSpec::new(src as i32, tag, 0)
    }

    /// Whether `queued`, payloads in the engine's FIFO order, holds
    /// exactly the model's messages with each source's in arrival order.
    /// (Order across sources is the drain order, which the model does not
    /// fix: ops take their stamps when a ring is drained.)
    fn matches(&self, queued: &[u64]) -> bool {
        let mut per_source = vec![Vec::new(); SOURCES];
        for &p in queued {
            per_source[(p & 0xFF) as usize].push(p);
        }
        per_source
            .iter()
            .zip(&self.queued)
            .all(|(got, want)| got.iter().eq(want.iter().map(|(_, p)| p)))
    }
}

struct Shared {
    eng: Batched,
    stop: AtomicBool,
}

/// An engine holding the backlog, and the writer's model of it.
fn build() -> (Shared, Model) {
    let sh = Shared {
        eng: engine(),
        stop: AtomicBool::new(false),
    };
    let mut m = Model {
        queued: vec![VecDeque::new(); SOURCES],
        next_tag: vec![0; SOURCES],
        serial: 0,
    };
    let p = sh.eng.producer(0);
    for _ in 0..PER_SOURCE {
        for src in 0..SOURCES {
            let (env, h) = m.deliver(src);
            p.arrival(env, h);
        }
    }
    sh.eng.flush_all();
    (sh, m)
}

#[derive(Default)]
struct WriterOut {
    flows: u64,
    lat: Vec<Vec<u64>>,
    gen_ns: u64,
    ingest_ns: u64,
    ingest_calls: u64,
    flush_ns: u64,
    flush_ops: u64,
    flushes: u64,
    flushed: u64,
    backlog_max: usize,
    late_ns: Vec<u64>,
    traced_flows: u64,
}

fn writer(sh: &Shared, m: &mut Model, grid: Grid, seed: u64, trace: bool) -> WriterOut {
    let p = sh.eng.producer(0);
    let mut gen = uniform(seed);
    let period = Duration::from_secs_f64(1.0 / WRITER_FLOWS_PER_S);
    let end = grid.at(INTERVALS);
    let mut out = WriterOut {
        lat: vec![Vec::new(); INTERVALS],
        ..Default::default()
    };
    let mut due = grid.start;
    while due < end {
        // Between flows the writer sleeps, leaving the cores to the reader;
        // a late wake-up shows in the writer's own latency, which runs from
        // the due time.
        let now = Instant::now();
        if now < due {
            std::thread::sleep(due - now);
        }
        let now = Instant::now();
        let k = grid.interval(due);
        let tr = traced(trace, k);
        if tr {
            out.late_ns.push(ns(now - due));
        }
        let g = tr.then(Instant::now);
        let src = gen.next_request().source as usize;
        if let Some(g) = g {
            out.gen_ns += ns(g.elapsed());
        }
        let e = tr.then(Instant::now);
        let (env, h) = m.deliver(src);
        p.arrival(env, h);
        p.post_recv(m.consume(src), out.flows);
        let f = Instant::now();
        if tr {
            out.backlog_max = out.backlog_max.max(sh.eng.pending());
        }
        let applied = p.flush();
        let t = Instant::now();
        out.flushed += applied as u64;
        if let Some(e) = e {
            out.ingest_ns += ns(f - e);
            out.ingest_calls += 2;
            out.flush_ns += ns(t - f);
            out.flush_ops += applied as u64;
            out.flushes += 1;
            out.traced_flows += 1;
        }
        out.lat[k].push(ns(t - due));
        out.flows += 1;
        due += period;
    }
    sh.stop.store(true, Ordering::Release);
    out
}

#[derive(Default)]
struct ReaderOut {
    probes: Vec<u64>,
    cpu_ns: Vec<u64>,
    lat: Vec<Vec<u64>>,
    hits: u64,
    misses: u64,
    wrong: u64,
    gen_ns: u64,
    iprobe_ns: u64,
    traced_probes: u64,
}

fn reader(sh: &Shared, grid: Grid, seed: u64, trace: bool) -> ReaderOut {
    let mut gen = uniform(seed ^ 0x5052_4f42);
    let mut out = ReaderOut {
        probes: vec![0; INTERVALS],
        cpu_ns: vec![0; INTERVALS],
        lat: (0..INTERVALS)
            .map(|_| Vec::with_capacity(1 << 16))
            .collect(),
        ..Default::default()
    };
    let mut k = 0;
    let mut cpu = thread_cpu_ns();
    while !sh.stop.load(Ordering::Acquire) {
        let tr = traced(trace, k);
        let g = tr.then(Instant::now);
        let src = gen.next_request().source;
        if let Some(g) = g {
            out.gen_ns += ns(g.elapsed());
        }
        // The reader never blocks, so a probe is timed in the thread's
        // CPU time: a preemption by the host would otherwise add its
        // milliseconds to whichever probe it lands in.
        let c0 = thread_cpu_ns();
        let got = sh.eng.inner().iprobe(RecvSpec::new(src, ANY_TAG, 0));
        let c1 = thread_cpu_ns();
        let d = c1 - c0;
        match got {
            Some((p, _)) if p & 0xFF == src as u64 => out.hits += 1,
            Some(_) => out.wrong += 1,
            None => out.misses += 1,
        }
        let now_k = grid.interval(Instant::now());
        if now_k != k {
            out.cpu_ns[k] = c1 - cpu;
            cpu = c1;
            k = now_k;
        }
        if k >= INTERVALS {
            break;
        }
        if tr {
            out.iprobe_ns += d;
            out.traced_probes += 1;
        }
        out.probes[k] += 1;
        out.lat[k].push(d);
    }
    // The writer may stop the run before a probe lands past the last
    // interval; close that interval's CPU time here.
    if k < INTERVALS {
        out.cpu_ns[k] = thread_cpu_ns() - cpu;
    }
    out
}

/// Runs `probe-poll` for `seconds` and reports it.
pub fn run(seed: u64, seconds: f64, trace: bool) -> Report {
    let mut r = Report::new("probe-poll", "probe");
    provenance(&mut r, seed, 0);
    r.info("shards", SHARDS);
    r.info("batch", BATCH);
    r.info("backlog", SOURCES * PER_SOURCE);
    r.info("writer_flows_per_s", WRITER_FLOWS_PER_S);

    let (setup_s, (sh, mut model)) = time_setups(build);
    let base_locks = sh.eng.lock_stats();
    let base_snap = sh.eng.inner().snap_read_stats();

    let (spawn_s, grid, mut wr, mut rd) = run_pair(
        seconds,
        |g| writer(&sh, &mut model, g, seed, trace),
        |g| reader(&sh, g, seed, trace),
    );
    r.set("setup_s", setup_s);
    r.set("spawn_s", spawn_s);

    let secs = grid.len.as_secs_f64();
    let (mut probes, mut probes_traced, mut flows) =
        (Series::default(), Series::default(), Series::default());
    let mut writer_rate = Vec::new();
    for k in 0..INTERVALS {
        let series = if traced(trace, k) {
            &mut probes_traced
        } else {
            &mut probes
        };
        series.close(rd.probes[k], rd.cpu_ns[k] as f64 / 1e9, &mut rd.lat[k]);
        if !traced(trace, k) {
            writer_rate.push(wr.lat[k].len() as f64 / secs);
            flows.close(wr.lat[k].len() as u64, secs, &mut wr.lat[k]);
        }
    }
    r.set("probes_per_s", probes.rate());
    r.set("probe_p50_us", probes.p50_us());
    r.set("probe_p75_us", probes.p75_us());
    r.set("probe_p90_us", probes.p90_us());
    r.set("probe_p99_us", probes.p99_us());
    r.set("flows_per_s", flows.rate());
    r.set("flow_p50_us", flows.p50_us());
    r.set("flow_p75_us", flows.p75_us());
    r.set("flow_p90_us", flows.p90_us());
    r.set("flow_p99_us", flows.p99_us());
    r.info("probe_samples", probes.samples);
    r.info("flow_samples", flows.samples);

    // Correctness: every probe answered with a message from the source it
    // asked for; every consumption matched; the queue holds exactly the
    // backlog the writer's model holds, in the same FIFO order.
    let eng = &sh.eng;
    let stats = eng.stats();
    let all_probes = rd.hits + rd.misses + rd.wrong;
    r.attempted = all_probes + wr.flows;
    r.failed = rd.misses + rd.wrong + wr.flows.saturating_sub(stats.umq_hits);
    r.require(rd.wrong == 0, || {
        format!("{} probes answered with another source's message", rd.wrong)
    });
    r.require(rd.misses == 0, || {
        format!(
            "{} probes missed a source that had queued messages",
            rd.misses
        )
    });
    r.require(
        eng.pending() == 0 && eng.enqueued() == eng.drained(),
        || {
            format!(
                "rings not drained: pending {} enqueued {} drained {}",
                eng.pending(),
                eng.enqueued(),
                eng.drained()
            )
        },
    );
    r.require(stats.umq_hits == wr.flows && stats.prq_hits == 0, || {
        format!(
            "umq_hits {} (want {}) prq_hits {} (want 0)",
            stats.umq_hits, wr.flows, stats.prq_hits
        )
    });
    let (prq, umq) = eng.queue_lens();
    r.require(prq == 0 && umq == SOURCES * PER_SOURCE, || {
        format!("queues at prq {prq} umq {umq}, want 0 and the backlog")
    });
    r.require(model.matches(&eng.inner().queue_ids().1), || {
        "queued messages differ from the writer's model".to_string()
    });
    if let Err(e) = eng.validate() {
        r.require(false, || format!("engine invariants: {e}"));
    }

    // Self-check: every probe hit, and the writer kept its fixed rate.
    let hit_pct = pct(rd.hits as f64, all_probes as f64);
    let achieved = median(&writer_rate);
    r.set("seqsnap.probe_hit_pct", hit_pct);
    r.set("writer_flows_per_s", achieved);
    r.set("engine.prq_depth_mean", stats.prq_search.mean());
    r.set("engine.umq_depth_mean", stats.umq_search.mean());
    r.set(
        "engine.match_pct",
        pct(
            stats.prq_hits as f64,
            (stats.prq_hits + stats.umq_appends) as f64,
        ),
    );
    r.expect_range("seqsnap.probe_hit_pct", hit_pct, 100.0, 100.0);
    r.expect_range(
        "writer_flows_per_s",
        achieved,
        0.98 * WRITER_FLOWS_PER_S,
        1.02 * WRITER_FLOWS_PER_S,
    );

    // Per-layer counts over the whole run.
    let locks = eng.lock_stats();
    let acq = locks.acquisitions - base_locks.acquisitions;
    let contended = locks.contended - base_locks.contended;
    let snap = eng.inner().snap_read_stats();
    r.set(
        "seqsnap.retries_per_probe",
        ratio(
            (snap.probe_retries - base_snap.probe_retries) as f64,
            all_probes as f64,
        ),
    );
    r.set(
        "seqsnap.fallbacks_per_probe",
        ratio(
            (snap.probe_fallbacks - base_snap.probe_fallbacks) as f64,
            all_probes as f64,
        ),
    );
    r.set(
        "shard.lock_acq_per_op",
        ratio(acq as f64, (2 * wr.flows + all_probes) as f64),
    );
    r.set("shard.contended_pct", pct(contended as f64, acq as f64));
    let writer_drained = eng.drained() - (SOURCES * PER_SOURCE) as u64;
    r.set(
        "ingest.self_flush_pct",
        pct(
            writer_drained.saturating_sub(wr.flushed) as f64,
            writer_drained as f64,
        ),
    );

    if trace {
        let wall = ns(grid.len) as f64 * (0..INTERVALS).filter(|&k| traced(true, k)).count() as f64;
        r.set(
            "seqsnap.iprobe_ns",
            ratio(rd.iprobe_ns as f64, rd.traced_probes as f64),
        );
        r.set(
            "ingest.enqueue_ns",
            ratio(wr.ingest_ns as f64, wr.ingest_calls as f64),
        );
        r.set(
            "ingest.ops_per_flush",
            ratio(wr.flush_ops as f64, wr.flushes as f64),
        );
        r.set("ingest.backlog_max", wr.backlog_max as f64);
        wr.late_ns.sort_unstable();
        r.set("workload.late_p99_us", quantile(&wr.late_ns, 0.99) / 1e3);
        r.set("split.ingest_pct", pct(wr.ingest_ns as f64, wall));
        r.set("split.shard_pct", pct(wr.flush_ns as f64, wall));
        r.set(
            "shard.flush_ns_per_op",
            ratio(wr.flush_ns as f64, wr.flush_ops as f64),
        );
        r.set(
            "workload.gen_ns_per_flow",
            ratio(wr.gen_ns as f64, wr.traced_flows as f64),
        );
        r.set("split.seqsnap_pct", pct(rd.iprobe_ns as f64, wall));
        r.set("split.workload_pct", pct(rd.gen_ns as f64, wall));
        r.set(
            "trace.overhead_pct",
            pct(probes.rate() - probes_traced.rate(), probes.rate()),
        );
    }
    r.set("rss_peak_mib", host::rss_peak_mib());
    r
}
