//! The traced run: in-process, each layer's public function called in
//! the order the batch pipeline and the `sdcheckerd` poll loop call
//! them, a span around each call, spans written as a Chrome trace.
//!
//! The daemon part appends the live tail in fixed chunks between polls
//! (no concurrent writer), so every work count it reports is a pure
//! function of the seed.

use std::fmt::Write as _;
use std::fs;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

use logmodel::{LogStore, Parallelism, TsMs};
use sdchecker::checkpoint::{self, CfgFingerprint, CheckpointStore, SaveInputs};
use sdchecker::extract::extract_all_cov_with;
use sdchecker::{
    analyze_store_with, build_graphs, critical_path, decompose, default_rules,
    extract_app_names_with, find_unused_containers, full_report, report_json,
    wide_events_for_analysis, AlertEngine, DirTailer, IncrementalAnalyzer, IncrementalConfig,
};

use crate::check;
use crate::launcher::Launcher;
use crate::stats::{mean, median, percentile};
use crate::workload::{generate, group_by_file, Corpus, Line, Spec};

/// Alert evaluation quantum, as in `sdcheckerd`.
const ALERT_EVAL_MS: u64 = 1_000;
/// Polls between checkpoint saves in the traced poll loop.
const CHECKPOINT_EVERY: usize = 4;
/// Equal chunks the live tail is appended in, one per poll.
const CHUNKS: usize = 24;
/// Polls with nothing appended, for the idle poll cost.
const IDLE_POLLS: usize = 5;

/// Complete spans, as Chrome trace `X` events.
#[derive(Default)]
pub struct Tracer {
    t0: Option<Instant>,
    spans: Vec<(&'static str, f64, f64)>,
}

impl Tracer {
    /// Run `f` inside a span named `name`; returns its result and its
    /// duration in ms.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        let t0 = *self.t0.get_or_insert_with(Instant::now);
        let start = Instant::now();
        let v = f();
        let dur = start.elapsed();
        self.spans.push((
            name,
            start.duration_since(t0).as_secs_f64() * 1e6,
            dur.as_secs_f64() * 1e6,
        ));
        (v, dur.as_secs_f64() * 1e3)
    }

    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\": [\n");
        for (i, (name, ts, dur)) in self.spans.iter().enumerate() {
            let _ = write!(
                out,
                "{}{{\"name\": \"{name}\", \"cat\": \"{}\", \"ph\": \"X\", \"ts\": {ts:.1}, \"dur\": {dur:.1}, \"pid\": 1, \"tid\": 1}}",
                if i > 0 { ",\n" } else { "" },
                name.split('.').next().unwrap_or(name),
            );
        }
        out.push_str("\n], \"displayTimeUnit\": \"ms\"}\n");
        out
    }
}

/// Per-layer metrics (name, value, unit) and the run's operation counts.
#[derive(Debug, Default)]
pub struct Traced {
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub diag: Vec<String>,
}

pub fn run(
    launcher: &mut Launcher,
    bin: &Path,
    work: &Path,
    spec: &Spec,
    seed: u64,
    trace_out: &Path,
) -> Result<Traced, String> {
    let mut tr = Tracer::default();
    let mut out = Traced::default();
    let mut metrics = Vec::new();
    let mut m = |name: &'static str, v: f64, unit: &'static str| metrics.push((name, v, unit));
    let err = |e: std::io::Error| e.to_string();
    let t_all = Instant::now();

    // Set-up.
    let corpus_dir = crate::workload::corpus_dir(spec);
    let ((store, summaries), sim_ms) = tr.time("sparksim.simulate", || generate(spec, seed));
    let (w, write_ms) = tr.time("logmodel.write_dir", || store.write_dir(&corpus_dir));
    w.map_err(err)?;
    crate::workload::prune(&corpus_dir, &store).map_err(err)?;
    m("sparksim.simulate_s", sim_ms / 1e3, "s");
    m("logmodel.write_dir_s", write_ms / 1e3, "s");
    let corpus = Corpus::new(spec, &store, summaries)?;
    drop(store);

    // Batch layers, in pipeline order.
    let one = Parallelism::ONE;
    let two = Parallelism::clamped(2);
    let (store, read_ms) = tr.time("logmodel.read_dir", || {
        LogStore::read_dir_with(&corpus_dir, one)
    });
    let store = store.map_err(err)?;
    let ((events, _cov), extract_ms) =
        tr.time("extract.extract", || extract_all_cov_with(&store, one));
    let (_names, names_ms) = tr.time("extract.app_names", || extract_app_names_with(&store, one));
    let (graphs, graph_ms) = tr.time("graph.build", || build_graphs(&events));
    let (_delays, decompose_ms) = tr.time("decompose.decompose", || {
        graphs.values().map(decompose).collect::<Vec<_>>()
    });
    let (_paths, critical_ms) = tr.time("critical.critical_path", || {
        graphs.values().map(critical_path).collect::<Vec<_>>()
    });
    let (_unused, unused_ms) = tr.time("bugs.unused", || {
        graphs
            .values()
            .flat_map(find_unused_containers)
            .collect::<Vec<_>>()
    });
    let (analysis, store_ms) = tr.time("analyze.store", || analyze_store_with(&store, one));
    let ((_report, rjson), render_ms) = tr.time("report.render", || {
        (full_report(&analysis), report_json(&analysis))
    });
    let (wide, wide_ms) = tr.time("wide.batch", || wide_events_for_analysis(&analysis));
    // The spans on the path the `sdchecker` binary takes.
    let traced_batch_s = (read_ms + store_ms + render_ms + wide_ms) / 1e3;
    let records = store.total_records();
    let n_events = events.len();
    drop((events, graphs, _delays, _paths, _unused, _names));
    let (store2, read2_ms) = tr.time("logmodel.read_dir_t2", || {
        LogStore::read_dir_with(&corpus_dir, two)
    });
    drop(store2);
    let (events2, extract2_ms) =
        tr.time("extract.extract_t2", || extract_all_cov_with(&store, two));
    drop(events2);
    let (analysis2, store2_ms) = tr.time("analyze.store_t2", || analyze_store_with(&store, two));
    let wide2 = wide_events_for_analysis(&analysis2);
    drop((analysis2, analysis, store));
    m("logmodel.read_dir_ms", read_ms, "ms");
    m("logmodel.read_dir_t2_ms", read2_ms, "ms");
    m("extract.extract_ms", extract_ms, "ms");
    m("extract.extract_t2_ms", extract2_ms, "ms");
    m("extract.app_names_ms", names_ms, "ms");
    m("graph.build_ms", graph_ms, "ms");
    m("decompose.decompose_ms", decompose_ms, "ms");
    m("critical.critical_path_ms", critical_ms, "ms");
    m("bugs.unused_ms", unused_ms, "ms");
    m("analyze.store_ms", store_ms, "ms");
    m("analyze.store_t2_ms", store2_ms, "ms");
    m("report.render_ms", render_ms, "ms");
    m("wide.batch_ms", wide_ms, "ms");
    m("logmodel.records", records as f64, "count");
    m("extract.events", n_events as f64, "count");

    // The batch checks, on the in-process outputs: one operation for the
    // one-thread analysis, one for the two-thread one.
    let batch_fails = check::batch(&wide, &rjson, &corpus.summaries);
    out.attempted += 2;
    out.failed += u64::from(!batch_fails.is_empty()) + u64::from(wide2 != wide);
    out.failures.extend(batch_fails);
    if wide2 != wide {
        out.failures
            .push("two-thread analysis differs from one-thread".into());
    }

    // The untraced end-to-end time of the same batch work, for the
    // tracing overhead.
    let (untraced, _) = crate::batch::pass(launcher, bin, &corpus_dir, work, 1)?;
    let untraced_s = untraced.wall_s;

    // The daemon poll loop.
    let logs = corpus_dir;
    let ckpt = work.join("traced-ckpt");
    corpus.cut_to_prefix(&logs).map_err(err)?;
    let cfg = IncrementalConfig {
        settle_ms: spec.settle_ms,
        idle_timeout_ms: 0,
        ..IncrementalConfig::default()
    };
    let fingerprint = CfgFingerprint {
        settle_ms: cfg.settle_ms,
        idle_timeout_ms: cfg.idle_timeout_ms,
        exemplar_slots: cfg.exemplar_slots as u64,
        alerts: true,
        slo_ms: spec.slo_ms,
        eval_interval_ms: ALERT_EVAL_MS,
    };
    let store = CheckpointStore::open(&ckpt).map_err(|e| e.to_string())?;
    let mut tailer = DirTailer::new(&logs).map_err(err)?;
    let mut analyzer = IncrementalAnalyzer::new(cfg);
    let mut engine = AlertEngine::new(default_rules(spec.slo_ms), ALERT_EVAL_MS);
    let mut daemon_wide = String::new();
    let mut exemplar_gen = analyzer.exemplars().generation();
    let (
        mut poll_ms,
        mut lag_ms,
        mut drain_ms,
        mut report_ms,
        mut alert_ms,
        mut exemplar_ms,
        mut save_ms,
    ) = (vec![], vec![], vec![], vec![], vec![], vec![], vec![]);
    let (mut ingest_ns, mut ingested) = (0.0, 0u64);
    let (mut in_flight_peak, mut buffered_peak) = (0usize, 0usize);
    let live = corpus.live();
    let mut appended = 0usize;
    let mut save_bytes = 0u64;
    for step in 0..=CHUNKS + IDLE_POLLS {
        let idle = step > CHUNKS;
        if step > 0 && !idle {
            let end = live.len() * step / CHUNKS;
            append(&logs, &corpus.files, &live[appended..end]).map_err(err)?;
            appended = end;
        }
        let (batch, ms) = tr.time(if idle { "tail.idle_poll" } else { "tail.poll" }, || {
            tailer.poll()
        });
        let batch = batch.map_err(err)?;
        if step > 0 {
            poll_ms.push(ms);
        }
        let ((), ms) = tr.time("incremental.ingest", || {
            for (src, rec) in &batch {
                if analyzer.ingest(*src, rec) == sdchecker::Outcome::Anomalous {
                    engine.observe_anomalous(rec.ts);
                }
            }
        });
        ingest_ns += ms * 1e6;
        ingested += batch.len() as u64;
        in_flight_peak = in_flight_peak.max(analyzer.in_flight());
        buffered_peak = buffered_peak.max(analyzer.events_buffered());
        let (retired, ms) = tr.time("incremental.drain", || analyzer.drain_ready());
        drain_ms.push(ms);
        for r in &retired {
            daemon_wide.push_str(&r.wide_event);
            daemon_wide.push('\n');
        }
        let (lag, ms) = tr.time("tail.lag", || tailer.lag());
        lag_ms.push(ms);
        let ((), ms) = tr.time("alerts.eval", || {
            for r in &retired {
                engine.observe_retirement(r.retire_ms, &r.delays);
            }
            engine.set_live_lag(lag.bytes);
            if let Some(w) = analyzer.watermark() {
                engine.advance(w);
            }
        });
        alert_ms.push(ms);
        if analyzer.exemplars().generation() != exemplar_gen {
            exemplar_gen = analyzer.exemplars().generation();
            let (_, ms) = tr.time("exemplars.render", || {
                let ex = analyzer.exemplars();
                let traces: Vec<String> = ex.iter().filter_map(|p| ex.trace_json(p.app)).collect();
                (ex.index_json(), traces)
            });
            exemplar_ms.push(ms);
        }
        // `refresh`: the second lag, then the live report.
        let (lag, ms) = tr.time("tail.lag", || tailer.lag());
        lag_ms.push(ms);
        let stats = tailer.stats();
        let (_, ms) = tr.time("incremental.live_report", || {
            analyzer.live_report_json(Some((&lag, &stats)))
        });
        report_ms.push(ms);
        if step % CHECKPOINT_EVERY == 0 {
            let (r, ms) = tr.time("checkpoint.save", || {
                save(
                    &store,
                    &tailer,
                    &analyzer,
                    &engine,
                    &fingerprint,
                    &daemon_wide,
                )
            });
            save_bytes = r?;
            save_ms.push(ms);
        }
    }
    // Shutdown drain, as `sdcheckerd` does on SIGTERM.
    let mut tail = tailer.poll().map_err(err)?;
    tail.extend(tailer.flush_partial());
    for (src, rec) in &tail {
        analyzer.ingest(*src, rec);
    }
    for r in analyzer.finish() {
        engine.observe_retirement(r.retire_ms, &r.delays);
        daemon_wide.push_str(&r.wide_event);
        daemon_wide.push('\n');
    }
    let end = TsMs(analyzer.watermark().map_or(0, |w| w.0) + ALERT_EVAL_MS);
    engine.set_live_lag(0);
    engine.advance(end);
    engine.close_out(end);
    let (r, ms) = tr.time("checkpoint.save", || {
        save(
            &store,
            &tailer,
            &analyzer,
            &engine,
            &fingerprint,
            &daemon_wide,
        )
    });
    save_bytes = r.unwrap_or(save_bytes);
    save_ms.push(ms);

    let (idle, live_polls) = poll_ms.split_at(poll_ms.len() - IDLE_POLLS.min(poll_ms.len()));
    let (idle, live_polls) = (live_polls.to_vec(), idle.to_vec());
    m("tail.poll_ms.p50", median(&live_polls), "ms");
    m("tail.poll_ms.p99", percentile(&live_polls, 99.0), "ms");
    m("tail.idle_poll_ms", median(&idle), "ms");
    m("tail.lag_ms", median(&lag_ms), "ms");
    m(
        "incremental.ingest_ns_per_record",
        ingest_ns / ingested.max(1) as f64,
        "ns",
    );
    m("incremental.drain_ms", mean(&drain_ms), "ms");
    m("incremental.live_report_ms", mean(&report_ms), "ms");
    m("alerts.eval_ms", mean(&alert_ms), "ms");
    m("exemplars.render_ms", mean(&exemplar_ms), "ms");
    m("checkpoint.save_ms", median(&save_ms), "ms");
    let stats = tailer.stats();
    m("tail.files", stats.files as f64, "count");
    m("tail.read_mb", stats.read_bytes as f64 / 1e6, "MB");
    m("incremental.in_flight_peak", in_flight_peak as f64, "count");
    m(
        "incremental.events_buffered_peak",
        buffered_peak as f64,
        "count",
    );
    m(
        "alerts.transitions",
        engine.transitions_total() as f64,
        "count",
    );
    m("checkpoint.bytes", save_bytes as f64, "B");

    // The daemon checks, on the in-process poll loop's wide events.
    let expected = corpus.expected_retire(spec.settle_ms);
    let app_fails = check::daemon_apps(&daemon_wide, &wide, &expected);
    out.attempted += expected.len() as u64;
    out.failed += app_fails.len() as u64;
    out.failures.extend(app_fails.into_iter().take(10));

    out.metrics = metrics;
    fs::write(trace_out, tr.chrome_json()).map_err(err)?;
    out.diag = vec![
        format!("\"traced_batch_s\": {traced_batch_s:.4}"),
        format!("\"untraced_batch_s\": {untraced_s:.4}"),
        format!("\"traced_run_s\": {:.3}", t_all.elapsed().as_secs_f64()),
        format!("\"spans\": {}", tr.spans.len()),
        format!("\"chrome_trace\": \"{}\"", trace_out.display()),
    ];
    Ok(out)
}

fn save(
    store: &CheckpointStore,
    tailer: &DirTailer,
    analyzer: &IncrementalAnalyzer,
    engine: &AlertEngine,
    fingerprint: &CfgFingerprint,
    wide: &str,
) -> Result<u64, String> {
    checkpoint::save(
        store,
        &SaveInputs {
            tailer,
            analyzer,
            engine: Some(engine),
            fingerprint,
            wide_bytes: wide.len() as u64,
            writes_total: 1,
            recoveries: 0,
        },
    )
    .map_err(|e| e.to_string())
}

/// Append `lines` to their files under `dir`, one write per file.
fn append(dir: &Path, files: &[String], lines: &[Line]) -> std::io::Result<()> {
    for (f, text) in group_by_file(lines) {
        let path = dir.join(&files[f as usize]);
        if let Some(p) = path.parent() {
            fs::create_dir_all(p)?;
        }
        fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?
            .write_all(text.as_bytes())?;
    }
    Ok(())
}
