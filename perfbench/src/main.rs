//! `perfbench` — the end-to-end and per-layer benchmark of `sdchecker`,
//! `sdcheckerd` and the simulator that feeds them. See README.md.
//!
//! ```text
//! perfbench --bin-dir DIR --workload fleet-5k|bursty-live --seed N
//!           [--seconds S] [--trace 0|1]
//! ```
//!
//! `--trace 0` runs the release binaries untraced and prints the
//! end-to-end metrics; `--trace 1` makes the in-process traced run and
//! prints the per-layer metrics. Either way the last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed`,
//! `metrics`. Diagnostics go on the line before it.

mod batch;
mod check;
mod daemon;
mod json;
mod launcher;
mod sched;
mod stats;
mod sysinfo;
mod traced;
mod workload;

use std::fs;
use std::os::unix::fs::MetadataExt as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use launcher::Launcher;
use stats::median;
use workload::{Corpus, Spec};

const USAGE: &str = "usage: perfbench --bin-dir DIR --workload fleet-5k|bursty-live --seed N \
[--seconds S] [--trace 0|1]";

/// Set-ups per run; the median is reported. The first creates whatever
/// part of the corpus tree the last run did not leave behind.
const SETUPS: usize = 3;

struct Args {
    bin_dir: PathBuf,
    spec: &'static Spec,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut bin_dir, mut spec, mut seed, mut seconds, mut trace) = (None, None, None, 12.0, false);
    let mut i = 0;
    while i < args.len() {
        let v = args
            .get(i + 1)
            .ok_or_else(|| format!("{} needs a value", args[i]))?;
        match args[i].as_str() {
            "--bin-dir" => bin_dir = Some(PathBuf::from(v)),
            "--workload" => {
                spec = Some(workload::spec(v).ok_or_else(|| format!("unknown workload {v}"))?)
            }
            "--seed" => seed = Some(v.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = v.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                trace = match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
        i += 2;
    }
    Ok(Args {
        bin_dir: bin_dir.ok_or("--bin-dir is required")?,
        spec: spec.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
    })
}

/// What a run prints.
struct Outcome {
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64, &'static str)>,
    failures: Vec<String>,
    diag: Vec<String>,
}

/// Apparent (text) and allocated (on-disk) bytes and the file count
/// under `dir`.
fn disk_usage(dir: &Path) -> (u64, u64, u64) {
    let (mut len, mut alloc, mut files) = (0, 0, 0);
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        for e in fs::read_dir(&d).into_iter().flatten().flatten() {
            let Ok(m) = e.metadata() else { continue };
            if m.is_dir() {
                stack.push(e.path());
            } else {
                len += m.len();
                alloc += m.blocks() * 512;
                files += 1;
            }
        }
    }
    (len, alloc, files)
}

fn untraced(a: &Args, work: &Path, launcher: &mut Launcher) -> Result<Outcome, String> {
    let spec = a.spec;
    // Set-up, several times into the workload's corpus directory.
    let corpus_dir = workload::corpus_dir(spec);
    let (mut setup_s, mut generate_s, mut write_s) = (vec![], vec![], vec![]);
    let mut last = None;
    for _ in 0..SETUPS {
        drop(last.take());
        let s = workload::setup(spec, a.seed, &corpus_dir).map_err(|e| format!("set-up: {e}"))?;
        setup_s.push(s.generate_s + s.write_s);
        generate_s.push(s.generate_s);
        write_s.push(s.write_s);
        last = Some(s);
    }
    let s = last.ok_or("no set-up ran")?;
    let corpus = Corpus::new(spec, &s.store, s.summaries)?;
    drop(s.store);
    let (disk_len, disk_alloc, files) = disk_usage(&corpus_dir);

    let b = batch::run(
        launcher,
        &a.bin_dir,
        &corpus_dir,
        work,
        corpus.text_bytes,
        spec.batch_passes,
        &corpus.summaries,
    )?;
    corpus
        .cut_to_prefix(&corpus_dir)
        .map_err(|e| format!("cutting the corpus to its prefix: {e}"))?;
    let d = daemon::run(
        launcher,
        &a.bin_dir,
        &corpus_dir,
        work,
        spec,
        &corpus,
        a.seconds,
        &b.reference.wide,
        &b.reference.report_json,
    )?;

    let metrics = vec![
        ("setup_s", median(&setup_s), "s"),
        ("batch_mbps_t1", b.mbps_t1, "MB/s"),
        ("batch_mbps_t2", b.mbps_t2, "MB/s"),
        ("batch_peak_rss_mb", b.peak_rss_mb, "MB"),
        ("catchup_mbps", d.catchup_mbps, "MB/s"),
        ("fresh_p50_ms", d.fresh_p50_ms, "ms"),
        ("fresh_p99_ms", d.fresh_p99_ms, "ms"),
        ("live_cpu_ms_per_mb", d.live_cpu_ms_per_mb, "ms/MB"),
        ("idle_cpu_ms_per_poll", d.idle_cpu_ms_per_poll, "ms"),
        ("daemon_peak_rss_mb", d.peak_rss_mb, "MB"),
        ("checkpoint_kb", d.checkpoint_kb, "KB"),
    ];
    let fmt_list = |v: &[f64]| {
        v.iter()
            .map(|x| format!("{x:.4}"))
            .collect::<Vec<_>>()
            .join(", ")
    };
    let mut diag = vec![
        format!(
            "\"corpus\": {{\"apps\": {}, \"files\": {files}, \"records\": {}, \"text_mb\": {:.3}, \
             \"disk_apparent_mb\": {:.3}, \"disk_allocated_mb\": {:.3}}}",
            corpus.summaries.len(),
            corpus.lines.len(),
            corpus.text_bytes as f64 / 1e6,
            disk_len as f64 / 1e6,
            disk_alloc as f64 / 1e6,
        ),
        format!("\"setup_s_all\": [{}]", fmt_list(&setup_s)),
        format!("\"setup_generate_s\": [{}]", fmt_list(&generate_s)),
        format!("\"setup_write_s\": [{}]", fmt_list(&write_s)),
        format!("\"batch_wall_s_t1\": [{}]", fmt_list(&b.walls_t1)),
        format!("\"batch_wall_s_t2\": [{}]", fmt_list(&b.walls_t2)),
    ];
    diag.extend(d.diag);
    let mut failures = b.failures;
    failures.extend(d.failures);
    Ok(Outcome {
        attempted: b.passes + d.apps + d.scrapes,
        failed: b.failed + d.apps_failed + d.scrapes_failed,
        metrics,
        failures,
        diag,
    })
}

fn traced(a: &Args, work: &Path, launcher: &mut Launcher) -> Result<Outcome, String> {
    let out_dir = PathBuf::from(".bench_out");
    fs::create_dir_all(&out_dir).map_err(|e| e.to_string())?;
    let trace_out = out_dir.join(format!("trace-{}-seed{}.json", a.spec.name, a.seed));
    let t = traced::run(launcher, &a.bin_dir, work, a.spec, a.seed, &trace_out)?;
    Ok(Outcome {
        attempted: t.attempted,
        failed: t.failed,
        metrics: t.metrics,
        failures: t.failures,
        diag: t.diag,
    })
}

fn main() -> ExitCode {
    if std::env::args().nth(1).as_deref() == Some("--launcher") {
        return launcher::serve();
    }
    let a = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    for b in ["sdchecker", "sdcheckerd"] {
        if !a.bin_dir.join(b).is_file() {
            eprintln!("perfbench: {} not found in {}", b, a.bin_dir.display());
            return ExitCode::FAILURE;
        }
    }
    let work = PathBuf::from(".bench_work").join(format!(
        "{}-seed{}-{}",
        a.spec.name,
        a.seed,
        std::process::id()
    ));
    if let Err(e) = fs::create_dir_all(&work) {
        eprintln!("perfbench: cannot create {}: {e}", work.display());
        return ExitCode::FAILURE;
    }
    let cpu0 = sysinfo::cpu_times();
    let t0 = Instant::now();
    let result = Launcher::start()
        .map_err(|e| format!("cannot start the launcher helper: {e}"))
        .and_then(|mut l| {
            let r = if a.trace {
                traced(&a, &work, &mut l)
            } else {
                untraced(&a, &work, &mut l)
            };
            l.stop();
            r
        });
    let _ = fs::remove_dir_all(&work);
    let _ = fs::remove_dir(".bench_work");
    let o = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    for f in &o.failures {
        eprintln!("perfbench: check failed: {f}");
    }
    let mut diag = vec![
        format!("\"workload\": \"{}\"", a.spec.name),
        format!("\"seed\": {}", a.seed),
        format!("\"seconds\": {}", a.seconds),
        format!("\"trace\": {}", u8::from(a.trace)),
        format!("\"run_wall_s\": {:.3}", t0.elapsed().as_secs_f64()),
        format!(
            "\"steal_share\": {:.5}",
            sysinfo::steal_share(cpu0, sysinfo::cpu_times())
        ),
    ];
    diag.extend(o.diag);
    println!("{{\"diagnostics\": {{{}}}}}", diag.join(", "));
    let metrics: Vec<String> = o
        .metrics
        .iter()
        .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}"))
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.failed == 0,
        o.attempted,
        o.failed,
        metrics.join(", ")
    );
    ExitCode::SUCCESS
}
