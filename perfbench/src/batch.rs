//! The batch phase: repeated warm passes of the release `sdchecker`
//! binary over the finished corpus, at one and two threads.

use std::fs;
use std::path::Path;

use sparksim::JobSummary;

use crate::check;
use crate::launcher::{Finished, Launcher};
use crate::stats::median;

/// What one pass wrote.
#[derive(Debug, PartialEq, Eq)]
pub struct Outputs {
    pub report: Vec<u8>,
    pub report_json: String,
    pub wide: String,
}

/// Run `sdchecker` once over `corpus`; returns how it finished and
/// its outputs.
pub fn pass(
    launcher: &mut Launcher,
    bin: &Path,
    corpus: &Path,
    work: &Path,
    threads: u32,
) -> Result<(Finished, Outputs), String> {
    let report = work.join("batch-report.txt");
    let json = work.join("batch-report.json");
    let wide = work.join("batch-wide.jsonl");
    let path = |p: &Path| p.display().to_string();
    let args = vec![
        path(corpus),
        "--threads".into(),
        threads.to_string(),
        "--quiet".into(),
        "--report-json".into(),
        path(&json),
        "--wide-events-out".into(),
        path(&wide),
    ];
    let done = launcher
        .run(&bin.join("sdchecker"), &args, Some(&report))
        .map_err(|e| format!("sdchecker: {e}"))?;
    let read = |p: &Path| fs::read(p).map_err(|e| format!("{}: {e}", p.display()));
    let out = Outputs {
        report: read(&report)?,
        report_json: String::from_utf8_lossy(&read(&json)?).into_owned(),
        wide: String::from_utf8_lossy(&read(&wide)?).into_owned(),
    };
    Ok((done, out))
}

/// The batch phase's results.
#[derive(Debug)]
pub struct Batch {
    pub mbps_t1: f64,
    pub mbps_t2: f64,
    pub peak_rss_mb: f64,
    pub passes: u64,
    pub failed: u64,
    /// Outputs of the first pass (the reference the daemon is checked
    /// against).
    pub reference: Outputs,
    pub walls_t1: Vec<f64>,
    pub walls_t2: Vec<f64>,
    pub failures: Vec<String>,
}

/// One untimed warm-up pass at one thread (checked against the
/// simulator), then `passes` timed passes at each thread count,
/// alternating so both see the same machine conditions. Every pass's
/// outputs must equal the warm-up's byte for byte.
pub fn run(
    launcher: &mut Launcher,
    bin: &Path,
    corpus: &Path,
    work: &Path,
    text_bytes: u64,
    passes: usize,
    summaries: &[JobSummary],
) -> Result<Batch, String> {
    let (first, reference) = pass(launcher, bin, corpus, work, 1)?;
    let mut failures = check::batch(&reference.wide, &reference.report_json, summaries);
    let mut failed = u64::from(!failures.is_empty() || !first.success);
    let mut walls = [Vec::new(), Vec::new()];
    let mut rss_t1 = vec![first.peak_rss_mb];
    for _ in 0..passes {
        for (k, threads) in [1u32, 2].into_iter().enumerate() {
            let (done, out) = pass(launcher, bin, corpus, work, threads)?;
            if !done.success || out != reference {
                failed += 1;
                failures.push(format!(
                    "--threads {threads} pass output differs from the first pass"
                ));
            }
            if threads == 1 {
                rss_t1.push(done.peak_rss_mb);
            }
            walls[k].push(done.wall_s);
        }
    }
    let mb = text_bytes as f64 / 1e6;
    let [walls_t1, walls_t2] = walls;
    Ok(Batch {
        mbps_t1: mb / median(&walls_t1),
        mbps_t2: mb / median(&walls_t2),
        peak_rss_mb: median(&rss_t1),
        passes: 1 + 2 * passes as u64,
        failed,
        reference,
        walls_t1,
        walls_t2,
        failures,
    })
}
