//! The workloads: a seeded corpus built in-process, split at a log-time
//! cut into an on-disk prefix and a live tail, and the benchmark's own
//! view of when each application is due to retire.

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::time::Instant;

use logmodel::{format_line, LogStore};
use simkit::{Millis, SimRng};
use sparksim::{simulate, JobSummary};
use workloads::{tpch_stream, TraceParams};
use yarnsim::{ClusterConfig, FaultConfig};

/// One workload's fixed parameters.
#[derive(Debug, Clone)]
pub struct Spec {
    pub name: &'static str,
    /// TPC-H queries submitted.
    pub queries: usize,
    /// Bursty instead of moderate arrivals.
    pub bursty: bool,
    /// Launch and localization failure rates and one scripted node loss.
    pub faults: bool,
    /// Apps whose submission falls after the cut (they arrive live).
    pub live_apps: usize,
    /// Daemon flags.
    pub settle_ms: u64,
    pub slo_ms: u64,
    /// Idle window after the live phase, s.
    pub idle_s: f64,
    /// Catch-up passes timed per run (median reported).
    pub catchups: usize,
    /// Timed batch passes per thread count (median reported).
    pub batch_passes: usize,
}

pub const SPECS: &[Spec] = &[
    Spec {
        name: "fleet-5k",
        queries: 5_000,
        bursty: false,
        faults: false,
        live_apps: 1_300,
        settle_ms: 1_800_000,
        slo_ms: 60_000,
        idle_s: 8.0,
        catchups: 3,
        batch_passes: 5,
    },
    Spec {
        name: "bursty-live",
        queries: 1_700,
        bursty: true,
        faults: true,
        live_apps: 1_200,
        settle_ms: 900_000,
        slo_ms: 15_000,
        idle_s: 5.0,
        catchups: 9,
        batch_passes: 7,
    },
];

pub fn spec(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

/// Simulate the workload's corpus for `seed`.
pub fn generate(spec: &Spec, seed: u64) -> (LogStore, Vec<JobSummary>) {
    let mut rng = SimRng::new(seed);
    let params = if spec.bursty {
        TraceParams::bursty()
    } else {
        TraceParams::moderate()
    };
    let arrivals = tpch_stream(spec.queries, 2048.0, 4, &params, &mut rng);
    let mut cfg = ClusterConfig::default();
    if spec.faults {
        // One node is lost midway through the live part of the stream.
        let loss_at = arrivals[spec.queries - spec.live_apps / 2].0;
        cfg.faults = FaultConfig {
            launch_failure_rate: 0.05,
            localization_failure_rate: 0.05,
            node_loss: vec![(loss_at, 7)],
            fault_seed: seed,
            ..FaultConfig::default()
        };
    }
    simulate(cfg, seed, arrivals, Millis::from_mins(24 * 60))
}

/// The timed set-up step: generate the corpus and write it to `dir`.
pub struct Setup {
    pub store: LogStore,
    pub summaries: Vec<JobSummary>,
    pub generate_s: f64,
    pub write_s: f64,
}

pub fn setup(spec: &Spec, seed: u64, dir: &Path) -> io::Result<Setup> {
    let t = Instant::now();
    let (store, summaries) = generate(spec, seed);
    let generate_s = t.elapsed().as_secs_f64();
    store.write_dir(dir)?;
    prune(dir, &store)?;
    Ok(Setup {
        store,
        summaries,
        generate_s,
        write_s: t.elapsed().as_secs_f64() - generate_s,
    })
}

/// The directory a workload's corpus is written to. It is kept between
/// runs: writing over an existing tree skips most file creations, which
/// cost 0.05-1.5 ms of system CPU each on the reference machine and
/// varied 20x between identical runs.
pub fn corpus_dir(spec: &Spec) -> PathBuf {
    PathBuf::from(".bench_work").join(spec.name).join("corpus")
}

/// Remove every file under `dir` that is not part of `store`'s corpus
/// (left from another seed, or from a run cut short), and directories
/// left empty.
pub fn prune(dir: &Path, store: &LogStore) -> io::Result<()> {
    let keep: BTreeSet<PathBuf> = store
        .sources()
        .map(|s| dir.join(s.rel_path()))
        .chain([dir.join("epoch.txt")])
        .collect();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        for e in fs::read_dir(&d)? {
            let path = e?.path();
            if path.is_dir() {
                stack.push(path);
            } else if !keep.contains(&path) {
                fs::remove_file(&path)?;
            }
        }
    }
    if let Ok(apps) = fs::read_dir(dir.join("apps")) {
        for e in apps.flatten() {
            // Fails, as it should, on directories still holding files.
            let _ = fs::remove_dir(e.path());
        }
    }
    Ok(())
}

/// `lines` joined per file, in order, each ending in a newline.
pub fn group_by_file(lines: &[Line]) -> BTreeMap<u32, String> {
    let mut bufs: BTreeMap<u32, String> = BTreeMap::new();
    for l in lines {
        let b = bufs.entry(l.file).or_default();
        b.push_str(&l.text);
        b.push('\n');
    }
    bufs
}

/// One rendered log line.
#[derive(Debug, Clone)]
pub struct Line {
    /// Index into [`Corpus::files`].
    pub file: u32,
    /// Log time, ms since the epoch.
    pub ts: u64,
    pub text: String,
}

/// A generated corpus as the lines that go to disk.
#[derive(Debug)]
pub struct Corpus {
    /// Relative paths of the log files.
    pub files: Vec<String>,
    /// Every line, in log-time order (the order a live cluster emits).
    pub lines: Vec<Line>,
    pub summaries: Vec<JobSummary>,
    /// Bytes of log text, newlines included.
    pub text_bytes: u64,
    /// Index of the first live line: lines before it form the prefix.
    pub cut_line: usize,
    /// Per file, the bytes of its prefix lines (a prefix of the file:
    /// each file's lines are in log-time order).
    pub prefix_bytes: Vec<u64>,
    /// The log-time cut, ms.
    pub cut_ms: u64,
}

impl Corpus {
    pub fn new(
        spec: &Spec,
        store: &LogStore,
        summaries: Vec<JobSummary>,
    ) -> Result<Corpus, String> {
        let epoch = *store.epoch();
        let files: Vec<String> = store.sources().map(|s| s.rel_path()).collect();
        let index: BTreeMap<logmodel::LogSource, u32> = store
            .sources()
            .enumerate()
            .map(|(i, s)| (s, i as u32))
            .collect();
        let lines: Vec<Line> = store
            .records_by_time()
            .into_iter()
            .map(|(src, r)| Line {
                file: index[&src],
                ts: r.ts.0,
                text: format_line(&epoch, r),
            })
            .collect();
        let text_bytes = lines.iter().map(|l| l.text.len() as u64 + 1).sum();
        let mut submits: Vec<u64> = summaries.iter().map(|s| s.submitted_at.0).collect();
        submits.sort_unstable();
        let live = spec.live_apps.min(submits.len());
        let cut_ms = submits
            .get(submits.len() - live)
            .copied()
            .unwrap_or(u64::MAX);
        let cut_line = lines.partition_point(|l| l.ts < cut_ms);
        let mut prefix_bytes = Vec::with_capacity(files.len());
        for src in store.sources() {
            let recs = store.records(src);
            let k = recs.partition_point(|r| r.ts.0 < cut_ms);
            if recs[k..].iter().any(|r| r.ts.0 < cut_ms) {
                return Err(format!("{} is not in log-time order", src.rel_path()));
            }
            prefix_bytes.push(
                recs[..k]
                    .iter()
                    .map(|r| format_line(&epoch, r).len() as u64 + 1)
                    .sum(),
            );
        }
        Ok(Corpus {
            files,
            lines,
            summaries,
            text_bytes,
            cut_line,
            cut_ms,
            prefix_bytes,
        })
    }

    pub fn prefix(&self) -> &[Line] {
        &self.lines[..self.cut_line]
    }

    pub fn live(&self) -> &[Line] {
        &self.lines[self.cut_line..]
    }

    pub fn bytes_of(lines: &[Line]) -> u64 {
        lines.iter().map(|l| l.text.len() as u64 + 1).sum()
    }

    pub fn max_ts(&self) -> u64 {
        self.lines.last().map_or(0, |l| l.ts)
    }

    /// Turn the finished corpus written at `dir` into its on-disk
    /// prefix: cut each file back to its prefix lines, and remove the
    /// files (and app directories) that only the live tail fills. This
    /// truncates instead of writing a second tree, because creating files
    /// is the costly and erratic part of writing a corpus.
    pub fn cut_to_prefix(&self, dir: &Path) -> io::Result<()> {
        for (rel, &len) in self.files.iter().zip(&self.prefix_bytes) {
            let path = dir.join(rel);
            if len > 0 {
                fs::OpenOptions::new()
                    .write(true)
                    .open(&path)?
                    .set_len(len)?;
            } else {
                fs::remove_file(&path)?;
            }
        }
        for e in fs::read_dir(dir.join("apps"))? {
            // Fails, as it should, on app directories still holding files.
            let _ = fs::remove_dir(e?.path());
        }
        Ok(())
    }

    /// Due times (s from the start) of the live lines, replaying log time
    /// at a fixed speed-up chosen so the replay spans `seconds`, with
    /// every gap between consecutive lines capped at `settle_ms` of log
    /// time. Returns the times and the speed-up (log ms per wall ms).
    ///
    /// The cap keeps a long lull from stretching the run, and keeps it
    /// safe: lines more than a settle window apart in log time are still
    /// `settle_ms / speed-up` apart in wall time, several of the daemon's
    /// polls, so it never reads, within one poll, the line that makes an
    /// app due together with evidence of that app it has not read yet.
    pub fn live_schedule(&self, settle_ms: u64, seconds: f64) -> (Vec<f64>, f64) {
        let live = self.live();
        let mut log_ms = Vec::with_capacity(live.len());
        let mut acc = 0u64;
        for (i, l) in live.iter().enumerate() {
            if i > 0 {
                acc += (l.ts - live[i - 1].ts).min(settle_ms);
            }
            log_ms.push(acc);
        }
        let speedup = (acc as f64 / (seconds * 1e3)).max(f64::MIN_POSITIVE);
        (
            log_ms.iter().map(|&t| t as f64 / speedup / 1e3).collect(),
            speedup,
        )
    }

    /// Due times (last terminal record + settle) of the apps whose due
    /// time some line of the corpus reaches.
    pub fn due_times(&self, settle_ms: u64) -> BTreeMap<String, u64> {
        let rm = self.files.iter().position(|f| f == "resourcemanager.log");
        let max_ts = self.max_ts();
        terminal_times(
            self.lines
                .iter()
                .filter(|l| Some(l.file as usize) == rm)
                .map(|l| (l.ts, l.text.as_str())),
        )
        .into_iter()
        .map(|(app, t)| (app, t + settle_ms))
        .filter(|&(_, due)| due <= max_ts)
        .collect()
    }

    /// Each simulated app's retirement instant as the daemon must stamp
    /// it: its due time when some line reaches it, else the final
    /// watermark (the app retires at shutdown).
    pub fn expected_retire(&self, settle_ms: u64) -> BTreeMap<String, u64> {
        let due = self.due_times(settle_ms);
        self.summaries
            .iter()
            .map(|s| {
                let app = s.app.to_string();
                let at = due.get(&app).copied().unwrap_or(self.max_ts());
                (app, at)
            })
            .collect()
    }
}

/// The last terminal ResourceManager record of each application: the
/// app-level state change into FINISHED, FAILED or KILLED, or into
/// FINAL_SAVING on ATTEMPT_UNREGISTERED. Found by matching the rendered
/// line text, apart from the program's extractor.
pub fn terminal_times<'a>(rm_lines: impl Iterator<Item = (u64, &'a str)>) -> BTreeMap<String, u64> {
    let mut out: BTreeMap<String, u64> = BTreeMap::new();
    for (ts, text) in rm_lines {
        let Some((_, msg)) = text.split_once(" RMAppImpl: ") else {
            continue;
        };
        let mut words = msg.split(' ');
        let (Some(app), Some("State"), Some("change"), Some("from"), Some(_), Some("to"), Some(to)) = (
            words.next(),
            words.next(),
            words.next(),
            words.next(),
            words.next(),
            words.next(),
            words.next(),
        ) else {
            continue;
        };
        let event = msg.rsplit_once("on event = ").map(|(_, e)| e.trim());
        let terminal = matches!(to, "FINISHED" | "FAILED" | "KILLED")
            || (to == "FINAL_SAVING" && event == Some("ATTEMPT_UNREGISTERED"));
        if terminal {
            let e = out.entry(app.to_string()).or_insert(ts);
            *e = (*e).max(ts);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rm(app: &str, from: &str, to: &str, event: &str) -> String {
        format!(
            "2018-03-14 09:00:00,000 INFO  RMAppImpl: {app} State change from {from} to {to} on event = {event}"
        )
    }

    #[test]
    fn due_times_of_finished_failed_and_retried_apps() {
        let a = "application_1521018000000_0001"; // finishes
        let b = "application_1521018000000_0002"; // fails after two attempts
        let c = "application_1521018000000_0003"; // first attempt fails, retry finishes
        let stream = [
            (100, rm(a, "NEW", "NEW_SAVING", "START")),
            (110, rm(b, "NEW", "NEW_SAVING", "START")),
            (120, rm(c, "NEW", "NEW_SAVING", "START")),
            (500, rm(a, "RUNNING", "FINAL_SAVING", "ATTEMPT_UNREGISTERED")),
            (510, rm(a, "FINAL_SAVING", "FINISHING", "APP_UPDATE_SAVED")),
            (520, rm(a, "FINISHING", "FINISHED", "ATTEMPT_FINISHED")),
            // The failed attempt of c passes through FINAL_SAVING-free
            // states; a FINAL_SAVING on ATTEMPT_FAILED is not terminal.
            (600, rm(c, "RUNNING", "ACCEPTED", "ATTEMPT_FAILED")),
            (700, rm(b, "RUNNING", "ACCEPTED", "ATTEMPT_FAILED")),
            (900, rm(b, "RUNNING", "FINAL_SAVING", "ATTEMPT_FAILED")),
            (950, rm(b, "FINAL_SAVING", "FAILED", "APP_UPDATE_SAVED")),
            (1_400, rm(c, "RUNNING", "FINAL_SAVING", "ATTEMPT_UNREGISTERED")),
            (1_450, rm(c, "FINISHING", "FINISHED", "ATTEMPT_FINISHED")),
            // Lines of other classes never count.
            (
                2_000,
                format!("2018-03-14 09:00:02,000 INFO  RMContainerImpl: {a} State change from NEW to FINISHED on event = KILL"),
            ),
        ];
        let t = terminal_times(stream.iter().map(|(ts, l)| (*ts, l.as_str())));
        assert_eq!(t.len(), 3);
        assert_eq!(t[a], 520);
        assert_eq!(t[b], 950);
        assert_eq!(t[c], 1_450);
    }

    #[test]
    fn live_schedule_caps_gaps_at_the_settle_window() {
        let line = |ts| Line {
            file: 0,
            ts,
            text: String::new(),
        };
        let c = Corpus {
            files: Vec::new(),
            lines: [0, 100, 150, 10_150, 10_200]
                .into_iter()
                .map(line)
                .collect(),
            summaries: Vec::new(),
            text_bytes: 0,
            cut_line: 1,
            cut_ms: 100,
            prefix_bytes: Vec::new(),
        };
        // Live gaps 50, 10 000 (capped to 1 000) and 50: 1 100 log ms
        // replayed over 2 s.
        let (t, speedup) = c.live_schedule(1_000, 2.0);
        assert!((speedup - 0.55).abs() < 1e-12);
        let want = [0.0, 50.0 / 550.0, 1050.0 / 550.0, 2.0];
        assert_eq!(t.len(), want.len());
        for (a, b) in t.iter().zip(want) {
            assert!((a - b).abs() < 1e-9, "{t:?}");
        }
    }

    #[test]
    fn attempt_level_final_saving_alone_is_not_terminal() {
        let a = "application_1521018000000_0001";
        let stream = [(900, rm(a, "RUNNING", "FINAL_SAVING", "ATTEMPT_FAILED"))];
        assert!(terminal_times(stream.iter().map(|(ts, l)| (*ts, l.as_str()))).is_empty());
    }
}
