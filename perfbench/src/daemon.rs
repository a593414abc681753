//! The daemon phase: `sdcheckerd` in its own process over the on-disk
//! prefix, the live tail appended at a fixed open-loop rate by one writer
//! thread, then an idle window; freshness, CPU per MB and per idle poll,
//! peak RSS and checkpoint size, with the daemon's own `/metrics` view.

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::fs;
use std::io::{Read as _, Seek as _, SeekFrom, Write as _};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use crate::check;
use crate::launcher::{Finished, Launcher};
use crate::sched::OpenLoop;
use crate::stats::{median, percentile};
use crate::sysinfo::{cpu_ms, main_thread_cpu_ms, signal, SIGKILL, SIGTERM};
use crate::workload::{group_by_file, Corpus, Line, Spec};

/// GET `path` from the daemon; the body on a 200.
pub fn http_get(addr: &str, path: &str) -> Result<String, String> {
    let mut s = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    s.set_read_timeout(Some(Duration::from_secs(20)))
        .map_err(|e| e.to_string())?;
    write!(
        s,
        "GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n"
    )
    .map_err(|e| e.to_string())?;
    let mut buf = Vec::new();
    s.read_to_end(&mut buf).map_err(|e| e.to_string())?;
    let text = String::from_utf8_lossy(&buf);
    let (head, body) = text
        .split_once("\r\n\r\n")
        .ok_or("malformed HTTP response")?;
    if !head.starts_with("HTTP/1.1 200") && !head.starts_with("HTTP/1.0 200") {
        return Err(format!("{path}: {}", head.lines().next().unwrap_or("")));
    }
    Ok(body.to_string())
}

/// Prometheus text exposition as `series -> value`.
pub fn parse_prom(text: &str) -> BTreeMap<String, f64> {
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let (k, v) = l.rsplit_once(' ')?;
            Some((k.to_string(), v.parse().ok()?))
        })
        .collect()
}

const POLLS: &str = "sdcheckerd_polls_total";
const READ_BYTES: &str = "sdcheckerd_read_bytes_total";
const POLL_HIST: &str = "sdcheckerd_poll_duration_ms";

/// The daemon's `/metrics` at one instant, with CPU times read right
/// after it: the whole process's, and the main (poll loop) thread's,
/// which excludes the HTTP thread serving these scrapes.
#[derive(Debug, Clone, Default)]
struct Scrape {
    m: BTreeMap<String, f64>,
    cpu_ms: f64,
    poll_thread_cpu_ms: f64,
}

impl Scrape {
    fn polls(&self) -> f64 {
        self.m.get(POLLS).copied().unwrap_or(0.0)
    }

    /// The diagnostic subset: poll and byte counters and the poll
    /// duration histogram, as a JSON object.
    fn diag(&self) -> String {
        let mut parts = vec![
            format!("\"{POLLS}\": {}", self.polls()),
            format!(
                "\"{READ_BYTES}\": {}",
                self.m.get(READ_BYTES).copied().unwrap_or(0.0)
            ),
        ];
        let hist: Vec<String> = self
            .m
            .iter()
            .filter(|(k, _)| k.starts_with(POLL_HIST))
            .map(|(k, v)| format!("\"{}\": {v}", k.replace('"', "'")))
            .collect();
        parts.push(format!("\"{POLL_HIST}\": {{{}}}", hist.join(", ")));
        format!("{{{}}}", parts.join(", "))
    }
}

/// Tails the daemon's wide-events file, noting when each app's line
/// first became readable.
struct WideWatch {
    path: PathBuf,
    offset: u64,
    partial: Vec<u8>,
    seen: BTreeMap<String, Instant>,
}

impl WideWatch {
    fn new(path: PathBuf) -> WideWatch {
        WideWatch {
            path,
            offset: 0,
            partial: Vec::new(),
            seen: BTreeMap::new(),
        }
    }

    fn poll(&mut self) {
        let Ok(mut f) = fs::File::open(&self.path) else {
            return;
        };
        if f.seek(SeekFrom::Start(self.offset)).is_err() {
            return;
        }
        let mut fresh = Vec::new();
        let Ok(n) = f.read_to_end(&mut fresh) else {
            return;
        };
        let now = Instant::now();
        self.offset += n as u64;
        self.partial.extend_from_slice(&fresh);
        while let Some(nl) = self.partial.iter().position(|&b| b == b'\n') {
            let line: Vec<u8> = self.partial.drain(..=nl).collect();
            if let Some(app) = check::app_of(&String::from_utf8_lossy(&line)) {
                self.seen.entry(app.to_string()).or_insert(now);
            }
        }
    }

    /// Poll every 2 ms until every app in `apps` has a line or the
    /// deadline passes (extra condition: `also_done`).
    fn wait_for(
        &mut self,
        apps: &[&String],
        deadline: Instant,
        mut also_done: impl FnMut() -> bool,
    ) -> bool {
        loop {
            self.poll();
            if also_done() && apps.iter().all(|a| self.seen.contains_key(*a)) {
                return true;
            }
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }
}

/// Append `lines` under `dir` on the open-loop schedule `sched`, one
/// write per touched file per wake-up. Files are closed after their last line.
fn write_live(
    dir: &Path,
    files: &[String],
    lines: &[Line],
    sched: Vec<f64>,
    start: Instant,
) -> std::io::Result<OpenLoop> {
    let mut last_use: BTreeMap<u32, usize> = BTreeMap::new();
    for (i, l) in lines.iter().enumerate() {
        last_use.insert(l.file, i);
    }
    let mut open: BTreeMap<u32, fs::File> = BTreeMap::new();
    let mut sched = OpenLoop::new(sched);
    loop {
        let r = sched.due(start.elapsed().as_secs_f64());
        if !r.is_empty() {
            for (f, text) in group_by_file(&lines[r.clone()]) {
                let h = match open.entry(f) {
                    Entry::Occupied(e) => e.into_mut(),
                    Entry::Vacant(e) => {
                        let path = dir.join(&files[f as usize]);
                        if let Some(p) = path.parent() {
                            fs::create_dir_all(p)?;
                        }
                        e.insert(
                            fs::OpenOptions::new()
                                .create(true)
                                .append(true)
                                .open(path)?,
                        )
                    }
                };
                h.write_all(text.as_bytes())?;
                if last_use[&f] < r.end {
                    open.remove(&f);
                }
            }
            sched.written(r, start.elapsed().as_secs_f64());
        }
        let Some(next) = sched.next_due_s() else {
            break;
        };
        let wait = (next - start.elapsed().as_secs_f64()).max(0.002);
        std::thread::sleep(Duration::from_secs_f64(wait));
    }
    Ok(sched)
}

/// The daemon phase's results.
#[derive(Debug, Default)]
pub struct Daemon {
    pub catchup_mbps: f64,
    pub fresh_p50_ms: f64,
    pub fresh_p99_ms: f64,
    pub live_cpu_ms_per_mb: f64,
    pub idle_cpu_ms_per_poll: f64,
    pub peak_rss_mb: f64,
    pub checkpoint_kb: f64,
    /// Apps expected to retire, and how many of them failed a check.
    pub apps: u64,
    pub apps_failed: u64,
    /// Scrapes (the four phase scrapes and the final report).
    pub scrapes: u64,
    pub scrapes_failed: u64,
    pub failures: Vec<String>,
    /// Diagnostic `"key": value` JSON members.
    pub diag: Vec<String>,
}

/// The daemon polls back to back, so its own work, not its sleep, sets
/// freshness.
const POLL_MS: u64 = 20;

/// The daemon's command line for `spec`. Checkpointing runs at the
/// default cadence; the idle timeout is off because the settle windows
/// are longer than it.
pub fn flags(spec: &Spec) -> Vec<String> {
    [
        ("--poll-ms", POLL_MS),
        ("--settle-ms", spec.settle_ms),
        ("--idle-timeout-ms", 0),
        ("--slo-ms", spec.slo_ms),
    ]
    .iter()
    .flat_map(|(f, v)| [f.to_string(), v.to_string()])
    .collect()
}

/// A running `sdcheckerd`, SIGKILLed if dropped before it was stopped.
struct Running {
    pid: u32,
    addr: String,
    spawned: Instant,
    wide: PathBuf,
    ckpt: PathBuf,
    final_report: PathBuf,
    stopped: bool,
}

impl Drop for Running {
    fn drop(&mut self) {
        if !self.stopped && self.pid != 0 {
            let _ = signal(self.pid, SIGKILL);
        }
    }
}

/// Start the daemon on `logs`, its outputs under `work` tagged `tag`,
/// and wait for its listening address.
fn start(
    launcher: &mut Launcher,
    bin: &Path,
    spec: &Spec,
    logs: &Path,
    work: &Path,
    tag: &str,
) -> Result<Running, String> {
    let out = |name: &str| work.join(format!("daemon-{tag}-{name}"));
    let port_file = out("port");
    let path = |p: &Path| p.display().to_string();
    let mut args = vec![
        path(logs),
        "--listen".into(),
        "127.0.0.1:0".into(),
        "--port-file".into(),
        path(&port_file),
    ];
    args.extend(flags(spec));
    let mut r = Running {
        pid: 0,
        addr: String::new(),
        spawned: Instant::now(),
        wide: out("wide.jsonl"),
        ckpt: out("ckpt"),
        final_report: out("final.json"),
        stopped: false,
    };
    for (flag, p) in [
        ("--wide-events-out", &r.wide),
        ("--final-report", &r.final_report),
        ("--checkpoint-dir", &r.ckpt),
    ] {
        args.push(flag.into());
        args.push(path(p));
    }
    args.extend(["--no-resume".into(), "--quiet".into()]);
    let spawned = Instant::now();
    let pid = launcher
        .spawn(
            &bin.join("sdcheckerd"),
            &args,
            None,
            Some(&out("stderr.log")),
        )
        .map_err(|e| format!("sdcheckerd: {e}"))?;
    r.pid = pid;
    r.spawned = spawned;
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        if let Ok(s) = fs::read_to_string(&port_file) {
            if s.ends_with('\n') {
                r.addr = s.trim().to_string();
                return Ok(r);
            }
        }
        if Instant::now() >= deadline {
            return Err("sdcheckerd never wrote its port file".into());
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// SIGTERM the daemon and wait for its drain; SIGKILL after 60 s.
fn stop(launcher: &mut Launcher, mut r: Running) -> Result<Finished, String> {
    signal(r.pid, SIGTERM).map_err(|e| e.to_string())?;
    let pid = r.pid;
    let done = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let watchdog = {
        let done = std::sync::Arc::clone(&done);
        std::thread::spawn(move || {
            let deadline = Instant::now() + Duration::from_secs(60);
            while Instant::now() < deadline {
                if done.load(std::sync::atomic::Ordering::SeqCst) {
                    return;
                }
                std::thread::sleep(Duration::from_millis(20));
            }
            let _ = signal(pid, SIGKILL);
        })
    };
    let f = launcher.wait().map_err(|e| e.to_string());
    r.stopped = true;
    done.store(true, std::sync::atomic::Ordering::SeqCst);
    let _ = watchdog.join();
    f
}

#[allow(clippy::too_many_arguments)]
pub fn run(
    launcher: &mut Launcher,
    bin: &Path,
    logs: &Path,
    work: &Path,
    spec: &Spec,
    corpus: &Corpus,
    seconds: f64,
    batch_wide: &str,
    batch_report: &str,
) -> Result<Daemon, String> {
    let expected = corpus.expected_retire(spec.settle_ms);
    let due = corpus.due_times(spec.settle_ms);
    let prefix_max = corpus.prefix().last().map_or(0, |l| l.ts);
    let catchup_apps: Vec<&String> = due
        .iter()
        .filter(|(_, &d)| d <= prefix_max)
        .map(|(a, _)| a)
        .collect();
    let live_apps: Vec<&String> = due
        .iter()
        .filter(|(_, &d)| d > prefix_max)
        .map(|(a, _)| a)
        .collect();
    let prefix_mb = Corpus::bytes_of(corpus.prefix()) as f64 / 1e6;
    let mut out = Daemon::default();

    // Catch-up: from spawn until every app due within the prefix has its
    // line. The first passes only catch up and are stopped; the last one
    // goes on to the live phase.
    let mut catchup_s = Vec::new();
    let mut d = None;
    for k in 0..spec.catchups {
        let r = start(launcher, bin, spec, logs, work, &k.to_string())?;
        let mut watch = WideWatch::new(r.wide.clone());
        if !watch.wait_for(
            &catchup_apps,
            Instant::now() + Duration::from_secs(120),
            || true,
        ) {
            out.failures
                .push("catch-up did not finish within 120 s".into());
        }
        catchup_s.push(r.spawned.elapsed().as_secs_f64());
        if k + 1 < spec.catchups {
            stop(launcher, r)?;
        } else {
            d = Some((r, watch));
        }
    }
    let (r, mut watch) = d.ok_or("no catch-up ran")?;
    out.catchup_mbps = prefix_mb / median(&catchup_s);

    let pid = r.pid;
    let addr = r.addr.clone();
    let scrape = || -> Option<Scrape> {
        let m = parse_prom(&http_get(&addr, "/metrics").ok()?);
        m.contains_key(POLLS).then(|| Scrape {
            m,
            cpu_ms: cpu_ms(pid).unwrap_or(0.0),
            poll_thread_cpu_ms: main_thread_cpu_ms(pid).unwrap_or(0.0),
        })
    };
    // A counted scrape taken right after a poll starts, so CPU read at
    // two such instants covers whole polls.
    let mut scrapes_failed = 0u64;
    let mut aligned = |after: f64| -> Scrape {
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            match scrape() {
                Some(s) if s.polls() > after => return s,
                _ if Instant::now() >= deadline => {
                    scrapes_failed += 1;
                    return Scrape::default();
                }
                _ => std::thread::sleep(Duration::from_millis(5)),
            }
        }
    };
    // Start the live phase once the catch-up poll has ended.
    let s0 = {
        let first = aligned(0.0);
        aligned(first.polls())
    };

    // Live phase.
    let live = corpus.live();
    let (times, speedup) = corpus.live_schedule(spec.settle_ms, seconds);
    let rate = live.len() as f64 / seconds;
    let t_live = Instant::now();
    let (sched, caught_live) = std::thread::scope(|sc| {
        let writer = sc.spawn(|| write_live(logs, &corpus.files, live, times, t_live));
        let ok = watch.wait_for(
            &live_apps,
            t_live + Duration::from_secs_f64(seconds + 90.0),
            || writer.is_finished(),
        );
        (writer.join(), ok)
    });
    let sched = match sched {
        Ok(Ok(s)) => s,
        Ok(Err(e)) => return Err(format!("live writer: {e}")),
        Err(_) => return Err("live writer panicked".into()),
    };
    let live_s = t_live.elapsed().as_secs_f64();
    let c1 = cpu_ms(pid).unwrap_or(0.0);
    if !caught_live {
        out.failures
            .push("live apps did not all retire within the deadline".into());
    }
    let live_mb = Corpus::bytes_of(live) as f64 / 1e6;
    out.live_cpu_ms_per_mb = (c1 - s0.cpu_ms) / live_mb;
    let mut fresh = Vec::with_capacity(live_apps.len());
    for app in &live_apps {
        let first = live.partition_point(|l| l.ts < due[*app]);
        if let Some(seen) = watch.seen.get(*app) {
            let sched_at = t_live + Duration::from_secs_f64(sched.sched_s(first));
            fresh.push(seen.saturating_duration_since(sched_at).as_secs_f64() * 1e3);
        }
    }
    out.fresh_p50_ms = median(&fresh);
    out.fresh_p99_ms = percentile(&fresh, 99.0);
    let late_ms: Vec<f64> = sched.lateness_s().iter().map(|s| s * 1e3).collect();

    // Idle window: nothing is appended.
    let s1 = aligned(0.0);
    let s2 = aligned(s1.polls());
    std::thread::sleep(Duration::from_secs_f64(spec.idle_s));
    let s3 = aligned(s2.polls());
    let idle_polls = s3.polls() - s2.polls();
    out.idle_cpu_ms_per_poll =
        (s3.poll_thread_cpu_ms - s2.poll_thread_cpu_ms) / idle_polls.max(1.0);

    let (wide, ckpt, final_report) = (r.wide.clone(), r.ckpt.clone(), r.final_report.clone());
    let exit = stop(launcher, r)?;
    out.peak_rss_mb = exit.peak_rss_mb;
    if !exit.success {
        out.failures
            .push("sdcheckerd did not exit cleanly on SIGTERM".into());
    }
    out.checkpoint_kb =
        fs::metadata(ckpt.join("checkpoint-v1")).map_or(0.0, |m| m.len() as f64 / 1e3);

    // Checks.
    let daemon_wide = fs::read_to_string(&wide).unwrap_or_default();
    let app_fails = check::daemon_apps(&daemon_wide, batch_wide, &expected);
    out.apps = expected.len() as u64;
    out.apps_failed = app_fails.len() as u64;
    out.failures.extend(app_fails.into_iter().take(10));
    let tally_fails = match fs::read_to_string(&final_report) {
        Ok(r) => check::fleet_tallies(&r, batch_report, batch_wide),
        Err(e) => vec![format!("final report: {e}")],
    };
    out.scrapes = 5;
    out.scrapes_failed = scrapes_failed + u64::from(!tally_fails.is_empty());
    out.failures.extend(tally_fails);

    let fmt_list = |v: &[f64]| {
        v.iter()
            .map(|x| format!("{x:.4}"))
            .collect::<Vec<_>>()
            .join(", ")
    };
    out.diag = vec![
        format!("\"daemon_flags\": \"{}\"", flags(spec).join(" ")),
        format!("\"cut_ms\": {}", corpus.cut_ms),
        format!("\"prefix_mb\": {prefix_mb:.3}"),
        format!("\"live_mb\": {live_mb:.3}"),
        format!("\"live_speedup\": {speedup:.1}"),
        format!("\"live_rate_lines_per_s\": {rate:.1}"),
        format!("\"live_rate_mb_per_s\": {:.3}", live_mb / seconds),
        format!("\"catchup_apps\": {}", catchup_apps.len()),
        format!("\"live_apps\": {}", live_apps.len()),
        format!("\"fresh_samples\": {}", fresh.len()),
        format!("\"catchup_s_all\": [{}]", fmt_list(&catchup_s)),
        format!("\"live_phase_s\": {live_s:.3}"),
        format!("\"idle_polls\": {idle_polls}"),
        format!("\"idle_process_cpu_ms\": {:.0}", s3.cpu_ms - s2.cpu_ms),
        format!(
            "\"generator_lateness_ms\": {{\"p50\": {:.3}, \"p99\": {:.3}, \"max\": {:.3}}}",
            percentile(&late_ms, 50.0),
            percentile(&late_ms, 99.0),
            late_ms.iter().copied().fold(0.0, f64::max)
        ),
        format!(
            "\"daemon_metrics\": {{\"after_catchup\": {}, \"after_live\": {}, \"idle_start\": {}, \"idle_end\": {}}}",
            s0.diag(),
            s1.diag(),
            s2.diag(),
            s3.diag()
        ),
    ];
    Ok(out)
}
