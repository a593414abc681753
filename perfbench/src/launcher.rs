//! Starts the measured programs from a small helper process.
//!
//! Linux charges a freshly spawned child with its parent's peak RSS
//! until it has exec'd (the `maxrss` a reaped child reports covers the
//! parent's image it was cloned from). The benchmark holds a whole
//! corpus in memory, so children spawned from it would all report at
//! least its peak. The helper is started before any corpus exists, stays
//! a few MB, and spawns and reaps each program on request, so the peak
//! RSS it reports is the program's own.
//!
//! Protocol, one line each way: the request is `stdout`, `stderr`,
//! program and arguments joined by U+001F (an empty path means
//! `/dev/null`); the helper answers `started <pid>` at once, and
//! `exited <ok> <peak_rss_kb> <wall_s>` after reaping.

use std::io::{self, BufRead as _, BufReader, Write as _};
use std::path::Path;
use std::process::{ChildStdin, ChildStdout, Command, ExitCode, Stdio};
use std::time::Instant;

use crate::sysinfo::{reap, Reaper};

const SEP: char = '\u{1f}';

pub struct Launcher {
    helper: Reaper,
    to: ChildStdin,
    from: BufReader<ChildStdout>,
}

/// A finished program.
#[derive(Debug, Clone, Copy)]
pub struct Finished {
    /// Exited normally with status 0.
    pub success: bool,
    pub peak_rss_mb: f64,
    /// From start to reaping.
    pub wall_s: f64,
}

impl Launcher {
    pub fn start() -> io::Result<Launcher> {
        let mut child = Command::new(std::env::current_exe()?)
            .arg("--launcher")
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()?;
        let to = child
            .stdin
            .take()
            .ok_or_else(|| io::Error::other("no helper stdin"))?;
        let from = BufReader::new(
            child
                .stdout
                .take()
                .ok_or_else(|| io::Error::other("no helper stdout"))?,
        );
        Ok(Launcher {
            helper: Reaper::new(child),
            to,
            from,
        })
    }

    fn line(&mut self) -> io::Result<String> {
        let mut s = String::new();
        if self.from.read_line(&mut s)? == 0 {
            return Err(io::Error::other("launcher helper exited"));
        }
        Ok(s.trim_end().to_string())
    }

    /// Start `prog` with `args`; returns its pid.
    pub fn spawn(
        &mut self,
        prog: &Path,
        args: &[String],
        stdout: Option<&Path>,
        stderr: Option<&Path>,
    ) -> io::Result<u32> {
        let path = |p: Option<&Path>| p.map(|p| p.display().to_string()).unwrap_or_default();
        let mut req = vec![path(stdout), path(stderr), prog.display().to_string()];
        req.extend(args.iter().cloned());
        writeln!(self.to, "{}", req.join(&SEP.to_string()))?;
        self.to.flush()?;
        let reply = self.line()?;
        reply
            .strip_prefix("started ")
            .and_then(|p| p.parse().ok())
            .ok_or_else(|| io::Error::other(format!("cannot start {}: {reply}", prog.display())))
    }

    /// Wait for the program started last.
    pub fn wait(&mut self) -> io::Result<Finished> {
        let reply = self.line()?;
        let f: Vec<&str> = reply.split(' ').collect();
        match f.as_slice() {
            ["exited", ok, kb, wall] => Ok(Finished {
                success: *ok == "1",
                peak_rss_mb: kb.parse::<f64>().unwrap_or(0.0) * 1024.0 / 1e6,
                wall_s: wall.parse().unwrap_or(0.0),
            }),
            _ => Err(io::Error::other(format!("bad launcher reply: {reply}"))),
        }
    }

    /// Start, wait, and return the result.
    pub fn run(
        &mut self,
        prog: &Path,
        args: &[String],
        stdout: Option<&Path>,
    ) -> io::Result<Finished> {
        self.spawn(prog, args, stdout, None)?;
        self.wait()
    }

    /// Close the request pipe and reap the helper.
    pub fn stop(mut self) {
        drop(self.to);
        let _ = self.helper.wait();
    }
}

/// The helper's main loop.
pub fn serve() -> ExitCode {
    let stdin = io::stdin();
    let mut out = io::stdout();
    for req in stdin.lock().lines() {
        let Ok(req) = req else { break };
        let f: Vec<&str> = req.split(SEP).collect();
        let [stdout, stderr, prog, args @ ..] = f.as_slice() else {
            let _ = writeln!(out, "error malformed request");
            continue;
        };
        let file = |p: &str| -> io::Result<Stdio> {
            Ok(if p.is_empty() {
                Stdio::null()
            } else {
                Stdio::from(std::fs::File::create(p)?)
            })
        };
        let t = Instant::now();
        let child = file(stdout)
            .and_then(|o| Ok((o, file(stderr)?)))
            .and_then(|(o, e)| {
                Command::new(prog)
                    .args(args)
                    .stdin(Stdio::null())
                    .stdout(o)
                    .stderr(e)
                    .spawn()
            });
        let child = match child {
            Ok(c) => c,
            Err(e) => {
                let _ = writeln!(out, "error {e}");
                let _ = out.flush();
                continue;
            }
        };
        let _ = writeln!(out, "started {}", child.id());
        let _ = out.flush();
        let reply = match reap(&child) {
            Ok(x) => format!(
                "exited {} {} {}",
                u8::from(x.success),
                x.peak_rss_kb,
                t.elapsed().as_secs_f64()
            ),
            Err(e) => format!("error {e}"),
        };
        let _ = writeln!(out, "{reply}");
        let _ = out.flush();
    }
    ExitCode::SUCCESS
}
