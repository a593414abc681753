//! Output checks: the program's outputs against the simulator's ground
//! truth, against the benchmark's own due-time computation, and against
//! properties the method must have.

use std::collections::BTreeMap;

use crate::json::{parse, Json};
use sparksim::JobSummary;

/// Wide-event lines keyed by application id. Each app maps to every
/// line that names it (more than one is itself a failure).
pub fn wide_by_app(jsonl: &str) -> BTreeMap<String, Vec<&str>> {
    let mut out: BTreeMap<String, Vec<&str>> = BTreeMap::new();
    for line in jsonl.lines().filter(|l| !l.is_empty()) {
        out.entry(app_of(line).unwrap_or_default().to_string())
            .or_default()
            .push(line);
    }
    out
}

/// The `app` field of a wide-event line, by its fixed position.
pub fn app_of(line: &str) -> Option<&str> {
    let rest = &line[line.find("\"app\": \"")? + 8..];
    Some(&rest[..rest.find('"')?])
}

/// A wide-event line without its `retire_ms` and `lag_ms` fields.
pub fn without_retire(line: &str) -> String {
    match (line.find("\"retire_ms\": "), line.find(", \"components\"")) {
        (Some(a), Some(b)) if a < b => format!("{}{}", &line[..a], &line[b + 2..]),
        _ => line.to_string(),
    }
}

fn num(j: &Json, key: &str) -> Option<f64> {
    j.get(key)?.as_f64()
}

/// Checks of one batch pass's outputs against the simulator's job
/// summaries. Returns one message per failed property.
pub fn batch(wide: &str, report_json: &str, summaries: &[JobSummary]) -> Vec<String> {
    let mut fails = Vec::new();
    let lines = wide_by_app(wide);
    let truth: BTreeMap<String, &JobSummary> =
        summaries.iter().map(|s| (s.app.to_string(), s)).collect();
    if lines.keys().ne(truth.keys()) {
        fails.push(format!(
            "analysed apps ({}) differ from simulated apps ({})",
            lines.len(),
            truth.len()
        ));
    }
    let mut outcomes: BTreeMap<String, u64> = BTreeMap::new();
    let mut bad_name = 0;
    let mut bad_failed = 0;
    let mut bad_tiling = 0;
    for (app, ls) in &lines {
        let Some(j) = ls.first().and_then(|l| parse(l).ok()) else {
            fails.push(format!("{app}: unparseable wide event"));
            continue;
        };
        let outcome = j.get("outcome").and_then(Json::as_str).unwrap_or("");
        *outcomes.entry(outcome.to_string()).or_default() += 1;
        if let Some(s) = truth.get(app) {
            // A name is mined from the driver's banner; an app whose AM
            // never started has none, which only a failed app may lack.
            let named_right = match j.get("name") {
                Some(Json::Str(n)) => *n == s.label,
                _ => s.failed,
            };
            if !named_right {
                bad_name += 1;
            }
            if (outcome == "failed") != s.failed {
                bad_failed += 1;
            }
        }
        let total = j.get("components").and_then(|c| num(c, "total"));
        if let Some(total) = total {
            let segs: Option<f64> = j.get("blame").and_then(|b| {
                b.get("segments")?
                    .as_arr()?
                    .iter()
                    .map(|s| num(s, "dur_ms"))
                    .sum()
            });
            if segs != Some(total) {
                bad_tiling += 1;
            }
        }
    }
    if bad_name > 0 {
        fails.push(format!("{bad_name} mined names differ from job labels"));
    }
    if bad_failed > 0 {
        fails.push(format!("{bad_failed} apps disagree on the failed outcome"));
    }
    if bad_tiling > 0 {
        fails.push(format!(
            "{bad_tiling} complete apps' critical-path segments do not sum to total_ms"
        ));
    }
    let counted: u64 = outcomes.values().sum();
    match parse(report_json) {
        Ok(r) => {
            let apps = r.get("fleet").and_then(|f| num(f, "applications"));
            if apps != Some(counted as f64) || counted != truth.len() as u64 {
                fails.push(format!(
                    "outcome counts sum to {counted}, report has {apps:?} apps, {} simulated",
                    truth.len()
                ));
            }
        }
        Err(e) => fails.push(format!("report JSON does not parse: {e}")),
    }
    fails
}

/// Per-app checks of the daemon's wide events against batch over the
/// finished corpus and the expected retirement instants. Returns the
/// failing apps with a reason each.
pub fn daemon_apps(
    daemon_wide: &str,
    batch_wide: &str,
    expected_retire: &BTreeMap<String, u64>,
) -> Vec<String> {
    let daemon = wide_by_app(daemon_wide);
    let batch = wide_by_app(batch_wide);
    let mut fails = Vec::new();
    for (app, due) in expected_retire {
        let got = daemon.get(app).map_or(&[][..], Vec::as_slice);
        if got.len() != 1 {
            fails.push(format!("{app}: {} wide-event lines", got.len()));
            continue;
        }
        let line = got[0];
        let want = batch.get(app).and_then(|v| v.first());
        if want.map(|w| without_retire(w)) != Some(without_retire(line)) {
            fails.push(format!("{app}: wide event differs from batch"));
            continue;
        }
        let retire = parse(line).ok().and_then(|j| num(&j, "retire_ms"));
        if retire != Some(*due as f64) {
            fails.push(format!("{app}: retire_ms {retire:?}, due {due}"));
        }
    }
    for app in daemon.keys() {
        if !expected_retire.contains_key(app) {
            fails.push(format!("{app}: retired but never simulated"));
        }
    }
    fails
}

/// The daemon's final fleet tallies against the batch report and the
/// batch wide events. Returns one message per disagreement.
pub fn fleet_tallies(daemon_report: &str, batch_report: &str, batch_wide: &str) -> Vec<String> {
    let (d, b) = match (parse(daemon_report), parse(batch_report)) {
        (Ok(d), Ok(b)) => (d, b),
        _ => return vec!["final or batch report does not parse".to_string()],
    };
    let (Some(df), Some(bf)) = (d.get("fleet"), b.get("fleet")) else {
        return vec!["report without a fleet section".to_string()];
    };
    let mut want: Vec<(&str, f64)> = vec![
        ("applications", num(bf, "applications").unwrap_or(-1.0)),
        ("retired", num(bf, "applications").unwrap_or(-1.0)),
        ("in_flight", 0.0),
        ("complete", num(bf, "complete").unwrap_or(-1.0)),
        ("late_events", 0.0),
    ];
    let mut outcomes: BTreeMap<String, f64> = BTreeMap::new();
    let (mut unused, mut events, mut retried, mut wasted) = (0.0, 0.0, 0.0, 0.0);
    for line in batch_wide.lines().filter(|l| !l.is_empty()) {
        let Ok(j) = parse(line) else { continue };
        let o = j.get("outcome").and_then(Json::as_str).unwrap_or("");
        *outcomes.entry(o.to_string()).or_default() += 1.0;
        unused += num(&j, "unused_containers").unwrap_or(0.0);
        events += num(&j, "events").unwrap_or(0.0);
        wasted += num(&j, "wasted_ms").unwrap_or(0.0);
        if num(&j, "attempts").unwrap_or(1.0) > 1.0 {
            retried += 1.0;
        }
    }
    want.extend([
        ("unused_containers", unused),
        ("events_analyzed", events),
        ("retried_apps", retried),
        ("wasted_ms_total", wasted),
    ]);
    let mut fails = Vec::new();
    for (key, v) in want {
        if num(df, key) != Some(v) {
            fails.push(format!("fleet.{key}: daemon {:?}, batch {v}", num(df, key)));
        }
    }
    let zero = Json::Obj(Vec::new());
    let d_out = df.get("outcomes").unwrap_or(&zero);
    for (o, n) in &outcomes {
        if num(d_out, o) != Some(*n) {
            fails.push(format!(
                "fleet.outcomes.{o}: daemon {:?}, batch {n}",
                num(d_out, o)
            ));
        }
    }
    // Component sketches: exact counts and extremes must agree.
    let (Some(dc), Some(bc)) = (df.get("app_components_ms"), bf.get("app_components_ms")) else {
        fails.push("missing app_components_ms".to_string());
        return fails;
    };
    if let Json::Obj(members) = bc {
        for (name, bs) in members {
            for k in ["count", "sum", "min", "max"] {
                let bv = num(bs, k);
                let dv = dc.get(name).and_then(|s| num(s, k));
                if bv != dv {
                    fails.push(format!(
                        "app_components_ms.{name}.{k}: daemon {dv:?}, batch {bv:?}"
                    ));
                }
            }
        }
    }
    fails
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strips_only_the_retirement_fields() {
        let l = "{\"schema\": \"wide-events-v1\", \"app\": \"application_1_0001\", \
                 \"first_task_ms\": 5, \"retire_ms\": 90, \"lag_ms\": 3, \"components\": {}}";
        assert_eq!(app_of(l), Some("application_1_0001"));
        assert_eq!(
            without_retire(l),
            "{\"schema\": \"wide-events-v1\", \"app\": \"application_1_0001\", \
             \"first_task_ms\": 5, \"components\": {}}"
        );
    }

    #[test]
    fn daemon_checks_catch_missing_duplicate_and_misstamped_apps() {
        let line = |app: &str, retire: u64| {
            format!(
                "{{\"app\": \"{app}\", \"retire_ms\": {retire}, \"lag_ms\": 1, \"components\": {{}}}}"
            )
        };
        let batch = format!("{}\n{}\n{}\n", line("a", 9), line("b", 9), line("c", 9));
        let daemon = format!("{}\n{}\n{}\n", line("a", 5), line("b", 6), line("b", 6));
        let due: BTreeMap<String, u64> = [("a", 5), ("b", 6), ("c", 7)]
            .iter()
            .map(|(a, d)| (a.to_string(), *d))
            .collect();
        let fails = daemon_apps(&daemon, &batch, &due);
        assert_eq!(fails.len(), 2, "{fails:?}");
        assert!(fails[0].starts_with("b: 2"));
        assert!(fails[1].starts_with("c: 0"));
        let daemon = format!("{}\n{}\n{}\n", line("a", 5), line("b", 8), line("c", 7));
        let fails = daemon_apps(&daemon, &batch, &due);
        assert_eq!(fails, vec!["b: retire_ms Some(8.0), due 6".to_string()]);
    }
}
