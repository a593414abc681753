//! Open-loop append schedule: each line has a fixed due time, whatever
//! the consumer does. The writer asks which lines are due, writes them,
//! and reports when the write finished; the schedule keeps each line's
//! lateness (finish minus due time), so a stalled generator shows up in
//! its own figure instead of inflating freshness silently.

use std::ops::Range;

#[derive(Debug)]
pub struct OpenLoop {
    /// Due time of each line, s from the start, non-decreasing.
    sched: Vec<f64>,
    next: usize,
    late_s: Vec<f64>,
}

impl OpenLoop {
    pub fn new(sched: Vec<f64>) -> OpenLoop {
        debug_assert!(sched.windows(2).all(|w| w[0] <= w[1]));
        let n = sched.len();
        OpenLoop {
            sched,
            next: 0,
            late_s: Vec::with_capacity(n),
        }
    }

    /// Scheduled time of line `i`, in seconds from the start.
    pub fn sched_s(&self, i: usize) -> f64 {
        self.sched[i]
    }

    /// The lines not yet handed out whose scheduled time is at or
    /// before `now_s`.
    pub fn due(&mut self, now_s: f64) -> Range<usize> {
        let start = self.next;
        let end = start + self.sched[start..].partition_point(|&t| t <= now_s);
        self.next = end;
        start..end
    }

    /// Record that `lines` became readable at `done_s`.
    pub fn written(&mut self, lines: Range<usize>, done_s: f64) {
        for i in lines {
            self.late_s.push((done_s - self.sched_s(i)).max(0.0));
        }
    }

    /// Scheduled time of the next line not yet handed out.
    pub fn next_due_s(&self) -> Option<f64> {
        self.sched.get(self.next).copied()
    }

    /// Per-line lateness in seconds, in line order.
    pub fn lateness_s(&self) -> &[f64] {
        &self.late_s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hands_out_lines_by_schedule_and_accounts_lateness() {
        let mut s = OpenLoop::new((0..10).map(|i| i as f64 / 100.0).collect()); // one line every 10 ms
        assert_eq!(s.due(0.0), 0..1);
        s.written(0..1, 0.0);
        assert_eq!(s.next_due_s(), Some(0.01));
        // A stall: the writer wakes at 55 ms; lines 1..=5 are due.
        let r = s.due(0.055);
        assert_eq!(r, 1..6);
        s.written(r, 0.060);
        let late = s.lateness_s();
        assert_eq!(late.len(), 6);
        assert_eq!(late[0], 0.0);
        assert!((late[1] - 0.050).abs() < 1e-9);
        assert!((late[5] - 0.010).abs() < 1e-9);
        // Nothing new is due before the next slot.
        assert_eq!(s.due(0.0599), 6..6);
        let r = s.due(1.0);
        assert_eq!(r, 6..10);
        s.written(r, 1.0);
        assert_eq!(s.next_due_s(), None);
        assert!((s.lateness_s()[9] - 0.91).abs() < 1e-9);
    }

    #[test]
    fn early_completion_counts_as_on_time() {
        let mut s = OpenLoop::new(vec![0.0, 0.1]);
        let r = s.due(0.2);
        s.written(r, 0.05);
        assert_eq!(s.lateness_s(), &[0.05, 0.0]);
    }
}
