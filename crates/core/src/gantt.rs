//! Gantt-chart recording and ASCII rendering.
//!
//! The paper's Figures 3 and 13 visualize which job each task slot works on
//! over time. [`Gantt`] records per-executor busy segments during a
//! simulation run and renders them as ASCII art (one row per executor,
//! one letter per job, `.` for idle, `|` markers for job completions).

use crate::ids::{ExecutorId, JobId};
use crate::time::SimTime;

/// One busy interval on one executor.
#[derive(Clone, Copy, Debug)]
pub struct Segment {
    /// Start of the busy interval.
    pub start: SimTime,
    /// End of the busy interval.
    pub end: SimTime,
    /// The job the executor worked on (executor-motion dead time is
    /// recorded with `job = None`).
    pub job: Option<JobId>,
}

/// A per-executor timeline of busy segments plus job-completion markers.
#[derive(Clone, Debug, Default)]
pub struct Gantt {
    rows: Vec<Vec<Segment>>,
    completions: Vec<(JobId, SimTime)>,
}

impl Gantt {
    /// Creates a chart for `num_executors` rows.
    pub fn new(num_executors: usize) -> Self {
        Gantt {
            rows: vec![Vec::new(); num_executors],
            completions: Vec::new(),
        }
    }

    /// Records a busy (or moving) segment for an executor.
    pub fn record(&mut self, exec: ExecutorId, start: SimTime, end: SimTime, job: Option<JobId>) {
        debug_assert!(end >= start, "segment must have non-negative length");
        self.rows[exec.index()].push(Segment { start, end, job });
    }

    /// Records a job completion marker.
    pub fn record_completion(&mut self, job: JobId, t: SimTime) {
        self.completions.push((job, t));
    }

    /// Number of executor rows.
    pub fn num_rows(&self) -> usize {
        self.rows.len()
    }

    /// Raw segments of one executor row.
    pub fn row(&self, exec: ExecutorId) -> &[Segment] {
        &self.rows[exec.index()]
    }

    /// Job completion markers recorded so far.
    pub fn completions(&self) -> &[(JobId, SimTime)] {
        &self.completions
    }

    /// Latest segment end over all rows (the busy horizon).
    pub fn horizon(&self) -> SimTime {
        self.rows
            .iter()
            .flatten()
            .map(|s| s.end)
            .max()
            .unwrap_or(SimTime::ZERO)
    }

    /// Fraction of executor-time spent busy on a job in `[0, horizon]`.
    pub fn utilization(&self) -> f64 {
        let horizon = self.horizon().as_secs();
        if horizon <= 0.0 || self.rows.is_empty() {
            return 0.0;
        }
        let busy: f64 = self
            .rows
            .iter()
            .flatten()
            .filter(|s| s.job.is_some())
            .map(|s| s.end - s.start)
            .sum();
        busy / (horizon * self.rows.len() as f64)
    }

    /// Renders the chart as ASCII art, `width` characters wide.
    ///
    /// Jobs are assigned letters `a..z A..Z 0..9` cyclically; `.` is idle
    /// time, `*` is executor-motion dead time. A header row carries `|`
    /// markers at job completion times.
    pub fn render_ascii(&self, width: usize) -> String {
        let horizon = self.horizon().as_secs().max(1e-9);
        let scale = width as f64 / horizon;
        let glyph = |job: JobId| -> char {
            const ALPHABET: &[u8] =
                b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789";
            ALPHABET[job.index() % ALPHABET.len()] as char
        };

        let mut out = String::new();
        // Completion marker header.
        let mut header = vec![' '; width];
        for &(_, t) in &self.completions {
            let x = ((t.as_secs() * scale) as usize).min(width.saturating_sub(1));
            header[x] = '|';
        }
        out.push_str(&header.iter().collect::<String>());
        out.push('\n');

        for row in &self.rows {
            let mut line = vec!['.'; width];
            for seg in row {
                let x0 = ((seg.start.as_secs() * scale) as usize).min(width.saturating_sub(1));
                let x1 = ((seg.end.as_secs() * scale).ceil() as usize).clamp(x0 + 1, width);
                let ch = match seg.job {
                    Some(j) => glyph(j),
                    None => '*',
                };
                for c in line.iter_mut().take(x1).skip(x0) {
                    *c = ch;
                }
            }
            out.push_str(&line.iter().collect::<String>());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_renders() {
        let mut g = Gantt::new(2);
        g.record(
            ExecutorId(0),
            SimTime::ZERO,
            SimTime::from_secs(5.0),
            Some(JobId(0)),
        );
        g.record(
            ExecutorId(1),
            SimTime::from_secs(5.0),
            SimTime::from_secs(10.0),
            Some(JobId(1)),
        );
        g.record_completion(JobId(0), SimTime::from_secs(5.0));
        assert_eq!(g.horizon().as_secs(), 10.0);

        let art = g.render_ascii(20);
        let lines: Vec<&str> = art.lines().collect();
        assert_eq!(lines.len(), 3); // header + 2 rows
        assert!(lines[1].starts_with("aaaa"));
        assert!(lines[2].ends_with("bbbb"));
        assert!(lines[0].contains('|'));
    }

    #[test]
    fn utilization_half_busy() {
        let mut g = Gantt::new(2);
        // Executor 0 busy the whole horizon, executor 1 idle.
        g.record(
            ExecutorId(0),
            SimTime::ZERO,
            SimTime::from_secs(10.0),
            Some(JobId(0)),
        );
        assert!((g.utilization() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn move_time_renders_star_and_does_not_count_busy() {
        let mut g = Gantt::new(1);
        g.record(ExecutorId(0), SimTime::ZERO, SimTime::from_secs(5.0), None);
        g.record(
            ExecutorId(0),
            SimTime::from_secs(5.0),
            SimTime::from_secs(10.0),
            Some(JobId(3)),
        );
        assert!((g.utilization() - 0.5).abs() < 1e-12);
        let art = g.render_ascii(10);
        assert!(art.lines().nth(1).unwrap().starts_with("*****"));
    }

    #[test]
    fn empty_chart_is_safe() {
        let g = Gantt::new(0);
        assert_eq!(g.utilization(), 0.0);
        assert_eq!(g.horizon(), SimTime::ZERO);
        let g2 = Gantt::new(1);
        let art = g2.render_ascii(10);
        assert_eq!(art.lines().count(), 2);
    }
}
