//! Structured results: per-scheduler series, CSV tables, and the
//! machine-readable JSON document written next to them.
//!
//! Every scenario run — generic or custom — produces a
//! [`ScenarioReport`] and writes nothing: the run function hands back its
//! series, extras and CSV tables as data, and the runner alone stamps the
//! wall-clock time and writes `out/<table>.csv` and `out/<scenario>.json`
//! (spec echo, per-scheduler summaries, custom extras), so benchmark
//! trajectories can be scraped without parsing terminal tables.

use crate::json::Json;
use crate::scenario::ScenarioSpec;
use decima_core::Summary;
use decima_rl::IterStats;
use decima_sim::EpisodeResult;
use std::path::PathBuf;

/// One training iteration's statistics as a JSON object — the record
/// type of the per-iteration JSONL training log (non-finite values render
/// as `null`, keeping the lines valid JSON).
pub fn iter_stats_json(s: &IterStats) -> Json {
    let record = decima_rl::iter_stats_record(s).into_iter();
    Json::obj(record.map(|(name, v)| (name, v.map_or(Json::Null, Json::Num))))
}

/// One scheduler's evaluation series across the seed plan.
#[derive(Clone, Debug)]
pub struct SeriesReport {
    /// Display label.
    pub label: String,
    /// CSV/JSON identifier.
    pub csv: String,
    /// Average JCT per seed (`NaN` when no job completed).
    pub avg_jcts: Vec<f64>,
    /// Unfinished jobs summed across seeds (streaming runs).
    pub unfinished: usize,
}

impl SeriesReport {
    /// The summary of one scheduler's episodes, one per seed: the only
    /// place episode results become a series.
    pub fn of(label: impl Into<String>, csv: impl Into<String>, results: &[EpisodeResult]) -> Self {
        SeriesReport {
            label: label.into(),
            csv: csv.into(),
            avg_jcts: results
                .iter()
                .map(|r| r.avg_jct().unwrap_or(f64::NAN))
                .collect(),
            unfinished: results.iter().map(EpisodeResult::unfinished).sum(),
        }
    }

    fn finite(&self) -> Vec<f64> {
        let finite = self.avg_jcts.iter().copied().filter(|v| v.is_finite());
        finite.collect()
    }

    /// Summary statistics over the finite entries.
    pub fn summary(&self) -> Summary {
        Summary::of(&self.finite())
    }

    /// Mean over the finite entries (`NaN` when empty).
    pub fn mean(&self) -> f64 {
        let finite = self.finite();
        if finite.is_empty() {
            f64::NAN
        } else {
            finite.iter().sum::<f64>() / finite.len() as f64
        }
    }
}

/// One CSV table of a run, as data: the runner writes it to
/// `out/<name>.csv`.
#[derive(Clone, Debug, PartialEq)]
pub struct CsvTable {
    /// File stem under `out/`.
    pub name: String,
    /// Header line.
    pub header: String,
    /// Data lines.
    pub rows: Vec<String>,
}

/// Everything one scenario run produced.
#[derive(Clone, Debug, Default)]
pub struct ScenarioReport {
    /// Per-scheduler series, in lineup order.
    pub series: Vec<SeriesReport>,
    /// Scenario-specific structured results (custom scenarios append
    /// whatever their figure measures: ratios, curves, sweet spots…).
    pub extra: Vec<(String, Json)>,
    /// The CSV tables of the run, for the runner to write.
    pub tables: Vec<CsvTable>,
    /// The CSV files the runner wrote, one per table (empty until then).
    pub csv_paths: Vec<PathBuf>,
    /// Wall-clock seconds (stamped by the runner).
    pub wall_secs: f64,
}

impl ScenarioReport {
    /// An empty report.
    pub fn new() -> Self {
        ScenarioReport::default()
    }

    /// Appends a series.
    pub fn push_series(&mut self, s: SeriesReport) {
        self.series.push(s);
    }

    /// Appends a structured extra.
    pub fn push_extra(&mut self, key: impl Into<String>, value: Json) {
        self.extra.push((key.into(), value));
    }

    /// Appends a CSV table.
    pub fn push_table(&mut self, name: &str, header: &str, rows: Vec<String>) {
        self.tables.push(CsvTable {
            name: name.to_string(),
            header: header.to_string(),
            rows,
        });
    }

    /// The full structured document for `out/<scenario>.json`.
    pub fn to_json(&self, spec: &ScenarioSpec) -> Json {
        Json::obj([
            ("scenario", spec.to_json()),
            (
                "schedulers",
                Json::Arr(
                    self.series
                        .iter()
                        .map(|s| {
                            Json::obj([
                                ("name", Json::str(&s.csv)),
                                ("label", Json::str(&s.label)),
                                ("summary", summary_json(&s.summary())),
                                ("avg_jcts", Json::nums(s.avg_jcts.iter().copied())),
                                ("unfinished", Json::Num(s.unfinished as f64)),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("extra", Json::Obj(self.extra.clone())),
            (
                "csv",
                Json::Arr(
                    self.csv_paths
                        .iter()
                        .map(|p| Json::str(p.display().to_string()))
                        .collect(),
                ),
            ),
            ("wall_secs", Json::Num(self.wall_secs)),
        ])
    }
}

/// Serializes summary statistics.
pub fn summary_json(s: &Summary) -> Json {
    Json::obj([
        ("n", Json::Num(s.n as f64)),
        ("mean", Json::Num(s.mean)),
        ("std", Json::Num(s.std)),
        ("min", Json::Num(s.min)),
        ("p50", Json::Num(s.p50)),
        ("p95", Json::Num(s.p95)),
        ("max", Json::Num(s.max)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{ScenarioBuilder, SchedulerSpec};

    #[test]
    fn series_stats_skip_nan() {
        let s = SeriesReport {
            label: "x".into(),
            csv: "x".into(),
            avg_jcts: vec![10.0, f64::NAN, 20.0],
            unfinished: 3,
        };
        assert_eq!(s.mean(), 15.0);
        assert_eq!(s.summary().n, 2);
    }

    #[test]
    fn report_json_shape() {
        let spec = ScenarioBuilder::new("t", "T")
            .sched(SchedulerSpec::Fifo)
            .build();
        let mut r = ScenarioReport::new();
        r.push_series(SeriesReport {
            label: "fifo".into(),
            csv: "fifo".into(),
            avg_jcts: vec![1.0, 2.0],
            unfinished: 0,
        });
        r.push_extra("answer", Json::Num(42.0));
        r.wall_secs = 0.5;
        let doc = r.to_json(&spec);
        assert_eq!(
            doc.get("schedulers").unwrap().as_arr().unwrap()[0]
                .get("summary")
                .unwrap()
                .get("mean")
                .unwrap()
                .as_f64(),
            Some(1.5)
        );
        assert_eq!(
            doc.get("extra").unwrap().get("answer").unwrap().as_f64(),
            Some(42.0)
        );
        assert!(doc.get("scenario").unwrap().get("name").is_some());
    }
}
