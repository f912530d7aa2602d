//! Structured results: per-scheduler series, typed tables, and the
//! machine-readable JSON document written next to them.
//!
//! Every scenario run — generic or custom — produces a
//! [`ScenarioReport`] and writes nothing: the run function hands back its
//! series, extras and tables as data, and the runner alone stamps the
//! wall-clock time and writes `out/<table>.csv` and `out/<scenario>.json`
//! (spec echo, per-scheduler summaries, custom extras), so benchmark
//! trajectories can be scraped without parsing terminal tables.
//!
//! A reported row exists once, in a [`Table`]: its columns are declared
//! once (key, terminal heading, digits, which renderings show them), its
//! rows are pushed once as values, and the terminal table, the CSV file
//! and the JSON cells are three renderers over it.

use crate::json::{obj, Json, ToJson};
use crate::scenario::ScenarioSpec;
use decima_core::Summary;
use decima_rl::IterStats;
use decima_sim::EpisodeResult;
use std::ops::Range;
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

    /// Summary statistics over the seeds that completed a job: what the
    /// terminal, the CSV and the JSON of a run all report.
    pub fn summary(&self) -> Summary {
        let finite = self.avg_jcts.iter().copied().filter(|v| v.is_finite());
        Summary::of(&finite.collect::<Vec<f64>>())
    }

    /// Mean over the seeds that completed a job (`NaN` when none did).
    pub fn mean(&self) -> f64 {
        match self.summary() {
            Summary { n: 0, .. } => f64::NAN,
            summary => summary.mean,
        }
    }
}

/// The terminal rendering, as a bit of [`Column::on`].
pub const TERM: u8 = 1;
/// The CSV rendering.
pub const CSV: u8 = 2;
/// The JSON rendering.
pub const JSON: u8 = 4;

/// One value of a [`Table`] row.
#[derive(Clone, Debug, PartialEq)]
pub enum Cell {
    /// A whole count.
    Int(u64),
    /// A measured number; one that is not finite is an empty CSV cell and
    /// a JSON `null`.
    Num(f64),
    /// A name.
    Text(String),
}

/// `impl From<T> for Cell` for each `T => how`.
macro_rules! cell_from {
    ($($t:ty => $cell:expr),* $(,)?) => {$(
        impl From<$t> for Cell {
            fn from(v: $t) -> Cell {
                $cell(v)
            }
        }
    )*};
}

cell_from! {
    u64 => Cell::Int,
    usize => |n| Cell::Int(n as u64),
    f64 => Cell::Num,
    &str => |t: &str| Cell::Text(t.to_string()),
    String => Cell::Text,
}

/// One column of a [`Table`], declared once: a new column shows in all
/// three renderings under its key, numbers with two digits in the CSV,
/// one on the terminal and all of them in the JSON.
#[derive(Clone, Debug, PartialEq)]
pub struct Column {
    key: String,
    heading: String,
    json_key: String,
    unit: &'static str,
    csv_digits: Option<usize>,
    term_digits: usize,
    signed: bool,
    on: u8,
}

impl Column {
    /// A column named `key` in the CSV header, the JSON and the terminal.
    pub fn new(key: impl Into<String>) -> Self {
        let key = key.into();
        Column {
            heading: key.clone(),
            json_key: key.clone(),
            key,
            unit: "",
            csv_digits: Some(2),
            term_digits: 1,
            signed: false,
            on: TERM | CSV | JSON,
        }
    }

    /// Another terminal heading (empty: a labelled row shows the value
    /// alone).
    pub fn heading(mut self, heading: &str) -> Self {
        self.heading = heading.to_string();
        self
    }

    /// Another JSON key.
    pub fn json(mut self, key: &str) -> Self {
        self.json_key = key.to_string();
        self
    }

    /// Digits after the point in the CSV and on the terminal.
    pub fn digits(mut self, csv: usize, term: usize) -> Self {
        (self.csv_digits, self.term_digits) = (Some(csv), term);
        self
    }

    /// The CSV shows numbers in their shortest form (`0.7`, `1`).
    pub fn shortest(mut self) -> Self {
        self.csv_digits = None;
        self
    }

    /// What the terminal appends to a value (`s`, `%`).
    pub fn unit(mut self, unit: &'static str) -> Self {
        self.unit = unit;
        self
    }

    /// The terminal shows the sign of positive numbers too.
    pub fn signed(mut self) -> Self {
        self.signed = true;
        self
    }

    /// The renderings that show the column ([`TERM`] `|` [`CSV`] `|`
    /// [`JSON`]).
    pub fn on(mut self, renderings: u8) -> Self {
        self.on = renderings;
        self
    }

    fn term(&self, cell: &Cell) -> String {
        let d = self.term_digits;
        let text = match cell {
            Cell::Int(n) => n.to_string(),
            Cell::Num(v) if self.signed => format!("{v:+.d$}"),
            Cell::Num(v) => format!("{v:.d$}"),
            Cell::Text(t) => t.clone(),
        };
        text + self.unit
    }

    fn csv(&self, cell: &Cell) -> String {
        match (cell, self.csv_digits) {
            (Cell::Int(n), _) => n.to_string(),
            (Cell::Num(v), _) if !v.is_finite() => String::new(),
            (Cell::Num(v), Some(d)) => format!("{v:.d$}"),
            (Cell::Num(v), None) => v.to_string(),
            (Cell::Text(t), _) => t.clone(),
        }
    }
}

impl ToJson for Cell {
    fn json(&self) -> Json {
        match self {
            Cell::Int(n) => n.json(),
            Cell::Num(v) if v.is_finite() => v.json(),
            Cell::Num(_) => Json::Null,
            Cell::Text(t) => t.json(),
        }
    }
}

/// One table of a run: the terminal table, `out/<name>.csv` and the
/// table's JSON cells are renderings of the same columns and rows.
#[derive(Clone, Debug, PartialEq)]
pub struct Table {
    /// File stem under `out/`.
    pub name: String,
    columns: Vec<Column>,
    rows: Vec<Vec<Cell>>,
    labelled: bool,
}

impl Table {
    /// An empty table of these columns.
    pub fn new(name: &str, columns: impl IntoIterator<Item = Column>) -> Self {
        Table {
            name: name.to_string(),
            columns: columns.into_iter().collect(),
            rows: Vec::new(),
            labelled: false,
        }
    }

    /// The terminal shows no header line: every row names its values
    /// (`fifo  avg JCT 193.2s  unfinished 0`).
    pub fn labelled(mut self) -> Self {
        self.labelled = true;
        self
    }

    /// Appends a row: one cell per column, in column order.
    pub fn push(&mut self, row: impl IntoIterator<Item = Cell>) {
        let row: Vec<Cell> = row.into_iter().collect();
        assert_eq!(row.len(), self.columns.len(), "table '{}'", self.name);
        self.rows.push(row);
    }

    /// Rows so far.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether no row was pushed.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    fn shown(&self, rendering: u8) -> impl Iterator<Item = (usize, &Column)> {
        let columns = self.columns.iter().enumerate();
        columns.filter(move |(_, c)| c.on & rendering != 0)
    }

    /// The terminal rendering of the rows from `from` on, under the
    /// header line unless the table is [`Table::labelled`]: columns as
    /// wide as their widest value, names to the left and numbers to the
    /// right.
    pub fn terminal(&self, from: usize) -> String {
        let rows = &self.rows[from..];
        let mut lines = vec![Vec::new(); rows.len() + 1];
        for (i, col) in self.shown(TERM) {
            let texts: Vec<String> = rows.iter().map(|r| col.term(&r[i])).collect();
            let left = matches!(rows.first().map(|r| &r[i]), Some(Cell::Text(_)) | None);
            let heading = (!self.labelled).then_some(&col.heading);
            let width = texts.iter().chain(heading).map(|t| t.chars().count());
            let width = width.max().unwrap_or(0);
            let pad = |t: &str| match left {
                true => format!("{t:<width$}"),
                false => format!("{t:>width$}"),
            };
            lines[0].push(pad(&col.heading));
            for (line, text) in lines[1..].iter_mut().zip(&texts) {
                match self.labelled && !col.heading.is_empty() {
                    true => line.push(format!("{} {}", col.heading, pad(text))),
                    false => line.push(pad(text)),
                }
            }
        }
        let lines = lines.iter().skip(self.labelled as usize);
        let lines = lines.map(|cells| cells.join("  ").trim_end().to_string() + "\n");
        lines.collect()
    }

    /// Prints [`Table::terminal`] of every row.
    pub fn print(&self) {
        self.print_from(0);
    }

    /// Prints [`Table::terminal`] of the rows from `from` on (one section
    /// of a table that is reported section by section).
    pub fn print_from(&self, from: usize) {
        print!("{}", self.terminal(from));
    }

    /// The body of `out/<name>.csv`: the header line, then one line per
    /// row.
    pub fn csv(&self) -> String {
        let header: Vec<&str> = self.shown(CSV).map(|(_, c)| c.key.as_str()).collect();
        let mut body = header.join(",") + "\n";
        for row in &self.rows {
            let cells: Vec<String> = self.shown(CSV).map(|(i, c)| c.csv(&row[i])).collect();
            body += &(cells.join(",") + "\n");
        }
        body
    }

    /// The members of one JSON object per row, in row order.
    pub fn json_rows(&self) -> Vec<Vec<(String, Json)>> {
        let members = |row: &Vec<Cell>| {
            let cells = self.shown(JSON);
            cells
                .map(|(i, c)| (c.json_key.clone(), row[i].json()))
                .collect()
        };
        self.rows.iter().map(members).collect()
    }

    /// One JSON array per row (`[[x, y], …]` curves): of the columns
    /// `keys` in that order, or of every JSON column when none is named.
    pub fn json_arrays(&self, keys: &[&str]) -> Json {
        let at = |key: &&str| {
            let found = self.columns.iter().position(|c| c.key == *key);
            found.unwrap_or_else(|| panic!("table '{}' has no column '{key}'", self.name))
        };
        let at: Vec<usize> = match keys {
            [] => self.shown(JSON).map(|(i, _)| i).collect(),
            keys => keys.iter().map(at).collect(),
        };
        let array = |row: &Vec<Cell>| Json::Arr(at.iter().map(|&i| row[i].json()).collect());
        Json::Arr(self.rows.iter().map(array).collect())
    }

    /// One JSON array per column over `rows` (`{"regret_by_phase": […]}`).
    pub fn json_columns(&self, rows: Range<usize>) -> Json {
        let column = |i: usize| self.rows[rows.clone()].iter().map(move |r| r[i].json());
        let cells = self.shown(JSON);
        Json::obj(cells.map(|(i, c)| (c.json_key.as_str(), Json::Arr(column(i).collect()))))
    }
}

/// Everything one scenario run produced.
#[derive(Clone, Debug, Default)]
pub struct ScenarioReport {
    /// Per-scheduler series, in lineup order.
    pub series: Vec<SeriesReport>,
    /// Scenario-specific structured results (custom scenarios append
    /// whatever their figure measures: ratios, curves, sweet spots…).
    pub extra: Vec<(String, Json)>,
    /// The tables of the run, for the runner to write as CSV.
    pub tables: Vec<Table>,
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

    /// Appends a table.
    pub fn push_table(&mut self, table: Table) {
        self.tables.push(table);
    }

    /// The full structured document for `out/<scenario>.json`.
    pub fn to_json(&self, spec: &ScenarioSpec) -> Json {
        let schedulers = self.series.iter().map(|s| {
            let summary = summary_json(&s.summary());
            obj!("name" => s.csv, s.label, summary, s.avg_jcts, s.unfinished)
        });
        let csv = self.csv_paths.iter().map(|p| p.display().to_string());
        obj!(
            "scenario" => spec.to_json(),
            "schedulers" => schedulers.collect::<Vec<Json>>(),
            "extra" => Json::Obj(self.extra.clone()),
            "csv" => csv.collect::<Vec<String>>(),
            self.wall_secs
        )
    }
}

/// Serializes summary statistics.
pub fn summary_json(s: &Summary) -> Json {
    obj!(s.n, s.mean, s.std, s.min, s.p50, s.p95, s.max)
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

    /// One table, three renderings: each column shows where it was
    /// declared to, with the digits it was declared with — and a number
    /// that is not finite is an empty CSV cell and a JSON `null`, never
    /// the literal `NaN` (numeric consumers see a missing value).
    #[test]
    fn a_table_renders_three_ways_and_blanks_out_nan() {
        let mut t = Table::new(
            "t",
            [
                Column::new("scheduler").on(TERM | CSV),
                Column::new("avg_jct").heading("avg JCT").unit("s"),
                Column::new("err_pct")
                    .heading("err")
                    .signed()
                    .unit("%")
                    .on(TERM),
                Column::new("load").shortest().on(CSV | JSON),
                Column::new("runs").json("n"),
            ],
        );
        t.push([
            "fifo".into(),
            12.345.into(),
            2.5.into(),
            0.7.into(),
            3usize.into(),
        ]);
        t.push([
            "fair".into(),
            f64::NAN.into(),
            (-4.0).into(),
            1.0.into(),
            0usize.into(),
        ]);
        t.push([
            "sjf".into(),
            f64::INFINITY.into(),
            0.0.into(),
            0.25.into(),
            1usize.into(),
        ]);
        assert_eq!(
            t.csv(),
            "scheduler,avg_jct,load,runs\nfifo,12.35,0.7,3\nfair,,1,0\nsjf,,0.25,1\n"
        );
        assert_eq!(
            t.terminal(1),
            "scheduler  avg JCT    err  runs\nfair          NaNs  -4.0%     0\nsjf           infs  +0.0%     1\n"
        );
        let labelled = t.clone().labelled().terminal(0);
        assert_eq!(
            labelled.lines().next(),
            Some("scheduler fifo  avg JCT 12.3s  err +2.5%  runs 3")
        );
        let rows: Vec<Json> = t.json_rows().into_iter().map(Json::Obj).collect();
        assert_eq!(
            rows[0].render_compact(),
            r#"{"avg_jct": 12.345, "load": 0.7, "n": 3}"#
        );
        assert_eq!(rows[1].get("avg_jct"), Some(&Json::Null));
        assert_eq!(rows[2].get("avg_jct"), Some(&Json::Null));
        assert_eq!(
            t.json_arrays(&["runs", "avg_jct"]).render_compact(),
            "[[3, 12.345], [0, null], [1, null]]"
        );
        assert_eq!(
            t.json_arrays(&[]).render_compact(),
            "[[12.345, 0.7, 3], [null, 1, 0], [null, 0.25, 1]]"
        );
        assert_eq!(
            t.json_columns(1..3).render_compact(),
            r#"{"avg_jct": [null, null], "load": [1, 0.25], "n": [0, 1]}"#
        );
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
