//! Medians, percentiles, the fastest of replays and a constant-memory
//! latency histogram.
//!
//! What repeats exactly (a round's calls, a set-up) is reported at the
//! fastest of its repeats, because what the machine's other tenants do
//! only ever adds time; the median is printed beside it. What does not
//! repeat (sampled calls) is reported as a median, with the tail at the
//! highest percentile that still has at least ten samples beyond it and
//! the sample count beside it.

/// Median of `values` (mean of the two middle values for an even
/// count). `NaN` for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// Linearly interpolated percentile `p` (0–100) of `values`, in the
/// convention of numpy's default: rank `p/100 · (n−1)`. `NaN` when empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (p / 100.0).clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

/// The wall of a round that was replayed: `replays` holds, for each time
/// the round ran, the lengths of its timed calls in the order made; each
/// call counts at the shortest length any replay saw, and the result is
/// their sum. Calls a replay did not make (a round cut short by a
/// failure) are skipped in that replay.
pub fn fastest_replays<'a>(replays: impl IntoIterator<Item = &'a [f64]>) -> f64 {
    let mut best: Vec<f64> = Vec::new();
    for calls in replays {
        if best.len() < calls.len() {
            best.resize(calls.len(), f64::INFINITY);
        }
        for (b, &c) in best.iter_mut().zip(calls) {
            *b = b.min(c);
        }
    }
    best.iter().sum()
}

/// The percentiles a tail may be reported at, lowest first, each with
/// the `k` for which one sample in `k` lies beyond it.
pub const TAIL_LADDER: [(f64, u64); 5] = [
    (50.0, 2),
    (90.0, 10),
    (99.0, 100),
    (99.9, 1_000),
    (99.99, 10_000),
];

/// The highest percentile of [`TAIL_LADDER`] with at least ten of `n`
/// samples beyond it; `None` when even the median has fewer.
pub fn tail_percentile(n: u64) -> Option<f64> {
    TAIL_LADDER
        .iter()
        .rfind(|(_, k)| n / k >= 10)
        .map(|(p, _)| *p)
}

/// Sub-buckets per power of two of [`LatencyHist`]: 32 gives bucket
/// edges 2.2 % apart, so an interpolated percentile is within ~1 %.
const SUB: usize = 32;
const OCTAVES: usize = 40;

/// A log-scale histogram of nanosecond durations in constant memory
/// (10 KB), so that timing every `decide` call costs the same however
/// many calls a faster program fits into the run.
#[derive(Clone)]
pub struct LatencyHist {
    counts: Vec<u64>,
    n: u64,
    sum_ns: u64,
}

impl Default for LatencyHist {
    fn default() -> Self {
        LatencyHist {
            counts: vec![0; SUB * OCTAVES],
            n: 0,
            sum_ns: 0,
        }
    }
}

impl LatencyHist {
    /// Values below `SUB` ns get one bucket each; above, each octave
    /// `[2^k, 2^(k+1))` is cut into `SUB` equal buckets.
    fn bucket(ns: u64) -> usize {
        if ns < SUB as u64 {
            return ns as usize;
        }
        let k = 63 - ns.leading_zeros() as usize; // 2^k <= ns
        let shift = k - SUB.trailing_zeros() as usize;
        let sub = (ns >> shift) as usize - SUB;
        ((k - SUB.trailing_zeros() as usize + 1) * SUB + sub).min(SUB * OCTAVES - 1)
    }

    /// Lower edge and width of bucket `b`, in ns.
    fn edges(b: usize) -> (f64, f64) {
        if b < SUB {
            return (b as f64, 1.0);
        }
        let octave = b / SUB - 1;
        let sub = b % SUB;
        let width = (1u64 << octave) as f64;
        ((SUB + sub) as f64 * width, width)
    }

    /// Records one duration.
    #[inline]
    pub fn record(&mut self, ns: u64) {
        self.counts[Self::bucket(ns)] += 1;
        self.n += 1;
        self.sum_ns = self.sum_ns.saturating_add(ns);
    }

    /// Number of recorded durations.
    pub fn len(&self) -> u64 {
        self.n
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Exact sum of the recorded durations, in ns.
    pub fn sum_ns(&self) -> u64 {
        self.sum_ns
    }

    /// Percentile `p` (0–100) in ns, interpolated inside its bucket.
    /// `NaN` when empty.
    pub fn percentile_ns(&self, p: f64) -> f64 {
        if self.n == 0 {
            return f64::NAN;
        }
        let target = (p / 100.0).clamp(0.0, 1.0) * self.n as f64;
        let mut seen = 0.0;
        for (b, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if seen + c as f64 >= target {
                let (lo, width) = Self::edges(b);
                return lo + width * ((target - seen) / c as f64).clamp(0.0, 1.0);
            }
            seen += c as f64;
        }
        f64::NAN
    }

    /// Adds another histogram's counts into this one.
    pub fn merge(&mut self, other: &LatencyHist) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.n += other.n;
        self.sum_ns += other.sum_ns;
    }
}
