//! Sample summaries and the result line.

/// A set of timings (or other values), summarized by interpolated
/// quantiles so every reported figure keeps all its measured digits.
#[derive(Default, Clone)]
pub struct Samples(Vec<f64>);

impl Samples {
    pub fn push(&mut self, v: f64) {
        self.0.push(v);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// The `q` quantile (0..=1), linearly interpolated; 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.0.is_empty() {
            return 0.0;
        }
        let mut v = self.0.clone();
        v.sort_by(f64::total_cmp);
        let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
    }

    pub fn sum(&self) -> f64 {
        self.0.iter().sum()
    }

    pub fn p50(&self) -> f64 {
        self.quantile(0.5)
    }

    pub fn p99(&self) -> f64 {
        self.quantile(0.99)
    }

    /// The median of the p99s of consecutive windows of [`P99_WINDOW`]
    /// samples, in arrival order. Each window's p99 has ten samples beyond
    /// it, and a stall of the shared host moves one window rather than the
    /// result. With fewer than two windows, the plain p99.
    pub fn windowed_p99(&self) -> f64 {
        let windows: Samples =
            self.0.chunks_exact(P99_WINDOW).map(|w| Samples(w.to_vec()).p99()).collect();
        if windows.len() < 2 {
            self.p99()
        } else {
            windows.p50()
        }
    }
}

/// Samples per window of [`Samples::windowed_p99`].
pub const P99_WINDOW: usize = 1000;

impl FromIterator<f64> for Samples {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Samples {
        Samples(iter.into_iter().collect())
    }
}

/// Microseconds in a duration, with the sub-microsecond digits kept.
pub fn us(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Named metrics in emission order.
#[derive(Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    /// Records a metric; a value that is not finite (an empty ratio) is
    /// written as 0 so the result line stays valid JSON.
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.0.push((name.to_string(), value, unit));
    }

    /// A human-readable table, for stderr.
    pub fn table(&self) -> String {
        self.0.iter().map(|(n, v, u)| format!("  {n:<28} {v:>16.4} {u}\n")).collect()
    }

    /// The result line: `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`.
    pub fn result_json(&self, correct: bool, attempted: u64, failed: u64) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}"))
            .collect();
        format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
             \"metrics\": {{{}}}}}",
            body.join(", ")
        )
    }
}
