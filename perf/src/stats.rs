//! Order statistics, named sample sets, and the `/proc/self` readers the benchmark
//! uses to observe its own process from outside the product code.

use std::collections::BTreeMap;

use hoplite_bench::json::Json;

/// The `p`-th percentile (0–100) of `values` by linear interpolation between closest
/// ranks. `NaN` for an empty slice.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// First and third quartile as Python's `statistics.quantiles(values, n=4)` gives
/// them (the "exclusive" method), which is what the driver's acceptance rule uses.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let cut = |i: usize| {
        if n < 2 {
            return sorted.first().copied().unwrap_or(f64::NAN);
        }
        // statistics.quantiles, method="exclusive": position i*(n+1)/4, clamped.
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Interquartile distance as a share of the median: the spread the driver gates on.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values).abs()
}

/// Named sample vectors. A child process fills one and prints it; the parent pools
/// the vectors of all its children by name.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Samples(pub BTreeMap<String, Vec<f64>>);

impl Samples {
    /// Append one observation of `name`.
    pub fn push(&mut self, name: &str, value: f64) {
        self.0.entry(name.to_string()).or_default().push(value);
    }

    /// Every observation of `name` (empty when none was recorded).
    pub fn get(&self, name: &str) -> &[f64] {
        self.0.get(name).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Sum of the observations of `name`.
    pub fn sum(&self, name: &str) -> f64 {
        self.get(name).iter().sum()
    }

    /// Median of the observations of `name`, or 0 when there are none (a metric that
    /// does not apply to the workload).
    pub fn median_or_zero(&self, name: &str) -> f64 {
        match self.get(name) {
            [] => 0.0,
            v => median(v),
        }
    }

    /// Append every vector of `other` to the vector of the same name here.
    pub fn merge(&mut self, other: &Samples) {
        for (name, values) in &other.0 {
            self.0.entry(name.clone()).or_default().extend_from_slice(values);
        }
    }

    /// As a JSON object of arrays.
    pub fn to_json(&self) -> Json {
        Json::Obj(
            self.0
                .iter()
                .map(|(k, v)| (k.clone(), Json::Arr(v.iter().map(|x| Json::Num(*x)).collect())))
                .collect(),
        )
    }

    /// Inverse of [`Samples::to_json`].
    pub fn from_json(json: &Json) -> Result<Samples, String> {
        let Json::Obj(pairs) = json else { return Err("samples: expected an object".into()) };
        let mut out = Samples::default();
        for (name, values) in pairs {
            let values = values.as_arr().ok_or_else(|| format!("samples.{name}: not an array"))?;
            let values: Option<Vec<f64>> = values.iter().map(Json::as_f64).collect();
            out.0.insert(
                name.clone(),
                values.ok_or_else(|| format!("samples.{name}: not numbers"))?,
            );
        }
        Ok(out)
    }
}

/// Per-thread counters summed over `/proc/self/task`.
#[derive(Clone, Copy, Debug, Default)]
pub struct ProcSnapshot {
    /// Voluntary + involuntary context switches summed over live threads.
    pub ctx_switches: f64,
    /// Live threads.
    pub threads: f64,
}

/// Linux reports `utime`/`stime` in `USER_HZ` ticks, which is 100 on every supported
/// architecture; there is no libc here to ask `sysconf`.
const MS_PER_TICK: f64 = 10.0;

/// CPU times of this process. Cheap (one file), so it brackets every timed interval.
pub fn cpu_times_ms() -> (f64, f64) {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name (field 2) may contain spaces; fields are counted after its ')'.
    let rest = stat.rsplit_once(')').map(|(_, r)| r).unwrap_or("");
    let mut fields = rest.split_whitespace().skip(11);
    let mut tick = || fields.next().and_then(|f| f.parse::<f64>().ok()).unwrap_or(0.0);
    let (utime, stime) = (tick(), tick());
    (utime * MS_PER_TICK, stime * MS_PER_TICK)
}

/// Walk the threads (one file each: take it outside timed intervals).
pub fn proc_snapshot() -> ProcSnapshot {
    let mut snap = ProcSnapshot::default();
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else { return snap };
    for task in tasks.flatten() {
        snap.threads += 1.0;
        let status = std::fs::read_to_string(task.path().join("status")).unwrap_or_default();
        for line in status.lines() {
            if let Some((key, value)) = line.split_once(':') {
                if key.ends_with("voluntary_ctxt_switches") {
                    snap.ctx_switches += value.trim().parse::<f64>().unwrap_or(0.0);
                }
            }
        }
    }
    snap
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}
