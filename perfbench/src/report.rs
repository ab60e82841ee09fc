//! What one pass reports to the run that spawned it, and the small
//! statistics the run needs to combine passes.
//!
//! A pass runs in its own process and prints its report as plain
//! `key value...` lines on stdout; [`PassReport::parse`] reads them
//! back. No JSON on this path: a pass can carry thousands of latency
//! samples and the repository's JSON reader is not built for that.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// The measurements of one pass.
#[derive(Debug, Default, Clone)]
pub struct PassReport {
    /// Set-up wall time: input generation, image encoding, daemon bind,
    /// store directories.
    pub setup_s: f64,
    /// Numerator and denominator of the workload's throughput: work
    /// done and the wall time it took.
    pub rate_num: f64,
    /// See `rate_num`.
    pub rate_den: f64,
    /// Per-operation latencies, in milliseconds.
    pub ops_ms: Vec<f64>,
    /// Operations attempted and the ones that failed their check.
    pub attempted: u64,
    /// See `attempted`.
    pub failed: u64,
    /// Hex SHA-256 of every input the pass generated.
    pub digest: String,
    /// Peak resident set of the pass process, in MiB.
    pub rss_mb: f64,
    /// Wall time of the measured work (set-up excluded), in seconds.
    pub work_s: f64,
    /// Per-layer metrics (complete only in a traced pass).
    pub layer: BTreeMap<String, f64>,
}

impl PassReport {
    /// Adds (or accumulates into) one per-layer metric.
    pub fn add(&mut self, name: &str, value: f64) {
        *self.layer.entry(name.to_string()).or_default() += value;
    }

    /// Serialises the report as `key value...` lines.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "setup_s {}", self.setup_s);
        let _ = writeln!(out, "rate {} {}", self.rate_num, self.rate_den);
        let _ = writeln!(out, "attempted {}", self.attempted);
        let _ = writeln!(out, "failed {}", self.failed);
        let _ = writeln!(out, "digest {}", self.digest);
        let _ = writeln!(out, "rss_mb {}", self.rss_mb);
        let _ = writeln!(out, "work_s {}", self.work_s);
        out.push_str("ops");
        for v in &self.ops_ms {
            let _ = write!(out, " {v}");
        }
        out.push('\n');
        for (k, v) in &self.layer {
            let _ = writeln!(out, "layer {k} {v}");
        }
        out
    }

    /// Reads back what [`PassReport::render`] wrote.
    pub fn parse(text: &str) -> Result<PassReport, String> {
        let mut r = PassReport::default();
        let num = |s: Option<&str>| -> Result<f64, String> {
            s.ok_or("missing value")?
                .parse::<f64>()
                .map_err(|e| e.to_string())
        };
        for line in text.lines() {
            let mut it = line.split_whitespace();
            match it.next() {
                Some("setup_s") => r.setup_s = num(it.next())?,
                Some("rate") => {
                    r.rate_num = num(it.next())?;
                    r.rate_den = num(it.next())?;
                }
                Some("attempted") => r.attempted = num(it.next())? as u64,
                Some("failed") => r.failed = num(it.next())? as u64,
                Some("digest") => r.digest = it.next().unwrap_or_default().to_string(),
                Some("rss_mb") => r.rss_mb = num(it.next())?,
                Some("work_s") => r.work_s = num(it.next())?,
                Some("ops") => {
                    r.ops_ms = it.map(|v| num(Some(v))).collect::<Result<_, _>>()?;
                }
                Some("layer") => {
                    let name = it.next().ok_or("layer without a name")?.to_string();
                    r.layer.insert(name, num(it.next())?);
                }
                _ => {}
            }
        }
        if r.digest.is_empty() {
            return Err("pass printed no report".to_string());
        }
        Ok(r)
    }
}

/// Median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// Linear-interpolated percentile `p` in `[0, 1]` (0 when empty).
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = p * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines().find(|l| l.starts_with("VmHWM:")).and_then(|l| {
                l.split_whitespace()
                    .nth(1)
                    .and_then(|kb| kb.parse::<f64>().ok())
            })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// SplitMix64 finaliser: derives independent seeds from (seed, index).
pub fn mix(seed: u64, index: u64) -> u64 {
    let mut z = seed ^ index.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// SHA-256 over a sequence of input images, each length-prefixed.
pub fn digest<'a>(images: impl IntoIterator<Item = &'a [u8]>) -> String {
    let mut all = Vec::new();
    for img in images {
        all.extend_from_slice(&(img.len() as u64).to_le_bytes());
        all.extend_from_slice(img);
    }
    hgl_store::sha256::sha256(&all)
        .iter()
        .map(|b| format!("{b:02x}"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_round_trips() {
        let mut r = PassReport {
            setup_s: 0.25,
            rate_num: 1234.5,
            rate_den: 2.0,
            ops_ms: vec![1.5, 2.25],
            attempted: 7,
            failed: 1,
            digest: "ab".into(),
            rss_mb: 12.0,
            work_s: 2.0,
            ..PassReport::default()
        };
        r.add("core.lift_ms", 3.0);
        let back = PassReport::parse(&r.render()).expect("parses");
        assert_eq!(back.ops_ms, r.ops_ms);
        assert_eq!(back.failed, 1);
        assert_eq!(back.layer["core.lift_ms"], 3.0);
    }

    #[test]
    fn percentiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(percentile(&v, 1.0), 4.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }
}
