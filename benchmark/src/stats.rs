//! Sample bookkeeping: named sample vectors, order statistics, and the
//! process's peak resident set.

use std::collections::BTreeMap;

/// Samples collected under metric-sample names during one pass of a
/// workload. Every reported median, quartile and percentile is taken over
/// one of these vectors, so the sample count can always be printed beside
/// the value.
#[derive(Debug, Default, Clone)]
pub struct Samples {
    by_name: BTreeMap<&'static str, Vec<f64>>,
}

impl Samples {
    pub fn push(&mut self, name: &'static str, value: f64) {
        self.by_name.entry(name).or_default().push(value);
    }

    pub fn get(&self, name: &str) -> &[f64] {
        self.by_name.get(name).map_or(&[], Vec::as_slice)
    }
}

/// Median, quartiles and count of one sample vector.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
}

/// The `q`-quantile of `sorted` by linear interpolation between closest
/// ranks (`q` in `[0, 1]`). `None` for an empty slice.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> Option<f64> {
    let last = sorted.len().checked_sub(1)?;
    let pos = q.clamp(0.0, 1.0) * last as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64))
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

pub fn summarize(values: &[f64]) -> Option<Summary> {
    let v = sorted(values);
    Some(Summary {
        n: v.len(),
        q1: quantile_sorted(&v, 0.25)?,
        median: quantile_sorted(&v, 0.5)?,
        q3: quantile_sorted(&v, 0.75)?,
    })
}

pub fn median(values: &[f64]) -> Option<f64> {
    quantile_sorted(&sorted(values), 0.5)
}

pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    quantile_sorted(&sorted(values), q)
}

/// The interquartile mean: the mean of the samples from the first to the
/// third quartile. Outliers on either side do not reach it, and unlike the
/// median it moves smoothly when the samples come from two modes.
pub fn midmean(values: &[f64]) -> Option<f64> {
    let v = sorted(values);
    let cut = v.len() / 4;
    mean(&v[cut..v.len() - cut])
}

pub fn mean(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        None
    } else {
        Some(values.iter().sum::<f64>() / values.len() as f64)
    }
}

/// Peak resident set of this process in MiB (`VmHWM` of
/// `/proc/self/status`); `None` where the file or the field is missing.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_interpolate() {
        let s = summarize(&[4.0, 1.0, 3.0, 2.0, 5.0]).expect("non-empty");
        assert_eq!((s.n, s.q1, s.median, s.q3), (5, 2.0, 3.0, 4.0));
        assert_eq!(median(&[1.0, 2.0]), Some(1.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn the_midmean_ignores_the_outer_quarters() {
        assert_eq!(
            midmean(&[100.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, -50.0]),
            Some(3.5)
        );
        assert_eq!(midmean(&[7.0]), Some(7.0));
        assert_eq!(midmean(&[]), None);
    }

    #[test]
    fn samples_keep_every_value_under_its_name() {
        let mut s = Samples::default();
        for v in [1.0, 2.0, 3.0] {
            s.push("a", v);
        }
        assert_eq!(s.get("a"), &[1.0, 2.0, 3.0]);
        assert!(s.get("b").is_empty());
    }

    #[test]
    fn peak_rss_is_positive_on_linux() {
        if let Some(mib) = peak_rss_mib() {
            assert!(mib > 0.0);
        }
    }
}
