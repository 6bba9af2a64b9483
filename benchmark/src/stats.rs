//! Order statistics.

/// The `q`-quantile of `xs` by the "exclusive" rule, which is what
/// Python's `statistics.quantiles` uses by default: rank `q·(n+1)`,
/// interpolated between neighbours and clamped to the sample range.
/// `NaN` for an empty sample.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return f64::NAN;
    }
    let pos = q * (n as f64 + 1.0) - 1.0;
    if pos <= 0.0 {
        return v[0];
    }
    if pos >= (n - 1) as f64 {
        return v[n - 1];
    }
    let lo = pos.floor() as usize;
    v[lo] + (v[lo + 1] - v[lo]) * (pos - lo as f64)
}

pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Median with its quartiles and sample count.
#[derive(Clone, Copy, Debug)]
pub struct Dist {
    pub p25: f64,
    pub p50: f64,
    pub p75: f64,
    pub n: usize,
}

impl Dist {
    pub fn of(xs: &[f64]) -> Dist {
        Dist {
            p25: quantile(xs, 0.25),
            p50: median(xs),
            p75: quantile(xs, 0.75),
            n: xs.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_the_exclusive_rule() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quantile(&xs, 0.25), 2.75);
        assert_eq!(median(&xs), 5.5);
        assert_eq!(quantile(&xs, 0.75), 8.25);
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(quantile(&[1.0, 2.0], 0.99), 2.0);
        assert!(median(&[]).is_nan());
    }
}
