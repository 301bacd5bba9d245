//! Order statistics the ledger reports: medians, quartiles, and the tail
//! percentile that still has ten samples beyond it.

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The three quartile cut points, computed like Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method),
/// so the ledger's spreads agree with any outside check of its output.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let v = sorted(values);
    match v.len() {
        0 => [f64::NAN; 3],
        1 => [v[0]; 3],
        len => {
            let m = len + 1;
            let mut out = [0.0; 3];
            for (k, slot) in out.iter_mut().enumerate() {
                let i = k + 1;
                let j = (i * m / 4).clamp(1, len - 1);
                let delta = (i * m) as f64 - (j * 4) as f64;
                *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
            }
            out
        }
    }
}

pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => f64::NAN,
        len if len % 2 == 1 => v[len / 2],
        len => (v[len / 2 - 1] + v[len / 2]) / 2.0,
    }
}

/// Interquartile range as a share of the median.
pub fn rel_iqr(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

/// A tail latency with the rank and percentile it was read at.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    pub value: f64,
    /// 1-based rank in ascending order.
    pub rank: usize,
    /// `100 · rank / N`.
    pub percentile: f64,
}

/// The tail: the value at rank `max(⌈0.75 · N⌉, N − 10)`. From `N = 40`
/// on this is rank `N − 10`, the highest percentile with ten samples beyond
/// it; below that too few samples exist for such a rank, and p75 stands in:
/// the synth and prove workloads answer 12 to 30 requests a run, and a
/// higher percentile of so few samples moves by more than any useful bound
/// from run to run. The percentile never drops as `N` grows, so a faster
/// system cannot look better in the tail merely by completing more
/// requests in the same time.
pub fn tail(values: &[f64]) -> Tail {
    let v = sorted(values);
    let n = v.len();
    if n == 0 {
        return Tail {
            value: f64::NAN,
            rank: 0,
            percentile: f64::NAN,
        };
    }
    let rank = (3 * n).div_ceil(4).max(n.saturating_sub(10));
    Tail {
        value: v[rank - 1],
        rank,
        percentile: 100.0 * rank as f64 / n as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([4, 1, 3, 2], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[4.0, 1.0, 3.0, 2.0]), [1.25, 2.5, 3.75]);
        // statistics.quantiles([7, 9], n=4) == [6.5, 8.0, 9.5]
        assert_eq!(quartiles(&[7.0, 9.0]), [6.5, 8.0, 9.5]);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn tail_is_rank_n_minus_10_from_40_samples_and_p75_below() {
        let v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        let t = tail(&v);
        assert_eq!((t.value, t.rank, t.percentile), (90.0, 90, 90.0));
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!((tail(&v).rank, tail(&v).value), (190, 190.0));
        let v: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!((tail(&v).rank, tail(&v).value), (30, 30.0));
        let v: Vec<f64> = (1..=41).map(f64::from).collect();
        assert_eq!((tail(&v).rank, tail(&v).value), (31, 31.0));
        let v: Vec<f64> = (1..=12).rev().map(f64::from).collect();
        let t = tail(&v);
        assert_eq!((t.value, t.rank, t.percentile), (9.0, 9, 75.0));
        assert_eq!(tail(&[5.0]).value, 5.0);
    }
}
