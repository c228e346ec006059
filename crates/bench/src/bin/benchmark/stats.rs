//! Order statistics and name rules shared by the runner and `--compare`.

/// A timing tail needs at least this many samples beyond it.
pub const TAIL_BEYOND: usize = 10;

/// Quartiles `(q1, median, q3)` by the "exclusive" method of Python's
/// `statistics.quantiles(xs, n=4)`, so spreads read the same here as in any
/// script that re-checks the result files. A single sample is its own
/// quartiles; an empty slice gives zeros.
pub fn quartiles(xs: &[f64]) -> (f64, f64, f64) {
    let mut data = xs.to_vec();
    data.sort_by(f64::total_cmp);
    match data.len() {
        0 => return (0.0, 0.0, 0.0),
        1 => return (data[0], data[0], data[0]),
        _ => {}
    }
    let len = data.len();
    let cut = |i: usize| {
        let m = len + 1;
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// The median of `xs` (0 for an empty slice).
pub fn median(xs: &[f64]) -> f64 {
    quartiles(xs).1
}

/// Interquartile range as a share of the median (0 when the median is 0).
pub fn spread(xs: &[f64]) -> f64 {
    let (q1, q2, q3) = quartiles(xs);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

/// The tail of a timing distribution: the highest percentile that still has
/// [`TAIL_BEYOND`] samples above it, provided that is at least the median.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// Share of samples at or below `value`, in percent.
    pub percentile: f64,
    /// The sample at that rank.
    pub value: f64,
    /// Samples the tail was taken from.
    pub samples: usize,
}

/// [`Tail`] of `xs`, or `None` when fewer than `2 * TAIL_BEYOND` samples
/// exist: below `TAIL_BEYOND + 1` no rank has enough samples beyond it, and
/// below `2 * TAIL_BEYOND` the only such ranks lie under the median.
pub fn tail(xs: &[f64]) -> Option<Tail> {
    if xs.len() < 2 * TAIL_BEYOND {
        return None;
    }
    let mut data = xs.to_vec();
    data.sort_by(f64::total_cmp);
    let rank = data.len() - 1 - TAIL_BEYOND;
    Some(Tail {
        percentile: 100.0 * (rank + 1) as f64 / data.len() as f64,
        value: data[rank],
        samples: data.len(),
    })
}

/// Whether `name` is a valid metric or workload name: 1 to 64 characters
/// from `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(ok_char)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2, 4, 8], n=4) == [1.25, 3.0, 7.0]
        assert_eq!(quartiles(&[8.0, 4.0, 2.0, 1.0]), (1.25, 3.0, 7.0));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0, 7.0));
        assert_eq!(quartiles(&[]), (0.0, 0.0, 0.0));
    }

    #[test]
    fn median_of_odd_and_even_lengths() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(spread(&[1.0, 2.0, 3.0]), 1.0);
        assert_eq!(spread(&[0.0, 0.0]), 0.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it_and_no_lower_than_the_median() {
        for n in [1, 10, 11, 19] {
            let xs: Vec<f64> = (1..=n).map(f64::from).collect();
            assert_eq!(tail(&xs), None, "{n} samples");
        }
        let mut xs: Vec<f64> = (1..=20).map(f64::from).collect();
        xs.reverse();
        let t = tail(&xs).expect("20 samples give a tail");
        assert_eq!((t.percentile, t.value, t.samples), (50.0, 10.0, 20));
        let xs: Vec<f64> = (1..=200).map(f64::from).collect();
        let t = tail(&xs).expect("200 samples");
        assert_eq!(t.value, 190.0);
        assert_eq!(t.percentile, 95.0);
    }

    #[test]
    fn metric_names_use_the_allowed_characters() {
        for ok in ["run_s", "dsm.run.share", "place.candidate_ms_p50", "9a-b"] {
            assert!(valid_name(ok), "{ok}");
        }
        let long = "a".repeat(65);
        for bad in ["", "_lead", ".x", "a b", "a/b", "é", long.as_str()] {
            assert!(!valid_name(bad), "{bad}");
        }
    }
}
