//! The one measurement protocol behind every timed number the bench
//! binaries print (E2, E10a–E10c, E11–E13, E15–E17): warm up, repeat,
//! summarise by the median and quartiles.
//!
//! A single run of a sub-second workload on a shared host lands anywhere
//! in a ±20% band, so a percent-level bar judged on one run (or on the
//! best of a few) passes or fails by luck. [`measure`] instead runs both
//! sides of a comparison once to warm caches and lazy set-up, then
//! [`TRIALS`] pairs in ABBA order (A B, B A, A B, …), so drift over the
//! session and whichever side runs first affect both sides equally. A
//! ratio is taken within each pair and the verdict is the median of
//! those ratios, with the quartiles as its spread (Georges, Buytaert &
//! Eeckhout, OOPSLA 2007; Kalibera & Jones, ISMM 2013).

use serde::Serialize;

/// Timed runs per side of a comparison (odd, so the median is a sample).
pub const TRIALS: usize = 15;

/// Median and quartiles of a sample — the one summary every timed
/// number is reported, and every bar judged, by.
#[derive(Serialize, Debug, Clone, Copy, PartialEq)]
pub struct Spread {
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
}

impl Spread {
    /// Summarise a non-empty sample. Quantiles interpolate linearly
    /// between the closest ranks, so an even-sized sample's median is
    /// the mean of its middle two values.
    pub fn of(samples: &[f64]) -> Spread {
        assert!(!samples.is_empty(), "Spread of an empty sample");
        let mut s = samples.to_vec();
        s.sort_by(f64::total_cmp);
        let q = |p: f64| {
            let h = (s.len() - 1) as f64 * p;
            let lo = h.floor() as usize;
            let hi = h.ceil() as usize;
            s[lo] + (h - lo as f64) * (s[hi] - s[lo])
        };
        Spread {
            q1: q(0.25),
            median: q(0.5),
            q3: q(0.75),
        }
    }
}

impl std::fmt::Display for Spread {
    /// `median (q1–q3)`, honouring the formatter's precision.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let p = f.precision().unwrap_or(3);
        write!(f, "{:.p$} ({:.p$}–{:.p$})", self.median, self.q1, self.q3)
    }
}

/// The samples of one A/B comparison: `a[i]` and `b[i]` are the two runs
/// of pair `i`.
#[derive(Debug)]
pub struct Trials {
    /// Side A's results, one per pair.
    pub a: Vec<f64>,
    /// Side B's results, one per pair.
    pub b: Vec<f64>,
}

impl Trials {
    /// Summary of `f(a, b)` taken within each pair — the comparison's
    /// verdict (e.g. `|a, b| b / a` for a speed-up of B over A).
    pub fn per_pair(&self, f: impl Fn(f64, f64) -> f64) -> Spread {
        let r: Vec<f64> = self.a.iter().zip(&self.b).map(|(&a, &b)| f(a, b)).collect();
        Spread::of(&r)
    }
}

/// Compare two workloads that each return a metric: one warm-up run of
/// each side, then [`TRIALS`] pairs in ABBA order.
pub fn measure(mut a: impl FnMut() -> f64, mut b: impl FnMut() -> f64) -> Trials {
    a();
    b();
    let mut t = Trials {
        a: Vec::with_capacity(TRIALS),
        b: Vec::with_capacity(TRIALS),
    };
    for i in 0..TRIALS {
        if i % 2 == 0 {
            t.a.push(a());
            t.b.push(b());
        } else {
            t.b.push(b());
            t.a.push(a());
        }
    }
    t
}

/// One side alone (a table cell with nothing to pair with, or a lane
/// whose other side is a different build, as in E17): one warm-up run,
/// then [`TRIALS`] timed runs.
pub fn repeat(mut f: impl FnMut() -> f64) -> Spread {
    f();
    let s: Vec<f64> = (0..TRIALS).map(|_| f()).collect();
    Spread::of(&s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;

    #[test]
    fn measure_warms_up_then_runs_pairs_in_abba_order() {
        let log = RefCell::new(String::new());
        let t = measure(
            || {
                log.borrow_mut().push('A');
                1.0
            },
            || {
                log.borrow_mut().push('B');
                2.0
            },
        );
        let log = log.into_inner();
        assert!(log.starts_with("AB" /* warm-up */), "{log}");
        let pairs: Vec<&str> = (0..TRIALS).map(|i| &log[2 + 2 * i..4 + 2 * i]).collect();
        for (i, p) in pairs.iter().enumerate() {
            assert_eq!(*p, if i % 2 == 0 { "AB" } else { "BA" }, "pair {i}: {log}");
        }
        assert_eq!(log.len(), 2 + 2 * TRIALS);
        assert_eq!((t.a.len(), t.b.len()), (TRIALS, TRIALS));
    }

    #[test]
    fn per_pair_ratios_pair_the_two_runs_of_one_pair() {
        // Each run returns its global call index: the two runs of pair i
        // are calls 2 + 2i and 3 + 2i, so within-pair |a - b| is 1
        // exactly when the pairing is right.
        let calls = RefCell::new(0.0);
        let next = || {
            let mut c = calls.borrow_mut();
            *c += 1.0;
            *c - 1.0
        };
        let t = measure(next, next);
        assert_eq!((t.a[0], t.b[0]), (2.0, 3.0), "pair 0 runs A first");
        assert_eq!((t.a[1], t.b[1]), (5.0, 4.0), "pair 1 runs B first");
        let d = t.per_pair(|a, b| (a - b).abs());
        assert_eq!(d, Spread::of(&[1.0]));
    }

    #[test]
    fn spread_of_odd_and_even_samples() {
        assert_eq!(
            Spread::of(&[5.0, 1.0, 3.0, 2.0, 4.0]),
            Spread {
                q1: 2.0,
                median: 3.0,
                q3: 4.0
            }
        );
        assert_eq!(
            Spread::of(&[4.0, 1.0, 3.0, 2.0]),
            Spread {
                q1: 1.75,
                median: 2.5,
                q3: 3.25
            }
        );
        assert_eq!(Spread::of(&[7.0]).median, 7.0);
        assert_eq!(
            format!("{:.1}", Spread::of(&[1.0, 2.0, 3.0])),
            "2.0 (1.5–2.5)"
        );
    }

    #[test]
    fn repeat_warms_up_then_runs_trials_times() {
        let mut n = 0;
        let s = repeat(|| {
            n += 1;
            n as f64
        });
        assert_eq!(n, 1 + TRIALS);
        // Runs 2..=16 are timed; run 1 is the warm-up.
        assert_eq!(s.median, (2 + TRIALS / 2) as f64);
    }
}
