//! The replay-floor estimator.
//!
//! A cycle is a fixed sequence of timed slots. Each slot keeps the
//! **fastest** of all its replays: interference (a scheduler preemption,
//! a neighbour's cache traffic, a cache refilling after churn) only ever
//! adds time, so the minimum over replays spread across the whole run
//! converges on the cost of the code, and anything shorter than the run
//! cannot move it. Percentiles are then taken **across slots**, not
//! across replays: they describe how cost varies over the workload's
//! operations, not how the machine's noise was distributed.

/// Fastest observed time of every slot of a cycle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Floors {
    ns: Vec<u64>,
    replays: Vec<u32>,
}

impl Floors {
    /// Floors for a cycle of `slots` slots, none replayed yet.
    pub fn new(slots: usize) -> Self {
        Floors {
            ns: vec![u64::MAX; slots],
            replays: vec![0; slots],
        }
    }

    /// Records one replay of `slot`.
    pub fn record(&mut self, slot: usize, ns: u64) {
        self.ns[slot] = self.ns[slot].min(ns);
        self.replays[slot] += 1;
    }

    /// The fewest replays any slot has had.
    pub fn min_replays(&self) -> u32 {
        self.replays.iter().copied().min().unwrap_or(0)
    }

    /// Slot count.
    pub fn slots(&self) -> usize {
        self.ns.len()
    }

    /// Floor of one slot, `None` until it has been replayed.
    pub fn get(&self, slot: usize) -> Option<u64> {
        (self.replays[slot] > 0).then_some(self.ns[slot])
    }

    /// Floors of the replayed slots, ascending.
    pub fn sorted(&self) -> Vec<u64> {
        let mut v: Vec<u64> = (0..self.slots()).filter_map(|s| self.get(s)).collect();
        v.sort_unstable();
        v
    }

    /// Sum of the replayed slots' floors: the time of one cycle with
    /// every slot at its fastest.
    pub fn total_ns(&self) -> u64 {
        (0..self.slots()).filter_map(|s| self.get(s)).sum()
    }

    /// The `pct`-th percentile of the slot floors, in ns (0 when no slot
    /// has been replayed).
    pub fn percentile_ns(&self, pct: usize) -> u64 {
        let v = self.sorted();
        if v.is_empty() {
            0
        } else {
            v[percentile_index(v.len(), pct)]
        }
    }
}

/// Nearest-rank index of the `pct`-th percentile among `n` ascending
/// samples: the smallest index with at least `pct` % of the samples at
/// or below it.
pub fn percentile_index(n: usize, pct: usize) -> usize {
    assert!(n > 0 && pct <= 100, "percentile of nothing, or above 100");
    (n * pct).div_ceil(100).max(1) - 1
}

/// Samples strictly beyond index `idx` of `n`. A tail percentile is only
/// reported when at least ten samples lie beyond it (the workload shapes
/// are held to that by a unit test).
#[cfg(test)]
pub fn samples_beyond(n: usize, idx: usize) -> usize {
    n - 1 - idx
}

/// Median of a small sample (upper median for even counts; 0 if empty).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v.get(v.len() / 2).copied().unwrap_or(0.0)
}

/// `(max - min) / median` of a small sample — the spread reported next to
/// rows that are too noisy on this host to gate.
pub fn spread(values: &[f64]) -> f64 {
    let (lo, hi) = values
        .iter()
        .fold((f64::MAX, f64::MIN), |(lo, hi), &v| (lo.min(v), hi.max(v)));
    let mid = median(values);
    if values.is_empty() || mid == 0.0 {
        0.0
    } else {
        (hi - lo) / mid
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_slot_keeps_its_fastest_replay() {
        let mut f = Floors::new(3);
        assert_eq!(f.get(0), None);
        assert_eq!(f.min_replays(), 0);
        for (slot, ns) in [(0, 50), (1, 70), (0, 40), (0, 90), (1, 80), (2, 10)] {
            f.record(slot, ns);
        }
        assert_eq!(
            (f.get(0), f.get(1), f.get(2)),
            (Some(40), Some(70), Some(10))
        );
        assert_eq!(f.min_replays(), 1);
        assert_eq!(f.total_ns(), 120);
        assert_eq!(f.sorted(), vec![10, 40, 70]);
    }

    #[test]
    fn unreplayed_slots_are_left_out() {
        let mut f = Floors::new(4);
        f.record(2, 5);
        assert_eq!(f.sorted(), vec![5]);
        assert_eq!(f.total_ns(), 5);
        assert_eq!(f.percentile_ns(90), 5);
        assert_eq!(Floors::new(2).percentile_ns(50), 0);
    }

    #[test]
    fn percentile_index_is_nearest_rank() {
        // 128 slots: p50 is the 64th smallest, p90 the 116th.
        assert_eq!(percentile_index(128, 50), 63);
        assert_eq!(percentile_index(128, 90), 115);
        assert_eq!(percentile_index(256, 90), 230);
        assert_eq!(percentile_index(10, 90), 8);
        assert_eq!(percentile_index(1, 90), 0);
        assert_eq!(percentile_index(7, 0), 0);
        assert_eq!(percentile_index(7, 100), 6);
    }

    #[test]
    fn ten_samples_beyond_rule() {
        // p90 of 128 slots leaves 12 beyond it; p99 would leave 1, which
        // is why no p99 is reported at this slot count.
        assert_eq!(samples_beyond(128, percentile_index(128, 90)), 12);
        assert_eq!(samples_beyond(128, percentile_index(128, 99)), 1);
        assert!(samples_beyond(100, percentile_index(100, 90)) >= 10);
        assert!(samples_beyond(99, percentile_index(99, 90)) < 10);
    }

    #[test]
    fn percentiles_read_across_slots() {
        let mut f = Floors::new(128);
        for s in 0..128 {
            f.record(s, 1000 + s as u64);
            f.record(s, 5000);
        }
        assert_eq!(f.percentile_ns(50), 1063);
        assert_eq!(f.percentile_ns(90), 1115);
    }

    #[test]
    fn median_and_spread() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[]), 0.0);
        assert!((spread(&[90.0, 100.0, 120.0]) - 0.3).abs() < 1e-12);
        assert_eq!(spread(&[]), 0.0);
    }
}
