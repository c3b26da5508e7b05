//! Behavioural archetypes of the synthetic workload.
//!
//! Each archetype reproduces one of the invocation patterns the paper's
//! empirical analysis identified in the Azure trace (Section III) and that
//! the SPES categoriser targets (Section IV): always-warm hyperfrequent
//! calls, (quasi-)periodic timers, dense Poisson HTTP/queue streams,
//! bursty temporal-locality functions, chained workflow functions, and the
//! long tail of rarely invoked functions.

use crate::model::{FunctionId, Slot, SparseSeries, SLOTS_PER_DAY};
use rand::RngExt;
use rand_distr::{Distribution, Exp, Poisson};

/// Ground-truth behavioural archetype of a synthetic function.
#[derive(Debug, Clone, PartialEq)]
pub enum Archetype {
    /// Invoked at (almost) every slot: CI/CD-style hyperfrequent workloads.
    AlwaysWarm,
    /// Timer-style periodic invocations with occasional 1-2 slot delays
    /// (the fluctuations the paper's slacking rules absorb).
    Regular {
        /// Period between invocations, in slots.
        period: u32,
    },
    /// Quasi-periodic: each gap drawn from a small set of periods
    /// (IoT-hub style "every 3-5 minutes").
    ApproRegular {
        /// Candidate periods; one is drawn per gap.
        periods: Vec<u32>,
    },
    /// Frequent irregular invocations: per-slot Poisson counts.
    Dense {
        /// Mean invocations per slot.
        rate: f64,
    },
    /// Long idle stretches interrupted by multi-slot bursts (temporal
    /// locality, Fig. 6): the "successive" pattern.
    Successive {
        /// Mean idle gap between bursts, in slots.
        mean_gap: f64,
        /// Burst length in slots.
        burst_len: u32,
        /// Mean invocations per burst slot (at least one is forced).
        burst_rate: f64,
    },
    /// Weaker temporal locality: short (1-2 slot) irregular flurries.
    Pulsed {
        /// Mean idle gap between flurries, in slots.
        mean_gap: f64,
    },
    /// Day-shaped load: Poisson invocations inside a recurring daily
    /// window, silent the rest of the day (the Fig. 1 web-facing
    /// pattern; the overnight gap is what indeterminate handling and
    /// give-up thresholds have to absorb).
    Diurnal {
        /// First active minute of the day (0..1440); the window may wrap
        /// past midnight.
        start_min: u32,
        /// Length of the daily active window, in slots.
        active_mins: u32,
        /// Mean invocations per active slot.
        rate: f64,
    },
    /// Invoked a fixed lag after a parent function (chained workflows,
    /// fan-out targets); generated in a second pass from the parent series.
    Chained {
        /// Upstream function whose invocations trigger this one.
        parent: FunctionId,
        /// Slots between the parent invocation and this one.
        lag: u32,
        /// Probability that a parent invocation propagates.
        prob: f64,
    },
    /// Rarely invoked with a recurring gap: the "possible" tail.
    Rare {
        /// Dominant gap between invocations, in slots.
        gap: u32,
        /// Uniform jitter applied to the gap.
        jitter: u32,
        /// Number of invocations over the horizon (approximate).
        count: u32,
    },
    /// Never invoked.
    Silent,
}

impl Archetype {
    /// Short stable label for reports and figures.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            Archetype::AlwaysWarm => "always-warm",
            Archetype::Regular { .. } => "regular",
            Archetype::ApproRegular { .. } => "appro-regular",
            Archetype::Dense { .. } => "dense",
            Archetype::Successive { .. } => "successive",
            Archetype::Pulsed { .. } => "pulsed",
            Archetype::Diurnal { .. } => "diurnal",
            Archetype::Chained { .. } => "chained",
            Archetype::Rare { .. } => "rare",
            Archetype::Silent => "silent",
        }
    }

    /// Whether this archetype is generated from a parent series in the
    /// second generation pass.
    #[must_use]
    pub fn is_chained(&self) -> bool {
        matches!(self, Archetype::Chained { .. })
    }
}

/// Generates the invocation events of a non-chained archetype within
/// `[start, end)`. Chained archetypes must go through
/// [`generate_chained`].
///
/// # Panics
/// Panics if called with [`Archetype::Chained`].
pub fn generate<R: RngExt>(
    archetype: &Archetype,
    start: Slot,
    end: Slot,
    rng: &mut R,
) -> SparseSeries {
    let mut pairs: Vec<(Slot, u32)> = Vec::new();
    if end <= start {
        return SparseSeries::new();
    }
    match archetype {
        Archetype::AlwaysWarm => {
            for slot in start..end {
                // A hyperfrequent function occasionally skips a slot; the
                // always-warm rule tolerates inter-invocation time up to
                // one-thousandth of the observing window.
                if rng.random::<f64>() < 0.9995 {
                    let count = 1 + rng.random_range(0..20);
                    pairs.push((slot, count));
                }
            }
        }
        Archetype::Regular { period } => {
            let period = (*period).max(2);
            let mut slot = start + rng.random_range(0..period);
            while slot < end {
                let mut fire = slot;
                // ~2% of events arrive 1-2 slots late (blocked / delayed
                // triggers, Section IV-A2).
                if rng.random::<f64>() < 0.02 {
                    fire = fire.saturating_add(rng.random_range(1..=2));
                }
                if fire < end {
                    pairs.push((fire, 1));
                }
                slot += period;
            }
        }
        Archetype::ApproRegular { periods } => {
            assert!(!periods.is_empty(), "appro-regular needs periods");
            let first = periods[rng.random_range(0..periods.len())];
            let mut slot = start + rng.random_range(0..first.max(2));
            while slot < end {
                pairs.push((slot, 1));
                let gap = periods[rng.random_range(0..periods.len())].max(1);
                slot += gap;
            }
        }
        Archetype::Dense { rate } => {
            let poisson = Poisson::new(rate.max(1e-6)).expect("valid poisson rate");
            for slot in start..end {
                let count = poisson.sample(rng) as u32;
                if count > 0 {
                    pairs.push((slot, count));
                }
            }
        }
        Archetype::Successive {
            mean_gap,
            burst_len,
            burst_rate,
        } => {
            let gap_dist = Exp::new(1.0 / mean_gap.max(1.0)).expect("valid exp rate");
            let burst_poisson = Poisson::new(burst_rate.max(1e-6)).expect("valid poisson rate");
            let mut slot = start + gap_dist.sample(rng) as Slot;
            while slot < end {
                let len = (*burst_len).max(1);
                for i in 0..len {
                    let s = slot + i;
                    if s >= end {
                        break;
                    }
                    let count = 1 + burst_poisson.sample(rng) as u32;
                    pairs.push((s, count));
                }
                slot += len + 1 + gap_dist.sample(rng) as Slot;
            }
        }
        Archetype::Pulsed { mean_gap } => {
            let gap_dist = Exp::new(1.0 / mean_gap.max(1.0)).expect("valid exp rate");
            let mut slot = start + gap_dist.sample(rng) as Slot;
            while slot < end {
                let len = rng.random_range(1..=2u32);
                for i in 0..len {
                    let s = slot + i;
                    if s >= end {
                        break;
                    }
                    pairs.push((s, 1 + rng.random_range(0..3)));
                }
                slot += len + 1 + gap_dist.sample(rng) as Slot;
            }
        }
        Archetype::Diurnal {
            start_min,
            active_mins,
            rate,
        } => {
            let poisson = Poisson::new(rate.max(1e-6)).expect("valid poisson rate");
            let active = (*active_mins).min(SLOTS_PER_DAY);
            for slot in start..end {
                let minute_of_day = slot % SLOTS_PER_DAY;
                let offset =
                    (minute_of_day + SLOTS_PER_DAY - start_min % SLOTS_PER_DAY) % SLOTS_PER_DAY;
                if offset >= active {
                    continue;
                }
                let count = poisson.sample(rng) as u32;
                if count > 0 {
                    pairs.push((slot, count));
                }
            }
        }
        Archetype::Chained { .. } => {
            panic!("chained archetypes are generated from their parent series")
        }
        Archetype::Rare { gap, jitter, count } => {
            let mut slot = start + rng.random_range(0..(*gap).max(1));
            for _ in 0..*count {
                if slot >= end {
                    break;
                }
                pairs.push((slot, 1));
                let j = if *jitter == 0 {
                    0
                } else {
                    rng.random_range(0..=*jitter)
                };
                slot += (*gap).max(2) + j;
            }
        }
        Archetype::Silent => {}
    }
    SparseSeries::from_pairs(pairs)
}

/// Generates a chained child series from its parent's series: each parent
/// invocation propagates to the child `lag` slots later with probability
/// `prob`, carrying a count of the same order.
pub fn generate_chained<R: RngExt>(
    parent_series: &SparseSeries,
    lag: u32,
    prob: f64,
    start: Slot,
    end: Slot,
    rng: &mut R,
) -> SparseSeries {
    let mut series = SparseSeries::new();
    for &(slot, count) in parent_series.events_in(start, end.saturating_sub(lag)) {
        if rng.random::<f64>() <= prob {
            let child_slot = slot + lag;
            if child_slot >= start && child_slot < end {
                // Fan-out children see a count comparable to the parent's.
                let child_count = 1 + rng.random_range(0..count.max(1));
                series.add(child_slot, child_count);
            }
        }
    }
    series
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::series::Sequences;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(7)
    }

    #[test]
    fn chained_segment_shorter_than_its_lag_is_empty() {
        // The segment [10, 12) minus the lag 5 leaves the inverted parent
        // window [10, 7), with a parent event inside [7, 10).
        let parent = SparseSeries::from_pairs(vec![(8, 1), (11, 1)]);
        let child = generate_chained(&parent, 5, 1.0, 10, 12, &mut rng());
        assert!(child.events().is_empty());
    }

    #[test]
    fn always_warm_covers_nearly_every_slot() {
        let s = generate(&Archetype::AlwaysWarm, 0, 2000, &mut rng());
        assert!(s.active_slots() as f64 >= 0.995 * 2000.0);
    }

    #[test]
    fn regular_produces_near_constant_wt() {
        let s = generate(&Archetype::Regular { period: 30 }, 0, 14_400, &mut rng());
        let wts = Sequences::waiting_times(&s, 0, 14_400);
        assert!(!wts.is_empty());
        // The dominant WT must be period - 1 = 29.
        let dominant = spes_stats::top_modes(&wts, 1)[0];
        assert_eq!(dominant.value, 29);
        assert!(dominant.count as f64 > 0.9 * wts.len() as f64);
    }

    #[test]
    fn appro_regular_wts_come_from_period_set() {
        let s = generate(
            &Archetype::ApproRegular {
                periods: vec![3, 4, 5],
            },
            0,
            5000,
            &mut rng(),
        );
        let wts = Sequences::waiting_times(&s, 0, 5000);
        assert!(!wts.is_empty());
        // Gaps of 3/4/5 slots give WTs of 2/3/4 (consecutive-slot gaps of
        // 1 produce no WT because the runs merge -- periods >= 2 here).
        for &w in &wts {
            assert!((2..=4).contains(&w), "unexpected WT {w}");
        }
    }

    #[test]
    fn dense_is_frequent() {
        let s = generate(&Archetype::Dense { rate: 1.0 }, 0, 2000, &mut rng());
        // With rate 1.0 ~63% of slots are active.
        assert!(s.active_slots() > 1000);
        let wts = Sequences::waiting_times(&s, 0, 2000);
        let p90 = spes_stats::percentile(&wts, 90.0).unwrap();
        assert!(p90 <= 5.0, "p90 = {p90}");
    }

    #[test]
    fn successive_bursts_have_min_length() {
        let arch = Archetype::Successive {
            mean_gap: 300.0,
            burst_len: 5,
            burst_rate: 3.0,
        };
        let s = generate(&arch, 0, 20_000, &mut rng());
        let seq = Sequences::extract(&s, 0, 20_000);
        assert!(!seq.at.is_empty());
        // Interior bursts run 5 slots; only a horizon-truncated final burst
        // may be shorter.
        for &at in &seq.at[..seq.at.len() - 1] {
            assert!(at >= 5, "burst of length {at}");
        }
        // Each full burst carries at least burst_len invocations.
        for &an in &seq.an[..seq.an.len().saturating_sub(1)] {
            assert!(an >= 5);
        }
    }

    #[test]
    fn pulsed_bursts_are_short() {
        let s = generate(
            &Archetype::Pulsed { mean_gap: 100.0 },
            0,
            20_000,
            &mut rng(),
        );
        let seq = Sequences::extract(&s, 0, 20_000);
        assert!(!seq.at.is_empty());
        for &at in &seq.at {
            assert!(at <= 2, "pulse of length {at}");
        }
    }

    #[test]
    fn rare_has_expected_count_and_repeated_gap() {
        let arch = Archetype::Rare {
            gap: 2000,
            jitter: 0,
            count: 5,
        };
        let s = generate(&arch, 0, 20_160, &mut rng());
        assert_eq!(s.active_slots(), 5);
        let wts = Sequences::waiting_times(&s, 0, 20_160);
        // Constant gap -> all WTs equal.
        assert!(wts.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn diurnal_respects_daily_window() {
        let arch = Archetype::Diurnal {
            start_min: 8 * 60,
            active_mins: 10 * 60,
            rate: 1.5,
        };
        let s = generate(&arch, 0, 7 * SLOTS_PER_DAY, &mut rng());
        assert!(!s.is_empty());
        for &(slot, _) in s.events() {
            let minute = slot % SLOTS_PER_DAY;
            assert!(
                (8 * 60..18 * 60).contains(&minute),
                "invocation outside the active window at minute {minute}"
            );
        }
    }

    #[test]
    fn diurnal_window_wraps_past_midnight() {
        let arch = Archetype::Diurnal {
            start_min: 22 * 60,
            active_mins: 4 * 60,
            rate: 2.0,
        };
        let s = generate(&arch, 0, 7 * SLOTS_PER_DAY, &mut rng());
        assert!(!s.is_empty());
        for &(slot, _) in s.events() {
            let minute = slot % SLOTS_PER_DAY;
            assert!(
                !(2 * 60..22 * 60).contains(&minute),
                "invocation outside the wrapped window at minute {minute}"
            );
        }
    }

    #[test]
    fn silent_is_empty() {
        let s = generate(&Archetype::Silent, 0, 10_000, &mut rng());
        assert!(s.is_empty());
    }

    #[test]
    fn empty_range_yields_empty_series() {
        let s = generate(&Archetype::AlwaysWarm, 100, 100, &mut rng());
        assert!(s.is_empty());
    }

    #[test]
    fn chained_follows_parent_with_lag() {
        let parent = SparseSeries::from_pairs(vec![(10, 4), (50, 2), (90, 1)]);
        let child = generate_chained(&parent, 2, 1.0, 0, 100, &mut rng());
        let slots: Vec<Slot> = child.events().iter().map(|&(s, _)| s).collect();
        assert_eq!(slots, vec![12, 52, 92]);
    }

    #[test]
    fn chained_respects_probability_zero() {
        let parent = SparseSeries::from_pairs(vec![(10, 4), (50, 2)]);
        let child = generate_chained(&parent, 1, 0.0, 0, 100, &mut rng());
        assert!(child.is_empty());
    }

    #[test]
    fn chained_respects_horizon() {
        let parent = SparseSeries::from_pairs(vec![(98, 1)]);
        let child = generate_chained(&parent, 5, 1.0, 0, 100, &mut rng());
        assert!(child.is_empty());
    }

    #[test]
    #[should_panic(expected = "generated from their parent")]
    fn generate_rejects_chained() {
        let arch = Archetype::Chained {
            parent: FunctionId(0),
            lag: 1,
            prob: 1.0,
        };
        let _ = generate(&arch, 0, 10, &mut rng());
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(Archetype::AlwaysWarm.label(), "always-warm");
        assert_eq!(Archetype::Silent.label(), "silent");
        assert_eq!(
            Archetype::Rare {
                gap: 1,
                jitter: 0,
                count: 1
            }
            .label(),
            "rare"
        );
    }
}
