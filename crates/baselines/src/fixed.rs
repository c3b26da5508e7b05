//! The fixed keep-alive baseline.
//!
//! The industry-standard policy (and the paper's simplest baseline): every
//! instance is kept loaded for a fixed number of minutes after its last
//! invocation — 10 minutes in the paper's experiments, matching the
//! well-known AWS Lambda / OpenWhisk default. The policy lives in
//! [`spes_sim::policy`] beside the other stateless reference policies
//! (it only sets pool deadlines); it is re-exported here with the rest of
//! the paper's baselines.

pub use spes_sim::FixedKeepAlive;

#[cfg(test)]
mod tests {
    use super::*;
    use spes_sim::{try_simulate, SimConfig};
    use spes_trace::{AppId, FunctionMeta, Slot, SparseSeries, Trace, TriggerType, UserId};

    fn trace_of(series: Vec<SparseSeries>, n_slots: Slot) -> Trace {
        let meta = FunctionMeta {
            app: AppId(0),
            user: UserId(0),
            trigger: TriggerType::Http,
        };
        let n = series.len();
        Trace::new(n_slots, vec![meta; n], series)
    }

    #[test]
    fn keeps_warm_within_window() {
        let trace = trace_of(vec![SparseSeries::from_pairs(vec![(0, 1), (9, 1)])], 20);
        let mut p = FixedKeepAlive::new(1, 10);
        let r = try_simulate(&trace, &mut p, SimConfig::new(0, 20)).unwrap();
        // Second invocation at gap 9 < 10: warm.
        assert_eq!(r.cold_starts[0], 1);
    }

    #[test]
    fn evicts_after_window() {
        let trace = trace_of(vec![SparseSeries::from_pairs(vec![(0, 1), (10, 1)])], 30);
        let mut p = FixedKeepAlive::new(1, 10);
        let r = try_simulate(&trace, &mut p, SimConfig::new(0, 30)).unwrap();
        // Gap of exactly the keep-alive: the deadline is slot 10, and
        // expiry runs after the slot's invocations are served, so the
        // invocation at slot 10 still finds the instance loaded -> warm.
        // Gap > keep_alive is cold:
        assert_eq!(r.cold_starts[0], 1);

        let trace2 = trace_of(vec![SparseSeries::from_pairs(vec![(0, 1), (11, 1)])], 30);
        let mut p2 = FixedKeepAlive::new(1, 10);
        let r2 = try_simulate(&trace2, &mut p2, SimConfig::new(0, 30)).unwrap();
        assert_eq!(r2.cold_starts[0], 2);
    }

    #[test]
    fn wmt_bounded_by_keep_alive() {
        let trace = trace_of(vec![SparseSeries::from_pairs(vec![(0, 1)])], 100);
        let mut p = FixedKeepAlive::new(1, 10);
        let r = try_simulate(&trace, &mut p, SimConfig::new(0, 100)).unwrap();
        // Loaded at 0, idle slots 1..9, expired at the end of slot 10.
        assert_eq!(r.wmt[0], 9);
    }

    #[test]
    fn paper_default_is_ten_minutes() {
        assert_eq!(FixedKeepAlive::paper_default(3).keep_alive(), 10);
    }
}
