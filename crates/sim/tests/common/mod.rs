//! Trace and policy generators shared by the sim property suites.

use proptest::prelude::*;
use spes_sim::{FixedKeepAlive, MemoryPool, Policy};
use spes_trace::{AppId, FunctionId, FunctionMeta, Slot, SparseSeries, Trace, TriggerType, UserId};

/// Random traces, up to `max_events` per function; function `i` is in app `i % n_apps`.
pub fn trace_strategy(
    n_functions: usize,
    horizon: Slot,
    max_events: usize,
    n_apps: u32,
) -> impl Strategy<Value = Trace> {
    prop::collection::vec(
        prop::collection::vec((0..horizon, 1u32..20), 0..max_events),
        n_functions,
    )
    .prop_map(move |all| {
        let metas = (0..n_functions)
            .map(|i| FunctionMeta {
                app: AppId(i as u32 % n_apps),
                user: UserId(0),
                trigger: TriggerType::Http,
            })
            .collect();
        let series = all.into_iter().map(SparseSeries::from_pairs).collect();
        Trace::new(horizon, metas, series)
    })
}

/// Pre-warms three rotating functions each slot on top of fixed
/// keep-alive: exercises admission rejections, the make-room fallback
/// and holds. It declares no snapshot state.
pub struct ChurningPrewarm(FixedKeepAlive);

impl Policy for ChurningPrewarm {
    fn name(&self) -> &str {
        "churning-prewarm"
    }

    fn on_slot(&mut self, now: Slot, invoked: &[(FunctionId, u32)], pool: &mut MemoryPool) {
        let n = pool.n_functions() as u32;
        for i in 0..n.min(3) {
            if pool.is_full() {
                break;
            }
            // Held through the next slot, so holds outlive a snapshot cut;
            // a fresh one then expires unless invoked.
            let f = FunctionId((now + i) % n);
            if pool.load(f, now) {
                pool.expire_at(f, now);
            }
            pool.hold_until(f, now + 2);
        }
        self.0.on_slot(now, invoked, pool);
    }
}

/// Policy `kind`: 0 no-keep-alive, 1 keep-forever, 2 fixed keep-alive,
/// otherwise churning pre-warm over fixed keep-alive.
pub fn make_policy(kind: u8, n: usize, keep: u32) -> Box<dyn Policy> {
    match kind {
        0 => Box::new(spes_sim::NoKeepAlive),
        1 => Box::new(spes_sim::KeepForever),
        2 => Box::new(FixedKeepAlive::new(n, keep)),
        _ => Box::new(ChurningPrewarm(FixedKeepAlive::new(n, keep))),
    }
}
