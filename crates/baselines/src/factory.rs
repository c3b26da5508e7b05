//! [`PolicyFactory`] implementations for the baseline policies.
//!
//! Each baseline used to have its own ad-hoc constructor signature
//! (`Defuse::paper_default`, `HybridHistogram::fit(..., Granularity)`,
//! `FaasCache::new` plus an out-of-band memory budget, ...). These
//! factories normalise all of them behind the suite API: every policy is
//! built from a [`FitContext`], and FaaSCache's "budget = SPES's peak
//! memory" coupling (Section V-A1) becomes a declarative
//! [`CapacityRule::PeakOf`] instead of imperative plumbing.

use crate::defuse::Defuse;
use crate::faascache::FaasCache;
use crate::fixed::FixedKeepAlive;
use crate::hybrid::{Granularity, HybridHistogram};
use crate::oracle::Oracle;
use spes_sim::suite::{CapacityRule, FitContext, PolicyFactory};
use spes_sim::Policy;

/// Factory for [`Defuse`] with the paper's thresholds.
#[derive(Debug, Clone, Copy, Default)]
pub struct DefuseFactory;

impl PolicyFactory for DefuseFactory {
    fn name(&self) -> &'static str {
        "defuse"
    }

    fn build(&self, ctx: &FitContext) -> Box<dyn Policy> {
        Box::new(Defuse::paper_default(
            ctx.trace,
            ctx.train_start,
            ctx.train_end,
        ))
    }
}

/// Factory for [`HybridHistogram`] at a fixed granularity. Registers as
/// `hybrid-function` or `hybrid-application` depending on the
/// granularity, matching the built policy's report name.
#[derive(Debug, Clone, Copy)]
pub struct HybridFactory {
    /// Histogram granularity of the built policy.
    pub granularity: Granularity,
}

impl PolicyFactory for HybridFactory {
    fn name(&self) -> &'static str {
        match self.granularity {
            Granularity::Function => "hybrid-function",
            Granularity::Application => "hybrid-application",
        }
    }

    fn build(&self, ctx: &FitContext) -> Box<dyn Policy> {
        Box::new(HybridHistogram::fit(
            ctx.trace,
            ctx.train_start,
            ctx.train_end,
            self.granularity,
        ))
    }
}

/// Factory for [`FixedKeepAlive`]; defaults to the paper's 10-minute
/// window.
#[derive(Debug, Clone, Copy)]
pub struct FixedKeepAliveFactory {
    /// Keep-alive window in minutes.
    pub keep_alive: u32,
}

impl Default for FixedKeepAliveFactory {
    fn default() -> Self {
        Self { keep_alive: 10 }
    }
}

impl PolicyFactory for FixedKeepAliveFactory {
    fn name(&self) -> &'static str {
        "fixed-keep-alive"
    }

    fn build(&self, ctx: &FitContext) -> Box<dyn Policy> {
        Box::new(FixedKeepAlive::new(ctx.n_functions(), self.keep_alive))
    }
}

/// Factory for [`FaasCache`]. Declares the paper's capacity coupling:
/// the run's memory budget is SPES's peak usage, resolved by the suite
/// runner's second phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct FaasCacheFactory;

impl PolicyFactory for FaasCacheFactory {
    fn name(&self) -> &'static str {
        "faascache"
    }

    fn build(&self, ctx: &FitContext) -> Box<dyn Policy> {
        Box::new(FaasCache::new(ctx.n_functions()))
    }

    fn capacity_rule(&self) -> CapacityRule {
        CapacityRule::peak_of("spes")
    }
}

/// Factory for the clairvoyant [`Oracle`] — the only factory that reads
/// the trace past the training boundary, which is exactly its job.
/// Defaults to the frugal one-slot keep horizon.
#[derive(Debug, Clone, Copy)]
pub struct OracleFactory {
    /// Longest idle gap worth riding out in memory.
    pub keep_horizon: u32,
}

impl Default for OracleFactory {
    fn default() -> Self {
        Self { keep_horizon: 1 }
    }
}

impl PolicyFactory for OracleFactory {
    fn name(&self) -> &'static str {
        "oracle"
    }

    fn build(&self, ctx: &FitContext) -> Box<dyn Policy> {
        Box::new(Oracle::new(ctx.trace, self.keep_horizon))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spes_sim::suite::{run_suite, PolicySpec};
    use spes_trace::{synth, SynthConfig};

    #[test]
    fn factory_names_match_built_policies() {
        let data = synth::generate(&SynthConfig {
            n_functions: 25,
            days: 4,
            train_days: 3,
            seed: 3,
            ..SynthConfig::default()
        });
        let ctx = FitContext {
            trace: &data.trace,
            train_start: 0,
            train_end: data.train_end,
            prior: &[],
        };
        let factories: Vec<Box<dyn PolicyFactory>> = vec![
            Box::new(DefuseFactory),
            Box::new(HybridFactory {
                granularity: Granularity::Function,
            }),
            Box::new(HybridFactory {
                granularity: Granularity::Application,
            }),
            Box::new(FixedKeepAliveFactory::default()),
            Box::new(FaasCacheFactory),
            Box::new(OracleFactory::default()),
        ];
        for factory in factories {
            let policy = factory.build(&ctx);
            assert_eq!(policy.name(), factory.name());
        }
    }

    #[test]
    fn faascache_declares_the_spes_coupling() {
        assert_eq!(
            FaasCacheFactory.capacity_rule(),
            CapacityRule::peak_of("spes")
        );
    }

    #[test]
    fn oracle_runs_cold_start_free_in_a_suite() {
        let data = synth::generate(&SynthConfig {
            n_functions: 30,
            days: 4,
            train_days: 3,
            seed: 8,
            ..SynthConfig::default()
        });
        let out = run_suite(&data, &[PolicySpec::new(OracleFactory::default())]).unwrap();
        assert_eq!(out.try_run_of("oracle").unwrap().total_cold_starts(), 0);
    }
}
