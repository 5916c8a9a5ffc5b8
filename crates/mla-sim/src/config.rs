//! Simulation parameters.

/// Number of processors; entity `x` lives on processor `x mod p`.
pub(crate) const PROCESSORS: usize = 4;
/// Latency when source and destination processor coincide.
pub(crate) const LATENCY_LOCAL: u64 = 1;
/// Processor service time per granted step or rollback.
pub(crate) const STEP_SERVICE: u64 = 1;
/// Delay before a deferred request retries.
pub(crate) const RETRY_DELAY: u64 = 8;
/// Base restart delay after an abort; doubles per attempt (capped) plus
/// seeded jitter, to break livelock symmetry.
pub(crate) const RESTART_BASE: u64 = 25;
/// Hard event budget; exceeding it flags the run as timed out.
pub(crate) const MAX_EVENTS: u64 = 5_000_000;

/// Configuration of the simulated network. All times are in abstract
/// ticks. The rest of the environment is fixed: four processors, a
/// local hop of one tick, one tick of service per step, a retry delay
/// of 8 ticks after a deferral, a restart backoff from 25 ticks after
/// an abort, and a budget of five million events.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Message latency between distinct processors.
    pub latency_base: u64,
    /// Extra uniform latency in `0..=jitter` (seeded).
    pub latency_jitter: u64,
    /// RNG seed (latency jitter, backoff jitter).
    pub seed: u64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            latency_base: 10,
            latency_jitter: 4,
            seed: 0xD1CE,
        }
    }
}

impl SimConfig {
    /// A config with the given seed, other parameters default.
    pub fn seeded(seed: u64) -> Self {
        SimConfig {
            seed,
            ..SimConfig::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = SimConfig::default();
        assert!(c.latency_base >= LATENCY_LOCAL);
    }

    #[test]
    fn seeded_overrides_only_seed() {
        let c = SimConfig::seeded(42);
        let d = SimConfig::default();
        assert_eq!(c.seed, 42);
        assert_eq!(
            (c.latency_base, c.latency_jitter),
            (d.latency_base, d.latency_jitter)
        );
    }
}
