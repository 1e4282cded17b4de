//! Run parameters and solution selection.

use std::fmt;

use svckit_model::Duration;
use svckit_netsim::LinkConfig;

/// The six floor-control solutions of Figures 4 and 6.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Solution {
    /// Figure 4 (a): middleware, asymmetric, callback-based.
    MwCallback,
    /// Figure 4 (b): middleware, asymmetric, polling-based.
    MwPolling,
    /// Figure 4 (c): middleware, symmetric, token-based.
    MwToken,
    /// Figure 6 (a): protocol, asymmetric, callback-style PDUs.
    ProtoCallback,
    /// Figure 6 (b): protocol, asymmetric, polling-style PDUs.
    ProtoPolling,
    /// Figure 6 (c): protocol, symmetric, token-passing PDUs.
    ProtoToken,
    /// The messaging branch of Figure 10: queue-based floor control on a
    /// message-oriented platform (not one of Figure 4's solutions, but the
    /// PSM the MDA trajectory derives for JMS/MQSeries-like targets).
    MwQueue,
}

impl Solution {
    /// All seven solutions, middleware first. The first six are the paper's
    /// Figures 4 and 6; [`Solution::MwQueue`] is the Figure 10 messaging
    /// PSM.
    pub const ALL: [Solution; 7] = [
        Solution::MwCallback,
        Solution::MwPolling,
        Solution::MwToken,
        Solution::MwQueue,
        Solution::ProtoCallback,
        Solution::ProtoPolling,
        Solution::ProtoToken,
    ];

    /// The six solutions of the paper's Figures 4 and 6.
    pub const PAPER: [Solution; 6] = [
        Solution::MwCallback,
        Solution::MwPolling,
        Solution::MwToken,
        Solution::ProtoCallback,
        Solution::ProtoPolling,
        Solution::ProtoToken,
    ];

    /// Whether this is one of the middleware-centred solutions.
    pub fn is_middleware(self) -> bool {
        matches!(
            self,
            Solution::MwCallback | Solution::MwPolling | Solution::MwToken | Solution::MwQueue
        )
    }

    /// Whether this is one of the symmetric (token) solutions.
    pub fn is_symmetric(self) -> bool {
        matches!(self, Solution::MwToken | Solution::ProtoToken)
    }
}

impl fmt::Display for Solution {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Solution::MwCallback => "mw-callback",
            Solution::MwPolling => "mw-polling",
            Solution::MwToken => "mw-token",
            Solution::ProtoCallback => "proto-callback",
            Solution::ProtoPolling => "proto-polling",
            Solution::ProtoToken => "proto-token",
            Solution::MwQueue => "mw-queue",
        };
        write!(f, "{name}")
    }
}

/// Workload and environment parameters shared by all six solutions.
#[derive(Debug, Clone)]
pub struct RunParams {
    subscribers: u64,
    resources: u64,
    rounds: u32,
    hold: Duration,
    think: Duration,
    poll_interval: Duration,
    link: LinkConfig,
    seed: u64,
    time_cap: Duration,
    shards: u32,
}

impl Default for RunParams {
    /// 4 subscribers, 2 resources, 5 rounds each; 2 ms hold, 1 ms think,
    /// 2 ms poll interval; LAN link; seed 42; 60 s simulated-time cap.
    fn default() -> Self {
        RunParams {
            subscribers: 4,
            resources: 2,
            rounds: 5,
            hold: Duration::from_millis(2),
            think: Duration::from_millis(1),
            poll_interval: Duration::from_millis(2),
            link: LinkConfig::lan(),
            seed: 42,
            time_cap: Duration::from_secs(60),
            shards: 1,
        }
    }
}

impl RunParams {
    /// Sets the number of subscribers (builder-style).
    #[must_use]
    pub fn subscribers(mut self, n: u64) -> Self {
        self.subscribers = n.max(2);
        self
    }

    /// Sets the number of shared resources (builder-style).
    #[must_use]
    pub fn resources(mut self, n: u64) -> Self {
        self.resources = n.max(1);
        self
    }

    /// Sets how many acquisition rounds each subscriber performs
    /// (builder-style).
    #[must_use]
    pub fn rounds(mut self, n: u32) -> Self {
        self.rounds = n;
        self
    }

    /// Sets how long a subscriber holds a granted resource (builder-style).
    #[must_use]
    pub fn hold(mut self, hold: Duration) -> Self {
        self.hold = hold;
        self
    }

    /// Sets the think time between rounds (builder-style).
    #[must_use]
    pub fn think(mut self, think: Duration) -> Self {
        self.think = think;
        self
    }

    /// Sets the polling interval of the polling solutions (builder-style).
    #[must_use]
    pub fn poll_interval(mut self, interval: Duration) -> Self {
        self.poll_interval = interval;
        self
    }

    /// Sets the lower-level service characteristics (builder-style).
    #[must_use]
    pub fn link(mut self, link: LinkConfig) -> Self {
        self.link = link;
        self
    }

    /// Sets the deterministic seed (builder-style).
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the simulated-time cap (builder-style).
    #[must_use]
    pub fn time_cap(mut self, cap: Duration) -> Self {
        self.time_cap = cap;
        self
    }

    /// Sets the simulator shard count (builder-style). `1` (the default)
    /// runs one shard on the caller's thread; `N ≥ 2` partitions the nodes
    /// over `N` lookahead-synchronized shards. On deterministic links the outcome
    /// is byte-identical for every value.
    #[must_use]
    pub fn shards(mut self, shards: u32) -> Self {
        self.shards = shards.max(1);
        self
    }

    /// Number of subscribers.
    pub fn subscriber_count(&self) -> u64 {
        self.subscribers
    }

    /// Number of resources.
    pub fn resource_count(&self) -> u64 {
        self.resources
    }

    /// Rounds per subscriber.
    pub fn round_count(&self) -> u32 {
        self.rounds
    }

    /// Hold time.
    pub fn hold_time(&self) -> Duration {
        self.hold
    }

    /// Think time.
    pub fn think_time(&self) -> Duration {
        self.think
    }

    /// Polling interval.
    pub fn poll_time(&self) -> Duration {
        self.poll_interval
    }

    /// Link configuration.
    pub fn link_config(&self) -> &LinkConfig {
        &self.link
    }

    /// Seed.
    pub fn seed_value(&self) -> u64 {
        self.seed
    }

    /// Simulator shard count.
    pub fn shard_count(&self) -> u32 {
        self.shards
    }

    /// Simulated-time cap.
    pub fn cap(&self) -> Duration {
        self.time_cap
    }

    /// Total number of grants the workload should produce when it completes.
    pub fn expected_grants(&self) -> u64 {
        self.subscribers * u64::from(self.rounds)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_clamps_minimums() {
        let p = RunParams::default().subscribers(0).resources(0);
        assert_eq!(p.subscriber_count(), 2);
        assert_eq!(p.resource_count(), 1);
    }

    #[test]
    fn expected_grants_is_product() {
        let p = RunParams::default().subscribers(3).rounds(7);
        assert_eq!(p.expected_grants(), 21);
    }

    #[test]
    fn solution_classification() {
        assert!(Solution::MwToken.is_middleware());
        assert!(!Solution::ProtoToken.is_middleware());
        assert!(Solution::ProtoToken.is_symmetric());
        assert!(!Solution::MwCallback.is_symmetric());
        assert_eq!(Solution::ALL.len(), 7);
        assert_eq!(Solution::PAPER.len(), 6);
        assert!(Solution::MwQueue.is_middleware());
        assert_eq!(Solution::MwPolling.to_string(), "mw-polling");
    }
}
