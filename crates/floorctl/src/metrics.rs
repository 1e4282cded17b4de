//! Service-level metrics derived from execution traces.

use std::collections::{BTreeMap, VecDeque};
use std::fmt;

use svckit_model::{Duration, Sap, Trace, Value};

/// Grant-level metrics computed from a floor-control trace: counts, grant
/// latency distribution, and fairness across subscribers.
#[derive(Debug, Clone, Default)]
pub struct FloorMetrics {
    requests: u64,
    grants: u64,
    frees: u64,
    outstanding_at_end: u64,
    latencies: Vec<Duration>,
    grants_per_sap: BTreeMap<Sap, u64>,
}

impl FloorMetrics {
    /// Computes metrics from a trace of `request`/`granted`/`free`
    /// primitives. Requests are matched to grants FIFO per (access point,
    /// resource).
    pub fn from_trace(trace: &Trace) -> Self {
        let mut metrics = FloorMetrics::default();
        // Keys borrow from the trace: no per-event copy of the access point
        // or the arguments.
        let mut outstanding: BTreeMap<(&Sap, &[Value]), VecDeque<svckit_model::Instant>> =
            BTreeMap::new();
        let mut grants_per_sap: BTreeMap<&Sap, u64> = BTreeMap::new();
        for event in trace {
            let key = (event.sap(), event.args());
            match event.primitive() {
                "request" => {
                    metrics.requests += 1;
                    outstanding.entry(key).or_default().push_back(event.time());
                }
                "granted" => {
                    metrics.grants += 1;
                    *grants_per_sap.entry(event.sap()).or_insert(0) += 1;
                    if let Some(started) = outstanding.entry(key).or_default().pop_front() {
                        metrics
                            .latencies
                            .push(event.time().saturating_since(started));
                    }
                }
                "free" => {
                    metrics.frees += 1;
                }
                _ => {}
            }
        }
        // Requests with no matching grant by trace end stay queued in
        // `outstanding`; ignoring them silently would make a run that
        // starves requesters look identical to one that granted
        // everything. Surface them instead.
        metrics.outstanding_at_end = outstanding.values().map(|q| q.len() as u64).sum();
        metrics.grants_per_sap = grants_per_sap
            .into_iter()
            .map(|(sap, grants)| (sap.clone(), grants))
            .collect();
        metrics.latencies.sort_unstable();
        metrics
    }

    /// Number of `request` occurrences.
    pub fn requests(&self) -> u64 {
        self.requests
    }

    /// Number of `granted` occurrences.
    pub fn grants(&self) -> u64 {
        self.grants
    }

    /// Number of `free` occurrences.
    pub fn frees(&self) -> u64 {
        self.frees
    }

    /// Requests still waiting for a grant when the trace ended (per
    /// `(access point, resource)` FIFO matching). Non-zero means the run
    /// finished with starved requesters — latency percentiles then only
    /// describe the requests that *were* served.
    pub fn outstanding_at_end(&self) -> u64 {
        self.outstanding_at_end
    }

    /// Grant latencies (request→granted), sorted ascending.
    pub fn latencies(&self) -> &[Duration] {
        &self.latencies
    }

    /// Mean grant latency, or zero when nothing was granted.
    pub fn mean_latency(&self) -> Duration {
        if self.latencies.is_empty() {
            return Duration::ZERO;
        }
        let total: u64 = self.latencies.iter().map(|d| d.as_micros()).sum();
        Duration::from_micros(total / self.latencies.len() as u64)
    }

    /// The `q`-quantile grant latency (`q` in `[0, 1]`), or zero when
    /// nothing was granted.
    pub fn latency_quantile(&self, q: f64) -> Duration {
        if self.latencies.is_empty() {
            return Duration::ZERO;
        }
        let q = q.clamp(0.0, 1.0);
        let idx = ((self.latencies.len() - 1) as f64 * q).round() as usize;
        self.latencies[idx]
    }

    /// Median grant latency.
    pub fn median_latency(&self) -> Duration {
        self.latency_quantile(0.5)
    }

    /// 99th-percentile grant latency.
    pub fn p99_latency(&self) -> Duration {
        self.latency_quantile(0.99)
    }

    /// Jain's fairness index over per-subscriber grant counts
    /// (`1.0` = perfectly fair; `1/n` = one subscriber got everything).
    /// Returns `1.0` when nothing was granted.
    pub fn fairness(&self) -> f64 {
        let counts: Vec<f64> = self.grants_per_sap.values().map(|&c| c as f64).collect();
        if counts.is_empty() {
            return 1.0;
        }
        let sum: f64 = counts.iter().sum();
        let sum_sq: f64 = counts.iter().map(|c| c * c).sum();
        if sum_sq == 0.0 {
            return 1.0;
        }
        (sum * sum) / (counts.len() as f64 * sum_sq)
    }

    /// Per-subscriber grant counts.
    pub fn grants_per_sap(&self) -> &BTreeMap<Sap, u64> {
        &self.grants_per_sap
    }
}

impl fmt::Display for FloorMetrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "requests={} grants={} frees={} outstanding={} latency(mean={} p50={} p99={}) \
             fairness={:.3}",
            self.requests,
            self.grants,
            self.frees,
            self.outstanding_at_end,
            self.mean_latency(),
            self.median_latency(),
            self.p99_latency(),
            self.fairness()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use svckit_model::{Instant, PartId, PrimitiveEvent};

    fn ev(t: u64, part: u64, primitive: &str, res: u64) -> PrimitiveEvent {
        PrimitiveEvent::new(
            Instant::from_micros(t),
            Sap::new("subscriber", PartId::new(part)),
            primitive,
            vec![Value::Id(res)],
        )
    }

    #[test]
    fn latency_is_matched_fifo_per_sap_and_resource() {
        let trace: Trace = [
            ev(0, 1, "request", 1),
            ev(10, 2, "request", 1),
            ev(100, 1, "granted", 1),
            ev(150, 1, "free", 1),
            ev(210, 2, "granted", 1),
        ]
        .into_iter()
        .collect();
        let m = FloorMetrics::from_trace(&trace);
        assert_eq!(m.requests(), 2);
        assert_eq!(m.grants(), 2);
        assert_eq!(m.frees(), 1);
        assert_eq!(
            m.latencies(),
            &[Duration::from_micros(100), Duration::from_micros(200)]
        );
        assert_eq!(m.mean_latency(), Duration::from_micros(150));
        assert_eq!(m.median_latency(), Duration::from_micros(200));
    }

    #[test]
    fn unmatched_requests_are_reported_not_dropped() {
        // Regression: two requests, one grant — the second requester is
        // still waiting at trace end. The old code silently ignored the
        // queued entry; it must surface as `outstanding_at_end`.
        let trace: Trace = [
            ev(0, 1, "request", 1),
            ev(5, 2, "request", 1),
            ev(100, 1, "granted", 1),
        ]
        .into_iter()
        .collect();
        let m = FloorMetrics::from_trace(&trace);
        assert_eq!(m.requests(), 2);
        assert_eq!(m.grants(), 1);
        assert_eq!(m.outstanding_at_end(), 1);
        assert_eq!(m.latencies(), &[Duration::from_micros(100)]);
        // A fully-served trace reports zero.
        let served: Trace = [ev(0, 1, "request", 1), ev(9, 1, "granted", 1)]
            .into_iter()
            .collect();
        assert_eq!(FloorMetrics::from_trace(&served).outstanding_at_end(), 0);
        assert!(m.to_string().contains("outstanding=1"));
    }

    #[test]
    fn fairness_detects_skew() {
        let fair: Trace = [
            ev(1, 1, "granted", 1),
            ev(2, 2, "granted", 1),
            ev(3, 3, "granted", 1),
        ]
        .into_iter()
        .collect();
        assert!((FloorMetrics::from_trace(&fair).fairness() - 1.0).abs() < 1e-9);

        let skewed: Trace = [
            ev(1, 1, "granted", 1),
            ev(2, 1, "granted", 1),
            ev(3, 1, "granted", 1),
            ev(4, 2, "granted", 1),
        ]
        .into_iter()
        .collect();
        let f = FloorMetrics::from_trace(&skewed).fairness();
        assert!(f < 0.9, "fairness {f}");
        assert!(f > 0.5, "fairness {f}");
    }

    #[test]
    fn empty_trace_yields_neutral_metrics() {
        let m = FloorMetrics::from_trace(&Trace::new());
        assert_eq!(m.grants(), 0);
        assert_eq!(m.mean_latency(), Duration::ZERO);
        assert_eq!(m.p99_latency(), Duration::ZERO);
        assert!((m.fairness() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn quantiles_are_clamped_and_ordered() {
        let trace: Trace = (0..100)
            .flat_map(|i| {
                [
                    ev(i * 10, 1, "request", 1),
                    ev(i * 10 + i, 1, "granted", 1),
                    ev(i * 10 + i + 1, 1, "free", 1),
                ]
            })
            .collect();
        let m = FloorMetrics::from_trace(&trace);
        assert!(m.latency_quantile(-1.0) <= m.latency_quantile(2.0));
        assert!(m.median_latency() <= m.p99_latency());
        assert_eq!(m.latency_quantile(0.0), Duration::ZERO);
        assert_eq!(m.latency_quantile(1.0), Duration::from_micros(99));
    }

    #[test]
    fn display_summarises() {
        let m = FloorMetrics::from_trace(&Trace::new());
        let s = m.to_string();
        assert!(s.contains("grants=0"));
        assert!(s.contains("fairness=1.000"));
    }
}
