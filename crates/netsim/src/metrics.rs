//! Network-level metrics.

use std::collections::BTreeMap;
use std::fmt;

use svckit_model::PartId;

/// Counters accumulated by the simulator during a run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NetMetrics {
    messages_sent: u64,
    messages_delivered: u64,
    messages_dropped: u64,
    messages_duplicated: u64,
    bytes_sent: u64,
    bytes_delivered: u64,
    undeliverable: u64,
    per_sender: BTreeMap<PartId, u64>,
}

impl NetMetrics {
    pub(crate) fn new() -> Self {
        NetMetrics::default()
    }

    /// Counts one send. The sender is counted on its node slot instead,
    /// and [`NetMetrics::per_sender_mut`] fills the per-sender map when a
    /// report is made.
    pub(crate) fn record_send(&mut self, bytes: usize) {
        self.messages_sent += 1;
        self.bytes_sent += bytes as u64;
    }

    pub(crate) fn per_sender_mut(&mut self) -> &mut BTreeMap<PartId, u64> {
        &mut self.per_sender
    }

    pub(crate) fn record_delivery(&mut self, bytes: usize) {
        self.messages_delivered += 1;
        self.bytes_delivered += bytes as u64;
    }

    pub(crate) fn record_drop(&mut self) {
        self.messages_dropped += 1;
    }

    pub(crate) fn record_duplicate(&mut self) {
        self.messages_duplicated += 1;
    }

    pub(crate) fn record_undeliverable(&mut self) {
        self.undeliverable += 1;
    }

    /// Folds another counter set into this one (sharded-engine merge).
    /// Per-sender counts are not merged: they live on the node slots and
    /// are filled in after the merge.
    pub(crate) fn absorb(&mut self, other: &NetMetrics) {
        self.messages_sent += other.messages_sent;
        self.messages_delivered += other.messages_delivered;
        self.messages_dropped += other.messages_dropped;
        self.messages_duplicated += other.messages_duplicated;
        self.bytes_sent += other.bytes_sent;
        self.bytes_delivered += other.bytes_delivered;
        self.undeliverable += other.undeliverable;
    }

    /// Messages handed to the network by processes.
    pub fn messages_sent(&self) -> u64 {
        self.messages_sent
    }

    /// Messages delivered to a destination process (duplicates included).
    pub fn messages_delivered(&self) -> u64 {
        self.messages_delivered
    }

    /// Messages dropped by lossy links.
    pub fn messages_dropped(&self) -> u64 {
        self.messages_dropped
    }

    /// Extra copies injected by duplicating links.
    pub fn messages_duplicated(&self) -> u64 {
        self.messages_duplicated
    }

    /// Payload bytes handed to the network.
    pub fn bytes_sent(&self) -> u64 {
        self.bytes_sent
    }

    /// Payload bytes delivered (duplicates included).
    pub fn bytes_delivered(&self) -> u64 {
        self.bytes_delivered
    }

    /// Messages addressed to nodes that do not exist.
    pub fn undeliverable(&self) -> u64 {
        self.undeliverable
    }

    /// Messages sent per sender.
    pub fn per_sender(&self) -> &BTreeMap<PartId, u64> {
        &self.per_sender
    }
}

impl fmt::Display for NetMetrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "sent={} delivered={} dropped={} duplicated={} bytes_sent={} bytes_delivered={} undeliverable={}",
            self.messages_sent,
            self.messages_delivered,
            self.messages_dropped,
            self.messages_duplicated,
            self.bytes_sent,
            self.bytes_delivered,
            self.undeliverable
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut m = NetMetrics::new();
        m.record_send(10);
        m.record_send(5);
        m.record_send(1);
        m.per_sender_mut().insert(PartId::new(1), 2);
        m.record_delivery(10);
        m.record_drop();
        m.record_duplicate();
        m.record_undeliverable();
        assert_eq!(m.messages_sent(), 3);
        assert_eq!(m.bytes_sent(), 16);
        assert_eq!(m.messages_delivered(), 1);
        assert_eq!(m.bytes_delivered(), 10);
        assert_eq!(m.messages_dropped(), 1);
        assert_eq!(m.messages_duplicated(), 1);
        assert_eq!(m.undeliverable(), 1);
        assert_eq!(m.per_sender()[&PartId::new(1)], 2);
    }

    #[test]
    fn display_summarises_all_counters() {
        let m = NetMetrics::new();
        let s = m.to_string();
        for field in ["sent=", "delivered=", "dropped=", "undeliverable="] {
            assert!(s.contains(field), "{s}");
        }
    }
}
