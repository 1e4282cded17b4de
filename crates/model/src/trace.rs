//! Execution traces.
//!
//! A [`Trace`] is the observable behaviour of a service provider: the
//! time-ordered sequence of service-primitive occurrences at its access
//! points. Traces are what the conformance checker compares against a
//! [`crate::ServiceDefinition`], and what every execution harness in the kit
//! (protocol stacks and middleware deployments alike) records — this shared
//! observation format is what makes the paper's paradigm comparison
//! (Section 4) possible.

use std::fmt;

use crate::sap::Sap;
use crate::time::Instant;
use crate::value::Value;

/// One occurrence of a service primitive at an access point.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PrimitiveEvent {
    time: Instant,
    sap: Sap,
    primitive: String,
    args: Vec<Value>,
}

impl PrimitiveEvent {
    /// Records that `primitive` occurred with `args` at `sap` at time `time`.
    pub fn new(time: Instant, sap: Sap, primitive: impl Into<String>, args: Vec<Value>) -> Self {
        PrimitiveEvent {
            time,
            sap,
            primitive: primitive.into(),
            args,
        }
    }

    /// The simulated time of the occurrence.
    pub fn time(&self) -> Instant {
        self.time
    }

    /// The access point at which the primitive occurred.
    pub fn sap(&self) -> &Sap {
        &self.sap
    }

    /// The primitive name.
    pub fn primitive(&self) -> &str {
        &self.primitive
    }

    /// The argument values, positionally.
    pub fn args(&self) -> &[Value] {
        &self.args
    }

    /// Extracts the correlation key formed by the argument positions in
    /// `indices`. Missing positions yield [`Value::Unit`] so that malformed
    /// events still produce a stable key and get reported by schema
    /// validation instead of panicking here.
    pub fn key(&self, indices: &[usize]) -> Vec<Value> {
        crate::constraint::key_values(&self.args, indices)
    }
}

impl fmt::Display for PrimitiveEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} {}(", self.time, self.sap, self.primitive)?;
        for (i, a) in self.args.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{a}")?;
        }
        write!(f, ")")
    }
}

/// A time-ordered sequence of primitive occurrences.
///
/// `push` maintains ordering by insertion; use [`Trace::sort_by_time`] after
/// merging traces recorded at different access points.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Trace {
    events: Vec<PrimitiveEvent>,
}

impl Trace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        Trace::default()
    }

    /// Appends an event.
    pub fn push(&mut self, event: PrimitiveEvent) {
        self.events.push(event);
    }

    /// The recorded events in order.
    pub fn events(&self) -> &[PrimitiveEvent] {
        &self.events
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether no events were recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Iterates over the events.
    pub fn iter(&self) -> std::slice::Iter<'_, PrimitiveEvent> {
        self.events.iter()
    }

    /// Stable-sorts events by time, preserving the recording order of
    /// simultaneous events.
    pub fn sort_by_time(&mut self) {
        self.events.sort_by_key(PrimitiveEvent::time);
    }

    /// Merges another trace into this one and re-sorts by time.
    pub fn merge(&mut self, other: Trace) {
        self.events.extend(other.events);
        self.sort_by_time();
    }

    /// Returns the sequence of primitive names, useful as an abstract trace
    /// for comparison with an LTS language.
    pub fn primitive_names(&self) -> Vec<&str> {
        self.events.iter().map(|e| e.primitive.as_str()).collect()
    }

    /// Counts occurrences of the named primitive.
    pub fn count_of(&self, primitive: &str) -> usize {
        self.events
            .iter()
            .filter(|e| e.primitive == primitive)
            .count()
    }
}

impl FromIterator<PrimitiveEvent> for Trace {
    fn from_iter<I: IntoIterator<Item = PrimitiveEvent>>(iter: I) -> Self {
        Trace {
            events: iter.into_iter().collect(),
        }
    }
}

impl Extend<PrimitiveEvent> for Trace {
    fn extend<I: IntoIterator<Item = PrimitiveEvent>>(&mut self, iter: I) {
        self.events.extend(iter);
    }
}

impl IntoIterator for Trace {
    type Item = PrimitiveEvent;
    type IntoIter = std::vec::IntoIter<PrimitiveEvent>;

    fn into_iter(self) -> Self::IntoIter {
        self.events.into_iter()
    }
}

impl<'a> IntoIterator for &'a Trace {
    type Item = &'a PrimitiveEvent;
    type IntoIter = std::slice::Iter<'a, PrimitiveEvent>;

    fn into_iter(self) -> Self::IntoIter {
        self.events.iter()
    }
}

impl fmt::Display for Trace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for event in &self.events {
            writeln!(f, "{event}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::id::PartId;

    fn ev(t: u64, part: u64, prim: &str, res: u64) -> PrimitiveEvent {
        PrimitiveEvent::new(
            Instant::from_micros(t),
            Sap::new("subscriber", PartId::new(part)),
            prim,
            vec![Value::Id(res)],
        )
    }

    #[test]
    fn merge_orders_by_time() {
        let mut a: Trace = [ev(3, 1, "free", 1), ev(1, 1, "request", 1)]
            .into_iter()
            .collect();
        a.sort_by_time();
        let b: Trace = [ev(2, 2, "request", 1)].into_iter().collect();
        a.merge(b);
        assert_eq!(a.primitive_names(), vec!["request", "request", "free"]);
    }

    #[test]
    fn key_extraction_is_total() {
        let e = ev(1, 1, "request", 9);
        assert_eq!(e.key(&[0]), vec![Value::Id(9)]);
        assert_eq!(e.key(&[0, 5]), vec![Value::Id(9), Value::Unit]);
        assert_eq!(e.key(&[]), Vec::<Value>::new());
    }

    #[test]
    fn count_of_counts_by_name() {
        let t: Trace = [
            ev(1, 1, "request", 1),
            ev(2, 1, "granted", 1),
            ev(3, 1, "request", 2),
        ]
        .into_iter()
        .collect();
        assert_eq!(t.count_of("request"), 2);
        assert_eq!(t.count_of("granted"), 1);
        assert_eq!(t.count_of("nope"), 0);
    }

    #[test]
    fn stable_sort_preserves_simultaneous_order() {
        let mut t: Trace = [ev(5, 1, "a", 1), ev(5, 1, "b", 1), ev(1, 1, "c", 1)]
            .into_iter()
            .collect();
        t.sort_by_time();
        assert_eq!(t.primitive_names(), vec!["c", "a", "b"]);
    }

    #[test]
    fn display_one_event_per_line() {
        let t: Trace = [ev(1, 1, "request", 1)].into_iter().collect();
        let s = t.to_string();
        assert!(s.contains("request(#1)"));
        assert!(s.ends_with('\n'));
    }
}
