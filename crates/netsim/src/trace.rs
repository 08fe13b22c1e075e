//! Structured event tracing.
//!
//! The kernel can mirror every externally visible state change — sends,
//! deliveries, drops, movements, deaths — into a [`RingTrace`]. Traces are
//! how the integration tests assert causality ("the disable notification
//! was sent *before* the relay stopped moving") and how users debug
//! protocol behavior without println-ing from inside applications.
//!
//! Tracing is off by default and costs nothing when disabled.

use std::collections::VecDeque;

use imobif_geom::Point2;
use imobif_obs::Json;
use serde::{Deserialize, Serialize};

use crate::{EnergyCategory, NodeId, SimTime};

/// One kernel event.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum TraceEvent {
    /// A unicast transmission was paid for and put in flight.
    Sent {
        /// When.
        time: SimTime,
        /// Transmitting node.
        from: NodeId,
        /// Intended receiver.
        to: NodeId,
        /// Packet size in bits.
        bits: u64,
        /// Ledger category.
        category: EnergyCategory,
        /// Energy charged, in joules.
        energy: f64,
    },
    /// A packet reached a live receiver.
    Delivered {
        /// When.
        time: SimTime,
        /// Sender.
        from: NodeId,
        /// Receiver.
        to: NodeId,
    },
    /// A packet was dropped (dead receiver, or unaffordable transmission).
    Dropped {
        /// When.
        time: SimTime,
        /// Intended receiver.
        to: NodeId,
    },
    /// A node moved.
    Moved {
        /// When.
        time: SimTime,
        /// Who.
        node: NodeId,
        /// Where from.
        from: Point2,
        /// Where to.
        to: Point2,
        /// Energy charged, in joules.
        energy: f64,
    },
    /// A node died.
    Died {
        /// When.
        time: SimTime,
        /// Who.
        node: NodeId,
    },
}

impl TraceEvent {
    /// The event's timestamp.
    #[must_use]
    pub fn time(&self) -> SimTime {
        match *self {
            TraceEvent::Sent { time, .. }
            | TraceEvent::Delivered { time, .. }
            | TraceEvent::Dropped { time, .. }
            | TraceEvent::Moved { time, .. }
            | TraceEvent::Died { time, .. } => time,
        }
    }

    /// The event's stable lowercase kind name — the JSONL `kind` field.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::Sent { .. } => "sent",
            TraceEvent::Delivered { .. } => "delivered",
            TraceEvent::Dropped { .. } => "dropped",
            TraceEvent::Moved { .. } => "moved",
            TraceEvent::Died { .. } => "died",
        }
    }

    /// JSON encoding used by the JSONL trace format. Times are
    /// microseconds, points are `[x, y]` arrays, energies are exact-f64
    /// numbers.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let time_us = |t: SimTime| Json::Num(t.as_micros() as f64);
        let node = |n: NodeId| Json::Num(f64::from(n.raw()));
        let point = |p: Point2| Json::Arr(vec![Json::Num(p.x), Json::Num(p.y)]);
        match *self {
            TraceEvent::Sent { time, from, to, bits, category, energy } => Json::Obj(vec![
                ("kind".into(), Json::str("sent")),
                ("time_us".into(), time_us(time)),
                ("from".into(), node(from)),
                ("to".into(), node(to)),
                ("bits".into(), Json::Num(bits as f64)),
                ("category".into(), Json::str(category.as_str())),
                ("energy".into(), Json::Num(energy)),
            ]),
            TraceEvent::Delivered { time, from, to } => Json::Obj(vec![
                ("kind".into(), Json::str("delivered")),
                ("time_us".into(), time_us(time)),
                ("from".into(), node(from)),
                ("to".into(), node(to)),
            ]),
            TraceEvent::Dropped { time, to } => Json::Obj(vec![
                ("kind".into(), Json::str("dropped")),
                ("time_us".into(), time_us(time)),
                ("to".into(), node(to)),
            ]),
            TraceEvent::Moved { time, node: who, from, to, energy } => Json::Obj(vec![
                ("kind".into(), Json::str("moved")),
                ("time_us".into(), time_us(time)),
                ("node".into(), node(who)),
                ("from".into(), point(from)),
                ("to".into(), point(to)),
                ("energy".into(), Json::Num(energy)),
            ]),
            TraceEvent::Died { time, node: who } => Json::Obj(vec![
                ("kind".into(), Json::str("died")),
                ("time_us".into(), time_us(time)),
                ("node".into(), node(who)),
            ]),
        }
    }

    /// Inverse of [`TraceEvent::to_json`].
    pub fn from_json(json: &Json) -> Result<TraceEvent, String> {
        let time = || -> Result<SimTime, String> {
            json.get("time_us")
                .and_then(Json::as_u64)
                .map(SimTime::from_micros)
                .ok_or_else(|| "missing/invalid time_us".to_string())
        };
        let node = |key: &str| -> Result<NodeId, String> {
            json.get(key)
                .and_then(Json::as_u64)
                .and_then(|v| u32::try_from(v).ok())
                .map(NodeId::new)
                .ok_or_else(|| format!("missing/invalid node field {key}"))
        };
        let point = |key: &str| -> Result<Point2, String> {
            let arr = json
                .get(key)
                .and_then(Json::as_arr)
                .filter(|a| a.len() == 2)
                .ok_or_else(|| format!("missing/invalid point field {key}"))?;
            match (arr[0].as_f64(), arr[1].as_f64()) {
                (Some(x), Some(y)) => Ok(Point2 { x, y }),
                _ => Err(format!("non-numeric point field {key}")),
            }
        };
        let energy = || -> Result<f64, String> {
            json.get("energy")
                .and_then(Json::as_f64)
                .ok_or_else(|| "missing/invalid energy".to_string())
        };
        match json.get("kind").and_then(Json::as_str) {
            Some("sent") => Ok(TraceEvent::Sent {
                time: time()?,
                from: node("from")?,
                to: node("to")?,
                bits: json.get("bits").and_then(Json::as_u64).ok_or("missing/invalid bits")?,
                category: json
                    .get("category")
                    .and_then(Json::as_str)
                    .and_then(EnergyCategory::parse)
                    .ok_or("missing/invalid category")?,
                energy: energy()?,
            }),
            Some("delivered") => {
                Ok(TraceEvent::Delivered { time: time()?, from: node("from")?, to: node("to")? })
            }
            Some("dropped") => Ok(TraceEvent::Dropped { time: time()?, to: node("to")? }),
            Some("moved") => Ok(TraceEvent::Moved {
                time: time()?,
                node: node("node")?,
                from: point("from")?,
                to: point("to")?,
                energy: energy()?,
            }),
            Some("died") => Ok(TraceEvent::Died { time: time()?, node: node("node")? }),
            Some(other) => Err(format!("unknown trace kind {other}")),
            None => Err("missing kind".into()),
        }
    }
}

/// Serializes events as JSONL text.
#[must_use]
pub fn events_to_jsonl(events: &[TraceEvent]) -> String {
    let mut out = String::new();
    for event in events {
        out.push_str(&event.to_json().render());
        out.push('\n');
    }
    out
}

/// Parses JSONL text back into events, reporting the first bad line.
pub fn events_from_jsonl(text: &str) -> Result<Vec<TraceEvent>, String> {
    text.lines()
        .enumerate()
        .filter(|(_, line)| !line.trim().is_empty())
        .map(|(i, line)| {
            let json = Json::parse(line).map_err(|e| format!("line {}: {e}", i + 1))?;
            TraceEvent::from_json(&json).map_err(|e| format!("line {}: {e}", i + 1))
        })
        .collect()
}

/// A bounded in-memory trace: keeps the most recent `capacity` events.
///
/// # Example
///
/// ```rust
/// use imobif_netsim::trace::{RingTrace, TraceEvent};
/// use imobif_netsim::{NodeId, SimTime};
///
/// let mut ring = RingTrace::new(2);
/// for i in 0..3 {
///     ring.record(&TraceEvent::Died { time: SimTime::from_micros(i), node: NodeId::new(0) });
/// }
/// // Only the two most recent events survive.
/// assert_eq!(ring.events().len(), 2);
/// assert_eq!(ring.events()[0].time(), SimTime::from_micros(1));
/// ```
#[derive(Debug, Clone)]
pub struct RingTrace {
    capacity: usize,
    events: VecDeque<TraceEvent>,
    total_recorded: u64,
    evicted: u64,
}

impl RingTrace {
    /// Creates a ring keeping at most `capacity` events.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "trace capacity must be positive");
        RingTrace {
            capacity,
            events: VecDeque::with_capacity(capacity),
            total_recorded: 0,
            evicted: 0,
        }
    }

    /// The configured bound on retained events.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Events overwritten because the ring was full — nonzero means the
    /// retained window is a suffix of the run, not the whole run.
    #[must_use]
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// The retained events, oldest first.
    #[must_use]
    pub fn events(&self) -> Vec<TraceEvent> {
        self.events.iter().copied().collect()
    }

    /// Total events ever recorded (including evicted ones).
    #[must_use]
    pub fn total_recorded(&self) -> u64 {
        self.total_recorded
    }

    /// Retained events matching a predicate, oldest first.
    pub fn filtered(&self, mut keep: impl FnMut(&TraceEvent) -> bool) -> Vec<TraceEvent> {
        self.events.iter().filter(|e| keep(e)).copied().collect()
    }

    /// Keeps `event`, evicting the oldest retained event when full. The
    /// kernel calls this once per event, in simulation order.
    pub fn record(&mut self, event: &TraceEvent) {
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.evicted += 1;
        }
        self.events.push_back(*event);
        self.total_recorded += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn died(us: u64) -> TraceEvent {
        TraceEvent::Died { time: SimTime::from_micros(us), node: NodeId::new(7) }
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        let _ = RingTrace::new(0);
    }

    #[test]
    fn ring_evicts_oldest() {
        let mut r = RingTrace::new(3);
        for i in 0..5 {
            r.record(&died(i));
        }
        let ev = r.events();
        assert_eq!(ev.len(), 3);
        assert_eq!(ev[0].time(), SimTime::from_micros(2));
        assert_eq!(ev[2].time(), SimTime::from_micros(4));
        assert_eq!(r.total_recorded(), 5);
    }

    #[test]
    fn filtered_selects_kinds() {
        let mut r = RingTrace::new(8);
        r.record(&died(1));
        r.record(&TraceEvent::Dropped { time: SimTime::from_micros(2), to: NodeId::new(1) });
        r.record(&died(3));
        let deaths = r.filtered(|e| matches!(e, TraceEvent::Died { .. }));
        assert_eq!(deaths.len(), 2);
    }

    #[test]
    fn evicted_counts_overwrites() {
        let mut r = RingTrace::new(3);
        assert_eq!(r.capacity(), 3);
        for i in 0..5 {
            r.record(&died(i));
        }
        assert_eq!(r.evicted(), 2);
        assert_eq!(r.total_recorded() - r.evicted(), r.events().len() as u64);
    }

    fn one_of_each() -> Vec<TraceEvent> {
        vec![
            TraceEvent::Sent {
                time: SimTime::from_micros(1),
                from: NodeId::new(0),
                to: NodeId::new(1),
                bits: 256_000,
                category: EnergyCategory::Data,
                energy: 0.1 + 0.2 + 0.0512,
            },
            TraceEvent::Delivered {
                time: SimTime::from_micros(2),
                from: NodeId::new(0),
                to: NodeId::new(1),
            },
            TraceEvent::Dropped { time: SimTime::from_micros(3), to: NodeId::new(2) },
            TraceEvent::Moved {
                time: SimTime::from_micros(4),
                node: NodeId::new(3),
                from: Point2 { x: 1.5, y: -2.25 },
                to: Point2 { x: 0.1, y: 0.30000000000000004 },
                energy: 12.7,
            },
            TraceEvent::Died { time: SimTime::from_micros(5), node: NodeId::new(3) },
        ]
    }

    #[test]
    fn jsonl_round_trip_is_exact() {
        // Energies/coordinates include values with no short decimal form;
        // the {:?}-based JSON rendering must round-trip them bit-exactly.
        let events = one_of_each();
        let text = events_to_jsonl(&events);
        assert_eq!(text.lines().count(), events.len());
        let back = events_from_jsonl(&text).expect("valid JSONL");
        assert_eq!(back, events);
    }

    #[test]
    fn jsonl_parse_reports_bad_lines() {
        assert!(events_from_jsonl("{\"kind\":\"warped\",\"time_us\":1}")
            .unwrap_err()
            .contains("line 1"));
        assert!(events_from_jsonl("{\"time_us\":1}").is_err());
        assert!(events_from_jsonl("not json").is_err());
        // Blank lines are tolerated.
        let events = one_of_each();
        let spaced = events_to_jsonl(&events).replace('\n', "\n\n");
        assert_eq!(events_from_jsonl(&spaced).unwrap(), events);
    }
}
