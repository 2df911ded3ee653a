//! The flight recorder: per-packet event timelines.
//!
//! [`FlightRecorder`] is a [`Probe`]: passed to [`crate::run`] or
//! [`crate::run_workload`], it records every lifecycle event of up to N
//! sampled packets. Traces explain *why* a packet saw the latency it
//! did — which buffer it waited in, which grant it lost — and anchor the
//! timing model in tests. Like every probe it only receives values, so a
//! recorded run's report is the unrecorded run's report.

use crate::engine::Time;
use crate::json::{Json, JsonBuf};
use crate::packet::PacketId;
use crate::probe::Probe;

/// Which generated flows the flight recorder samples (the recorder's
/// slot count bounds the trace buffer). Sampling is decided per packet
/// from the `(src, dst)` pair alone — deterministically, with no shared
/// counter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceSampling {
    /// Record the first N generated packets, whatever their flow.
    FirstN,
    /// Record packets of roughly one in N flows: a packet is sampled
    /// when `hash(src, dst, seed) % n == 0`. All packets of a sampled
    /// flow are eligible (until the buffer fills), so whole flow
    /// lifecycles stay observable at scale.
    OneInN(u32),
    /// Record only packets of the listed `(src, dst)` flows.
    Pairs(Vec<(u32, u32)>),
}

impl TraceSampling {
    /// Whether a packet of flow `(src, dst)` is eligible for a trace
    /// slot under this policy. Pure function of the flow and the seed.
    #[inline]
    pub fn samples(&self, src: u32, dst: u32, seed: u64) -> bool {
        match self {
            TraceSampling::FirstN => true,
            TraceSampling::OneInN(n) => {
                let n = (*n).max(1);
                flow_hash(src, dst, seed).is_multiple_of(u64::from(n))
            }
            TraceSampling::Pairs(pairs) => pairs.iter().any(|&(s, d)| s == src && d == dst),
        }
    }
}

/// SplitMix64 finalizer over the flow pair, mixed with the run seed so
/// different seeds sample different 1-in-N flow subsets.
#[inline]
fn flow_hash(src: u32, dst: u32, seed: u64) -> u64 {
    let mut z = (u64::from(src) << 32 | u64::from(dst)) ^ seed.rotate_left(17);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The flight-recorder probe: the full timeline of up to `slots`
/// generated packets that `sampling` admits, in generation order.
#[derive(Debug, Clone)]
pub struct FlightRecorder {
    slots: u32,
    sampling: TraceSampling,
    seed: u64,
    traces: Vec<PacketTrace>,
    /// Slot per live packet id (`u32::MAX` = untraced). Packet ids are
    /// reused, so every [`packet_generated`](Probe::packet_generated)
    /// rebinds its id.
    slot_of: Vec<u32>,
}

impl FlightRecorder {
    /// A recorder with `slots` trace slots, filled by the packets whose
    /// flows `sampling` admits under `seed` (pass the run's
    /// [`SimConfig::seed`](crate::SimConfig::seed) to sample like
    /// `ibfat trace`).
    pub fn new(slots: u32, sampling: TraceSampling, seed: u64) -> FlightRecorder {
        FlightRecorder {
            slots,
            sampling,
            seed,
            // Clamp the pre-size so an accidental `u32::MAX` does not
            // reserve gigabytes.
            traces: Vec::with_capacity(slots.min(65_536) as usize),
            slot_of: Vec::new(),
        }
    }

    /// The recorded timelines, in slot (generation) order.
    pub fn traces(&self) -> &[PacketTrace] {
        &self.traces
    }
}

impl Probe for FlightRecorder {
    const COUNTERS: bool = false;
    const TIMING: bool = false;
    const PACKETS: bool = true;

    /// Slot assignment is a pure function of (pattern draw, sampling
    /// policy, slots already taken) — no RNG, no time.
    #[inline]
    fn packet_generated(
        &mut self,
        now: Time,
        pkt: PacketId,
        src: u32,
        dst: u32,
        dlid: u32,
        vl: u8,
    ) {
        let slot = if (self.traces.len() as u32) < self.slots
            && self.sampling.samples(src, dst, self.seed)
        {
            self.traces.push(PacketTrace {
                src,
                dst,
                dlid,
                vl,
                events: vec![(now, TraceEvent::Generated)],
            });
            (self.traces.len() - 1) as u32
        } else {
            u32::MAX
        };
        let i = pkt as usize;
        if i >= self.slot_of.len() {
            self.slot_of.resize(i + 1, u32::MAX);
        }
        self.slot_of[i] = slot;
    }

    #[inline]
    fn packet_event(&mut self, now: Time, pkt: PacketId, ev: TraceEvent) {
        let slot = self.slot_of[pkt as usize];
        if slot != u32::MAX {
            self.traces[slot as usize].events.push((now, ev));
        }
    }
}

/// One recorded packet lifecycle event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// Entered the source queue.
    Generated,
    /// First byte left the source endport.
    InjectionStart,
    /// Header reached a switch input buffer.
    HeaderArrive {
        /// Switch id.
        sw: u32,
        /// 0-based input port.
        port: u8,
    },
    /// Forwarding decision made.
    Routed {
        /// Switch id.
        sw: u32,
        /// 0-based output port.
        out_port: u8,
    },
    /// Granted into the output buffer.
    Granted {
        /// Switch id.
        sw: u32,
        /// 0-based output port.
        out_port: u8,
    },
    /// Started onto the next link.
    TransmitStart {
        /// Switch id.
        sw: u32,
        /// 0-based output port.
        out_port: u8,
    },
    /// At an arbitration instant the packet sat at the head of an output
    /// buffer with zero credits for its VL: stalled on link-level flow
    /// control. Re-recorded at each arbitration instant the stall
    /// persists through, so a long stall shows up as a run of these.
    CreditStalled {
        /// Switch id.
        sw: u32,
        /// 0-based output port.
        out_port: u8,
    },
    /// Tail arrived at the destination endport.
    Delivered,
    /// Discarded for lack of an LFT entry.
    Dropped {
        /// Switch id.
        sw: u32,
    },
}

/// The timeline of one packet.
#[derive(Debug, Clone, PartialEq)]
pub struct PacketTrace {
    /// Source node id.
    pub src: u32,
    /// Destination node id.
    pub dst: u32,
    /// DLID carried.
    pub dlid: u32,
    /// Virtual lane.
    pub vl: u8,
    /// `(time_ns, event)` pairs in order.
    pub events: Vec<(u64, TraceEvent)>,
}

impl PacketTrace {
    /// Timestamp of the first event (generation).
    pub fn t_start(&self) -> u64 {
        self.events.first().map(|&(t, _)| t).unwrap_or(0)
    }

    /// Whether the packet completed (delivered or dropped).
    pub fn completed(&self) -> bool {
        matches!(
            self.events.last(),
            Some((_, TraceEvent::Delivered | TraceEvent::Dropped { .. }))
        )
    }

    /// End-to-end latency if delivered.
    pub fn latency_ns(&self) -> Option<u64> {
        match self.events.last() {
            Some(&(t, TraceEvent::Delivered)) => Some(t - self.t_start()),
            _ => None,
        }
    }

    /// Render a human-readable timeline.
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "packet N{} -> N{} (DLID {}, VL {}):",
            self.src, self.dst, self.dlid, self.vl
        );
        let t0 = self.t_start();
        for &(t, ev) in &self.events {
            let what = match ev {
                TraceEvent::Generated => "generated".to_string(),
                TraceEvent::InjectionStart => "first byte on wire".to_string(),
                TraceEvent::HeaderArrive { sw, port } => {
                    format!("header at S{sw} in-port {}", port + 1)
                }
                TraceEvent::Routed { sw, out_port } => {
                    format!("routed at S{sw} -> out-port {}", out_port + 1)
                }
                TraceEvent::Granted { sw, out_port } => {
                    format!("granted into S{sw} out-buffer {}", out_port + 1)
                }
                TraceEvent::TransmitStart { sw, out_port } => {
                    format!("leaving S{sw} via port {}", out_port + 1)
                }
                TraceEvent::CreditStalled { sw, out_port } => {
                    format!("credit-stalled at S{sw} out-port {}", out_port + 1)
                }
                TraceEvent::Delivered => "delivered".to_string(),
                TraceEvent::Dropped { sw } => format!("DROPPED at S{sw} (no LFT entry)"),
            };
            let _ = writeln!(out, "  t+{:>6} ns  {what}", t - t0);
        }
        out
    }

    /// Render this trace as one compact JSON object (one JSONL line,
    /// without the trailing newline). Ports are 1-based, matching
    /// [`render`](PacketTrace::render) and InfiniBand convention.
    /// `slot` is the flight-recorder slot.
    pub fn to_json_line(&self, slot: usize) -> String {
        let mut j = JsonBuf::with_capacity(128 + 48 * self.events.len());
        self.encode(&mut j, slot);
        j.into_string()
    }

    /// Write the [`to_json_line`](PacketTrace::to_json_line) object.
    pub fn encode(&self, j: &mut JsonBuf, slot: usize) {
        j.begin_obj();
        j.field_u64("slot", slot as u64);
        j.field_u64("src", u64::from(self.src));
        j.field_u64("dst", u64::from(self.dst));
        j.field_u64("dlid", u64::from(self.dlid));
        j.field_u64("vl", u64::from(self.vl));
        match self.latency_ns() {
            Some(ns) => j.field_u64("latency_ns", ns),
            None => {
                j.key("latency_ns");
                j.raw_value("null");
            }
        }
        j.field_bool("completed", self.completed());
        j.key("events");
        j.begin_arr();
        for &(t, ev) in &self.events {
            j.begin_obj();
            j.field_u64("t_ns", t);
            let (kind, sw_port) = match ev {
                TraceEvent::Generated => ("generated", None),
                TraceEvent::InjectionStart => ("injection_start", None),
                TraceEvent::HeaderArrive { sw, port } => ("header_arrive", Some((sw, port))),
                TraceEvent::Routed { sw, out_port } => ("routed", Some((sw, out_port))),
                TraceEvent::Granted { sw, out_port } => ("granted", Some((sw, out_port))),
                TraceEvent::TransmitStart { sw, out_port } => {
                    ("transmit_start", Some((sw, out_port)))
                }
                TraceEvent::CreditStalled { sw, out_port } => {
                    ("credit_stalled", Some((sw, out_port)))
                }
                TraceEvent::Delivered => ("delivered", None),
                TraceEvent::Dropped { sw } => ("dropped", Some((sw, u8::MAX))),
            };
            j.field_str("ev", kind);
            if let Some((sw, port)) = sw_port {
                j.field_u64("sw", u64::from(sw));
                if port != u8::MAX {
                    j.field_u64("port", u64::from(port) + 1);
                }
            }
            j.end_obj();
        }
        j.end_arr();
        j.end_obj();
    }

    /// Read a trace back from its [`to_json_line`](PacketTrace::to_json_line)
    /// object. `slot`, `latency_ns` and `completed` are derived from the
    /// events, so they are not read.
    pub fn decode(v: &Json) -> Result<PacketTrace, String> {
        let o = v.as_object("trace")?;
        let mut events = Vec::new();
        for ev in o.arr("events")? {
            let e = ev.as_object("event")?;
            let sw = || e.int::<u32>("sw");
            let port = || match e.int::<u8>("port")? {
                0 => Err("event port 0: ports are 1-based".to_string()),
                p => Ok(p - 1),
            };
            let event = match e.str("ev")? {
                "generated" => TraceEvent::Generated,
                "injection_start" => TraceEvent::InjectionStart,
                "header_arrive" => TraceEvent::HeaderArrive {
                    sw: sw()?,
                    port: port()?,
                },
                "routed" => TraceEvent::Routed {
                    sw: sw()?,
                    out_port: port()?,
                },
                "granted" => TraceEvent::Granted {
                    sw: sw()?,
                    out_port: port()?,
                },
                "transmit_start" => TraceEvent::TransmitStart {
                    sw: sw()?,
                    out_port: port()?,
                },
                "credit_stalled" => TraceEvent::CreditStalled {
                    sw: sw()?,
                    out_port: port()?,
                },
                "delivered" => TraceEvent::Delivered,
                "dropped" => TraceEvent::Dropped { sw: sw()? },
                other => return Err(format!("unknown trace event \"{other}\"")),
            };
            events.push((e.int("t_ns")?, event));
        }
        Ok(PacketTrace {
            src: o.int("src")?,
            dst: o.int("dst")?,
            dlid: o.int("dlid")?,
            vl: o.int("vl")?,
            events,
        })
    }
}

/// Render a whole flight-recorder buffer as a JSONL document: one line
/// per traced packet, in slot order.
pub fn traces_to_jsonl(traces: &[PacketTrace]) -> String {
    let mut out = String::new();
    for (slot, t) in traces.iter().enumerate() {
        out.push_str(&t.to_json_line(slot));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> PacketTrace {
        PacketTrace {
            src: 0,
            dst: 4,
            dlid: 17,
            vl: 0,
            events: vec![
                (100, TraceEvent::Generated),
                (100, TraceEvent::InjectionStart),
                (120, TraceEvent::HeaderArrive { sw: 12, port: 0 }),
                (
                    220,
                    TraceEvent::Routed {
                        sw: 12,
                        out_port: 2,
                    },
                ),
                (
                    220,
                    TraceEvent::Granted {
                        sw: 12,
                        out_port: 2,
                    },
                ),
                (
                    220,
                    TraceEvent::TransmitStart {
                        sw: 12,
                        out_port: 2,
                    },
                ),
                (496, TraceEvent::Delivered),
            ],
        }
    }

    #[test]
    fn latency_and_completion() {
        let t = sample();
        assert!(t.completed());
        assert_eq!(t.latency_ns(), Some(396));
        assert_eq!(t.t_start(), 100);
    }

    #[test]
    fn incomplete_trace_has_no_latency() {
        let mut t = sample();
        t.events.pop();
        assert!(!t.completed());
        assert_eq!(t.latency_ns(), None);
    }

    #[test]
    fn render_contains_the_route() {
        let text = sample().render();
        assert!(text.contains("N0 -> N4"));
        assert!(text.contains("header at S12"));
        assert!(text.contains("delivered"));
    }

    #[test]
    fn render_shows_credit_stalls() {
        let mut t = sample();
        t.events.insert(
            3,
            (
                180,
                TraceEvent::CreditStalled {
                    sw: 12,
                    out_port: 2,
                },
            ),
        );
        assert!(t.render().contains("credit-stalled at S12 out-port 3"));
    }

    #[test]
    fn jsonl_line_is_valid_and_one_based() {
        let mut t = sample();
        t.events.insert(
            3,
            (
                180,
                TraceEvent::CreditStalled {
                    sw: 12,
                    out_port: 2,
                },
            ),
        );
        let line = t.to_json_line(7);
        let doc = crate::json::parse(&line).expect("valid JSON");
        let obj = doc.as_object("line").unwrap();
        assert_eq!(obj.field("slot").unwrap().as_u64("slot").unwrap(), 7);
        assert_eq!(obj.field("src").unwrap().as_u64("src").unwrap(), 0);
        assert_eq!(obj.field("latency_ns").unwrap().as_u64("lat").unwrap(), 396);
        let events = obj.field("events").unwrap().as_array("events").unwrap();
        assert_eq!(events.len(), t.events.len());
        let stall = events[3].as_object("ev").unwrap();
        assert_eq!(
            stall.field("ev").unwrap().as_string("ev").unwrap(),
            "credit_stalled"
        );
        // 0-based out-port 2 is exported as wire port 3.
        assert_eq!(stall.field("port").unwrap().as_u64("port").unwrap(), 3);
    }

    #[test]
    fn incomplete_trace_exports_null_latency() {
        let mut t = sample();
        t.events.pop();
        let line = t.to_json_line(0);
        assert!(line.contains("\"latency_ns\":null"));
        assert!(line.contains("\"completed\":false"));
        crate::json::parse(&line).expect("valid JSON");
    }

    #[test]
    fn jsonl_document_has_one_line_per_trace() {
        let doc = traces_to_jsonl(&[sample(), sample()]);
        assert_eq!(doc.lines().count(), 2);
        for line in doc.lines() {
            crate::json::parse(line).expect("valid JSON");
        }
    }

    #[test]
    fn json_line_reads_back_as_the_trace() {
        let mut t = sample();
        t.events.insert(
            3,
            (
                180,
                TraceEvent::CreditStalled {
                    sw: 12,
                    out_port: 2,
                },
            ),
        );
        let mut dropped = sample();
        dropped.events.pop();
        dropped.events.push((900, TraceEvent::Dropped { sw: 3 }));
        for t in [t, dropped] {
            let doc = crate::json::parse(&t.to_json_line(5)).unwrap();
            assert_eq!(PacketTrace::decode(&doc).unwrap(), t);
        }
        let zero_port = r#"{"src":0,"dst":1,"dlid":2,"vl":0,"events":[{"t_ns":1,"ev":"routed","sw":0,"port":0}]}"#;
        assert!(PacketTrace::decode(&crate::json::parse(zero_port).unwrap()).is_err());
    }

    #[test]
    fn trace_sampling_is_a_pure_flow_function() {
        // Deterministic per (flow, seed), seed-sensitive overall.
        let one_in_4 = TraceSampling::OneInN(4);
        for src in 0..8 {
            for dst in 0..8 {
                assert_eq!(one_in_4.samples(src, dst, 7), one_in_4.samples(src, dst, 7));
            }
        }
        // Roughly one in four flows sampled over a 64x64 flow matrix.
        let hits = (0..64u32)
            .flat_map(|s| (0..64u32).map(move |d| (s, d)))
            .filter(|&(s, d)| one_in_4.samples(s, d, 1))
            .count();
        assert!((64 * 64 / 8..64 * 64 / 2).contains(&hits), "hits = {hits}");
        let pairs = TraceSampling::Pairs(vec![(1, 2)]);
        assert!(pairs.samples(1, 2, 0));
        assert!(!pairs.samples(2, 1, 0));
        assert!(TraceSampling::FirstN.samples(9, 9, 0));
        // OneInN(0) clamps to 1 (sample everything), not a div-by-zero.
        assert!(TraceSampling::OneInN(0).samples(3, 4, 5));
    }
}
