//! The flight recorder: per-packet event timelines.
//!
//! When `SimConfig::trace_first_packets > 0`, the simulator records every
//! lifecycle event of the first N generated packets. Traces explain *why*
//! a packet saw the latency it did — which buffer it waited in, which
//! grant it lost — and anchor the timing model in tests.

use crate::json::{Json, JsonBuf};

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
}
