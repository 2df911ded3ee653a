//! Workload outcome: per-message timings and the report that
//! summarizes them.
//!
//! Everything here is integer nanoseconds computed by exact
//! nearest-rank statistics over the recorded samples — no floating
//! point, no approximate histogram buckets — so a report is
//! bit-comparable across runs by simple `==`.

use crate::Workload;
use serde::{Deserialize, Serialize};

/// The lifecycle timestamps of one message, recorded by the simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct MessageTiming {
    /// All dependencies satisfied; packets entered the source queue.
    pub armed_ns: u64,
    /// First byte of the first packet on the wire.
    pub injected_ns: u64,
    /// Last packet delivered at the destination.
    pub completed_ns: u64,
}

/// Completion summary for one message group (a collective instance or
/// a phase).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct GroupReport {
    /// The group's name from [`Workload::group_names`].
    pub name: String,
    /// Messages in the group.
    pub messages: u64,
    /// Payload bytes in the group.
    pub bytes: u64,
    /// Earliest arm time of any message in the group.
    pub start_ns: u64,
    /// Latest completion of any message in the group — for a
    /// collective, its completion time.
    pub completion_ns: u64,
}

/// Exact nearest-rank latency percentiles over message service times
/// (`completed - armed`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct MsgLatency {
    pub min_ns: u64,
    pub p50_ns: u64,
    pub p95_ns: u64,
    pub p99_ns: u64,
    pub max_ns: u64,
    /// Integer mean (floor of sum/count) — exact, merge-stable.
    pub mean_ns: u64,
}

/// The outcome of driving a [`Workload`] to completion.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct WorkloadReport {
    /// Node universe of the workload.
    pub num_nodes: u32,
    /// Total messages completed.
    pub messages: u64,
    /// Total payload bytes moved.
    pub total_bytes: u64,
    /// Packets the payload segmented into.
    pub packets: u64,
    /// Time of the last message completion — the workload's makespan.
    pub makespan_ns: u64,
    /// Per-message service-time percentiles.
    pub latency: MsgLatency,
    /// Per-group (per-collective / per-phase) completion times, in
    /// group-id order.
    pub groups: Vec<GroupReport>,
    /// Spread between the first and last node to finish participating
    /// (a node's finish is the completion of its last message as
    /// sender or receiver).
    pub node_skew_ns: u64,
    /// Simulator events processed while driving the workload.
    pub events: u64,
    /// The raw per-message record, in message-id order. Carried in the
    /// report so report equality (`==`) covers every timestamp, not
    /// just the aggregates.
    pub timings: Vec<MessageTiming>,
}

impl WorkloadReport {
    /// Summarize a completed run. `packet_bytes` is the MTU used for
    /// segmentation; `events` the engine's processed-event count.
    pub fn build(
        w: &Workload,
        timings: Vec<MessageTiming>,
        packet_bytes: u64,
        events: u64,
    ) -> WorkloadReport {
        assert_eq!(
            timings.len(),
            w.messages.len(),
            "one timing per message required"
        );
        let mut service: Vec<u64> = timings
            .iter()
            .map(|t| t.completed_ns.saturating_sub(t.armed_ns))
            .collect();
        service.sort_unstable();
        let latency = MsgLatency {
            min_ns: service.first().copied().unwrap_or(0),
            p50_ns: nearest_rank(&service, 50),
            p95_ns: nearest_rank(&service, 95),
            p99_ns: nearest_rank(&service, 99),
            max_ns: service.last().copied().unwrap_or(0),
            mean_ns: if service.is_empty() {
                0
            } else {
                service.iter().sum::<u64>() / service.len() as u64
            },
        };

        let mut groups: Vec<GroupReport> = w
            .group_names
            .iter()
            .map(|name| GroupReport {
                name: name.clone(),
                messages: 0,
                bytes: 0,
                start_ns: u64::MAX,
                completion_ns: 0,
            })
            .collect();
        let mut node_finish = vec![0u64; w.num_nodes as usize];
        let mut node_active = vec![false; w.num_nodes as usize];
        let mut packets = 0u64;
        for (m, t) in w.messages.iter().zip(&timings) {
            packets += m.bytes.div_ceil(packet_bytes.max(1));
            let g = &mut groups[m.group as usize];
            g.messages += 1;
            g.bytes += m.bytes;
            g.start_ns = g.start_ns.min(t.armed_ns);
            g.completion_ns = g.completion_ns.max(t.completed_ns);
            for node in [m.src, m.dst] {
                node_active[node.index()] = true;
                node_finish[node.index()] = node_finish[node.index()].max(t.completed_ns);
            }
        }
        for g in &mut groups {
            if g.messages == 0 {
                g.start_ns = 0;
            }
        }
        let (mut first, mut last) = (u64::MAX, 0u64);
        for (i, &f) in node_finish.iter().enumerate() {
            if node_active[i] {
                first = first.min(f);
                last = last.max(f);
            }
        }
        let node_skew_ns = if first == u64::MAX { 0 } else { last - first };

        WorkloadReport {
            num_nodes: w.num_nodes,
            messages: w.messages.len() as u64,
            total_bytes: w.total_bytes(),
            packets,
            makespan_ns: timings.iter().map(|t| t.completed_ns).max().unwrap_or(0),
            latency,
            groups,
            node_skew_ns,
            events,
            timings,
        }
    }
}

/// Nearest-rank percentile of an ascending-sorted slice: the smallest
/// sample with at least `pct`% of the distribution at or below it.
fn nearest_rank(sorted: &[u64], pct: u64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (sorted.len() as u64 * pct).div_ceil(100).max(1) as usize;
    sorted[rank - 1]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn nearest_rank_is_exact() {
        let s: Vec<u64> = (1..=100).collect();
        assert_eq!(nearest_rank(&s, 50), 50);
        assert_eq!(nearest_rank(&s, 95), 95);
        assert_eq!(nearest_rank(&s, 99), 99);
        assert_eq!(nearest_rank(&[7], 50), 7);
        assert_eq!(nearest_rank(&[3, 9], 50), 3);
        assert_eq!(nearest_rank(&[3, 9], 99), 9);
    }

    #[test]
    fn build_summarizes_groups_packets_and_skew() {
        let w = generators::bcast_binomial(4, ibfat_topology::NodeId(0), 1000);
        // 3 messages: 0->1 (round 0), 0->2, 1->3 (round 1).
        let timings = vec![
            MessageTiming {
                armed_ns: 0,
                injected_ns: 5,
                completed_ns: 100,
            },
            MessageTiming {
                armed_ns: 0,
                injected_ns: 105,
                completed_ns: 220,
            },
            MessageTiming {
                armed_ns: 100,
                injected_ns: 110,
                completed_ns: 260,
            },
        ];
        let r = WorkloadReport::build(&w, timings, 256, 999);
        assert_eq!(r.messages, 3);
        assert_eq!(r.total_bytes, 3000);
        assert_eq!(r.packets, 3 * 4, "ceil(1000/256) = 4 per message");
        assert_eq!(r.makespan_ns, 260);
        assert_eq!(r.groups.len(), 1);
        assert_eq!(r.groups[0].completion_ns, 260);
        assert_eq!(r.groups[0].start_ns, 0);
        // service times: 100, 220, 160 → sorted 100,160,220
        assert_eq!(r.latency.min_ns, 100);
        assert_eq!(r.latency.p50_ns, 160);
        assert_eq!(r.latency.max_ns, 220);
        assert_eq!(r.latency.mean_ns, 160);
        // node finishes: n0=220, n1=260, n2=220, n3=260 → skew 40.
        assert_eq!(r.node_skew_ns, 40);
        assert_eq!(r.events, 999);
    }
}
