//! Message-level workloads for the fat-tree simulator.
//!
//! The packet engine in `ibfat-sim` moves fixed-size packets; real
//! applications move *messages* — multi-packet transfers whose start is
//! gated on earlier transfers completing. This crate defines that layer
//! as plain data: a [`Workload`] is a DAG of [`Message`]s (one dependency
//! edge per "send after recv-complete" constraint), and the simulator
//! drives it to completion instead of to a wall-clock horizon.
//!
//! Three workload families ship here:
//!
//! * **Collectives** ([`generators`]) — ring and recursive-doubling
//!   allreduce, pairwise all-to-all exchange, and binomial-tree
//!   broadcast, each expressed as the dependency DAG the algorithm
//!   induces.
//! * **Closed-loop traffic** ([`generators::closed_loop`]) — the
//!   message-level analogue of the paper's uniform / centric open-loop
//!   patterns: every node keeps `k` messages in flight and re-arms on
//!   completion. All randomness is pre-drawn at build time so runs are
//!   reproducible and engine-independent.
//! * **Trace replay** ([`trace`]) — a JSONL record format
//!   (`{"src":…,"dst":…,"bytes":…,"depends_on":[…]}`) with a writer, so
//!   any workload can be captured and replayed.
//!
//! The crate is deliberately simulator-agnostic: it depends only on the
//! topology id types. `ibfat-sim` consumes a validated [`Workload`] and
//! produces the [`MessageTiming`]s that a [`WorkloadReport`] summarizes.

pub mod generators;
pub mod report;
pub mod trace;

pub use generators::ClosedLoopKind;
pub use report::{GroupReport, MessageTiming, MsgLatency, WorkloadReport};

use ibfat_topology::NodeId;

/// Index of a message within its [`Workload`].
pub type MsgId = u32;

/// One message: a multi-packet transfer from `src` to `dst`, eligible
/// for injection only once every message in `deps` has completed
/// (last packet delivered at its destination).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Message {
    /// Sending node.
    pub src: NodeId,
    /// Receiving node.
    pub dst: NodeId,
    /// Payload size; segmented into `ceil(bytes / packet_bytes)` packets.
    pub bytes: u64,
    /// Messages that must complete before this one may be injected.
    /// Validation requires every dependency id to be smaller than the
    /// message's own id, so workload DAGs are acyclic by construction.
    pub deps: Vec<MsgId>,
    /// Group this message belongs to (a collective instance or a phase);
    /// indexes [`Workload::group_names`]. Reports aggregate completion
    /// time per group.
    pub group: u32,
}

/// A complete workload: the message DAG plus the node universe it is
/// meant for. Build one with the [`generators`], parse one from JSONL
/// with [`trace::parse_jsonl`], or assemble messages by hand.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Workload {
    /// Number of processing nodes the workload addresses; every `src`
    /// and `dst` must be below this.
    pub num_nodes: u32,
    /// The message DAG, in id order (`messages[i]` has id `i`).
    pub messages: Vec<Message>,
    /// Human-readable names for the groups referenced by
    /// [`Message::group`].
    pub group_names: Vec<String>,
}

impl Workload {
    /// An empty workload over `num_nodes` nodes.
    pub fn new(num_nodes: u32) -> Self {
        Workload {
            num_nodes,
            messages: Vec::new(),
            group_names: Vec::new(),
        }
    }

    /// Append a group, returning its id for use in [`Message::group`].
    pub fn add_group(&mut self, name: impl Into<String>) -> u32 {
        self.group_names.push(name.into());
        (self.group_names.len() - 1) as u32
    }

    /// Append a message, returning its id. Dependencies must refer to
    /// already-appended messages (checked by [`validate`](Self::validate),
    /// not here).
    pub fn push(&mut self, msg: Message) -> MsgId {
        self.messages.push(msg);
        (self.messages.len() - 1) as MsgId
    }

    /// Total payload bytes across all messages.
    pub fn total_bytes(&self) -> u64 {
        self.messages.iter().map(|m| m.bytes).sum()
    }

    /// The root messages: those with no dependencies, eligible at t=0.
    pub fn roots(&self) -> impl Iterator<Item = MsgId> + '_ {
        self.messages
            .iter()
            .enumerate()
            .filter(|(_, m)| m.deps.is_empty())
            .map(|(i, _)| i as MsgId)
    }

    /// Check the workload is well-formed: at least one message, every
    /// endpoint in `0..num_nodes`, no self-sends, non-zero sizes, every
    /// dependency id strictly smaller than the depending message's id
    /// (which makes the DAG acyclic by construction), and every group
    /// index named.
    pub fn validate(&self) -> Result<(), String> {
        if self.num_nodes < 2 {
            return Err("workload needs at least 2 nodes".into());
        }
        if self.messages.is_empty() {
            return Err("workload has no messages".into());
        }
        for (id, m) in self.messages.iter().enumerate() {
            if m.src.0 >= self.num_nodes || m.dst.0 >= self.num_nodes {
                return Err(format!(
                    "message {id}: endpoint out of range ({} -> {}, {} nodes)",
                    m.src.0, m.dst.0, self.num_nodes
                ));
            }
            if m.src == m.dst {
                return Err(format!(
                    "message {id}: self-send ({} -> {})",
                    m.src.0, m.dst.0
                ));
            }
            if m.bytes == 0 {
                return Err(format!("message {id}: zero bytes"));
            }
            for &d in &m.deps {
                if (d as usize) >= id {
                    return Err(format!(
                        "message {id}: dependency {d} is not an earlier message \
                         (ids must be topologically ordered)"
                    ));
                }
            }
            if (m.group as usize) >= self.group_names.len() {
                return Err(format!(
                    "message {id}: group {} has no name ({} groups)",
                    m.group,
                    self.group_names.len()
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn msg(src: u32, dst: u32, deps: Vec<MsgId>) -> Message {
        Message {
            src: NodeId(src),
            dst: NodeId(dst),
            bytes: 1024,
            deps,
            group: 0,
        }
    }

    #[test]
    fn validate_accepts_a_well_formed_dag() {
        let mut w = Workload::new(4);
        w.add_group("g");
        w.push(msg(0, 1, vec![]));
        w.push(msg(1, 2, vec![0]));
        w.push(msg(2, 3, vec![0, 1]));
        assert!(w.validate().is_ok());
        assert_eq!(w.roots().collect::<Vec<_>>(), vec![0]);
        assert_eq!(w.total_bytes(), 3 * 1024);
    }

    #[test]
    fn validate_rejects_malformed_workloads() {
        let mut w = Workload::new(4);
        w.add_group("g");
        assert!(w.validate().is_err(), "empty");

        w.push(msg(0, 9, vec![]));
        assert!(w.validate().unwrap_err().contains("out of range"));

        w.messages[0] = msg(2, 2, vec![]);
        assert!(w.validate().unwrap_err().contains("self-send"));

        w.messages[0] = msg(0, 1, vec![0]);
        assert!(w.validate().unwrap_err().contains("earlier message"));

        w.messages[0] = msg(0, 1, vec![]);
        w.messages[0].bytes = 0;
        assert!(w.validate().unwrap_err().contains("zero bytes"));

        w.messages[0].bytes = 1;
        w.messages[0].group = 7;
        assert!(w.validate().unwrap_err().contains("no name"));
    }
}
