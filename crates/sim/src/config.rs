use crate::json::{enum_from, enum_name, Codec, Json, JsonBuf};
use crate::SimError;

/// Serialization time of one byte on a link, in ns: a 4X link's 8 Gbit/s
/// data rate (Section 5).
pub const BYTE_TIME_NS: u64 = 1;

/// Wire propagation ("flying") time between any two devices, in ns
/// (Section 5).
pub const FLY_TIME_NS: u64 = 20;

/// Time to route a packet from an input port to an output port of a
/// switch crossbar (table lookup, arbitration, message startup), in ns
/// (Section 5).
pub const ROUTING_TIME_NS: u64 = 100;

/// Injection process shaping the per-node packet generation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InjectionProcess {
    /// Constant inter-arrival time (the paper: "the packet generation rate
    /// is constant and the same for all processing nodes"). Each node gets
    /// a random initial phase so the fleet does not inject in lockstep.
    Deterministic,
    /// Poisson arrivals with the same mean rate (exponential
    /// inter-arrivals) — an extension for sensitivity studies.
    Poisson,
}

/// How a source picks which of the destination's LIDs to address —
/// the knob the paper's path-selection scheme occupies. Single-LID
/// schemes have a one-LID window, so every policy degenerates to the
/// base LID there.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PathSelection {
    /// The paper's scheme: `BaseLID(dst) + rank(src)` — deterministic per
    /// pair, upward links private per source.
    Paper,
    /// Uniform random offset per packet. Spreads load statistically but
    /// forfeits the exclusivity property and reorders packets of a flow
    /// (a real cost in InfiniBand, where transport expects in-order
    /// delivery within a path).
    RandomPerPacket,
    /// Per-source round-robin over the destination's window — also
    /// reordering, but with deterministic balance.
    RoundRobinPerSource,
}

/// How packets are assigned to virtual lanes at generation (the SL→VL
/// choice, with an identity SL2VL map along the path).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VlAssignment {
    /// Uniform random per packet (the default; matches an unmanaged
    /// multi-VL configuration).
    Random,
    /// By destination (`dst mod num_vls`): traffic to a hot destination
    /// is confined to one lane, isolating its head-of-line blocking from
    /// the other lanes — the classic VL-based congestion containment.
    DestinationHash,
    /// By source (`src mod num_vls`).
    SourceHash,
}

/// Simulator configuration: what a run varies over the IBA subnet model
/// of Section 5.
///
/// Defaults reproduce the paper's setup: 256-byte packets, one-packet
/// input and output buffers per virtual lane, deterministic injection.
/// The model's timing is fixed at the paper's ([`BYTE_TIME_NS`],
/// [`FLY_TIME_NS`], [`ROUTING_TIME_NS`]), and every egress port serves
/// its VLs round-robin, one packet per VL in turn.
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// Packet size in bytes (everything is data; headers are not modeled
    /// separately, matching the paper's accounting).
    pub packet_bytes: u32,
    /// Number of data virtual lanes in use (the paper sweeps 1, 2, 4; IBA
    /// allows up to 15 data VLs).
    pub num_vls: u8,
    /// Input/output buffer capacity per (port, VL), in packets. The paper
    /// fixes this to 1 ("the buffer can only store a packet at a time");
    /// other values support the ablation benches.
    pub buffer_packets: u8,
    /// Injection process.
    pub injection: InjectionProcess,
    /// Path-selection policy over the destination's LID window.
    pub path_selection: PathSelection,
    /// VL assignment policy at the source.
    pub vl_assignment: VlAssignment,
    /// RNG seed — simulations are bit-for-bit reproducible per seed.
    pub seed: u64,
    /// Adaptive upward routing: when a packet must climb, pick the least
    /// occupied up-port instead of the forwarding table's designated one.
    /// This models what IBA's deterministic tables *give up*: it is not
    /// achievable with LFT lookup (the paper's setting) and it reorders
    /// flows. Valid on intact fat trees only.
    pub adaptive_up: bool,
    /// Scheduled mid-run fabric failures (empty = subsystem disabled).
    /// Requires a non-adaptive MLID/SLID routing; the run reads (and
    /// patches) the routing's tables.
    pub faults: crate::FaultPlan,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            packet_bytes: 256,
            num_vls: 1,
            buffer_packets: 1,
            injection: InjectionProcess::Deterministic,
            path_selection: PathSelection::Paper,
            vl_assignment: VlAssignment::Random,
            seed: 0xF47_7EE,
            adaptive_up: false,
            faults: crate::FaultPlan::default(),
        }
    }
}

impl SimConfig {
    /// The paper's configuration with a given number of virtual lanes.
    pub fn paper(num_vls: u8) -> Self {
        SimConfig {
            num_vls,
            ..SimConfig::default()
        }
    }

    /// Serialization time of a whole packet on a link, in ns.
    #[inline]
    pub fn packet_time_ns(&self) -> u64 {
        u64::from(self.packet_bytes) * BYTE_TIME_NS
    }

    /// Peak per-node bandwidth in bytes per ns (the link rate).
    #[inline]
    pub fn link_bytes_per_ns(&self) -> f64 {
        1.0 / BYTE_TIME_NS as f64
    }

    /// Mean packet inter-arrival time (ns) for a normalized offered
    /// load, where 1.0 saturates the injection link. Any positive,
    /// finite load is accepted; above 1.0 the source queues grow.
    ///
    /// # Panics
    /// Panics if `load` is not positive and finite ([`crate::run`]
    /// checks the load first and returns [`SimError::InvalidConfig`]).
    pub fn interarrival_ns(&self, load: f64) -> f64 {
        assert!(
            load > 0.0 && load.is_finite(),
            "offered load must be positive"
        );
        self.packet_time_ns() as f64 / load
    }

    /// Validate the configuration on its own (the checks that need the
    /// network and routing run when the engine is built).
    pub fn validate(&self) -> Result<(), SimError> {
        let invalid = |msg: &str| Err(SimError::InvalidConfig(msg.into()));
        if self.packet_bytes == 0 {
            return invalid("packet_bytes must be positive");
        }
        if self.num_vls == 0 || self.num_vls > 15 {
            return Err(SimError::InvalidConfig(format!(
                "num_vls must be in 1..=15 (IBA data VLs), got {}",
                self.num_vls
            )));
        }
        if self.buffer_packets == 0 {
            return invalid("buffer_packets must be positive");
        }
        if !self.faults.is_empty() && self.adaptive_up {
            return invalid("fault plans cannot be combined with adaptive_up");
        }
        Ok(())
    }
}

const INJECTIONS: [(InjectionProcess, &str); 2] = [
    (InjectionProcess::Deterministic, "deterministic"),
    (InjectionProcess::Poisson, "poisson"),
];

const PATH_SELECTIONS: [(PathSelection, &str); 3] = [
    (PathSelection::Paper, "paper"),
    (PathSelection::RandomPerPacket, "random_per_packet"),
    (PathSelection::RoundRobinPerSource, "round_robin_per_source"),
];

const VL_ASSIGNMENTS: [(VlAssignment, &str); 3] = [
    (VlAssignment::Random, "random"),
    (VlAssignment::DestinationHash, "destination_hash"),
    (VlAssignment::SourceHash, "source_hash"),
];

/// One object with a field per [`SimConfig`] field, in declaration
/// order; `u64`s (the seed included) are exact.
impl Codec for SimConfig {
    fn encode(&self, j: &mut JsonBuf) {
        j.begin_obj();
        j.field_u64("packet_bytes", u64::from(self.packet_bytes));
        j.field_u64("num_vls", u64::from(self.num_vls));
        j.field_u64("buffer_packets", u64::from(self.buffer_packets));
        j.field_str("injection", enum_name(&INJECTIONS, &self.injection));
        j.field_str(
            "path_selection",
            enum_name(&PATH_SELECTIONS, &self.path_selection),
        );
        j.field_str(
            "vl_assignment",
            enum_name(&VL_ASSIGNMENTS, &self.vl_assignment),
        );
        j.field_u64("seed", self.seed);
        j.field_bool("adaptive_up", self.adaptive_up);
        j.field("faults", &self.faults);
        j.end_obj();
    }

    fn decode(v: &Json) -> Result<Self, String> {
        let o = v.as_object("config")?;
        Ok(SimConfig {
            packet_bytes: o.int("packet_bytes")?,
            num_vls: o.int("num_vls")?,
            buffer_packets: o.int("buffer_packets")?,
            injection: enum_from(&INJECTIONS, o.field("injection")?, "injection")?,
            path_selection: enum_from(
                &PATH_SELECTIONS,
                o.field("path_selection")?,
                "path_selection",
            )?,
            vl_assignment: enum_from(&VL_ASSIGNMENTS, o.field("vl_assignment")?, "vl_assignment")?,
            seed: o.int("seed")?,
            adaptive_up: o.bool("adaptive_up")?,
            faults: o.decode("faults")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_constants() {
        let c = SimConfig::paper(2);
        assert_eq!(c.packet_time_ns(), 256);
        assert_eq!(c.num_vls, 2);
        assert_eq!(c.buffer_packets, 1);
        c.validate().unwrap();
    }

    #[test]
    fn interarrival_scales_inversely_with_load() {
        let c = SimConfig::default();
        assert_eq!(c.interarrival_ns(1.0), 256.0);
        assert_eq!(c.interarrival_ns(0.5), 512.0);
        assert_eq!(c.interarrival_ns(0.25), 1024.0);
    }

    #[test]
    fn validation_catches_bad_configs() {
        let mut c = SimConfig {
            num_vls: 0,
            ..SimConfig::default()
        };
        assert!(c.validate().is_err());
        c.num_vls = 16;
        assert!(c.validate().is_err());
        c = SimConfig {
            buffer_packets: 0,
            ..SimConfig::default()
        };
        assert!(c.validate().is_err());
        c = SimConfig {
            packet_bytes: 0,
            ..SimConfig::default()
        };
        assert!(c.validate().is_err());
    }

    #[test]
    #[should_panic(expected = "offered load")]
    fn zero_load_panics() {
        SimConfig::default().interarrival_ns(0.0);
    }
}
