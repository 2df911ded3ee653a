use crate::VlArbitration;
use serde::{Deserialize, Serialize};

/// Injection process shaping the per-node packet generation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
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
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
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
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
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

/// How the data plane answers "which output port does this DLID leave
/// on" at each switch hop. Purely a representation choice: both
/// backends return the same port for every `(switch, dlid)` (the
/// backend equivalence tests assert bit-identical reports), so this is
/// a memory/speed knob, not a semantic one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum RouteBackend {
    /// Materialized flat forwarding tables (`num_switches × lid_space`
    /// bytes), exactly as a subnet manager programs real switches. The
    /// default; works for every scheme, including fault-repaired tables.
    #[default]
    Table,
    /// Closed-form per-hop lookup through `ibfat_routing::RouteOracle`
    /// (the paper's Eq. 1/Eq. 2) — no forwarding tables in memory at
    /// all. Only valid for pristine SLID/MLID routings on intact
    /// fabrics; construction rejects anything the oracle cannot model.
    Oracle,
}

impl RouteBackend {
    /// Short lowercase name (stable; used in CLI flags).
    pub fn as_str(&self) -> &'static str {
        match self {
            RouteBackend::Table => "table",
            RouteBackend::Oracle => "oracle",
        }
    }
}

impl std::str::FromStr for RouteBackend {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "table" => Ok(RouteBackend::Table),
            "oracle" => Ok(RouteBackend::Oracle),
            other => Err(format!("unknown route backend '{other}'")),
        }
    }
}

impl std::fmt::Display for RouteBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Which generated flows the flight recorder samples (the recorder
/// itself is armed by `SimConfig::trace_first_packets > 0`, which also
/// bounds the trace buffer). Sampling is decided per packet from the
/// `(src, dst)` pair alone — deterministically, with no shared counter.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum TraceSampling {
    /// Record the first N generated packets, whatever their flow — the
    /// original recorder behavior.
    #[default]
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

/// Simulator configuration: the IBA subnet model constants of Section 5.
///
/// Defaults reproduce the paper's setup: 256-byte packets on a 4X link
/// (8 Gbit/s data rate ⇒ 1 ns per byte), 20 ns wire flying time, 100 ns
/// switch routing time (forwarding-table lookup + arbitration + startup),
/// one-packet input and output buffers per virtual lane, credit-based
/// link-level flow control, virtual cut-through switching.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimConfig {
    /// Packet size in bytes (everything is data; headers are not modeled
    /// separately, matching the paper's accounting).
    pub packet_bytes: u32,
    /// Serialization time of one byte on a link, in ns (1 ns = 4X link).
    pub byte_time_ns: u64,
    /// Wire propagation ("flying") time between any two devices, in ns.
    pub fly_time_ns: u64,
    /// Time to route a packet from an input port to an output port of the
    /// crossbar (table lookup, arbitration, message startup), in ns.
    pub routing_time_ns: u64,
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
    /// Egress VL arbitration (switch output ports and HCA injection).
    pub vl_arbitration: VlArbitration,
    /// RNG seed — simulations are bit-for-bit reproducible per seed.
    pub seed: u64,
    /// Collect per-link utilization into the report (off by default to
    /// keep sweep outputs lean).
    pub collect_link_stats: bool,
    /// Record full event timelines for up to N generated packets
    /// (the flight recorder; 0 disables). `trace_sampling` chooses
    /// *which* packets compete for the N slots.
    pub trace_first_packets: u32,
    /// Flow-sampling policy for the flight recorder (ignored while
    /// `trace_first_packets` is 0). Recording never perturbs the
    /// simulation: the report of a recorded run is bit-identical to an
    /// unrecorded one.
    #[serde(default)]
    pub trace_sampling: TraceSampling,
    /// Adaptive upward routing: when a packet must climb, pick the least
    /// occupied up-port instead of the forwarding table's designated one.
    /// This models what IBA's deterministic tables *give up*: it is not
    /// achievable with LFT lookup (the paper's setting) and it reorders
    /// flows. Valid on intact fat trees only.
    pub adaptive_up: bool,
    /// Data-plane route lookup backend. Bit-identical reports across
    /// backends wherever the oracle applies.
    #[serde(default)]
    pub route_backend: RouteBackend,
    /// Scheduled mid-run fabric failures (empty = subsystem disabled).
    /// Requires the table backend and a non-adaptive MLID/SLID routing.
    #[serde(default)]
    pub faults: crate::FaultPlan,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            packet_bytes: 256,
            byte_time_ns: 1,
            fly_time_ns: 20,
            routing_time_ns: 100,
            num_vls: 1,
            buffer_packets: 1,
            injection: InjectionProcess::Deterministic,
            path_selection: PathSelection::Paper,
            vl_assignment: VlAssignment::Random,
            vl_arbitration: VlArbitration::RoundRobin,
            seed: 0xF47_7EE,
            collect_link_stats: false,
            trace_first_packets: 0,
            trace_sampling: TraceSampling::default(),
            adaptive_up: false,
            route_backend: RouteBackend::default(),
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
        u64::from(self.packet_bytes) * self.byte_time_ns
    }

    /// Peak per-node bandwidth in bytes per ns (the link rate).
    #[inline]
    pub fn link_bytes_per_ns(&self) -> f64 {
        1.0 / self.byte_time_ns as f64
    }

    /// Mean packet inter-arrival time (ns) for a normalized offered load
    /// in `(0, 1]`, where 1.0 saturates the injection link.
    ///
    /// # Panics
    /// Panics if `load` is not positive and finite.
    pub fn interarrival_ns(&self, load: f64) -> f64 {
        assert!(
            load > 0.0 && load.is_finite(),
            "offered load must be positive"
        );
        self.packet_time_ns() as f64 / load
    }

    /// Validate the configuration.
    pub fn validate(&self) -> Result<(), String> {
        if self.packet_bytes == 0 {
            return Err("packet_bytes must be positive".into());
        }
        if self.byte_time_ns == 0 {
            return Err("byte_time_ns must be positive".into());
        }
        if self.num_vls == 0 || self.num_vls > 15 {
            return Err(format!(
                "num_vls must be in 1..=15 (IBA data VLs), got {}",
                self.num_vls
            ));
        }
        if self.buffer_packets == 0 {
            return Err("buffer_packets must be positive".into());
        }
        self.vl_arbitration.validate(self.num_vls)?;
        if !self.faults.is_empty() {
            if self.route_backend != RouteBackend::Table {
                return Err("fault plans require the table route backend".into());
            }
            if self.adaptive_up {
                return Err("fault plans cannot be combined with adaptive_up".into());
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_constants() {
        let c = SimConfig::paper(2);
        assert_eq!(c.packet_time_ns(), 256);
        assert_eq!(c.fly_time_ns, 20);
        assert_eq!(c.routing_time_ns, 100);
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
