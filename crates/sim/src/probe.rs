//! Zero-cost observability probes.
//!
//! The simulator is generic over a [`Probe`] — a sink for fine-grained
//! fabric events (per-port transmissions, crossbar waits, credit stalls)
//! and for self-profiling timing. Dispatch is static: every hook call in
//! the hot path is guarded by the associated consts [`Probe::COUNTERS`] /
//! [`Probe::TIMING`], so with the default [`NoopProbe`] the compiler
//! removes both the calls *and* the computation of their arguments. The
//! probed and unprobed simulators are separate monomorphizations; the
//! unprobed one is bit-identical in behaviour and (to within measurement
//! noise) in speed to a simulator with no probe layer at all.
//!
//! Two probes ship with the crate:
//!
//! * [`FabricCounters`](crate::FabricCounters) — IB-style per-port
//!   counters plus a sampled time-series (see [`crate::counters`]);
//! * [`PhaseProfile`] — wall-clock per event-loop phase, for the bench
//!   trajectory's self-profiling rows.
//!
//! Probes compose: `(A, B)` is a probe that forwards every hook to both.

use crate::engine::Time;

/// Event-loop phases for self-profiling, classifying every simulator
/// event by the pipeline stage it advances.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Traffic generation and source-queue service (injection side).
    Generation,
    /// Header arrival, table lookup and input-buffer bookkeeping.
    Routing,
    /// Output-port VL arbitration, transmission and credit returns.
    Arbitration,
    /// Final delivery into the destination endport.
    Delivery,
}

/// Number of [`Phase`] variants (array-sized accumulators).
pub const NUM_PHASES: usize = 4;

impl Phase {
    /// Stable dense index in `0..NUM_PHASES`.
    #[inline]
    pub fn index(self) -> usize {
        match self {
            Phase::Generation => 0,
            Phase::Routing => 1,
            Phase::Arbitration => 2,
            Phase::Delivery => 3,
        }
    }

    /// All phases in index order.
    pub fn all() -> [Phase; NUM_PHASES] {
        [
            Phase::Generation,
            Phase::Routing,
            Phase::Arbitration,
            Phase::Delivery,
        ]
    }

    /// Short stable name (used in the bench trajectory JSON).
    pub fn name(self) -> &'static str {
        match self {
            Phase::Generation => "generation",
            Phase::Routing => "routing",
            Phase::Arbitration => "arbitration",
            Phase::Delivery => "delivery",
        }
    }
}

/// A sink for simulator observability events.
///
/// All hooks have empty default bodies, so a probe implements only what
/// it consumes. Hook call sites in the simulator are guarded by
/// [`COUNTERS`](Probe::COUNTERS) / [`TIMING`](Probe::TIMING): a probe
/// that leaves a flag `false` pays nothing for the hooks behind it —
/// including the computation of their arguments.
///
/// Times are simulation nanoseconds except [`phase_time`]'s
/// `wall_ns`, which is host wall-clock. `bytes` is always the configured
/// packet size (the model has fixed-size packets). Switch ports are
/// 0-based here, matching the simulator's internal numbering; add 1 for
/// IB port numbers.
///
/// [`phase_time`]: Probe::phase_time
pub trait Probe {
    /// Enables the fabric-counter hooks (everything except
    /// [`phase_time`](Probe::phase_time)).
    const COUNTERS: bool;
    /// Enables wall-clock timing of each dispatched event by [`Phase`].
    /// Costs two `Instant::now()` calls per event when on.
    const TIMING: bool;

    /// A node started transmitting a packet on its injection link.
    #[inline]
    fn node_xmit(&mut self, now: Time, node: u32, vl: u8, bytes: u32) {
        let _ = (now, node, vl, bytes);
    }

    /// A packet was delivered to a node. `latency_ns` is measured from
    /// generation (source queueing included).
    #[inline]
    fn node_rcv(&mut self, now: Time, node: u32, vl: u8, bytes: u32, latency_ns: u64) {
        let _ = (now, node, vl, bytes, latency_ns);
    }

    /// A packet header arrived at a switch input buffer; `depth` is the
    /// buffer occupancy after the arrival (for high-water tracking).
    #[inline]
    fn sw_rcv(&mut self, now: Time, sw: u32, port: u8, vl: u8, bytes: u32, depth: u8) {
        let _ = (now, sw, port, vl, bytes, depth);
    }

    /// A switch output port started transmitting a packet.
    #[inline]
    fn sw_xmit(&mut self, now: Time, sw: u32, port: u8, vl: u8, bytes: u32) {
        let _ = (now, sw, port, vl, bytes);
    }

    /// A switch discarded a packet (no LFT entry; degraded fabrics only).
    #[inline]
    fn sw_drop(&mut self, now: Time, sw: u32) {
        let _ = (now, sw);
    }

    /// A packet was granted into an output buffer; `depth` is the buffer
    /// occupancy after the grant.
    #[inline]
    fn out_buffer_depth(&mut self, sw: u32, port: u8, vl: u8, depth: u8) {
        let _ = (sw, port, vl, depth);
    }

    /// The routed head of input `(in_port, vl)` found output `out_port`
    /// full and started waiting — the onset of `xmit_wait` (the paper's
    /// congestion signal, accounted to the *output* port).
    #[inline]
    fn xmit_wait_start(&mut self, now: Time, sw: u32, in_port: u8, vl: u8, out_port: u8) {
        let _ = (now, sw, in_port, vl, out_port);
    }

    /// The waiting head of input `(in_port, vl)` was granted.
    #[inline]
    fn xmit_wait_end(&mut self, now: Time, sw: u32, in_port: u8, vl: u8) {
        let _ = (now, sw, in_port, vl);
    }

    /// At an arbitration instant, output `(port, vl)` had a packet ready
    /// but no downstream credit. Fired at every such observation; probes
    /// treat the first as the stall onset.
    #[inline]
    fn credit_stall_start(&mut self, now: Time, sw: u32, port: u8, vl: u8) {
        let _ = (now, sw, port, vl);
    }

    /// A credit returned to output `(port, vl)`, ending any open stall.
    #[inline]
    fn credit_stall_end(&mut self, now: Time, sw: u32, port: u8, vl: u8) {
        let _ = (now, sw, port, vl);
    }

    /// Called once per dispatched event, before dispatch. `in_flight` is
    /// the number of live packets (source queues included). Drives
    /// time-series sampling.
    #[inline]
    fn tick(&mut self, now: Time, in_flight: usize) {
        let _ = (now, in_flight);
    }

    /// Wall-clock duration of one dispatched event (only when
    /// [`TIMING`](Probe::TIMING) is set).
    #[inline]
    fn phase_time(&mut self, phase: Phase, wall_ns: u64) {
        let _ = (phase, wall_ns);
    }

    /// The run ended at simulation time `now` (final sample flush).
    #[inline]
    fn finish(&mut self, now: Time) {
        let _ = now;
    }
}

/// The default probe: observes nothing, costs nothing. With this probe
/// every hook site in the simulator compiles away.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoopProbe;

impl Probe for NoopProbe {
    const COUNTERS: bool = false;
    const TIMING: bool = false;
}

/// Composition: forward every hook to both probes. Flags are OR-ed, so a
/// `(FabricCounters, PhaseProfile)` pair collects counters *and* phase
/// timing in one run.
impl<A: Probe, B: Probe> Probe for (A, B) {
    const COUNTERS: bool = A::COUNTERS || B::COUNTERS;
    const TIMING: bool = A::TIMING || B::TIMING;

    #[inline]
    fn node_xmit(&mut self, now: Time, node: u32, vl: u8, bytes: u32) {
        self.0.node_xmit(now, node, vl, bytes);
        self.1.node_xmit(now, node, vl, bytes);
    }
    #[inline]
    fn node_rcv(&mut self, now: Time, node: u32, vl: u8, bytes: u32, latency_ns: u64) {
        self.0.node_rcv(now, node, vl, bytes, latency_ns);
        self.1.node_rcv(now, node, vl, bytes, latency_ns);
    }
    #[inline]
    fn sw_rcv(&mut self, now: Time, sw: u32, port: u8, vl: u8, bytes: u32, depth: u8) {
        self.0.sw_rcv(now, sw, port, vl, bytes, depth);
        self.1.sw_rcv(now, sw, port, vl, bytes, depth);
    }
    #[inline]
    fn sw_xmit(&mut self, now: Time, sw: u32, port: u8, vl: u8, bytes: u32) {
        self.0.sw_xmit(now, sw, port, vl, bytes);
        self.1.sw_xmit(now, sw, port, vl, bytes);
    }
    #[inline]
    fn sw_drop(&mut self, now: Time, sw: u32) {
        self.0.sw_drop(now, sw);
        self.1.sw_drop(now, sw);
    }
    #[inline]
    fn out_buffer_depth(&mut self, sw: u32, port: u8, vl: u8, depth: u8) {
        self.0.out_buffer_depth(sw, port, vl, depth);
        self.1.out_buffer_depth(sw, port, vl, depth);
    }
    #[inline]
    fn xmit_wait_start(&mut self, now: Time, sw: u32, in_port: u8, vl: u8, out_port: u8) {
        self.0.xmit_wait_start(now, sw, in_port, vl, out_port);
        self.1.xmit_wait_start(now, sw, in_port, vl, out_port);
    }
    #[inline]
    fn xmit_wait_end(&mut self, now: Time, sw: u32, in_port: u8, vl: u8) {
        self.0.xmit_wait_end(now, sw, in_port, vl);
        self.1.xmit_wait_end(now, sw, in_port, vl);
    }
    #[inline]
    fn credit_stall_start(&mut self, now: Time, sw: u32, port: u8, vl: u8) {
        self.0.credit_stall_start(now, sw, port, vl);
        self.1.credit_stall_start(now, sw, port, vl);
    }
    #[inline]
    fn credit_stall_end(&mut self, now: Time, sw: u32, port: u8, vl: u8) {
        self.0.credit_stall_end(now, sw, port, vl);
        self.1.credit_stall_end(now, sw, port, vl);
    }
    #[inline]
    fn tick(&mut self, now: Time, in_flight: usize) {
        self.0.tick(now, in_flight);
        self.1.tick(now, in_flight);
    }
    #[inline]
    fn phase_time(&mut self, phase: Phase, wall_ns: u64) {
        self.0.phase_time(phase, wall_ns);
        self.1.phase_time(phase, wall_ns);
    }
    #[inline]
    fn finish(&mut self, now: Time) {
        self.0.finish(now);
        self.1.finish(now);
    }
}

/// Self-profiling probe: wall-clock time and event count per event-loop
/// [`Phase`]. Used by the bench trajectory's `sim_profile` rows.
#[derive(Debug, Clone, Default)]
pub struct PhaseProfile {
    wall_ns: [u64; NUM_PHASES],
    events: [u64; NUM_PHASES],
}

impl PhaseProfile {
    /// A zeroed profile.
    pub fn new() -> Self {
        PhaseProfile::default()
    }

    /// Accumulated wall time (ns) spent dispatching `phase` events.
    pub fn wall_ns(&self, phase: Phase) -> u64 {
        self.wall_ns[phase.index()]
    }

    /// Events dispatched in `phase`.
    pub fn events(&self, phase: Phase) -> u64 {
        self.events[phase.index()]
    }

    /// Total dispatch wall time over all phases (ns).
    pub fn total_wall_ns(&self) -> u64 {
        self.wall_ns.iter().sum()
    }

    /// Total events over all phases.
    pub fn total_events(&self) -> u64 {
        self.events.iter().sum()
    }

    /// `(phase, wall_ns, events)` rows in index order.
    pub fn rows(&self) -> [(Phase, u64, u64); NUM_PHASES] {
        let mut out = [(Phase::Generation, 0, 0); NUM_PHASES];
        for (i, phase) in Phase::all().into_iter().enumerate() {
            out[i] = (phase, self.wall_ns[i], self.events[i]);
        }
        out
    }
}

impl Probe for PhaseProfile {
    const COUNTERS: bool = false;
    const TIMING: bool = true;

    #[inline]
    fn phase_time(&mut self, phase: Phase, wall_ns: u64) {
        self.wall_ns[phase.index()] += wall_ns;
        self.events[phase.index()] += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_indices_are_dense_and_named() {
        for (i, p) in Phase::all().into_iter().enumerate() {
            assert_eq!(p.index(), i);
            assert!(!p.name().is_empty());
        }
    }

    #[test]
    fn phase_profile_accumulates() {
        let mut p = PhaseProfile::new();
        p.phase_time(Phase::Routing, 10);
        p.phase_time(Phase::Routing, 5);
        p.phase_time(Phase::Delivery, 7);
        assert_eq!(p.wall_ns(Phase::Routing), 15);
        assert_eq!(p.events(Phase::Routing), 2);
        assert_eq!(p.total_wall_ns(), 22);
        assert_eq!(p.total_events(), 3);
    }

    #[test]
    fn tuple_probe_forwards_to_both() {
        let mut pair = (PhaseProfile::new(), PhaseProfile::new());
        pair.phase_time(Phase::Generation, 3);
        assert_eq!(pair.0.total_wall_ns(), 3);
        assert_eq!(pair.1.total_wall_ns(), 3);
        const { assert!(<(PhaseProfile, NoopProbe) as Probe>::TIMING) };
        const { assert!(!<(NoopProbe, NoopProbe) as Probe>::COUNTERS) };
    }
}
