//! IB-style fabric counters and sampled time-series.
//!
//! [`FabricCounters`] is the standard consumer of the [`Probe`] hooks: it
//! maintains per-switch/per-port/per-VL counters modeled on InfiniBand's
//! PortCounters attribute —
//!
//! * `xmit_bytes`/`xmit_pkts`, `rcv_bytes`/`rcv_pkts` (PortXmitData /
//!   PortRcvData, in bytes rather than 32-bit words),
//! * `xmit_wait_ns` — time a routed packet sat at an input with the
//!   output buffer full, accounted to the *output* port it waited for
//!   (the spirit of PortXmitWait, in ns rather than ticks),
//! * `credit_stall_ns` — time an output head was ready but un-granted for
//!   lack of downstream credits, measured between arbitration instants,
//! * input/output buffer high-water marks —
//!
//! plus an optional sampled time-series: every `sample_interval_ns` of
//! simulated time it snapshots accepted throughput, in-flight packets,
//! event rate, interval latency percentiles, and the top-k hottest ports
//! into a bounded ring buffer. Everything exports to JSON (hand-rolled,
//! `std`-only) alongside the `SimReport`.
//!
//! All counters are totals over the *whole* run (warm-up included):
//! they model hardware registers, which know nothing of measurement
//! windows. Time-series samples carry their own timestamps, so a warm-up
//! cut can be applied downstream.

use crate::engine::Time;
use crate::json::JsonBuf;
use crate::metrics::LatencyStats;
use crate::probe::Probe;
use ibfat_topology::Network;
use std::collections::VecDeque;

/// Schema tag on the counters JSON export.
pub const COUNTERS_SCHEMA_VERSION: u32 = 1;

/// Counters for one (switch, port, VL) — or an aggregate over VLs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PortVlCounters {
    /// Bytes transmitted out of this port.
    pub xmit_bytes: u64,
    /// Packets transmitted out of this port.
    pub xmit_pkts: u64,
    /// Bytes received into this port's input buffers.
    pub rcv_bytes: u64,
    /// Packets received into this port's input buffers.
    pub rcv_pkts: u64,
    /// Time packets spent routed-but-blocked waiting for *this* output
    /// port's buffer (IB PortXmitWait analogue, ns).
    pub xmit_wait_ns: u64,
    /// Time this output had a head ready but zero downstream credits,
    /// observed between arbitration instants (ns).
    pub credit_stall_ns: u64,
    /// Input-buffer occupancy high-water mark (packets).
    pub in_buf_high_water: u8,
    /// Output-buffer occupancy high-water mark (packets).
    pub out_buf_high_water: u8,
}

impl PortVlCounters {
    fn absorb(&mut self, o: &PortVlCounters) {
        self.xmit_bytes += o.xmit_bytes;
        self.xmit_pkts += o.xmit_pkts;
        self.rcv_bytes += o.rcv_bytes;
        self.rcv_pkts += o.rcv_pkts;
        self.xmit_wait_ns += o.xmit_wait_ns;
        self.credit_stall_ns += o.credit_stall_ns;
        self.in_buf_high_water = self.in_buf_high_water.max(o.in_buf_high_water);
        self.out_buf_high_water = self.out_buf_high_water.max(o.out_buf_high_water);
    }
}

/// Injection/delivery counters for one end node.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NodeCounters {
    pub xmit_bytes: u64,
    pub xmit_pkts: u64,
    pub rcv_bytes: u64,
    pub rcv_pkts: u64,
}

/// One entry of a sample's top-k hottest-ports list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HotPort {
    pub sw: u32,
    /// IB 1-based port number.
    pub port: u8,
    /// Bytes transmitted (delta within the sample interval for
    /// time-series entries; cumulative for [`FabricCounters::hottest_ports`]).
    pub xmit_bytes: u64,
}

/// One time-series snapshot. Interval quantities cover the span since the
/// previous sample.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Sample {
    /// Simulated time of the snapshot (ns): the sampling boundary that
    /// closed the interval, or the run's end for the final sample.
    pub t_ns: Time,
    /// Packets delivered in the interval.
    pub delivered_pkts: u64,
    /// Bytes delivered in the interval.
    pub delivered_bytes: u64,
    /// Live packets (source queues included) at the snapshot instant.
    pub in_flight: u64,
    /// Events dispatched in the interval.
    pub events: u64,
    /// p50/p95/p99 of delivery latency within the interval (ns; zero when
    /// nothing was delivered).
    pub latency_p50_ns: u64,
    pub latency_p95_ns: u64,
    pub latency_p99_ns: u64,
    /// The interval's hottest switch ports by transmitted bytes.
    pub top_ports: Vec<HotPort>,
}

/// IB-style fabric counters plus an optional sampled time-series; plugs
/// into the simulator as a [`Probe`].
///
/// ```
/// use ibfat_topology::{Network, TreeParams};
/// use ibfat_routing::{Routing, RoutingKind};
/// use ibfat_sim::{run, FabricCounters, RunSpec, SimConfig, TrafficPattern};
///
/// let net = Network::mport_ntree(TreeParams::new(4, 2).unwrap());
/// let routing = Routing::build(&net, RoutingKind::Mlid);
/// let cfg = SimConfig::paper(1);
/// let probe = FabricCounters::new(&net, cfg.num_vls).with_sampling(10_000, 4);
/// let spec = RunSpec { offered_load: 0.2, sim_time_ns: 100_000, warmup_ns: 0 };
/// let (report, counters) =
///     run(&net, &routing, cfg, TrafficPattern::Uniform, spec, probe).unwrap();
/// assert_eq!(counters.node_totals().xmit_pkts, report.total_generated);
/// ```
#[derive(Debug, Clone)]
pub struct FabricCounters {
    num_switches: usize,
    ports_per_switch: usize,
    num_vls: usize,

    /// Flat `[(sw * ports + port) * num_vls + vl]` counter store.
    per_vl: Vec<PortVlCounters>,
    nodes: Vec<NodeCounters>,
    /// Unroutable-packet discards per switch.
    drops: Vec<u64>,

    /// Open xmit-wait intervals, keyed like `per_vl` by the *waiting
    /// input* `(sw, in_port, vl)` (`Time::MAX` = none open; at most one
    /// routed head can wait per input VL).
    wait_start: Vec<Time>,
    /// The output port each open wait is charged to.
    wait_out: Vec<u8>,
    /// Open credit-stall intervals, keyed by the stalled *output*
    /// `(sw, port, vl)` (`Time::MAX` = none open).
    stall_start: Vec<Time>,

    // --- time-series ---
    /// Sampling period in simulated ns; 0 disables the time-series.
    sample_interval_ns: u64,
    /// Ring capacity; the oldest sample is dropped beyond this.
    max_samples: usize,
    /// Hottest-ports list length per sample.
    top_k: usize,
    next_sample: Time,
    samples: VecDeque<Sample>,
    samples_dropped: u64,
    interval_delivered_pkts: u64,
    interval_delivered_bytes: u64,
    interval_events: u64,
    interval_latency: LatencyStats,
    /// Cumulative per-port (VL-summed) transmitted bytes, for top-k deltas.
    port_xmit_bytes: Vec<u64>,
    /// `port_xmit_bytes` as of the previous sample.
    last_port_xmit: Vec<u64>,

    end_time: Time,
}

impl FabricCounters {
    /// Counters sized for `net`, time-series disabled.
    pub fn new(net: &Network, num_vls: u8) -> FabricCounters {
        let num_switches = net.num_switches();
        let ports = net.params().m() as usize;
        let num_vls = num_vls as usize;
        let cells = num_switches * ports * num_vls;
        FabricCounters {
            num_switches,
            ports_per_switch: ports,
            num_vls,
            per_vl: vec![PortVlCounters::default(); cells],
            nodes: vec![NodeCounters::default(); net.num_nodes()],
            drops: vec![0; num_switches],
            wait_start: vec![Time::MAX; cells],
            wait_out: vec![0; cells],
            stall_start: vec![Time::MAX; cells],
            sample_interval_ns: 0,
            max_samples: 4096,
            top_k: 4,
            next_sample: Time::MAX,
            samples: VecDeque::new(),
            samples_dropped: 0,
            interval_delivered_pkts: 0,
            interval_delivered_bytes: 0,
            interval_events: 0,
            interval_latency: LatencyStats::new(),
            port_xmit_bytes: vec![0; num_switches * ports],
            last_port_xmit: vec![0; num_switches * ports],
            end_time: 0,
        }
    }

    /// Enable the time-series: snapshot every `interval_ns` of simulated
    /// time, listing the `top_k` hottest ports per sample.
    ///
    /// # Panics
    /// Panics if `interval_ns` is zero.
    pub fn with_sampling(mut self, interval_ns: u64, top_k: usize) -> FabricCounters {
        assert!(interval_ns > 0, "sample interval must be positive");
        self.sample_interval_ns = interval_ns;
        self.top_k = top_k;
        self.next_sample = interval_ns;
        self
    }

    /// Bound the sample ring (default 4096); the oldest samples are
    /// dropped beyond this and counted in
    /// [`samples_dropped`](FabricCounters::samples_dropped).
    pub fn with_sample_capacity(mut self, cap: usize) -> FabricCounters {
        self.max_samples = cap.max(1);
        self
    }

    #[inline]
    fn cell(&self, sw: u32, port: u8, vl: u8) -> usize {
        debug_assert!((port as usize) < self.ports_per_switch && (vl as usize) < self.num_vls);
        (sw as usize * self.ports_per_switch + port as usize) * self.num_vls + vl as usize
    }

    #[inline]
    fn pcell(&self, sw: u32, port: u8) -> usize {
        sw as usize * self.ports_per_switch + port as usize
    }

    // ----- accessors ----------------------------------------------------

    pub fn num_switches(&self) -> usize {
        self.num_switches
    }

    pub fn ports_per_switch(&self) -> usize {
        self.ports_per_switch
    }

    pub fn num_vls(&self) -> usize {
        self.num_vls
    }

    /// Simulated end time recorded by [`finish`](Probe::finish): the
    /// horizon of a pattern run, the last event of a workload run.
    pub fn end_time_ns(&self) -> Time {
        self.end_time
    }

    /// Counters of one (switch, 0-based port, VL).
    pub fn port_vl(&self, sw: u32, port: u8, vl: u8) -> &PortVlCounters {
        &self.per_vl[self.cell(sw, port, vl)]
    }

    /// VL-aggregated counters of one (switch, 0-based port).
    pub fn port(&self, sw: u32, port: u8) -> PortVlCounters {
        let mut out = PortVlCounters::default();
        for vl in 0..self.num_vls {
            out.absorb(&self.per_vl[self.cell(sw, port, vl as u8)]);
        }
        out
    }

    /// Counters of one end node.
    pub fn node(&self, node: u32) -> &NodeCounters {
        &self.nodes[node as usize]
    }

    /// Unroutable-packet discards at one switch.
    pub fn drops(&self, sw: u32) -> u64 {
        self.drops[sw as usize]
    }

    /// Fabric-wide totals over all switch ports.
    pub fn switch_totals(&self) -> PortVlCounters {
        let mut out = PortVlCounters::default();
        for c in &self.per_vl {
            out.absorb(c);
        }
        out
    }

    /// Fabric-wide totals over all end nodes.
    pub fn node_totals(&self) -> NodeCounters {
        let mut out = NodeCounters::default();
        for n in &self.nodes {
            out.xmit_bytes += n.xmit_bytes;
            out.xmit_pkts += n.xmit_pkts;
            out.rcv_bytes += n.rcv_bytes;
            out.rcv_pkts += n.rcv_pkts;
        }
        out
    }

    /// Total discards over all switches.
    pub fn total_drops(&self) -> u64 {
        self.drops.iter().sum()
    }

    /// The `k` switch ports with the most transmitted bytes over the run,
    /// descending; ties break toward the lower `(sw, port)` so the order
    /// is deterministic. Idle ports are never listed.
    pub fn hottest_ports(&self, k: usize) -> Vec<HotPort> {
        self.top_by(k, |i| self.port_xmit_bytes[i])
    }

    /// The `k` switch ports with the most `xmit_wait_ns` — where routed
    /// packets queued for the longest. This is the congestion signal: on
    /// a hot-spot workload these are the saturated root/up ports. The
    /// returned `xmit_bytes` field carries the wait time (ns).
    pub fn most_congested_ports(&self, k: usize) -> Vec<HotPort> {
        self.top_by(k, |i| {
            let base = i * self.num_vls;
            self.per_vl[base..base + self.num_vls]
                .iter()
                .map(|c| c.xmit_wait_ns)
                .sum()
        })
    }

    fn top_by(&self, k: usize, metric: impl Fn(usize) -> u64) -> Vec<HotPort> {
        let mut ranked: Vec<(u64, usize)> = (0..self.num_switches * self.ports_per_switch)
            .filter_map(|i| {
                let m = metric(i);
                (m > 0).then_some((m, i))
            })
            .collect();
        ranked.sort_unstable_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        ranked.truncate(k);
        ranked
            .into_iter()
            .map(|(m, i)| HotPort {
                sw: (i / self.ports_per_switch) as u32,
                port: (i % self.ports_per_switch) as u8 + 1,
                xmit_bytes: m,
            })
            .collect()
    }

    /// The recorded time-series (empty unless sampling was enabled).
    pub fn samples(&self) -> &VecDeque<Sample> {
        &self.samples
    }

    /// Samples evicted from the ring because it was full.
    pub fn samples_dropped(&self) -> u64 {
        self.samples_dropped
    }

    pub fn sample_interval_ns(&self) -> u64 {
        self.sample_interval_ns
    }

    // ----- sampling internals -------------------------------------------

    /// Close the current interval with a sample stamped `t`.
    fn flush_sample(&mut self, t: Time, in_flight: u64) {
        let mut deltas: Vec<(u64, usize)> = self
            .port_xmit_bytes
            .iter()
            .zip(&self.last_port_xmit)
            .enumerate()
            .filter_map(|(i, (cur, last))| {
                let d = cur - last;
                (d > 0).then_some((d, i))
            })
            .collect();
        deltas.sort_unstable_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        deltas.truncate(self.top_k);
        let top_ports = deltas
            .into_iter()
            .map(|(d, i)| HotPort {
                sw: (i / self.ports_per_switch) as u32,
                port: (i % self.ports_per_switch) as u8 + 1,
                xmit_bytes: d,
            })
            .collect();
        let p = self.interval_latency.percentiles();
        if self.samples.len() == self.max_samples {
            self.samples.pop_front();
            self.samples_dropped += 1;
        }
        self.samples.push_back(Sample {
            t_ns: t,
            delivered_pkts: self.interval_delivered_pkts,
            delivered_bytes: self.interval_delivered_bytes,
            in_flight,
            events: self.interval_events,
            latency_p50_ns: p.p50,
            latency_p95_ns: p.p95,
            latency_p99_ns: p.p99,
            top_ports,
        });
        self.interval_delivered_pkts = 0;
        self.interval_delivered_bytes = 0;
        self.interval_events = 0;
        self.interval_latency = LatencyStats::new();
        self.last_port_xmit.copy_from_slice(&self.port_xmit_bytes);
        // Re-align to the grid; a quiet stretch yields one late sample
        // covering the whole gap, not a burst of empty ones.
        self.next_sample = (t / self.sample_interval_ns + 1) * self.sample_interval_ns;
    }

    // ----- JSON export --------------------------------------------------

    /// Serialize everything to JSON (via the shared [`crate::json`]
    /// writer; schema documented in EXPERIMENTS.md § Observability).
    /// Per-VL breakdowns are included only when more than one VL is in
    /// use.
    pub fn to_json(&self) -> String {
        let mut j = JsonBuf::with_capacity(4096);
        j.begin_obj();
        j.field_u64("schema", u64::from(COUNTERS_SCHEMA_VERSION));
        j.field_u64("end_time_ns", self.end_time);
        j.field_u64("num_vls", self.num_vls as u64);
        j.field_u64("sample_interval_ns", self.sample_interval_ns);
        j.field_u64("samples_dropped", self.samples_dropped);

        j.key("switches");
        j.begin_arr();
        for sw in 0..self.num_switches as u32 {
            j.begin_obj();
            j.field_u64("sw", u64::from(sw));
            j.field_u64("drops", self.drops(sw));
            j.key("ports");
            j.begin_arr();
            for port in 0..self.ports_per_switch as u8 {
                j.begin_obj();
                j.field_u64("port", u64::from(port) + 1);
                write_counter_fields(&mut j, &self.port(sw, port));
                if self.num_vls > 1 {
                    j.key("vls");
                    j.begin_arr();
                    for vl in 0..self.num_vls as u8 {
                        j.begin_obj();
                        j.field_u64("vl", u64::from(vl));
                        write_counter_fields(&mut j, self.port_vl(sw, port, vl));
                        j.end_obj();
                    }
                    j.end_arr();
                }
                j.end_obj();
            }
            j.end_arr();
            j.end_obj();
        }
        j.end_arr();

        j.key("nodes");
        j.begin_arr();
        for (i, n) in self.nodes.iter().enumerate() {
            j.begin_obj();
            j.field_u64("node", i as u64);
            j.field_u64("xmit_bytes", n.xmit_bytes);
            j.field_u64("xmit_pkts", n.xmit_pkts);
            j.field_u64("rcv_bytes", n.rcv_bytes);
            j.field_u64("rcv_pkts", n.rcv_pkts);
            j.end_obj();
        }
        j.end_arr();

        j.key("samples");
        j.begin_arr();
        for sm in &self.samples {
            j.begin_obj();
            j.field_u64("t_ns", sm.t_ns);
            j.field_u64("delivered_pkts", sm.delivered_pkts);
            j.field_u64("delivered_bytes", sm.delivered_bytes);
            j.field_u64("in_flight", sm.in_flight);
            j.field_u64("events", sm.events);
            j.field_u64("latency_p50_ns", sm.latency_p50_ns);
            j.field_u64("latency_p95_ns", sm.latency_p95_ns);
            j.field_u64("latency_p99_ns", sm.latency_p99_ns);
            j.key("top_ports");
            j.begin_arr();
            for h in &sm.top_ports {
                j.begin_obj();
                j.field_u64("sw", u64::from(h.sw));
                j.field_u64("port", u64::from(h.port));
                j.field_u64("xmit_bytes", h.xmit_bytes);
                j.end_obj();
            }
            j.end_arr();
            j.end_obj();
        }
        j.end_arr();
        j.end_obj();
        j.into_string()
    }
}

fn write_counter_fields(j: &mut JsonBuf, c: &PortVlCounters) {
    j.field_u64("xmit_bytes", c.xmit_bytes);
    j.field_u64("xmit_pkts", c.xmit_pkts);
    j.field_u64("rcv_bytes", c.rcv_bytes);
    j.field_u64("rcv_pkts", c.rcv_pkts);
    j.field_u64("xmit_wait_ns", c.xmit_wait_ns);
    j.field_u64("credit_stall_ns", c.credit_stall_ns);
    j.field_u64("in_buf_high_water", u64::from(c.in_buf_high_water));
    j.field_u64("out_buf_high_water", u64::from(c.out_buf_high_water));
}

impl Probe for FabricCounters {
    const COUNTERS: bool = true;
    const TIMING: bool = false;

    #[inline]
    fn node_xmit(&mut self, _now: Time, node: u32, _vl: u8, bytes: u32) {
        let n = &mut self.nodes[node as usize];
        n.xmit_bytes += u64::from(bytes);
        n.xmit_pkts += 1;
    }

    #[inline]
    fn node_rcv(&mut self, _now: Time, node: u32, _vl: u8, bytes: u32, latency_ns: u64) {
        let n = &mut self.nodes[node as usize];
        n.rcv_bytes += u64::from(bytes);
        n.rcv_pkts += 1;
        if self.sample_interval_ns > 0 {
            self.interval_delivered_pkts += 1;
            self.interval_delivered_bytes += u64::from(bytes);
            self.interval_latency.record(latency_ns);
        }
    }

    #[inline]
    fn sw_rcv(&mut self, _now: Time, sw: u32, port: u8, vl: u8, bytes: u32, depth: u8) {
        let c = &mut self.per_vl
            [(sw as usize * self.ports_per_switch + port as usize) * self.num_vls + vl as usize];
        c.rcv_bytes += u64::from(bytes);
        c.rcv_pkts += 1;
        c.in_buf_high_water = c.in_buf_high_water.max(depth);
    }

    #[inline]
    fn sw_xmit(&mut self, _now: Time, sw: u32, port: u8, vl: u8, bytes: u32) {
        let cell = self.cell(sw, port, vl);
        let c = &mut self.per_vl[cell];
        c.xmit_bytes += u64::from(bytes);
        c.xmit_pkts += 1;
        let p = self.pcell(sw, port);
        self.port_xmit_bytes[p] += u64::from(bytes);
    }

    #[inline]
    fn sw_drop(&mut self, _now: Time, sw: u32) {
        self.drops[sw as usize] += 1;
    }

    #[inline]
    fn out_buffer_depth(&mut self, sw: u32, port: u8, vl: u8, depth: u8) {
        let cell = self.cell(sw, port, vl);
        let c = &mut self.per_vl[cell];
        c.out_buf_high_water = c.out_buf_high_water.max(depth);
    }

    #[inline]
    fn xmit_wait_start(&mut self, now: Time, sw: u32, in_port: u8, vl: u8, out_port: u8) {
        let cell = self.cell(sw, in_port, vl);
        debug_assert_eq!(self.wait_start[cell], Time::MAX, "nested xmit wait");
        self.wait_start[cell] = now;
        self.wait_out[cell] = out_port;
    }

    #[inline]
    fn xmit_wait_end(&mut self, now: Time, sw: u32, in_port: u8, vl: u8) {
        let cell = self.cell(sw, in_port, vl);
        let start = self.wait_start[cell];
        debug_assert_ne!(start, Time::MAX, "xmit wait ended without start");
        self.wait_start[cell] = Time::MAX;
        let out_cell = self.cell(sw, self.wait_out[cell], vl);
        self.per_vl[out_cell].xmit_wait_ns += now - start;
    }

    #[inline]
    fn credit_stall_start(&mut self, now: Time, sw: u32, port: u8, vl: u8) {
        let cell = self.cell(sw, port, vl);
        // Arbitration re-observes an ongoing stall; only the first
        // observation opens the interval.
        if self.stall_start[cell] == Time::MAX {
            self.stall_start[cell] = now;
        }
    }

    #[inline]
    fn credit_stall_end(&mut self, now: Time, sw: u32, port: u8, vl: u8) {
        let cell = self.cell(sw, port, vl);
        let start = self.stall_start[cell];
        if start != Time::MAX {
            self.stall_start[cell] = Time::MAX;
            self.per_vl[cell].credit_stall_ns += now - start;
        }
    }

    #[inline]
    fn tick(&mut self, now: Time, in_flight: usize) {
        if self.sample_interval_ns > 0 {
            if now >= self.next_sample {
                // Stamp the sample at the last boundary `now` crossed: no
                // event fell between that boundary and `now`, so the
                // snapshot is the fabric's state at the boundary. The
                // event at `now` belongs to the next interval.
                let boundary = now - now % self.sample_interval_ns;
                self.flush_sample(boundary, in_flight as u64);
            }
            self.interval_events += 1;
        }
    }

    fn finish(&mut self, now: Time, in_flight: usize) {
        self.end_time = now;
        // Close every open wait/stall interval at the end of the run so
        // a saturated fabric is not under-counted.
        for cell in 0..self.per_vl.len() {
            let ws = self.wait_start[cell];
            if ws != Time::MAX {
                self.wait_start[cell] = Time::MAX;
                let sw = (cell / self.num_vls / self.ports_per_switch) as u32;
                let vl = (cell % self.num_vls) as u8;
                let out_cell = self.cell(sw, self.wait_out[cell], vl);
                self.per_vl[out_cell].xmit_wait_ns += now - ws;
            }
            let ss = self.stall_start[cell];
            if ss != Time::MAX {
                self.stall_start[cell] = Time::MAX;
                self.per_vl[cell].credit_stall_ns += now - ss;
            }
        }
        if self.sample_interval_ns > 0
            && (self.interval_events > 0
                || self.interval_delivered_pkts > 0
                || self.port_xmit_bytes != self.last_port_xmit)
        {
            self.flush_sample(now, in_flight as u64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ibfat_topology::TreeParams;

    fn counters() -> FabricCounters {
        let net = Network::mport_ntree(TreeParams::new(4, 2).unwrap());
        FabricCounters::new(&net, 2)
    }

    #[test]
    fn xmit_wait_charged_to_output_port() {
        let mut c = counters();
        c.xmit_wait_start(100, 3, 0, 1, 2); // input port 0 waits for output 2
        c.xmit_wait_end(350, 3, 0, 1);
        assert_eq!(c.port_vl(3, 2, 1).xmit_wait_ns, 250);
        assert_eq!(c.port_vl(3, 0, 1).xmit_wait_ns, 0);
    }

    #[test]
    fn credit_stall_first_observation_wins() {
        let mut c = counters();
        c.credit_stall_start(100, 0, 1, 0);
        c.credit_stall_start(180, 0, 1, 0); // re-observed, must not reset
        c.credit_stall_end(300, 0, 1, 0);
        assert_eq!(c.port_vl(0, 1, 0).credit_stall_ns, 200);
        // An end without a start is a no-op.
        c.credit_stall_end(400, 0, 1, 0);
        assert_eq!(c.port_vl(0, 1, 0).credit_stall_ns, 200);
    }

    #[test]
    fn finish_closes_open_intervals() {
        let mut c = counters();
        c.xmit_wait_start(100, 1, 3, 0, 2);
        c.credit_stall_start(150, 1, 2, 0);
        c.finish(500, 0);
        assert_eq!(c.port_vl(1, 2, 0).xmit_wait_ns, 400);
        assert_eq!(c.port_vl(1, 2, 0).credit_stall_ns, 350);
        assert_eq!(c.end_time_ns(), 500);
    }

    #[test]
    fn sampling_flushes_on_interval_and_finish() {
        let mut c = counters().with_sampling(1_000, 2);
        c.tick(10, 1);
        c.sw_xmit(10, 0, 2, 0, 256);
        c.node_rcv(500, 1, 0, 256, 480);
        c.tick(1_500, 3); // crosses the 1_000 boundary → sample
        assert_eq!(c.samples().len(), 1);
        let s = &c.samples()[0];
        assert_eq!(s.t_ns, 1_000, "stamped at the boundary, not the event");
        assert_eq!(s.events, 1);
        assert_eq!(s.delivered_pkts, 1);
        assert_eq!(s.in_flight, 3);
        assert_eq!(s.top_ports.len(), 1);
        assert_eq!((s.top_ports[0].sw, s.top_ports[0].port), (0, 3));
        assert!(s.latency_p50_ns >= 480);
        // Partial tail flushed by finish.
        c.sw_xmit(1_600, 0, 1, 0, 256);
        c.finish(1_700, 2);
        assert_eq!(c.samples()[1].t_ns, 1_700);
        assert_eq!(c.samples()[1].in_flight, 2);
        assert_eq!(c.samples().len(), 2);
        assert_eq!(c.samples()[1].top_ports[0].port, 2);
    }

    #[test]
    fn ring_buffer_drops_oldest() {
        let mut c = counters().with_sampling(10, 1).with_sample_capacity(3);
        for i in 1..=6u64 {
            c.tick(i * 10, 0); // each tick lands on a boundary → 6 flushes
        }
        assert_eq!(c.samples().len(), 3);
        assert_eq!(c.samples_dropped(), 3);
        assert_eq!(c.samples()[0].t_ns, 40);
    }

    #[test]
    fn top_k_is_deterministic_on_ties() {
        let mut c = counters();
        c.sw_xmit(0, 2, 1, 0, 256);
        c.sw_xmit(0, 1, 3, 0, 256);
        c.sw_xmit(0, 1, 3, 0, 256);
        c.sw_xmit(0, 2, 0, 0, 256);
        let hot = c.hottest_ports(10);
        assert_eq!(hot.len(), 3);
        assert_eq!((hot[0].sw, hot[0].port, hot[0].xmit_bytes), (1, 4, 512));
        // Tied ports order by (sw, port).
        assert_eq!((hot[1].sw, hot[1].port), (2, 1));
        assert_eq!((hot[2].sw, hot[2].port), (2, 2));
    }

    #[test]
    fn json_has_schema_and_balanced_braces() {
        let mut c = counters().with_sampling(100, 2);
        c.sw_xmit(10, 0, 0, 1, 256);
        c.node_xmit(10, 0, 1, 256);
        c.tick(150, 1);
        c.finish(200, 0);
        let json = c.to_json();
        assert!(json.starts_with("{\"schema\":1,"));
        assert!(json.contains("\"sample_interval_ns\":100"));
        assert!(json.contains("\"samples_dropped\":0"));
        assert!(json.contains("\"switches\":["));
        assert!(json.contains("\"vls\":[")); // 2 VLs → per-VL breakdown
        assert!(json.contains("\"samples\":["));
        let open = json.chars().filter(|&ch| ch == '{').count();
        let close = json.chars().filter(|&ch| ch == '}').count();
        assert_eq!(open, close);
        let o = json.chars().filter(|&ch| ch == '[').count();
        let cl = json.chars().filter(|&ch| ch == ']').count();
        assert_eq!(o, cl);
        // The shared parser reads the export back.
        let doc = crate::json::parse(&json).expect("valid JSON");
        let obj = doc.as_object("counters").unwrap();
        assert_eq!(obj.field("schema").unwrap().as_u64("schema").unwrap(), 1);
    }
}
