//! Command implementations for the `ibfat` CLI.

use crate::args::{Action, Cmd, WlKind};
use ib_fabric::json::JsonBuf;
use ib_fabric::prelude::*;
use ib_fabric::sim::{self, NoopProbe, RunSpec};
use ib_fabric::sm::SubnetManager;
use ib_fabric::topology::analysis;
use ib_fabric::{FlightRecorder, SwitchId, TraceSampling};
use std::fmt;
use std::io::{self, Write};

/// Why a command stopped early.
#[derive(Debug)]
pub enum CmdError {
    /// The command failed; the message is for the user.
    Failed(String),
    /// Writing the report failed (a reader that closed the pipe
    /// included).
    Write(io::Error),
}

impl From<String> for CmdError {
    fn from(msg: String) -> Self {
        CmdError::Failed(msg)
    }
}

impl From<io::Error> for CmdError {
    fn from(e: io::Error) -> Self {
        CmdError::Write(e)
    }
}

impl fmt::Display for CmdError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CmdError::Failed(msg) => f.write_str(msg),
            CmdError::Write(e) => write!(f, "writing the report: {e}"),
        }
    }
}

/// Run a parsed command, writing its report to `out`.
pub fn run(cmd: Cmd, out: &mut dyn Write) -> Result<(), CmdError> {
    let fabric = build_fabric(&cmd)?;
    match cmd.action {
        Action::Info => info(&cmd, &fabric, out),
        Action::Route { ref src, ref dst } => {
            let src = src.resolve(fabric.params())?;
            let dst = dst.resolve(fabric.params())?;
            route(&cmd, &fabric, src, dst, out)
        }
        Action::Verify => verify(&fabric, out),
        Action::Discover => discover(&cmd, &fabric, out),
        Action::Simulate => simulate(&cmd, &fabric, out),
        Action::Sweep => sweep(&cmd, &fabric, out),
        Action::Counters => counters(&cmd, &fabric, out),
        Action::Loads => loads(&cmd, &fabric, out),
        Action::Workload => workload(&cmd, &fabric, out),
        Action::Trace => trace(&cmd, &fabric, out),
        Action::Faults => faults(&cmd, &fabric, out),
    }
}

fn build_fabric(cmd: &Cmd) -> Result<Fabric, String> {
    let fabric = Fabric::builder(cmd.m, cmd.n)
        .routing(cmd.scheme)
        .build()
        .map_err(|e| e.to_string())?;
    if cmd.fail_links.is_empty() {
        return Ok(fabric);
    }
    let max = fabric.network().links().len();
    for &idx in &cmd.fail_links {
        if idx >= max {
            return Err(format!("link index {idx} out of range (fabric has {max})"));
        }
    }
    Ok(fabric.with_failed_links(&cmd.fail_links))
}

/// The engine configuration the flags describe: the paper's model with
/// the chosen VLs and seed.
fn sim_config(cmd: &Cmd) -> SimConfig {
    let defaults = SimConfig::default();
    SimConfig {
        num_vls: cmd.vls,
        seed: cmd.seed.unwrap_or(defaults.seed),
        ..defaults
    }
}

/// Run the flags' operating point (pattern, load, duration) under `cfg`,
/// observed by `probe`.
fn run_point<P: Probe>(
    cmd: &Cmd,
    fabric: &Fabric,
    cfg: SimConfig,
    probe: P,
) -> Result<(SimReport, P), String> {
    let spec = RunSpec::new(cmd.load, cmd.time_ns);
    let pattern = pattern_of(cmd, fabric);
    sim::run(
        fabric.network(),
        fabric.routing(),
        cfg,
        pattern,
        spec,
        probe,
    )
    .map_err(|e| e.to_string())
}

fn pattern_of(cmd: &Cmd, fabric: &Fabric) -> TrafficPattern {
    cmd.pattern
        .clone()
        .unwrap_or_else(|| TrafficPattern::bit_complement(fabric.num_nodes()))
}

fn info(cmd: &Cmd, fabric: &Fabric, out: &mut dyn Write) -> Result<(), CmdError> {
    let p = fabric.params();
    if cmd.json {
        let mut j = JsonBuf::new();
        j.begin_obj();
        j.field_u64("m", u64::from(p.m()));
        j.field_u64("n", u64::from(p.n()));
        j.field_u64("nodes", u64::from(p.num_nodes()));
        j.field_u64("switches", u64::from(p.num_switches()));
        j.field_u64("links", fabric.network().links().len() as u64);
        j.field_u64("height", u64::from(p.height()));
        j.field_u64("lmc", u64::from(p.lmc()));
        j.field_u64("lids_per_node", u64::from(p.lids_per_node()));
        j.field_u64("max_paths", u64::from(p.num_lcas(0)));
        // Shortest round-trip digits: the exact mean, not a rounding.
        j.key("avg_min_hops");
        j.raw_value(&analysis::average_min_hops(p).to_string());
        j.field_str("scheme", cmd.scheme.as_str());
        j.field_u64("table_bytes", fabric.routing().table_bytes() as u64);
        j.end_obj();
        writeln!(out, "{}", j.into_string())?;
        return Ok(());
    }
    writeln!(
        out,
        "{p} under {} routing",
        cmd.scheme.as_str().to_uppercase()
    )?;
    writeln!(out, "  processing nodes : {}", p.num_nodes())?;
    writeln!(out, "  switches         : {}", p.num_switches())?;
    writeln!(
        out,
        "  cables           : {}",
        fabric.network().links().len()
    )?;
    writeln!(out, "  height           : {}", p.height())?;
    writeln!(
        out,
        "  LMC              : {} ({} LIDs per node)",
        p.lmc(),
        p.lids_per_node()
    )?;
    writeln!(out, "  max disjoint LCAs: {}", p.num_lcas(0))?;
    writeln!(
        out,
        "  avg minimal hops : {:.3}",
        analysis::average_min_hops(p)
    )?;
    writeln!(
        out,
        "  forwarding tables: {} bytes (block-compressed)",
        fabric.routing().table_bytes()
    )?;
    for w in analysis::level_wiring(p) {
        writeln!(
            out,
            "  level {}: {} switches, {} down / {} up cables each",
            w.level, w.switches, w.down_per_switch, w.up_per_switch
        )?;
    }
    Ok(())
}

fn route(
    cmd: &Cmd,
    fabric: &Fabric,
    src: NodeId,
    dst: NodeId,
    out: &mut dyn Write,
) -> Result<(), CmdError> {
    let nodes = fabric.num_nodes();
    if src.0 >= nodes || dst.0 >= nodes {
        return Err(format!("node ids must be < {nodes}").into());
    }
    let route = fabric.route(src, dst).map_err(|e| e.to_string())?;
    let params = fabric.params();
    if cmd.json {
        let mut j = JsonBuf::new();
        j.begin_obj();
        j.field_u64("src", u64::from(route.src.0));
        j.field_u64("dlid", u64::from(route.dlid.0));
        j.field_u64("dst", u64::from(route.dst.0));
        j.key("hops");
        j.begin_arr();
        for h in &route.hops {
            j.begin_obj();
            j.field_u64("switch", u64::from(h.switch.0));
            j.field_u64("in_port", u64::from(h.in_port.0));
            j.field_u64("out_port", u64::from(h.out_port.0));
            j.end_obj();
        }
        j.end_arr();
        j.end_obj();
        writeln!(out, "{}", j.into_string())?;
        return Ok(());
    }
    writeln!(
        out,
        "{} -> {} via DLID {} ({} links):",
        NodeLabel::from_id(params, src),
        NodeLabel::from_id(params, dst),
        route.dlid.0,
        route.num_links()
    )?;
    for hop in &route.hops {
        writeln!(
            out,
            "  {:<12} in p{} -> out p{}",
            SwitchLabel::from_id(params, hop.switch).to_string(),
            hop.in_port.0,
            hop.out_port.0
        )?;
    }
    Ok(())
}

fn verify(fabric: &Fabric, out: &mut dyn Write) -> Result<(), CmdError> {
    let start = std::time::Instant::now();
    fabric.verify().map_err(|e| e.to_string())?;
    writeln!(
        out,
        "ok: every LID delivers from every source, selected routes are minimal,\n\
         and the channel dependency graph is acyclic ({} switches, {:.2?})",
        fabric.num_switches(),
        start.elapsed()
    )?;
    Ok(())
}

fn discover(cmd: &Cmd, fabric: &Fabric, out: &mut dyn Write) -> Result<(), CmdError> {
    let sm = SubnetManager::new(cmd.scheme, NodeId(0));
    match sm.initialize(fabric.network()) {
        Ok(outcome) => {
            let p = outcome.recovered.params;
            writeln!(
                out,
                "sweep from N0 found {} devices over {} cables",
                outcome.discovery.devices.len(),
                outcome.discovery.edges.len()
            )?;
            writeln!(out, "recognized as {p}; labels recovered for every device")?;
            writeln!(
                out,
                "installed {} forwarding tables ({} entries each), LMC {}",
                outcome.routing.lfts().len(),
                outcome.routing.lid_space().max_lid().0,
                outcome.routing.lid_space().lmc()
            )?;
            let (bring_up, _) = ib_fabric::sm::time_bring_up(
                fabric.network(),
                NodeId(0),
                ib_fabric::sm::MadCosts::default(),
            );
            writeln!(
                out,
                "bring-up cost: {} SMPs ({} discovery, {} LID, {} LFT blocks), \
                 ~{:.2} ms serially, longest directed route {} hops",
                bring_up.total_smps(),
                bring_up.discovery_smps,
                bring_up.lid_smps,
                bring_up.lft_smps,
                bring_up.total_time_ns as f64 / 1e6,
                bring_up.max_route_hops
            )?;
            Ok(())
        }
        Err(e) => Err(e.to_string().into()),
    }
}

fn simulate(cmd: &Cmd, fabric: &Fabric, out: &mut dyn Write) -> Result<(), CmdError> {
    let (report, _) = run_point(cmd, fabric, sim_config(cmd), NoopProbe)?;
    if cmd.json {
        writeln!(out, "{}", report_to_json(&report))?;
        return Ok(());
    }
    writeln!(
        out,
        "simulated {} µs of {} under {} ({} VLs, offered {:.2}):",
        report.sim_time_ns / 1000,
        fabric.params(),
        pattern_of(cmd, fabric).name(),
        cmd.vls,
        cmd.load
    )?;
    writeln!(
        out,
        "  accepted   : {:.4} bytes/ns/node (offered {:.4})",
        report.accepted_bytes_per_ns_per_node, report.offered_bytes_per_ns_per_node
    )?;
    writeln!(
        out,
        "  latency    : avg {:.0} ns, p99 {} ns, min {} ns (network-only avg {:.0} ns)",
        report.avg_latency_ns(),
        report.latency.quantile(0.99),
        report.latency.min(),
        report.network_latency.mean()
    )?;
    writeln!(
        out,
        "  packets    : {} delivered, {} dropped, {} in flight at end",
        report.delivered, report.dropped, report.in_flight_at_end
    )?;
    writeln!(
        out,
        "  links      : mean utilization {:.1}%, peak {:.1}%",
        100.0 * report.mean_link_utilization,
        100.0 * report.max_link_utilization
    )?;
    writeln!(
        out,
        "  engine     : {} events ({:.2} Mev/s, {:.0} kpkt/s)",
        report.events_processed,
        report.events_per_sec / 1e6,
        report.packets_per_sec / 1e3
    )?;
    Ok(())
}

/// Render a [`SimReport`]'s summary as one compact JSON object: latency
/// as mean and percentiles, rates rounded for reading. The lossless form
/// is the report's [`Codec`] encoding.
pub fn report_to_json(report: &SimReport) -> String {
    fn latency(j: &mut JsonBuf, key: &str, s: &ib_fabric::sim::LatencyStats) {
        j.key(key);
        j.begin_obj();
        j.field_u64("count", s.count());
        j.field_f64("mean_ns", s.mean(), 1);
        j.field_u64("min_ns", s.min());
        j.field_u64("p50_ns", s.quantile(0.50));
        j.field_u64("p95_ns", s.quantile(0.95));
        j.field_u64("p99_ns", s.quantile(0.99));
        j.field_u64("max_ns", s.max());
        j.end_obj();
    }
    let mut j = JsonBuf::new();
    j.begin_obj();
    j.field_f64("offered_load", report.offered_load, 4);
    j.field_u64("sim_time_ns", report.sim_time_ns);
    j.field_u64("warmup_ns", report.warmup_ns);
    j.field_u64("generated", report.generated);
    j.field_u64("dropped", report.dropped);
    j.field_u64("total_generated", report.total_generated);
    j.field_u64("total_delivered", report.total_delivered);
    j.field_u64("delivered", report.delivered);
    j.field_u64("delivered_bytes", report.delivered_bytes);
    j.field_u64("in_flight_at_end", report.in_flight_at_end);
    j.field_f64(
        "accepted_bytes_per_ns_per_node",
        report.accepted_bytes_per_ns_per_node,
        6,
    );
    j.field_f64(
        "offered_bytes_per_ns_per_node",
        report.offered_bytes_per_ns_per_node,
        6,
    );
    latency(&mut j, "latency", &report.latency);
    latency(&mut j, "network_latency", &report.network_latency);
    j.field_u64("events_processed", report.events_processed);
    j.field_f64("events_per_sec", report.events_per_sec, 0);
    j.field_f64("packets_per_sec", report.packets_per_sec, 0);
    j.field_f64("mean_link_utilization", report.mean_link_utilization, 6);
    j.field_f64("max_link_utilization", report.max_link_utilization, 6);
    j.field_u64("out_of_order", report.out_of_order);
    j.end_obj();
    j.into_string()
}

/// Run the flight recorder over the configured scenario and render the
/// sampled packet spans as JSONL (exposed for tests).
pub fn collect_trace(cmd: &Cmd, fabric: &Fabric) -> Result<String, String> {
    if let TraceSampling::Pairs(pairs) = &cmd.sampling {
        let nodes = fabric.num_nodes();
        if pairs.iter().any(|&(src, dst)| src >= nodes || dst >= nodes) {
            return Err(format!("node ids must be < {nodes}"));
        }
    }
    let cfg = sim_config(cmd);
    let recorder = FlightRecorder::new(cmd.trace_packets, cmd.sampling.clone(), cfg.seed);
    let (_, recorder) = run_point(cmd, fabric, cfg, recorder)?;
    Ok(ib_fabric::traces_to_jsonl(recorder.traces()))
}

fn trace(cmd: &Cmd, fabric: &Fabric, out: &mut dyn Write) -> Result<(), CmdError> {
    write!(out, "{}", collect_trace(cmd, fabric)?)?;
    Ok(())
}

/// Link-utilization and congestion roll-up for one tree level.
#[derive(Debug, Clone, PartialEq)]
pub struct LevelSummary {
    /// Tree level (0 = roots).
    pub level: u32,
    /// Switch ports at this level that carried traffic.
    pub active_ports: usize,
    /// Mean busy fraction over the level's cabled ports.
    pub mean_utilization: f64,
    /// Peak busy fraction at this level…
    pub max_utilization: f64,
    /// …and the (switch, IB port) achieving it.
    pub max_port: Option<(u32, u8)>,
    /// Total xmit-wait over the level's ports (ns).
    pub xmit_wait_ns: u64,
    /// Total credit-stall time over the level's ports (ns).
    pub credit_stall_ns: u64,
}

/// Everything the `counters` subcommand computes; exposed for tests.
#[derive(Debug)]
pub struct CountersReport {
    pub report: SimReport,
    pub counters: FabricCounters,
    /// Per-level roll-ups, roots first.
    pub levels: Vec<LevelSummary>,
}

/// Run the configured scenario with fabric counters attached and roll
/// the per-port numbers up by tree level.
pub fn collect_counters(cmd: &Cmd, fabric: &Fabric) -> Result<CountersReport, String> {
    let interval = cmd.sample_interval_ns.unwrap_or((cmd.time_ns / 50).max(1));
    let probe = FabricCounters::new(fabric.network(), cmd.vls).with_sampling(interval, cmd.top);
    let (report, counters) = run_point(cmd, fabric, sim_config(cmd), probe)?;

    let params = fabric.params();
    let span = report.sim_time_ns as f64;
    // The model's timing is the paper's: 1 ns per byte, so transmitted
    // bytes over elapsed time is exactly the busy fraction.
    let byte_ns = sim::BYTE_TIME_NS as f64;
    let mut levels: Vec<LevelSummary> = (0..params.n())
        .map(|level| LevelSummary {
            level,
            active_ports: 0,
            mean_utilization: 0.0,
            max_utilization: 0.0,
            max_port: None,
            xmit_wait_ns: 0,
            credit_stall_ns: 0,
        })
        .collect();
    for sw in 0..counters.num_switches() as u32 {
        let level = SwitchLabel::from_id(params, SwitchId(sw)).level().0 as usize;
        let summary = &mut levels[level];
        for port in 0..counters.ports_per_switch() as u8 {
            let c = counters.port(sw, port);
            let util = c.xmit_bytes as f64 * byte_ns / span;
            if c.xmit_pkts > 0 {
                summary.active_ports += 1;
            }
            summary.mean_utilization += util;
            if util > summary.max_utilization {
                summary.max_utilization = util;
                summary.max_port = Some((sw, port + 1));
            }
            summary.xmit_wait_ns += c.xmit_wait_ns;
            summary.credit_stall_ns += c.credit_stall_ns;
        }
    }
    let mut cabled = vec![0u32; levels.len()];
    for (sw, mask) in fabric.network().cabled_port_masks().iter().enumerate() {
        cabled[params.switch_level_of(sw as u32) as usize] += mask.count_ones();
    }
    for (l, cabled) in levels.iter_mut().zip(cabled) {
        l.mean_utilization /= f64::from(cabled.max(1));
    }
    Ok(CountersReport {
        report,
        counters,
        levels,
    })
}

fn counters(cmd: &Cmd, fabric: &Fabric, out: &mut dyn Write) -> Result<(), CmdError> {
    let res = collect_counters(cmd, fabric)?;
    if cmd.json {
        writeln!(out, "{}", res.counters.to_json())?;
        return Ok(());
    }
    let params = fabric.params();
    writeln!(
        out,
        "counters for {} µs of {} under {} ({}, {} VLs, offered {:.2}):",
        res.report.sim_time_ns / 1000,
        params,
        pattern_of(cmd, fabric).name(),
        cmd.scheme.as_str().to_uppercase(),
        cmd.vls,
        cmd.load
    )?;
    writeln!(
        out,
        "  accepted {:.4} bytes/ns/node, {} delivered, {} in flight at end",
        res.report.accepted_bytes_per_ns_per_node,
        res.report.delivered,
        res.report.in_flight_at_end
    )?;
    writeln!(out, "\nper-level link utilization (transmit side):")?;
    for l in &res.levels {
        let role = if l.level == 0 { "roots " } else { "level " };
        let peak = l
            .max_port
            .map(|(sw, port)| {
                format!(
                    "peak {:5.1}% at {} p{port}",
                    100.0 * l.max_utilization,
                    SwitchLabel::from_id(params, SwitchId(sw)),
                )
            })
            .unwrap_or_else(|| "idle".into());
        writeln!(
            out,
            "  {role}{}: mean {:5.1}% over {} active ports, {}; \
             xmit-wait {:.1} µs, credit-stall {:.1} µs",
            l.level,
            100.0 * l.mean_utilization,
            l.active_ports,
            peak,
            l.xmit_wait_ns as f64 / 1e3,
            l.credit_stall_ns as f64 / 1e3
        )?;
    }
    writeln!(out, "\ntop {} ports by transmitted bytes:", cmd.top)?;
    for h in res.counters.hottest_ports(cmd.top) {
        let c = res.counters.port(h.sw, h.port - 1);
        writeln!(
            out,
            "  {:<12} p{}: {:7.1}% util, {} pkts, xmit-wait {:.1} µs",
            SwitchLabel::from_id(params, SwitchId(h.sw)).to_string(),
            h.port,
            100.0 * h.xmit_bytes as f64 / res.report.sim_time_ns as f64,
            c.xmit_pkts,
            c.xmit_wait_ns as f64 / 1e3
        )?;
    }
    writeln!(out, "\ntop {} congested ports by xmit-wait:", cmd.top)?;
    let congested = res.counters.most_congested_ports(cmd.top);
    if congested.is_empty() {
        writeln!(out, "  none — no packet ever waited for an output buffer")?;
    }
    for h in &congested {
        let c = res.counters.port(h.sw, h.port - 1);
        writeln!(
            out,
            "  {:<12} p{}: waited {:.1} µs, credit-stalled {:.1} µs, high-water in {} / out {}",
            SwitchLabel::from_id(params, SwitchId(h.sw)).to_string(),
            h.port,
            h.xmit_bytes as f64 / 1e3,
            c.credit_stall_ns as f64 / 1e3,
            c.in_buf_high_water,
            c.out_buf_high_water
        )?;
    }
    let samples = res.counters.samples();
    if !samples.is_empty() {
        writeln!(
            out,
            "\ntime-series: {} samples every {} ns (showing last 5)",
            samples.len(),
            res.counters.sample_interval_ns()
        )?;
        writeln!(
            out,
            "  t_ns        delivered  in_flight  events  p50/p95/p99 ns"
        )?;
        for s in samples
            .iter()
            .rev()
            .take(5)
            .collect::<Vec<_>>()
            .iter()
            .rev()
        {
            writeln!(
                out,
                "  {:<11} {:<10} {:<10} {:<7} {}/{}/{}",
                s.t_ns,
                s.delivered_pkts,
                s.in_flight,
                s.events,
                s.latency_p50_ns,
                s.latency_p95_ns,
                s.latency_p99_ns
            )?;
        }
    }
    Ok(())
}

/// Static flow counts for one tree level of switches (transmit side).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LevelLoads {
    /// Tree level (0 = roots).
    pub level: u32,
    /// Upward inter-switch links at this level carrying at least one flow.
    pub up_links: usize,
    /// Downward links at this level carrying at least one flow.
    pub down_links: usize,
    /// Heaviest upward link (0 at the roots, which have no up-ports).
    pub max_up: u32,
    /// Heaviest downward link.
    pub max_down: u32,
    /// Total flows over this level's upward links.
    pub up_flows: u64,
    /// Total flows over this level's downward links.
    pub down_flows: u64,
}

impl LevelLoads {
    /// Mean flows per *active* upward link.
    pub fn mean_up(&self) -> f64 {
        self.up_flows as f64 / (self.up_links.max(1)) as f64
    }

    /// Mean flows per *active* downward link.
    pub fn mean_down(&self) -> f64 {
        self.down_flows as f64 / (self.down_links.max(1)) as f64
    }
}

/// Everything the `loads` subcommand computes; exposed for tests.
#[derive(Debug, Clone)]
pub struct LoadsReport {
    /// The dense per-link analysis itself.
    pub loads: ChannelLoads,
    /// Per-level roll-ups, roots first.
    pub levels: Vec<LevelLoads>,
    /// Flows in the analyzed matrix.
    pub flows: u64,
    /// Heaviest node injection link.
    pub max_injection: u32,
}

/// Run the dense channel-load analysis for the configured matrix and roll
/// the per-link flow counts up by tree level. No simulation happens here:
/// this is the static control-plane view (the paper's Table 2/3 numbers).
pub fn collect_loads(cmd: &Cmd, fabric: &Fabric) -> Result<LoadsReport, String> {
    use ib_fabric::topology::DeviceRef;
    let params = fabric.params();
    let nodes = fabric.num_nodes();
    let (loads, flows) = match &cmd.hotspot {
        Some(dst) => {
            let dst = dst.resolve(params)?;
            if dst.0 >= nodes {
                return Err(format!("hotspot node ids must be < {nodes}"));
            }
            let matrix: Vec<_> = (0..nodes)
                .filter(|&s| s != dst.0)
                .map(|s| (NodeId(s), dst))
                .collect();
            let loads = fabric
                .channel_loads_for(&matrix)
                .map_err(|e| e.to_string())?;
            (loads, matrix.len() as u64)
        }
        None => {
            let loads = fabric.channel_loads().map_err(|e| e.to_string())?;
            (loads, u64::from(nodes) * u64::from(nodes - 1))
        }
    };

    let half = params.half();
    let mut levels: Vec<LevelLoads> = (0..params.n())
        .map(|level| LevelLoads {
            level,
            up_links: 0,
            down_links: 0,
            max_up: 0,
            max_down: 0,
            up_flows: 0,
            down_flows: 0,
        })
        .collect();
    let mut max_injection = 0;
    for (device, port, load) in loads.iter() {
        match device {
            DeviceRef::Switch(sw) => {
                let level = params.switch_level_of(sw.0);
                let l = &mut levels[level as usize];
                if level > 0 && u32::from(port.0) > half {
                    l.up_links += 1;
                    l.max_up = l.max_up.max(load);
                    l.up_flows += u64::from(load);
                } else {
                    l.down_links += 1;
                    l.max_down = l.max_down.max(load);
                    l.down_flows += u64::from(load);
                }
            }
            DeviceRef::Node(_) => max_injection = max_injection.max(load),
        }
    }
    Ok(LoadsReport {
        loads,
        levels,
        flows,
        max_injection,
    })
}

fn loads(cmd: &Cmd, fabric: &Fabric, out: &mut dyn Write) -> Result<(), CmdError> {
    use ib_fabric::topology::DeviceRef;
    let res = collect_loads(cmd, fabric)?;
    let params = fabric.params();
    let matrix = match &cmd.hotspot {
        Some(dst) => format!("all-to-one towards N{}", dst.resolve(params)?.0),
        None => "all-to-all".into(),
    };
    if cmd.json {
        let mut j = JsonBuf::new();
        j.begin_obj();
        j.field_u64("m", u64::from(params.m()));
        j.field_u64("n", u64::from(params.n()));
        j.field_str("scheme", cmd.scheme.as_str());
        j.field_str("matrix", &matrix);
        j.field_u64("flows", res.flows);
        j.field_u64("used_links", res.loads.used_links as u64);
        j.field_u64("max", u64::from(res.loads.max()));
        j.field_u64("max_up", u64::from(res.loads.max_up));
        j.field_u64("max_down", u64::from(res.loads.max_down));
        j.field_u64("max_injection", u64::from(res.max_injection));
        j.key("levels");
        j.begin_arr();
        for l in &res.levels {
            j.begin_obj();
            j.field_u64("level", u64::from(l.level));
            j.field_u64("up_links", l.up_links as u64);
            j.field_u64("down_links", l.down_links as u64);
            j.field_u64("max_up", u64::from(l.max_up));
            j.field_u64("max_down", u64::from(l.max_down));
            j.field_f64("mean_up", l.mean_up(), 3);
            j.field_f64("mean_down", l.mean_down(), 3);
            j.end_obj();
        }
        j.end_arr();
        j.end_obj();
        writeln!(out, "{}", j.into_string())?;
        return Ok(());
    }
    writeln!(
        out,
        "static channel loads for {} under {} ({matrix}, {} flows):",
        params,
        cmd.scheme.as_str().to_uppercase(),
        res.flows
    )?;
    writeln!(
        out,
        "  links carrying traffic : {} of {}",
        res.loads.used_links,
        fabric.network().links().len() * 2
    )?;
    writeln!(
        out,
        "  heaviest channel       : {} flows (injection links top out at {})",
        res.loads.max(),
        res.max_injection
    )?;
    writeln!(
        out,
        "  max upward / downward  : {} / {} flows",
        res.loads.max_up, res.loads.max_down
    )?;
    writeln!(
        out,
        "\nper-level roll-up (switch transmit side, roots first):"
    )?;
    for l in &res.levels {
        let role = if l.level == 0 { "roots " } else { "level " };
        let up = if l.level == 0 {
            "no up-ports".into()
        } else {
            format!(
                "up max {:>4} / mean {:7.2} over {:>3} links",
                l.max_up,
                l.mean_up(),
                l.up_links
            )
        };
        writeln!(
            out,
            "  {role}{}: {up}; down max {:>4} / mean {:7.2} over {:>3} links",
            l.level,
            l.max_down,
            l.mean_down(),
            l.down_links
        )?;
    }
    writeln!(out, "\ntop {} hottest channels:", cmd.top)?;
    for (device, port, load) in res.loads.hottest(cmd.top) {
        let what = match device {
            DeviceRef::Switch(sw) => {
                let level = params.switch_level_of(sw.0);
                let dir = if level > 0 && u32::from(port.0) > params.half() {
                    "up"
                } else {
                    "down"
                };
                format!(
                    "{:<12} p{} ({dir})",
                    SwitchLabel::from_id(params, sw).to_string(),
                    port.0
                )
            }
            DeviceRef::Node(node) => format!("N{:<11} p{} (injection)", node.0, port.0),
        };
        writeln!(out, "  {what}: {load} flows")?;
    }
    Ok(())
}

/// Build the workload the flags describe (exposed for tests).
pub fn build_workload(cmd: &Cmd, fabric: &Fabric) -> Result<Workload, String> {
    use ib_fabric::generators;
    let nodes = fabric.num_nodes();
    let wl = match cmd.wl_kind {
        WlKind::AllreduceRing => generators::allreduce_ring(nodes, cmd.bytes),
        WlKind::AllreduceRd => {
            if !nodes.is_power_of_two() {
                return Err(format!(
                    "allreduce-rd needs a power-of-two node count; this fabric has {nodes} \
                     (use --kind allreduce-ring)"
                ));
            }
            generators::allreduce_recursive_doubling(nodes, cmd.bytes)
        }
        WlKind::AllToAll => generators::all_to_all(nodes, cmd.bytes),
        WlKind::Bcast => generators::bcast_binomial(nodes, NodeId(0), cmd.bytes),
        WlKind::ClosedLoop => generators::closed_loop(
            nodes,
            ib_fabric::ClosedLoopKind::Uniform,
            cmd.bytes,
            cmd.in_flight,
            cmd.messages,
            cmd.seed.unwrap_or(1),
        ),
        WlKind::Replay => {
            let path = cmd.trace.as_ref().expect("parser enforces --trace");
            let text = std::fs::read_to_string(path)
                .map_err(|e| format!("cannot read trace '{path}': {e}"))?;
            ib_fabric::sim::workload_trace::parse_jsonl(&text, nodes)?
        }
    };
    Ok(wl)
}

/// Drive the workload to completion observed by `probe` — e.g. a
/// [`PhaseProfile`] for the engine's per-phase self-profile (exposed for
/// tests).
pub fn collect_workload<P: Probe>(
    cmd: &Cmd,
    fabric: &Fabric,
    probe: P,
) -> Result<(WorkloadReport, P), String> {
    let wl = build_workload(cmd, fabric)?;
    sim::run_workload(
        fabric.network(),
        fabric.routing(),
        sim_config(cmd),
        &wl,
        probe,
    )
    .map_err(|e| e.to_string())
}

fn print_phase_table(profile: &PhaseProfile, out: &mut dyn Write) -> io::Result<()> {
    writeln!(out, "\nengine self-profile (dispatch wall time per phase):")?;
    let total = profile.total_wall_ns().max(1);
    writeln!(out, "  phase        wall µs    share   events")?;
    for (phase, wall_ns, events) in profile.rows() {
        writeln!(
            out,
            "  {:<12} {:>8.1}   {:>5.1}%   {events}",
            phase.name(),
            wall_ns as f64 / 1e3,
            100.0 * wall_ns as f64 / total as f64
        )?;
    }
    writeln!(
        out,
        "  total        {:>8.1}            {}",
        profile.total_wall_ns() as f64 / 1e3,
        profile.total_events()
    )
}

fn workload(cmd: &Cmd, fabric: &Fabric, out: &mut dyn Write) -> Result<(), CmdError> {
    let (r, profile) = if cmd.profile {
        let (r, p) = collect_workload(cmd, fabric, PhaseProfile::new())?;
        (r, Some(p))
    } else {
        (collect_workload(cmd, fabric, NoopProbe)?.0, None)
    };
    let params = fabric.params();
    if cmd.json {
        let mut j = JsonBuf::new();
        j.begin_obj();
        j.field_u64("m", u64::from(params.m()));
        j.field_u64("n", u64::from(params.n()));
        j.field_str("scheme", cmd.scheme.as_str());
        j.field_str("kind", cmd.wl_kind.as_str());
        j.field_u64("nodes", u64::from(r.num_nodes));
        j.field_u64("messages", r.messages);
        j.field_u64("packets", r.packets);
        j.field_u64("total_bytes", r.total_bytes);
        j.field_u64("makespan_ns", r.makespan_ns);
        j.key("latency");
        j.begin_obj();
        j.field_u64("min_ns", r.latency.min_ns);
        j.field_u64("p50_ns", r.latency.p50_ns);
        j.field_u64("p95_ns", r.latency.p95_ns);
        j.field_u64("p99_ns", r.latency.p99_ns);
        j.field_u64("max_ns", r.latency.max_ns);
        j.field_u64("mean_ns", r.latency.mean_ns);
        j.end_obj();
        j.field_u64("node_skew_ns", r.node_skew_ns);
        j.field_u64("events", r.events);
        j.key("groups");
        j.begin_arr();
        for g in &r.groups {
            j.begin_obj();
            j.field_str("name", &g.name);
            j.field_u64("messages", g.messages);
            j.field_u64("bytes", g.bytes);
            j.field_u64("start_ns", g.start_ns);
            j.field_u64("completion_ns", g.completion_ns);
            j.end_obj();
        }
        j.end_arr();
        if let Some(p) = &profile {
            j.key("phases");
            j.begin_arr();
            for (phase, wall_ns, events) in p.rows() {
                j.begin_obj();
                j.field_str("phase", phase.name());
                j.field_u64("wall_ns", wall_ns);
                j.field_u64("events", events);
                j.end_obj();
            }
            j.end_arr();
        }
        j.end_obj();
        writeln!(out, "{}", j.into_string())?;
        return Ok(());
    }
    writeln!(
        out,
        "workload {} on {} under {} ({} VLs, {} B payload):",
        cmd.wl_kind.as_str(),
        params,
        cmd.scheme.as_str().to_uppercase(),
        cmd.vls,
        cmd.bytes
    )?;
    writeln!(
        out,
        "  messages   : {} over {} nodes ({} packets, {} bytes)",
        r.messages, r.num_nodes, r.packets, r.total_bytes
    )?;
    writeln!(
        out,
        "  makespan   : {} ns (first arm to last delivery), node skew {} ns",
        r.makespan_ns, r.node_skew_ns
    )?;
    writeln!(
        out,
        "  msg latency: p50 {} ns, p95 {} ns, p99 {} ns (min {}, max {}, mean {})",
        r.latency.p50_ns,
        r.latency.p95_ns,
        r.latency.p99_ns,
        r.latency.min_ns,
        r.latency.max_ns,
        r.latency.mean_ns
    )?;
    for g in &r.groups {
        writeln!(
            out,
            "  collective : {} — {} messages, {} bytes, completed in {} ns",
            g.name,
            g.messages,
            g.bytes,
            g.completion_ns - g.start_ns
        )?;
    }
    writeln!(out, "  engine     : {} events", r.events)?;
    if let Some(p) = &profile {
        print_phase_table(p, out)?;
    }
    Ok(())
}

/// Everything the `faults` subcommand computes; exposed for tests.
#[derive(Debug, Clone)]
pub struct FaultsReport {
    /// The deterministic fault schedule the run executed.
    pub plan: ib_fabric::FaultPlan,
    /// The base-net link indices the seeded pick selected.
    pub killed_links: Vec<u32>,
    /// The faulted run itself.
    pub report: SimReport,
    /// Reconvergence cost, loss/stall/rescue counts and path survival.
    pub disruption: ib_fabric::DisruptionReport,
}

/// Build the seeded fault plan, run the degraded-fabric scenario and
/// derive the disruption analysis.
/// Exposed for tests.
pub fn collect_faults(cmd: &Cmd, fabric: &Fabric) -> Result<FaultsReport, String> {
    use ib_fabric::FaultPlan;
    if !cmd.fail_links.is_empty() {
        return Err("faults schedules its own failures; drop --fail-links".into());
    }
    let net = fabric.network();
    let killed = FaultPlan::pick_links(net, cmd.kill, cmd.seed.unwrap_or(1));
    if killed.len() < cmd.kill {
        return Err(format!(
            "--kill {} exceeds the fabric's {} inter-switch cables",
            cmd.kill,
            net.inter_switch_link_indices().len()
        ));
    }
    let at = cmd.fault_at.unwrap_or(cmd.time_ns / 4);
    if at >= cmd.time_ns {
        return Err(format!(
            "--at {at} is past the end of the run ({} ns)",
            cmd.time_ns
        ));
    }
    let mut plan = FaultPlan::kill_links_at(&killed, at);
    plan.policy = cmd.fault_policy;
    plan.detect_ns = cmd.detect_ns;
    plan.per_switch_ns = cmd.per_switch_ns;
    let cfg = SimConfig {
        faults: plan.clone(),
        ..sim_config(cmd)
    };
    let (report, _) = run_point(cmd, fabric, cfg, NoopProbe)?;
    let disruption = ib_fabric::disruption_report(net, fabric.routing(), &plan, &report);
    Ok(FaultsReport {
        plan,
        killed_links: killed,
        report,
        disruption,
    })
}

/// Render a [`FaultsReport`] as JSON. Deliberately excludes the
/// wall-clock throughput fields (`events_per_sec`, `packets_per_sec`):
/// everything here is deterministic, so the output is byte-identical
/// from run to run.
pub fn faults_to_json(cmd: &Cmd, fabric: &Fabric, out: &FaultsReport) -> String {
    fn survival(j: &mut JsonBuf, key: &str, s: &ib_fabric::PathSurvival) {
        j.key(key);
        j.begin_obj();
        j.field_str("scheme", s.kind.as_str());
        j.field_u64("lids_per_node", u64::from(s.lids_per_node));
        j.field_u64("pairs", s.pairs);
        j.field_u64("surviving_paths", s.surviving_paths);
        j.field_f64("avg_per_pair", s.avg_per_pair(), 3);
        j.field_u64("min_per_pair", u64::from(s.min_per_pair));
        j.field_u64("disconnected_pairs", s.disconnected_pairs);
        j.end_obj();
    }
    let params = fabric.params();
    let r = &out.report;
    let d = &out.disruption;
    let mut j = JsonBuf::new();
    j.begin_obj();
    j.field_u64("m", u64::from(params.m()));
    j.field_u64("n", u64::from(params.n()));
    j.field_str("scheme", cmd.scheme.as_str());
    out.plan.encode_fields(&mut j);
    j.key("run");
    j.begin_obj();
    j.field_f64("offered_load", r.offered_load, 4);
    j.field_u64("sim_time_ns", r.sim_time_ns);
    j.field_u64("generated", r.generated);
    j.field_u64("delivered", r.delivered);
    j.field_u64("dropped", r.dropped);
    j.field_u64("in_flight_at_end", r.in_flight_at_end);
    j.field_f64(
        "accepted_bytes_per_ns_per_node",
        r.accepted_bytes_per_ns_per_node,
        6,
    );
    j.field_u64("fault_lost", r.fault_lost);
    j.field_u64("fault_stalled", r.fault_stalled);
    j.field_u64("fault_rerouted", r.fault_rerouted);
    j.field_f64("mean_latency_ns", r.avg_latency_ns(), 1);
    j.field_u64("p99_latency_ns", r.latency.quantile(0.99));
    j.field_u64("events_processed", r.events_processed);
    j.end_obj();
    j.key("faults");
    j.begin_arr();
    for f in &d.faults {
        j.begin_obj();
        j.field_u64("at_ns", f.at_ns);
        f.action.encode_fields(&mut j);
        j.field_u64("reprogram_at_ns", f.reprogram_at_ns);
        j.field_u64("reconvergence_ns", f.reconvergence_ns);
        j.field_u64("switches_reprogrammed", f.switches_reprogrammed as u64);
        j.field_u64("entries_patched", f.entries_patched as u64);
        j.field_u64("table_entries", f.table_entries as u64);
        j.end_obj();
    }
    j.end_arr();
    j.field_u64("total_reconvergence_ns", d.total_reconvergence_ns);
    survival(&mut j, "survival", &d.survival);
    survival(&mut j, "slid_survival", &d.slid_survival);
    j.key("level_loads");
    j.begin_arr();
    for l in &d.level_loads {
        j.begin_obj();
        j.field_u64("level", u64::from(l.level));
        j.field_u64("healthy_max", u64::from(l.healthy_max));
        j.field_f64("healthy_mean", l.healthy_mean, 3);
        j.field_u64("degraded_max", u64::from(l.degraded_max));
        j.field_f64("degraded_mean", l.degraded_mean, 3);
        j.end_obj();
    }
    j.end_arr();
    j.end_obj();
    j.into_string()
}

fn faults(cmd: &Cmd, fabric: &Fabric, out: &mut dyn Write) -> Result<(), CmdError> {
    let res = collect_faults(cmd, fabric)?;
    if cmd.json {
        writeln!(out, "{}", faults_to_json(cmd, fabric, &res))?;
        return Ok(());
    }
    let params = fabric.params();
    let r = &res.report;
    let d = &res.disruption;
    writeln!(
        out,
        "faulted run of {} under {} ({} VLs, offered {:.2}, {} µs, {} policy):",
        params,
        cmd.scheme.as_str().to_uppercase(),
        cmd.vls,
        cmd.load,
        cmd.time_ns / 1000,
        res.plan.policy.name()
    )?;
    writeln!(
        out,
        "  plan       : kill {} inter-switch cable(s) {:?} at {} ns (seed {})",
        res.killed_links.len(),
        res.killed_links,
        res.plan.events.first().map(|e| e.at_ns).unwrap_or(0),
        cmd.seed.unwrap_or(1)
    )?;
    writeln!(
        out,
        "  SM model   : detect {} ns, then {} ns per reprogrammed switch",
        res.plan.detect_ns, res.plan.per_switch_ns
    )?;
    for f in &d.faults {
        let (kind, id) = f.action.parts();
        writeln!(
            out,
            "  {kind} {id} @{} ns: SM patched {} switches / {} LFT entries \
             (full rebuild = {}) by {} ns (+{} ns)",
            f.at_ns,
            f.switches_reprogrammed,
            f.entries_patched,
            f.table_entries,
            f.reprogram_at_ns,
            f.reconvergence_ns
        )?;
    }
    writeln!(
        out,
        "  disruption : {} lost, {} stalled, {} rescued by reprogramming; \
         reconvergence total {} ns",
        r.fault_lost, r.fault_stalled, r.fault_rerouted, d.total_reconvergence_ns
    )?;
    writeln!(
        out,
        "  delivered  : {} packets ({} lost at dead ports, {} discarded with no table \
         entry), accepted {:.4} bytes/ns/node, p99 latency {} ns",
        r.delivered,
        r.fault_lost,
        r.dropped - r.fault_lost,
        r.accepted_bytes_per_ns_per_node,
        r.latency.quantile(0.99)
    )?;
    let surv = |s: &ib_fabric::PathSurvival| {
        format!(
            "{:.2} of {} paths/pair (min {}, {} pairs disconnected)",
            s.avg_per_pair(),
            s.lids_per_node,
            s.min_per_pair,
            s.disconnected_pairs
        )
    };
    writeln!(
        out,
        "  survival   : {} keeps {}",
        d.survival.kind.as_str().to_uppercase(),
        surv(&d.survival)
    )?;
    writeln!(out, "    vs SLID  : {}", surv(&d.slid_survival))?;
    writeln!(
        out,
        "  tier loads : all-to-all channel load, healthy -> degraded"
    )?;
    for l in &d.level_loads {
        writeln!(
            out,
            "    levels {}-{}: max {} -> {}, mean {:.2} -> {:.2}",
            l.level,
            l.level + 1,
            l.healthy_max,
            l.degraded_max,
            l.healthy_mean,
            l.degraded_mean
        )?;
    }
    Ok(())
}

fn sweep(cmd: &Cmd, fabric: &Fabric, out: &mut dyn Write) -> Result<(), CmdError> {
    let reports = sim::sweep(
        fabric.network(),
        fabric.routing(),
        sim_config(cmd),
        &pattern_of(cmd, fabric),
        &cmd.loads,
        cmd.time_ns,
    )
    .map_err(|e| e.to_string())?;
    writeln!(
        out,
        "offered,accepted,avg_latency_ns,p99_latency_ns,delivered,dropped"
    )?;
    for r in &reports {
        writeln!(
            out,
            "{},{},{},{},{},{}",
            r.offered_load,
            r.accepted_bytes_per_ns_per_node,
            r.avg_latency_ns(),
            r.latency.quantile(0.99),
            r.delivered,
            r.dropped
        )?;
    }
    Ok(())
}
