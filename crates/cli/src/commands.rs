//! Command implementations for the `ibfat` CLI.

use crate::args::{Action, Cmd, WlKind};
use ib_fabric::json::JsonBuf;
use ib_fabric::prelude::*;
use ib_fabric::sm::SubnetManager;
use ib_fabric::topology::analysis;
use ib_fabric::{FaultPolicy, SwitchId};

/// Run a parsed command.
pub fn run(cmd: Cmd) -> Result<(), String> {
    let fabric = build_fabric(&cmd)?;
    match cmd.action {
        Action::Info => info(&cmd, &fabric),
        Action::Route { ref src, ref dst } => {
            let src = src.resolve(fabric.params())?;
            let dst = dst.resolve(fabric.params())?;
            route(&cmd, &fabric, src, dst)
        }
        Action::Verify => verify(&fabric),
        Action::Discover => discover(&cmd, &fabric),
        Action::Simulate => simulate(&cmd, &fabric),
        Action::Sweep => sweep(&cmd, &fabric),
        Action::Counters => counters(&cmd, &fabric),
        Action::Loads => loads(&cmd, &fabric),
        Action::Workload => workload(&cmd, &fabric),
        Action::Trace => trace(&cmd, &fabric),
        Action::Faults => faults(&cmd, &fabric),
    }
}

fn build_fabric(cmd: &Cmd) -> Result<Fabric, String> {
    if cmd.route_backend == RouteBackend::Oracle {
        if cmd.scheme == RoutingKind::UpDown {
            return Err(
                "--route-backend oracle supports only the mlid/slid schemes \
                 (up*/down* has no closed-form route)"
                    .into(),
            );
        }
        if !cmd.fail_links.is_empty() {
            return Err("--route-backend oracle requires an intact fabric \
                 (fault-repaired tables deviate from the closed form); \
                 drop --fail-links or use --route-backend table"
                .into());
        }
    }
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

/// Workload mode drives a message DAG to completion, so a source whose
/// injection cable was cut can never finish its messages — the engine
/// would drain its calendar and die on a "workload stalled" assertion.
/// Surface the routing error as a clean message up front instead.
/// (Pattern mode tolerates the same damage: the island simply neither
/// sends nor receives.)
fn ensure_sources_cabled(fabric: &Fabric) -> Result<(), String> {
    use ib_fabric::topology::DeviceRef;
    for node in 0..fabric.num_nodes() {
        if fabric
            .network()
            .peer_of(DeviceRef::Node(NodeId(node)), ib_fabric::PortNum(1))
            .is_none()
        {
            return Err(format!(
                "{}; --fail-links cut its injection cable, so its workload \
                 messages can never complete — fail inter-switch cables \
                 instead (see `ibfat info`)",
                ib_fabric::RoutingError::DisconnectedSource(NodeId(node))
            ));
        }
    }
    Ok(())
}

fn pattern_of(cmd: &Cmd, fabric: &Fabric) -> TrafficPattern {
    cmd.pattern
        .clone()
        .unwrap_or_else(|| TrafficPattern::bit_complement(fabric.num_nodes()))
}

fn info(cmd: &Cmd, fabric: &Fabric) -> Result<(), String> {
    let p = fabric.params();
    if cmd.json {
        let value = serde_json::json!({
            "m": p.m(),
            "n": p.n(),
            "nodes": p.num_nodes(),
            "switches": p.num_switches(),
            "links": fabric.network().links().len(),
            "height": p.height(),
            "lmc": p.lmc(),
            "lids_per_node": p.lids_per_node(),
            "max_paths": p.num_lcas(0),
            "avg_min_hops": analysis::average_min_hops(p),
            "scheme": cmd.scheme.as_str(),
        });
        println!("{}", serde_json::to_string_pretty(&value).expect("json"));
        return Ok(());
    }
    println!("{p} under {} routing", cmd.scheme.as_str().to_uppercase());
    println!("  processing nodes : {}", p.num_nodes());
    println!("  switches         : {}", p.num_switches());
    println!("  cables           : {}", fabric.network().links().len());
    println!("  height           : {}", p.height());
    println!(
        "  LMC              : {} ({} LIDs per node)",
        p.lmc(),
        p.lids_per_node()
    );
    println!("  max disjoint LCAs: {}", p.num_lcas(0));
    println!("  avg minimal hops : {:.3}", analysis::average_min_hops(p));
    for w in analysis::level_wiring(p) {
        println!(
            "  level {}: {} switches, {} down / {} up cables each",
            w.level, w.switches, w.down_per_switch, w.up_per_switch
        );
    }
    Ok(())
}

fn route(cmd: &Cmd, fabric: &Fabric, src: NodeId, dst: NodeId) -> Result<(), String> {
    let nodes = fabric.num_nodes();
    if src.0 >= nodes || dst.0 >= nodes {
        return Err(format!("node ids must be < {nodes}"));
    }
    let route = fabric.route(src, dst).map_err(|e| e.to_string())?;
    let params = fabric.params();
    if cmd.json {
        // Hand-rolled JSON: the offline serde_json stub cannot serialize.
        let hops: Vec<serde_json::Value> = route
            .hops
            .iter()
            .map(|h| {
                serde_json::json!({
                    "switch": h.switch.0,
                    "in_port": h.in_port.0,
                    "out_port": h.out_port.0,
                })
            })
            .collect();
        let value = serde_json::json!({
            "src": route.src.0,
            "dlid": route.dlid.0,
            "dst": route.dst.0,
            "hops": serde_json::Value::Array(hops),
        });
        println!(
            "{}",
            serde_json::to_string_pretty(&value).expect("route serializes")
        );
        return Ok(());
    }
    println!(
        "{} -> {} via DLID {} ({} links):",
        NodeLabel::from_id(params, src),
        NodeLabel::from_id(params, dst),
        route.dlid.0,
        route.num_links()
    );
    for hop in &route.hops {
        println!(
            "  {:<12} in p{} -> out p{}",
            SwitchLabel::from_id(params, hop.switch).to_string(),
            hop.in_port.0,
            hop.out_port.0
        );
    }
    Ok(())
}

fn verify(fabric: &Fabric) -> Result<(), String> {
    let start = std::time::Instant::now();
    fabric.verify().map_err(|e| e.to_string())?;
    println!(
        "ok: every LID delivers from every source, selected routes are minimal,\n\
         and the channel dependency graph is acyclic ({} switches, {:.2?})",
        fabric.num_switches(),
        start.elapsed()
    );
    Ok(())
}

fn discover(cmd: &Cmd, fabric: &Fabric) -> Result<(), String> {
    let sm = SubnetManager::new(cmd.scheme, NodeId(0));
    match sm.initialize(fabric.network()) {
        Ok(outcome) => {
            let p = outcome.recovered.params;
            println!(
                "sweep from N0 found {} devices over {} cables",
                outcome.discovery.devices.len(),
                outcome.discovery.edges.len()
            );
            println!("recognized as {p}; labels recovered for every device");
            println!(
                "installed {} forwarding tables ({} entries each), LMC {}",
                outcome.routing.lfts().len(),
                outcome.routing.lid_space().max_lid().0,
                outcome.routing.lid_space().lmc()
            );
            let (bring_up, _) = ib_fabric::sm::time_bring_up(
                fabric.network(),
                NodeId(0),
                ib_fabric::sm::MadCosts::default(),
            );
            println!(
                "bring-up cost: {} SMPs ({} discovery, {} LID, {} LFT blocks), \
                 ~{:.2} ms serially, longest directed route {} hops",
                bring_up.total_smps(),
                bring_up.discovery_smps,
                bring_up.lid_smps,
                bring_up.lft_smps,
                bring_up.total_time_ns as f64 / 1e6,
                bring_up.max_route_hops
            );
            Ok(())
        }
        Err(e) => Err(e.to_string()),
    }
}

fn simulate(cmd: &Cmd, fabric: &Fabric) -> Result<(), String> {
    let mut experiment = fabric
        .experiment()
        .virtual_lanes(cmd.vls)
        .traffic(pattern_of(cmd, fabric))
        .offered_load(cmd.load)
        .duration_ns(cmd.time_ns)
        .route_backend(cmd.route_backend);
    if let Some(seed) = cmd.seed {
        experiment = experiment.seed(seed);
    }
    let report = experiment.run();
    if cmd.json {
        println!("{}", report_to_json(&report));
        return Ok(());
    }
    println!(
        "simulated {} µs of {} under {} ({} VLs, offered {:.2}):",
        report.sim_time_ns / 1000,
        fabric.params(),
        pattern_of(cmd, fabric).name(),
        cmd.vls,
        cmd.load
    );
    println!(
        "  accepted   : {:.4} bytes/ns/node (offered {:.4})",
        report.accepted_bytes_per_ns_per_node, report.offered_bytes_per_ns_per_node
    );
    println!(
        "  latency    : avg {:.0} ns, p99 {} ns, min {} ns (network-only avg {:.0} ns)",
        report.avg_latency_ns(),
        report.latency.quantile(0.99),
        report.latency.min(),
        report.network_latency.mean()
    );
    println!(
        "  packets    : {} delivered, {} dropped, {} in flight at end",
        report.delivered, report.dropped, report.in_flight_at_end
    );
    println!(
        "  links      : mean utilization {:.1}%, peak {:.1}%",
        100.0 * report.mean_link_utilization,
        100.0 * report.max_link_utilization
    );
    println!(
        "  engine     : {} events ({:.2} Mev/s, {:.0} kpkt/s)",
        report.events_processed,
        report.events_per_sec / 1e6,
        report.packets_per_sec / 1e3
    );
    Ok(())
}

/// Render a [`SimReport`] as one compact JSON object on the shared
/// [`JsonBuf`] writer (the offline serde stub cannot derive this).
/// Flight-recorder timelines are left to the `trace` subcommand.
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
    if let Some(links) = &report.link_utilization {
        j.key("link_utilization");
        j.begin_arr();
        for l in links {
            j.begin_obj();
            j.field_str("from", &l.from);
            j.field_u64("port", u64::from(l.port));
            j.field_f64("utilization", l.utilization, 6);
            j.end_obj();
        }
        j.end_arr();
    }
    j.field_u64("out_of_order", report.out_of_order);
    j.end_obj();
    j.into_string()
}

/// Run the flight recorder over the configured scenario and render the
/// sampled packet spans as JSONL (exposed for tests).
pub fn collect_trace(cmd: &Cmd, fabric: &Fabric) -> Result<String, String> {
    let mut experiment = fabric
        .experiment()
        .virtual_lanes(cmd.vls)
        .traffic(pattern_of(cmd, fabric))
        .offered_load(cmd.load)
        .duration_ns(cmd.time_ns)
        .route_backend(cmd.route_backend)
        .trace_first_packets(cmd.trace_packets)
        .trace_sampling(cmd.sampling.clone());
    if let Some(seed) = cmd.seed {
        experiment = experiment.seed(seed);
    }
    let report = experiment.run();
    let traces = report.traces.as_deref().unwrap_or(&[]);
    Ok(ib_fabric::traces_to_jsonl(traces))
}

fn trace(cmd: &Cmd, fabric: &Fabric) -> Result<(), String> {
    print!("{}", collect_trace(cmd, fabric)?);
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
    let mut experiment = fabric
        .experiment()
        .virtual_lanes(cmd.vls)
        .traffic(pattern_of(cmd, fabric))
        .offered_load(cmd.load)
        .duration_ns(cmd.time_ns)
        .route_backend(cmd.route_backend);
    if let Some(seed) = cmd.seed {
        experiment = experiment.seed(seed);
    }
    let interval = cmd.sample_interval_ns.unwrap_or((cmd.time_ns / 50).max(1));
    let probe = FabricCounters::new(fabric.network(), cmd.vls).with_sampling(interval, cmd.top);
    let (report, counters) = experiment.run_observed(probe);

    let params = fabric.params();
    let span = report.sim_time_ns as f64;
    // The CLI runs the paper's timing: 1 ns per byte, so transmitted
    // bytes over elapsed time is exactly the busy fraction.
    let byte_ns = SimConfig::default().byte_time_ns as f64;
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
    let ports_per_level = |l: &LevelSummary| {
        let switches = params.switches_at_level(l.level);
        (switches * params.m()) as f64
    };
    for l in &mut levels {
        l.mean_utilization /= ports_per_level(l).max(1.0);
    }
    Ok(CountersReport {
        report,
        counters,
        levels,
    })
}

fn counters(cmd: &Cmd, fabric: &Fabric) -> Result<(), String> {
    let out = collect_counters(cmd, fabric)?;
    if cmd.json {
        println!("{}", out.counters.to_json());
        return Ok(());
    }
    let params = fabric.params();
    println!(
        "counters for {} µs of {} under {} ({}, {} VLs, offered {:.2}):",
        out.report.sim_time_ns / 1000,
        params,
        pattern_of(cmd, fabric).name(),
        cmd.scheme.as_str().to_uppercase(),
        cmd.vls,
        cmd.load
    );
    println!(
        "  accepted {:.4} bytes/ns/node, {} delivered, {} in flight at end",
        out.report.accepted_bytes_per_ns_per_node,
        out.report.delivered,
        out.report.in_flight_at_end
    );
    println!("\nper-level link utilization (transmit side):");
    for l in &out.levels {
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
        println!(
            "  {role}{}: mean {:5.1}% over {} active ports, {}; \
             xmit-wait {:.1} µs, credit-stall {:.1} µs",
            l.level,
            100.0 * l.mean_utilization,
            l.active_ports,
            peak,
            l.xmit_wait_ns as f64 / 1e3,
            l.credit_stall_ns as f64 / 1e3
        );
    }
    println!("\ntop {} ports by transmitted bytes:", cmd.top);
    for h in out.counters.hottest_ports(cmd.top) {
        let c = out.counters.port(h.sw, h.port - 1);
        println!(
            "  {:<12} p{}: {:7.1}% util, {} pkts, xmit-wait {:.1} µs",
            SwitchLabel::from_id(params, SwitchId(h.sw)).to_string(),
            h.port,
            100.0 * h.xmit_bytes as f64 / out.report.sim_time_ns as f64,
            c.xmit_pkts,
            c.xmit_wait_ns as f64 / 1e3
        );
    }
    println!("\ntop {} congested ports by xmit-wait:", cmd.top);
    let congested = out.counters.most_congested_ports(cmd.top);
    if congested.is_empty() {
        println!("  none — no packet ever waited for an output buffer");
    }
    for h in &congested {
        let c = out.counters.port(h.sw, h.port - 1);
        println!(
            "  {:<12} p{}: waited {:.1} µs, credit-stalled {:.1} µs, high-water in {} / out {}",
            SwitchLabel::from_id(params, SwitchId(h.sw)).to_string(),
            h.port,
            h.xmit_bytes as f64 / 1e3,
            c.credit_stall_ns as f64 / 1e3,
            c.in_buf_high_water,
            c.out_buf_high_water
        );
    }
    let samples = out.counters.samples();
    if !samples.is_empty() {
        println!(
            "\ntime-series: {} samples every {} ns (showing last 5)",
            samples.len(),
            out.counters.sample_interval_ns()
        );
        println!("  t_ns        delivered  in_flight  events  p50/p95/p99 ns");
        for s in samples
            .iter()
            .rev()
            .take(5)
            .collect::<Vec<_>>()
            .iter()
            .rev()
        {
            println!(
                "  {:<11} {:<10} {:<10} {:<7} {}/{}/{}",
                s.t_ns,
                s.delivered_pkts,
                s.in_flight,
                s.events,
                s.latency_p50_ns,
                s.latency_p95_ns,
                s.latency_p99_ns
            );
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
    if cmd.oracle && cmd.hotspot.is_some() {
        return Err("--oracle streams the all-to-all matrix; drop --hotspot".into());
    }
    if cmd.oracle && !cmd.fail_links.is_empty() {
        return Err("--oracle assumes a pristine fabric; drop --fail-links".into());
    }
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
            let loads = if cmd.oracle {
                ib_fabric::all_to_all_loads_oracle(params, cmd.scheme).ok_or_else(|| {
                    format!(
                        "--oracle has no closed form for {} routing",
                        cmd.scheme.as_str()
                    )
                })?
            } else {
                fabric.channel_loads().map_err(|e| e.to_string())?
            };
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

fn loads(cmd: &Cmd, fabric: &Fabric) -> Result<(), String> {
    use ib_fabric::topology::DeviceRef;
    let out = collect_loads(cmd, fabric)?;
    let params = fabric.params();
    let matrix = match &cmd.hotspot {
        Some(dst) => format!("all-to-one towards N{}", dst.resolve(params)?.0),
        None => "all-to-all".into(),
    };
    if cmd.json {
        // Hand-rolled JSON (via the shared ib_fabric::json writer): the
        // offline serde_json stub cannot serialize.
        let mut j = JsonBuf::new();
        j.begin_obj();
        j.field_u64("m", u64::from(params.m()));
        j.field_u64("n", u64::from(params.n()));
        j.field_str("scheme", cmd.scheme.as_str());
        j.field_str("matrix", &matrix);
        j.field_u64("flows", out.flows);
        j.field_u64("used_links", out.loads.used_links as u64);
        j.field_u64("max", u64::from(out.loads.max()));
        j.field_u64("max_up", u64::from(out.loads.max_up));
        j.field_u64("max_down", u64::from(out.loads.max_down));
        j.field_u64("max_injection", u64::from(out.max_injection));
        j.key("levels");
        j.begin_arr();
        for l in &out.levels {
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
        println!("{}", j.into_string());
        return Ok(());
    }
    println!(
        "static channel loads for {} under {} ({matrix}, {} flows):",
        params,
        cmd.scheme.as_str().to_uppercase(),
        out.flows
    );
    println!(
        "  links carrying traffic : {} of {}",
        out.loads.used_links,
        fabric.network().links().len() * 2
    );
    println!(
        "  heaviest channel       : {} flows (injection links top out at {})",
        out.loads.max(),
        out.max_injection
    );
    println!(
        "  max upward / downward  : {} / {} flows",
        out.loads.max_up, out.loads.max_down
    );
    println!("\nper-level roll-up (switch transmit side, roots first):");
    for l in &out.levels {
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
        println!(
            "  {role}{}: {up}; down max {:>4} / mean {:7.2} over {:>3} links",
            l.level,
            l.max_down,
            l.mean_down(),
            l.down_links
        );
    }
    println!("\ntop {} hottest channels:", cmd.top);
    for (device, port, load) in out.loads.hottest(cmd.top) {
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
        println!("  {what}: {load} flows");
    }
    Ok(())
}

/// Build the workload the flags describe (exposed for tests).
pub fn build_workload(cmd: &Cmd, fabric: &Fabric) -> Result<Workload, String> {
    use ib_fabric::generators;
    ensure_sources_cabled(fabric)?;
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

/// Drive the workload to completion (exposed for tests).
pub fn collect_workload(cmd: &Cmd, fabric: &Fabric) -> Result<WorkloadReport, String> {
    let wl = build_workload(cmd, fabric)?;
    let mut experiment = fabric
        .experiment()
        .virtual_lanes(cmd.vls)
        .route_backend(cmd.route_backend);
    if let Some(seed) = cmd.seed {
        experiment = experiment.seed(seed);
    }
    Ok(experiment.run_workload(&wl))
}

/// Drive the workload with the engine's per-phase self-profiler attached
/// (exposed for tests). The report matches [`collect_workload`] exactly;
/// only the wall-clock phase table is extra.
pub fn collect_workload_profiled(
    cmd: &Cmd,
    fabric: &Fabric,
) -> Result<(WorkloadReport, PhaseProfile), String> {
    let wl = build_workload(cmd, fabric)?;
    let mut experiment = fabric
        .experiment()
        .virtual_lanes(cmd.vls)
        .route_backend(cmd.route_backend);
    if let Some(seed) = cmd.seed {
        experiment = experiment.seed(seed);
    }
    Ok(experiment.run_workload_observed(&wl, PhaseProfile::new()))
}

fn print_phase_table(profile: &PhaseProfile) {
    println!("\nengine self-profile (dispatch wall time per phase):");
    let total = profile.total_wall_ns().max(1);
    println!("  phase        wall µs    share   events");
    for (phase, wall_ns, events) in profile.rows() {
        println!(
            "  {:<12} {:>8.1}   {:>5.1}%   {events}",
            phase.name(),
            wall_ns as f64 / 1e3,
            100.0 * wall_ns as f64 / total as f64
        );
    }
    println!(
        "  total        {:>8.1}            {}",
        profile.total_wall_ns() as f64 / 1e3,
        profile.total_events()
    );
}

fn workload(cmd: &Cmd, fabric: &Fabric) -> Result<(), String> {
    let (r, profile) = if cmd.profile {
        let (r, p) = collect_workload_profiled(cmd, fabric)?;
        (r, Some(p))
    } else {
        (collect_workload(cmd, fabric)?, None)
    };
    let params = fabric.params();
    if cmd.json {
        // Hand-rolled JSON (via the shared ib_fabric::json writer): the
        // offline serde_json stub cannot serialize.
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
        println!("{}", j.into_string());
        return Ok(());
    }
    println!(
        "workload {} on {} under {} ({} VLs, {} B payload):",
        cmd.wl_kind.as_str(),
        params,
        cmd.scheme.as_str().to_uppercase(),
        cmd.vls,
        cmd.bytes
    );
    println!(
        "  messages   : {} over {} nodes ({} packets, {} bytes)",
        r.messages, r.num_nodes, r.packets, r.total_bytes
    );
    println!(
        "  makespan   : {} ns (first arm to last delivery), node skew {} ns",
        r.makespan_ns, r.node_skew_ns
    );
    println!(
        "  msg latency: p50 {} ns, p95 {} ns, p99 {} ns (min {}, max {}, mean {})",
        r.latency.p50_ns,
        r.latency.p95_ns,
        r.latency.p99_ns,
        r.latency.min_ns,
        r.latency.max_ns,
        r.latency.mean_ns
    );
    for g in &r.groups {
        println!(
            "  collective : {} — {} messages, {} bytes, completed in {} ns",
            g.name,
            g.messages,
            g.bytes,
            g.completion_ns - g.start_ns
        );
    }
    println!("  engine     : {} events", r.events);
    if let Some(p) = &profile {
        print_phase_table(p);
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
    if cmd.scheme == RoutingKind::UpDown {
        return Err("faults relies on patch-level LFT repair, which only the \
             mlid/slid schemes support; model static up*/down* damage \
             with --fail-links instead"
            .into());
    }
    if cmd.route_backend == RouteBackend::Oracle {
        return Err(
            "--route-backend oracle answers routes from the intact-fabric \
             closed form; faulted runs need --route-backend table"
                .into(),
        );
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
    plan.validate(net)?;

    let mut experiment = fabric
        .experiment()
        .virtual_lanes(cmd.vls)
        .traffic(pattern_of(cmd, fabric))
        .offered_load(cmd.load)
        .duration_ns(cmd.time_ns)
        .route_backend(cmd.route_backend)
        .faults(plan.clone());
    if let Some(seed) = cmd.seed {
        experiment = experiment.seed(seed);
    }
    let report = experiment.run();
    let disruption = ib_fabric::disruption_report(net, fabric.routing(), &plan, &report);
    Ok(FaultsReport {
        plan,
        killed_links: killed,
        report,
        disruption,
    })
}

fn fault_action_parts(action: ib_fabric::FaultAction) -> (&'static str, u32) {
    use ib_fabric::FaultAction;
    match action {
        FaultAction::KillLink(id) => ("kill_link", id),
        FaultAction::KillSwitch(id) => ("kill_switch", id),
        FaultAction::ReviveLink(id) => ("revive_link", id),
        FaultAction::ReviveSwitch(id) => ("revive_switch", id),
    }
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
    j.field_str(
        "policy",
        match out.plan.policy {
            FaultPolicy::Drop => "drop",
            FaultPolicy::Stall => "stall",
        },
    );
    j.field_u64("detect_ns", out.plan.detect_ns);
    j.field_u64("per_switch_ns", out.plan.per_switch_ns);
    j.key("events");
    j.begin_arr();
    for e in &out.plan.events {
        let (kind, id) = fault_action_parts(e.action);
        j.begin_obj();
        j.field_u64("at_ns", e.at_ns);
        j.field_str("action", kind);
        j.field_u64("id", u64::from(id));
        j.end_obj();
    }
    j.end_arr();
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
        let (kind, id) = fault_action_parts(f.action);
        j.begin_obj();
        j.field_u64("at_ns", f.at_ns);
        j.field_str("action", kind);
        j.field_u64("id", u64::from(id));
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

fn faults(cmd: &Cmd, fabric: &Fabric) -> Result<(), String> {
    let out = collect_faults(cmd, fabric)?;
    if cmd.json {
        println!("{}", faults_to_json(cmd, fabric, &out));
        return Ok(());
    }
    let params = fabric.params();
    let r = &out.report;
    let d = &out.disruption;
    println!(
        "faulted run of {} under {} ({} VLs, offered {:.2}, {} µs, {} policy):",
        params,
        cmd.scheme.as_str().to_uppercase(),
        cmd.vls,
        cmd.load,
        cmd.time_ns / 1000,
        match out.plan.policy {
            FaultPolicy::Drop => "drop",
            FaultPolicy::Stall => "stall",
        }
    );
    println!(
        "  plan       : kill {} inter-switch cable(s) {:?} at {} ns (seed {})",
        out.killed_links.len(),
        out.killed_links,
        out.plan.events.first().map(|e| e.at_ns).unwrap_or(0),
        cmd.seed.unwrap_or(1)
    );
    println!(
        "  SM model   : detect {} ns, then {} ns per reprogrammed switch",
        out.plan.detect_ns, out.plan.per_switch_ns
    );
    for f in &d.faults {
        let (kind, id) = fault_action_parts(f.action);
        println!(
            "  {kind} {id} @{} ns: SM patched {} switches / {} LFT entries \
             (full rebuild = {}) by {} ns (+{} ns)",
            f.at_ns,
            f.switches_reprogrammed,
            f.entries_patched,
            f.table_entries,
            f.reprogram_at_ns,
            f.reconvergence_ns
        );
    }
    println!(
        "  disruption : {} lost, {} stalled, {} rescued by reprogramming; \
         reconvergence total {} ns",
        r.fault_lost, r.fault_stalled, r.fault_rerouted, d.total_reconvergence_ns
    );
    println!(
        "  delivered  : {} packets ({} load-dropped), accepted {:.4} bytes/ns/node, \
         p99 latency {} ns",
        r.delivered,
        r.dropped,
        r.accepted_bytes_per_ns_per_node,
        r.latency.quantile(0.99)
    );
    let surv = |s: &ib_fabric::PathSurvival| {
        format!(
            "{:.2} of {} paths/pair (min {}, {} pairs disconnected)",
            s.avg_per_pair(),
            s.lids_per_node,
            s.min_per_pair,
            s.disconnected_pairs
        )
    };
    println!(
        "  survival   : {} keeps {}",
        d.survival.kind.as_str().to_uppercase(),
        surv(&d.survival)
    );
    println!("    vs SLID  : {}", surv(&d.slid_survival));
    println!("  tier loads : all-to-all channel load, healthy -> degraded");
    for l in &d.level_loads {
        println!(
            "    levels {}-{}: max {} -> {}, mean {:.2} -> {:.2}",
            l.level,
            l.level + 1,
            l.healthy_max,
            l.degraded_max,
            l.healthy_mean,
            l.degraded_mean
        );
    }
    Ok(())
}

fn sweep(cmd: &Cmd, fabric: &Fabric) -> Result<(), String> {
    let reports = fabric
        .experiment()
        .virtual_lanes(cmd.vls)
        .traffic(pattern_of(cmd, fabric))
        .duration_ns(cmd.time_ns)
        .route_backend(cmd.route_backend)
        .run_sweep(&cmd.loads);
    println!("offered,accepted,avg_latency_ns,p99_latency_ns,delivered,dropped");
    for r in &reports {
        println!(
            "{},{},{},{},{},{}",
            r.offered_load,
            r.accepted_bytes_per_ns_per_node,
            r.avg_latency_ns(),
            r.latency.quantile(0.99),
            r.delivered,
            r.dropped
        );
    }
    Ok(())
}
