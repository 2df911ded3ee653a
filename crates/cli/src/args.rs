//! Argument parsing for the `ibfat` CLI (no external parser crate).
#![allow(clippy::module_name_repetitions)]

use ib_fabric::{FaultPolicy, NodeId, RouteBackend, RoutingKind, TraceSampling, TrafficPattern};

/// Usage text.
pub const USAGE: &str = "\
usage: ibfat <command> <MxN> [options]

commands:
  info <MxN>                     network facts (Table-1 row)
  route <MxN> <src> <dst>        trace the selected route
  verify <MxN>                   delivery / minimality / deadlock checks
  discover <MxN>                 subnet-manager sweep + label recovery
  simulate <MxN>                 one simulation run (alias: run)
  sweep <MxN>                    load sweep, CSV on stdout
  counters <MxN>                 one run + IB-style port counters and
                                 per-level utilization (hot-spot view)
  loads <MxN>                    static channel-load analysis (no
                                 simulation): all-to-all flow counts per
                                 link, rolled up by tree level
  workload <MxN>                 drive a message-level workload (collective,
                                 closed-loop, or trace replay) to completion
                                 and report per-message latency + skew
  trace <MxN>                    flight recorder: run once and emit sampled
                                 per-packet lifecycle spans (inject, per-hop
                                 arbitration, credit stalls, deliver) as
                                 JSONL on stdout
  faults <MxN>                   live fault injection: kill seeded
                                 inter-switch cables mid-run, let the SM
                                 reconverge with incremental LFT patches,
                                 and report the disruption (packets lost /
                                 stalled / rerouted, reconvergence cost,
                                 MLID-vs-SLID surviving paths, per-level
                                 load imbalance)

options:
  --scheme mlid|slid|updown      routing scheme        (default mlid)
  --pattern uniform|centric|bitcomp                    (default uniform)
  --load L                       offered load, (0,1]   (default 0.3)
  --loads a,b,c                  sweep grid            (default 0.1..1.0)
  --vls V                        virtual lanes         (default 1)
  --time-us T                    simulated microseconds (default 200)
  --seed S                       RNG seed
  --route-backend table|oracle   simulate/run, sweep, counters, workload,
                                 trace: forwarding-state backend — flat
                                 LFT lookups, or the closed-form routing
                                 oracle with no tables in memory
                                 (default table; oracle is mlid/slid
                                 only, pristine fabric only; reports are
                                 bit-identical across backends)
  --fail-links i,j,k             remove cables by index before anything else
  --kill K                       faults: seeded inter-switch cables to cut
                                 mid-run (default 1; selection is pinned
                                 by --seed)
  --at NS                        faults: the fault instant in simulated ns
                                 (default time/4)
  --policy drop|stall            faults: dead-port packet treatment during
                                 the stale-table window (default drop;
                                 stall is lossless — heads park until the
                                 SM reroutes them)
  --detect-ns N                  faults: SM detection latency (default 10000)
  --per-switch-ns N              faults: SM per-switch reprogram latency
                                 (default 100)
  --sample-interval-ns N         counters time-series period (default time/50)
  --top K                        ports listed in counters/loads rankings
                                 (default 8)
  --hotspot D                    loads: all-to-one matrix towards node D
                                 (id or P(...) label) instead of all-to-all
  --oracle                       loads: stream the closed-form routing
                                 oracle instead of walking the tables
                                 (mlid/slid only, pristine fabric only)
  --kind K                       workload kind: allreduce-ring|allreduce-rd|
                                 alltoall|bcast|closed-loop|replay
                                 (default allreduce-ring)
  --bytes B                      workload payload per node/message in bytes
                                 (default 4096)
  --in-flight K                  closed-loop: messages in flight per node
                                 (default 4)
  --messages M                   closed-loop: total messages per node
                                 (default 32)
  --trace FILE                   replay: JSONL trace, one
                                 {src, dst, bytes, depends_on} per line
  --packets N                    trace: flight-recorder slots (default 16)
  --one-in N                     trace: sample 1 in N flows (by flow hash;
                                 default: first packets generated)
  --pairs s:d,s:d                trace: only these (src, dst) flows
  --profile                      workload: print the engine's per-phase
                                 self-profile table after the report
  --json                         machine-readable output";

/// A parsed invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct Cmd {
    /// Which subcommand.
    pub action: Action,
    /// Ports per switch.
    pub m: u32,
    /// Tree levels.
    pub n: u32,
    /// Routing scheme.
    pub scheme: RoutingKind,
    /// Traffic pattern (None = bit-complement, instantiated later).
    pub pattern: Option<TrafficPattern>,
    /// Offered load for `simulate`.
    pub load: f64,
    /// Load grid for `sweep`.
    pub loads: Vec<f64>,
    /// Virtual lanes.
    pub vls: u8,
    /// Simulated time, ns.
    pub time_ns: u64,
    /// RNG seed.
    pub seed: Option<u64>,
    /// Forwarding-state backend for the packet engine (table or oracle).
    pub route_backend: RouteBackend,
    /// Cables to fail before acting.
    pub fail_links: Vec<usize>,
    /// `faults`: seeded inter-switch cables to cut mid-run.
    pub kill: usize,
    /// `faults`: the fault instant in ns (None = time/4).
    pub fault_at: Option<u64>,
    /// `faults`: dead-port packet treatment during the stale window.
    pub fault_policy: FaultPolicy,
    /// `faults`: SM detection latency in ns.
    pub detect_ns: u64,
    /// `faults`: SM per-switch reprogram latency in ns.
    pub per_switch_ns: u64,
    /// Time-series period for `counters` (None = duration / 50).
    pub sample_interval_ns: Option<u64>,
    /// List length for the `counters` / `loads` port rankings.
    pub top: usize,
    /// `loads`: all-to-one matrix towards this node (None = all-to-all).
    pub hotspot: Option<NodeRef>,
    /// `loads`: stream the closed-form oracle instead of the tables.
    pub oracle: bool,
    /// `workload`: which workload to drive.
    pub wl_kind: WlKind,
    /// `workload`: payload bytes per node (collectives) or per message
    /// (closed-loop).
    pub bytes: u64,
    /// `workload` closed-loop: messages kept in flight per node.
    pub in_flight: u32,
    /// `workload` closed-loop: total messages per node.
    pub messages: u32,
    /// `workload` replay: path to a JSONL trace.
    pub trace: Option<String>,
    /// `trace`: flight-recorder slots to fill.
    pub trace_packets: u32,
    /// `trace`: which flows may claim recorder slots.
    pub sampling: TraceSampling,
    /// `workload`: print the per-phase self-profile after the report.
    pub profile: bool,
    /// Emit JSON instead of text.
    pub json: bool,
}

/// The subcommands.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Action {
    Info,
    Route { src: NodeRef, dst: NodeRef },
    Verify,
    Discover,
    Simulate,
    Sweep,
    Counters,
    Loads,
    Workload,
    Trace,
    Faults,
}

/// Workload families for the `workload` subcommand.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WlKind {
    /// Ring allreduce: reduce-scatter + allgather, 2(n-1) steps.
    AllreduceRing,
    /// Recursive-doubling allreduce (power-of-two fabrics).
    AllreduceRd,
    /// Pairwise-exchange all-to-all, n-1 rounds.
    AllToAll,
    /// Binomial-tree broadcast from node 0.
    Bcast,
    /// Closed-loop uniform traffic: k messages in flight per node.
    ClosedLoop,
    /// Replay a JSONL trace (`--trace FILE`).
    Replay,
}

impl WlKind {
    fn parse(s: &str) -> Result<Self, String> {
        Ok(match s {
            "allreduce-ring" => WlKind::AllreduceRing,
            "allreduce-rd" => WlKind::AllreduceRd,
            "alltoall" => WlKind::AllToAll,
            "bcast" => WlKind::Bcast,
            "closed-loop" => WlKind::ClosedLoop,
            "replay" => WlKind::Replay,
            other => return Err(format!("unknown workload kind '{other}'")),
        })
    }

    /// Short name for reports.
    pub fn as_str(self) -> &'static str {
        match self {
            WlKind::AllreduceRing => "allreduce-ring",
            WlKind::AllreduceRd => "allreduce-rd",
            WlKind::AllToAll => "alltoall",
            WlKind::Bcast => "bcast",
            WlKind::ClosedLoop => "closed-loop",
            WlKind::Replay => "replay",
        }
    }
}

/// A node given either as a dense id (`5`) or a paper label (`P(010)`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NodeRef {
    /// Dense id.
    Id(NodeId),
    /// Label text, resolved against the fabric's parameters later.
    Label(String),
}

impl NodeRef {
    fn parse(s: &str) -> Result<Self, String> {
        if s.starts_with('P') {
            Ok(NodeRef::Label(s.to_string()))
        } else {
            Ok(NodeRef::Id(NodeId(
                s.parse().map_err(|_| format!("bad node '{s}'"))?,
            )))
        }
    }

    /// Resolve to a node id for the given parameters.
    pub fn resolve(&self, params: ib_fabric::TreeParams) -> Result<NodeId, String> {
        match self {
            NodeRef::Id(id) => Ok(*id),
            NodeRef::Label(text) => ib_fabric::NodeLabel::parse(params, text)
                .map(|l| l.id(params))
                .map_err(|e| e.to_string()),
        }
    }
}

/// Parse argv (without the program name).
pub fn parse(argv: &[String]) -> Result<Cmd, String> {
    let mut it = argv.iter();
    let action_word = it.next().ok_or("missing command")?;
    let config = it.next().ok_or("missing network size (MxN)")?;
    let (m, n) = parse_config(config)?;

    let mut positional: Vec<&String> = Vec::new();
    let mut cmd = Cmd {
        action: Action::Info, // placeholder until resolved below
        m,
        n,
        scheme: RoutingKind::Mlid,
        pattern: Some(TrafficPattern::Uniform),
        load: 0.3,
        loads: vec![0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0],
        vls: 1,
        time_ns: 200_000,
        seed: None,
        route_backend: RouteBackend::Table,
        fail_links: Vec::new(),
        kill: 1,
        fault_at: None,
        fault_policy: FaultPolicy::Drop,
        detect_ns: 10_000,
        per_switch_ns: 100,
        sample_interval_ns: None,
        top: 8,
        hotspot: None,
        oracle: false,
        wl_kind: WlKind::AllreduceRing,
        bytes: 4096,
        in_flight: 4,
        messages: 32,
        trace: None,
        trace_packets: 16,
        sampling: TraceSampling::FirstN,
        profile: false,
        json: false,
    };

    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--scheme" => {
                cmd.scheme = next_value(&mut it, arg)?.parse::<RoutingKind>()?;
            }
            "--pattern" => {
                cmd.pattern = match next_value(&mut it, arg)?.as_str() {
                    "uniform" => Some(TrafficPattern::Uniform),
                    "centric" => Some(TrafficPattern::paper_centric()),
                    "bitcomp" => None,
                    other => return Err(format!("unknown pattern '{other}'")),
                };
            }
            "--load" => cmd.load = parse_load(next_value(&mut it, arg)?)?,
            "--loads" => {
                cmd.loads = next_value(&mut it, arg)?
                    .split(',')
                    .map(parse_load)
                    .collect::<Result<_, _>>()?;
            }
            "--vls" => {
                let vls: u8 = next_value(&mut it, arg)?
                    .parse()
                    .map_err(|_| "bad --vls value".to_string())?;
                if !(1..=15).contains(&vls) {
                    return Err(format!("--vls must be in 1..=15 (IBA data VLs), got {vls}"));
                }
                cmd.vls = vls;
            }
            "--time-us" => {
                let us: u64 = next_value(&mut it, arg)?
                    .parse()
                    .map_err(|_| "bad --time-us value".to_string())?;
                if us == 0 {
                    return Err("--time-us must be positive".into());
                }
                cmd.time_ns = us.checked_mul(1_000).ok_or("--time-us is too large")?;
            }
            "--seed" => {
                cmd.seed = Some(
                    next_value(&mut it, arg)?
                        .parse()
                        .map_err(|_| "bad --seed value".to_string())?,
                );
            }
            "--route-backend" => {
                cmd.route_backend = next_value(&mut it, arg)?.parse::<RouteBackend>()?;
            }
            "--fail-links" => {
                cmd.fail_links = next_value(&mut it, arg)?
                    .split(',')
                    .map(|s| s.parse().map_err(|_| format!("bad link index '{s}'")))
                    .collect::<Result<_, _>>()?;
            }
            "--kill" => {
                let k: usize = next_value(&mut it, arg)?
                    .parse()
                    .map_err(|_| "bad --kill value".to_string())?;
                if k == 0 {
                    return Err("--kill must be positive".into());
                }
                cmd.kill = k;
            }
            "--at" => {
                cmd.fault_at = Some(
                    next_value(&mut it, arg)?
                        .parse()
                        .map_err(|_| "bad --at value".to_string())?,
                );
            }
            "--policy" => {
                cmd.fault_policy = match next_value(&mut it, arg)?.as_str() {
                    "drop" => FaultPolicy::Drop,
                    "stall" => FaultPolicy::Stall,
                    other => return Err(format!("unknown policy '{other}'")),
                };
            }
            "--detect-ns" => {
                cmd.detect_ns = next_value(&mut it, arg)?
                    .parse()
                    .map_err(|_| "bad --detect-ns value".to_string())?;
            }
            "--per-switch-ns" => {
                cmd.per_switch_ns = next_value(&mut it, arg)?
                    .parse()
                    .map_err(|_| "bad --per-switch-ns value".to_string())?;
            }
            "--sample-interval-ns" => {
                let ns: u64 = next_value(&mut it, arg)?
                    .parse()
                    .map_err(|_| "bad --sample-interval-ns value".to_string())?;
                if ns == 0 {
                    return Err("--sample-interval-ns must be positive".into());
                }
                cmd.sample_interval_ns = Some(ns);
            }
            "--top" => {
                cmd.top = next_value(&mut it, arg)?
                    .parse()
                    .map_err(|_| "bad --top value".to_string())?;
            }
            "--hotspot" => cmd.hotspot = Some(NodeRef::parse(next_value(&mut it, arg)?)?),
            "--oracle" => cmd.oracle = true,
            "--kind" => cmd.wl_kind = WlKind::parse(next_value(&mut it, arg)?)?,
            "--bytes" => {
                let bytes: u64 = next_value(&mut it, arg)?
                    .parse()
                    .map_err(|_| "bad --bytes value".to_string())?;
                if bytes == 0 {
                    return Err("--bytes must be positive".into());
                }
                cmd.bytes = bytes;
            }
            "--in-flight" => {
                let k: u32 = next_value(&mut it, arg)?
                    .parse()
                    .map_err(|_| "bad --in-flight value".to_string())?;
                if k == 0 {
                    return Err("--in-flight must be positive".into());
                }
                cmd.in_flight = k;
            }
            "--messages" => {
                let m: u32 = next_value(&mut it, arg)?
                    .parse()
                    .map_err(|_| "bad --messages value".to_string())?;
                if m == 0 {
                    return Err("--messages must be positive".into());
                }
                cmd.messages = m;
            }
            "--trace" => cmd.trace = Some(next_value(&mut it, arg)?.clone()),
            "--packets" => {
                let n: u32 = next_value(&mut it, arg)?
                    .parse()
                    .map_err(|_| "bad --packets value".to_string())?;
                if n == 0 {
                    return Err("--packets must be positive".into());
                }
                cmd.trace_packets = n;
            }
            "--one-in" => {
                let n: u32 = next_value(&mut it, arg)?
                    .parse()
                    .map_err(|_| "bad --one-in value".to_string())?;
                if n == 0 {
                    return Err("--one-in must be positive".into());
                }
                cmd.sampling = TraceSampling::OneInN(n);
            }
            "--pairs" => {
                let pairs = next_value(&mut it, arg)?
                    .split(',')
                    .map(|p| {
                        let (s, d) = p
                            .split_once(':')
                            .ok_or_else(|| format!("bad pair '{p}', expected src:dst"))?;
                        Ok((
                            s.parse().map_err(|_| format!("bad src in '{p}'"))?,
                            d.parse().map_err(|_| format!("bad dst in '{p}'"))?,
                        ))
                    })
                    .collect::<Result<Vec<(u32, u32)>, String>>()?;
                if pairs.is_empty() {
                    return Err("--pairs needs at least one src:dst".into());
                }
                cmd.sampling = TraceSampling::Pairs(pairs);
            }
            "--profile" => cmd.profile = true,
            "--json" => cmd.json = true,
            other if !other.starts_with("--") => positional.push(arg),
            other => return Err(format!("unknown flag '{other}'")),
        }
    }

    cmd.action = match action_word.as_str() {
        "info" => Action::Info,
        "verify" => Action::Verify,
        "discover" => Action::Discover,
        "simulate" | "run" => Action::Simulate,
        "sweep" => Action::Sweep,
        "counters" => Action::Counters,
        "loads" => Action::Loads,
        "trace" => Action::Trace,
        "faults" => Action::Faults,
        "workload" => {
            if cmd.wl_kind == WlKind::Replay && cmd.trace.is_none() {
                return Err("--kind replay needs --trace FILE".into());
            }
            Action::Workload
        }
        "route" => {
            let [src, dst] = positional.as_slice() else {
                return Err("route needs <src> <dst> (ids or P(...) labels)".into());
            };
            Action::Route {
                src: NodeRef::parse(src)?,
                dst: NodeRef::parse(dst)?,
            }
        }
        other => return Err(format!("unknown command '{other}'")),
    };
    Ok(cmd)
}

fn parse_config(s: &str) -> Result<(u32, u32), String> {
    let (m, n) = s
        .split_once(['x', 'X'])
        .ok_or_else(|| format!("expected MxN, got '{s}'"))?;
    Ok((
        m.parse().map_err(|_| "bad port count".to_string())?,
        n.parse().map_err(|_| "bad level count".to_string())?,
    ))
}

fn next_value<'a>(it: &mut std::slice::Iter<'a, String>, flag: &str) -> Result<&'a String, String> {
    it.next().ok_or_else(|| format!("missing value for {flag}"))
}

/// An offered load: a positive, finite number.
fn parse_load(s: &str) -> Result<f64, String> {
    match s.parse::<f64>() {
        Ok(load) if load > 0.0 && load.is_finite() => Ok(load),
        Ok(_) => Err(format!("load must be positive and finite, got '{s}'")),
        Err(_) => Err(format!("bad load '{s}'")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_info() {
        let cmd = parse(&argv("info 8x3")).unwrap();
        assert_eq!(cmd.action, Action::Info);
        assert_eq!((cmd.m, cmd.n), (8, 3));
        assert_eq!(cmd.scheme, RoutingKind::Mlid);
    }

    #[test]
    fn parses_route_with_scheme() {
        let cmd = parse(&argv("route 4x3 0 15 --scheme slid")).unwrap();
        assert_eq!(
            cmd.action,
            Action::Route {
                src: NodeRef::Id(NodeId(0)),
                dst: NodeRef::Id(NodeId(15))
            }
        );
        assert_eq!(cmd.scheme, RoutingKind::Slid);
    }

    #[test]
    fn parses_route_with_labels() {
        let cmd = parse(&argv("route 4x3 P(000) P(100)")).unwrap();
        let Action::Route { src, dst } = cmd.action else {
            panic!("expected route");
        };
        let params = ib_fabric::TreeParams::new(4, 3).unwrap();
        assert_eq!(src.resolve(params).unwrap(), NodeId(0));
        assert_eq!(dst.resolve(params).unwrap(), NodeId(4));
        assert!(NodeRef::Label("P(9)".into()).resolve(params).is_err());
    }

    #[test]
    fn parses_simulate_options() {
        let cmd = parse(&argv(
            "simulate 16x2 --pattern centric --load 0.4 --vls 2 --time-us 300 --seed 7 --json",
        ))
        .unwrap();
        assert_eq!(cmd.action, Action::Simulate);
        assert_eq!(cmd.pattern, Some(TrafficPattern::paper_centric()));
        assert!((cmd.load - 0.4).abs() < 1e-12);
        assert_eq!(cmd.vls, 2);
        assert_eq!(cmd.time_ns, 300_000);
        assert_eq!(cmd.seed, Some(7));
        assert!(cmd.json);
    }

    #[test]
    fn parses_sweep_loads_and_failures() {
        let cmd = parse(&argv("sweep 8x2 --loads 0.1,0.5 --fail-links 3,9")).unwrap();
        assert_eq!(cmd.action, Action::Sweep);
        assert_eq!(cmd.loads, vec![0.1, 0.5]);
        assert_eq!(cmd.fail_links, vec![3, 9]);
    }

    #[test]
    fn parses_counters_options() {
        let cmd = parse(&argv(
            "counters 4x2 --scheme slid --pattern centric --sample-interval-ns 5000 --top 3",
        ))
        .unwrap();
        assert_eq!(cmd.action, Action::Counters);
        assert_eq!(cmd.scheme, RoutingKind::Slid);
        assert_eq!(cmd.sample_interval_ns, Some(5000));
        assert_eq!(cmd.top, 3);
        // Defaults: auto interval, top 8.
        let cmd = parse(&argv("counters 4x2")).unwrap();
        assert_eq!(cmd.sample_interval_ns, None);
        assert_eq!(cmd.top, 8);
        assert!(parse(&argv("counters 4x2 --sample-interval-ns 0")).is_err());
        assert!(parse(&argv("counters 4x2 --top many")).is_err());
    }

    #[test]
    fn parses_loads_options() {
        let cmd = parse(&argv("loads 4x3 --scheme slid --hotspot 0 --top 4")).unwrap();
        assert_eq!(cmd.action, Action::Loads);
        assert_eq!(cmd.scheme, RoutingKind::Slid);
        assert_eq!(cmd.hotspot, Some(NodeRef::Id(NodeId(0))));
        assert_eq!(cmd.top, 4);
        assert!(!cmd.oracle);
        // Defaults: all-to-all, table-walked.
        let cmd = parse(&argv("loads 8x3 --oracle")).unwrap();
        assert_eq!(cmd.hotspot, None);
        assert!(cmd.oracle);
        // Labels resolve later, like `route` arguments.
        let cmd = parse(&argv("loads 4x3 --hotspot P(000)")).unwrap();
        assert_eq!(cmd.hotspot, Some(NodeRef::Label("P(000)".into())));
        assert!(parse(&argv("loads 4x3 --hotspot")).is_err());
    }

    #[test]
    fn parses_workload_options() {
        let cmd = parse(&argv(
            "workload 8x3 --kind alltoall --bytes 2048 --scheme slid",
        ))
        .unwrap();
        assert_eq!(cmd.action, Action::Workload);
        assert_eq!(cmd.wl_kind, WlKind::AllToAll);
        assert_eq!(cmd.bytes, 2048);
        assert_eq!(cmd.scheme, RoutingKind::Slid);
        // Defaults.
        let cmd = parse(&argv("workload 4x2")).unwrap();
        assert_eq!(cmd.wl_kind, WlKind::AllreduceRing);
        assert_eq!((cmd.bytes, cmd.in_flight, cmd.messages), (4096, 4, 32));
        // Closed-loop knobs.
        let cmd = parse(&argv(
            "workload 4x2 --kind closed-loop --in-flight 2 --messages 8",
        ))
        .unwrap();
        assert_eq!(cmd.wl_kind, WlKind::ClosedLoop);
        assert_eq!((cmd.in_flight, cmd.messages), (2, 8));
        // Replay requires a trace file; zero knobs are rejected.
        assert!(parse(&argv("workload 4x2 --kind replay")).is_err());
        let cmd = parse(&argv("workload 4x2 --kind replay --trace t.jsonl")).unwrap();
        assert_eq!(cmd.trace.as_deref(), Some("t.jsonl"));
        assert!(parse(&argv("workload 4x2 --kind nope")).is_err());
        assert!(parse(&argv("workload 4x2 --bytes 0")).is_err());
        assert!(parse(&argv("workload 4x2 --in-flight 0")).is_err());
        assert!(parse(&argv("workload 4x2 --messages 0")).is_err());
    }

    #[test]
    fn parses_trace_options() {
        let cmd = parse(&argv("trace 4x2 --packets 8 --one-in 3 --scheme slid")).unwrap();
        assert_eq!(cmd.action, Action::Trace);
        assert_eq!(cmd.trace_packets, 8);
        assert_eq!(cmd.sampling, TraceSampling::OneInN(3));
        assert_eq!(cmd.scheme, RoutingKind::Slid);
        // Defaults: 16 slots, first packets generated.
        let cmd = parse(&argv("trace 4x2")).unwrap();
        assert_eq!(cmd.trace_packets, 16);
        assert_eq!(cmd.sampling, TraceSampling::FirstN);
        // Explicit flow filters.
        let cmd = parse(&argv("trace 4x2 --pairs 0:5,3:1")).unwrap();
        assert_eq!(cmd.sampling, TraceSampling::Pairs(vec![(0, 5), (3, 1)]));
        assert!(parse(&argv("trace 4x2 --packets 0")).is_err());
        assert!(parse(&argv("trace 4x2 --one-in 0")).is_err());
        assert!(parse(&argv("trace 4x2 --pairs 5")).is_err());
        assert!(parse(&argv("trace 4x2 --pairs x:1")).is_err());
    }

    #[test]
    fn parses_faults_options() {
        let cmd = parse(&argv(
            "faults 8x3 --kill 2 --at 25000 --policy stall --detect-ns 5000 --per-switch-ns 50",
        ))
        .unwrap();
        assert_eq!(cmd.action, Action::Faults);
        assert_eq!(cmd.kill, 2);
        assert_eq!(cmd.fault_at, Some(25_000));
        assert_eq!(cmd.fault_policy, FaultPolicy::Stall);
        assert_eq!((cmd.detect_ns, cmd.per_switch_ns), (5_000, 50));
        // Defaults: one seeded kill at time/4, lossy dead ports.
        let cmd = parse(&argv("faults 8x3 --json")).unwrap();
        assert_eq!(cmd.kill, 1);
        assert_eq!(cmd.fault_at, None);
        assert_eq!(cmd.fault_policy, FaultPolicy::Drop);
        assert_eq!((cmd.detect_ns, cmd.per_switch_ns), (10_000, 100));
        assert!(cmd.json);
        assert!(parse(&argv("faults 8x3 --kill 0")).is_err());
        assert!(parse(&argv("faults 8x3 --policy maybe")).is_err());
        assert!(parse(&argv("faults 8x3 --at soon")).is_err());
    }

    #[test]
    fn parses_route_backend() {
        let cmd = parse(&argv("run 4x2")).unwrap();
        assert_eq!(cmd.route_backend, RouteBackend::Table);
        let cmd = parse(&argv("run 4x2 --route-backend oracle")).unwrap();
        assert_eq!(cmd.route_backend, RouteBackend::Oracle);
        let cmd = parse(&argv("workload 4x2 --route-backend table")).unwrap();
        assert_eq!(cmd.route_backend, RouteBackend::Table);
        assert!(parse(&argv("run 4x2 --route-backend magic")).is_err());
        assert!(parse(&argv("run 4x2 --route-backend")).is_err());
    }

    #[test]
    fn parses_run_alias_and_profile_flag() {
        let cmd = parse(&argv("run 4x2")).unwrap();
        assert_eq!(cmd.action, Action::Simulate);
        assert!(!cmd.profile);
        let cmd = parse(&argv("workload 4x2 --profile")).unwrap();
        assert!(cmd.profile);
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse(&argv("bogus 4x2")).is_err());
        assert!(parse(&argv("info")).is_err());
        assert!(parse(&argv("info 4by2")).is_err());
        assert!(parse(&argv("route 4x2 0")).is_err());
        assert!(parse(&argv("info 4x2 --nope")).is_err());
        assert!(parse(&argv("simulate 4x2 --load abc")).is_err());
    }

    #[test]
    fn bitcomp_is_deferred() {
        let cmd = parse(&argv("simulate 4x2 --pattern bitcomp")).unwrap();
        assert_eq!(cmd.pattern, None);
    }
}
