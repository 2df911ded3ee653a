//! End-to-end CLI command tests (through the library layer; the report
//! goes to a sink, so these assert on success/failure and side effects).

use ib_fabric::{NoopProbe, PhaseProfile};
use ibfat_cli::{args, commands};

fn run(line: &str) -> Result<(), String> {
    let argv: Vec<String> = line.split_whitespace().map(String::from).collect();
    let cmd = args::parse(&argv).map_err(|e| format!("parse: {e}"))?;
    commands::run(cmd, &mut std::io::sink()).map_err(|e| e.to_string())
}

#[test]
fn info_runs_for_all_schemes() {
    for scheme in ["mlid", "slid", "updown"] {
        run(&format!("info 4x2 --scheme {scheme}")).unwrap();
    }
}

#[test]
fn info_json_runs() {
    run("info 8x2 --json").unwrap();
}

#[test]
fn route_by_id_and_label() {
    run("route 4x3 0 4").unwrap();
    run("route 4x3 P(000) P(100)").unwrap();
    run("route 4x3 0 4 --json").unwrap();
}

#[test]
fn route_rejects_bad_nodes() {
    assert!(run("route 4x2 0 99").is_err());
    assert!(run("route 4x3 P(999) 0").is_err());
}

#[test]
fn verify_small_fabric() {
    run("verify 4x2").unwrap();
    run("verify 4x2 --scheme slid").unwrap();
}

#[test]
fn discover_reports() {
    run("discover 4x3").unwrap();
    // up*/down* is not installable by the fat-tree SM.
    assert!(run("discover 4x2 --scheme updown").is_err());
}

#[test]
fn simulate_and_sweep_run() {
    run("simulate 4x2 --load 0.2 --time-us 30 --seed 1").unwrap();
    run("simulate 4x2 --pattern centric --vls 2 --time-us 30").unwrap();
    run("simulate 4x2 --pattern bitcomp --time-us 30").unwrap();
    run("sweep 4x2 --loads 0.2,0.5 --time-us 30").unwrap();
}

#[test]
fn run_alias_works_end_to_end() {
    run("run 4x2 --load 0.2 --time-us 30 --seed 1").unwrap();
}

#[test]
fn failed_links_flow_through() {
    run("simulate 4x2 --fail-links 8 --time-us 30").unwrap();
    assert!(run("simulate 4x2 --fail-links 9999 --time-us 30").is_err());
}

#[test]
fn invalid_fabric_is_an_error_not_a_panic() {
    assert!(run("info 6x2").is_err());
    // Port numbers are bytes with port 0 reserved: 256 ports cannot be
    // numbered.
    assert!(run("info 256x1").is_err());
}

#[test]
fn disconnected_source_is_a_clean_error_not_a_panic() {
    // Link 8 is node 0's injection cable on FT(4,2). A workload message
    // from an uncabled node can never complete; this used to blow up as
    // a "workload stalled" engine panic — it must be a clean error now.
    let err = run("workload 4x2 --kind alltoall --fail-links 8").unwrap_err();
    assert!(err.contains("endport is uncabled"), "{err}");
    // Pattern mode tolerates the same damage: the island neither sends
    // nor receives, everything else keeps flowing.
    run("simulate 4x2 --fail-links 8 --time-us 30").unwrap();
}

#[test]
fn faults_runs_in_text_and_json() {
    run("faults 4x2 --kill 1 --time-us 40 --seed 3").unwrap();
    run(
        "faults 4x2 --kill 2 --policy stall --at 10000 --detect-ns 2000 \
         --per-switch-ns 50 --time-us 40 --json",
    )
    .unwrap();
    // Guard rails: schemes without patch repair, static
    // damage mixed with scheduled damage, impossible kill counts, and a
    // fault past the end of the run are all clean errors.
    assert!(run("faults 4x2 --scheme updown --time-us 40").is_err());
    assert!(run("faults 4x2 --fail-links 3 --time-us 40").is_err());
    assert!(run("faults 4x2 --kill 500 --time-us 40").is_err());
    assert!(run("faults 4x2 --at 99999999 --time-us 40").is_err());
}

/// Collect the faulted-run analysis for one `faults` command line.
fn disrupt(line: &str) -> commands::FaultsReport {
    let argv: Vec<String> = line.split_whitespace().map(String::from).collect();
    let cmd = args::parse(&argv).unwrap();
    let fabric = ib_fabric::Fabric::builder(cmd.m, cmd.n)
        .routing(cmd.scheme)
        .build()
        .unwrap();
    commands::collect_faults(&cmd, &fabric).unwrap()
}

#[test]
fn faults_disruption_pins_the_mlid_survival_story() {
    let out = disrupt("faults 4x3 --kill 2 --seed 5 --time-us 60");
    assert_eq!(out.killed_links.len(), 2);
    assert_eq!(out.disruption.faults.len(), 2);
    // Drop policy: the stale-table window really lost packets, and the
    // disruption view mirrors the engine's counters exactly.
    assert!(out.report.fault_lost > 0);
    assert_eq!(out.disruption.packets_lost, out.report.fault_lost);
    // Patch-level repair: each fault touched some entries but nowhere
    // near the full table a from-scratch rebuild would push.
    for f in &out.disruption.faults {
        assert!(f.entries_patched > 0);
        assert!(f.entries_patched < f.table_entries);
    }
    // The paper's claim, live: MLID's 2^LMC LIDs keep more surviving
    // paths per pair than the single-path SLID baseline.
    assert!(
        out.disruption.survival.surviving_paths > out.disruption.slid_survival.surviving_paths,
        "mlid {} vs slid {}",
        out.disruption.survival.surviving_paths,
        out.disruption.slid_survival.surviving_paths
    );
}

#[test]
fn a_stall_run_loses_nothing_at_dead_ports_but_discards_past_its_turn() {
    // `faults 8x3 --kill 2 --policy stall`: no packet dies at a dead
    // port, yet some are discarded. Each discard is a packet the repaired
    // rows leave without an entry (up*/down* cannot climb back once a
    // packet has turned down), so none falls before the reprogram.
    let line = "faults 8x3 --kill 2 --policy stall";
    let out = disrupt(line);
    assert_eq!(out.report.fault_lost, 0);
    assert!(out.report.dropped > 0, "the stall run must discard");
    let reprogram = out
        .disruption
        .faults
        .iter()
        .map(|f| f.reprogram_at_ns)
        .min();
    let argv: Vec<String> = line.split_whitespace().map(String::from).collect();
    let cmd = args::parse(&argv).unwrap();
    let fabric = ib_fabric::Fabric::builder(cmd.m, cmd.n).build().unwrap();
    let cfg = ib_fabric::SimConfig {
        num_vls: cmd.vls,
        faults: out.plan.clone(),
        ..ib_fabric::SimConfig::default()
    };
    let recorder = ib_fabric::FlightRecorder::new(
        u32::try_from(out.report.generated).unwrap(),
        ib_fabric::TraceSampling::FirstN,
        1,
    );
    let (report, recorder) = ib_fabric::sim::run(
        fabric.network(),
        fabric.routing(),
        cfg,
        cmd.pattern.clone().unwrap(),
        ib_fabric::RunSpec::new(cmd.load, cmd.time_ns),
        recorder,
    )
    .unwrap();
    assert_eq!(
        report.dropped, out.report.dropped,
        "the traced run is the same run"
    );
    let drops: Vec<u64> = recorder
        .traces()
        .iter()
        .flat_map(|t| &t.events)
        .filter(|(_, ev)| matches!(ev, ib_fabric::TraceEvent::Dropped { .. }))
        .map(|&(at, _)| at)
        .collect();
    assert_eq!(drops.len() as u64, report.dropped);
    assert!(
        drops.iter().all(|&at| Some(at) >= reprogram),
        "a discard before the reprogram at {reprogram:?}: {drops:?}"
    );
}

#[test]
fn faults_json_is_byte_identical_across_runs() {
    // End-to-end through the real binary: the faults JSON deliberately
    // excludes wall-clock fields, so two runs of the same command must
    // print the exact same bytes.
    let exe = env!("CARGO_BIN_EXE_ibfat");
    let out = |extra: &[&str]| {
        let mut args = vec![
            "faults",
            "4x3",
            "--kill",
            "2",
            "--time-us",
            "60",
            "--seed",
            "5",
            "--json",
        ];
        args.extend_from_slice(extra);
        let o = std::process::Command::new(exe)
            .args(&args)
            .output()
            .unwrap();
        assert!(
            o.status.success(),
            "ibfat {args:?} failed: {}",
            String::from_utf8_lossy(&o.stderr)
        );
        o.stdout
    };
    let first = out(&[]);
    assert!(!first.is_empty());
    assert_eq!(out(&[]), first, "a rerun changed the bytes");
}

#[test]
fn malformed_run_inputs_are_clean_errors_not_panics() {
    // Each of these once reached an assertion inside the engine and
    // exited 101 (or names a removed flag); they must fail at parse time
    // with exit code 2 and an `error:` line.
    let exe = env!("CARGO_BIN_EXE_ibfat");
    for line in [
        "run 4x3 --time-us 0",
        "run 4x3 --vls 16",
        "run 4x3 --vls 0",
        "run 4x3 --load 0",
        "run 4x3 --load nan",
        "sweep 4x3 --loads -1",
        // The sharded engine's knobs are gone, not silently ignored.
        "run 4x3 --threads 2",
        "run 4x3 --partition block",
        "run 4x3 --telemetry",
        // The lookup is chosen per run; the selection flags are gone.
        "run 4x3 --route-backend oracle",
        "loads 4x3 --oracle",
    ] {
        let o = std::process::Command::new(exe)
            .args(line.split_whitespace())
            .output()
            .unwrap();
        let code = o.status.code();
        assert_eq!(code, Some(2), "`ibfat {line}` exited {code:?}");
        let stderr = String::from_utf8_lossy(&o.stderr);
        assert!(stderr.contains("error:"), "`ibfat {line}`: {stderr}");
    }
}

#[test]
fn engine_rejections_are_clean_errors_not_panics() {
    // Combinations only the engine can judge (the fabric, routing and
    // fault plan together): it rejects them before the first event, and
    // the binary prints the typed error as an `error:` line and exits 1.
    let exe = env!("CARGO_BIN_EXE_ibfat");
    for line in [
        "workload 4x2 --kind alltoall --fail-links 8",
        "faults 4x2 --scheme updown --time-us 40",
        "run 4x2 --load 1e300 --time-us 1",
    ] {
        let o = std::process::Command::new(exe)
            .args(line.split_whitespace())
            .output()
            .unwrap();
        let code = o.status.code();
        assert_eq!(code, Some(1), "`ibfat {line}` exited {code:?}");
        let stderr = String::from_utf8_lossy(&o.stderr);
        assert!(stderr.contains("error:"), "`ibfat {line}`: {stderr}");
    }
    // Overload within the packet-id budget still runs.
    run("run 4x2 --load 1000 --time-us 1").unwrap();
}

#[test]
fn counters_runs_in_text_and_json() {
    run("counters 4x2 --time-us 30").unwrap();
    run("counters 4x2 --pattern centric --scheme slid --load 0.6 --time-us 30 --top 3").unwrap();
    run("counters 4x2 --time-us 30 --sample-interval-ns 2000 --vls 2 --json").unwrap();
}

#[test]
fn loads_runs_in_text_and_json() {
    run("loads 4x2").unwrap();
    run("loads 4x3 --scheme slid --top 3").unwrap();
    run("loads 4x2 --json").unwrap();
    run("loads 4x3 --hotspot P(000)").unwrap();
    // A tolerable inter-switch failure still analyzes; severing node 0's
    // edge cable (link 8) makes the all-to-all matrix unroutable, which is
    // a clean error, not a panic.
    run("loads 4x2 --fail-links 3").unwrap();
    assert!(run("loads 4x2 --fail-links 8").is_err());
    assert!(run("loads 4x2 --hotspot 99").is_err());
}

/// Collect the dense load analysis for one `loads` command line.
fn analyze(line: &str) -> commands::LoadsReport {
    let argv: Vec<String> = line.split_whitespace().map(String::from).collect();
    let cmd = args::parse(&argv).unwrap();
    let fabric = ib_fabric::Fabric::builder(cmd.m, cmd.n)
        .routing(cmd.scheme)
        .build()
        .unwrap();
    commands::collect_loads(&cmd, &fabric).unwrap()
}

#[test]
fn loads_pin_the_papers_table_story_on_ft_4_3() {
    // The paper's Table comparison: MLID's source-partitioned up-links keep
    // the hot-spot column at one flow per upward channel, while SLID
    // funnels the whole column through the destination's single DLID path.
    let mlid = analyze("loads 4x3 --hotspot 0 --scheme mlid");
    let slid = analyze("loads 4x3 --hotspot 0 --scheme slid");
    assert_eq!(mlid.loads.max_up, 1);
    assert!(
        mlid.loads.max_up < slid.loads.max_up,
        "MLID max-up {} must beat SLID's {}",
        mlid.loads.max_up,
        slid.loads.max_up
    );
    assert_eq!(mlid.flows, 15);

    // All-to-all is the symmetric matrix both schemes balance perfectly
    // (every leaf up-link carries N-2 = 14 flows), so MLID is never worse.
    let mlid = analyze("loads 4x3");
    let slid = analyze("loads 4x3 --scheme slid");
    assert_eq!(mlid.flows, 16 * 15);
    assert_eq!(mlid.max_injection, 15);
    assert!(mlid.loads.max_up <= slid.loads.max_up);
    assert_eq!(mlid.loads.max_up, 14);

    // Roll-up structure: roots have no up-ports; FT(4,3) has 3 levels.
    assert_eq!(mlid.levels.len(), 3);
    assert_eq!(mlid.levels[0].level, 0);
    assert_eq!(mlid.levels[0].up_links, 0);
    assert_eq!(mlid.levels[0].max_up, 0);
    assert!(mlid.levels[1].up_links > 0 && mlid.levels[2].up_links > 0);
}

#[test]
fn workload_runs_in_text_and_json() {
    run("workload 4x2 --kind allreduce-ring --bytes 1024").unwrap();
    run("workload 4x2 --kind alltoall --bytes 512 --scheme slid --json").unwrap();
    run("workload 4x2 --kind bcast --vls 2").unwrap();
    run("workload 4x2 --kind closed-loop --in-flight 2 --messages 4 --seed 5").unwrap();
    // FT(4,2) has 8 nodes, a power of two, so recursive doubling runs…
    run("workload 4x2 --kind allreduce-rd --bytes 256").unwrap();
    // …and a missing trace file is a clean error, not a panic.
    assert!(run("workload 4x2 --kind replay --trace /nonexistent.jsonl").is_err());
}

/// Drive one `workload` command line and return its report.
fn drive(line: &str) -> ib_fabric::WorkloadReport {
    let argv: Vec<String> = line.split_whitespace().map(String::from).collect();
    let cmd = args::parse(&argv).unwrap();
    let fabric = ib_fabric::Fabric::builder(cmd.m, cmd.n)
        .routing(cmd.scheme)
        .build()
        .unwrap();
    commands::collect_workload(&cmd, &fabric, NoopProbe)
        .unwrap()
        .0
}

#[test]
fn workload_trace_round_trips_through_record_and_replay() {
    // Record a generated collective to JSONL, replay it through the CLI
    // path, and require the exact same simulation outcome.
    let fabric = ib_fabric::Fabric::builder(4, 2).build().unwrap();
    let wl = ib_fabric::generators::all_to_all(fabric.num_nodes(), 512);
    let jsonl = ib_fabric::workload_trace::to_jsonl(&wl);
    let path = std::env::temp_dir().join("ibfat_cli_roundtrip.jsonl");
    std::fs::write(&path, &jsonl).unwrap();

    let direct = drive("workload 4x2 --kind alltoall --bytes 512");
    let replayed = drive(&format!(
        "workload 4x2 --kind replay --trace {}",
        path.display()
    ));
    std::fs::remove_file(&path).ok();
    // Groups carry the generator's name vs "replay"; everything measured
    // must agree.
    assert_eq!(replayed.makespan_ns, direct.makespan_ns);
    assert_eq!(replayed.latency, direct.latency);
    assert_eq!(replayed.timings, direct.timings);
}

#[test]
fn trace_and_profile_run_end_to_end() {
    run("trace 4x2 --packets 4 --time-us 30 --seed 1").unwrap();
    run("trace 4x2 --one-in 2 --time-us 30").unwrap();
    run("trace 4x2 --pairs 0:1,2:3 --time-us 30").unwrap();
    // Node ids are checked against the fabric, as `route` checks them.
    let err = run("trace 4x2 --pairs 0:999 --time-us 5").unwrap_err();
    assert_eq!(err, "node ids must be < 8");
    assert!(run("trace 4x2 --pairs 8:0 --time-us 5").is_err());
    assert_eq!(run("route 4x2 0 999").unwrap_err(), err);
    run("workload 4x2 --kind bcast --profile").unwrap();
    run("workload 4x2 --kind bcast --profile --json").unwrap();
}

/// Render the flight-recorder JSONL for one `trace` command line.
fn record(line: &str) -> String {
    let argv: Vec<String> = line.split_whitespace().map(String::from).collect();
    let cmd = args::parse(&argv).unwrap();
    let fabric = ib_fabric::Fabric::builder(cmd.m, cmd.n)
        .routing(cmd.scheme)
        .build()
        .unwrap();
    commands::collect_trace(&cmd, &fabric).unwrap()
}

#[test]
fn trace_jsonl_shows_the_slid_hot_spot_credit_stalls_mlid_avoids() {
    // The paper's motivating scenario at packet granularity: under
    // hot-spot traffic, SLID funnels every flow through ONE root, so the
    // recorded packets sit credit-stalled at that single root switch;
    // MLID spreads the same flows and its (fewer per-root) stall spans
    // split evenly across the roots. Total stalls don't discriminate —
    // the endpoint link saturates under either scheme — the *location*
    // does, exactly like the counters-level hot-spot test above.
    let params = ib_fabric::TreeParams::new(4, 2).unwrap();
    let root_stalls = |doc: &str| {
        let mut per_root = std::collections::BTreeMap::new();
        for l in doc.lines() {
            let v = ib_fabric::json::parse(l).expect("valid JSONL line");
            let span = v.as_object("span").unwrap();
            span.field("slot").unwrap();
            span.field("dlid").unwrap();
            for ev in span.field("events").unwrap().as_array("events").unwrap() {
                let ev = ev.as_object("event").unwrap();
                if ev.field("ev").unwrap().as_string("ev").unwrap() != "credit_stalled" {
                    continue;
                }
                let sw = ev.field("sw").unwrap().as_u64("sw").unwrap() as u32;
                let label = ib_fabric::SwitchLabel::from_id(params, ib_fabric::SwitchId(sw));
                if label.level().index() == 0 {
                    *per_root.entry(sw).or_insert(0u64) += 1;
                }
            }
        }
        per_root
    };
    let line = |scheme: &str| {
        format!(
            "trace 4x2 --pattern centric --load 0.8 --time-us 150 --seed 11 \
             --packets 64 --scheme {scheme}"
        )
    };
    let slid = root_stalls(&record(&line("slid")));
    let mlid = root_stalls(&record(&line("mlid")));
    assert!(
        !slid.is_empty() && !mlid.is_empty(),
        "roots must stall under centric load"
    );

    // SLID: nearly every root-level stall happens at the one root its
    // single path per destination selects. MLID: both roots carry flows,
    // so neither dominates.
    let share = |m: &std::collections::BTreeMap<u32, u64>| {
        let total: u64 = m.values().sum();
        let max = m.values().copied().max().unwrap_or(0);
        max as f64 / total as f64
    };
    let (s, m) = (share(&slid), share(&mlid));
    assert!(
        s > 0.75,
        "slid must concentrate root stalls on one root (share {s:.2})"
    );
    assert!(
        m < 0.65,
        "mlid must spread root stalls across roots (share {m:.2})"
    );
}

#[test]
fn trace_jsonl_is_byte_identical_across_runs() {
    let line = "trace 4x2 --pattern centric --load 0.6 --time-us 60 --seed 3 \
                --packets 32 --one-in 2";
    let first = record(line);
    assert_eq!(first.lines().count(), 32, "every slot must fill");
    for l in first.lines() {
        ib_fabric::json::parse(l).expect("valid JSONL line");
    }
    assert_eq!(record(line), first);
}

#[test]
fn workload_profile_rides_along_without_changing_the_report() {
    let argv: Vec<String> = "workload 4x2 --kind alltoall --bytes 512"
        .split_whitespace()
        .map(String::from)
        .collect();
    let cmd = args::parse(&argv).unwrap();
    let fabric = ib_fabric::Fabric::builder(cmd.m, cmd.n)
        .routing(cmd.scheme)
        .build()
        .unwrap();
    let (report, profile) = commands::collect_workload(&cmd, &fabric, PhaseProfile::new()).unwrap();
    assert_eq!(
        report,
        commands::collect_workload(&cmd, &fabric, NoopProbe)
            .unwrap()
            .0
    );
    assert_eq!(profile.total_events(), report.events);
    assert!(profile.total_wall_ns() > 0);
}

/// Collect counters for one `counters` command line.
fn collect(line: &str) -> commands::CountersReport {
    let argv: Vec<String> = line.split_whitespace().map(String::from).collect();
    let cmd = args::parse(&argv).unwrap();
    let fabric = ib_fabric::Fabric::builder(cmd.m, cmd.n)
        .routing(cmd.scheme)
        .build()
        .unwrap();
    commands::collect_counters(&cmd, &fabric).unwrap()
}

#[test]
fn counters_expose_the_slid_root_hot_spot_that_mlid_avoids() {
    // The paper's motivating scenario: under hot-spot traffic, SLID funnels
    // every flow towards a destination through the single root its one DLID
    // selects, while MLID spreads the same flows over all roots. The root
    // level's peak port utilization must show exactly that.
    let line = |scheme: &str| {
        format!(
            "counters 4x2 --pattern centric --load 0.8 --time-us 150 --seed 11 --scheme {scheme}"
        )
    };
    let slid = collect(&line("slid"));
    let mlid = collect(&line("mlid"));

    let slid_roots = &slid.levels[0];
    let mlid_roots = &mlid.levels[0];
    assert_eq!(slid_roots.level, 0);

    // Both runs push real traffic through the roots.
    assert!(slid_roots.active_ports > 0 && mlid_roots.active_ports > 0);
    assert!(slid.report.delivered > 0 && mlid.report.delivered > 0);

    // SLID concentrates: its busiest root port is markedly hotter than
    // MLID's (FT(4,2) has two roots, so spreading roughly halves the peak).
    assert!(
        slid_roots.max_utilization > 1.3 * mlid_roots.max_utilization,
        "slid root peak {:.3} not clearly above mlid's {:.3}",
        slid_roots.max_utilization,
        mlid_roots.max_utilization
    );

    // The saturated port is a real, identifiable switch port that the MLID
    // run leaves cooler: the same port under MLID carries fewer bytes.
    let (sw, port) = slid_roots.max_port.expect("slid roots carried traffic");
    let slid_bytes = slid.counters.port(sw, port - 1).xmit_bytes;
    let mlid_bytes = mlid.counters.port(sw, port - 1).xmit_bytes;
    assert!(
        slid_bytes > mlid_bytes,
        "port S{sw} p{port}: slid {slid_bytes} B <= mlid {mlid_bytes} B"
    );

    // MLID balances: its root level is closer to uniform, so its
    // peak-to-mean ratio sits well below SLID's. (Total root xmit-wait is
    // NOT a concentration signal — MLID keeps more root ports busy toward
    // the saturated subtree, so its aggregate wait can be higher.)
    let imbalance = |l: &commands::LevelSummary| l.max_utilization / l.mean_utilization;
    assert!(
        imbalance(slid_roots) > 1.5 * imbalance(mlid_roots),
        "slid root imbalance {:.2} not clearly above mlid's {:.2}",
        imbalance(slid_roots),
        imbalance(mlid_roots)
    );
}

#[test]
fn counters_level_means_average_over_cabled_ports() {
    // FT(4,2) without link 8 (a leaf's cable to its node): level 1 keeps
    // 15 of its 16 ports cabled, and its mean utilization averages over
    // those 15. The intact tree averages over every port.
    for line in [
        "counters 4x2 --time-us 50",
        "counters 4x2 --fail-links 8 --time-us 50",
    ] {
        let argv: Vec<String> = line.split_whitespace().map(String::from).collect();
        let cmd = args::parse(&argv).unwrap();
        let fabric = ib_fabric::Fabric::builder(cmd.m, cmd.n)
            .build()
            .unwrap()
            .with_failed_links(&cmd.fail_links);
        let res = commands::collect_counters(&cmd, &fabric).unwrap();
        let net = fabric.network();
        let params = fabric.params();
        let span = res.report.sim_time_ns as f64;
        for l in &res.levels {
            let (mut busy, mut cabled) = (0.0, 0);
            for sw in (0..params.num_switches()).filter(|&sw| params.switch_level_of(sw) == l.level)
            {
                cabled += net.switch(ib_fabric::SwitchId(sw)).peers().count();
                for port in 0..params.m() as u8 {
                    busy += res.counters.port(sw, port).xmit_bytes as f64 / span;
                }
            }
            let cut = usize::from(l.level == 1 && !cmd.fail_links.is_empty());
            let expect_cabled = (params.switches_at_level(l.level) * params.m()) as usize - cut;
            assert_eq!(cabled, expect_cabled, "{line}: level {}", l.level);
            let mean = busy / cabled as f64;
            assert!(
                (l.mean_utilization - mean).abs() < 1e-12,
                "{line}: level {} mean {} != {mean}",
                l.level,
                l.mean_utilization
            );
        }
    }
}

#[test]
fn a_closed_stdout_ends_every_subcommand_quietly() {
    // `ibfat … | head -1`: the reader is gone before the report is
    // written. Each subcommand must exit 0 with nothing on stderr, not
    // panic with "failed printing to stdout" (exit 101).
    let exe = env!("CARGO_BIN_EXE_ibfat");
    for line in [
        "info 4x2",
        "route 4x2 0 5",
        "verify 4x2",
        "discover 4x2",
        "run 4x2 --time-us 20",
        "run 4x2 --time-us 20 --json",
        "sweep 4x2 --loads 0.1,0.2 --time-us 20",
        "counters 4x2 --time-us 20",
        "loads 4x2",
        "workload 4x2 --kind alltoall",
        "trace 4x2 --time-us 20",
        "faults 4x2 --kill 1 --time-us 20",
        "faults 4x2 --kill 1 --time-us 20 --json",
    ] {
        let mut child = std::process::Command::new(exe)
            .args(line.split_whitespace())
            .stdout(std::process::Stdio::piped())
            .stderr(std::process::Stdio::piped())
            .spawn()
            .expect("binary runs");
        drop(child.stdout.take());
        let out = child.wait_with_output().expect("binary exits");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "`ibfat {line}`: {stderr}");
        assert!(stderr.is_empty(), "`ibfat {line}`: {stderr}");
    }
}
