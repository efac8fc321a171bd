//! `aspp` — command-line front end for the ASPP interception study.
//!
//! ```text
//! aspp case-study                       reproduce §III / Figure 1 / Table I
//! aspp usage      [--paper] [--seed N]  Figures 5–6 corpus measurement
//! aspp impact     [--paper] [--seed N] [--figure 7..12|all]
//! aspp detection  [--paper] [--seed N]  Figures 13–14
//! aspp selection  [--paper] [--seed N]  vantage-point selection study
//! aspp stealth    [--seed N]            MOAS / link-anomaly / ASPP visibility
//! aspp simulate   --victim A --attacker B [options]
//! aspp corpus     --out FILE [--prefixes N] [--seed N]
//! aspp measure    FILE                  measure an existing corpus file
//! aspp audit      [--paper] [--seed N]  invariant-audit attacked equilibria
//! aspp audit      --topology FILE | --corpus FILE [--lenient]
//! aspp feed       [--replay] [--paper] [--shards N] [--baseline] [options]
//! aspp serve      [--corpus FILE] [--restore FILE] [--checkpoint FILE] [options]
//! aspp sweep      [--paper] [--seed N] [--pairs N] [--lambda-max N] [--serial]
//! aspp defense    [--paper] [--seed N] [--policy P,..] [--deploy D,..] [options]
//! aspp scenario   [--scale S] [--seed N] [--serial] [--workers N] [--out FILE]
//! aspp estimate   [--scale S] [--seed N] [--samples N] [--exact] [options]
//! aspp gen        [--scale S] [--seed N] [--out FILE]   synthesize a topology
//! ```
//!
//! Every subcommand additionally understands the observability flags
//! (see the Observability section of `README.md`):
//!
//! ```text
//! --trace-json PATH    write engine/experiment spans as JSON lines to PATH
//! --metrics table|json print an engine-counter snapshot to stderr on exit
//! --manifest PATH      write a run-provenance manifest (JSON) to PATH
//! ASPP_LOG=trace       like --trace-json, but spans go to stderr
//! ASPP_MANIFEST=PATH   like --manifest
//! ```

use std::process::ExitCode;
use std::time::Instant;

/// Prints a line to stdout, ignoring broken-pipe errors so that
/// `aspp … | head` exits cleanly instead of panicking.
macro_rules! out {
    ($($arg:tt)*) => {{
        use std::io::Write as _;
        let _ = writeln!(std::io::stdout(), $($arg)*);
    }};
}

use aspp_repro::attack::mitigation;
use aspp_repro::data::measure;
use aspp_repro::experiments::{case_study, detection, extensions, impact, usage, Scale};
use aspp_repro::obs::trace;
use aspp_repro::prelude::*;
use aspp_repro::report::pct;

/// Observability options shared by every subcommand, extracted from the
/// argument list before subcommand parsing (see [`ObsOpts::extract`]).
struct ObsOpts {
    trace_json: Option<String>,
    metrics: Option<MetricsFormat>,
    manifest_path: Option<String>,
}

#[derive(Clone, Copy)]
enum MetricsFormat {
    Table,
    Json,
}

impl ObsOpts {
    /// Splits the global observability flags out of `args`, returning the
    /// remaining subcommand arguments alongside the parsed options.
    /// `--manifest` falls back to `ASPP_MANIFEST` when absent.
    fn extract(args: &[String]) -> Result<(Vec<String>, ObsOpts), String> {
        let mut rest = Vec::with_capacity(args.len());
        let mut opts = ObsOpts {
            trace_json: None,
            metrics: None,
            manifest_path: std::env::var("ASPP_MANIFEST")
                .ok()
                .filter(|p| !p.is_empty()),
        };
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            let mut take = |name: &str| {
                it.next()
                    .cloned()
                    .ok_or_else(|| format!("{name} requires a value"))
            };
            match arg.as_str() {
                "--trace-json" => opts.trace_json = Some(take("--trace-json")?),
                "--manifest" => opts.manifest_path = Some(take("--manifest")?),
                "--metrics" => {
                    opts.metrics = Some(match take("--metrics")?.as_str() {
                        "table" => MetricsFormat::Table,
                        "json" => MetricsFormat::Json,
                        other => return Err(format!("unknown metrics format {other:?}")),
                    });
                }
                _ => rest.push(arg.clone()),
            }
        }
        Ok((rest, opts))
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first().cloned() else {
        eprintln!("{}", usage_text());
        return ExitCode::FAILURE;
    };
    let (rest, obs) = match ObsOpts::extract(&args[1..]) {
        Ok(split) => split,
        Err(message) => {
            eprintln!("error: {message}");
            return ExitCode::FAILURE;
        }
    };

    trace::init_from_env();
    if let Some(path) = &obs.trace_json {
        if let Err(e) = trace::init_json_file(path) {
            eprintln!("error: opening trace file {path}: {e}");
            return ExitCode::FAILURE;
        }
    }

    let mut manifest = RunManifest::new(&format!("aspp {command}"));
    manifest.args = rest.clone();
    let counters_before = MetricsSnapshot::capture();
    let started = Instant::now();

    let result = match command.as_str() {
        "case-study" => cmd_case_study(&rest, &mut manifest),
        "usage" => cmd_usage(&rest, &mut manifest),
        "impact" => cmd_impact(&rest, &mut manifest),
        "detection" => cmd_detection(&rest, &mut manifest),
        "selection" => cmd_selection(&rest, &mut manifest),
        "stealth" => cmd_stealth(&rest, &mut manifest),
        "mitigate" => cmd_mitigate(&rest, &mut manifest),
        "simulate" => cmd_simulate(&rest, &mut manifest),
        "corpus" => cmd_corpus(&rest, &mut manifest),
        "measure" => cmd_measure(&rest),
        "audit" => cmd_audit(&rest, &mut manifest),
        "feed" => cmd_feed(&rest, &mut manifest),
        "serve" => cmd_serve(&rest, &mut manifest),
        "sweep" => cmd_sweep(&rest, &mut manifest),
        "defense" => cmd_defense(&rest, &mut manifest),
        "scenario" => cmd_scenario(&rest, &mut manifest),
        "estimate" => cmd_estimate(&rest, &mut manifest),
        "gen" => cmd_gen(&rest, &mut manifest),
        "help" | "--help" | "-h" => {
            out!("{}", usage_text());
            Ok(())
        }
        other => Err(format!("unknown command {other:?}\n{}", usage_text())),
    };

    let delta = MetricsSnapshot::capture().since(&counters_before);
    manifest.metrics = delta;
    if manifest.phases.is_empty() {
        manifest.push_phase("total", started.elapsed().as_secs_f64() * 1e3);
    }
    if let Some(path) = &obs.manifest_path {
        if let Err(e) = manifest.write(path) {
            eprintln!("error: writing manifest {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    match obs.metrics {
        Some(MetricsFormat::Table) => eprintln!("{delta}"),
        Some(MetricsFormat::Json) => eprintln!("{}", delta.to_json()),
        None => {}
    }
    trace::flush();

    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}

/// Records `graph`'s identity (size and structural fingerprint) in the
/// manifest.
fn record_topology(manifest: &mut RunManifest, graph: &AsGraph) {
    manifest.topology = Some(TopologyInfo {
        nodes: graph.len() as u64,
        links: graph.link_count() as u64,
        fingerprint: graph.fingerprint(),
    });
}

/// Builds the synthetic Internet at `scale`, timing it as the manifest's
/// `generate` phase and recording its identity.
fn generate(manifest: &mut RunManifest, scale: Scale, seed: u64) -> AsGraph {
    let t0 = Instant::now();
    let graph = scale.internet(seed);
    manifest.push_phase("generate", t0.elapsed().as_secs_f64() * 1e3);
    record_topology(manifest, &graph);
    graph
}

/// Records the scale label and seed in the manifest.
fn record_scale(manifest: &mut RunManifest, scale: Scale, seed: u64) {
    manifest.seed = Some(seed);
    manifest.scale = Some(
        match scale {
            Scale::Paper => "paper",
            Scale::Smoke => "smoke",
            Scale::Internet => "internet",
            Scale::InternetSmoke => "internet-smoke",
        }
        .to_string(),
    );
}

fn usage_text() -> &'static str {
    "aspp — ASPP-based BGP prefix interception: simulation, measurement, detection

USAGE:
  aspp case-study
  aspp usage      [--paper] [--seed N]
  aspp impact     [--paper] [--seed N] [--figure 7|8|9|10|11|12|all]
  aspp detection  [--paper] [--seed N]
  aspp selection  [--paper] [--seed N]
  aspp stealth    [--seed N]
  aspp mitigate   [--seed N]
  aspp simulate   --victim ASN --attacker ASN [--padding N] [--keep N]
                  [--violate] [--strategy strip|strip-all|forge|origin|poison]
                  [--poison ASN]
                  [--scale small|medium|large] [--seed N]
  aspp corpus     --out FILE [--prefixes N] [--monitors N] [--seed N]
  aspp measure    FILE
  aspp audit      [--paper] [--seed N]
  aspp audit      --topology FILE [--lenient]
  aspp audit      --corpus FILE [--lenient]
  aspp feed       [--replay] [--paper] [--seed N] [--shards N] [--capacity N]
                  [--prefixes N] [--monitors N] [--attack-ratio F]
                  [--withdraw-ratio F] [--baseline] [--out FILE]
                  [--corpus-out FILE] [--in FILE --corpus FILE] [--lenient]
  aspp serve      [--scale S] [--seed N] [--shards N] [--capacity N]
                  [--batch N] [--corpus FILE] [--restore FILE]
                  [--checkpoint FILE] [--checkpoint-every N]
                  JSONL queries on stdin/stdout
  aspp sweep      [--paper] [--seed N] [--pairs N] [--lambda-max N]
                  [--batch] [--serial] [--workers N]
  aspp defense    [--paper] [--seed N] [--pairs N] [--lambda N]
                  [--policy rov,aspa,peerlock,first-as|all]
                  [--deploy random,by-tier,top-degree|all]
                  [--fractions F,F,..] [--serial] [--workers N] [--out FILE]
  aspp scenario   [--scale S] [--seed N] [--serial] [--workers N] [--out FILE]
                  scripted multi-actor timeline (strip, λ escalation,
                  subprefix hijack, path poisoning, MOAS) with per-step
                  equilibria, LPM capture, alarms, and churn
  aspp estimate   [--scale S] [--seed N] [--samples N] [--resamples N]
                  [--exact] [--serial] [--workers N] [--out FILE]
                  seeded Monte-Carlo impact estimator with bootstrap CIs
                  (--exact cross-validates against full enumeration)
  aspp gen        [--scale smoke|paper|internet|internet-smoke] [--seed N]
                  [--out FILE]

SCALES (usage/impact/detection/selection/audit/feed/sweep/scenario/estimate/gen):
  --scale smoke|paper|internet|internet-smoke   (~150 / ~1.5k / ~80k / ~20k
  ASes; --paper remains shorthand for --scale paper)

OBSERVABILITY (every subcommand; see README.md):
  --trace-json PATH     write span timings as JSON lines to PATH
  --metrics table|json  print an engine-counter snapshot to stderr
  --manifest PATH       write a run-provenance manifest (JSON) to PATH
  ASPP_LOG=trace        span timings to stderr    ASPP_MANIFEST=PATH"
}

/// Minimal flag parser: `--key value` pairs, bare `--flag` booleans, and
/// positional arguments.
struct Flags<'a> {
    args: &'a [String],
}

impl<'a> Flags<'a> {
    fn new(args: &'a [String]) -> Self {
        Flags { args }
    }

    fn has(&self, name: &str) -> bool {
        self.args.iter().any(|a| a == name)
    }

    fn value(&self, name: &str) -> Option<&'a str> {
        self.args
            .iter()
            .position(|a| a == name)
            .and_then(|i| self.args.get(i + 1))
            .map(String::as_str)
    }

    fn parsed<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        match self.value(name) {
            None => Ok(None),
            Some(raw) => raw
                .parse::<T>()
                .map(Some)
                .map_err(|_| format!("invalid value for {name}: {raw:?}")),
        }
    }

    fn positional(&self) -> Option<&'a str> {
        self.args
            .iter()
            .find(|a| !a.starts_with("--"))
            .map(String::as_str)
    }

    fn scale(&self) -> Result<Scale, String> {
        if let Some(name) = self.value("--scale") {
            return match name {
                "smoke" => Ok(Scale::Smoke),
                "paper" => Ok(Scale::Paper),
                "internet" => Ok(Scale::Internet),
                "internet-smoke" => Ok(Scale::InternetSmoke),
                other => Err(format!(
                    "unknown scale {other:?} (expected smoke, paper, internet, internet-smoke)"
                )),
            };
        }
        Ok(if self.has("--paper") {
            Scale::Paper
        } else {
            Scale::Smoke
        })
    }

    fn seed(&self) -> Result<u64, String> {
        Ok(self.parsed::<u64>("--seed")?.unwrap_or(2024))
    }
}

fn cmd_case_study(args: &[String], manifest: &mut RunManifest) -> Result<(), String> {
    let flags = Flags::new(args);
    let seed = flags.seed()?;
    manifest.seed = Some(seed);
    out!("{}", case_study::run(seed).render());
    Ok(())
}

fn cmd_usage(args: &[String], manifest: &mut RunManifest) -> Result<(), String> {
    let flags = Flags::new(args);
    let (scale, seed) = (flags.scale()?, flags.seed()?);
    record_scale(manifest, scale, seed);
    out!("{}", usage::run(scale, seed).render());
    Ok(())
}

fn cmd_impact(args: &[String], manifest: &mut RunManifest) -> Result<(), String> {
    let flags = Flags::new(args);
    let scale = flags.scale()?;
    let seed = flags.seed()?;
    record_scale(manifest, scale, seed);
    let graph = scale.internet(seed);
    record_topology(manifest, &graph);
    let which = flags.value("--figure").unwrap_or("all");
    let mut printed = false;
    let mut run = |name: &str, strategy: &str, text: &dyn Fn() -> String| {
        if which == "all" || which == name {
            let t0 = Instant::now();
            out!("{}", text());
            manifest.push_phase(&format!("fig{name}"), t0.elapsed().as_secs_f64() * 1e3);
            manifest.push_strategy(strategy);
            printed = true;
        }
    };
    run("7", "fig7: tier1 pairs, StripPadding sweep", &|| {
        impact::fig7(&graph, scale, seed).render()
    });
    run("8", "fig8: random pairs, StripPadding sweep", &|| {
        impact::fig8(&graph, scale, seed).render()
    });
    run("9", "fig9: T1 victim vs T1 attacker", &|| {
        impact::fig9(&graph).render()
    });
    run("10", "fig10: T1 victim vs T3 attacker", &|| {
        impact::fig10(&graph).render()
    });
    run("11", "fig11: small victim vs T1 attacker", &|| {
        impact::fig11(&graph).render()
    });
    run("12", "fig12: small victim vs small attacker", &|| {
        impact::fig12(&graph).render()
    });
    if printed {
        Ok(())
    } else {
        Err(format!("unknown figure {which:?} (use 7..12 or all)"))
    }
}

fn cmd_detection(args: &[String], manifest: &mut RunManifest) -> Result<(), String> {
    let flags = Flags::new(args);
    let scale = flags.scale()?;
    let seed = flags.seed()?;
    record_scale(manifest, scale, seed);
    let graph = scale.internet(seed);
    record_topology(manifest, &graph);
    let t0 = Instant::now();
    out!("{}", detection::fig13(&graph, scale, seed).render());
    manifest.push_phase("fig13", t0.elapsed().as_secs_f64() * 1e3);
    let t1 = Instant::now();
    out!("{}", detection::fig14(&graph, scale, seed).render());
    manifest.push_phase("fig14", t1.elapsed().as_secs_f64() * 1e3);
    Ok(())
}

fn cmd_selection(args: &[String], manifest: &mut RunManifest) -> Result<(), String> {
    let flags = Flags::new(args);
    let scale = flags.scale()?;
    let seed = flags.seed()?;
    record_scale(manifest, scale, seed);
    let graph = scale.internet(seed);
    record_topology(manifest, &graph);
    out!(
        "{}",
        detection::vantage_selection(&graph, scale, seed).render()
    );
    Ok(())
}

fn cmd_stealth(args: &[String], manifest: &mut RunManifest) -> Result<(), String> {
    let flags = Flags::new(args);
    let seed = flags.seed()?;
    record_scale(manifest, Scale::Smoke, seed);
    let graph = Scale::Smoke.internet(seed);
    record_topology(manifest, &graph);
    out!("{}", extensions::stealth(&graph, seed).render());
    Ok(())
}

fn cmd_mitigate(args: &[String], manifest: &mut RunManifest) -> Result<(), String> {
    let flags = Flags::new(args);
    let (scale, seed) = (flags.scale()?, flags.seed()?);
    record_scale(manifest, scale, seed);
    let graph = scale.internet(seed);
    record_topology(manifest, &graph);
    out!("{}", extensions::mitigations(&graph).render());
    Ok(())
}

fn cmd_simulate(args: &[String], manifest: &mut RunManifest) -> Result<(), String> {
    let flags = Flags::new(args);
    let victim = Asn(flags
        .parsed::<u32>("--victim")?
        .ok_or("--victim ASN is required")?);
    let attacker = Asn(flags
        .parsed::<u32>("--attacker")?
        .ok_or("--attacker ASN is required")?);
    let padding = flags.parsed::<usize>("--padding")?.unwrap_or(3);
    let keep = flags.parsed::<usize>("--keep")?.unwrap_or(1);
    let seed = flags.seed()?;
    let graph = match flags.value("--scale").unwrap_or("small") {
        "small" => InternetConfig::small().seed(seed).build(),
        "medium" => InternetConfig::medium().seed(seed).build(),
        "large" => InternetConfig::large().seed(seed).build(),
        other => return Err(format!("unknown scale {other:?}")),
    };
    if !graph.contains(victim) {
        return Err(format!("victim AS{victim} not in the generated topology"));
    }
    if !graph.contains(attacker) {
        return Err(format!(
            "attacker AS{attacker} not in the generated topology"
        ));
    }

    let strategy = match flags.value("--strategy").unwrap_or("strip") {
        "strip" => AttackStrategy::StripPadding { keep },
        "strip-all" => AttackStrategy::StripAllPadding,
        "forge" => AttackStrategy::ForgeDirect,
        "origin" => AttackStrategy::OriginHijack,
        "poison" => {
            let poisoned = flags
                .parsed::<u32>("--poison")?
                .ok_or("--strategy poison requires --poison ASN")?;
            AttackStrategy::PoisonPath {
                poisoned: Asn(poisoned),
            }
        }
        other => return Err(format!("unknown strategy {other:?}")),
    };
    let mode = if flags.has("--violate") {
        ExportMode::ViolateValleyFree
    } else {
        ExportMode::Compliant
    };

    manifest.seed = Some(seed);
    record_topology(manifest, &graph);
    manifest.push_strategy(&format!(
        "victim=AS{victim} attacker=AS{attacker} {strategy:?} {mode:?} padding={padding}"
    ));

    let exp = HijackExperiment::new(victim, attacker)
        .padding(padding)
        .keep(keep)
        .export_mode(mode)
        .strategy(strategy);
    let impact = run_experiment(&graph, &exp);
    out!("{impact}");

    // Data-plane fate summary.
    let engine = RoutingEngine::new(&graph);
    let outcome = engine.compute(&exp.to_spec());
    let stats = forwarding::delivery_stats(&outcome);
    out!(
        "data plane: delivered {}%, intercepted {}%, blackholed {}%",
        pct(stats.delivered),
        pct(stats.intercepted),
        pct(stats.blackholed),
    );

    // Mitigation preview for the ASPP strategy.
    if matches!(strategy, AttackStrategy::StripPadding { .. }) && padding > 1 {
        let relief = mitigation::padding_reduction(&graph, &exp, 1);
        out!(
            "mitigation (padding reduction to 1): pollution {}% -> {}%",
            pct(relief.polluted_before),
            pct(relief.polluted_after),
        );
    }
    Ok(())
}

fn cmd_corpus(args: &[String], manifest: &mut RunManifest) -> Result<(), String> {
    let flags = Flags::new(args);
    let out = flags.value("--out").ok_or("--out FILE is required")?;
    let prefixes = flags.parsed::<usize>("--prefixes")?.unwrap_or(100);
    let monitor_count = flags.parsed::<usize>("--monitors")?.unwrap_or(30);
    let seed = flags.seed()?;
    let graph = InternetConfig::medium().seed(seed).build();
    manifest.seed = Some(seed);
    record_topology(manifest, &graph);
    let corpus = CorpusConfig::new(prefixes)
        .monitors_top_degree(monitor_count)
        .seed(seed)
        .generate(&graph);
    std::fs::write(out, corpus.to_text()).map_err(|e| format!("writing {out}: {e}"))?;
    out!(
        "wrote {out}: {} table entries, {} updates, {} monitors",
        corpus.table_entry_count(),
        corpus.updates().len(),
        corpus.monitors().count(),
    );
    Ok(())
}

fn cmd_audit(args: &[String], manifest: &mut RunManifest) -> Result<(), String> {
    let flags = Flags::new(args);
    let lenient = flags.has("--lenient");
    if let Some(path) = flags.value("--topology") {
        return audit_topology_file(path, lenient);
    }
    if let Some(path) = flags.value("--corpus") {
        return audit_corpus_file(path, lenient);
    }
    audit_equilibria(flags.scale()?, flags.seed()?, manifest)
}

/// Recomputes the attack-strategy matrix and verifies every converged
/// equilibrium against the paper's routing invariants (valley-freeness,
/// export legality, loop-free next-hop chains, local optimality).
fn audit_equilibria(scale: Scale, seed: u64, manifest: &mut RunManifest) -> Result<(), String> {
    use aspp_repro::routing::audit;

    let graph = scale.internet(seed);
    record_scale(manifest, scale, seed);
    record_topology(manifest, &graph);
    // Deterministic victim/attacker sample spanning the hierarchy: a
    // well-connected core AS, a mid-degree transit AS, and an edge stub.
    let by_degree = graph.asns_by_degree();
    let n = by_degree.len();
    let picks = [by_degree[0], by_degree[n / 2], by_degree[n - 1]];
    let pairs: Vec<(Asn, Asn)> = picks
        .iter()
        .flat_map(|&v| picks.iter().map(move |&m| (v, m)))
        .filter(|(v, m)| v != m)
        .collect();

    let strategies = [
        AttackStrategy::StripPadding { keep: 1 },
        AttackStrategy::StripAllPadding,
        AttackStrategy::ForgeDirect,
        AttackStrategy::OriginHijack,
    ];
    let modes = [ExportMode::Compliant, ExportMode::ViolateValleyFree];

    let engine = RoutingEngine::new(&graph);
    let mut equilibria = 0usize;
    let mut routes_checked = 0usize;
    let mut dirty = Vec::new();
    let mut compute_time = std::time::Duration::ZERO;
    let mut audit_time = std::time::Duration::ZERO;
    {
        let mut check = |spec: &DestinationSpec, label: String| {
            let t0 = Instant::now();
            let outcome = engine.compute(spec);
            compute_time += t0.elapsed();
            let t1 = Instant::now();
            let report = audit::audit_outcome(&outcome);
            audit_time += t1.elapsed();
            equilibria += 1;
            routes_checked += report.clean.routes_checked()
                + report
                    .attacked
                    .as_ref()
                    .map_or(0, aspp_repro::routing::AuditReport::routes_checked);
            if !report.is_clean() {
                dirty.push((label, report));
            }
        };

        for &(victim, attacker) in &pairs {
            check(
                &DestinationSpec::new(victim).origin_padding(3),
                format!("clean victim=AS{victim}"),
            );
            for strategy in strategies {
                for mode in modes {
                    let exp = HijackExperiment::new(victim, attacker)
                        .padding(3)
                        .export_mode(mode)
                        .strategy(strategy);
                    check(
                        &exp.to_spec(),
                        format!("victim=AS{victim} attacker=AS{attacker} {strategy:?} {mode:?}"),
                    );
                }
            }
        }
    }

    for strategy in strategies {
        for mode in modes {
            manifest.push_strategy(&format!("{strategy:?} {mode:?} padding=3"));
        }
    }
    manifest.push_phase("compute", compute_time.as_secs_f64() * 1e3);
    manifest.push_phase("audit", audit_time.as_secs_f64() * 1e3);

    out!(
        "audited {equilibria} equilibria on {} ASes (seed {seed}): {} route entries checked",
        graph.len(),
        routes_checked,
    );
    out!(
        "compute {:.1} ms, audit {:.1} ms (audit/compute = {:.2}x)",
        compute_time.as_secs_f64() * 1e3,
        audit_time.as_secs_f64() * 1e3,
        audit_time.as_secs_f64() / compute_time.as_secs_f64().max(1e-12),
    );
    if dirty.is_empty() {
        out!("all equilibria satisfy the routing invariants");
        Ok(())
    } else {
        for (label, report) in &dirty {
            out!("VIOLATIONS in {label}:\n{report}");
        }
        Err(format!(
            "{} of {equilibria} equilibria failed audit",
            dirty.len()
        ))
    }
}

fn audit_topology_file(path: &str, lenient: bool) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    if lenient {
        let (graph, report) = aspp_repro::topology::io::from_caida_lenient(&text);
        out!("{path}: {report}");
        for note in &report.notes {
            out!("  {note}");
        }
        out!(
            "topology: {} ASes, {} links",
            graph.len(),
            graph.link_count()
        );
        Ok(())
    } else {
        let graph = aspp_repro::topology::io::from_caida_strict(&text)
            .map_err(|e| format!("{path}: {e}"))?;
        out!(
            "{path}: OK — {} ASes, {} links",
            graph.len(),
            graph.link_count()
        );
        Ok(())
    }
}

fn audit_corpus_file(path: &str, lenient: bool) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    if lenient {
        let (corpus, report) = Corpus::parse_lenient(&text);
        out!("{path}: {report}");
        for note in &report.notes {
            out!("  {note}");
        }
        out!(
            "corpus: {} table entries, {} updates, {} monitors",
            corpus.table_entry_count(),
            corpus.updates().len(),
            corpus.monitors().count(),
        );
        Ok(())
    } else {
        let corpus = Corpus::parse_strict(&text).map_err(|e| format!("{path}: {e}"))?;
        out!(
            "{path}: OK — {} table entries, {} updates, {} monitors",
            corpus.table_entry_count(),
            corpus.updates().len(),
            corpus.monitors().count(),
        );
        Ok(())
    }
}

/// `aspp feed` — synthesize (or replay from a wire file) an update stream
/// and drive it through the sharded detection pipeline.
fn cmd_feed(args: &[String], manifest: &mut RunManifest) -> Result<(), String> {
    use aspp_repro::feed::{decode_records, decode_records_lenient, encode_records, run_feed};
    use std::sync::Arc;

    let flags = Flags::new(args);
    let scale = flags.scale()?;
    let seed = flags.seed()?;
    let shards = flags.parsed::<usize>("--shards")?.unwrap_or(4).max(1);
    let capacity = flags.parsed::<usize>("--capacity")?.unwrap_or(1024).max(1);
    // `--replay` names the default (and only) mode; accepted for clarity.
    let _ = flags.has("--replay");

    record_scale(manifest, scale, seed);
    let graph = scale.internet(seed);
    record_topology(manifest, &graph);

    // Acquire the stream: decode a wire file, or synthesize one.
    let t0 = Instant::now();
    let (seeds, updates, attacks) = if let Some(path) = flags.value("--in") {
        let corpus_path = flags
            .value("--corpus")
            .ok_or("--in requires --corpus FILE (the RIB seed corpus)")?;
        let text = std::fs::read_to_string(corpus_path)
            .map_err(|e| format!("reading {corpus_path}: {e}"))?;
        let seeds = Corpus::parse_strict(&text).map_err(|e| format!("{corpus_path}: {e}"))?;
        let bytes = std::fs::read(path).map_err(|e| format!("reading {path}: {e}"))?;
        let updates = if flags.has("--lenient") {
            let (updates, report) = decode_records_lenient(&bytes);
            out!("{path}: {report}");
            for note in &report.notes {
                out!("  {note}");
            }
            updates
        } else {
            decode_records(&bytes).map_err(|e| format!("{path}: {e}"))?
        };
        (seeds, updates, 0)
    } else {
        let prefixes = flags.parsed::<usize>("--prefixes")?.unwrap_or(match scale {
            Scale::Paper => 120,
            Scale::Smoke => 40,
            Scale::Internet => 160,
            Scale::InternetSmoke => 60,
        });
        let monitors = flags.parsed::<usize>("--monitors")?.unwrap_or(30);
        let attack_ratio = flags.parsed::<f64>("--attack-ratio")?.unwrap_or(0.15);
        let withdraw_ratio = flags.parsed::<f64>("--withdraw-ratio")?.unwrap_or(0.3);
        let feed = ReplayConfig::new(prefixes)
            .monitors_top_degree(monitors)
            .attack_ratio(attack_ratio)
            .withdraw_ratio(withdraw_ratio)
            .seed(seed)
            .generate(&graph);
        if let Some(path) = flags.value("--out") {
            let bytes = encode_records(feed.updates());
            std::fs::write(path, &bytes).map_err(|e| format!("writing {path}: {e}"))?;
            out!("wrote {path}: {} bytes (wire format)", bytes.len());
        }
        if let Some(path) = flags.value("--corpus-out") {
            std::fs::write(path, feed.corpus.to_text())
                .map_err(|e| format!("writing {path}: {e}"))?;
            out!("wrote {path}: RIB seeds + updates (text corpus)");
        }
        let attacks = feed.attacks.len();
        let updates = feed.updates().to_vec();
        (feed.corpus, updates, attacks)
    };
    manifest.push_phase("generate", t0.elapsed().as_secs_f64() * 1e3);
    manifest.push_strategy(&format!("shards={shards} capacity={capacity}"));

    let graph = Arc::new(graph);
    let config = FeedConfig::new(shards).capacity(capacity);

    // Optional single-shard baseline: same stream, shards = 1, and the
    // merged alarm sequences must agree bit for bit.
    let baseline = if flags.has("--baseline") && shards > 1 {
        let t = Instant::now();
        let report = run_feed(
            &graph,
            &seeds,
            &updates,
            &FeedConfig::new(1).capacity(capacity),
        );
        manifest.push_phase("baseline", t.elapsed().as_secs_f64() * 1e3);
        Some(report)
    } else {
        None
    };

    let t1 = Instant::now();
    let report = run_feed(&graph, &seeds, &updates, &config);
    manifest.push_phase("feed", t1.elapsed().as_secs_f64() * 1e3);

    out!(
        "feed: {} records over {} prefixes, {} shards (capacity {capacity})",
        report.records_in,
        seeds.tables().next().map_or(0, |(_, table)| table.len()),
        shards,
    );
    match report.records_per_sec() {
        Some(rate) => out!(
            "throughput: {rate:.0} records/sec ({:.2} ms wall)",
            report.wall.as_secs_f64() * 1e3,
        ),
        None => out!(
            "throughput: n/a — wall clock below timer resolution ({} records)",
            report.records_in,
        ),
    }
    out!(
        "batching: {} records in {} batches (realized batch {})",
        report.records_in,
        report.batches(),
        report
            .realized_batch()
            .map_or_else(|| "n/a".to_string(), |b| format!("{b:.1}")),
    );
    out!(
        "alarms: {} ({} injected interceptions in the stream)",
        report.alarms.len(),
        attacks,
    );
    match (
        report.latency_us(50.0),
        report.latency_us(90.0),
        report.latency_us(99.0),
    ) {
        (Some(p50), Some(p90), Some(p99)) => {
            out!("alarm latency: p50 {p50:.1} µs, p90 {p90:.1} µs, p99 {p99:.1} µs")
        }
        _ => out!("alarm latency: n/a (no alarms)"),
    }
    let shard_records: Vec<u64> = report.shards.iter().map(|s| s.records).collect();
    out!(
        "shard balance: {:.2} (max/mean), records per shard {:?}",
        report.shard_balance(),
        shard_records,
    );
    out!(
        "backpressure waits: {}, depth high-water: {}",
        report.backpressure_waits(),
        report.depth_high_water(),
    );
    if let Some(base) = baseline {
        let speedup = base.wall.as_secs_f64() / report.wall.as_secs_f64().max(1e-12);
        let base_rate = base
            .records_per_sec()
            .map_or_else(|| "n/a".to_string(), |r| format!("{r:.0}"));
        out!(
            "baseline (1 shard): {base_rate} records/sec ({:.2} ms wall), speedup {speedup:.2}x",
            base.wall.as_secs_f64() * 1e3,
        );
        if base.alarms == report.alarms {
            out!("determinism: merged alarm sequence identical to the 1-shard run");
        } else {
            return Err(format!(
                "alarm sequences diverge between 1 and {shards} shards ({} vs {} alarms)",
                base.alarms.len(),
                report.alarms.len(),
            ));
        }
    }
    Ok(())
}

/// `aspp serve` — run the resident detection service: a
/// `feed::FeedEngine` behind a JSONL request/response loop on
/// stdin/stdout. Commands:
/// `status`, `prefix`, `ingest` (wire file), `checkpoint`, `drain`.
/// `--restore FILE` resumes from a checkpoint; `--checkpoint FILE` sets
/// the default target (also written on graceful drain).
fn cmd_serve(args: &[String], manifest: &mut RunManifest) -> Result<(), String> {
    use aspp_repro::feed::{DetectionService, FeedEngine};
    use std::sync::Arc;

    let flags = Flags::new(args);
    let scale = flags.scale()?;
    let seed = flags.seed()?;
    let shards = flags.parsed::<usize>("--shards")?.unwrap_or(4).max(1);
    let capacity = flags.parsed::<usize>("--capacity")?.unwrap_or(1024).max(1);
    let batch = flags.parsed::<usize>("--batch")?.unwrap_or(256).max(1);

    record_scale(manifest, scale, seed);
    let graph = scale.internet(seed);
    record_topology(manifest, &graph);
    manifest.push_strategy(&format!(
        "serve shards={shards} capacity={capacity} batch={batch}"
    ));

    let config = FeedConfig::new(shards).capacity(capacity).batch(batch);
    let mut engine = FeedEngine::new(Arc::new(graph), &config);
    if let Some(path) = flags.value("--corpus") {
        let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
        let seeds = Corpus::parse_strict(&text).map_err(|e| format!("{path}: {e}"))?;
        engine.seed_from_corpus(&seeds);
    }

    let mut service = DetectionService::new(engine);
    if let Some(path) = flags.value("--checkpoint") {
        service = service.checkpoint_file(path);
    }
    if let Some(every) = flags.parsed::<u64>("--checkpoint-every")? {
        if flags.value("--checkpoint").is_none() {
            return Err("--checkpoint-every requires --checkpoint FILE".into());
        }
        service = service.checkpoint_every(every);
    }
    if let Some(path) = flags.value("--restore") {
        service
            .restore_from_file(std::path::Path::new(path))
            .map_err(|e| e.to_string())?;
    }

    let stdin = std::io::stdin();
    let stdout = std::io::stdout();
    service
        .run(stdin.lock(), stdout.lock())
        .map_err(|e| format!("serve I/O: {e}"))
}

/// `aspp sweep` — the full strategy-matrix sweep (every attack strategy ×
/// export mode × λ) over sampled victim/attacker pairs, run on the batch
/// equilibrium engine by default. `--serial` is the escape hatch back to
/// the pre-batch per-cell harness (identical results, no amortization).
fn cmd_sweep(args: &[String], manifest: &mut RunManifest) -> Result<(), String> {
    use aspp_repro::attack::sweep::{random_pair_experiments, strategy_matrix};

    let flags = Flags::new(args);
    let scale = flags.scale()?;
    let seed = flags.seed()?;
    let pairs = flags.parsed::<usize>("--pairs")?.unwrap_or(match scale {
        Scale::Paper => 8,
        Scale::Smoke => 4,
        Scale::Internet => 3,
        Scale::InternetSmoke => 2,
    });
    let lambda_max = flags.parsed::<usize>("--lambda-max")?.unwrap_or(8).max(1);
    let serial = flags.has("--serial");
    // `--batch` names the default mode; accepted for clarity.
    let _ = flags.has("--batch");
    if serial && flags.has("--batch") {
        return Err("--serial and --batch are mutually exclusive".into());
    }
    let workers = flags.parsed::<usize>("--workers")?.unwrap_or(0);

    record_scale(manifest, scale, seed);
    let graph = scale.internet(seed);
    record_topology(manifest, &graph);

    // Sample distinct pairs over the whole population (λ here is a
    // placeholder; the matrix below sets the real λ grid).
    let sampled = random_pair_experiments(&graph, pairs, 1, seed);
    let mut exps = Vec::with_capacity(sampled.len() * 4 * 2 * lambda_max);
    for pair in &sampled {
        exps.extend(strategy_matrix(
            pair.victim(),
            pair.attacker(),
            1..=lambda_max,
        ));
    }
    manifest.push_strategy(&format!(
        "strategy matrix: {} pairs x 4 strategies x 2 modes x lambda 1..={lambda_max} ({})",
        sampled.len(),
        if serial { "serial" } else { "batch" },
    ));

    let t0 = Instant::now();
    let impacts = if serial {
        exps.iter().map(|e| run_experiment(&graph, e)).collect()
    } else {
        run_experiments_with_runner(&graph, &exps, &BatchRunner::new().workers(workers))
    };
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    manifest.push_phase(
        if serial {
            "sweep_serial"
        } else {
            "sweep_batch"
        },
        wall_ms,
    );

    out!(
        "sweep: {} cells ({} pairs, lambda 1..={lambda_max}) on {} ASes in {:.1} ms [{}]",
        impacts.len(),
        sampled.len(),
        graph.len(),
        wall_ms,
        if serial { "serial" } else { "batch" },
    );

    // Mean pollution per (strategy, mode) series at the λ extremes.
    out!(
        "{:<12} {:<10} {:>12} {:>12}",
        "strategy",
        "export",
        "pollute(l=1)",
        "pollute(l=max)",
    );
    let strategy_label = |s: AttackStrategy| match s {
        AttackStrategy::StripPadding { .. } => "strip",
        AttackStrategy::StripAllPadding => "strip-all",
        AttackStrategy::ForgeDirect => "forge",
        AttackStrategy::OriginHijack => "origin",
        AttackStrategy::PoisonPath { .. } => "poison",
    };
    let mode_label = |m: ExportMode| match m {
        ExportMode::Compliant => "compliant",
        ExportMode::ViolateValleyFree => "violate",
    };
    for strategy in [
        AttackStrategy::StripPadding { keep: 1 },
        AttackStrategy::StripAllPadding,
        AttackStrategy::ForgeDirect,
        AttackStrategy::OriginHijack,
    ] {
        for mode in [ExportMode::Compliant, ExportMode::ViolateValleyFree] {
            let series = |lambda: usize| {
                let cells: Vec<f64> = impacts
                    .iter()
                    .filter(|i| {
                        i.experiment.attack_strategy() == strategy
                            && i.experiment.mode() == mode
                            && i.experiment.padding_level() == lambda
                    })
                    .map(|i| i.after_fraction)
                    .collect();
                cells.iter().sum::<f64>() / (cells.len().max(1) as f64)
            };
            out!(
                "{:<12} {:<10} {:>11}% {:>11}%",
                strategy_label(strategy),
                mode_label(mode),
                pct(series(1)),
                pct(series(lambda_max)),
            );
        }
    }
    Ok(())
}

/// `aspp defense` — sweep defense policies (ROV, ASPA, peerlock-lite,
/// first-AS enforcement) over deployment strategies and adoption
/// fractions, reporting interception success at every grid cell for the
/// paper's strip attack and an origin-hijack contrast.
fn cmd_defense(args: &[String], manifest: &mut RunManifest) -> Result<(), String> {
    use aspp_repro::experiments::defense::{self, DefenseConfig};

    let flags = Flags::new(args);
    let scale = flags.scale()?;
    let seed = flags.seed()?;
    let mut config = DefenseConfig::at_scale(scale, seed);
    if let Some(pairs) = flags.parsed::<usize>("--pairs")? {
        config.pairs = pairs.max(1);
    }
    if let Some(lambda) = flags.parsed::<usize>("--lambda")? {
        config.lambda = lambda.max(1);
    }
    if let Some(raw) = flags.value("--policy") {
        if raw != "all" {
            config.kinds = raw
                .split(',')
                .map(|name| {
                    PolicyKind::parse(name.trim()).ok_or(format!(
                        "unknown policy {name:?} (expected rov, aspa, peerlock, first-as)"
                    ))
                })
                .collect::<Result<_, _>>()?;
        }
    }
    if let Some(raw) = flags.value("--deploy") {
        if raw != "all" {
            config.strategies = raw
                .split(',')
                .map(|name| {
                    DeployStrategy::parse(name.trim()).ok_or(format!(
                        "unknown deployment strategy {name:?} (expected random, by-tier, top-degree)"
                    ))
                })
                .collect::<Result<_, _>>()?;
        }
    }
    if let Some(raw) = flags.value("--fractions") {
        config.fractions = raw
            .split(',')
            .map(|s| {
                s.trim()
                    .parse::<f64>()
                    .map_err(|_| format!("invalid fraction {s:?}"))
                    .and_then(|f| {
                        if (0.0..=1.0).contains(&f) {
                            Ok(f)
                        } else {
                            Err(format!("fraction {f} outside [0, 1]"))
                        }
                    })
            })
            .collect::<Result<_, _>>()?;
        if config.fractions.is_empty() {
            return Err("--fractions needs at least one value".into());
        }
    }
    let serial = flags.has("--serial");
    let workers = flags.parsed::<usize>("--workers")?.unwrap_or(0);
    if serial && workers > 1 {
        return Err("--serial and --workers are mutually exclusive".into());
    }

    record_scale(manifest, scale, seed);
    let graph = scale.internet(seed);
    record_topology(manifest, &graph);
    manifest.push_strategy(&format!(
        "defense grid: {} policies x {} strategies x {} fractions x {} pairs (lambda={}, {})",
        config.kinds.len(),
        config.strategies.len(),
        config.fractions.len(),
        config.pairs,
        config.lambda,
        if serial { "serial" } else { "batch" },
    ));

    let runner = if serial {
        BatchRunner::new().serial()
    } else {
        BatchRunner::new().workers(workers)
    };
    let t0 = Instant::now();
    let study = defense::run_with_runner(&graph, &config, &runner);
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    manifest.push_phase("defense_sweep", wall_ms);

    out!(
        "defense: {} grid cells x {} pairs x 2 attacks on {} ASes in {:.1} ms [{}]",
        config.kinds.len() * config.strategies.len() * config.fractions.len(),
        config.pairs,
        graph.len(),
        wall_ms,
        if serial { "serial" } else { "batch" },
    );
    let text = study.render();
    out!("{text}");
    if let Some(path) = flags.value("--out") {
        std::fs::write(path, &text).map_err(|e| format!("writing {path}: {e}"))?;
    }
    Ok(())
}

/// `aspp scenario` — run the canonical multi-actor timeline: the paper's
/// ASPP strip at t0, victim λ escalation at t1, a competing subprefix
/// hijack at t2, path poisoning at t3, and a MOAS origin conflict at t4,
/// each step a full per-prefix equilibrium batch with data-plane LPM
/// capture, detector alarms, and inter-step churn.
fn cmd_scenario(args: &[String], manifest: &mut RunManifest) -> Result<(), String> {
    use aspp_repro::experiments::scenario;

    let flags = Flags::new(args);
    let scale = flags.scale()?;
    let seed = flags.seed()?;
    let serial = flags.has("--serial");
    let workers = flags.parsed::<usize>("--workers")?.unwrap_or(0);
    if serial && workers > 1 {
        return Err("--serial and --workers are mutually exclusive".into());
    }

    record_scale(manifest, scale, seed);
    let graph = generate(manifest, scale, seed);

    let runner = if serial {
        BatchRunner::new().serial()
    } else {
        BatchRunner::new().workers(workers)
    };
    let t0 = Instant::now();
    let run = scenario::run_with_runner(&graph, scale, seed, &runner);
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    manifest.push_phase("scenario", wall_ms);
    manifest.push_strategy(&format!(
        "scenario: victim=AS{} {} steps on {} ASes ({})",
        run.victim,
        run.steps.len(),
        graph.len(),
        if serial { "serial" } else { "batch" },
    ));

    out!(
        "scenario: {} timeline steps on {} ASes in {:.1} ms [{}]",
        run.steps.len(),
        graph.len(),
        wall_ms,
        if serial { "serial" } else { "batch" },
    );
    let text = run.render();
    out!("{text}");
    if let Some(path) = flags.value("--out") {
        std::fs::write(path, &text).map_err(|e| format!("writing {path}: {e}"))?;
    }
    Ok(())
}

/// `aspp estimate` — the seeded Monte-Carlo impact estimator: sampled
/// (victim, attacker) pairs and optional vantage subsets, with bootstrap
/// confidence intervals. `--exact` additionally enumerates every pool
/// cell and reports whether the exact mean lies inside the 95% CI.
fn cmd_estimate(args: &[String], manifest: &mut RunManifest) -> Result<(), String> {
    use aspp_repro::experiments::scenario::{self, cross_validate};

    let flags = Flags::new(args);
    let scale = flags.scale()?;
    let seed = flags.seed()?;
    let serial = flags.has("--serial");
    let workers = flags.parsed::<usize>("--workers")?.unwrap_or(0);
    if serial && workers > 1 {
        return Err("--serial and --workers are mutually exclusive".into());
    }
    let mut config = scenario::estimator_config(scale, seed);
    if let Some(samples) = flags.parsed::<usize>("--samples")? {
        config.samples = samples.max(1);
    }
    if let Some(resamples) = flags.parsed::<usize>("--resamples")? {
        config.resamples = resamples.max(1);
    }

    record_scale(manifest, scale, seed);
    let graph = generate(manifest, scale, seed);
    manifest.push_strategy(&format!(
        "estimate: {} samples over {}x{} pools, {} resamples ({})",
        config.samples,
        config.victims,
        config.attackers,
        config.resamples,
        if serial { "serial" } else { "batch" },
    ));

    let runner = if serial {
        BatchRunner::new().serial()
    } else {
        BatchRunner::new().workers(workers)
    };
    let t0 = Instant::now();
    let mut text = if flags.has("--exact") {
        let (est, exact, within) = cross_validate(&graph, &config, &runner);
        manifest.push_phase("estimate_cross_validate", t0.elapsed().as_secs_f64() * 1e3);
        let mut text = est.render();
        text.push_str(&format!(
            "exact enumeration: {} cells, mean pollution {}%, mean interception {}%\n\
             cross-validation: exact mean {} the 95% CI\n",
            exact.cells,
            pct(exact.mean_pollution),
            pct(exact.mean_interception),
            if within { "inside" } else { "OUTSIDE" },
        ));
        if !within {
            out!("{text}");
            return Err("exact mean fell outside the bootstrap CI".into());
        }
        text
    } else {
        let est = mc_estimate::estimate_with(&graph, &config, &runner);
        manifest.push_phase("estimate", t0.elapsed().as_secs_f64() * 1e3);
        est.render()
    };
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    text.push_str(&format!(
        "wall: {:.1} ms on {} ASes [{}]\n",
        wall_ms,
        graph.len(),
        if serial { "serial" } else { "batch" },
    ));
    out!("{text}");
    if let Some(path) = flags.value("--out") {
        std::fs::write(path, &text).map_err(|e| format!("writing {path}: {e}"))?;
    }
    Ok(())
}

/// `aspp gen` — build the synthetic Internet at a named scale and write it
/// in CAIDA serial-2 format, for external tools and the internet-scale CI
/// job. Without `--out` it only reports the generated graph's identity.
fn cmd_gen(args: &[String], manifest: &mut RunManifest) -> Result<(), String> {
    use aspp_repro::topology::io::to_caida;

    let flags = Flags::new(args);
    let scale = flags.scale()?;
    let seed = flags.seed()?;
    record_scale(manifest, scale, seed);
    let graph = generate(manifest, scale, seed);
    if let Some(path) = flags.value("--out") {
        let t = Instant::now();
        std::fs::write(path, to_caida(&graph)).map_err(|e| format!("writing {path}: {e}"))?;
        manifest.push_phase("serialize", t.elapsed().as_secs_f64() * 1e3);
        out!("wrote {path} (CAIDA serial-2)");
    }
    out!(
        "generated {} ASes, {} links (scale {}, seed {seed}, fingerprint {:016x})",
        graph.len(),
        graph.link_count(),
        manifest.scale.as_deref().unwrap_or("?"),
        graph.fingerprint(),
    );
    Ok(())
}

fn cmd_measure(args: &[String]) -> Result<(), String> {
    let flags = Flags::new(args);
    let path = flags.positional().ok_or("a corpus FILE is required")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let corpus = Corpus::parse(&text).map_err(|e| e.to_string())?;
    let summary = measure::usage_summary(&corpus);
    out!(
        "monitors: {}   table entries: {}   updates: {}",
        corpus.monitors().count(),
        corpus.table_entry_count(),
        corpus.updates().len(),
    );
    out!(
        "table prepending fraction: mean {}%, max {}%",
        pct(summary.mean_table_fraction),
        pct(summary.max_table_fraction),
    );
    out!(
        "padding depth shares: x2 {}%, x3 {}%, >10 {}%",
        pct(summary.depth2_share),
        pct(summary.depth3_share),
        pct(summary.deep_share),
    );
    out!(
        "update prepending fraction: mean {}%",
        pct(summary.mean_update_fraction)
    );
    Ok(())
}
