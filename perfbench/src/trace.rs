//! The traced run: spans around every call the benchmark makes into a
//! layer's public functions, engine counters read at the same boundaries,
//! and the per-layer metrics derived from both.
//!
//! The workload's own study runs first, traced, and provides the metrics
//! of the calls it makes. Every other layer is then probed with inputs
//! drawn from the same seed and topology, so each traced run reports every
//! per-layer metric.

use std::fs;
use std::io::Write as _;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use aspp_core::attack::defense::{deploy_count, deployment_order};
use aspp_core::attack::sweep::random_pair_experiments;
use aspp_core::dataplane::lpm::{lpm_walk, PrefixTable};
use aspp_core::experiments::defense::{self, DefenseConfig};
use aspp_core::experiments::{detection, scenario, Scale};
use aspp_core::feed::{scan_frames, Checkpoint, FeedConfig, FeedEngine};
use aspp_core::obs::counters::Counter;
use aspp_core::prelude::*;

use crate::serve::{self, Expected, Files, Stream};
use crate::workload::{self, estimate_spec, sweep_matrix, timeline_specs, SplitMix, Workload};
use crate::{median, percentile, Checks, Json};

/// One closed interval of benchmark time spent in a layer call.
struct Span {
    name: String,
    parent: Option<usize>,
    /// The top-level span this one descends from.
    root: usize,
    start: Instant,
    end: Instant,
}

/// In-memory span recorder; written out once, when the run ends.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn push(&mut self, name: &str, start: Instant, end: Instant) -> usize {
        let id = self.spans.len();
        let parent = self.open.last().copied();
        self.spans.push(Span {
            name: name.to_owned(),
            parent,
            root: parent.map_or(id, |p| self.spans[p].root),
            start,
            end,
        });
        id
    }

    /// Runs `f` inside a span named `name`; returns its value and the
    /// span's duration in seconds.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> T) -> (T, f64) {
        let start = Instant::now();
        let id = self.push(name, start, start);
        self.open.push(id);
        let out = f(self);
        let end = Instant::now();
        self.open.pop();
        self.spans[id].end = end;
        (out, (end - start).as_secs_f64())
    }

    /// Records a leaf span timed by the caller, under the open span.
    pub fn record(&mut self, name: &str, start: Instant, end: Instant) {
        self.push(name, start, end);
    }

    /// Writes one JSON object per span: id, parent, trace (root id), name,
    /// start and end in microseconds since the run began.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(fs::File::create(path)?);
        let us = |t: Instant| (t - self.origin).as_secs_f64() * 1e6;
        for (id, s) in self.spans.iter().enumerate() {
            let mut j = Json::object();
            j.int("id", id as u64);
            match s.parent {
                Some(p) => j.int("parent", p as u64),
                None => j.raw("parent", "null"),
            }
            j.int("trace", s.root as u64);
            j.str("name", &s.name);
            j.num("start_us", us(s.start));
            j.num("end_us", us(s.end));
            writeln!(out, "{}", j.finish())?;
        }
        out.flush()
    }
}

/// Per-layer metrics plus the checks made while collecting them.
#[derive(Default)]
pub struct LayerReport {
    pub metrics: Vec<(&'static str, f64)>,
    pub sizes: Vec<(&'static str, f64)>,
    pub checks: Checks,
}

impl LayerReport {
    fn put(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }

    fn get(&self, name: &str) -> f64 {
        self.metrics
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(f64::NAN, |&(_, v)| v)
    }
}

/// The experiment entry points a traced run times. A workload's study calls
/// some of them; the others run afterwards as probes.
#[derive(Clone, Copy, PartialEq)]
enum Experiment {
    Sweep,
    Defense,
    Detection,
    Scenario,
}

const EXPERIMENTS: [Experiment; 4] = [
    Experiment::Sweep,
    Experiment::Defense,
    Experiment::Detection,
    Experiment::Scenario,
];

fn study_experiments(workload: Workload) -> &'static [Experiment] {
    match workload {
        Workload::InternetStudy => &[Experiment::Scenario],
        Workload::PaperFigures => &[
            Experiment::Sweep,
            Experiment::Defense,
            Experiment::Detection,
        ],
        Workload::ServeIngest => &[],
    }
}

/// The inputs every experiment call shares.
struct Experiments<'a> {
    graph: &'a AsGraph,
    scale: Scale,
    seed: u64,
    matrix: &'a [HijackExperiment],
    defense: &'a DefenseConfig,
}

impl Experiments<'_> {
    /// Times one experiment into `r`; the scenario experiment returns its estimate.
    fn run(&self, experiment: Experiment, t: &mut Tracer, r: &mut LayerReport) -> Option<Estimate> {
        let (graph, scale, seed) = (self.graph, self.scale, self.seed);
        let runner = BatchRunner::new();
        match experiment {
            Experiment::Sweep => {
                let (_, s) = t.span("attack.sweep", |_| {
                    run_experiments_with_runner(graph, self.matrix, &runner)
                });
                r.put("attack.sweep_ms", s * 1e3);
            }
            Experiment::Defense => {
                let (_, s) = t.span("attack.defense", |_| {
                    defense::run_with_runner(graph, self.defense, &runner)
                });
                r.put("attack.defense_ms", s * 1e3);
            }
            Experiment::Detection => {
                let (_, a) = t.span("detect.fig13", |_| detection::fig13(graph, scale, seed));
                let (_, b) = t.span("detect.fig14", |_| detection::fig14(graph, scale, seed));
                r.put("detect.fig13_ms", a * 1e3);
                r.put("detect.fig14_ms", b * 1e3);
            }
            Experiment::Scenario => {
                let (estimate, a) = t.span("scenario.estimate", |_| {
                    scenario::estimate_with_runner(graph, scale, seed, &runner)
                });
                let (_, b) = t.span("scenario.timeline", |_| {
                    scenario::run_with_runner(graph, scale, seed, &runner)
                });
                r.put("scenario.estimate_ms", a * 1e3);
                r.put("scenario.timeline_ms", b * 1e3);
                return Some(estimate);
            }
        }
        None
    }
}

fn us(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e6
}

/// The run's counters since `before`.
fn since(before: &MetricsSnapshot) -> MetricsSnapshot {
    MetricsSnapshot::capture().since(before)
}

/// The same spec without its attacker: the clean pass it shares.
fn clean_of(spec: &DestinationSpec) -> DestinationSpec {
    DestinationSpec::new(spec.victim())
        .prepend_config(spec.prepending().clone())
        .tie_break(spec.tie_break_rule())
}

fn same_routes(a: &RoutingOutcome<'_>, b: &RoutingOutcome<'_>) -> bool {
    a.has_attack() == b.has_attack() && a.asns().all(|asn| a.route(asn) == b.route(asn))
}

/// Deployment-grid cells of `config`, the way the defense sweep builds
/// them: grid-major, pair-minor, strip attack.
fn policy_cells(
    graph: &AsGraph,
    config: &DefenseConfig,
) -> Vec<(DestinationSpec, Arc<DeployedPolicy>)> {
    let exps: Vec<HijackExperiment> =
        random_pair_experiments(graph, config.pairs, config.lambda, config.seed)
            .into_iter()
            .map(|e| e.export_mode(ExportMode::ViolateValleyFree))
            .collect();
    let mut cells = Vec::new();
    for &strategy in &config.strategies {
        let order = deployment_order(graph, strategy, config.seed);
        for &kind in &config.kinds {
            for &fraction in &config.fractions {
                let k = deploy_count(graph.len(), fraction);
                let map = DeploymentMap::from_asns(graph, order[..k].iter().copied());
                let policy = Arc::new(DeployedPolicy::new(kind, map));
                cells.extend(exps.iter().map(|e| (e.to_spec(), Arc::clone(&policy))));
            }
        }
    }
    cells
}

/// The defense grid a workload's traced run times: the `aspp defense`
/// default at paper scale, one pair on a three-fraction top-degree grid at
/// internet scale.
fn defense_config(scale: Scale, seed: u64) -> DefenseConfig {
    let mut config = DefenseConfig::at_scale(scale, seed);
    if scale == Scale::Internet {
        config.pairs = 1;
        config.strategies = vec![DeployStrategy::TopDegree];
        config.fractions = vec![0.0, 0.4, 1.0];
    }
    config
}

/// Sizes of the probes a workload does not run as part of its study.
struct ProbeSizes {
    sweep_pairs: usize,
    routing_specs: usize,
    policy_cells: usize,
    stream_prefixes: usize,
}

fn probe_sizes(workload: Workload) -> ProbeSizes {
    match workload {
        Workload::InternetStudy => ProbeSizes {
            sweep_pairs: 1,
            routing_specs: 48,
            policy_cells: 24,
            stream_prefixes: 40,
        },
        Workload::PaperFigures | Workload::ServeIngest => ProbeSizes {
            sweep_pairs: if workload == Workload::PaperFigures {
                workload::SWEEP_PAIRS
            } else {
                4
            },
            routing_specs: 192,
            policy_cells: 64,
            stream_prefixes: serve::PREFIXES,
        },
    }
}

/// Runs the traced suite for `workload` and returns its metrics.
pub fn run(
    workload: Workload,
    seed: u64,
    aspp: &Path,
    work: &Path,
    tracer: &mut Tracer,
) -> Result<LayerReport, String> {
    let scale = workload.scale();
    let sizes = probe_sizes(workload);
    let mut r = LayerReport::default();

    let (graph, gen_s) = tracer.span("topology.gen", |_| scale.internet(seed));
    r.put("topology.gen_ms", gen_s * 1e3);
    r.sizes.push(("ases", graph.len() as f64));
    r.sizes.push(("links", graph.link_count() as f64));
    let graph = &graph;
    let mut rng = SplitMix(seed ^ 0x7ace);

    // The study's specs, batched the way the study batches them.
    let matrix = sweep_matrix(graph, sizes.sweep_pairs, seed);
    let defense = defense_config(scale, seed);
    let est_config = scenario::estimator_config(scale, seed);

    // --- The workload's study, traced; then the experiments it does not call.
    let experiments = Experiments {
        graph,
        scale,
        seed,
        matrix: &matrix,
        defense: &defense,
    };
    let study = study_experiments(workload);
    let probes: Vec<Experiment> = EXPERIMENTS
        .into_iter()
        .filter(|d| !study.contains(d))
        .collect();
    if workload != Workload::ServeIngest {
        // Untimed warm-up, as the end-to-end run makes, so `trace.study_s`
        // differs from `study_s` by the tracing and the counters alone.
        let _ = workload::BatchStudy::new(workload, graph, seed).run(graph);
    }
    let mut estimate = None;
    let mut study_s = 0.0;
    for (name, list) in [("study", study), ("probe", probes.as_slice())] {
        if list.is_empty() {
            continue;
        }
        let (_, s) = tracer.span(name, |t| {
            for &experiment in list {
                estimate = experiments.run(experiment, t, &mut r).or(estimate.take());
            }
        });
        if name == "study" {
            study_s = s;
        }
    }
    let estimate = estimate.expect("estimate ran");

    // --- Routing: the batch engine on each study's exact specs.
    let est_specs: Vec<DestinationSpec> = estimate
        .points
        .iter()
        .map(|p| estimate_spec(&est_config, p.victim, p.attacker))
        .collect();
    let steps = timeline_specs(graph, scale, seed);
    let matrix_specs: Vec<DestinationSpec> = matrix.iter().map(HijackExperiment::to_spec).collect();
    let grid = policy_cells(graph, &defense);
    let stream = tracer
        .span("feed.generate", |_| {
            Stream::generate(graph, sizes.stream_prefixes, 1, serve::INGESTS, seed)
        })
        .0?;
    let attack_specs: Vec<DestinationSpec> = stream
        .attacks
        .iter()
        .map(|a| {
            DestinationSpec::new(a.victim)
                .origin_padding(3)
                .attacker(AttackerModel::new(a.attacker))
        })
        .collect();

    // Spec groups the workload's study hands to BatchRunner, one call each.
    let groups: Vec<&[DestinationSpec]> = match workload {
        Workload::InternetStudy => std::iter::once(est_specs.as_slice())
            .chain(steps.iter().map(Vec::as_slice))
            .collect(),
        Workload::PaperFigures => vec![matrix_specs.as_slice()],
        Workload::ServeIngest => vec![attack_specs.as_slice()],
    };
    let policied = workload == Workload::PaperFigures;
    let batch = |t: &mut Tracer, runner: BatchRunner, name: &str| {
        t.span(name, |t| {
            for group in &groups {
                t.span("routing.batch.run", |_| {
                    runner.run(graph, group, |_, o| o.has_attack())
                });
            }
            if policied {
                t.span("routing.batch.run_with_policy", |_| {
                    runner.run_with_policy(graph, &grid, |_, o| o.has_attack())
                });
            }
        })
        .1
    };
    let before = MetricsSnapshot::capture();
    let batch_s = batch(tracer, BatchRunner::new(), "routing.batch");
    let counts = since(&before);
    let batch_1core_s = batch(tracer, BatchRunner::new().workers(1), "routing.batch.1core");
    r.put("routing.batch_ms", batch_s * 1e3);
    r.put("routing.batch_ms.1core", batch_1core_s * 1e3);
    r.put("routing.queue_push", counts.get(Counter::QueuePush) as f64);
    r.put(
        "routing.queue_spill",
        counts.get(Counter::QueueSpill) as f64,
    );
    r.put(
        "routing.delta_frontier_nodes",
        counts.get(Counter::DeltaFrontierNode) as f64,
    );
    r.put(
        "routing.hostile_memo_hits",
        counts.get(Counter::HostileMemoHit) as f64,
    );
    r.put(
        "routing.batch_steals",
        counts.get(Counter::BatchSteal) as f64,
    );

    // The study-internal share of the scenario calls: the call minus
    // BatchRunner::run on its identical specs.
    let runner = BatchRunner::new();
    let (_, est_batch_s) = tracer.span("routing.batch.estimate_specs", |_| {
        runner.run(graph, &est_specs, |_, o| o.has_attack())
    });
    let (_, steps_batch_s) = tracer.span("routing.batch.timeline_specs", |t| {
        for step in &steps {
            t.span("routing.batch.run", |_| {
                runner.run(graph, step, |_, o| o.has_attack())
            });
        }
    });
    r.put(
        "scenario.estimate_self_ms",
        r.get("scenario.estimate_ms") - est_batch_s * 1e3,
    );
    r.put(
        "scenario.timeline_self_ms",
        r.get("scenario.timeline_ms") - steps_batch_s * 1e3,
    );

    let engine = RoutingEngine::new(graph);

    // Workspace ratios over the study's specs, served in order by one
    // workspace (the single-worker batch schedule).
    tracer.span("routing.workspace", |_| {
        let mut ws = RouteWorkspace::new();
        for group in &groups {
            for spec in group.iter() {
                let _ = engine.compute_with(spec, &mut ws);
            }
        }
        if policied {
            for (spec, policy) in &grid {
                let _ = engine.compute_with_policy(spec, &mut ws, policy.as_ref());
            }
        }
        let attempts = ws.delta_passes() + ws.delta_fallbacks();
        let lookups = ws.cache_hits() + ws.cache_misses();
        r.put(
            "routing.delta_ratio",
            ws.delta_passes() as f64 / attempts.max(1) as f64,
        );
        r.put(
            "routing.cache_hit_ratio",
            ws.cache_hits() as f64 / lookups.max(1) as f64,
        );
    });

    // --- Routing passes one at a time on a seeded sample of the specs.
    let pool: &[DestinationSpec] = match workload {
        Workload::InternetStudy => &est_specs,
        Workload::PaperFigures => &matrix_specs,
        Workload::ServeIngest => &attack_specs,
    };
    let probe: Vec<&DestinationSpec> = rng
        .sample(pool.len(), sizes.routing_specs)
        .into_iter()
        .map(|i| &pool[i])
        .collect();
    r.sizes.push(("probe_specs", probe.len() as f64));

    let mut clean_us = Vec::new();
    let mut victims: Vec<Asn> = probe.iter().map(|s| s.victim()).collect();
    victims.sort_unstable();
    victims.dedup();
    tracer.span("routing.clean_pass", |t| {
        let mut cold = RouteWorkspace::with_cache_capacity(0);
        for spec in &probe {
            if victims.binary_search(&spec.victim()).is_ok() {
                victims.retain(|&v| v != spec.victim());
                let clean = clean_of(spec);
                let t0 = Instant::now();
                let _ = engine.compute_with(&clean, &mut cold);
                clean_us.push(us(t0));
                t.record("routing.compute_with.clean", t0, Instant::now());
            }
        }
    });

    let mut full_us = Vec::new();
    let mut delta_us = Vec::new();
    let mut outcomes: Vec<RoutingOutcome<'_>> = Vec::with_capacity(probe.len());
    tracer.span("routing.attacked_pass", |t| {
        let mut ws = RouteWorkspace::new();
        for spec in &probe {
            let _ = engine.compute_with(&clean_of(spec), &mut ws);
            let t0 = Instant::now();
            let full = engine.compute_full_with(spec, &mut ws);
            let t1 = Instant::now();
            let delta = engine.compute_with(spec, &mut ws);
            let t2 = Instant::now();
            t.record("routing.compute_full_with", t0, t1);
            t.record("routing.compute_with.attacked", t1, t2);
            full_us.push((t1 - t0).as_secs_f64() * 1e6);
            delta_us.push((t2 - t1).as_secs_f64() * 1e6);
            r.checks.check(same_routes(&delta, &full), || {
                format!("delta outcome differs from compute_full_with for {spec:?}")
            });
            outcomes.push(delta);
        }
    });
    r.put("routing.clean_pass_us.p50", median(&clean_us));
    r.put("routing.clean_pass_us.p90", percentile(&clean_us, 0.9));
    r.put("routing.delta_pass_us.p50", median(&delta_us));
    r.put("routing.delta_pass_us.p90", percentile(&delta_us, 0.9));
    r.put("routing.full_pass_us.p50", median(&full_us));
    r.put("routing.full_pass_us.p90", percentile(&full_us, 0.9));

    let mut policy_us = Vec::new();
    tracer.span("routing.policy_pass", |t| {
        let mut ws = RouteWorkspace::new();
        for i in rng.sample(grid.len(), sizes.policy_cells) {
            let (spec, policy) = &grid[i];
            let _ = engine.compute_with(&clean_of(spec), &mut ws);
            let t0 = Instant::now();
            let _ = engine.compute_with_policy(spec, &mut ws, policy.as_ref());
            policy_us.push(us(t0));
            t.record("routing.compute_with_policy", t0, Instant::now());
        }
    });
    r.put("routing.policy_pass_us.p50", median(&policy_us));

    // --- Metric reduction, detection and data-plane calls on the same
    // attacked outcomes.
    let monitors = aspp_core::detect::monitors::top_degree(graph, scale.latency_monitors().min(60));
    let detector = Detector::new(graph);
    let prefix = scenario::canonical_prefix();
    let sources: Vec<Asn> = {
        let all: Vec<Asn> = graph.asns().collect();
        rng.sample(all.len(), 64)
            .into_iter()
            .map(|i| all[i])
            .collect()
    };
    let (mut baseline, mut changed, mut observed) = (Vec::new(), Vec::new(), Vec::new());
    let (mut view, mut scan, mut walk) = (Vec::new(), Vec::new(), Vec::new());
    tracer.span("metric+detect+dataplane", |t| {
        for outcome in &outcomes {
            let t0 = Instant::now();
            let _ = std::hint::black_box(outcome.baseline_fraction());
            baseline.push(us(t0));
            let t0 = Instant::now();
            let _ = std::hint::black_box(outcome.changed_count());
            changed.push(us(t0));
            let t0 = Instant::now();
            let after_paths: Vec<AsPath> = monitors
                .iter()
                .filter_map(|&m| outcome.observed_path(m))
                .collect();
            observed.push(us(t0) / monitors.len().max(1) as f64);
            t.record("metric.outcome", t0, Instant::now());

            let before_paths: Vec<AsPath> = monitors
                .iter()
                .filter_map(|&m| outcome.clean_observed_path(m))
                .collect();
            let t0 = Instant::now();
            let before = RouteView::from_paths(before_paths);
            let after = RouteView::from_paths(after_paths);
            view.push(us(t0) / 2.0);
            let t0 = Instant::now();
            let _ = std::hint::black_box(detector.scan(&before, &after));
            scan.push(us(t0));
            t.record("detect.scan", t0, Instant::now());

            let mut table = PrefixTable::new();
            table.announce(prefix, outcome);
            let t0 = Instant::now();
            for &src in &sources {
                let _ = std::hint::black_box(lpm_walk(&table, src, prefix.first_addr()));
            }
            walk.push(us(t0) / sources.len() as f64);
            t.record("dataplane.lpm_walk", t0, Instant::now());
        }
    });
    r.put("metric.baseline_fraction_us", median(&baseline));
    r.put("metric.changed_count_us", median(&changed));
    r.put("metric.observed_path_us", median(&observed));
    r.put("detect.view_build_us", median(&view));
    r.put("detect.scan_us", median(&scan));
    r.put("dataplane.lpm_walk_us", median(&walk));
    drop(outcomes);

    // --- Data and feed: corpus parse, seeding, frame scan, ingest at one
    // and two shards, checkpoint and restore.
    let expected = feed_layers(&mut r, tracer, graph, &stream, work)?;

    // --- The service: one traced session against `aspp serve`, on one
    // CPU as the end-to-end sessions run.
    let files = Files::write(&work.join("trace"), &stream)?;
    let session = tracer
        .span("serve.session", |t| {
            crate::on_first_cpu(|| {
                serve::session(
                    aspp,
                    workload.scale_name(),
                    seed,
                    &files,
                    &stream,
                    &expected,
                    Some(t),
                )
            })
        })
        .0?;
    r.checks.absorb(&session.checks);
    r.put("serve.query_ms.p50", median(&session.query_ms));
    r.put(
        "serve.rss_growth_mb",
        session.rss_end_mb - session.rss_seeded_mb,
    );
    r.sizes.push(("stream_records", stream.records() as f64));
    r.sizes.push(("stream_prefixes", stream.prefixes as f64));

    // Tracing overhead: the traced counterparts of the untraced metrics.
    let cells = match workload {
        Workload::ServeIngest => None,
        _ => Some(workload::BatchStudy::new(workload, graph, seed).cells as f64),
    };
    match cells {
        Some(cells) => {
            r.put("trace.study_s", study_s);
            r.put("trace.ingest_rec_per_s", cells / study_s);
        }
        None => {
            let ingest_s: f64 = session.ingest_ms.iter().sum::<f64>() / 1e3;
            r.put("trace.study_s", session.study_s);
            r.put("trace.ingest_rec_per_s", session.records as f64 / ingest_s);
        }
    }
    Ok(r)
}

/// Times the data and feed layers on `stream`; returns what the one-shard
/// engine replied, the reference for the traced service session.
fn feed_layers(
    r: &mut LayerReport,
    tracer: &mut Tracer,
    graph: &AsGraph,
    stream: &Stream,
    work: &Path,
) -> Result<Expected, String> {
    let shared = Arc::new(graph.clone());
    let records = stream.records() as f64;

    let (parsed, parse_s) = tracer.span("data.corpus_parse", |_| {
        Corpus::parse_strict(&stream.corpus_text)
    });
    r.put("data.corpus_parse_ms", parse_s * 1e3);
    r.checks
        .check(parsed.as_ref().is_ok_and(|c| *c == stream.corpus), || {
            "Corpus::parse_strict does not round-trip the generated corpus".into()
        });

    let mut one = FeedEngine::new(Arc::clone(&shared), &FeedConfig::new(1));
    let (_, seed_s) = tracer.span("feed.seed", |_| one.seed_from_corpus(&stream.corpus));
    r.put("feed.seed_ms", seed_s * 1e3);
    let mut two = FeedEngine::new(Arc::clone(&shared), &FeedConfig::new(2));
    two.seed_from_corpus(&stream.corpus);

    let (_, scan_s) = tracer.span("feed.scan_frames", |_| {
        for chunk in &stream.chunks {
            let _ = std::hint::black_box(scan_frames(chunk));
        }
    });
    r.put("feed.scan_ns_per_rec", scan_s * 1e9 / records);

    let ingest = |engine: &mut FeedEngine, t: &mut Tracer, name: &str| {
        let mut reports = Vec::with_capacity(stream.chunks.len());
        let (_, s) = t.span(name, |t| {
            for chunk in &stream.chunks {
                let t0 = Instant::now();
                let report = engine.ingest_wire(chunk);
                t.record("feed.ingest_wire", t0, Instant::now());
                reports.push(report);
            }
        });
        (reports, s)
    };
    let (reports1, s1) = ingest(&mut one, tracer, "feed.ingest.shards1");
    let (reports2, s2) = ingest(&mut two, tracer, "feed.ingest.shards2");
    r.put("feed.ingest_ns_per_rec.shards1", s1 * 1e9 / records);
    r.put("feed.ingest_ns_per_rec.shards2", s2 * 1e9 / records);
    let (mut batches, mut waits, mut depth) = (0, 0, 0);
    let mut per_shard = [0u64; 2];
    let mut alarms = Vec::with_capacity(reports1.len());
    for (i, (a, b)) in reports1.iter().zip(&reports2).enumerate() {
        let (Ok(a), Ok(b)) = (a, b) else {
            return Err(format!("ingest_wire failed on chunk {i}"));
        };
        alarms.push(a.alarms.len() as u64);
        r.checks.check(a.alarms == b.alarms, || {
            format!("chunk {i}: alarms differ between one and two shards")
        });
        batches += b.batches();
        waits += b.backpressure_waits();
        depth = depth.max(b.depth_high_water());
        for (total, shard) in per_shard.iter_mut().zip(&b.shards) {
            *total += shard.records;
        }
    }
    let mean = (per_shard[0] + per_shard[1]) as f64 / 2.0;
    r.put("feed.batches", batches as f64);
    r.put("feed.backpressure_waits", waits as f64);
    r.put("feed.depth_high_water", depth as f64);
    r.put(
        "feed.shard_balance",
        per_shard[0].max(per_shard[1]) as f64 / mean.max(1.0),
    );

    fs::create_dir_all(work).map_err(|e| format!("creating {}: {e}", work.display()))?;
    let path = work.join("trace.ckpt");
    let (written, ckpt_s) = tracer.span("feed.checkpoint", |_| {
        let bytes = Checkpoint::capture(&one).encode();
        fs::write(&path, &bytes).map(|()| bytes.len())
    });
    let written = written.map_err(|e| format!("writing {}: {e}", path.display()))?;
    r.put("feed.checkpoint_ms", ckpt_s * 1e3);
    r.put("feed.checkpoint_bytes", written as f64);

    let bytes = fs::read(&path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    let mut restored = FeedEngine::new(Arc::clone(&shared), &FeedConfig::new(1));
    let (decoded, restore_s) = tracer.span("feed.restore", |_| {
        Checkpoint::decode(&bytes).map(|c| c.restore_into(&mut restored))
    });
    r.put("feed.restore_ms", restore_s * 1e3);
    r.checks.check(
        decoded.is_ok()
            && restored.cursor() == one.cursor()
            && restored.export_state() == one.export_state(),
        || "restored engine differs from the checkpointed one".into(),
    );
    Ok(Expected {
        alarms,
        tracked: one.tracked_prefixes() as u64,
    })
}
