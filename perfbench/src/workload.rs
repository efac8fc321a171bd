//! The three workloads, their seeded inputs and the complete studies the
//! end-to-end runs time.

use aspp_core::attack::sweep::{random_pair_experiments, strategy_matrix};
use aspp_core::experiments::defense::{self, DefenseConfig};
use aspp_core::experiments::{detection, scenario, Scale};
use aspp_core::prelude::*;

/// Victim/attacker pairs in the paper-figures strategy matrix.
pub const SWEEP_PAIRS: usize = 40;
/// Largest padding λ of the strategy matrix (λ runs 1..=LAMBDA_MAX).
pub const LAMBDA_MAX: usize = 8;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    InternetStudy,
    PaperFigures,
    ServeIngest,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "internet-study" => Some(Workload::InternetStudy),
            "paper-figures" => Some(Workload::PaperFigures),
            "serve-ingest" => Some(Workload::ServeIngest),
            _ => None,
        }
    }

    pub fn scale(self) -> Scale {
        match self {
            Workload::InternetStudy => Scale::Internet,
            Workload::PaperFigures | Workload::ServeIngest => Scale::Paper,
        }
    }

    pub fn scale_name(self) -> &'static str {
        match self.scale() {
            Scale::Internet => "internet",
            _ => "paper",
        }
    }
}

/// The paper-figures strategy matrix: seeded random pairs × 4 strategies ×
/// 2 export modes × λ 1..=8, exactly as `aspp sweep` builds it.
pub fn sweep_matrix(graph: &AsGraph, pairs: usize, seed: u64) -> Vec<HijackExperiment> {
    random_pair_experiments(graph, pairs, 1, seed)
        .iter()
        .flat_map(|p| strategy_matrix(p.victim(), p.attacker(), 1..=LAMBDA_MAX))
        .collect()
}

/// Cells of the defense grid: policies × strategies × fractions × pairs,
/// once for the strip attack and once for the origin-hijack contrast.
pub fn defense_cells(config: &DefenseConfig) -> usize {
    config.kinds.len() * config.strategies.len() * config.fractions.len() * config.pairs * 2
}

/// Specs of every step of the canonical timeline, in step order.
pub fn timeline_specs(graph: &AsGraph, scale: Scale, seed: u64) -> Vec<Vec<DestinationSpec>> {
    let timeline = scenario::canonical_timeline(graph, scale, seed);
    timeline
        .times()
        .into_iter()
        .map(|t| timeline.step_specs(&timeline.state_at(t)))
        .collect()
}

/// The spec the estimator resolves for one of its sample points.
pub fn estimate_spec(config: &EstimatorConfig, victim: Asn, attacker: Asn) -> DestinationSpec {
    DestinationSpec::new(victim)
        .origin_padding(config.lambda)
        .attacker(
            AttackerModel::new(attacker)
                .strategy(config.strategy)
                .mode(config.mode),
        )
}

/// Inputs of a batch study, generated from the seed once per process.
pub struct BatchStudy {
    pub workload: Workload,
    pub seed: u64,
    pub matrix: Vec<HijackExperiment>,
    pub defense: DefenseConfig,
    /// Routing cells one study resolves.
    pub cells: usize,
}

impl BatchStudy {
    pub fn new(workload: Workload, graph: &AsGraph, seed: u64) -> BatchStudy {
        let scale = workload.scale();
        let (matrix, defense, cells) = match workload {
            Workload::InternetStudy => {
                let steps: usize = timeline_specs(graph, scale, seed)
                    .iter()
                    .map(Vec::len)
                    .sum();
                let cells = scale.estimator_samples() + steps;
                (Vec::new(), DefenseConfig::at_scale(scale, seed), cells)
            }
            Workload::PaperFigures => {
                let matrix = sweep_matrix(graph, SWEEP_PAIRS, seed);
                let defense = DefenseConfig::at_scale(scale, seed);
                let cells = matrix.len() + defense_cells(&defense) + 2 * scale.detection_pairs();
                (matrix, defense, cells)
            }
            Workload::ServeIngest => unreachable!("serve-ingest is not a batch study"),
        };
        BatchStudy {
            workload,
            seed,
            matrix,
            defense,
            cells,
        }
    }

    /// Runs one complete study with a fresh runner, as one CLI invocation
    /// does, and returns its results rendered for the digest. Rendering
    /// is left to the caller so it stays outside the timed region.
    pub fn run(&self, graph: &AsGraph) -> StudyOutput {
        let runner = BatchRunner::new();
        let scale = self.workload.scale();
        match self.workload {
            Workload::InternetStudy => StudyOutput::Internet {
                estimate: scenario::estimate_with_runner(graph, scale, self.seed, &runner),
                timeline: scenario::run_with_runner(graph, scale, self.seed, &runner),
            },
            Workload::PaperFigures => StudyOutput::Paper {
                sweep: run_experiments_with_runner(graph, &self.matrix, &runner),
                defense: defense::run_with_runner(graph, &self.defense, &runner),
                fig13: detection::fig13(graph, scale, self.seed),
                fig14: detection::fig14(graph, scale, self.seed),
            },
            Workload::ServeIngest => unreachable!("serve-ingest is not a batch study"),
        }
    }
}

pub enum StudyOutput {
    Internet {
        estimate: Estimate,
        timeline: ScenarioRun,
    },
    Paper {
        sweep: Vec<HijackImpact>,
        defense: defense::DefenseStudy,
        fig13: detection::AccuracyCurve,
        fig14: detection::DetectionLatency,
    },
}

impl StudyOutput {
    /// A digest of every number the study produced. `Debug` prints floats
    /// in shortest round-trip form, so equal digests mean bit-equal results.
    pub fn digest(&self) -> u64 {
        match self {
            StudyOutput::Internet { estimate, timeline } => {
                fnv(&format!("{estimate:?}|{timeline:?}"))
            }
            StudyOutput::Paper {
                sweep,
                defense,
                fig13,
                fig14,
            } => fnv(&format!("{sweep:?}|{defense:?}|{fig13:?}|{fig14:?}")),
        }
    }
}

/// 64-bit FNV-1a.
pub fn fnv(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// A small deterministic generator for choosing check subsamples.
pub struct SplitMix(pub u64);

impl SplitMix {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// `k` distinct indices below `n`, ascending.
    pub fn sample(&mut self, n: usize, k: usize) -> Vec<usize> {
        let mut picked: Vec<usize> = Vec::with_capacity(k.min(n));
        while picked.len() < k.min(n) {
            let i = (self.next_u64() % n as u64) as usize;
            if !picked.contains(&i) {
                picked.push(i);
            }
        }
        picked.sort_unstable();
        picked
    }
}
