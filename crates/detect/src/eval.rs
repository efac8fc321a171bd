//! Detection-quality evaluation: the paper's Figure 13 (accuracy vs number
//! of monitors) and Figure 14 (fraction of ASes polluted before detection).

use aspp_attack::HijackExperiment;
use aspp_routing::{RouteWorkspace, RoutingEngine, RoutingOutcome};
use aspp_topology::AsGraph;
use aspp_types::Asn;

use crate::detector::{Confidence, Detector};
use crate::monitors::top_degree;
use crate::view::RouteView;

/// Result of running the detector against one simulated attack.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DetectionResult {
    /// The attack was feasible (the attacker had a route to strip).
    pub feasible: bool,
    /// The attack changed at least one AS's route (otherwise there is
    /// nothing to detect and nothing to protect against).
    pub effective: bool,
    /// An alarm naming the true attacker was raised.
    pub detected: bool,
    /// A high-confidence alarm naming the true attacker was raised.
    pub detected_high: bool,
    /// Any alarm was raised at all (useful for false-positive accounting).
    pub any_alarm: bool,
}

/// Runs the hijack in `exp` on `graph`, lets the given monitors watch, and
/// reports whether the detector catches it.
#[must_use]
pub fn detect_attack(graph: &AsGraph, exp: &HijackExperiment, monitors: &[Asn]) -> DetectionResult {
    let _span = aspp_obs::trace::span("detect.attack");
    let engine = RoutingEngine::new(graph);
    let outcome = engine.compute(&exp.to_spec());
    // No-op unless `debug-audit` / ASPP_AUDIT=1: the detection evaluation
    // only ever judges invariant-clean equilibria.
    aspp_routing::audit::check_outcome(&outcome);
    let feasible = outcome.has_attack();
    let effective = outcome.polluted_count() > 0 && outcome.any_changed();
    if !feasible || !effective {
        return DetectionResult {
            feasible,
            effective,
            detected: false,
            detected_high: false,
            any_alarm: false,
        };
    }
    let before = RouteView::from_paths(
        monitors
            .iter()
            .filter_map(|&m| outcome.clean_observed_path(m)),
    );
    let after = RouteView::from_paths(monitors.iter().filter_map(|&m| outcome.observed_path(m)));
    let detector = Detector::new(graph);
    let alarms = detector.scan(&before, &after);
    let detected = alarms.iter().any(|a| a.suspect == exp.attacker());
    let detected_high = alarms
        .iter()
        .any(|a| a.suspect == exp.attacker() && a.confidence == Confidence::High);
    DetectionResult {
        feasible,
        effective,
        detected,
        detected_high,
        any_alarm: !alarms.is_empty(),
    }
}

/// One point of the Figure 13 curve.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AccuracyPoint {
    /// Number of monitors used.
    pub monitor_count: usize,
    /// Fraction of effective attacks for which *any* alarm was raised for
    /// the victim prefix — the paper's "percentage of attacks detected"
    /// (alarms notify the prefix owner; they need not name the culprit).
    pub accuracy: f64,
    /// Fraction where some alarm named the true attacker.
    pub accuracy_attributed: f64,
    /// Fraction where a high-confidence alarm named the true attacker.
    pub accuracy_high: f64,
    /// Number of effective attacks evaluated.
    pub attacks: usize,
}

/// Sweeps the number of top-degree monitors and measures detection accuracy
/// over the given attack experiments (paper: 200 random attacker/victim
/// pairs, top-`d` monitors by degree).
///
/// # Example
///
/// ```
/// use aspp_attack::sweep::random_pair_experiments;
/// use aspp_detect::eval::accuracy_vs_monitors;
/// use aspp_topology::gen::InternetConfig;
///
/// let g = InternetConfig::small().seed(2).build();
/// let exps = random_pair_experiments(&g, 10, 3, 7);
/// let curve = accuracy_vs_monitors(&g, &exps, &[5, 40]);
/// assert_eq!(curve.len(), 2);
/// // More monitors never hurt.
/// assert!(curve[1].accuracy >= curve[0].accuracy);
/// ```
#[must_use]
pub fn accuracy_vs_monitors(
    graph: &AsGraph,
    exps: &[HijackExperiment],
    monitor_counts: &[usize],
) -> Vec<AccuracyPoint> {
    let _span = aspp_obs::trace::span("detect.accuracy_vs_monitors");
    // The top-d monitor sets are prefixes of one ranked list; compute the
    // attack equilibrium once per experiment and reuse its observed paths
    // for every monitor count. Experiments run across worker threads.
    let max_count = monitor_counts.iter().copied().max().unwrap_or(0);
    let ranked = top_degree(graph, max_count);

    #[derive(Clone, Copy, Default)]
    struct Tally {
        attacks: usize,
        alarmed: usize,
        attributed: usize,
        high: usize,
    }

    let workers = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(4)
        .min(exps.len().max(1));
    let next = std::sync::atomic::AtomicUsize::new(0);
    let merged: parking_lot_free::Mutex<Vec<Tally>> =
        parking_lot_free::Mutex::new(vec![Tally::default(); monitor_counts.len()]);

    crossbeam::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|_| {
                let engine = RoutingEngine::new(graph);
                let detector = Detector::new(graph);
                // One workspace per worker: the heap is reused across every
                // equilibrium, and repeated victims share clean passes.
                let mut ws = RouteWorkspace::new();
                let mut local = vec![Tally::default(); monitor_counts.len()];
                loop {
                    let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    if i >= exps.len() {
                        break;
                    }
                    let exp = &exps[i];
                    let outcome = engine.compute_with(&exp.to_spec(), &mut ws);
                    if !outcome.has_attack()
                        || outcome.polluted_count() == 0
                        || !outcome.any_changed()
                    {
                        continue;
                    }
                    let clean_paths: Vec<_> = ranked
                        .iter()
                        .map(|&m| outcome.clean_observed_path(m))
                        .collect();
                    let attacked_paths: Vec<_> =
                        ranked.iter().map(|&m| outcome.observed_path(m)).collect();
                    for (ci, &d) in monitor_counts.iter().enumerate() {
                        let before = RouteView::from_paths(
                            clean_paths.iter().take(d).filter_map(Clone::clone),
                        );
                        let after = RouteView::from_paths(
                            attacked_paths.iter().take(d).filter_map(Clone::clone),
                        );
                        let alarms = detector.scan(&before, &after);
                        local[ci].attacks += 1;
                        if !alarms.is_empty() {
                            local[ci].alarmed += 1;
                        }
                        if alarms.iter().any(|a| a.suspect == exp.attacker()) {
                            local[ci].attributed += 1;
                        }
                        if alarms.iter().any(|a| {
                            a.suspect == exp.attacker() && a.confidence == Confidence::High
                        }) {
                            local[ci].high += 1;
                        }
                    }
                }
                let mut m = merged.lock();
                for (acc, l) in m.iter_mut().zip(local) {
                    acc.attacks += l.attacks;
                    acc.alarmed += l.alarmed;
                    acc.attributed += l.attributed;
                    acc.high += l.high;
                }
            });
        }
    })
    .expect("worker threads never panic");

    let tallies = merged.into_inner();
    monitor_counts
        .iter()
        .zip(tallies)
        .map(|(&d, t)| AccuracyPoint {
            monitor_count: d,
            accuracy: ratio(t.alarmed, t.attacks),
            accuracy_attributed: ratio(t.attributed, t.attacks),
            accuracy_high: ratio(t.high, t.attacks),
            attacks: t.attacks,
        })
        .collect()
}

/// Tiny mutex shim so this module only depends on std.
mod parking_lot_free {
    pub use std::sync::Mutex as StdMutex;

    /// A `Mutex` wrapper with `parking_lot`-style `lock()` ergonomics.
    #[derive(Debug, Default)]
    pub struct Mutex<T>(StdMutex<T>);

    impl<T> Mutex<T> {
        pub fn new(value: T) -> Self {
            Mutex(StdMutex::new(value))
        }

        pub fn lock(&self) -> std::sync::MutexGuard<'_, T> {
            self.0.lock().expect("no poisoning: workers do not panic")
        }

        pub fn into_inner(self) -> T {
            self.0.into_inner().expect("no poisoning")
        }
    }
}

fn ratio(num: usize, den: usize) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// The Figure 14 metric for one attack: the fraction of **all** ASes already
/// polluted when the detector first raises an alarm naming the attacker.
///
/// Pollution spreads outward from the attacker in rounds of AS-hop distance;
/// at round `r` the monitors whose own routes have switched (distance ≤ r)
/// report attacked paths while the rest still report clean ones. The
/// detection round is the first `r` at which the combined view raises any
/// alarm for the victim prefix. Returns `None` when the attack is never
/// detected (or never effective).
#[must_use]
pub fn polluted_fraction_before_detection(
    graph: &AsGraph,
    exp: &HijackExperiment,
    monitors: &[Asn],
) -> Option<f64> {
    let _span = aspp_obs::trace::span("detect.polluted_before_detection");
    let engine = RoutingEngine::new(graph);
    let outcome = engine.compute(&exp.to_spec());
    if !outcome.has_attack() || outcome.polluted_count() == 0 || !outcome.any_changed() {
        return None;
    }
    let detector = Detector::new(graph);
    let before = RouteView::from_paths(
        monitors
            .iter()
            .filter_map(|&m| outcome.clean_observed_path(m)),
    );
    let max_round = monitors
        .iter()
        .filter_map(|&m| outcome.pollution_distance(m))
        .max()?; // no polluted monitor -> undetectable by route change

    for round in 0..=max_round {
        let after = hybrid_view(&outcome, monitors, round);
        let alarms = detector.scan(&before, &after);
        if !alarms.is_empty() {
            let polluted_so_far = graph
                .asns()
                .filter(|&a| outcome.pollution_distance(a).is_some_and(|d| d <= round))
                .count();
            return Some(polluted_so_far as f64 / graph.len() as f64);
        }
    }
    None
}

/// Result of the false-positive evaluation: how often *legitimate* traffic
/// engineering trips the detector — the paper's central design worry ("the
/// main challenge in detection is that the origin AS can apply flexible
/// prepending policies", Section V-A).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FalsePositiveReport {
    /// Legitimate re-engineering scenarios evaluated.
    pub scenarios: usize,
    /// Scenarios that produced any alarm (low confidence included).
    pub any_alarm: usize,
    /// Scenarios that produced a high-confidence alarm — these are the
    /// damaging false positives; low-confidence hints are advisory.
    pub high_alarm: usize,
}

impl FalsePositiveReport {
    /// High-confidence false-positive rate.
    #[must_use]
    pub fn high_rate(&self) -> f64 {
        if self.scenarios == 0 {
            0.0
        } else {
            self.high_alarm as f64 / self.scenarios as f64
        }
    }
}

/// For each victim, simulates a *legitimate* traffic-engineering change —
/// switching from uniform λ=3 padding to per-neighbor padding that leaves
/// one provider clean — and runs the detector on the monitors' before/after
/// views. No attacker exists; every alarm is a false positive.
#[must_use]
pub fn false_positive_rate(
    graph: &AsGraph,
    victims: &[Asn],
    monitors: &[Asn],
) -> FalsePositiveReport {
    use aspp_routing::{DestinationSpec, PrependConfig, PrependingPolicy};

    let engine = RoutingEngine::new(graph);
    let detector = Detector::new(graph);
    let mut ws = RouteWorkspace::new();
    let mut report = FalsePositiveReport::default();
    for &victim in victims {
        let mut providers: Vec<Asn> = graph.providers(victim).collect();
        providers.sort();
        let Some(&primary) = providers.first() else {
            continue; // provider-free victims have no differential TE story
        };
        let before_spec = DestinationSpec::new(victim).origin_padding(3);
        let mut config = PrependConfig::new();
        config.set(victim, PrependingPolicy::per_neighbor(2, [(primary, 0)]));
        let after_spec = DestinationSpec::new(victim).prepend_config(config);

        let before_out = engine.compute_with(&before_spec, &mut ws);
        let after_out = engine.compute_with(&after_spec, &mut ws);
        let before =
            RouteView::from_paths(monitors.iter().filter_map(|&m| before_out.observed_path(m)));
        let after =
            RouteView::from_paths(monitors.iter().filter_map(|&m| after_out.observed_path(m)));
        report.scenarios += 1;
        let alarms = detector.scan(&before, &after);
        if !alarms.is_empty() {
            report.any_alarm += 1;
        }
        if alarms.iter().any(|a| a.confidence == Confidence::High) {
            report.high_alarm += 1;
        }
    }
    report
}

/// Runs the same attack three ways (ASPP strip, forged adjacency, origin
/// hijack) and reports which detectors see each — the paper's stealth
/// comparison. Only the monitors' views feed each detector.
#[must_use]
pub fn visibility_matrix(
    graph: &AsGraph,
    victim: Asn,
    attacker: Asn,
    padding: usize,
    monitors: &[Asn],
) -> Vec<(
    aspp_routing::AttackStrategy,
    crate::baseline::VisibilityReport,
)> {
    use aspp_routing::{AttackStrategy, AttackerModel, DestinationSpec};

    let engine = RoutingEngine::new(graph);
    let detector = Detector::new(graph);
    // All three strategies share one victim and padding, so the clean pass
    // is computed once and served from the workspace cache twice.
    let mut ws = RouteWorkspace::new();
    let strategies = [
        AttackStrategy::StripPadding { keep: 1 },
        AttackStrategy::ForgeDirect,
        AttackStrategy::OriginHijack,
    ];
    strategies
        .into_iter()
        .map(|strategy| {
            let spec = DestinationSpec::new(victim)
                .origin_padding(padding)
                .attacker(AttackerModel::new(attacker).strategy(strategy));
            let outcome = engine.compute_with(&spec, &mut ws);
            let before = RouteView::from_paths(
                monitors
                    .iter()
                    .filter_map(|&m| outcome.clean_observed_path(m)),
            );
            let after =
                RouteView::from_paths(monitors.iter().filter_map(|&m| outcome.observed_path(m)));
            let report = crate::baseline::VisibilityReport {
                moas: crate::baseline::detect_moas(&before, &after).is_some(),
                link_anomaly: !crate::baseline::detect_link_anomalies(graph, &after).is_empty(),
                aspp: !detector.scan(&before, &after).is_empty(),
            };
            (strategy, report)
        })
        .collect()
}

/// Builds the monitors' combined view at pollution round `round`: monitors
/// whose route has already switched show the attacked path, the others the
/// clean path.
fn hybrid_view(outcome: &RoutingOutcome<'_>, monitors: &[Asn], round: u32) -> RouteView {
    RouteView::from_paths(
        monitors
            .iter()
            .filter_map(|&m| match outcome.pollution_distance(m) {
                Some(d) if d <= round => outcome.observed_path(m),
                _ => outcome.clean_observed_path(m),
            }),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use aspp_attack::scenarios::{figure3, figure3_topology};
    use aspp_attack::sweep::random_pair_experiments;
    use aspp_topology::gen::InternetConfig;

    #[test]
    fn figure3_attack_detected_with_good_monitors() {
        use figure3::*;
        let g = figure3_topology();
        let exp = HijackExperiment::new(V, M).padding(3);
        let result = detect_attack(&g, &exp, &[B, D, E]);
        assert!(result.feasible && result.effective);
        assert!(result.detected, "monitor at B sees the stripped route");
        assert!(result.detected_high);
    }

    #[test]
    fn blind_monitors_miss_the_attack() {
        use figure3::*;
        let g = figure3_topology();
        let exp = HijackExperiment::new(V, M).padding(3);
        // D and E never see the malicious route (valley-free confines it to
        // M's customer cone), so detection must fail.
        let result = detect_attack(&g, &exp, &[D, E]);
        assert!(result.effective);
        assert!(!result.detected);
    }

    #[test]
    fn ineffective_attack_counts_as_nothing_to_detect() {
        use figure3::*;
        let g = figure3_topology();
        // λ=1: nothing to strip, nobody switches.
        let exp = HijackExperiment::new(V, M).padding(1);
        let result = detect_attack(&g, &exp, &[B, D, E]);
        assert!(!result.effective);
        assert!(!result.detected);
    }

    #[test]
    fn accuracy_grows_with_monitor_count() {
        let g = InternetConfig::small().seed(14).build();
        let exps = random_pair_experiments(&g, 20, 4, 5);
        let curve = accuracy_vs_monitors(&g, &exps, &[3, 30, 120]);
        assert_eq!(curve.len(), 3);
        assert!(curve[0].accuracy <= curve[1].accuracy + 1e-9);
        assert!(curve[1].accuracy <= curve[2].accuracy + 1e-9);
        // With most of the small Internet as monitors, detection is strong.
        assert!(
            curve[2].accuracy > 0.8,
            "accuracy with 120 monitors: {}",
            curve[2].accuracy
        );
    }

    #[test]
    fn pollution_before_detection_in_unit_range() {
        use figure3::*;
        let g = figure3_topology();
        let exp = HijackExperiment::new(V, M).padding(3);
        let frac = polluted_fraction_before_detection(&g, &exp, &[B, D, E]).unwrap();
        assert!((0.0..=1.0).contains(&frac));
        // Detection happens as soon as B reports, with only M's cone dirty.
        assert!(frac <= 0.5, "early detection expected, got {frac}");
    }

    #[test]
    fn legitimate_te_rarely_triggers_high_confidence_alarms() {
        let g = InternetConfig::small().seed(15).build();
        let victims: Vec<Asn> = (0..25).map(|i| Asn(20_000 + i)).collect();
        let monitors = top_degree(&g, 40);
        let report = false_positive_rate(&g, &victims, &monitors);
        assert!(report.scenarios >= 20);
        // The same-segment rule is specific: legitimate per-neighbor padding
        // changes the first hop with the padding, so segments differ and
        // high-confidence alarms stay rare.
        assert!(
            report.high_rate() < 0.25,
            "high-confidence FP rate too high: {report:?}"
        );
        // Low-confidence hints may fire — that is the paper's documented
        // trade-off — but must not be universal either.
        assert!(report.any_alarm <= report.scenarios);
    }

    #[test]
    fn visibility_matrix_matches_paper_claims() {
        use aspp_attack::scenarios::{figure3, figure3_topology};
        use aspp_routing::AttackStrategy;
        use figure3::*;
        let g = figure3_topology();
        let matrix = visibility_matrix(&g, V, M, 3, &[B, D, E]);
        for (strategy, report) in matrix {
            match strategy {
                AttackStrategy::StripPadding { .. } | AttackStrategy::StripAllPadding => {
                    assert!(!report.moas, "ASPP must not trip MOAS");
                    assert!(!report.link_anomaly, "ASPP introduces no bogus link");
                    assert!(report.aspp, "the Figure 4 detector catches ASPP");
                }
                AttackStrategy::ForgeDirect => {
                    assert!(report.link_anomaly, "forged adjacency is visible");
                    assert!(!report.moas, "origin stays genuine");
                }
                AttackStrategy::OriginHijack => {
                    assert!(report.moas, "stolen origin is a MOAS conflict");
                }
                AttackStrategy::PoisonPath { .. } => {
                    assert!(!report.moas, "origin stays genuine");
                }
            }
        }
    }

    #[test]
    fn undetectable_attack_returns_none() {
        use figure3::*;
        let g = figure3_topology();
        let exp = HijackExperiment::new(V, M).padding(3);
        assert_eq!(polluted_fraction_before_detection(&g, &exp, &[D, E]), None);
    }
}
