//! Differential oracle for the memoized fate sweep: `delivery_stats` must
//! equal, bit for bit, the aggregate of one `walk` per source — on correct
//! equilibria for every attack strategy and export mode, and on outcomes
//! corrupted by hand into forwarding cycles, dead ends and crossings of the
//! attacker's clean chain.

use aspp_dataplane::forwarding::{delivery_stats, walk, Delivery, DeliveryStats};
use aspp_routing::{
    AttackStrategy, AttackerModel, DestinationSpec, ExportMode, RouteInfo, RoutingEngine,
    RoutingOutcome,
};
use aspp_topology::gen::InternetConfig;
use aspp_topology::AsGraph;
use aspp_types::Asn;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The reference: walk from every AS but the victim and average the fates.
fn walked_stats(outcome: &RoutingOutcome<'_>) -> DeliveryStats {
    let mut stats = DeliveryStats::default();
    let mut total = 0usize;
    for src in outcome.asns().filter(|&a| a != outcome.victim()) {
        total += 1;
        match walk(outcome, src) {
            Delivery::Delivered { intercepted, .. } => {
                stats.delivered += 1.0;
                if intercepted {
                    stats.intercepted += 1.0;
                }
            }
            Delivery::Blackholed { .. } => stats.blackholed += 1.0,
            Delivery::Looped { .. } => stats.looped += 1.0,
        }
    }
    if total > 0 {
        let n = total as f64;
        stats.delivered /= n;
        stats.intercepted /= n;
        stats.blackholed /= n;
        stats.looped /= n;
    }
    stats
}

fn assert_sweep_matches_walks(outcome: &RoutingOutcome<'_>) -> DeliveryStats {
    let swept = delivery_stats(outcome);
    let walked = walked_stats(outcome);
    let fields =
        |s: &DeliveryStats| [s.delivered, s.intercepted, s.blackholed, s.looped].map(f64::to_bits);
    assert_eq!(
        fields(&swept),
        fields(&walked),
        "sweep {swept:?} vs walks {walked:?} for {:?}",
        outcome.spec()
    );
    swept
}

const MODES: [ExportMode; 2] = [ExportMode::Compliant, ExportMode::ViolateValleyFree];

fn strategies(poisoned: Asn) -> [AttackStrategy; 5] {
    [
        AttackStrategy::StripPadding { keep: 1 },
        AttackStrategy::StripAllPadding,
        AttackStrategy::ForgeDirect,
        AttackStrategy::OriginHijack,
        AttackStrategy::PoisonPath { poisoned },
    ]
}

/// Seeded distinct (victim, attacker, poisoned) triples from `graph`.
fn actors(graph: &AsGraph, count: usize, seed: u64) -> Vec<(Asn, Asn, Asn)> {
    let asns: Vec<Asn> = graph.asns().collect();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut pick = || asns[rng.gen_range(0..asns.len())];
    let mut out = Vec::new();
    while out.len() < count {
        let (v, m, p) = (pick(), pick(), pick());
        if v != m {
            out.push((v, m, p));
        }
    }
    out
}

fn check_matrix(graph: &AsGraph, pairs: usize, seed: u64) {
    let engine = RoutingEngine::new(graph);
    for (victim, attacker, poisoned) in actors(graph, pairs, seed) {
        for lambda in [1, 3, 6] {
            let spec = DestinationSpec::new(victim).origin_padding(lambda);
            assert_sweep_matches_walks(&engine.compute(&spec));
            for strategy in strategies(poisoned) {
                for mode in MODES {
                    let model = AttackerModel::new(attacker).strategy(strategy).mode(mode);
                    assert_sweep_matches_walks(&engine.compute(&spec.clone().attacker(model)));
                }
            }
        }
    }
}

#[test]
fn sweep_matches_walks_on_smoke_graphs() {
    for seed in 0..4 {
        check_matrix(&InternetConfig::small().seed(seed).build(), 4, seed);
    }
}

#[test]
fn sweep_matches_walks_on_a_paper_scale_graph() {
    check_matrix(&InternetConfig::medium().seed(2024).build(), 3, 2024);
}

fn graph() -> AsGraph {
    InternetConfig::small().seed(31).build()
}

/// A strip attack whose attacker forwards over a clean chain of at least
/// two hops, so its first clean hop is not the victim.
fn strip_outcome(graph: &AsGraph) -> RoutingOutcome<'_> {
    let engine = RoutingEngine::new(graph);
    let victim = Asn(20_000);
    for attacker in graph.asns().filter(|&a| a != victim) {
        let spec = DestinationSpec::new(victim)
            .origin_padding(5)
            .attacker(AttackerModel::new(attacker));
        let outcome = engine.compute(&spec);
        let first_hop = outcome.clean_route(attacker).and_then(|r| r.next_hop);
        if outcome.has_attack() && first_hop.is_some_and(|h| h != victim) {
            return outcome;
        }
    }
    panic!("no attacker with a two-hop clean chain");
}

fn clean_hop(outcome: &RoutingOutcome<'_>, asn: Asn) -> Asn {
    outcome
        .clean_route(asn)
        .and_then(|r| r.next_hop)
        .expect("on a clean chain")
}

/// Points `asn`'s final-pass route at `hop`.
fn redirect(outcome: &mut RoutingOutcome<'_>, asn: Asn, hop: Option<Asn>) {
    let mut route = outcome.route(asn).unwrap_or(RouteInfo {
        class: aspp_types::RouteClass::FromProvider,
        effective_len: 1,
        next_hop: None,
        via_attacker: false,
    });
    route.next_hop = hop;
    outcome.override_route_unchecked(asn, Some(route));
}

/// Some AS other than the victim, the attacker and `avoid`.
fn bystander(outcome: &RoutingOutcome<'_>, avoid: &[Asn]) -> Asn {
    outcome
        .asns()
        .find(|&a| a != outcome.victim() && Some(a) != outcome.attacker() && !avoid.contains(&a))
        .expect("graph has bystanders")
}

#[test]
fn phase_one_forwarding_cycle() {
    let g = graph();
    let mut outcome = strip_outcome(&g);
    let a = bystander(&outcome, &[]);
    let b = bystander(&outcome, &[a]);
    let c = bystander(&outcome, &[a, b]);
    redirect(&mut outcome, a, Some(b));
    redirect(&mut outcome, b, Some(a));
    redirect(&mut outcome, c, Some(a));
    assert!(matches!(walk(&outcome, c), Delivery::Looped { .. }));
    assert!(assert_sweep_matches_walks(&outcome).looped > 0.0);
}

#[test]
fn attacker_clean_chain_crosses_a_polluted_node() {
    let g = graph();
    let mut outcome = strip_outcome(&g);
    let m = outcome.attacker().unwrap();
    let c1 = clean_hop(&outcome, m);
    let s = bystander(&outcome, &[c1]);
    // c1 now forwards to the attacker, whose clean chain leads back to c1.
    redirect(&mut outcome, c1, Some(m));
    redirect(&mut outcome, s, Some(c1));
    assert!(matches!(walk(&outcome, s), Delivery::Looped { .. }));
    assert!(walk(&outcome, m).is_intercepted());
    let stats = assert_sweep_matches_walks(&outcome);
    assert!(stats.looped > 0.0 && stats.intercepted > 0.0, "{stats:?}");
}

#[test]
fn crossing_is_caught_before_a_later_dead_end() {
    let g = graph();
    let mut outcome = strip_outcome(&g);
    let m = outcome.attacker().unwrap();
    let c1 = clean_hop(&outcome, m);
    redirect(&mut outcome, c1, Some(m));
    // The attacker's clean chain now dead-ends at c1 — after the crossing.
    outcome.override_clean_route_unchecked(c1, None);
    assert!(matches!(walk(&outcome, c1), Delivery::Looped { .. }));
    assert!(matches!(
        walk(&outcome, m),
        Delivery::Blackholed { at, .. } if at == c1
    ));
    let stats = assert_sweep_matches_walks(&outcome);
    assert!(stats.looped > 0.0 && stats.blackholed > 0.0, "{stats:?}");
}

#[test]
fn missing_next_hop_blackholes() {
    let g = graph();
    let mut outcome = strip_outcome(&g);
    let a = bystander(&outcome, &[]);
    let b = bystander(&outcome, &[a]);
    let c = bystander(&outcome, &[a, b]);
    outcome.override_route_unchecked(a, None);
    redirect(&mut outcome, b, None);
    redirect(&mut outcome, c, Some(b));
    assert!(matches!(walk(&outcome, c), Delivery::Blackholed { at, .. } if at == b));
    assert!(assert_sweep_matches_walks(&outcome).blackholed > 0.0);
}

#[test]
fn attacker_clean_chain_loops_on_its_own() {
    let g = graph();
    let mut outcome = strip_outcome(&g);
    let m = outcome.attacker().unwrap();
    let c1 = clean_hop(&outcome, m);
    let mut route = outcome.clean_route(c1).unwrap();
    route.next_hop = Some(m);
    outcome.override_clean_route_unchecked(c1, Some(route));
    assert!(matches!(walk(&outcome, m), Delivery::Looped { .. }));
    let stats = assert_sweep_matches_walks(&outcome);
    assert!(stats.looped > 0.0 && stats.intercepted == 0.0, "{stats:?}");
}

/// The attacker's clean chain, attacker first, as far as it reaches.
fn clean_chain(outcome: &RoutingOutcome<'_>) -> Vec<Asn> {
    let mut chain: Vec<Asn> = outcome.attacker().into_iter().collect();
    while let Some(next) = chain
        .last()
        .and_then(|&a| outcome.clean_route(a))
        .and_then(|r| r.next_hop)
        .filter(|n| !chain.contains(n))
    {
        chain.push(next);
    }
    chain
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random corruptions of both passes under every strategy: arbitrary
    /// next hops, removed routes and dead ends, on either side of the
    /// attacker and on its clean chain.
    #[test]
    fn sweep_matches_walks_under_random_corruption(seed in any::<u64>(), pick in 0usize..10) {
        let g = InternetConfig::small().seed(seed % 8).build();
        let (victim, attacker, poisoned) = actors(&g, 1, seed)[0];
        let strategy = strategies(poisoned)[pick % 5];
        let spec = DestinationSpec::new(victim)
            .origin_padding(1 + pick % 6)
            .attacker(AttackerModel::new(attacker).strategy(strategy).mode(MODES[pick % 2]));
        let mut outcome = RoutingEngine::new(&g).compute(&spec);
        let asns: Vec<Asn> = g.asns().collect();
        // Half the picks land on the attacker's clean chain, where phase-2
        // loops and crossings arise.
        let chain = clean_chain(&outcome);
        let mut rng = StdRng::seed_from_u64(seed);
        let pick_as = |rng: &mut StdRng| {
            if !chain.is_empty() && rng.gen_bool(0.5) {
                chain[rng.gen_range(0..chain.len())]
            } else {
                asns[rng.gen_range(0..asns.len())]
            }
        };
        for _ in 0..rng.gen_range(1..12) {
            let asn = pick_as(&mut rng);
            let hop = rng.gen_bool(0.8).then(|| pick_as(&mut rng));
            if rng.gen_bool(0.5) {
                redirect(&mut outcome, asn, hop);
            } else if let Some(mut route) = outcome.clean_route(asn) {
                route.next_hop = hop;
                outcome.override_clean_route_unchecked(asn, Some(route));
            }
        }
        assert_sweep_matches_walks(&outcome);
    }
}
