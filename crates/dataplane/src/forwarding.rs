//! Data-plane forwarding walks: does a packet actually arrive?
//!
//! The paper's central distinction: with the ASPP interception "the traffic
//! will eventually reach the destination V, which makes this attack
//! different from the blackholing based prefix hijacking attacks"
//! (Section II-B). This module checks that property mechanically by walking
//! hop-by-hop forwarding decisions: each AS hands the packet to its best
//! route's next hop; the attacker forwards intercepted traffic over its own
//! (clean) route; an origin hijacker has nowhere to send it.

use aspp_routing::{AttackStrategy, RoutingOutcome};
use aspp_types::Asn;

/// The fate of a packet sent from one AS toward the victim prefix.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Delivery {
    /// The packet reached the victim; the flag says whether it crossed the
    /// attacker on the way (interception), and the path lists every AS hop.
    Delivered {
        /// Whether the forwarding path crossed the attacker.
        intercepted: bool,
        /// AS-level forwarding path, source first, victim last.
        path: Vec<Asn>,
    },
    /// The packet was dropped at the given AS (no route, or a blackholing
    /// attacker).
    Blackholed {
        /// The AS where forwarding stopped.
        at: Asn,
        /// Hops traversed before the drop.
        path: Vec<Asn>,
    },
    /// Forwarding looped (control/data plane mismatch).
    Looped {
        /// Hops traversed until the repeat.
        path: Vec<Asn>,
    },
}

impl Delivery {
    /// `true` if the packet reached the victim.
    #[must_use]
    pub fn is_delivered(&self) -> bool {
        matches!(self, Delivery::Delivered { .. })
    }

    /// `true` if the packet reached the victim *through* the attacker.
    #[must_use]
    pub fn is_intercepted(&self) -> bool {
        matches!(
            self,
            Delivery::Delivered {
                intercepted: true,
                ..
            }
        )
    }
}

/// Walks the data plane from `src` toward the victim of `outcome`.
///
/// Every AS forwards to its best route's next hop. The attacker is special:
/// whatever it announced, it *forwards* along its clean (pre-attack) route —
/// that is what makes the interception transparent. An origin hijacker
/// (`AttackStrategy::OriginHijack`) instead drops the traffic it attracts.
///
/// # Example
///
/// ```
/// use aspp_dataplane::forwarding::walk;
/// use aspp_routing::{AttackerModel, DestinationSpec, RoutingEngine};
/// use aspp_topology::AsGraph;
/// use aspp_types::Asn;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut g = AsGraph::new();
/// g.add_provider_customer(Asn(10), Asn(1))?;
/// g.add_provider_customer(Asn(10), Asn(66))?;
/// g.add_provider_customer(Asn(66), Asn(77))?;
/// let engine = RoutingEngine::new(&g);
/// let spec = DestinationSpec::new(Asn(1))
///     .origin_padding(4)
///     .attacker(AttackerModel::new(Asn(66)));
/// let outcome = engine.compute(&spec);
///
/// // 77's traffic is intercepted by 66 but still delivered to 1.
/// let fate = walk(&outcome, Asn(77));
/// assert!(fate.is_delivered());
/// # Ok(())
/// # }
/// ```
#[must_use]
pub fn walk(outcome: &RoutingOutcome<'_>, src: Asn) -> Delivery {
    let victim = outcome.victim();
    let attacker = outcome.attacker();
    let strategy = outcome
        .spec()
        .attacker_model()
        .map(aspp_routing::AttackerModel::attack_strategy);

    let mut path = vec![src];
    let mut current = src;
    let mut intercepted = false;
    let mut at_attacker_forwarding = false;

    loop {
        if current == victim {
            return Delivery::Delivered { intercepted, path };
        }
        if Some(current) == attacker && !at_attacker_forwarding {
            intercepted = true;
            if matches!(strategy, Some(AttackStrategy::OriginHijack)) {
                // The blackholer owns the traffic now; it goes nowhere.
                return Delivery::Blackholed { at: current, path };
            }
            // The interceptor forwards over its own clean route from here.
            at_attacker_forwarding = true;
        }

        let next = if at_attacker_forwarding || Some(current) != attacker {
            // Inside the attacker's forwarding segment, and for every normal
            // AS, the clean-route next hop applies when the AS kept a clean
            // route; otherwise the (attacked) best route's next hop.
            let info = if at_attacker_forwarding {
                outcome.clean_route(current)
            } else {
                outcome.route(current)
            };
            match info.and_then(|r| r.next_hop) {
                Some(n) => n,
                None => return Delivery::Blackholed { at: current, path },
            }
        } else {
            unreachable!("attacker handled above");
        };

        if path.contains(&next) {
            path.push(next);
            return Delivery::Looped { path };
        }
        path.push(next);
        current = next;
    }
}

/// Fraction of ASes whose traffic is delivered / intercepted / blackholed.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct DeliveryStats {
    /// Fraction delivered to the victim (intercepted or not).
    pub delivered: f64,
    /// Fraction delivered *through* the attacker.
    pub intercepted: f64,
    /// Fraction blackholed.
    pub blackholed: f64,
    /// Fraction caught in forwarding loops.
    pub looped: f64,
}

/// The data-plane fate of every AS except the victim, as fractions.
///
/// Equal, bit for bit, to aggregating [`walk`] from every source, but
/// resolved in one memoized sweep over node indices instead of one walk
/// per source. A walk has two phases:
///
/// 1. It follows final-pass next hops. It ends at the victim (delivered),
///    at an AS without a next hop (blackholed), at an AS already on the
///    chain (looped), or at the attacker M.
/// 2. At M, an origin hijack blackholes. Any other attacker forwards over
///    its clean chain, which is the same for every source, so it is
///    resolved once, together with its node set C.
///
/// A source that reached M is looped if phase 2 loops on its own, or if
/// its phase-1 chain, M excluded, holds a node of C: `walk` meets that
/// node again before any later dead end. Otherwise the source takes phase
/// 2's fate. Each node memoizes its phase-1 fate and whether its chain
/// crosses C; an on-trail mark catches forwarding cycles. Fates are
/// counted as integers and divided once, which equals the per-walk sums
/// of `1.0` exactly.
#[must_use]
pub fn delivery_stats(outcome: &RoutingOutcome<'_>) -> DeliveryStats {
    let graph = outcome.graph();
    let n = graph.len();
    let victim = graph
        .index_of(outcome.victim())
        .expect("the victim is a node of its outcome's graph");
    let attacker = outcome.attacker().and_then(|m| graph.index_of(m));
    let hijack = matches!(
        outcome
            .spec()
            .attacker_model()
            .map(aspp_routing::AttackerModel::attack_strategy),
        Some(AttackStrategy::OriginHijack)
    );

    let mut on_clean_chain = vec![false; n];
    let onward = match attacker {
        Some(m) if !hijack => clean_chain_fate(outcome, m, victim, &mut on_clean_chain),
        _ => Fate::Blackholed,
    };

    let mut fate = vec![Fate::Unresolved; n];
    let mut trail = Vec::new();
    let (mut delivered, mut intercepted, mut blackholed, mut looped) = (0usize, 0, 0, 0);
    for src in (0..n).filter(|&i| i != victim) {
        let mut cur = src;
        let mut verdict = loop {
            match fate[cur] {
                Fate::Unresolved => {}
                Fate::OnTrail => break Fate::Looped,
                resolved => break resolved,
            }
            if cur == victim {
                break Fate::Delivered;
            }
            if Some(cur) == attacker {
                break Fate::Attacker { crosses: false };
            }
            let Some(next) = outcome.parent_at(cur) else {
                break Fate::Blackholed;
            };
            fate[cur] = Fate::OnTrail;
            trail.push(cur);
            cur = next;
        };
        for &node in trail.iter().rev() {
            if verdict == (Fate::Attacker { crosses: false }) && on_clean_chain[node] {
                verdict = Fate::Attacker { crosses: true };
            }
            fate[node] = verdict;
        }
        trail.clear();

        let end = match verdict {
            Fate::Attacker { crosses: true } => Fate::Looped,
            Fate::Attacker { crosses: false } => {
                if onward == Fate::Delivered {
                    intercepted += 1;
                }
                onward
            }
            direct => direct,
        };
        match end {
            Fate::Delivered => delivered += 1,
            Fate::Blackholed => blackholed += 1,
            _ => looped += 1,
        }
    }

    let total = n - 1;
    if total == 0 {
        return DeliveryStats::default();
    }
    let share = |count: usize| count as f64 / total as f64;
    DeliveryStats {
        delivered: share(delivered),
        intercepted: share(intercepted),
        blackholed: share(blackholed),
        looped: share(looped),
    }
}

/// A node's memoized phase-1 fate in [`delivery_stats`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Fate {
    Unresolved,
    /// On the chain being resolved; meeting it again closes a cycle.
    OnTrail,
    Delivered,
    Blackholed,
    Looped,
    /// Reaches the attacker; `crosses` says whether the chain before it
    /// holds a node of the attacker's clean chain.
    Attacker {
        crosses: bool,
    },
}

/// Phase 2 of [`walk`] from the attacker `m`: follows clean-pass next hops,
/// marks every node visited in `on_chain`, and returns where the chain
/// ends — `Delivered` at the victim, `Blackholed` at a dead end, `Looped`
/// on a repeat.
fn clean_chain_fate(
    outcome: &RoutingOutcome<'_>,
    m: usize,
    victim: usize,
    on_chain: &mut [bool],
) -> Fate {
    let mut cur = m;
    on_chain[m] = true;
    loop {
        if cur == victim {
            return Fate::Delivered;
        }
        match outcome.clean_parent_at(cur) {
            None => return Fate::Blackholed,
            Some(next) if on_chain[next] => return Fate::Looped,
            Some(next) => {
                on_chain[next] = true;
                cur = next;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aspp_routing::{AttackerModel, DestinationSpec, ExportMode, RoutingEngine};
    use aspp_topology::gen::InternetConfig;
    use aspp_topology::AsGraph;

    fn line_graph() -> AsGraph {
        let mut g = AsGraph::new();
        g.add_provider_customer(Asn(10), Asn(1)).unwrap();
        g.add_provider_customer(Asn(10), Asn(66)).unwrap();
        g.add_provider_customer(Asn(66), Asn(77)).unwrap();
        g.sort_neighbors();
        g
    }

    #[test]
    fn clean_traffic_is_delivered_directly() {
        let g = line_graph();
        let outcome = RoutingEngine::new(&g).compute(&DestinationSpec::new(Asn(1)));
        let fate = walk(&outcome, Asn(77));
        assert_eq!(
            fate,
            Delivery::Delivered {
                intercepted: false,
                path: vec![Asn(77), Asn(66), Asn(10), Asn(1)],
            }
        );
    }

    #[test]
    fn aspp_interception_still_delivers() {
        let g = line_graph();
        let spec = DestinationSpec::new(Asn(1))
            .origin_padding(4)
            .attacker(AttackerModel::new(Asn(66)));
        let outcome = RoutingEngine::new(&g).compute(&spec);
        let fate = walk(&outcome, Asn(77));
        assert!(fate.is_delivered(), "{fate:?}");
        assert!(fate.is_intercepted(), "{fate:?}");
    }

    #[test]
    fn origin_hijack_blackholes() {
        let g = line_graph();
        let spec = DestinationSpec::new(Asn(1)).origin_padding(4).attacker(
            AttackerModel::new(Asn(66)).strategy(aspp_routing::AttackStrategy::OriginHijack),
        );
        let outcome = RoutingEngine::new(&g).compute(&spec);
        // 77 is polluted (1-hop bogus origin beats the padded real route).
        assert!(outcome.is_polluted(Asn(77)));
        let fate = walk(&outcome, Asn(77));
        assert!(
            matches!(fate, Delivery::Blackholed { at: Asn(66), .. }),
            "{fate:?}"
        );
    }

    #[test]
    fn forwarding_cycle_is_reported_as_looped_not_spun_forever() {
        // A correct control plane never produces a cycle, so build one by
        // hand: 66 and 10 point at each other. The walk must terminate with
        // Delivery::Looped (and the audit subsystem flags the same outcome
        // as inconsistent) instead of walking forever.
        let g = line_graph();
        let mut outcome = RoutingEngine::new(&g).compute(&DestinationSpec::new(Asn(1)));
        let mut r66 = outcome.route(Asn(66)).unwrap();
        r66.next_hop = Some(Asn(77));
        outcome.override_route_unchecked(Asn(66), Some(r66));
        let mut r77 = outcome.route(Asn(77)).unwrap();
        r77.next_hop = Some(Asn(66));
        outcome.override_route_unchecked(Asn(77), Some(r77));

        let fate = walk(&outcome, Asn(77));
        assert_eq!(
            fate,
            Delivery::Looped {
                path: vec![Asn(77), Asn(66), Asn(77)],
            }
        );
        let stats = delivery_stats(&outcome);
        assert!(stats.looped > 0.0, "{stats:?}");
        // The same corruption is what `aspp audit` exists to catch.
        assert!(!aspp_routing::audit::audit_outcome(&outcome).is_clean());
    }

    #[test]
    fn interception_preserves_global_delivery() {
        // The paper's headline property at scale: under an ASPP attack,
        // every AS's traffic still reaches the victim.
        let g = InternetConfig::small().seed(71).build();
        let spec = DestinationSpec::new(Asn(20_000))
            .origin_padding(5)
            .attacker(AttackerModel::new(Asn(100)).mode(ExportMode::Compliant));
        let outcome = RoutingEngine::new(&g).compute(&spec);
        let stats = delivery_stats(&outcome);
        assert!(
            (stats.delivered - 1.0).abs() < 1e-9,
            "everything delivered: {stats:?}"
        );
        assert!(stats.intercepted > 0.0, "some traffic crosses the attacker");
        assert_eq!(stats.blackholed, 0.0);
        assert_eq!(stats.looped, 0.0);
    }

    #[test]
    fn origin_hijack_blackholes_polluted_share() {
        let g = InternetConfig::small().seed(72).build();
        let spec = DestinationSpec::new(Asn(20_000))
            .origin_padding(5)
            .attacker(
                AttackerModel::new(Asn(100)).strategy(aspp_routing::AttackStrategy::OriginHijack),
            );
        let outcome = RoutingEngine::new(&g).compute(&spec);
        let stats = delivery_stats(&outcome);
        assert!(
            stats.blackholed > 0.1,
            "hijack blackholes traffic: {stats:?}"
        );
        assert!(
            (stats.blackholed - outcome.polluted_fraction()).abs() < 0.1,
            "blackholed ≈ polluted: {stats:?} vs {}",
            outcome.polluted_fraction()
        );
    }
}
