//! Streaming detection over a live BGP update feed.
//!
//! The paper envisions a PHAS-like service: "examine BGP routing data
//! collected by the route monitors … and provide real time notifications of
//! any potential ASPP based prefix interception hijacking to the prefix
//! owner" (Section V). [`StreamingDetector`] is that service: seed it with
//! the monitors' RIB snapshot, feed it update records in arrival order, and
//! collect alarms the moment the inconsistency becomes visible.
//!
//! # Hot path
//!
//! A resident service processes each update in time proportional to what
//! it changed, not to the prefix's whole view. Every tracked prefix keeps
//! its *before*/*after* [`RouteView`]s and the scan index (`ViewIndex`)
//! alive across updates, mutated incrementally as announcements replace
//! paths; the incremental structures hold exactly the route sets a
//! from-scratch rebuild would (see `RouteView` docs).
//!
//! On top of the views, each prefix keeps a *candidate set*: the ASes `d`
//! with a previous and a current route toward the same origin whose origin
//! padding fell (`padding_fell`). Only those ASes can alarm — the detector's
//! checks return nothing unless the origins match and the padding dropped,
//! and stripping the head of a route keeps its origin and padding run — so
//! the scan visits the candidates alone. A suffix route enters or leaves a
//! view exactly when `RouteView`'s `_with` callbacks fire, and its first hop
//! is the AS whose route set changed, so candidacy is refreshed only for
//! those ASes. A prefix built by seeding or restore refreshes its whole
//! view once, before its first scan, so seeding costs nothing extra.
//!
//! Alarm output is unchanged: `reference_oracle_equivalence` below and the
//! workspace's `tests/stream_differential.rs` pin it against a full rescan
//! rebuilt from scratch on every record.

use std::borrow::Borrow;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use aspp_data::{UpdateAction, UpdateRecord};
use aspp_obs::counters::{self, Counter};
use aspp_topology::AsGraph;
use aspp_types::{AsPath, Asn, Ipv4Prefix};

use crate::detector::{padding_fell, Alarm, Detector, ViewIndex};
use crate::view::RouteView;

/// An alarm raised by the streaming detector, tagged with its trigger.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StreamAlarm {
    /// The affected prefix.
    pub prefix: Ipv4Prefix,
    /// Sequence number of the update that exposed the attack.
    pub triggered_by_seq: u64,
    /// The underlying detection alarm.
    pub alarm: Alarm,
}

/// Everything the detector tracks for one prefix: the authoritative path
/// maps, plus the derived views, scan index and candidate set kept in
/// lockstep so `process` never rebuilds them.
#[derive(Clone, Debug, Default)]
struct PrefixState {
    /// Current announced path per monitor.
    current: HashMap<Asn, AsPath>,
    /// Previous path per monitor, for before/after comparison.
    previous: HashMap<Asn, AsPath>,
    /// Suffix-expanded view of `current`, incrementally maintained.
    current_view: RouteView,
    /// Suffix-expanded view of `previous`, incrementally maintained.
    previous_view: RouteView,
    /// Scan index over `current_view`, incrementally maintained.
    index: ViewIndex,
    /// ASes with a previous and a current route toward one origin whose
    /// padding fell: the only ASes a scan can alarm at. Exact once
    /// [`refresh_candidates`](Self::refresh_candidates) has run.
    candidates: HashSet<Asn>,
    /// ASes whose route set changed in either view since candidacy was
    /// last refreshed. `None` (the default, so every state built by seeding
    /// or restore) means the whole view awaits its first refresh.
    touched: Option<Vec<Asn>>,
}

/// Notes that `route`'s first hop changed its route set, unless the whole
/// view is awaiting a refresh anyway.
fn touch(touched: &mut Option<Vec<Asn>>, route: &AsPath) {
    if let (Some(touched), Some(&d)) = (touched, route.hops().first()) {
        touched.push(d);
    }
}

impl PrefixState {
    /// Replaces the monitor's current path, returning the displaced one;
    /// view, index and touched set follow.
    fn current_insert(&mut self, monitor: Asn, path: AsPath) -> Option<AsPath> {
        let old = self.current.insert(monitor, path.clone());
        if old.as_ref() != Some(&path) {
            let (index, touched) = (&mut self.index, &mut self.touched);
            if let Some(old) = &old {
                self.current_view.remove_path_with(old, |gone| {
                    index.remove_route(gone.hops());
                    touch(touched, gone);
                });
            }
            self.current_view.add_path_with(&path, |new| {
                index.add_route(new.hops());
                touch(touched, new);
            });
        }
        old
    }

    /// Removes the monitor's current path (withdrawal); view, index and
    /// touched set follow.
    fn current_remove(&mut self, monitor: Asn) {
        if let Some(old) = self.current.remove(&monitor) {
            let (index, touched) = (&mut self.index, &mut self.touched);
            self.current_view.remove_path_with(&old, |gone| {
                index.remove_route(gone.hops());
                touch(touched, gone);
            });
        }
    }

    /// Replaces the monitor's previous path; the before-view and touched
    /// set follow.
    fn previous_insert(&mut self, monitor: Asn, path: AsPath) {
        let old = self.previous.insert(monitor, path.clone());
        if old.as_ref() != Some(&path) {
            let touched = &mut self.touched;
            if let Some(old) = &old {
                self.previous_view
                    .remove_path_with(old, |gone| touch(touched, gone));
            }
            self.previous_view
                .add_path_with(&path, |new| touch(touched, new));
        }
    }

    /// Removes the monitor's previous path; the before-view and touched
    /// set follow.
    fn previous_remove(&mut self, monitor: Asn) {
        if let Some(old) = self.previous.remove(&monitor) {
            let touched = &mut self.touched;
            self.previous_view
                .remove_path_with(&old, |gone| touch(touched, gone));
        }
    }

    /// Brings `candidates` up to date: re-judges each touched AS, or every
    /// AS of the current view when the whole view awaits a refresh (an AS
    /// without a current route cannot be a candidate).
    fn refresh_candidates(&mut self) {
        let (before, after) = (&self.previous_view, &self.current_view);
        let fell = |d: Asn| padding_fell(before.routes_of(d), after.routes_of(d));
        match &mut self.touched {
            Some(touched) => {
                touched.sort_unstable();
                touched.dedup();
                for d in touched.drain(..) {
                    if fell(d) {
                        self.candidates.insert(d);
                    } else {
                        self.candidates.remove(&d);
                    }
                }
            }
            None => {
                self.candidates = after.observed_asns().filter(|&d| fell(d)).collect();
                self.touched = Some(Vec::new());
            }
        }
    }

    /// True when no monitor holds any state — the prefix can be pruned.
    fn is_dead(&self) -> bool {
        self.current.is_empty() && self.previous.is_empty()
    }
}

/// Canonical, order-independent snapshot of a [`StreamingDetector`]'s
/// mutable state: the per-(prefix, monitor) path maps plus the raised-alarm
/// keys, each sorted. Two detectors that processed the same stream export
/// equal states, regardless of hash-map iteration order — which is what lets
/// a checkpoint written by one process restore bit-identical behavior in
/// another.
///
/// The derived views and scan index are deliberately *not* part of the
/// state: they are a pure function of the path maps and are rebuilt on
/// [`import`](StreamingDetector::import_state).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DetectorState {
    /// `(prefix, monitor, path)` rows of the current-path map, sorted.
    pub current: Vec<(Ipv4Prefix, Asn, AsPath)>,
    /// `(prefix, monitor, path)` rows of the previous-path map, sorted.
    pub previous: Vec<(Ipv4Prefix, Asn, AsPath)>,
    /// `(prefix, suspect, observed_at)` raised-alarm keys, sorted.
    pub raised: Vec<(Ipv4Prefix, Asn, Asn)>,
}

/// Incremental multi-prefix detector state.
///
/// # Example
///
/// ```
/// use aspp_detect::realtime::StreamingDetector;
/// use aspp_data::{UpdateAction, UpdateRecord};
/// use aspp_topology::AsGraph;
/// use aspp_types::Asn;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut graph = AsGraph::new();
/// graph.add_provider_customer(Asn(10), Asn(1))?;
/// graph.add_provider_customer(Asn(10), Asn(66))?;
/// graph.add_provider_customer(Asn(10), Asn(55))?;
/// graph.add_provider_customer(Asn(66), Asn(77))?;
///
/// let prefix = "10.0.0.0/24".parse()?;
/// let mut detector = StreamingDetector::new(&graph);
/// // RIB seeds: monitor 77 routes via the soon-to-be attacker 66; honest
/// // monitor 55 provides the padded witness route through the same AS10.
/// detector.seed(Asn(77), prefix, "77 66 10 1 1 1".parse()?);
/// detector.seed(Asn(55), prefix, "55 10 1 1 1".parse()?);
///
/// // Live update: 66 suddenly announces a stripped route.
/// let alarms = detector.process(&UpdateRecord {
///     seq: 1,
///     monitor: Asn(77),
///     prefix,
///     action: UpdateAction::Announce("77 66 10 1".parse()?),
/// });
/// assert!(!alarms.is_empty());
/// assert_eq!(alarms[0].alarm.suspect, Asn(66));
/// # Ok(())
/// # }
/// ```
/// The detector is generic over *how it holds the relationship graph*:
/// `G` is any [`Borrow<AsGraph>`] — a plain `&AsGraph` (the historical
/// borrowing form, via [`new`](Self::new)), an `Arc<AsGraph>`
/// ([`shared`](Self::shared)), or an owned `AsGraph`. The immutable graph
/// baseline is thereby decoupled from the mutable per-stream alarm state,
/// so a sharded pipeline (see the `aspp-feed` crate) can hand each worker
/// thread its own fully-owned, `Send` detector without a single borrow
/// tying the workers together.
#[derive(Clone, Debug)]
pub struct StreamingDetector<G = Arc<AsGraph>> {
    graph: G,
    /// Per-prefix path maps, views, and index. Entries are pruned the
    /// moment their last monitor withdraws, so a resident service's memory
    /// tracks *live* state, not every prefix ever seen.
    states: HashMap<Ipv4Prefix, PrefixState>,
    /// `(suspect, observed_at)` keys of the alarms already raised, per
    /// prefix, to keep the stream idempotent. Keyed by prefix so a
    /// withdrawal re-arms its own prefix's keys without visiting anyone
    /// else's; kept apart from `states` because keys outlive a pruned
    /// prefix.
    raised: HashMap<Ipv4Prefix, HashSet<(Asn, Asn)>>,
}

impl<'g> StreamingDetector<&'g AsGraph> {
    /// Creates a detector borrowing the (possibly inferred) relationship
    /// graph — the historical constructor, unchanged for existing callers.
    #[must_use]
    pub fn new(graph: &'g AsGraph) -> Self {
        StreamingDetector::over(graph)
    }
}

impl StreamingDetector<Arc<AsGraph>> {
    /// Creates a detector co-owning the relationship graph. The result is
    /// `Send + 'static`: it can move onto a worker thread outliving the
    /// scope that built the graph, which is what the feed pipeline's
    /// shard workers do.
    #[must_use]
    pub fn shared(graph: Arc<AsGraph>) -> Self {
        StreamingDetector::over(graph)
    }
}

impl<G: Borrow<AsGraph>> StreamingDetector<G> {
    /// Creates a detector over any holder of the relationship graph.
    #[must_use]
    pub fn over(graph: G) -> Self {
        StreamingDetector {
            graph,
            states: HashMap::new(),
            raised: HashMap::new(),
        }
    }

    /// The relationship graph the detector consults.
    #[must_use]
    pub fn graph(&self) -> &AsGraph {
        self.graph.borrow()
    }

    /// Installs a RIB-snapshot route (no detection is run on seeds).
    pub fn seed(&mut self, monitor: Asn, prefix: Ipv4Prefix, path: AsPath) {
        let st = self.states.entry(prefix).or_default();
        st.current_insert(monitor, path.clone());
        st.previous_insert(monitor, path);
    }

    /// Seeds every monitor table of a corpus as the RIB snapshot.
    pub fn seed_from_corpus(&mut self, corpus: &aspp_data::Corpus) {
        for (monitor, table) in corpus.tables() {
            for (prefix, path) in table.iter() {
                self.seed(monitor, prefix, path.clone());
            }
        }
    }

    /// Number of prefixes with live state.
    #[must_use]
    pub fn tracked_prefixes(&self) -> usize {
        self.states.len()
    }

    /// Number of monitors currently announcing `prefix`.
    #[must_use]
    pub fn monitors_of(&self, prefix: Ipv4Prefix) -> usize {
        self.states.get(&prefix).map_or(0, |st| st.current.len())
    }

    /// Exports the mutable stream state in canonical (sorted) form.
    #[must_use]
    pub fn export_state(&self) -> DetectorState {
        let mut current = Vec::new();
        let mut previous = Vec::new();
        for (&prefix, st) in &self.states {
            for (&monitor, path) in &st.current {
                current.push((prefix, monitor, path.clone()));
            }
            for (&monitor, path) in &st.previous {
                previous.push((prefix, monitor, path.clone()));
            }
        }
        let key = |(p, m, _): &(Ipv4Prefix, Asn, AsPath)| (p.addr(), p.len(), *m);
        current.sort_by_key(key);
        previous.sort_by_key(key);
        let mut raised: Vec<_> = self
            .raised
            .iter()
            .flat_map(|(&prefix, keys)| keys.iter().map(move |&(a, b)| (prefix, a, b)))
            .collect();
        raised.sort_by_key(|&(p, a, b)| (p.addr(), p.len(), a, b));
        DetectorState {
            current,
            previous,
            raised,
        }
    }

    /// Replaces the mutable stream state with an exported snapshot,
    /// rebuilding the derived views and index. After `import_state`, the
    /// detector behaves exactly as the one that exported — processing the
    /// same tail of updates yields the same alarms.
    pub fn import_state(&mut self, state: &DetectorState) {
        self.states.clear();
        self.raised.clear();
        for (prefix, monitor, path) in &state.current {
            self.states
                .entry(*prefix)
                .or_default()
                .current_insert(*monitor, path.clone());
        }
        for (prefix, monitor, path) in &state.previous {
            self.states
                .entry(*prefix)
                .or_default()
                .previous_insert(*monitor, path.clone());
        }
        for &(prefix, suspect, observed_at) in &state.raised {
            self.raised
                .entry(prefix)
                .or_default()
                .insert((suspect, observed_at));
        }
    }

    /// Applies one update and returns any *new* alarms it exposes.
    pub fn process(&mut self, update: &UpdateRecord) -> Vec<StreamAlarm> {
        match &update.action {
            UpdateAction::Withdraw => {
                // A withdrawal cannot shorten padding; it tears down the
                // monitor's observation state for this prefix instead. Both
                // path baselines go (so a re-announce with a legitimately
                // different padding level is judged fresh, not against
                // pre-withdrawal history), and the monitor's raised-alarm
                // keys are re-armed (so an attack repeated after the
                // withdrawal is reported again instead of being masked by
                // idempotence state from the earlier episode).
                if let Some(st) = self.states.get_mut(&update.prefix) {
                    st.current_remove(update.monitor);
                    st.previous_remove(update.monitor);
                    if st.is_dead() {
                        self.states.remove(&update.prefix);
                    }
                }
                if let Some(keys) = self.raised.get_mut(&update.prefix) {
                    keys.retain(|&(_, observed_at)| observed_at != update.monitor);
                    if keys.is_empty() {
                        self.raised.remove(&update.prefix);
                    }
                }
                Vec::new()
            }
            UpdateAction::Announce(path) => {
                let st = self.states.entry(update.prefix).or_default();
                if let Some(old) = st.current_insert(update.monitor, path.clone()) {
                    st.previous_insert(update.monitor, old);
                }

                // Compare the stored previous paths against the current
                // ones, over the live views and index, at the only ASes
                // that can alarm.
                st.refresh_candidates();
                counters::add(Counter::FeedScanAs, st.candidates.len() as u64);
                let scan = Detector::new(self.graph.borrow()).scan_asns(
                    &st.previous_view,
                    &st.current_view,
                    &st.index,
                    st.candidates.iter().copied(),
                );
                let mut out = Vec::new();
                for alarm in scan {
                    let key = (alarm.suspect, alarm.observed_at);
                    if self.raised.entry(update.prefix).or_default().insert(key) {
                        out.push(StreamAlarm {
                            prefix: update.prefix,
                            triggered_by_seq: update.seq,
                            alarm,
                        });
                    }
                }
                out
            }
        }
    }

    /// Streams a whole batch, returning all new alarms in order.
    pub fn process_all<'a, I>(&mut self, updates: I) -> Vec<StreamAlarm>
    where
        I: IntoIterator<Item = &'a UpdateRecord>,
    {
        updates.into_iter().flat_map(|u| self.process(u)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aspp_attack::scenarios::{figure3, figure3_topology};
    use aspp_routing::{AttackerModel, DestinationSpec, RoutingEngine};

    fn update(seq: u64, monitor: Asn, prefix: Ipv4Prefix, path: &str) -> UpdateRecord {
        UpdateRecord {
            seq,
            monitor,
            prefix,
            action: UpdateAction::Announce(path.parse().unwrap()),
        }
    }

    #[test]
    fn detects_attack_in_simulated_stream() {
        use figure3::*;
        let g = figure3_topology();
        let engine = RoutingEngine::new(&g);
        let clean = engine.compute(&DestinationSpec::new(V).origin_padding(3));
        let attacked = engine.compute(
            &DestinationSpec::new(V)
                .origin_padding(3)
                .attacker(AttackerModel::new(M)),
        );
        let prefix: Ipv4Prefix = "10.0.0.0/24".parse().unwrap();
        let monitors = [B, D, E];

        let mut stream = StreamingDetector::new(&g);
        for &m in &monitors {
            stream.seed(m, prefix, clean.clean_observed_path(m).unwrap());
        }
        assert_eq!(stream.tracked_prefixes(), 1);

        // Updates arrive in pollution order; only B's route changes.
        let mut alarms = Vec::new();
        let mut seq = 0;
        for &m in &monitors {
            if attacked.route_changed(m) {
                seq += 1;
                alarms.extend(stream.process(&UpdateRecord {
                    seq,
                    monitor: m,
                    prefix,
                    action: UpdateAction::Announce(attacked.observed_path(m).unwrap()),
                }));
            }
        }
        assert!(
            alarms.iter().any(|a| a.alarm.suspect == M),
            "stream alarms: {alarms:?}"
        );
    }

    #[test]
    fn duplicate_updates_do_not_re_alarm() {
        let mut g = AsGraph::new();
        g.add_provider_customer(Asn(10), Asn(1)).unwrap();
        g.add_provider_customer(Asn(10), Asn(66)).unwrap();
        g.add_provider_customer(Asn(10), Asn(55)).unwrap();
        g.add_provider_customer(Asn(66), Asn(77)).unwrap();
        let prefix: Ipv4Prefix = "10.0.0.0/24".parse().unwrap();
        let mut stream = StreamingDetector::new(&g);
        stream.seed(Asn(77), prefix, "77 66 10 1 1 1".parse().unwrap());
        stream.seed(Asn(55), prefix, "55 10 1 1 1".parse().unwrap());

        let u = update(1, Asn(77), prefix, "77 66 10 1");
        let first = stream.process(&u);
        assert!(!first.is_empty());
        let again = stream.process(&update(2, Asn(77), prefix, "77 66 10 1"));
        assert!(again.is_empty(), "idempotent: {again:?}");
    }

    #[test]
    fn withdrawals_are_silent() {
        let g = AsGraph::new();
        let prefix: Ipv4Prefix = "10.0.0.0/24".parse().unwrap();
        let mut stream = StreamingDetector::new(&g);
        stream.seed(Asn(7), prefix, "7 1 1".parse().unwrap());
        let alarms = stream.process(&UpdateRecord {
            seq: 1,
            monitor: Asn(7),
            prefix,
            action: UpdateAction::Withdraw,
        });
        assert!(alarms.is_empty());
        // Re-announcing after a withdrawal does not see stale history.
        let alarms = stream.process(&update(2, Asn(7), prefix, "7 1"));
        assert!(alarms.is_empty());
    }

    fn withdraw(seq: u64, monitor: Asn, prefix: Ipv4Prefix) -> UpdateRecord {
        UpdateRecord {
            seq,
            monitor,
            prefix,
            action: UpdateAction::Withdraw,
        }
    }

    /// Masking direction: an attack seen, withdrawn and repeated must alarm
    /// again — the withdrawal invalidated the first episode's state.
    #[test]
    fn withdrawal_rearms_alarms_for_repeat_attacks() {
        let mut g = AsGraph::new();
        g.add_provider_customer(Asn(10), Asn(1)).unwrap();
        g.add_provider_customer(Asn(10), Asn(66)).unwrap();
        g.add_provider_customer(Asn(10), Asn(55)).unwrap();
        g.add_provider_customer(Asn(66), Asn(77)).unwrap();
        let prefix: Ipv4Prefix = "10.0.0.0/24".parse().unwrap();
        let mut stream = StreamingDetector::new(&g);
        stream.seed(Asn(77), prefix, "77 66 10 1 1 1".parse().unwrap());
        stream.seed(Asn(55), prefix, "55 10 1 1 1".parse().unwrap());

        // First attack episode: alarm raised.
        let first = stream.process(&update(1, Asn(77), prefix, "77 66 10 1"));
        assert!(first.iter().any(|a| a.alarm.suspect == Asn(66)));

        // The attacker backs off: withdrawal, then the clean route returns.
        assert!(stream.process(&withdraw(2, Asn(77), prefix)).is_empty());
        assert!(stream
            .process(&update(3, Asn(77), prefix, "77 66 10 1 1 1"))
            .is_empty());

        // Second, identical attack episode: must alarm again, not be
        // masked by the first episode's idempotence state.
        let second = stream.process(&update(4, Asn(77), prefix, "77 66 10 1"));
        assert!(
            second.iter().any(|a| a.alarm.suspect == Asn(66)),
            "repeat attack after withdrawal was masked: {second:?}"
        );
    }

    /// False-alarm direction: a withdraw-then-reannounce with a genuinely
    /// lower padding level is a fresh traffic-engineering decision, not a
    /// strip — pre-withdrawal history must not be compared against it.
    #[test]
    fn padding_change_across_withdrawal_is_silent() {
        let mut g = AsGraph::new();
        g.add_provider_customer(Asn(10), Asn(1)).unwrap();
        g.add_provider_customer(Asn(10), Asn(77)).unwrap();
        let prefix: Ipv4Prefix = "10.0.0.0/24".parse().unwrap();
        let mut stream = StreamingDetector::new(&g);
        // The origin pads with lambda = 4 ...
        stream.seed(Asn(77), prefix, "77 10 1 1 1 1".parse().unwrap());
        // ... withdraws, and re-announces with lambda = 2.
        assert!(stream.process(&withdraw(1, Asn(77), prefix)).is_empty());
        let alarms = stream.process(&update(2, Asn(77), prefix, "77 10 1 1"));
        assert!(
            alarms.is_empty(),
            "legitimate post-withdrawal padding change false-alarmed: {alarms:?}"
        );
    }

    #[test]
    fn prefixes_are_independent() {
        let mut g = AsGraph::new();
        g.add_provider_customer(Asn(10), Asn(1)).unwrap();
        g.add_provider_customer(Asn(10), Asn(66)).unwrap();
        g.add_provider_customer(Asn(10), Asn(55)).unwrap();
        g.add_provider_customer(Asn(66), Asn(77)).unwrap();
        let p1: Ipv4Prefix = "10.0.0.0/24".parse().unwrap();
        let p2: Ipv4Prefix = "10.0.1.0/24".parse().unwrap();
        let mut stream = StreamingDetector::new(&g);
        stream.seed(Asn(77), p1, "77 66 10 1 1 1".parse().unwrap());
        stream.seed(Asn(55), p1, "55 10 1 1 1".parse().unwrap());
        stream.seed(Asn(77), p2, "77 66 10 1 1 1".parse().unwrap());
        stream.seed(Asn(55), p2, "55 10 1 1 1".parse().unwrap());
        // Attack visible only on p1.
        let alarms = stream.process(&update(1, Asn(77), p1, "77 66 10 1"));
        assert!(alarms.iter().all(|a| a.prefix == p1));
        assert_eq!(stream.tracked_prefixes(), 2);
    }

    /// A shard worker must be able to own its detector outright and move it
    /// across threads: the `Arc`-holding form is `Send + 'static`.
    #[test]
    fn shared_detector_is_send_and_static() {
        fn assert_send<T: Send + 'static>() {}
        assert_send::<StreamingDetector<std::sync::Arc<AsGraph>>>();
        assert_send::<StreamingDetector<AsGraph>>();
    }

    /// Regression for the graph-holder refactor: the borrowing constructor
    /// and the `Arc` constructor must replay a stream to bit-identical
    /// alarm sequences.
    #[test]
    fn borrowed_and_shared_detectors_agree() {
        let mut g = AsGraph::new();
        g.add_provider_customer(Asn(10), Asn(1)).unwrap();
        g.add_provider_customer(Asn(10), Asn(66)).unwrap();
        g.add_provider_customer(Asn(10), Asn(55)).unwrap();
        g.add_provider_customer(Asn(66), Asn(77)).unwrap();
        let prefix: Ipv4Prefix = "10.0.0.0/24".parse().unwrap();
        let updates = [
            update(1, Asn(77), prefix, "77 66 10 1"),
            withdraw(2, Asn(77), prefix),
            update(3, Asn(77), prefix, "77 66 10 1 1 1"),
            update(4, Asn(77), prefix, "77 66 10 1"),
        ];

        fn replay<G: std::borrow::Borrow<AsGraph>>(
            mut d: StreamingDetector<G>,
            prefix: Ipv4Prefix,
            updates: &[UpdateRecord],
        ) -> Vec<StreamAlarm> {
            d.seed(Asn(77), prefix, "77 66 10 1 1 1".parse().unwrap());
            d.seed(Asn(55), prefix, "55 10 1 1 1".parse().unwrap());
            d.process_all(updates)
        }

        let shared = std::sync::Arc::new(g.clone());
        let from_borrow = replay(StreamingDetector::new(&g), prefix, &updates);
        let from_arc = replay(StreamingDetector::shared(shared), prefix, &updates);
        assert_eq!(from_borrow, from_arc);
        assert!(!from_borrow.is_empty());
    }

    #[test]
    fn legitimate_growth_is_silent() {
        let mut g = AsGraph::new();
        g.add_provider_customer(Asn(10), Asn(1)).unwrap();
        g.add_provider_customer(Asn(10), Asn(77)).unwrap();
        let prefix: Ipv4Prefix = "10.0.0.0/24".parse().unwrap();
        let mut stream = StreamingDetector::new(&g);
        stream.seed(Asn(77), prefix, "77 10 1".parse().unwrap());
        // The origin adds padding — more pads, not fewer: no alarm.
        let alarms = stream.process(&update(1, Asn(77), prefix, "77 10 1 1 1"));
        assert!(alarms.is_empty());
    }

    /// Long-run leak regression: withdrawals must *remove* per-prefix
    /// entries, not leave empty maps behind, so a resident service's memory
    /// tracks live state rather than every prefix ever seen.
    #[test]
    fn withdraw_churn_keeps_state_bounded() {
        let mut g = AsGraph::new();
        g.add_provider_customer(Asn(10), Asn(1)).unwrap();
        g.add_provider_customer(Asn(10), Asn(7)).unwrap();
        let mut stream = StreamingDetector::new(&g);
        let mut seq = 0;
        for round in 0..50u32 {
            for i in 0..100u32 {
                let prefix = Ipv4Prefix::containing(0x0a00_0000 | (i << 8), 24);
                seq += 1;
                stream.process(&update(
                    seq,
                    Asn(7),
                    prefix,
                    &format!("7 10 1 1 {}", (round % 3) + 1),
                ));
            }
            assert_eq!(stream.tracked_prefixes(), 100, "round {round}");
            for i in 0..100u32 {
                let prefix = Ipv4Prefix::containing(0x0a00_0000 | (i << 8), 24);
                seq += 1;
                stream.process(&withdraw(seq, Asn(7), prefix));
            }
            assert_eq!(
                stream.tracked_prefixes(),
                0,
                "withdrawals leaked state in round {round}"
            );
        }
    }

    /// Withdrawing one of two monitors must keep the prefix tracked.
    #[test]
    fn partial_withdrawal_keeps_prefix_live() {
        let g = AsGraph::new();
        let prefix: Ipv4Prefix = "10.0.0.0/24".parse().unwrap();
        let mut stream = StreamingDetector::new(&g);
        stream.seed(Asn(7), prefix, "7 1 1".parse().unwrap());
        stream.seed(Asn(8), prefix, "8 1 1".parse().unwrap());
        stream.process(&withdraw(1, Asn(7), prefix));
        assert_eq!(stream.tracked_prefixes(), 1);
        assert_eq!(stream.monitors_of(prefix), 1);
        stream.process(&withdraw(2, Asn(8), prefix));
        assert_eq!(stream.tracked_prefixes(), 0);
        assert_eq!(stream.monitors_of(prefix), 0);
    }

    /// Export → import must hand the importer *exactly* the exporter's
    /// behavior: the tail of a split stream replays to the same alarms.
    #[test]
    fn export_import_roundtrip_preserves_tail_behavior() {
        let mut g = AsGraph::new();
        g.add_provider_customer(Asn(10), Asn(1)).unwrap();
        g.add_provider_customer(Asn(10), Asn(66)).unwrap();
        g.add_provider_customer(Asn(10), Asn(55)).unwrap();
        g.add_provider_customer(Asn(66), Asn(77)).unwrap();
        let prefix: Ipv4Prefix = "10.0.0.0/24".parse().unwrap();
        let stream_updates = [
            update(1, Asn(77), prefix, "77 66 10 1"),
            withdraw(2, Asn(77), prefix),
            update(3, Asn(77), prefix, "77 66 10 1 1 1"),
            update(4, Asn(77), prefix, "77 66 10 1"),
            update(5, Asn(55), prefix, "55 10 1"),
        ];

        for split in 0..=stream_updates.len() {
            let mut uninterrupted = StreamingDetector::new(&g);
            uninterrupted.seed(Asn(77), prefix, "77 66 10 1 1 1".parse().unwrap());
            uninterrupted.seed(Asn(55), prefix, "55 10 1 1 1".parse().unwrap());
            let full = uninterrupted.process_all(&stream_updates);

            let mut head = StreamingDetector::new(&g);
            head.seed(Asn(77), prefix, "77 66 10 1 1 1".parse().unwrap());
            head.seed(Asn(55), prefix, "55 10 1 1 1".parse().unwrap());
            let mut alarms = head.process_all(&stream_updates[..split]);
            let snapshot = head.export_state();
            drop(head);

            let mut resumed = StreamingDetector::new(&g);
            resumed.import_state(&snapshot);
            assert_eq!(resumed.export_state(), snapshot, "re-export at {split}");
            alarms.extend(resumed.process_all(&stream_updates[split..]));
            assert_eq!(alarms, full, "split at {split}");
        }
    }

    /// A from-scratch reference implementation of `process` — views and
    /// index rebuilt from the path maps on every record, exactly the
    /// pre-incremental algorithm — must agree with the optimized hot path
    /// on a churny pseudo-random stream.
    #[test]
    fn reference_oracle_equivalence() {
        use crate::detector::Detector;

        struct Reference<'g> {
            graph: &'g AsGraph,
            current: HashMap<Ipv4Prefix, HashMap<Asn, AsPath>>,
            previous: HashMap<Ipv4Prefix, HashMap<Asn, AsPath>>,
            raised: HashSet<(Ipv4Prefix, Asn, Asn)>,
        }

        impl<'g> Reference<'g> {
            fn process(&mut self, update: &UpdateRecord) -> Vec<StreamAlarm> {
                let routes = self.current.entry(update.prefix).or_default();
                match &update.action {
                    UpdateAction::Withdraw => {
                        routes.remove(&update.monitor);
                        self.previous
                            .entry(update.prefix)
                            .or_default()
                            .remove(&update.monitor);
                        self.raised.retain(|&(prefix, _, observed_at)| {
                            !(prefix == update.prefix && observed_at == update.monitor)
                        });
                        return Vec::new();
                    }
                    UpdateAction::Announce(path) => {
                        let old = routes.insert(update.monitor, path.clone());
                        if let Some(old) = old {
                            self.previous
                                .entry(update.prefix)
                                .or_default()
                                .insert(update.monitor, old);
                        }
                    }
                }
                let before = RouteView::from_paths(
                    self.previous
                        .get(&update.prefix)
                        .into_iter()
                        .flat_map(|m| m.values().cloned()),
                );
                let after = RouteView::from_paths(
                    self.current
                        .get(&update.prefix)
                        .into_iter()
                        .flat_map(|m| m.values().cloned()),
                );
                let mut out = Vec::new();
                for alarm in Detector::new(self.graph).scan(&before, &after) {
                    let key = (update.prefix, alarm.suspect, alarm.observed_at);
                    if self.raised.insert(key) {
                        out.push(StreamAlarm {
                            prefix: update.prefix,
                            triggered_by_seq: update.seq,
                            alarm,
                        });
                    }
                }
                out
            }
        }

        let mut g = AsGraph::new();
        g.add_provider_customer(Asn(10), Asn(1)).unwrap();
        g.add_provider_customer(Asn(10), Asn(66)).unwrap();
        g.add_provider_customer(Asn(10), Asn(55)).unwrap();
        g.add_provider_customer(Asn(66), Asn(77)).unwrap();
        g.add_provider_customer(Asn(66), Asn(88)).unwrap();
        g.add_peering(Asn(55), Asn(66)).unwrap();

        let mut optimized = StreamingDetector::new(&g);
        let mut reference = Reference {
            graph: &g,
            current: HashMap::new(),
            previous: HashMap::new(),
            raised: HashSet::new(),
        };

        let monitors = [Asn(77), Asn(55), Asn(88)];
        let tails = ["66 10 1 1 1", "66 10 1 1", "66 10 1", "10 1 1 1", "10 1"];
        let prefixes: Vec<Ipv4Prefix> = (0..4u32)
            .map(|i| Ipv4Prefix::containing(0x0a00_0000 | (i << 8), 24))
            .collect();

        // Deterministic xorshift churn over announce/withdraw/path choices.
        let mut rng: u64 = 0x9e37_79b9_7f4a_7c15;
        let mut next = || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        let mut total = 0usize;
        for seq in 0..4000u64 {
            let r = next();
            let monitor = monitors[(r % 3) as usize];
            let prefix = prefixes[((r >> 8) % 4) as usize];
            let u = if r % 7 == 0 {
                UpdateRecord {
                    seq,
                    monitor,
                    prefix,
                    action: UpdateAction::Withdraw,
                }
            } else {
                let tail = tails[((r >> 16) % 5) as usize];
                UpdateRecord {
                    seq,
                    monitor,
                    prefix,
                    action: UpdateAction::Announce(format!("{monitor} {tail}").parse().unwrap()),
                }
            };
            let got = optimized.process(&u);
            let want = reference.process(&u);
            assert_eq!(got, want, "diverged at seq {seq} on {u:?}");
            total += got.len();
        }
        assert!(total > 0, "churn stream never alarmed — test is vacuous");
    }
}
