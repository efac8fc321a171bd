//! Differential check of the streaming detector against a full rescan.
//!
//! `StreamingDetector` keeps its route views, scan index and per-prefix
//! candidate set alive across updates and scans only the ASes whose origin
//! padding fell. The oracle here is the detector as specified, built only
//! from public API: per (prefix, monitor) current and previous paths, both
//! views rebuilt with `RouteView::from_paths` and the whole view scanned
//! with `Detector::scan` on every announcement. The two must raise the same
//! alarms record by record — also when the stream is split at a seeded
//! random point by `export_state`/`import_state` — and export the same
//! raised-alarm keys.
//!
//! Inputs are `ReplayConfig` streams on the smoke and paper presets with
//! varied attack, withdrawal and padding settings, plus a hand-built hostile
//! stream: looping paths, origin-only paths, origin flips (MOAS), duplicate
//! announcements, and prefixes whose last monitor withdraws and returns.

use std::collections::{HashMap, HashSet};

use aspp_repro::data::{Corpus, UpdateAction, UpdateRecord};
use aspp_repro::detect::realtime::{StreamAlarm, StreamingDetector};
use aspp_repro::detect::{Detector, RouteView};
use aspp_repro::experiments::Scale;
use aspp_repro::feed::ReplayConfig;
use aspp_repro::topology::AsGraph;
use aspp_repro::types::{AsPath, Asn, Ipv4Prefix};

type Key = (Ipv4Prefix, Asn, Asn);

/// The full-rescan reference detector.
struct FullRescan<'g> {
    graph: &'g AsGraph,
    current: HashMap<Ipv4Prefix, HashMap<Asn, AsPath>>,
    previous: HashMap<Ipv4Prefix, HashMap<Asn, AsPath>>,
    raised: HashSet<Key>,
}

impl<'g> FullRescan<'g> {
    fn new(graph: &'g AsGraph) -> Self {
        FullRescan {
            graph,
            current: HashMap::new(),
            previous: HashMap::new(),
            raised: HashSet::new(),
        }
    }

    fn seed(&mut self, monitor: Asn, prefix: Ipv4Prefix, path: AsPath) {
        let current = self.current.entry(prefix).or_default();
        current.insert(monitor, path.clone());
        self.previous
            .entry(prefix)
            .or_default()
            .insert(monitor, path);
    }

    fn process(&mut self, update: &UpdateRecord) -> Vec<StreamAlarm> {
        let prefix = update.prefix;
        match &update.action {
            UpdateAction::Withdraw => {
                if let Some(routes) = self.current.get_mut(&prefix) {
                    routes.remove(&update.monitor);
                }
                if let Some(routes) = self.previous.get_mut(&prefix) {
                    routes.remove(&update.monitor);
                }
                self.raised
                    .retain(|&(p, _, observed_at)| !(p == prefix && observed_at == update.monitor));
                return Vec::new();
            }
            UpdateAction::Announce(path) => {
                let old = self
                    .current
                    .entry(prefix)
                    .or_default()
                    .insert(update.monitor, path.clone());
                if let Some(old) = old {
                    self.previous
                        .entry(prefix)
                        .or_default()
                        .insert(update.monitor, old);
                }
            }
        }
        let view = |paths: &HashMap<Ipv4Prefix, HashMap<Asn, AsPath>>| {
            RouteView::from_paths(
                paths
                    .get(&prefix)
                    .into_iter()
                    .flat_map(|routes| routes.values().cloned()),
            )
        };
        let (before, after) = (view(&self.previous), view(&self.current));
        let mut out = Vec::new();
        for alarm in Detector::new(self.graph).scan(&before, &after) {
            if self
                .raised
                .insert((prefix, alarm.suspect, alarm.observed_at))
            {
                out.push(StreamAlarm {
                    prefix,
                    triggered_by_seq: update.seq,
                    alarm,
                });
            }
        }
        out
    }

    /// The raised keys in `DetectorState::raised` order.
    fn raised_rows(&self) -> Vec<Key> {
        let mut rows: Vec<Key> = self.raised.iter().copied().collect();
        rows.sort_by_key(|&(p, a, b)| (p.addr(), p.len(), a, b));
        rows
    }
}

/// Deterministic xorshift64 stream for split points and hostile churn.
struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
}

/// Replays `updates` over `seeds` through the reference, an uninterrupted
/// streaming detector, and one resumed from an export taken before record
/// `split`; all three must agree on every record. Returns the alarm count.
fn assert_agrees(
    graph: &AsGraph,
    seeds: &[(Asn, Ipv4Prefix, AsPath)],
    updates: &[UpdateRecord],
    split: usize,
    label: &str,
) -> usize {
    let mut reference = FullRescan::new(graph);
    let mut stream = StreamingDetector::new(graph);
    for (monitor, prefix, path) in seeds {
        reference.seed(*monitor, *prefix, path.clone());
        stream.seed(*monitor, *prefix, path.clone());
    }
    let mut resumed: Option<StreamingDetector<&AsGraph>> = None;
    let mut total = 0;
    for (i, update) in updates.iter().enumerate() {
        if i == split {
            let snapshot = stream.export_state();
            let mut fresh = StreamingDetector::new(graph);
            fresh.import_state(&snapshot);
            assert_eq!(fresh.export_state(), snapshot, "{label}: re-export at {i}");
            resumed = Some(fresh);
        }
        let want = reference.process(update);
        let got = stream.process(update);
        assert_eq!(got, want, "{label}: record {i} ({update:?})");
        if let Some(resumed) = resumed.as_mut() {
            let got = resumed.process(update);
            assert_eq!(got, want, "{label}: resumed at {split}, record {i}");
        }
        if i.is_multiple_of(64) || i + 1 == updates.len() {
            let rows = reference.raised_rows();
            assert_eq!(stream.export_state().raised, rows, "{label}: raised at {i}");
            if let Some(resumed) = &resumed {
                assert_eq!(
                    resumed.export_state().raised,
                    rows,
                    "{label}: resumed raised"
                );
            }
        }
        total += want.len();
    }
    let resumed = resumed.expect("split point lies inside the stream");
    assert_eq!(
        resumed.export_state(),
        stream.export_state(),
        "{label}: end state"
    );
    total
}

fn corpus_seeds(corpus: &Corpus) -> Vec<(Asn, Ipv4Prefix, AsPath)> {
    corpus
        .tables()
        .flat_map(|(monitor, table)| {
            table
                .iter()
                .map(move |(prefix, path)| (monitor, prefix, path.clone()))
        })
        .collect()
}

/// Smoke and paper presets, each with its own stream shape.
#[test]
fn replay_streams_match_the_full_rescan() {
    let cases: [(Scale, u64, usize, f64, f64, usize); 5] = [
        (Scale::Smoke, 11, 30, 0.15, 0.3, 3),
        (Scale::Smoke, 12, 30, 0.6, 0.0, 2),
        (Scale::Smoke, 13, 30, 0.4, 0.9, 5),
        (Scale::Smoke, 14, 20, 1.0, 0.5, 1),
        (Scale::Paper, 15, 40, 0.5, 0.5, 4),
    ];
    let mut alarmed = 0;
    for (scale, seed, prefixes, attack, withdraw, padding) in cases {
        let graph = scale.internet(seed);
        let feed = ReplayConfig::new(prefixes)
            .monitors_top_degree(20)
            .attack_ratio(attack)
            .withdraw_ratio(withdraw)
            .padding(padding)
            .seed(seed)
            .generate(&graph);
        let updates = feed.updates();
        let split = (XorShift(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15)).next()
            % updates.len() as u64) as usize;
        let label = format!("{scale:?} seed {seed}");
        let n = assert_agrees(&graph, &corpus_seeds(&feed.corpus), updates, split, &label);
        if n > 0 {
            alarmed += 1;
        }
    }
    assert!(alarmed >= 4, "only {alarmed} of 5 streams alarmed");
}

/// Hand-built hostile shapes over a small graph, churned at random.
#[test]
fn hostile_streams_match_the_full_rescan() {
    let mut g = AsGraph::new();
    g.add_provider_customer(Asn(10), Asn(1)).unwrap();
    g.add_provider_customer(Asn(10), Asn(2)).unwrap();
    g.add_provider_customer(Asn(10), Asn(66)).unwrap();
    g.add_provider_customer(Asn(10), Asn(55)).unwrap();
    g.add_provider_customer(Asn(66), Asn(77)).unwrap();
    g.add_provider_customer(Asn(66), Asn(88)).unwrap();
    g.add_peering(Asn(55), Asn(66)).unwrap();
    g.add_provider_customer(Asn(5), Asn(1)).unwrap();

    let p = |s: &str| -> AsPath { s.parse().unwrap() };
    let prefixes: Vec<Ipv4Prefix> = (0..3u32)
        .map(|i| Ipv4Prefix::containing(0x0a00_0000 | (i << 8), 24))
        .collect();
    // Each monitor's menu mixes honest padding levels, strips, a loop
    // (`5 1 5 1`), an origin-only route (`1 1 1`) and an origin flip to 2.
    let menus: [(Asn, &[&str]); 5] = [
        (
            Asn(77),
            &[
                "77 66 10 1 1 1",
                "77 66 10 1",
                "77 66 10 2 2",
                "77 5 1 5 1",
                "77 66 10 1 1",
            ],
        ),
        (
            Asn(55),
            &["55 10 1 1 1", "55 10 1", "55 10 2", "55 66 10 1 1 1"],
        ),
        (
            Asn(88),
            &[
                "88 66 10 1 1 1",
                "88 66 10 1",
                "88 66 5 1 5 1",
                "88 66 10 2 2 2",
            ],
        ),
        (Asn(5), &["5 1 5 1", "5 1 1 1", "5 1", "5 5 1 1"]),
        (Asn(1), &["1 1 1", "1", "1 1"]),
    ];
    // Few monitors on the first two prefixes, so their last monitor
    // often withdraws; all five on the third.
    let watchers: [&[(Asn, &[&str])]; 3] = [&menus[..2], &menus[2..], &menus];
    let seeds: Vec<(Asn, Ipv4Prefix, AsPath)> = prefixes
        .iter()
        .zip(watchers)
        .flat_map(|(&prefix, menus)| {
            menus
                .iter()
                .map(move |&(monitor, menu)| (monitor, prefix, p(menu[0])))
        })
        .collect();

    for round in 0..4u64 {
        let mut rng = XorShift(0x2545_f491_4f6c_dd1d ^ (round + 1).wrapping_mul(0x9e37_79b9));
        let mut updates = Vec::new();
        let mut last_announce: Option<UpdateRecord> = None;
        for seq in 0..1500u64 {
            let r = rng.next();
            // Replays of the previous announcement: duplicate announces.
            if r.is_multiple_of(11) {
                if let Some(dup) = &last_announce {
                    updates.push(UpdateRecord { seq, ..dup.clone() });
                    continue;
                }
            }
            let at = ((r >> 12) % prefixes.len() as u64) as usize;
            let (prefix, menus) = (prefixes[at], watchers[at]);
            let (monitor, menu) = menus[((r >> 4) % menus.len() as u64) as usize];
            let action = if (r >> 20) % 8 < 3 {
                UpdateAction::Withdraw
            } else {
                UpdateAction::Announce(p(menu[((r >> 28) % menu.len() as u64) as usize]))
            };
            let update = UpdateRecord {
                seq,
                monitor,
                prefix,
                action,
            };
            if matches!(update.action, UpdateAction::Announce(_)) {
                last_announce = Some(update.clone());
            }
            updates.push(update);
        }

        // The churn must withdraw some prefix's last monitor and bring it
        // back, or the re-announce path goes untested.
        let mut probe = StreamingDetector::new(&g);
        for (monitor, prefix, path) in &seeds {
            probe.seed(*monitor, *prefix, path.clone());
        }
        let mut revived = 0;
        let mut dead: HashSet<Ipv4Prefix> = HashSet::new();
        for update in &updates {
            probe.process(update);
            let live = probe.monitors_of(update.prefix) > 0;
            if !live {
                dead.insert(update.prefix);
            } else if dead.remove(&update.prefix) {
                revived += 1;
            }
        }
        assert!(revived > 0, "round {round}: no prefix died and came back");

        let split = (rng.next() % updates.len() as u64) as usize;
        let n = assert_agrees(&g, &seeds, &updates, split, &format!("hostile {round}"));
        assert!(n > 0, "round {round}: hostile churn never alarmed");
    }
}
