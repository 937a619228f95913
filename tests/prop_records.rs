//! One never-panic property for every text format a user can hand the
//! tools: the install, campaign and elastic checkpoints, the `xcbcd`
//! journal, the `--faults` plan DSL and `.repo` INI files.
//!
//! - Random valid values round-trip byte for byte through their writer
//!   and `parse`.
//! - Random character edits of the written text never make `parse`
//!   panic, nor `replay` for the journal. A bad edit is an error.
//! - Any edited text that parses is a fixpoint:
//!   `parse(render(parse(t))) == parse(t)`. (A `.repo` section may omit
//!   its priority, which renders as the default, so there the fixpoint
//!   is the rendered text.)

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use std::sync::OnceLock;
use xcbc::fault::{
    CampaignCheckpoint, ElasticCheckpoint, FaultKind, FaultPlan, FaultWindow, InjectionPoint,
    InstallCheckpoint, NodeStage,
};
use xcbc::svc::{replay, serve, Journal, SvcWorkload};
use xcbc::yum::{parse_repo_file, render_repo_file, RepoConfig};

/// The characters an edit inserts or replaces with.
const EDIT_CHARS: &[u8] = b"0123456789abcdefghijklmnopqrstuvwxyzABCZ \n#=:,;.*-";
/// Edit characters for `.repo` files: INI structure and values.
const INI_CHARS: &[u8] = b"019abcxyz \t\n#;=[]./:";

/// `(kind, position, char)` draws: 0 replaces, 1 inserts, 2 deletes.
fn edits() -> impl Strategy<Value = Vec<(u8, usize, usize)>> {
    proptest::collection::vec((0u8..3, 0usize..1 << 16, 0..EDIT_CHARS.len()), 1..4)
}

/// Apply `edits` to `text`, drawing characters from `alphabet`. Every
/// format here writes ASCII, and edits only add ASCII, so any byte
/// position is a char boundary.
fn apply(text: &str, edits: &[(u8, usize, usize)], alphabet: &[u8]) -> String {
    let mut bytes = text.as_bytes().to_vec();
    for &(kind, pos, ch) in edits {
        let c = alphabet[ch % alphabet.len()];
        match kind {
            0 if !bytes.is_empty() => {
                let at = pos % bytes.len();
                bytes[at] = c;
            }
            2 if !bytes.is_empty() => {
                bytes.remove(pos % bytes.len());
            }
            _ => bytes.insert(pos % (bytes.len() + 1), c),
        }
    }
    String::from_utf8(bytes).expect("edits keep the text ASCII")
}

/// Node names, digests and free-text reasons as the writers emit them.
const NAME: &str = "[a-z][a-z0-9-]{0,8}";
const DIGEST: &str = "[0-9a-f]{16}";
const REASON: &str = "[a-z.:][a-z.: ]{0,16}[a-z]";

/// Round trip, and the fixpoint of each edited text that parses.
fn check_format<T: PartialEq + std::fmt::Debug, E: std::fmt::Display>(
    value: &T,
    render: impl Fn(&T) -> String,
    parse: impl Fn(&str) -> Result<T, E>,
    edits: &[(u8, usize, usize)],
) -> Result<(), TestCaseError> {
    let text = render(value);
    let parsed = parse(&text).map_err(|e| TestCaseError::fail(format!("{e} in {text:?}")))?;
    prop_assert_eq!(&parsed, value);
    prop_assert_eq!(render(&parsed), text.clone());
    let edited = apply(&text, edits, EDIT_CHARS);
    if let Ok(once) = parse(&edited) {
        let again = parse(&render(&once));
        prop_assert!(
            again.as_ref().ok() == Some(&once),
            "not a fixpoint: {edited:?}"
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn install_checkpoint_round_trips_and_survives_edits(
        frontend in 0u8..2,
        nodes in proptest::collection::vec((NAME, 0..NodeStage::ALL.len()), 0..6),
        quarantined in proptest::collection::vec((NAME, REASON), 0..3),
        edits in edits(),
    ) {
        let mut cp = InstallCheckpoint::new();
        if frontend == 1 {
            cp.mark_frontend_committed();
        }
        for (name, stage) in &nodes {
            cp.record(name, NodeStage::ALL[*stage]);
        }
        for (name, reason) in &quarantined {
            cp.quarantine(name, reason);
        }
        check_format(&cp, InstallCheckpoint::to_text, InstallCheckpoint::parse, &edits)?;
    }

    #[test]
    fn campaign_checkpoint_round_trips_and_survives_edits(
        digest in DIGEST,
        waves in 0usize..12,
        updated in proptest::collection::vec(NAME, 0..6),
        failed in proptest::collection::vec((NAME, REASON), 0..3),
        edits in edits(),
    ) {
        let mut cp = CampaignCheckpoint::new(&digest);
        if waves > 0 {
            cp.mark_wave_completed(waves - 1);
        }
        for name in &updated {
            cp.record_updated(name);
        }
        for (name, reason) in &failed {
            cp.record_failed(name, reason);
        }
        check_format(&cp, CampaignCheckpoint::to_text, CampaignCheckpoint::parse, &edits)?;
    }

    #[test]
    fn elastic_checkpoint_round_trips_and_survives_edits(
        digest in DIGEST,
        ticks in 0usize..40,
        edits in edits(),
    ) {
        let mut cp = ElasticCheckpoint::new(&digest);
        if ticks > 0 {
            cp.mark_tick_completed(ticks - 1);
        }
        check_format(&cp, ElasticCheckpoint::to_text, ElasticCheckpoint::parse, &edits)?;
    }
}

/// A small served stream's journal: every tag, a few solves and a
/// deploy, cheap enough to replay once per case.
fn served_journal() -> &'static str {
    static TEXT: OnceLock<String> = OnceLock::new();
    TEXT.get_or_init(|| {
        let workload = SvcWorkload {
            tenants: 2,
            requests: 8,
            seed: 11,
            ..SvcWorkload::default()
        };
        serve(&workload.generate(), &workload.config(2)).journal_text
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn journal_round_trips_and_survives_edits(edits in edits()) {
        let text = served_journal();
        let journal = Journal::parse(text).expect("served journal parses");
        check_format(&journal, Journal::render, Journal::parse, &edits)?;
        // replay verifies what parse accepted; it may report mismatches
        // or refuse the file, but it must not panic
        let _ = replay(&apply(text, &edits, EDIT_CHARS));
    }
}

/// Fault kinds by their rendered names.
const KINDS: [&str; 5] = [
    "transient",
    "timeout",
    "hang",
    "scriptlet-error",
    "power-loss",
];

/// A window from a `(variant, a, b)` draw.
fn window(variant: u8, a: u64, b: u64) -> FaultWindow {
    match variant {
        0 => FaultWindow::Always,
        1 => FaultWindow::Nth(a),
        2 => FaultWindow::FirstN(a),
        _ => FaultWindow::Range {
            start: a,
            end: a + 1 + b,
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn fault_plan_round_trips_and_survives_edits(
        seed in any::<u64>(),
        specs in proptest::collection::vec(
            (0..InjectionPoint::ALL.len(), 0u8..2, "[a-z*][a-z0-9.*-]{0,8}", (0u8..4, 0u64..50, 0u64..50), 0..KINDS.len()),
            0..4,
        ),
        rates in proptest::collection::vec((0..InjectionPoint::ALL.len(), 0u8..4, 0.0f64..1.0), 0..3),
        edits in edits(),
    ) {
        let mut plan = FaultPlan::new(seed);
        for (point, keyed, key, (variant, a, b), kind) in &specs {
            let kind = FaultKind::parse(KINDS[*kind]).expect("known kind");
            let key = (*keyed == 1).then_some(key.as_str());
            plan = plan.fail_at(InjectionPoint::ALL[*point], key, window(*variant, *a, *b), kind);
        }
        for &(point, end, p) in &rates {
            // the interval's closed ends as well as its inside
            let p = [0.0, 1.0].get(end as usize).copied().unwrap_or(p);
            plan = plan.with_rate(InjectionPoint::ALL[point], p);
        }
        check_format(&plan, FaultPlan::render, FaultPlan::parse, &edits)?;
    }
}

/// `.repo` text for `configs`, one section each.
fn render_repos(configs: &[RepoConfig]) -> String {
    configs
        .iter()
        .map(|c| render_repo_file(&c.clone().into_repository()))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn repo_file_round_trips_and_survives_edits(
        sections in proptest::collection::vec(
            (NAME, "[A-Za-z][A-Za-z0-9 ().-]{0,12}[a-z]", "http://[a-z.]{1,12}/[a-z/]{0,8}", 0u8..4, 0u32..200),
            1..4,
        ),
        edits in edits(),
    ) {
        let configs: Vec<RepoConfig> = sections
            .iter()
            .map(|(id, name, url, flags, priority)| RepoConfig {
                id: id.clone(),
                name: name.clone(),
                baseurl: url.clone(),
                enabled: flags & 1 == 1,
                gpgcheck: flags & 2 == 2,
                priority: Some(*priority),
            })
            .collect();
        let text = render_repos(&configs);
        let parsed = parse_repo_file(&text).map_err(|e| TestCaseError::fail(format!("{e} in {text:?}")))?;
        prop_assert_eq!(&parsed, &configs);
        let edited = apply(&text, &edits, INI_CHARS);
        if let Ok(once) = parse_repo_file(&edited) {
            let rendered = render_repos(&once);
            let again = parse_repo_file(&rendered).map(|c| render_repos(&c));
            prop_assert!(again.as_ref().ok() == Some(&rendered), "not a fixpoint: {edited:?}");
        }
    }
}
