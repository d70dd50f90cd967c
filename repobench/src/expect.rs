//! The exact statistics: seed-independent simulated numbers recorded in
//! `repobench/expected.json` and compared exactly.
//!
//! The file is one flat JSON object from `<workload>.<design>.<stat>` to
//! an unsigned integer. A workload's check fails when any key under its
//! prefix differs, is missing from the run, or is missing from the file.

use std::collections::BTreeMap;

use manticore::machine::PerfCounters;
use manticore_serve::json::Value;

use crate::stats::Tally;

const EXPECTED: &str = include_str!("../expected.json");

/// Adds a run's machine counters under `prefix`.
pub fn counters(exact: &mut BTreeMap<String, u64>, prefix: &str, c: &PerfCounters) {
    for (name, v) in [
        ("vcycles", c.vcycles),
        ("instructions", c.instructions),
        ("sends", c.sends),
        ("messages_delivered", c.messages_delivered),
        ("stall_cycles", c.stall_cycles),
        ("compute_cycles", c.compute_cycles),
        ("exceptions", c.exceptions),
    ] {
        exact.insert(format!("{prefix}.{name}"), v);
    }
}

/// Compares `actual` with the recorded statistics of `workload`, as one
/// check; every differing key is reported.
pub fn compare(workload: &str, actual: &BTreeMap<String, u64>, tally: &mut Tally) {
    let recorded = parse(EXPECTED).expect("expected.json is a flat object of integers");
    let prefix = format!("{workload}.");
    let expected: BTreeMap<&String, u64> = recorded
        .iter()
        .filter(|(k, _)| k.starts_with(&prefix))
        .map(|(k, v)| (k, *v))
        .collect();
    let mut diffs = Vec::new();
    for (key, want) in &expected {
        match actual.get(*key) {
            Some(got) if got == want => {}
            got => diffs.push(format!("{key}: expected {want}, got {got:?}")),
        }
    }
    for (key, got) in actual {
        if !expected.contains_key(key) {
            diffs.push(format!("{key}: not recorded, got {got}"));
        }
    }
    let ok = diffs.is_empty() && !actual.is_empty();
    tally.check(ok, || {
        let current = Value::Obj(
            actual
                .iter()
                .map(|(k, v)| (k.clone(), Value::Int(*v)))
                .collect(),
        );
        format!(
            "{} exact statistics differ from expected.json:\n  {}\nthis run's values: {}",
            diffs.len(),
            diffs.join("\n  "),
            current.render()
        )
    });
}

fn parse(text: &str) -> Option<BTreeMap<String, u64>> {
    Value::parse(text)
        .ok()?
        .as_obj()?
        .iter()
        .map(|(k, v)| Some((k.clone(), v.as_u64()?)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_recorded_file_parses() {
        assert!(parse(EXPECTED).is_some_and(|m| !m.is_empty()));
    }

    #[test]
    fn any_difference_is_one_failed_check() {
        let mut actual = BTreeMap::new();
        actual.insert("nosuch.x".to_string(), 1);
        let mut tally = Tally::default();
        compare("nosuch", &actual, &mut tally);
        assert_eq!((tally.attempted, tally.failed), (1, 1));
        compare("nosuch", &BTreeMap::new(), &mut tally);
        assert_eq!((tally.attempted, tally.failed), (2, 2));
    }
}
