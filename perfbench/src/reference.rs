//! The offline side of the checks: match keys cut from frames the way the
//! rules crate sees them, and the deliberately wrong rulesets the
//! self-test serves to prove that the checker counts wrong verdicts.

use crate::harness::Expect;
use p4guard_rules::forest::majority;
use p4guard_rules::{RuleSet, TernaryEntry};

/// Shortest frame the raw-window parser every workload deploys accepts.
pub const MIN_FRAME: usize = 14;

/// The selected bytes of `frame`, zero past its end (the rules crate's
/// reading of a short frame).
pub fn key_of(frame: &[u8], offsets: &[usize]) -> Vec<u8> {
    offsets
        .iter()
        .map(|&o| frame.get(o).copied().unwrap_or(0))
        .collect()
}

/// The expected verdict of a frame whose rules class is `class`.
pub fn expect(frame: &[u8], class: impl FnOnce() -> usize) -> Expect {
    if frame.len() < MIN_FRAME {
        Expect::Reject
    } else if class() == 1 {
        Expect::Drop
    } else {
        Expect::Forward
    }
}

/// For each key, the entry `rs` classifies it by and the class it gets
/// once that entry is gone; `None` for keys that hit no entry.
fn winners(rs: &RuleSet, keys: &[Vec<u8>]) -> Vec<Option<(usize, usize, usize)>> {
    keys.iter()
        .map(|k| {
            let mut hits = rs
                .entries()
                .iter()
                .enumerate()
                .filter(|(_, e)| e.matches(k));
            let (w, e) = hits.next()?;
            let next = hits.next().map_or(rs.default_class(), |(_, e)| e.class);
            Some((w, e.class, next))
        })
        .collect()
}

/// The entry of `rs` whose removal changes the class of the most `keys`,
/// with that count.
pub fn most_live_entry(rs: &RuleSet, keys: &[Vec<u8>]) -> (TernaryEntry, usize) {
    let mut flips = vec![0usize; rs.len()];
    for (w, class, next) in winners(rs, keys).into_iter().flatten() {
        if class != next {
            flips[w] += 1;
        }
    }
    let (index, n) = flips
        .into_iter()
        .enumerate()
        .max_by_key(|&(i, n)| (n, std::cmp::Reverse(i)))
        .unwrap_or((0, 0));
    (rs.entries()[index].clone(), n)
}

/// The forest rule whose removal flips the majority vote of the most
/// `keys`, with that count. A rule is removed from every tree that holds
/// it, so a forest of identical trees can still be broken by one rule.
pub fn most_live_forest_entry(trees: &[&RuleSet], keys: &[Vec<u8>]) -> (TernaryEntry, usize) {
    let won: Vec<_> = trees.iter().map(|rs| winners(rs, keys)).collect();
    let winner = |u: usize, f: usize| won[u][f].map(|(w, _, _)| &trees[u].entries()[w]);
    let mut candidates: Vec<&TernaryEntry> = (0..trees.len())
        .flat_map(|u| (0..keys.len()).filter_map(move |f| winner(u, f)))
        .collect();
    candidates
        .sort_by(|a, b| (&a.value, &a.mask, a.priority).cmp(&(&b.value, &b.mask, b.priority)));
    candidates.dedup();
    let mut best: Option<(&TernaryEntry, usize)> = None;
    for rule in candidates {
        let flips = (0..keys.len())
            .filter(|&f| {
                let attack = |removed: bool| {
                    (0..trees.len())
                        .filter(|&u| match won[u][f] {
                            Some((_, _, next)) if removed && winner(u, f) == Some(rule) => {
                                next == 1
                            }
                            Some((_, class, _)) => class == 1,
                            None => trees[u].default_class() == 1,
                        })
                        .count()
                };
                let (before, after) = (attack(false), attack(true));
                majority(before, trees.len() - before) != majority(after, trees.len() - after)
            })
            .count();
        if best.is_none_or(|(_, n)| flips > n) {
            best = Some((rule, flips));
        }
    }
    best.map_or(
        (TernaryEntry::new(Vec::new(), Vec::new(), 0, 0), 0),
        |(r, n)| (r.clone(), n),
    )
}

/// `rs` without any entry equal to `rule`.
pub fn without_rule(rs: &RuleSet, rule: &TernaryEntry) -> RuleSet {
    let mut out = RuleSet::new(rs.key_width(), rs.default_class());
    for e in rs.entries().iter().filter(|e| *e != rule) {
        out.push(e.clone());
    }
    out
}

/// An exact-match entry on a key no frame of `keys` carries, drawn from
/// `seed`: installing or removing it changes no verdict.
pub fn unmatched_entry(keys: &[Vec<u8>], width: usize, seed: u64) -> TernaryEntry {
    let mut state = seed ^ 0xc4u64.rotate_left(56);
    loop {
        let value: Vec<u8> = (0..width)
            .map(|_| {
                state = splitmix(state);
                state as u8
            })
            .collect();
        let entry = TernaryEntry::new(value, vec![0xff; width], 1, 0);
        if !keys.iter().any(|k| entry.matches(k)) {
            return entry;
        }
    }
}

fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}
