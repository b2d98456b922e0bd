//! Seeded property checking with shrink-by-deletion.
//!
//! A case is a `Vec<Op>` generated from a seed; a property replays it
//! and returns `Err(what diverged)` — or panics, which counts the same.
//! The first failing seed is shrunk (drop halves, quarters, … single
//! ops, then simplify single ops, e.g. halve a size; every candidate is
//! replayed) and reported with its seed and the shrunk ops as a
//! pasteable `vec![…]`. No feature, environment knob or dependency.

use std::fmt::{self, Debug, Display};
use std::panic::{catch_unwind, AssertUnwindSafe};

use crate::DeterministicRng;

/// A failing case after shrinking.
#[derive(Debug)]
pub struct Failure<Op> {
    /// The generator seed that produced the case.
    pub seed: u64,
    /// Length of the case as generated.
    pub original_len: usize,
    /// The shrunk ops: they still fail, with [`Failure::error`].
    pub ops: Vec<Op>,
    /// What the property reported for `ops`.
    pub error: String,
}

impl<Op: Debug> Display for Failure<Op> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (from, to) = (self.original_len, self.ops.len());
        writeln!(f, "seed {} fails: {}", self.seed, self.error)?;
        writeln!(f, "{from} ops shrunk to {to}; replay with")?;
        write!(f, "    let ops = vec!{:?};", self.ops)
    }
}

fn replay<Op>(property: impl Fn(&[Op]) -> Result<(), String>, ops: &[Op]) -> Result<(), String> {
    catch_unwind(AssertUnwindSafe(|| property(ops))).unwrap_or_else(|panic| {
        let msg = panic.downcast_ref::<String>().map(String::as_str);
        let msg = msg.or_else(|| panic.downcast_ref::<&str>().copied());
        Err(format!("panic: {}", msg.unwrap_or("non-string payload")))
    })
}

/// Generates one case per seed and replays it; returns the first
/// failure, shrunk. `simplify` proposes a smaller version of one op
/// (`None` when it has none).
pub fn find_failure<Op: Clone>(
    seeds: std::ops::Range<u64>,
    generate: impl Fn(&mut DeterministicRng) -> Vec<Op>,
    simplify: impl Fn(&Op) -> Option<Op>,
    property: impl Fn(&[Op]) -> Result<(), String>,
) -> Option<Failure<Op>> {
    for seed in seeds {
        let ops = generate(&mut DeterministicRng::seed_from(seed));
        let Err(error) = replay(&property, &ops) else {
            continue;
        };
        let (original_len, mut chunk) = (ops.len(), ops.len().div_ceil(2));
        let mut f = Failure {
            seed,
            original_len,
            ops,
            error,
        };
        let keep_if_failing = |candidate: Vec<Op>, f: &mut Failure<Op>| {
            let failed = replay(&property, &candidate).err();
            failed.map(|e| (f.ops, f.error) = (candidate, e)).is_some()
        };
        // Deletion: sweep with ever smaller chunks, then single ops
        // until a whole sweep removes nothing.
        while chunk > 0 {
            let (mut i, mut removed) = (0, false);
            while i < f.ops.len() {
                let mut candidate = f.ops.clone();
                candidate.drain(i..(i + chunk).min(f.ops.len()));
                if keep_if_failing(candidate, &mut f) {
                    removed = true;
                } else {
                    i += chunk;
                }
            }
            if chunk > 1 || !removed {
                chunk /= 2;
            }
        }
        for i in 0..f.ops.len() {
            while let Some(simpler) = simplify(&f.ops[i]) {
                let mut candidate = f.ops.clone();
                candidate[i] = simpler;
                if !keep_if_failing(candidate, &mut f) {
                    break;
                }
            }
        }
        return Some(f);
    }
    None
}

/// [`find_failure`] as an assertion: panics with the shrunk reproducer.
pub fn check<Op: Clone + Debug>(
    seeds: std::ops::Range<u64>,
    generate: impl Fn(&mut DeterministicRng) -> Vec<Op>,
    simplify: impl Fn(&Op) -> Option<Op>,
    property: impl Fn(&[Op]) -> Result<(), String>,
) {
    if let Some(failure) = find_failure(seeds, generate, simplify, property) {
        panic!("{failure}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone, PartialEq)]
    enum Op {
        Put(u8, u32),
        Del(u8),
        Has(u8),
    }
    use Op::*;

    fn generate(rng: &mut DeterministicRng) -> Vec<Op> {
        let op = |rng: &mut DeterministicRng| match (rng.below(3), rng.below(4) as u8) {
            (0, k) => Put(k, rng.between(1, 50_000) as u32),
            (1, k) => Del(k),
            (_, k) => Has(k),
        };
        (0..rng.between(20, 60)).map(|_| op(rng)).collect()
    }

    fn halve(op: &Op) -> Option<Op> {
        match *op {
            Put(k, len) if len > 0 => Some(Put(k, len / 2)),
            _ => None,
        }
    }

    /// The planted bug: a set whose "model" forgets deletes.
    fn forgetful(ops: &[Op]) -> Result<(), String> {
        let (mut real, mut model) = ([false; 4], [false; 4]);
        for op in ops {
            match *op {
                Put(k, _) => (real[k as usize], model[k as usize]) = (true, true),
                Del(k) => real[k as usize] = false,
                Has(k) if real[k as usize] != model[k as usize] => {
                    return Err(format!("key {k}: model says present, store says absent"));
                }
                Has(_) => {}
            }
        }
        Ok(())
    }

    #[test]
    fn planted_bug_shrinks_to_a_replayable_minimum() {
        let f = find_failure(0..32, generate, halve, forgetful).expect("the bug is reachable");
        assert!(f.original_len >= 20, "{f}");
        let [Put(k, 0), Del(d), Has(h)] = f.ops[..] else {
            panic!("not minimal: {f}");
        };
        assert!(k == d && d == h);
        // The printed reproducer is the shrunk case and replays to the
        // same failure.
        assert_eq!(forgetful(&f.ops), Err(f.error.clone()));
        let report = f.to_string();
        assert!(report.starts_with(&format!("seed {} fails: key {k}", f.seed)));
        assert!(report.ends_with(&format!("let ops = vec![Put({k}, 0), Del({k}), Has({k})];")));
    }

    #[test]
    fn panics_shrink_like_errors_and_passing_properties_pass() {
        let trips = |ops: &[Op]| {
            assert!(!ops.contains(&Del(3)), "tripped");
            Ok(())
        };
        let f = find_failure(0..32, generate, halve, trips).expect("some case deletes key 3");
        assert_eq!((f.ops, f.error.as_str()), (vec![Del(3)], "panic: tripped"));
        check(0..8, generate, halve, |_| Ok(()));
    }
}
