//! Differential and property-based tests: the solver's symbolic verdict sets
//! must coincide with brute-force enumeration of all traces of the
//! computation (and, under a solution limit, be a subset of it), for random
//! computations and random formulas (seeded local
//! PRNG; case generators shared via `rvmtl_mtl::testgen` /
//! `rvmtl_distrib::testgen`).

use rvmtl_distrib::testgen::gen_computation;
use rvmtl_distrib::{all_verdicts, ComputationBuilder, DistributedComputation};
use rvmtl_mtl::testgen::{gen_formula, GenConfig, PROPS};
use rvmtl_mtl::{Formula, State};
use rvmtl_prng::StdRng;
use rvmtl_solver::{possible_verdicts, ProgressionQuery};

const CASES: usize = 64;

/// Small intervals keep the brute-force oracle tractable.
fn gen_phi(rng: &mut StdRng) -> Formula {
    let cfg = GenConfig {
        max_depth: 2,
        interval_start_max: 4,
        interval_len_max: 8,
        ..GenConfig::default()
    };
    gen_formula(rng, &cfg)
}

/// A computation with a *fixed* ε over 1 or 2 processes, each with at most
/// `max_events` events one to three ticks apart (the shared
/// `gen_computation` draws ε ∈ 1..4 only, which never exercises the
/// saturated regime where whole windows merge).
fn gen_skewed_comp(rng: &mut StdRng, epsilon: u64, max_events: usize) -> DistributedComputation {
    let processes = rng.gen_range(1usize..3);
    let mut b = ComputationBuilder::new(processes, epsilon);
    for p in 0..processes {
        let events = rng.gen_range(0..max_events + 1);
        let mut t = 0;
        for _ in 0..events {
            t += 1 + rng.gen_range(0u64..3);
            let state: State = PROPS.iter().filter(|_| rng.gen_bool()).copied().collect();
            b.event(p, t, state);
        }
    }
    b.build().expect("generated computations are valid")
}

/// The solver's verdict set equals the brute-force oracle's on random
/// computations and formulas.
#[test]
fn solver_matches_bruteforce() {
    let mut rng = StdRng::seed_from_u64(0xD1FF);
    let mut checked = 0;
    while checked < CASES {
        let comp = gen_computation(&mut rng);
        let phi = gen_phi(&mut rng);
        // Keep the oracle tractable.
        if comp.event_count() > 6 {
            continue;
        }
        checked += 1;
        let expected = all_verdicts(&comp, &phi);
        let actual = possible_verdicts(&comp, &phi);
        assert_eq!(actual, expected, "formula {phi}");
    }
}

/// The interval-abstracted engine must preserve verdict sets across the whole
/// ε axis (the paper's Fig. 5b sweep): as ε grows, ever larger parts of each
/// event's occurrence window collapse into a single search node, and this
/// test pins that the collapse never merges time points that brute-force
/// enumeration distinguishes.
///
/// Computations are generated with a fixed ε so the sweep covers every
/// value in 1..=8.
#[test]
fn interval_abstraction_matches_bruteforce_across_epsilon() {
    let mut rng = StdRng::seed_from_u64(0xE125);
    for epsilon in 1u64..=8 {
        for _ in 0..12 {
            // Capped at 2 processes × 2 events, keeping the oracle tractable
            // even at ε = 8, where a single event can have a 17-tick window.
            let comp = gen_skewed_comp(&mut rng, epsilon, 2);
            let phi = gen_phi(&mut rng);
            assert_eq!(
                possible_verdicts(&comp, &phi),
                all_verdicts(&comp, &phi),
                "formula {phi}, ε = {epsilon}"
            );
        }
    }
}

/// Verdict sets are never empty and consistent with negation: verdicts(¬φ)
/// is the element-wise negation of verdicts(φ).
#[test]
fn negation_flips_verdicts() {
    let mut rng = StdRng::seed_from_u64(0x0E64);
    let mut checked = 0;
    while checked < CASES {
        let comp = gen_computation(&mut rng);
        let phi = gen_phi(&mut rng);
        if comp.event_count() > 6 {
            continue;
        }
        checked += 1;
        let pos = possible_verdicts(&comp, &phi);
        let neg = possible_verdicts(&comp, &Formula::not(phi.clone()));
        assert!(!pos.is_empty());
        let flipped: std::collections::BTreeSet<bool> = pos.iter().map(|v| !v).collect();
        assert_eq!(neg, flipped, "formula {phi}");
    }
}

/// The shift-normal engine on *delayed-window* formulas — windows starting
/// strictly after the anchor, whose pre-window residuals are exact
/// time-translates of one canonical residual — must preserve verdict sets
/// across the whole ε axis. This is the regime where the zone
/// canonicalisation (translated-range collapse, shift-relative memo keys)
/// actually fires, so the sweep additionally asserts that it fired: plain
/// per-formula agreement alone could pass with the machinery disabled.
#[test]
fn delayed_window_verdicts_match_bruteforce_across_epsilon() {
    let mut rng = StdRng::seed_from_u64(0x5F1D);
    let mut normalized_nodes = 0usize;
    for epsilon in 1u64..=8 {
        for _ in 0..10 {
            let comp = gen_skewed_comp(&mut rng, epsilon, 2);
            // Bias every top-level window away from zero: translate the
            // generated formula's live intervals up by a random offset.
            let cfg = GenConfig {
                max_depth: 2,
                interval_start_max: 3,
                interval_len_max: 6,
                unbounded_intervals: false,
            };
            let base = gen_formula(&mut rng, &cfg);
            let shift = rng.gen_range(1u64..8);
            let mut interner = rvmtl_mtl::Interner::new();
            let id = interner.intern(&base);
            let shifted = interner.translate_up(id, shift);
            let phi = interner.resolve(shifted);
            let anchor = comp.max_local_time() + comp.epsilon();
            let result = ProgressionQuery::new(&comp, anchor).distinct_progressions(&phi);
            normalized_nodes += result.stats.shift_normalized_nodes;
            assert_eq!(
                result.verdicts(),
                all_verdicts(&comp, &phi),
                "formula {phi}, ε = {epsilon}"
            );
        }
    }
    assert!(
        normalized_nodes > 0,
        "the sweep never exercised the shift-normal canonicalisation"
    );
}

/// A solution limit keeps a subset of the unlimited search: for every limit
/// the kept formulas are a subset of the unlimited set (non-empty whenever
/// that set is), and their verdicts are a subset of the brute-force oracle's.
/// The sweep must also contain cases where the limit actually drops
/// formulas, or the subset checks would be vacuous.
#[test]
fn limited_progressions_are_subsets_across_epsilon() {
    let mut rng = StdRng::seed_from_u64(0xE9D4);
    let mut bitten = 0usize;
    for epsilon in 1u64..=8 {
        for _ in 0..6 {
            let comp = gen_skewed_comp(&mut rng, epsilon, 3);
            let phi = gen_phi(&mut rng);
            let anchor = comp.max_local_time() + comp.epsilon();
            let unlimited = ProgressionQuery::new(&comp, anchor).distinct_progressions(&phi);
            let oracle = all_verdicts(&comp, &phi);
            for limit in 1..=3usize {
                let limited = ProgressionQuery::new(&comp, anchor)
                    .with_limit(limit)
                    .distinct_progressions(&phi);
                let context = format!("formula {phi}, ε = {epsilon}, limit {limit}");
                assert!(
                    limited.formulas.is_subset(&unlimited.formulas),
                    "{context}: limited formulas must be a subset"
                );
                assert_eq!(
                    limited.formulas.is_empty(),
                    unlimited.formulas.is_empty(),
                    "{context}: a limit must not empty a non-empty set"
                );
                assert!(
                    limited.verdicts().is_subset(&oracle),
                    "{context}: limited verdicts must be a subset of the oracle's"
                );
                if limited.formulas.len() < unlimited.formulas.len() {
                    bitten += 1;
                }
            }
        }
    }
    assert!(bitten > 0, "the limit never dropped a formula");
}
