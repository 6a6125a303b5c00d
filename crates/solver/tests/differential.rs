//! Differential and property-based tests: the solver's symbolic verdict sets
//! must coincide with brute-force enumeration of all traces of the
//! computation, for random computations and random formulas (seeded local
//! PRNG; case generators shared via `rvmtl_mtl::testgen` /
//! `rvmtl_distrib::testgen`).

use rvmtl_distrib::all_verdicts;
use rvmtl_distrib::testgen::gen_computation;
use rvmtl_mtl::testgen::{gen_formula, GenConfig};
use rvmtl_mtl::Formula;
use rvmtl_prng::StdRng;
use rvmtl_solver::possible_verdicts;

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
/// Computations are generated with a *fixed* ε so the sweep covers every
/// value in 1..=8 (the shared `gen_computation` draws ε ∈ 1..4 only, which
/// never exercises the saturated regime where whole windows merge).
#[test]
fn interval_abstraction_matches_bruteforce_across_epsilon() {
    let mut rng = StdRng::seed_from_u64(0xE125);
    for epsilon in 1u64..=8 {
        for _ in 0..12 {
            // The generator is capped at 2 processes × 2 events by
            // construction, keeping the oracle tractable even at ε = 8,
            // where a single event can have a 17-tick window.
            let processes = rng.gen_range(1usize..3);
            let mut b = rvmtl_distrib::ComputationBuilder::new(processes, epsilon);
            for p in 0..processes {
                let events = rng.gen_range(0usize..3);
                let mut t = 0;
                for _ in 0..events {
                    t += 1 + rng.gen_range(0u64..3);
                    let state: rvmtl_mtl::State = rvmtl_mtl::testgen::PROPS
                        .iter()
                        .filter(|_| rng.gen_bool())
                        .copied()
                        .collect();
                    b.event(p, t, state);
                }
            }
            let comp = b.build().expect("generated computations are valid");
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
    use rvmtl_solver::ProgressionQuery;
    let mut rng = StdRng::seed_from_u64(0x5F1D);
    let mut normalized_nodes = 0usize;
    for epsilon in 1u64..=8 {
        for _ in 0..10 {
            let processes = rng.gen_range(1usize..3);
            let mut b = rvmtl_distrib::ComputationBuilder::new(processes, epsilon);
            for p in 0..processes {
                let events = rng.gen_range(0usize..3);
                let mut t = 0;
                for _ in 0..events {
                    t += 1 + rng.gen_range(0u64..3);
                    let state: rvmtl_mtl::State = rvmtl_mtl::testgen::PROPS
                        .iter()
                        .filter(|_| rng.gen_bool())
                        .copied()
                        .collect();
                    b.event(p, t, state);
                }
            }
            let comp = b.build().expect("generated computations are valid");
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
