//! The progression algorithms of the formula arena.
//!
//! [`crate::Interner`] (`intern.rs`) owns the storage: the node table, the
//! fused metadata records, the canonicalising smart constructors, state
//! interning and the two progression caches. This module adds the
//! algorithms on top of that storage, as a second `impl Interner` block:
//!
//! * shift-normal translation ([`Interner::translate_up`],
//!   [`Interner::translate_down`], [`Interner::normalize`],
//!   [`Interner::materialize`], [`Interner::resolve_shifted`]);
//! * memoised single-observation and gap progression
//!   ([`Interner::progress_one_cached`], [`Interner::progress_gap_cached`]);
//! * interval-splitting progression over occurrence windows, scalar
//!   ([`Interner::progress_one_over`], [`Interner::progress_gap_over`]) and
//!   batched ([`Interner::progress_one_over_batched`],
//!   [`Interner::progress_gap_over_batched`]), with the [`SplitRange`]s they
//!   return.
//!
//! The caches are reached only through the interner's tallying accessors,
//! so every probe is counted exactly once in [`crate::CacheStats`].

use crate::{Formula, FormulaId, GapKey, Interner, Node, OneKey, ShiftedId, State, StateKey};

/// Reusable buffers for the batched interval-splitting progressions
/// ([`Interner::progress_one_over_batched`] /
/// [`Interner::progress_gap_over_batched`]). One instance amortises the key,
/// probe-result and residual vectors across every window a caller splits —
/// the solver keeps one per segment, so the batch entry points allocate
/// nothing in steady state.
#[derive(Debug, Default)]
pub struct ProbeScratch {
    /// Packed one-cache keys of the current tick run.
    one_keys: Vec<OneKey>,
    /// Packed gap-cache keys of the current tick run.
    gap_keys: Vec<GapKey>,
    /// Probe results, aligned with the key vector (`None` = miss).
    probes: Vec<Option<FormulaId>>,
    /// Per-tick residuals after misses are resolved.
    residuals: Vec<FormulaId>,
}

/// How the residuals of a [`SplitRange`] vary across the range; see
/// [`Interner::progress_one_over`] for the full contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RangeKind {
    /// Every time point of the range yields the range's residual.
    Uniform,
    /// The residual at `lo + k` is `translate_down(residual, k)`: the range
    /// sweeps one shift-normal zone (canonical residual constant, shift
    /// decrementing per tick and staying ≥ 1). A caller performing a
    /// union-of-contributions search may collapse the range to its earliest
    /// point, exactly as for a time-invariant `Uniform` range.
    Translated,
}

/// One maximal range of an interval-splitting progression
/// ([`Interner::progress_one_over`] / [`Interner::progress_gap_over`]): the
/// occurrence times `[lo, hi]` (inclusive) together with the residual at `lo`
/// and the law giving the residuals of the remaining points.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitRange {
    /// Earliest occurrence time of the range.
    pub lo: u64,
    /// Latest occurrence time of the range (inclusive).
    pub hi: u64,
    /// The residual at `lo`.
    pub residual: FormulaId,
    /// How the residuals of the later points relate to `residual`.
    pub kind: RangeKind,
}

impl Interner {
    /// Shifts every top-level temporal interval of `id` up by `delta` —
    /// the exact inverse of [`Interner::translate_down`] on its domain.
    /// Propositional formulas are fixed points; subformulas *under* a
    /// temporal operator are untouched (their anchor is the operator's
    /// window, which moves as a whole).
    pub fn translate_up(&mut self, id: FormulaId, delta: u64) -> FormulaId {
        if delta == 0 || self.shift_slack(id) == u64::MAX {
            return id;
        }
        match self.node(id).clone() {
            Node::True | Node::False | Node::Atom(_) => id,
            Node::Not(a) => {
                let a = self.translate_up(a, delta);
                self.mk_not(a)
            }
            Node::And(children) => {
                let parts: Vec<FormulaId> = children
                    .iter()
                    .map(|&c| self.translate_up(c, delta))
                    .collect();
                self.mk_and_all(parts)
            }
            Node::Or(children) => {
                let parts: Vec<FormulaId> = children
                    .iter()
                    .map(|&c| self.translate_up(c, delta))
                    .collect();
                self.mk_or_all(parts)
            }
            Node::Implies(a, b) => {
                let a = self.translate_up(a, delta);
                let b = self.translate_up(b, delta);
                self.mk_implies(a, b)
            }
            Node::Eventually(i, a) => self.mk_eventually(i.shift_up(delta), a),
            Node::Always(i, a) => self.mk_always(i.shift_up(delta), a),
            Node::Until(a, i, b) => self.mk_until(a, i.shift_up(delta), b),
        }
    }

    /// Translates every top-level temporal interval of `id` down by `delta`,
    /// exactly — `delta` must not exceed [`Interner::shift_slack`], so no
    /// endpoint clamps and [`Interner::translate_up`] inverts the move.
    /// Equals `progress_gap(id, delta)` on that domain (a gap shorter than
    /// the slack elapses no window, it only slides them).
    pub fn translate_down(&mut self, id: FormulaId, delta: u64) -> FormulaId {
        debug_assert!(
            delta <= self.shift_slack(id),
            "translate_down past the shift slack is not exact"
        );
        if delta == 0 || self.shift_slack(id) == u64::MAX {
            return id;
        }
        match self.node(id).clone() {
            Node::True | Node::False | Node::Atom(_) => id,
            Node::Not(a) => {
                let a = self.translate_down(a, delta);
                self.mk_not(a)
            }
            Node::And(children) => {
                let parts: Vec<FormulaId> = children
                    .iter()
                    .map(|&c| self.translate_down(c, delta))
                    .collect();
                self.mk_and_all(parts)
            }
            Node::Or(children) => {
                let parts: Vec<FormulaId> = children
                    .iter()
                    .map(|&c| self.translate_down(c, delta))
                    .collect();
                self.mk_or_all(parts)
            }
            Node::Implies(a, b) => {
                let a = self.translate_down(a, delta);
                let b = self.translate_down(b, delta);
                self.mk_implies(a, b)
            }
            Node::Eventually(i, a) => self.mk_eventually(i.translate_down(delta), a),
            Node::Always(i, a) => self.mk_always(i.translate_down(delta), a),
            Node::Until(a, i, b) => self.mk_until(a, i.translate_down(delta), b),
        }
    }

    /// Decomposes `id` into its shift-normal form `(shift, canonical
    /// residual)`: the greatest common offset of the top-level intervals is
    /// factored out. Formulas with slack 0 (a window already open, or an
    /// `Until` with a non-invariant left argument) and propositional formulas
    /// are their own canonical form with shift 0.
    pub fn normalize(&self, id: FormulaId) -> ShiftedId {
        // Shift-free arenas (watermark down) have no decomposable node at
        // all: skip even the metadata read.
        if !self.ever_shifted() {
            return ShiftedId::unshifted(id);
        }
        let meta = self.node_meta(id);
        if meta.is_translatable() {
            ShiftedId {
                shift: meta.slack,
                id: meta.canon,
            }
        } else {
            ShiftedId::unshifted(id)
        }
    }

    /// Rebuilds the plain id of a shift-normal pair
    /// (`translate_up(s.id, s.shift)`) — the inverse of
    /// [`Interner::normalize`].
    pub fn materialize(&mut self, s: ShiftedId) -> FormulaId {
        self.translate_up(s.id, s.shift)
    }

    /// Resolves a shift-normal pair to a plain [`Formula`] tree without
    /// materialising the translated node in the arena. Produces exactly
    /// `resolve(materialize(s))`: top-level intervals are shifted up *before*
    /// the structural re-sort of n-ary operands.
    pub fn resolve_shifted(&self, s: ShiftedId) -> Formula {
        fn go(arena: &Interner, id: FormulaId, delta: u64) -> Formula {
            if delta == 0 || arena.shift_slack(id) == u64::MAX {
                return arena.resolve(id);
            }
            match arena.node(id) {
                Node::True | Node::False | Node::Atom(_) => arena.resolve(id),
                Node::Not(a) => Formula::not(go(arena, *a, delta)),
                Node::And(children) => crate::intern::fold_nary(
                    children.iter().map(|&c| go(arena, c, delta)).collect(),
                    true,
                ),
                Node::Or(children) => crate::intern::fold_nary(
                    children.iter().map(|&c| go(arena, c, delta)).collect(),
                    false,
                ),
                Node::Implies(a, b) => Formula::implies(go(arena, *a, delta), go(arena, *b, delta)),
                Node::Eventually(i, a) => Formula::eventually(i.shift_up(delta), arena.resolve(*a)),
                Node::Always(i, a) => Formula::always(i.shift_up(delta), arena.resolve(*a)),
                Node::Until(a, i, b) => {
                    Formula::until(arena.resolve(*a), i.shift_up(delta), arena.resolve(*b))
                }
            }
        }
        go(self, s.id, s.shift)
    }

    /// Memoised [`Interner::progress_one`] over an interned state: the result
    /// of progressing `id` across a single observation of state `key` with
    /// `elapsed` time units between the observation and the next anchor.
    ///
    /// `progress_one(state, time, id, next)` depends on its two time
    /// arguments only through `next − time`, and beyond the formula's
    /// [temporal horizon](Interner::temporal_horizon) not even on that — so
    /// the memo key clamps the elapsed time at the horizon and one cache
    /// entry serves every tick of the stable tail of any window, across all
    /// segments the interner lives through. The memoisation is applied at
    /// *every* recursion level, so structurally shared subformulas (e.g. the
    /// per-process obligations of a replicated specification, or the stable
    /// core of a `□`-residual) are progressed once per `(state, elapsed)`
    /// no matter how many pending formulas contain them.
    ///
    /// # Shift-relative memoisation
    ///
    /// For a formula with shift slack σ ≥ 1 the progression at elapsed time
    /// Δ depends only on the *canonical residual* and the relative time
    /// Δ − σ — for every Δ, not only while the window is still closed. Two
    /// translates `S_{σ₁}c`, `S_{σ₂}c` (σᵢ ≥ 1) compared at matching
    /// relative times Δᵢ − σᵢ behave identically at each constructor: a
    /// top-level window `[s+σᵢ, e+σᵢ)` never contains the observation point
    /// 0 (s + σᵢ ≥ 1), so the observed parts of `◇`/`□`/`U` are closed
    /// (`⊥`/`⊤`) in *both* members regardless of Δ, an `U`'s left obligation
    /// is time-invariant by the slack definition (its progression ignores
    /// Δ), and the residual windows land at `tops − Δ = canonical tops −
    /// (Δ − σ)` with clamping that also depends only on Δ − σ. (For
    /// Δ ≥ σ the result does mention open-window residuals such as
    /// `observed ∨ F[0, e−(Δ−σ)) …` — produced by the *residual* clause, not
    /// the observation, and still a function of Δ − σ alone.) The
    /// memo key is therefore `(state, canon, Δ − σ, shifted=true)` and one
    /// entry serves the obligation at *every* absolute time it is
    /// re-encountered — across windows, segments and queries. Slack-0
    /// formulas (window open: the observation participates) keep direct
    /// `(state, id, min(Δ, horizon), shifted=false)` entries; the flag keeps
    /// the two regimes of one canonical residual apart. The relative time of
    /// shifted entries is clamped at the canonical residual's horizon, which
    /// is at least the member's own stability threshold minus its shift.
    pub fn progress_one_cached(&mut self, key: StateKey, id: FormulaId, elapsed: u64) -> FormulaId {
        // One fused metadata read serves the slack branch, the horizon clamp
        // and the canonical id. A shift-free node (slack 0 or MAX — the only
        // possibility while the arena watermark is down) takes the direct-key
        // path with no further table traffic.
        let meta = self.node_meta(id);
        // Clamping is sound per node: for `elapsed ≥ temporal_horizon(id)`
        // every bounded interval in `id` has elapsed and every unbounded
        // start has saturated, so the result equals the horizon's.
        let clamped = elapsed.min(meta.horizon);
        let cache_key = if meta.is_translatable() {
            let canon_horizon = self.node_meta(meta.canon).horizon;
            let rel = (elapsed as i64 - meta.slack as i64).min(canon_horizon as i64);
            OneKey::pack(key, meta.canon, rel, true)
        } else {
            OneKey::pack(key, id, clamped as i64, false)
        };
        if let Some(f) = self.one_cache_get(cache_key) {
            return f;
        }
        let f = self.progress_one_compute(key, id, clamped);
        self.one_cache_put(cache_key, f);
        f
    }

    /// The uncached body of [`Interner::progress_one_cached`]: structural
    /// progression of `id` against the observation `key` at horizon-clamped
    /// elapsed time `clamped`. Issues **no** top-level cache traffic (children
    /// still go through the cached entry point) — callers that probed and
    /// missed call this and then memoise the result themselves, which is what
    /// lets the batched splitter collect a run of misses and resolve them
    /// together without double-counting probes.
    fn progress_one_compute(&mut self, key: StateKey, id: FormulaId, clamped: u64) -> FormulaId {
        match self.node(id).clone() {
            Node::True => FormulaId::TRUE,
            Node::False => FormulaId::FALSE,
            Node::Atom(p) => {
                if self.state_holds(key, &p) {
                    FormulaId::TRUE
                } else {
                    FormulaId::FALSE
                }
            }
            Node::Not(a) => {
                let a = self.progress_one_cached(key, a, clamped);
                self.mk_not(a)
            }
            Node::And(children) => {
                let parts: Vec<FormulaId> = children
                    .iter()
                    .map(|&c| self.progress_one_cached(key, c, clamped))
                    .collect();
                self.mk_and_all(parts)
            }
            Node::Or(children) => {
                let parts: Vec<FormulaId> = children
                    .iter()
                    .map(|&c| self.progress_one_cached(key, c, clamped))
                    .collect();
                self.mk_or_all(parts)
            }
            Node::Implies(a, b) => {
                let a = self.progress_one_cached(key, a, clamped);
                let b = self.progress_one_cached(key, b, clamped);
                self.mk_implies(a, b)
            }
            Node::Eventually(interval, a) => {
                let observed = if interval.contains(0) {
                    self.progress_one_cached(key, a, clamped)
                } else {
                    FormulaId::FALSE
                };
                if interval.elapsed_by(clamped) {
                    observed
                } else {
                    let residual = self.mk_eventually(interval.shift_down(clamped), a);
                    self.mk_or(observed, residual)
                }
            }
            Node::Always(interval, a) => {
                let observed = if interval.contains(0) {
                    self.progress_one_cached(key, a, clamped)
                } else {
                    FormulaId::TRUE
                };
                if interval.elapsed_by(clamped) {
                    observed
                } else {
                    let residual = self.mk_always(interval.shift_down(clamped), a);
                    self.mk_and(observed, residual)
                }
            }
            Node::Until(a, interval, b) => {
                let pre = if interval.start() > 0 {
                    self.progress_one_cached(key, a, clamped)
                } else {
                    FormulaId::TRUE
                };
                let observed_witness = if interval.contains(0) {
                    self.progress_one_cached(key, b, clamped)
                } else {
                    FormulaId::FALSE
                };
                let future_witness = if interval.elapsed_by(clamped) {
                    FormulaId::FALSE
                } else {
                    let all_a = self.progress_one_cached(key, a, clamped);
                    let residual = self.mk_until(a, interval.shift_down(clamped), b);
                    self.mk_and(all_a, residual)
                };
                let witness = self.mk_or(observed_witness, future_witness);
                self.mk_and(pre, witness)
            }
        }
    }

    /// Memoised [`Interner::progress_gap`] (same per-node elapsed-clamping
    /// memo as [`Interner::progress_one_cached`]), keyed shift-relative —
    /// without a regime flag, because a gap consumes no observation:
    /// `gap(S_σ c, Δ)` equals `gap(c, Δ − σ)` for `Δ ≥ σ` and the pure
    /// translate `S_{σ−Δ} c` for `Δ ≤ σ` (negative relative times in the
    /// key).
    pub fn progress_gap_cached(&mut self, id: FormulaId, elapsed: u64) -> FormulaId {
        let meta = self.node_meta(id);
        let clamped = elapsed.min(meta.horizon);
        if clamped == 0 {
            // A zero gap is the identity, and a time-invariant formula is a
            // fixpoint of every gap.
            return id;
        }
        let slack = meta.slack;
        // Non-invariant formulas (horizon > 0) always have a finite slack:
        // slack == MAX means no top-level temporal operator at all.
        let cache_key = if slack >= 1 {
            let canon_horizon = self.node_meta(meta.canon).horizon;
            GapKey::pack(
                meta.canon,
                (elapsed as i64 - slack as i64).min(canon_horizon as i64),
            )
        } else {
            GapKey::pack(id, clamped as i64)
        };
        if let Some(f) = self.gap_cache_get(cache_key) {
            return f;
        }
        let f = self.progress_gap_compute(id, elapsed);
        self.gap_cache_put(cache_key, f);
        f
    }

    /// The uncached body of [`Interner::progress_gap_cached`]: structural gap
    /// progression of `id` by `elapsed` ticks with **no** top-level cache
    /// traffic (the counterpart of `progress_one_compute` for the batched
    /// splitter's collected-miss resolution).
    fn progress_gap_compute(&mut self, id: FormulaId, elapsed: u64) -> FormulaId {
        let meta = self.node_meta(id);
        let clamped = elapsed.min(meta.horizon);
        if clamped == 0 {
            return id;
        }
        if elapsed < meta.slack {
            // The gap is shorter than the slack: no window elapses, they all
            // slide — the result is the exact translate.
            return self.translate_down(id, elapsed);
        }
        match self.node(id).clone() {
            Node::True | Node::False | Node::Atom(_) => id,
            Node::Not(a) => {
                let a = self.progress_gap_cached(a, clamped);
                self.mk_not(a)
            }
            Node::And(children) => {
                let parts: Vec<FormulaId> = children
                    .iter()
                    .map(|&c| self.progress_gap_cached(c, clamped))
                    .collect();
                self.mk_and_all(parts)
            }
            Node::Or(children) => {
                let parts: Vec<FormulaId> = children
                    .iter()
                    .map(|&c| self.progress_gap_cached(c, clamped))
                    .collect();
                self.mk_or_all(parts)
            }
            Node::Implies(a, b) => {
                let a = self.progress_gap_cached(a, clamped);
                let b = self.progress_gap_cached(b, clamped);
                self.mk_implies(a, b)
            }
            Node::Eventually(i, a) => {
                if i.elapsed_by(clamped) {
                    FormulaId::FALSE
                } else {
                    self.mk_eventually(i.shift_down(clamped), a)
                }
            }
            Node::Always(i, a) => {
                if i.elapsed_by(clamped) {
                    FormulaId::TRUE
                } else {
                    self.mk_always(i.shift_down(clamped), a)
                }
            }
            Node::Until(a, i, b) => {
                if i.elapsed_by(clamped) {
                    FormulaId::FALSE
                } else {
                    self.mk_until(a, i.shift_down(clamped), b)
                }
            }
        }
    }

    /// Interval-splitting progression: partitions the occurrence-time window
    /// `[lo, hi]` (inclusive) of the *next* observation into maximal
    /// [`SplitRange`]s — ranges whose residuals the caller may treat as one
    /// search node — and returns them in increasing time order.
    ///
    /// The pending formula `id` is anchored at `time` and the observation
    /// being consumed is `state` at `time`. Each returned range `[a, b]`
    /// carries the residual at its earliest point `a` and a [`RangeKind`]
    /// describing the rest of the range:
    ///
    /// * [`RangeKind::Uniform`] — `progress_one(state, time, id, t)` is the
    ///   same formula at every `t ∈ [a, b]`;
    /// * [`RangeKind::Translated`] — the residual at `a + k` is the exact
    ///   time-translate `translate_down(residual, k)`: the range sweeps one
    ///   shift-normal zone ([`Interner::shift_canon`] constant, shift
    ///   decrementing per tick, never reaching 0 inside the range).
    ///
    /// Two mechanisms bound the number of progression calls by
    /// `min(hi − lo, temporal_horizon(id)) + 1` instead of `hi − lo + 1`:
    ///
    /// * beyond the stability threshold `time + temporal_horizon(id)` the
    ///   residual no longer depends on `t`, so the entire tail of the window
    ///   is resolved with a single progression call;
    /// * below the threshold, adjacent time points merge into one range when
    ///   the shared residual is *time-invariant*
    ///   ([`Interner::is_time_invariant`]) or when consecutive residuals are
    ///   exact unit translates of each other with shifts that stay ≥ 1. In
    ///   both cases the caller is entitled to collapse the range to its
    ///   earliest point: the reachable rewrite set from pending time `t`
    ///   within one zone shrinks monotonically in `t` (later members can only
    ///   schedule a subset of the event times available to earlier ones,
    ///   while the residuals produced at matching absolute times coincide),
    ///   so the union over the range equals the contribution of its infimum.
    ///   The shift-0 member of a zone (the tick at which the window opens) is
    ///   never merged into the translated range: from that tick on the
    ///   observation falls *inside* the window and the progression changes
    ///   shape.
    ///
    /// The invariant-only uniform rule still applies to the stable tail: a
    /// non-invariant tail residual (a bounded operator nested under an
    /// unbounded one) is returned as one multi-point `Uniform` range — saving
    /// the per-tick progression calls — and the caller must still treat each
    /// time point of that range as a distinct search state.
    pub fn progress_one_over(
        &mut self,
        state: &State,
        time: u64,
        id: FormulaId,
        lo: u64,
        hi: u64,
    ) -> Vec<SplitRange> {
        let key = self.intern_state(state);
        self.progress_one_over_keyed(key, time, id, lo, hi)
    }

    /// [`Interner::progress_one_over`] for a pre-interned observation state —
    /// the solver interns each cut frontier once and reuses the key across
    /// every window explored at that cut.
    pub fn progress_one_over_keyed(
        &mut self,
        key: StateKey,
        time: u64,
        id: FormulaId,
        lo: u64,
        hi: u64,
    ) -> Vec<SplitRange> {
        let stable_from = time.saturating_add(self.temporal_horizon(id));
        progress_over_with(self, lo, hi, stable_from, |arena, t| {
            arena.progress_one_cached(key, id, t.saturating_sub(time))
        })
    }

    /// Interval-splitting counterpart of [`Interner::progress_gap`]: partitions
    /// the window `[lo, hi]` of the next anchor time into maximal ranges on
    /// which `progress_gap(id, t − base)` is constant or translate-swept.
    /// `base` is the anchor time of `id`. Same contract and merge rules as
    /// [`Interner::progress_one_over`].
    pub fn progress_gap_over(
        &mut self,
        id: FormulaId,
        base: u64,
        lo: u64,
        hi: u64,
    ) -> Vec<SplitRange> {
        let stable_from = base.saturating_add(self.temporal_horizon(id));
        progress_over_with(self, lo, hi, stable_from, |arena, t| {
            arena.progress_gap_cached(id, t.saturating_sub(base))
        })
    }

    /// Batched variant of [`Interner::progress_one_over_keyed`]: splits the
    /// same window into the same ranges (appended to `out`, cleared first),
    /// but issues the per-tick cache probes as **one contiguous batch**,
    /// collects the misses, and resolves them together in tick order.
    /// Returns the number of probes issued (the tick count of the clamped
    /// run), which the solver surfaces as its `batched_probe_ticks` counter.
    ///
    /// # Tally equivalence
    ///
    /// Probe-all-then-resolve sees exactly the hits and misses the
    /// interleaved scalar loop would see, because within one run every packed
    /// key is distinct — the relative time strictly increases tick over tick
    /// and the horizon clamp is only reached at the final tick (the run stops
    /// at the stability threshold) — and resolving a missed tick can never
    /// insert another tick's key: a resolution memoises only its own key
    /// (top-level) plus keys of *structurally smaller* subterms, while every
    /// run key names `id` or its equal-size canonical residual.
    #[allow(clippy::too_many_arguments)]
    pub fn progress_one_over_batched(
        &mut self,
        key: StateKey,
        time: u64,
        id: FormulaId,
        lo: u64,
        hi: u64,
        scratch: &mut ProbeScratch,
        out: &mut Vec<SplitRange>,
    ) -> usize {
        debug_assert!(lo <= hi, "window [{lo}, {hi}] is empty");
        let meta = self.node_meta(id);
        let stable_from = time.saturating_add(meta.horizon);
        // The scalar loop steps `lo ..= hi` but breaks at the first stable
        // tick, so the probed run is clamped at the stability threshold.
        let run_hi = hi.min(stable_from.max(lo));
        let ProbeScratch {
            one_keys,
            probes,
            residuals,
            ..
        } = scratch;
        one_keys.clear();
        if meta.is_translatable() {
            let canon_horizon = self.node_meta(meta.canon).horizon;
            for t in lo..=run_hi {
                let elapsed = t.saturating_sub(time);
                let rel = (elapsed as i64 - meta.slack as i64).min(canon_horizon as i64);
                one_keys.push(OneKey::pack(key, meta.canon, rel, true));
            }
        } else {
            for t in lo..=run_hi {
                let clamped = t.saturating_sub(time).min(meta.horizon);
                one_keys.push(OneKey::pack(key, id, clamped as i64, false));
            }
        }
        self.one_cache_get_batch(one_keys, probes);
        residuals.clear();
        for i in 0..probes.len() {
            let f = match probes[i] {
                Some(f) => f,
                None => {
                    let t = lo + i as u64;
                    let clamped = t.saturating_sub(time).min(meta.horizon);
                    let f = self.progress_one_compute(key, id, clamped);
                    self.one_cache_put(one_keys[i], f);
                    f
                }
            };
            residuals.push(f);
        }
        out.clear();
        merge_residual_run(self, lo, hi, stable_from, residuals, out);
        one_keys.len()
    }

    /// Batched variant of [`Interner::progress_gap_over`]; same contract and
    /// tally-equivalence argument as [`Interner::progress_one_over_batched`].
    /// Returns the probe count — ticks whose clamped gap is zero (the scalar
    /// path's identity early-return) issue no probe and form a prefix of the
    /// run, so they are excluded from both the batch and the count.
    pub fn progress_gap_over_batched(
        &mut self,
        id: FormulaId,
        base: u64,
        lo: u64,
        hi: u64,
        scratch: &mut ProbeScratch,
        out: &mut Vec<SplitRange>,
    ) -> usize {
        debug_assert!(lo <= hi, "window [{lo}, {hi}] is empty");
        let meta = self.node_meta(id);
        let stable_from = base.saturating_add(meta.horizon);
        let run_hi = hi.min(stable_from.max(lo));
        let ProbeScratch {
            gap_keys,
            probes,
            residuals,
            ..
        } = scratch;
        gap_keys.clear();
        residuals.clear();
        // A translatable node's relative times are keyed against its
        // canonical residual's horizon; read it once. (Finite nonzero slack
        // implies a temporal top level, so `canon` is populated; the other
        // arms never read the value.)
        let canon_horizon = if meta.slack >= 1 && meta.slack != u64::MAX {
            self.node_meta(meta.canon).horizon
        } else {
            0
        };
        // Zero-gap ticks (elapsed == 0, or any tick of a time-invariant
        // formula) are the identity with no cache traffic on the scalar
        // path; elapsed is monotone in `t`, so they form a prefix of the
        // run, recorded directly as residuals. The probed suffix starts at
        // tick `lo + residuals.len()`.
        for t in lo..=run_hi {
            let elapsed = t.saturating_sub(base);
            if elapsed.min(meta.horizon) == 0 {
                residuals.push(id);
            } else if meta.slack >= 1 {
                gap_keys.push(GapKey::pack(
                    meta.canon,
                    (elapsed as i64 - meta.slack as i64).min(canon_horizon as i64),
                ));
            } else {
                gap_keys.push(GapKey::pack(id, elapsed.min(meta.horizon) as i64));
            }
        }
        let prefix = residuals.len() as u64;
        self.gap_cache_get_batch(gap_keys, probes);
        for i in 0..probes.len() {
            let f = match probes[i] {
                Some(f) => f,
                None => {
                    let elapsed = (lo + prefix + i as u64).saturating_sub(base);
                    let f = self.progress_gap_compute(id, elapsed);
                    self.gap_cache_put(gap_keys[i], f);
                    f
                }
            };
            residuals.push(f);
        }
        out.clear();
        merge_residual_run(self, lo, hi, stable_from, residuals, out);
        gap_keys.len()
    }
}

/// Shared splitting loop: walks `t` over `[lo, hi]`, calling `step` once per
/// time point below `stable_from` and once for the whole tail at or beyond
/// it, merging adjacent residuals into one range when they are equal and
/// time-invariant (`Uniform`) or exact unit translates of one another with
/// shifts staying ≥ 1 (`Translated`) — see [`Interner::progress_one_over`]
/// for why exactly these merges are sound for a union-of-contributions
/// caller.
fn progress_over_with(
    arena: &mut Interner,
    lo: u64,
    hi: u64,
    stable_from: u64,
    mut step: impl FnMut(&mut Interner, u64) -> FormulaId,
) -> Vec<SplitRange> {
    debug_assert!(lo <= hi, "window [{lo}, {hi}] is empty");
    // `prev` is the step result at `t − 1` (the residual of the previous
    // tick, which for a `Translated` range differs from the range's stored
    // `residual`).
    let mut out: Vec<SplitRange> = Vec::new();
    let mut prev: Option<FormulaId> = None;
    let mut t = lo;
    while t <= hi {
        let f = step(arena, t);
        let stable = t >= stable_from;
        let upper = if stable { hi } else { t };
        let extended = match out.last_mut() {
            Some(r) if r.hi + 1 == t => {
                if prev == Some(f) && r.kind == RangeKind::Uniform && arena.is_time_invariant(f) {
                    r.hi = upper;
                    true
                } else if !stable
                    && (r.kind == RangeKind::Translated || r.lo == r.hi)
                    && prev.is_some_and(|p| is_unit_translate(arena, p, f))
                {
                    // The previous residual is the exact one-tick-later
                    // translate of this one: keep sweeping the zone. The
                    // check requires the *new* member's shift ≥ 1, so the
                    // shift-0 member (window opening) always starts its own
                    // range.
                    r.kind = RangeKind::Translated;
                    r.hi = t;
                    true
                } else {
                    false
                }
            }
            _ => false,
        };
        if !extended {
            out.push(SplitRange {
                lo: t,
                hi: upper,
                residual: f,
                kind: RangeKind::Uniform,
            });
        }
        prev = Some(f);
        if stable {
            break;
        }
        t += 1;
    }
    out
}

/// Returns `true` if `prev` is the exact unit translate `S₁ f` of `f` and
/// `f` itself still has shift slack ≥ 1 — the condition under which a range
/// ending in `prev` may absorb `f` as a [`RangeKind::Translated`] member.
fn is_unit_translate(arena: &Interner, prev: FormulaId, f: FormulaId) -> bool {
    let mf = arena.node_meta(f);
    if !mf.is_translatable() {
        return false;
    }
    let mp = arena.node_meta(prev);
    mp.slack == mf.slack + 1 && mp.canon == mf.canon
}

/// The merge half of [`progress_over_with`], applied to a run of residuals
/// that has already been resolved (`residuals[i]` is the residual at tick
/// `lo + i`): folds adjacent ticks into `Uniform` / `Translated` ranges and
/// extends the final (stable) tick's range to `hi`, appending to `out`. The
/// run must cover `lo ..= min(hi, max(lo, stable_from))` — exactly the ticks
/// the scalar loop steps before breaking on stability — so both splitters
/// produce identical range vectors for identical residual sequences.
fn merge_residual_run(
    arena: &Interner,
    lo: u64,
    hi: u64,
    stable_from: u64,
    residuals: &[FormulaId],
    out: &mut Vec<SplitRange>,
) {
    let mut prev: Option<FormulaId> = None;
    for (i, &f) in residuals.iter().enumerate() {
        let t = lo + i as u64;
        let stable = t >= stable_from;
        let upper = if stable { hi } else { t };
        let extended = match out.last_mut() {
            Some(r) if r.hi + 1 == t => {
                if prev == Some(f) && r.kind == RangeKind::Uniform && arena.is_time_invariant(f) {
                    r.hi = upper;
                    true
                } else if !stable
                    && (r.kind == RangeKind::Translated || r.lo == r.hi)
                    && prev.is_some_and(|p| is_unit_translate(arena, p, f))
                {
                    r.kind = RangeKind::Translated;
                    r.hi = t;
                    true
                } else {
                    false
                }
            }
            _ => false,
        };
        if !extended {
            out.push(SplitRange {
                lo: t,
                hi: upper,
                residual: f,
                kind: RangeKind::Uniform,
            });
        }
        prev = Some(f);
        if stable {
            break;
        }
    }
}
