//! The population-protocol abstraction and the declarative
//! interaction-class schema.
//!
//! A protocol is a finite state space plus a deterministic transition
//! function on *ordered* pairs of states. In each step of the probabilistic
//! model, the random scheduler draws an ordered pair of distinct agents
//! (*initiator*, *responder*) uniformly from the population of size `n`;
//! their states are rewritten by [`Protocol::transition`]. *Parallel time*
//! is interactions divided by `n`.
//!
//! # The interaction schema
//!
//! The count engine (kinds `jump` and `count`) never samples null
//! interactions: it needs to know the exact set of *productive* ordered
//! state pairs, its total weight under the current occupancy counts, and
//! which parts of it can be batched. Protocols declare this once, declaratively, through
//! [`InteractionSchema::interaction_classes`]: a list of [`ClassSpec`]s,
//! each naming one [`InteractionClass`] with an exchangeability flag.
//!
//! The four class shapes, with their weight formulas over the occupancy
//! counts `c_s` (writing `R`/`E` for the number of agents in rank/extra
//! states):
//!
//! | Class | Covers | Weight |
//! |-------|--------|--------|
//! | [`EqualRank`] | ordered pairs of two agents in the same rank state `s`, for every `s` with [`equal_rank_rule`]`(s)` | `Σ_s c_s(c_s − 1)` |
//! | [`ExtraExtra`] | every ordered pair of two agents in extra states | `E(E − 1)` |
//! | [`RankExtra`] | every mixed (rank, extra) ordered pair in the given [`CrossDirection`] | `R·E` per direction |
//! | [`Pair`] | one enumerated ordered state pair `(a, b)` — the escape hatch for protocols whose rules fit none of the above | `c_a·c_b` (or `c_a(c_a − 1)` if `a = b`) |
//!
//! The declaration must be **exact** (a pair is productive iff exactly one
//! declared class covers it) and classes must not overlap;
//! [`validate_interaction_schema`] checks both exhaustively against the
//! transition function for small instances and is used throughout the test
//! suites. One schema drives everything downstream: exact productive-pair
//! sampling in exact mode, per-class batching in batched mode, and
//! the validators.
//!
//! # The ranking contract
//!
//! Every *ranking* protocol in this workspace solves the ranking problem:
//! the state space is `n` *rank states* (ids `0..num_rank_states`) plus `x`
//! *extra states* (ids `num_rank_states..num_states`), and the protocol
//! must silently stabilise with each of the `n` agents in a distinct rank
//! state. Implementations must uphold:
//!
//! 1. `transition` returns `Some` **only** when at least one of the two
//!    agents actually changes state (no-op rewrites must return `None`);
//! 2. a configuration is **silent** (no ordered pair is productive) if and
//!    only if all agents occupy pairwise-distinct rank states;
//! 3. the number of agents is conserved by every rule (trivially true here:
//!    rules rewrite exactly the two participants).
//!
//! [`validate_ranking_contract`] checks 1–2 exhaustively for small
//! instances. Non-ranking protocols (e.g. loosely-stabilising leader
//! election) can still implement [`InteractionSchema`] — typically through
//! the [`Pair`] escape hatch — and run on every engine; they simply never
//! satisfy the ranking contract's silence shape.
//!
//! [`EqualRank`]: InteractionClass::EqualRank
//! [`ExtraExtra`]: InteractionClass::ExtraExtra
//! [`RankExtra`]: InteractionClass::RankExtra
//! [`Pair`]: InteractionClass::Pair
//! [`equal_rank_rule`]: InteractionSchema::equal_rank_rule

/// Dense state identifier. Rank states come first (`0..num_rank_states`),
/// extra states after.
pub type State = u32;

/// A population protocol: a finite state space and a deterministic
/// transition function on ordered state pairs.
///
/// # Examples
///
/// The one-rule generic protocol `A_G` (`i + i → i + (i+1 mod n)`):
///
/// ```
/// use ssr_engine::protocol::{Protocol, State};
///
/// struct Ag { n: usize }
/// impl Protocol for Ag {
///     fn name(&self) -> &str { "A_G" }
///     fn population_size(&self) -> usize { self.n }
///     fn num_states(&self) -> usize { self.n }
///     fn num_rank_states(&self) -> usize { self.n }
///     fn transition(&self, i: State, r: State) -> Option<(State, State)> {
///         (i == r).then(|| (i, (r + 1) % self.n as State))
///     }
/// }
///
/// let p = Ag { n: 4 };
/// assert_eq!(p.transition(2, 2), Some((2, 3)));
/// assert_eq!(p.transition(2, 3), None);
/// ```
pub trait Protocol {
    /// Human-readable protocol name (used in reports and tables).
    fn name(&self) -> &str;

    /// The population size `n` the protocol instance is built for.
    fn population_size(&self) -> usize;

    /// Total number of states (`n` rank states + `x` extra states).
    fn num_states(&self) -> usize;

    /// Number of rank states; always equals [`population_size`] for ranking
    /// protocols. Rank states are ids `0..num_rank_states`.
    ///
    /// [`population_size`]: Protocol::population_size
    fn num_rank_states(&self) -> usize;

    /// Apply the transition function to an ordered pair
    /// `(initiator, responder)`.
    ///
    /// Returns the rewritten pair, or `None` if the interaction is a null
    /// interaction (leaves both agents unchanged).
    fn transition(&self, initiator: State, responder: State) -> Option<(State, State)>;

    /// Number of extra (non-rank) states `x`.
    fn num_extra_states(&self) -> usize {
        self.num_states() - self.num_rank_states()
    }

    /// Whether `s` is a rank state.
    fn is_rank_state(&self, s: State) -> bool {
        (s as usize) < self.num_rank_states()
    }
}

/// Direction(s) in which mixed (rank, extra) ordered pairs are productive,
/// for the [`InteractionClass::RankExtra`] class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CrossDirection {
    /// Only pairs with the **rank agent as initiator** are productive.
    RankInitiator,
    /// Only pairs with the **extra agent as initiator** are productive.
    ExtraInitiator,
    /// Every mixed ordered pair is productive, in both orders.
    Both,
}

impl CrossDirection {
    /// Number of productive orderings per unordered mixed agent pair
    /// (1 or 2) — the multiplier in the class weight `dirs·R·E`.
    pub fn multiplier(self) -> u64 {
        match self {
            CrossDirection::RankInitiator | CrossDirection::ExtraInitiator => 1,
            CrossDirection::Both => 2,
        }
    }
}

/// One declarative productive interaction class (see the module docs for
/// the coverage and weight of each shape).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InteractionClass {
    /// Ordered pairs of two agents in the same rank state `s`, for every
    /// rank state with [`InteractionSchema::equal_rank_rule`].
    EqualRank,
    /// Every ordered pair of two agents in extra states.
    ExtraExtra,
    /// Every mixed (rank, extra) ordered pair in the given direction(s).
    RankExtra(CrossDirection),
    /// One explicitly enumerated ordered state pair — the escape hatch for
    /// rule structures the three shapes above cannot express. A pair must
    /// not also be covered by another declared class.
    Pair {
        /// Initiator state of the enumerated pair.
        initiator: State,
        /// Responder state of the enumerated pair.
        responder: State,
    },
}

/// An [`InteractionClass`] plus its batching contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ClassSpec {
    /// The class shape.
    pub class: InteractionClass,
    /// Whether consecutive productive draws from this class are
    /// statistically exchangeable under frozen weights, i.e. whether the
    /// count engine may execute them as one multinomially-split batch.
    /// True for every memoryless rewrite (all protocols in this
    /// workspace); declare `false` via [`ClassSpec::non_exchangeable`] for
    /// rules whose effect depends on interleaving with other classes.
    pub exchangeable: bool,
}

impl ClassSpec {
    /// The [`InteractionClass::EqualRank`] class, exchangeable.
    pub fn equal_rank() -> Self {
        ClassSpec {
            class: InteractionClass::EqualRank,
            exchangeable: true,
        }
    }

    /// The [`InteractionClass::ExtraExtra`] class, exchangeable.
    pub fn extra_extra() -> Self {
        ClassSpec {
            class: InteractionClass::ExtraExtra,
            exchangeable: true,
        }
    }

    /// An [`InteractionClass::RankExtra`] class, exchangeable.
    pub fn rank_extra(direction: CrossDirection) -> Self {
        ClassSpec {
            class: InteractionClass::RankExtra(direction),
            exchangeable: true,
        }
    }

    /// An enumerated [`InteractionClass::Pair`], exchangeable.
    pub fn pair(initiator: State, responder: State) -> Self {
        ClassSpec {
            class: InteractionClass::Pair {
                initiator,
                responder,
            },
            exchangeable: true,
        }
    }

    /// Mark this class as **not** batchable: the count engine falls back
    /// to exact stepping whenever the class has positive weight.
    pub fn non_exchangeable(mut self) -> Self {
        self.exchangeable = false;
        self
    }
}

/// Declares the exact set of *productive* ordered state pairs as a list of
/// weight classes, so the fast engines can skip null interactions, sample
/// productive pairs by weight, and batch exchangeable classes.
///
/// The declaration must be exact and non-overlapping:
///
/// * an ordered pair of agents in the **same rank state** `s` is productive
///   iff [`EqualRank`](InteractionClass::EqualRank) is declared and
///   [`equal_rank_rule`](Self::equal_rank_rule)`(s)` holds;
/// * an ordered pair of two agents in **extra states** is productive iff
///   [`ExtraExtra`](InteractionClass::ExtraExtra) is declared, or the exact
///   state pair is enumerated as a [`Pair`](InteractionClass::Pair);
/// * mixed (rank, extra) ordered pairs follow the declared
///   [`RankExtra`](InteractionClass::RankExtra) direction(s) or enumerated
///   pairs;
/// * any other ordered pair is productive iff enumerated as a
///   [`Pair`](InteractionClass::Pair);
/// * no pair may be covered by two declared classes.
///
/// [`validate_interaction_schema`] cross-checks a declaration against
/// [`Protocol::transition`] exhaustively.
///
/// # Examples
///
/// ```
/// use ssr_engine::protocol::{ClassSpec, InteractionSchema, Protocol, State};
///
/// struct Ag { n: usize }
/// impl Protocol for Ag {
///     fn name(&self) -> &str { "A_G" }
///     fn population_size(&self) -> usize { self.n }
///     fn num_states(&self) -> usize { self.n }
///     fn num_rank_states(&self) -> usize { self.n }
///     fn transition(&self, i: State, r: State) -> Option<(State, State)> {
///         (i == r).then(|| (i, (r + 1) % self.n as State))
///     }
/// }
/// impl InteractionSchema for Ag {
///     fn interaction_classes(&self) -> Vec<ClassSpec> {
///         vec![ClassSpec::equal_rank()]
///     }
/// }
///
/// ssr_engine::protocol::validate_interaction_schema(&Ag { n: 6 }).unwrap();
/// ```
pub trait InteractionSchema: Protocol {
    /// Enumerate the protocol's productive classes. Called once per engine
    /// construction; the result must not depend on the configuration.
    fn interaction_classes(&self) -> Vec<ClassSpec>;

    /// Membership test for the [`EqualRank`](InteractionClass::EqualRank)
    /// class: whether two agents meeting in rank state `s` interact
    /// productively. Only consulted when `EqualRank` is declared.
    ///
    /// The default queries the transition function directly; implementors
    /// may override with a cheaper test.
    fn equal_rank_rule(&self, s: State) -> bool {
        debug_assert!(self.is_rank_state(s));
        self.transition(s, s).is_some()
    }

    /// Stable 64-bit fingerprint of the protocol's interaction structure:
    /// the state-space shape (`population_size`, `num_states`,
    /// `num_rank_states`), the **set** of declared classes, the exact
    /// rewrites of every declared enumerated `Pair`, and — when `EqualRank`
    /// is declared — the equal-rank rewrite of every rank state.
    ///
    /// The hash is a pure function of those values: it is identical across
    /// recompiles, runs, and processes, and **order-independent over the
    /// declared classes** (per-class fingerprints are sorted before
    /// mixing), so refactoring the order of
    /// [`interaction_classes`](Self::interaction_classes) does not change
    /// it. Protocols with different rule structure, shape, equal-rank
    /// rewrites, or pair rewrites hash differently (modulo 64-bit
    /// collisions) — the equal-rank diagonal is hashed rewrite-by-rewrite
    /// precisely because the state-optimal protocols (generic, ring, line)
    /// share shape and class structure and differ *only* there. Rewrites of
    /// the broad cross classes (`ExtraExtra`/`RankExtra`) are not probed —
    /// that would cost `O(num_states²)`; protocols differing only there
    /// must also differ in shape or declared classes in practice. This is
    /// the cache-key primitive of the simulation service: a result memoised
    /// under one schema hash is never served to a protocol whose rules
    /// differ.
    ///
    /// Cost is `O(classes + num_rank_states)` when `EqualRank` is declared
    /// (one `transition` probe per rank state, ~10 ms for tree at
    /// n = 65536), `O(classes)` otherwise. The service derives it once per
    /// `(protocol, n)` per process and memoises it
    /// (`ssr_service::JobSpec::shape`). Do not override — downstream
    /// stores key on the default derivation.
    fn schema_hash(&self) -> u64 {
        /// FNV-1a over a stream of `u64` words, one byte at a time so the
        /// result is independent of host endianness.
        fn mix(h: &mut u64, word: u64) {
            for b in word.to_le_bytes() {
                *h ^= b as u64;
                *h = h.wrapping_mul(0x0000_0100_0000_01B3);
            }
        }
        let mut h: u64 = 0xCBF2_9CE4_8422_2325;
        mix(&mut h, self.population_size() as u64);
        mix(&mut h, self.num_states() as u64);
        mix(&mut h, self.num_rank_states() as u64);
        // Per-class fingerprints, sorted: the declaration is a set.
        let classes = self.interaction_classes();
        let mut codes: Vec<u64> = classes
            .iter()
            .map(|spec| {
                let exch = spec.exchangeable as u64;
                match spec.class {
                    InteractionClass::EqualRank => 1 | exch << 8,
                    InteractionClass::ExtraExtra => 2 | exch << 8,
                    InteractionClass::RankExtra(CrossDirection::RankInitiator) => 3 | exch << 8,
                    InteractionClass::RankExtra(CrossDirection::ExtraInitiator) => 4 | exch << 8,
                    InteractionClass::RankExtra(CrossDirection::Both) => 5 | exch << 8,
                    InteractionClass::Pair {
                        initiator,
                        responder,
                    } => {
                        // A sub-hash keeps the code to one sortable word;
                        // the rewrite is part of the rule, so it is hashed
                        // along with the pair.
                        let mut ph: u64 = 0xCBF2_9CE4_8422_2325;
                        mix(&mut ph, 6 | exch << 8);
                        mix(&mut ph, initiator as u64);
                        mix(&mut ph, responder as u64);
                        if let Some((i2, r2)) = self.transition(initiator, responder) {
                            mix(&mut ph, 1 + i2 as u64);
                            mix(&mut ph, 1 + r2 as u64);
                        }
                        ph | 1 << 63
                    }
                }
            })
            .collect();
        let eq_declared = classes
            .iter()
            .any(|s| s.class == InteractionClass::EqualRank);
        codes.sort_unstable();
        mix(&mut h, codes.len() as u64);
        for code in codes {
            mix(&mut h, code);
        }
        if eq_declared {
            // The equal-rank diagonal, rewrite by rewrite: which rank
            // states fire AND what they rewrite to. The state-optimal
            // protocols share shape and classes and differ only here.
            for s in 0..self.num_rank_states() {
                match self.transition(s as State, s as State) {
                    Some((i2, r2)) => {
                        mix(&mut h, 1 + i2 as u64);
                        mix(&mut h, 1 + r2 as u64);
                    }
                    None => mix(&mut h, 0),
                }
            }
        }
        h
    }
}

/// Number of classes in `classes` covering the ordered state pair
/// `(a, b)` of protocol `p` (0 = declared null, 1 = declared productive,
/// ≥ 2 = overlapping declaration).
fn coverage<P: InteractionSchema + ?Sized>(
    p: &P,
    classes: &[ClassSpec],
    a: State,
    b: State,
) -> usize {
    let ra = p.is_rank_state(a);
    let rb = p.is_rank_state(b);
    classes
        .iter()
        .filter(|spec| match spec.class {
            InteractionClass::EqualRank => ra && rb && a == b && p.equal_rank_rule(a),
            InteractionClass::ExtraExtra => !ra && !rb,
            InteractionClass::RankExtra(d) => match d {
                CrossDirection::RankInitiator => ra && !rb,
                CrossDirection::ExtraInitiator => !ra && rb,
                CrossDirection::Both => ra != rb,
            },
            InteractionClass::Pair {
                initiator,
                responder,
            } => a == initiator && b == responder,
        })
        .count()
}

/// Exhaustively verify that an [`InteractionSchema`] declaration matches
/// the transition function: every productive ordered pair is covered by
/// exactly one declared class, no null pair is covered, no two classes
/// overlap, and `transition` never returns identity rewrites. Cost is
/// `O(num_states² · classes)`; intended for tests on small instances.
///
/// # Errors
///
/// Returns a description of the first violation.
pub fn validate_interaction_schema<P: InteractionSchema + ?Sized>(p: &P) -> Result<(), String> {
    let classes = p.interaction_classes();
    let s_total = p.num_states() as State;
    for a in 0..s_total {
        for b in 0..s_total {
            let out = p.transition(a, b);
            if let Some((a2, b2)) = out {
                if a2 == a && b2 == b {
                    return Err(format!(
                        "transition({a},{b}) returned an identity rewrite"
                    ));
                }
            }
            let covering = coverage(p, &classes, a, b);
            if covering > 1 {
                return Err(format!(
                    "pair ({a},{b}) is covered by {covering} declared classes \
                     (classes must not overlap)"
                ));
            }
            let productive = out.is_some();
            if productive != (covering == 1) {
                return Err(format!(
                    "pair ({a},{b}): transition productive={productive} but \
                     the schema declares {}",
                    covering == 1
                ));
            }
        }
    }
    Ok(())
}

/// Check that a configuration of all-distinct rank states is a fixed point,
/// i.e. that the protocol is *silent* once ranking is achieved: no ordered
/// pair of **distinct** rank states may be productive.
///
/// # Errors
///
/// Returns the first productive distinct-rank pair found.
pub fn validate_distinct_ranks_silent<P: Protocol + ?Sized>(p: &P) -> Result<(), String> {
    let n = p.num_rank_states() as State;
    for a in 0..n {
        for b in 0..n {
            if a != b && p.transition(a, b).is_some() {
                return Err(format!(
                    "distinct rank pair ({a},{b}) is productive; \
                     a perfect ranking would not be silent"
                ));
            }
        }
    }
    Ok(())
}

/// Composite check of the full ranking contract (see module docs) for small
/// instances: schema exactness, no identity rewrites, and silence of
/// perfect rankings.
///
/// # Errors
///
/// Propagates the first failure from either validator.
pub fn validate_ranking_contract<P: InteractionSchema + ?Sized>(p: &P) -> Result<(), String> {
    validate_interaction_schema(p)?;
    validate_distinct_ranks_silent(p)?;
    if p.num_rank_states() != p.population_size() {
        return Err(format!(
            "ranking protocol must have exactly n rank states \
             (n = {}, rank states = {})",
            p.population_size(),
            p.num_rank_states()
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimal correct protocol: A_G.
    struct Ag {
        n: usize,
    }
    impl Protocol for Ag {
        fn name(&self) -> &str {
            "A_G"
        }
        fn population_size(&self) -> usize {
            self.n
        }
        fn num_states(&self) -> usize {
            self.n
        }
        fn num_rank_states(&self) -> usize {
            self.n
        }
        fn transition(&self, i: State, r: State) -> Option<(State, State)> {
            if i == r {
                Some((i, (r + 1) % self.n as State))
            } else {
                None
            }
        }
    }
    impl InteractionSchema for Ag {
        fn interaction_classes(&self) -> Vec<ClassSpec> {
            vec![ClassSpec::equal_rank()]
        }
    }

    #[test]
    fn ag_satisfies_contract() {
        validate_ranking_contract(&Ag { n: 7 }).unwrap();
    }

    #[test]
    fn extra_state_accessors() {
        let p = Ag { n: 5 };
        assert_eq!(p.num_extra_states(), 0);
        assert!(p.is_rank_state(4));
    }

    #[test]
    fn cross_direction_multipliers() {
        assert_eq!(CrossDirection::RankInitiator.multiplier(), 1);
        assert_eq!(CrossDirection::ExtraInitiator.multiplier(), 1);
        assert_eq!(CrossDirection::Both.multiplier(), 2);
    }

    /// A broken protocol whose declaration over-claims productivity.
    struct OverClaim;
    impl Protocol for OverClaim {
        fn name(&self) -> &str {
            "over"
        }
        fn population_size(&self) -> usize {
            3
        }
        fn num_states(&self) -> usize {
            3
        }
        fn num_rank_states(&self) -> usize {
            3
        }
        fn transition(&self, _i: State, _r: State) -> Option<(State, State)> {
            None
        }
    }
    impl InteractionSchema for OverClaim {
        fn interaction_classes(&self) -> Vec<ClassSpec> {
            vec![ClassSpec::equal_rank()]
        }
        fn equal_rank_rule(&self, _s: State) -> bool {
            true // lies: transition never fires
        }
    }

    #[test]
    fn over_claiming_declaration_rejected() {
        assert!(validate_interaction_schema(&OverClaim).is_err());
    }

    /// A broken protocol returning identity rewrites.
    struct Identity;
    impl Protocol for Identity {
        fn name(&self) -> &str {
            "id"
        }
        fn population_size(&self) -> usize {
            2
        }
        fn num_states(&self) -> usize {
            2
        }
        fn num_rank_states(&self) -> usize {
            2
        }
        fn transition(&self, i: State, r: State) -> Option<(State, State)> {
            Some((i, r))
        }
    }
    impl InteractionSchema for Identity {
        fn interaction_classes(&self) -> Vec<ClassSpec> {
            vec![ClassSpec::equal_rank()]
        }
    }

    #[test]
    fn identity_rewrites_rejected() {
        assert!(validate_interaction_schema(&Identity).is_err());
    }

    /// A protocol that is not silent on perfect rankings.
    struct Noisy;
    impl Protocol for Noisy {
        fn name(&self) -> &str {
            "noisy"
        }
        fn population_size(&self) -> usize {
            3
        }
        fn num_states(&self) -> usize {
            3
        }
        fn num_rank_states(&self) -> usize {
            3
        }
        fn transition(&self, i: State, r: State) -> Option<(State, State)> {
            if i == 0 && r == 1 {
                Some((0, 2))
            } else {
                None
            }
        }
    }

    #[test]
    fn non_silent_ranking_rejected() {
        assert!(validate_distinct_ranks_silent(&Noisy).is_err());
    }

    /// A protocol using the sparse-pair escape hatch: the same rule set as
    /// `Noisy` above, declared exactly.
    impl InteractionSchema for Noisy {
        fn interaction_classes(&self) -> Vec<ClassSpec> {
            vec![ClassSpec::pair(0, 1)]
        }
    }

    #[test]
    fn sparse_pair_escape_hatch_validates() {
        validate_interaction_schema(&Noisy).unwrap();
    }

    /// Overlapping declarations (a Pair duplicating EqualRank coverage)
    /// are rejected even though the union covers exactly the productive
    /// set.
    struct Overlap;
    impl Protocol for Overlap {
        fn name(&self) -> &str {
            "overlap"
        }
        fn population_size(&self) -> usize {
            2
        }
        fn num_states(&self) -> usize {
            2
        }
        fn num_rank_states(&self) -> usize {
            2
        }
        fn transition(&self, i: State, r: State) -> Option<(State, State)> {
            (i == r && i == 0).then_some((0, 1))
        }
    }
    impl InteractionSchema for Overlap {
        fn interaction_classes(&self) -> Vec<ClassSpec> {
            vec![ClassSpec::equal_rank(), ClassSpec::pair(0, 0)]
        }
    }

    #[test]
    fn overlapping_classes_rejected() {
        let err = validate_interaction_schema(&Overlap).unwrap_err();
        assert!(err.contains("covered by 2"), "{err}");
    }

    #[test]
    fn non_exchangeable_builder_flag() {
        let spec = ClassSpec::extra_extra().non_exchangeable();
        assert!(!spec.exchangeable);
        assert!(ClassSpec::pair(3, 4).exchangeable);
    }

    /// A configurable protocol for schema-hash tests: the declared class
    /// list is injected, so declaration order and content vary freely.
    struct Declared {
        n: usize,
        classes: Vec<ClassSpec>,
    }
    impl Protocol for Declared {
        fn name(&self) -> &str {
            "declared"
        }
        fn population_size(&self) -> usize {
            self.n
        }
        fn num_states(&self) -> usize {
            self.n + 2
        }
        fn num_rank_states(&self) -> usize {
            self.n
        }
        fn transition(&self, i: State, r: State) -> Option<(State, State)> {
            // Equal-rank rule only at even rank states; the hash must pick
            // this membership up through `equal_rank_rule`.
            (i == r && (i as usize) < self.n && i.is_multiple_of(2)).then_some((i, i + 1))
        }
    }
    impl InteractionSchema for Declared {
        fn interaction_classes(&self) -> Vec<ClassSpec> {
            self.classes.clone()
        }
    }

    #[test]
    fn schema_hash_is_stable_across_recompiles() {
        // Two independently constructed instances (separate allocations,
        // separate compiled schemas) hash identically.
        let a = Declared {
            n: 10,
            classes: vec![ClassSpec::equal_rank(), ClassSpec::extra_extra()],
        };
        let b = Declared {
            n: 10,
            classes: vec![ClassSpec::equal_rank(), ClassSpec::extra_extra()],
        };
        assert_eq!(a.schema_hash(), b.schema_hash());
        assert_eq!(a.schema_hash(), a.schema_hash());
    }

    #[test]
    fn schema_hash_is_order_independent_over_declared_classes() {
        let fwd = Declared {
            n: 8,
            classes: vec![
                ClassSpec::equal_rank(),
                ClassSpec::extra_extra(),
                ClassSpec::pair(1, 3),
                ClassSpec::pair(3, 1),
            ],
        };
        let rev = Declared {
            n: 8,
            classes: vec![
                ClassSpec::pair(3, 1),
                ClassSpec::pair(1, 3),
                ClassSpec::extra_extra(),
                ClassSpec::equal_rank(),
            ],
        };
        assert_eq!(fwd.schema_hash(), rev.schema_hash());
    }

    #[test]
    fn schema_hash_distinguishes_structure() {
        let base = Declared {
            n: 8,
            classes: vec![ClassSpec::equal_rank()],
        };
        // Different class set.
        let more = Declared {
            n: 8,
            classes: vec![ClassSpec::equal_rank(), ClassSpec::extra_extra()],
        };
        // Different shape, same classes.
        let bigger = Declared {
            n: 9,
            classes: vec![ClassSpec::equal_rank()],
        };
        // Swapped pair orientation is a different rule set.
        let ab = Declared {
            n: 8,
            classes: vec![ClassSpec::pair(1, 3)],
        };
        let ba = Declared {
            n: 8,
            classes: vec![ClassSpec::pair(3, 1)],
        };
        // Exchangeability is part of the batching contract.
        let non_exch = Declared {
            n: 8,
            classes: vec![ClassSpec::equal_rank().non_exchangeable()],
        };
        let h = base.schema_hash();
        assert_ne!(h, more.schema_hash());
        assert_ne!(h, bigger.schema_hash());
        assert_ne!(h, non_exch.schema_hash());
        assert_ne!(ab.schema_hash(), ba.schema_hash());
    }

    /// Same shape and class list as `Declared`, different equal-rank rule
    /// membership (odd instead of even states).
    struct DeclaredOdd {
        n: usize,
    }
    impl Protocol for DeclaredOdd {
        fn name(&self) -> &str {
            "declared-odd"
        }
        fn population_size(&self) -> usize {
            self.n
        }
        fn num_states(&self) -> usize {
            self.n + 2
        }
        fn num_rank_states(&self) -> usize {
            self.n
        }
        fn transition(&self, i: State, r: State) -> Option<(State, State)> {
            (i == r && (i as usize) < self.n && i % 2 == 1).then(|| (i, i - 1))
        }
    }
    impl InteractionSchema for DeclaredOdd {
        fn interaction_classes(&self) -> Vec<ClassSpec> {
            vec![ClassSpec::equal_rank()]
        }
    }

    #[test]
    fn schema_hash_sees_equal_rank_membership() {
        let even = Declared {
            n: 8,
            classes: vec![ClassSpec::equal_rank()],
        };
        let odd = DeclaredOdd { n: 8 };
        assert_ne!(even.schema_hash(), odd.schema_hash());
    }
}
